//! `--compare A B`: judges ledger `B` against baseline ledger `A`.
//!
//! Every (workload, end-to-end metric) pair gets a verdict from
//! [`stats::verdict`] under the bound and direction `BENCHMARK.json`
//! fixes for the metric (`error_rate`, which that file carries as the
//! result line's failure count, tolerates no increase). The work itself
//! must be identical: every count-valued layer metric, every h-ASPL bit
//! pattern and every simulator fingerprint. Any `worse` verdict or
//! mismatch fails the comparison.

use crate::metrics::{floor, number, END_TO_END, LAYERS};
use crate::stats::{self, Better, Bound, Verdict};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&s).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json` from the current directory or the nearest parent.
fn benchmark_json() -> Result<Value, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    loop {
        let p = dir.join("BENCHMARK.json");
        if p.is_file() {
            return read_json(&p);
        }
        if !dir.pop() {
            return Err("BENCHMARK.json not found here or in any parent directory".into());
        }
    }
}

fn str_field<'a>(v: &'a Value, name: &str) -> Option<&'a str> {
    match v.get_field(name) {
        Ok(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// The bound and direction `BENCHMARK.json` gives an end-to-end metric.
pub fn bound_of(benchmark: &Value, name: &str) -> Result<(Bound, Better), String> {
    let Ok(Value::Array(metrics)) = benchmark.get_field("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let m = metrics
        .iter()
        .find(|m| str_field(m, "name") == Some(name))
        .ok_or_else(|| format!("BENCHMARK.json does not define {name}"))?;
    let share = m
        .get_field("bound")
        .ok()
        .and_then(number)
        .ok_or_else(|| format!("{name}: no numeric bound"))?;
    let better = str_field(m, "better")
        .and_then(Better::parse)
        .ok_or_else(|| format!("{name}: better must be higher or lower"))?;
    Ok((
        Bound {
            share,
            floor: floor(name),
        },
        better,
    ))
}

fn workloads(ledger: &Value) -> Vec<&Value> {
    match ledger.get_field("workloads") {
        Ok(Value::Array(w)) => w.iter().collect(),
        _ => Vec::new(),
    }
}

fn samples(entry: &Value, metric: &str) -> Vec<f64> {
    entry
        .get_field("end_to_end")
        .and_then(|e| e.get_field(metric))
        .and_then(|m| m.get_field("samples"))
        .map(|s| match s {
            Value::Array(xs) => xs.iter().filter_map(number).collect(),
            _ => Vec::new(),
        })
        .unwrap_or_default()
}

fn compare(bench: &Value, a: &Value, b: &Value) -> Result<bool, String> {
    let mut ok = true;
    let mut rules = Vec::new();
    for e in &END_TO_END {
        let rule = if e.name == "error_rate" {
            (
                Bound {
                    share: 0.0,
                    floor: 0.0,
                },
                e.better,
            )
        } else {
            bound_of(bench, e.name)?
        };
        rules.push((e.name, rule));
    }
    for wa in workloads(a) {
        let name = str_field(wa, "name").unwrap_or("?");
        let Some(wb) = workloads(b)
            .into_iter()
            .find(|w| str_field(w, "name") == Some(name))
        else {
            println!("{name}: missing from the candidate ledger  MISMATCH");
            ok = false;
            continue;
        };
        for &(metric, (bound, better)) in &rules {
            let (xa, xb) = (samples(wa, metric), samples(wb, metric));
            if xa.is_empty() || xb.is_empty() {
                println!("{name:<14} {metric:<14} no samples  MISMATCH");
                ok = false;
                continue;
            }
            let v = stats::verdict(&xa, &xb, better, bound);
            let (ma, mb) = (stats::median(&xa), stats::median(&xb));
            println!(
                "{name:<14} {metric:<14} {:<10} {ma:.6} -> {mb:.6} (tolerance {:.6})",
                v.name(),
                bound.tolerance(ma)
            );
            ok &= v != Verdict::Worse;
        }
        let layer = |w: &Value, d: &str| {
            w.get_field("per_layer")
                .and_then(|l| l.get_field(d))
                .and_then(|m| m.get_field("value"))
                .cloned()
                .unwrap_or(Value::Null)
        };
        for d in LAYERS.iter().filter(|d| d.exact) {
            let (va, vb) = (layer(wa, d.name), layer(wb, d.name));
            if va != vb {
                println!("{name:<14} {:<32} {va:?} != {vb:?}  MISMATCH", d.name);
                ok = false;
            }
        }
        let fa = wa.get_field("fingerprint").ok();
        let fb = wb.get_field("fingerprint").ok();
        if fa.is_none() || fa != fb {
            println!("{name:<14} fingerprint differs  MISMATCH");
            ok = false;
        } else {
            println!("{name:<14} counts and fingerprint identical");
        }
    }
    Ok(ok)
}

/// Runs the comparison; fails on any `worse` verdict or mismatch.
pub fn run(a: &str, b: &str) -> ExitCode {
    let loaded = benchmark_json().and_then(|bench| {
        let a = read_json(&PathBuf::from(a))?;
        let b = read_json(&PathBuf::from(b))?;
        compare(&bench, &a, &b)
    });
    match loaded {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "gap_pct", "unit": "%", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05}]}"#;

    /// A one-workload ledger with the given throughput samples, early
    /// reject count and fingerprint.
    fn ledger(work: &[f64], early_rejects: u64, haspl_bits: &str) -> Value {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let text = format!(
            r#"{{"workloads": [{{"name": "solve-n1024",
              "end_to_end": {{
                "setup_s": {{"samples": [0.002, 0.0021, 0.0019]}},
                "work_per_s": {{"samples": [{}]}},
                "gap_pct": {{"samples": [0.43, 0.44, 0.45]}},
                "peak_rss_mib": {{"samples": [3.7]}},
                "error_rate": {{"samples": [0.0]}}}},
              "per_layer": {{"search.eval_early_reject": {{"value": {early_rejects}}}}},
              "fingerprint": {{"untraced": [{{"haspl_bits": "{haspl_bits}"}}]}}}}]}}"#,
            list(work)
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn identical_ledgers_pass() {
        let bench = serde_json::from_str(BENCH).unwrap();
        let a = ledger(&[6000.0, 6050.0, 5980.0], 89, "3ff0");
        let b = ledger(&[5900.0, 6010.0, 5950.0], 89, "3ff0");
        assert_eq!(compare(&bench, &a, &b), Ok(true));
    }

    #[test]
    fn a_worse_metric_fails() {
        let bench = serde_json::from_str(BENCH).unwrap();
        let a = ledger(&[6000.0, 6050.0, 5980.0], 89, "3ff0");
        let b = ledger(&[5000.0, 5050.0, 4980.0], 89, "3ff0");
        assert_eq!(compare(&bench, &a, &b), Ok(false));
        // the same drop read the other way round is an improvement
        assert_eq!(compare(&bench, &b, &a), Ok(true));
    }

    #[test]
    fn count_or_fingerprint_mismatches_fail() {
        let bench = serde_json::from_str(BENCH).unwrap();
        let a = ledger(&[6000.0, 6050.0, 5980.0], 89, "3ff0");
        let counts = ledger(&[6000.0, 6050.0, 5980.0], 90, "3ff0");
        assert_eq!(compare(&bench, &a, &counts), Ok(false));
        let bits = ledger(&[6000.0, 6050.0, 5980.0], 89, "3ff1");
        assert_eq!(compare(&bench, &a, &bits), Ok(false));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bench = serde_json::from_str(BENCH).unwrap();
        let (bound, better) = bound_of(&bench, "setup_s").unwrap();
        assert_eq!(better, Better::Lower);
        assert_eq!((bound.share, bound.floor), (0.25, 0.010));
        assert!(bound_of(&bench, "nope").is_err());
    }
}
