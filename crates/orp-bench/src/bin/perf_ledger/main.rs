//! `perf_ledger` — one benchmark for the ORP solver and the NPB
//! simulator, with a traced per-layer replay. See `README.md` here for
//! the metrics, the layers and how to read a comparison.
//!
//! ```text
//! perf_ledger [--seed S] [--label L]
//!     every workload in its own child process, untraced then traced;
//!     prints every metric and writes results/ledger/<L>.json
//! perf_ledger --workload W [--seed S] [--seconds T] [--trace 0|1]
//!     one run of one workload; the last line of stdout is the result
//! perf_ledger --compare A.json B.json
//!     verdict per workload and end-to-end metric, exact-count check
//! ```

mod compare;
mod metrics;
mod sim;
mod solve;
mod stats;

use metrics::{int, number, obj, print_metric, text, Outcome, END_TO_END, LAYERS};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

/// What a workload runs.
enum Kind {
    Solve(solve::Spec),
    Sim(sim::Kind),
}

/// One workload of the ledger.
struct Workload {
    name: &'static str,
    kind: Kind,
    /// Nominal seconds per unit (one solve, one NPB suite pass, one
    /// open-loop run) on a 2-core x86-64 container. `--seconds T` runs
    /// `round(T / unit_s)` units (at least one), so the work done — and
    /// every count — depends only on `T`, not on the machine's speed.
    unit_s: f64,
    /// Units of a full ledger run.
    full_units: usize,
}

impl Workload {
    fn units(&self, seconds: f64) -> usize {
        ((seconds / self.unit_s).round() as usize).max(1)
    }

    fn describe(&self) -> Value {
        match &self.kind {
            Kind::Solve(spec) => spec.describe(),
            Kind::Sim(kind) => kind.describe(),
        }
    }

    fn run(&self, seed: u64, seconds: f64, trace: bool) -> Outcome {
        let units = self.units(seconds);
        match (&self.kind, trace) {
            (Kind::Solve(spec), false) => solve::run(spec, seed, units),
            (Kind::Solve(spec), true) => solve::run_traced(spec, seed),
            (Kind::Sim(kind), false) => sim::run(*kind, seed, units),
            (Kind::Sim(kind), true) => sim::run_traced(*kind, seed),
        }
    }
}

/// The ledger's workloads; why each exists is recorded beside its name
/// in `BENCHMARK.json` and in `README.md`.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solve-n1024",
        kind: Kind::Solve(solve::Spec {
            n: 1024,
            r: 15,
            eval_workers: 1,
            proposals: 50_000,
            setup_repeats: 15,
        }),
        unit_s: 8.2,
        full_units: 3,
    },
    Workload {
        name: "solve-n16384",
        kind: Kind::Solve(solve::Spec {
            n: 16384,
            r: 12,
            eval_workers: 2,
            proposals: 300,
            setup_repeats: 3,
        }),
        unit_s: 10.5,
        full_units: 3,
    },
    Workload {
        name: "npb-suite",
        kind: Kind::Sim(sim::Kind::Npb),
        unit_s: 6.3,
        full_units: 4,
    },
    Workload {
        name: "openloop-1m",
        kind: Kind::Sim(sim::Kind::OpenLoop),
        unit_s: 0.87,
        full_units: 25,
    },
];

fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// This process's peak resident set (`VmHWM`), in MiB; 0 where the
/// platform does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const USAGE: &str = "usage:
  perf_ledger [--seed S] [--label L]
  perf_ledger --workload W [--seed S] [--seconds T] [--trace 0|1]
  perf_ledger --compare A.json B.json";

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Mode {
    Full {
        seed: u64,
        label: String,
    },
    One {
        workload: &'static str,
        seed: u64,
        seconds: Option<f64>,
        trace: bool,
        /// Print the full outcome for a parent ledger run instead of
        /// the one-line result.
        detail: bool,
    },
    Compare {
        a: String,
        b: String,
    },
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut seed = 1u64;
    let mut label = None;
    let mut wl = None;
    let mut seconds = None;
    let mut trace = false;
    let mut detail = false;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--label" => {
                let l = value()?;
                if l.is_empty()
                    || !l
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c))
                    || l.starts_with('.')
                {
                    return Err(format!("--label {l:?}: use letters, digits, _ - ."));
                }
                label = Some(l);
            }
            "--workload" => {
                let name = value()?;
                wl = Some(workload(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                }
            }
            "--detail" => detail = true,
            "--compare" => compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (compare, wl) {
        (Some((a, b)), None) => Ok(Mode::Compare { a, b }),
        (Some(_), Some(_)) => Err("--compare takes no --workload".into()),
        (None, Some(w)) => Ok(Mode::One {
            workload: w.name,
            seed,
            seconds,
            trace,
            detail,
        }),
        (None, None) => Ok(Mode::Full {
            seed,
            label: label.unwrap_or_else(|| "latest".into()),
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perf_ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::One {
            workload: name,
            seed,
            seconds,
            trace,
            detail,
        } => {
            let w = workload(name).expect("parsed workload");
            let seconds = seconds.unwrap_or(w.unit_s * w.full_units as f64);
            let mut out = w.run(seed, seconds, trace);
            if !trace {
                out.sample("peak_rss_mib", peak_rss_mib());
            }
            for e in &out.errors {
                eprintln!("perf_ledger: {name}: {e}");
            }
            if detail {
                println!("{}", to_json(&out.to_json()));
            } else {
                print_outcome(name, &out, trace);
                println!("{}", to_json(&out.result_line(trace)));
            }
            ExitCode::SUCCESS
        }
        Mode::Full { seed, label } => full(seed, &label),
        Mode::Compare { a, b } => compare::run(&a, &b),
    }
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON rendering is infallible")
}

/// Human-readable metric lines of a single run.
fn print_outcome(name: &str, out: &Outcome, trace: bool) {
    println!("{name}: {} attempted, {} failed", out.attempted, out.failed);
    if trace {
        for d in LAYERS {
            print_metric(d.name, out.layers.get(d.name).copied(), d.unit);
        }
    } else {
        for e in &END_TO_END {
            if let Some(s) = out.samples.get(e.name) {
                print_metric(e.name, Some(e.run_value(s)), e.unit);
            }
        }
    }
}

/// Provenance of a ledger file: commit, dirty flag, machine, build.
fn provenance(seed: u64, label: &str) -> Value {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]);
    let (rev, dirty) = match (rev, dirty) {
        (Some(r), Some(d)) => (text(&r), Value::Bool(!d.is_empty())),
        _ => (text("unknown"), text("unknown")),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj(vec![
        ("label", text(label)),
        ("git_rev", rev),
        ("git_dirty", dirty),
        ("nproc", int(nproc)),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", int(seed)),
    ])
}

/// Runs one workload in a child process and returns its detailed outcome.
fn child(w: &Workload, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = w.unit_s * w.full_units as f64;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--detail"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("child output: {e}"))
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, String> {
    v.get_field(name).map_err(|e| e.to_string())
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Int(i) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    }
}

/// Summary of one end-to-end metric for the ledger file.
fn summary(unit: &str, better: stats::Better, samples: &[f64]) -> Value {
    let (q1, median, q3) = stats::quartiles(samples);
    let tail = match stats::tail(samples) {
        Some((p, v)) => obj(vec![
            ("percentile", Value::Float(p)),
            ("value", Value::Float(v)),
        ]),
        None => Value::Null,
    };
    obj(vec![
        ("unit", text(unit)),
        ("better", text(better.name())),
        ("median", Value::Float(median)),
        ("q1", Value::Float(q1)),
        ("q3", Value::Float(q3)),
        ("n", int(samples.len() as u64)),
        ("tail", tail),
        (
            "samples",
            Value::Array(samples.iter().map(|&x| Value::Float(x)).collect()),
        ),
    ])
}

/// Builds one workload's ledger entry from its untraced and traced
/// children, printing every metric on the way.
fn ledger_entry(w: &Workload, untraced: &Value, traced: &Value) -> Result<(Value, bool), String> {
    let attempted = as_u64(field(untraced, "attempted")?) + as_u64(field(traced, "attempted")?);
    let failed = as_u64(field(untraced, "failed")?) + as_u64(field(traced, "failed")?);
    let samples = field(untraced, "samples")?;
    let mut e2e = Vec::new();
    println!(
        "== {} ({} units; {attempted} operations, {failed} failed)",
        w.name, w.full_units
    );
    for m in &END_TO_END {
        let xs: Vec<f64> = if m.name == "error_rate" {
            vec![failed as f64 / attempted.max(1) as f64]
        } else {
            match field(samples, m.name)? {
                Value::Array(a) => a.iter().filter_map(number).collect(),
                _ => Vec::new(),
            }
        };
        if xs.is_empty() {
            return Err(format!("{}: no samples of {}", w.name, m.name));
        }
        let (q1, med, q3) = stats::quartiles(&xs);
        let tail = stats::tail(&xs).map_or("-".to_string(), |(p, v)| format!("p{p} {v:.6}"));
        println!(
            "  {:<32} {med:>16.6} {:<9} q1 {q1:.6}  q3 {q3:.6}  n {}  tail {tail}",
            m.name,
            m.unit,
            xs.len()
        );
        e2e.push((m.name, summary(m.unit, m.better, &xs)));
    }
    let values = field(traced, "layers")?;
    let mut layers = Vec::new();
    for d in LAYERS {
        let v = values.get_field(d.name).ok().and_then(number);
        print_metric(d.name, v, d.unit);
        layers.push((
            d.name,
            obj(vec![
                ("unit", text(d.unit)),
                ("exact", Value::Bool(d.exact)),
                ("value", v.map_or(Value::Null, Value::Float)),
            ]),
        ));
    }
    let errors = |v: &Value| field(v, "errors").cloned();
    let entry = obj(vec![
        ("name", text(w.name)),
        ("config", w.describe()),
        ("units", int(w.full_units as u64)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        (
            "errors",
            obj(vec![
                ("untraced", errors(untraced)?),
                ("traced", errors(traced)?),
            ]),
        ),
        ("end_to_end", obj(e2e)),
        ("per_layer", obj(layers)),
        (
            "fingerprint",
            obj(vec![
                ("untraced", field(untraced, "fingerprint")?.clone()),
                ("traced", field(traced, "fingerprint")?.clone()),
            ]),
        ),
    ]);
    Ok((entry, failed == 0))
}

/// The full ledger: every workload untraced then traced, each in its
/// own process so its peak RSS is its own.
fn full(seed: u64, label: &str) -> ExitCode {
    let mut entries = Vec::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let run = child(w, seed, false)
            .and_then(|u| child(w, seed, true).map(|t| (u, t)))
            .and_then(|(u, t)| ledger_entry(w, &u, &t));
        match run {
            Ok((entry, ok)) => {
                all_ok &= ok;
                entries.push(entry);
            }
            Err(e) => {
                eprintln!("perf_ledger: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    let ledger = obj(vec![
        ("provenance", provenance(seed, label)),
        ("workloads", Value::Array(entries)),
    ]);
    let dir = std::path::Path::new("results/ledger");
    let path = dir.join(format!("{label}.json"));
    let text = serde_json::to_string_pretty(&ledger).expect("JSON rendering is infallible");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text + "\n")) {
        eprintln!("perf_ledger: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_three_modes() {
        assert_eq!(
            parse(&args("--seed 7 --label baseline_a")),
            Ok(Mode::Full {
                seed: 7,
                label: "baseline_a".into()
            })
        );
        assert_eq!(
            parse(&args(
                "--workload npb-suite --seed 3 --seconds 20 --trace 1"
            )),
            Ok(Mode::One {
                workload: "npb-suite",
                seed: 3,
                seconds: Some(20.0),
                trace: true,
                detail: false
            })
        );
        assert_eq!(
            parse(&args("--compare a.json b.json")),
            Ok(Mode::Compare {
                a: "a.json".into(),
                b: "b.json".into()
            })
        );
        for bad in [
            "--workload nope",
            "--trace 2 --workload npb-suite",
            "--seconds 0 --workload npb-suite",
            "--label ../x",
            "--compare a.json",
            "--bogus",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn unit_counts_depend_only_on_seconds() {
        let w = workload("solve-n1024").unwrap();
        assert_eq!(w.units(w.unit_s * w.full_units as f64), w.full_units);
        assert_eq!(w.units(0.1), 1);
        for w in &WORKLOADS {
            assert_eq!(w.units(w.unit_s * w.full_units as f64), w.full_units);
        }
    }

    /// Walks up from this package to the repository's BENCHMARK.json.
    fn benchmark_json() -> Value {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let p = dir.join("BENCHMARK.json");
            if p.is_file() {
                let s = std::fs::read_to_string(p).unwrap();
                return serde_json::from_str(&s).unwrap();
            }
            assert!(dir.pop(), "BENCHMARK.json not found");
        }
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Array(items) = v.get_field(key).unwrap() else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get_field(k) {
                    Ok(Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let b = benchmark_json();
        let workloads: Vec<String> = names(&b, "workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .filter(|e| e.name != "error_rate")
            .map(|e| (e.name.into(), e.unit.into()))
            .collect();
        assert_eq!(names(&b, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = LAYERS
            .iter()
            .map(|d| (d.name.into(), d.unit.into()))
            .collect();
        assert_eq!(names(&b, "per_layer"), layers);
        for (name, _) in names(&b, "end_to_end") {
            let ours = END_TO_END.iter().find(|e| e.name == name).unwrap();
            let (bound, better) = compare::bound_of(&b, &name).unwrap();
            assert_eq!(better, ours.better, "{name}");
            assert!(bound.share > 0.0 && bound.share <= 0.25, "{name}");
        }
    }
}
