//! What one workload run measures: end-to-end sample series, per-layer
//! values, correctness counts and the fingerprint that identifies the
//! exact work done — plus their JSON form, shared by the one-line result,
//! the ledger file and `--compare`.

use crate::stats::{self, Better};
use serde::Value;
use std::collections::BTreeMap;

/// One end-to-end metric of the ledger: name, unit, direction, and how
/// a run's samples reduce to the one value the result line reports.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Report the best unit instead of the median. For throughput:
    /// other load on the host only ever slows a unit down (on a shared
    /// 2-core VM, repeated set-ups alternate between two levels 1.6x
    /// apart for seconds at a time), so the fastest unit is the run's
    /// least disturbed reading.
    pub best_unit: bool,
}

impl EndToEnd {
    /// The run's value of this metric.
    pub fn run_value(&self, samples: &[f64]) -> f64 {
        if self.best_unit {
            let pick = match self.better {
                Better::Higher => f64::max,
                Better::Lower => f64::min,
            };
            samples.iter().copied().reduce(pick).unwrap_or(0.0)
        } else {
            stats::median(samples)
        }
    }
}

/// The end-to-end metrics every workload reports, in print order.
/// `error_rate` is the ledger's failure share; it is 0 on a correct
/// run, so `BENCHMARK.json` carries it as the result line's
/// `attempted`/`failed` instead of as a metric.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        best_unit: false,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        best_unit: true,
    },
    EndToEnd {
        name: "gap_pct",
        unit: "%",
        better: Better::Lower,
        best_unit: false,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        best_unit: false,
    },
    EndToEnd {
        name: "error_rate",
        unit: "fraction",
        better: Better::Lower,
        best_unit: false,
    },
];

/// Absolute floor under a metric's relative bound (see
/// [`stats::Bound`]); `error_rate` tolerates nothing.
pub fn floor(name: &str) -> f64 {
    match name {
        "setup_s" => 0.010,
        "peak_rss_mib" => 2.0,
        "gap_pct" => 0.03,
        _ => 0.0,
    }
}

/// One per-layer metric: name, unit, and whether it is a count of work
/// that repeats exactly for a given seed (`--compare` requires those
/// to match; timings and scheduler counters only have to be reported).
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, exact: bool) -> LayerDef {
    LayerDef { name, unit, exact }
}

/// Every per-layer metric, in print order. A traced run reports all of
/// them; a layer its workload does not exercise reads 0.
pub const LAYERS: &[LayerDef] = &[
    // solver: construct / search set-up
    layer("setup.instance_s", "s", false),
    layer("setup.search_state_s", "s", false),
    layer("setup.first_eval_s", "s", false),
    // solver: ops (move sampling)
    layer("ops.sample_ns_mean", "ns", false),
    layer("ops.sample_share_pct", "%", false),
    // solver: search transactions
    layer("search.apply_share_pct", "%", false),
    layer("search.commit_share_pct", "%", false),
    layer("search.rollback_share_pct", "%", false),
    layer("search.rollback_us_mean", "us", false),
    // solver: search evaluation
    layer("search.eval_share_pct", "%", false),
    layer("search.eval_us_p50", "us", false),
    layer("search.eval_us_p99", "us", false),
    layer("search.eval_incremental", "count", true),
    layer("search.eval_full", "count", true),
    layer("search.eval_early_reject", "count", true),
    layer("search.early_reject_ratio", "fraction", true),
    layer("search.affected_pct_mean", "%", true),
    layer("search.rows_repaired", "count", true),
    layer("search.rows_swept", "count", true),
    // solver: anneal
    layer("anneal.best_snapshot_share_pct", "%", false),
    layer("anneal.accept_ratio", "fraction", true),
    layer("anneal.disconnected", "count", true),
    // solver: evaluation worker pool
    layer("pool.busy_pct", "%", false),
    layer("pool.idle_pct", "%", false),
    layer("pool.steals", "count", false),
    layer("pool.steal_fail_ratio", "fraction", false),
    // simulator: network and NPB program construction
    layer("network.build_s", "s", false),
    layer("npb.program_build_s", "s", false),
    layer("npb.BT.wall_s", "s", false),
    layer("npb.CG.wall_s", "s", false),
    layer("npb.EP.wall_s", "s", false),
    layer("npb.FT.wall_s", "s", false),
    layer("npb.IS.wall_s", "s", false),
    layer("npb.LU.wall_s", "s", false),
    layer("npb.MG.wall_s", "s", false),
    layer("npb.SP.wall_s", "s", false),
    // simulator: routing, engine, queue, sharing
    layer("route.ns_per_flow", "ns", false),
    layer("route.share_pct", "%", false),
    layer("engine.ns_per_event", "ns", false),
    layer("queue.events", "count", true),
    layer("queue.cancelled", "count", true),
    layer("queue.tombstone_ratio", "fraction", true),
    layer("queue.peak_depth", "count", true),
    layer("queue.compacted", "count", true),
    layer("sharing.flows", "count", true),
    layer("sharing.peak_flows", "count", true),
    // the trace itself
    layer("trace.coverage_pct", "%", false),
    layer("trace.overhead_pct", "%", false),
    layer("trace.replay_identical", "flag", true),
    // the telemetry recorder (orp-obs)
    layer("obs.overhead_pct", "%", false),
    layer("obs.equivalent", "flag", true),
];

/// The result of one workload run, untraced or traced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run: solves, or simulation runs.
    pub attempted: u64,
    /// Operations that failed or broke a correctness check.
    pub failed: u64,
    /// End-to-end samples by metric name (untraced runs only).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values by metric name (traced runs only); a name absent
    /// here was not measured or was withheld.
    pub layers: BTreeMap<&'static str, f64>,
    /// The exact work done: counts and result bit patterns per unit.
    pub fingerprint: Vec<Value>,
    /// Human-readable reasons for every failure.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Appends end-to-end samples.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|d| d.name == name),
            "undeclared layer {name}"
        );
        self.layers.insert(name, value);
    }

    /// The one-line result a benchmark harness reads: end-to-end run
    /// values untraced, per-layer values traced (0 where unmeasured).
    pub fn result_line(&self, trace: bool) -> Value {
        let metric = |value: f64, unit: &str| {
            obj(vec![("value", Value::Float(value)), ("unit", text(unit))])
        };
        let metrics: Vec<(&str, Value)> = if trace {
            LAYERS
                .iter()
                .map(|d| {
                    let v = self.layers.get(d.name).copied().unwrap_or(0.0);
                    (d.name, metric(v, d.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|e| e.name != "error_rate")
                .map(|e| {
                    let v = self.samples.get(e.name).map_or(0.0, |s| e.run_value(s));
                    (e.name, metric(v, e.unit))
                })
                .collect()
        };
        obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted.into())),
            ("failed", Value::Int(self.failed.into())),
            ("metrics", obj(metrics)),
        ])
    }

    /// The full result a ledger child hands to its parent.
    pub fn to_json(&self) -> Value {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    *k,
                    Value::Array(v.iter().map(|&x| Value::Float(x)).collect()),
                )
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|(k, v)| (*k, Value::Float(*v)))
            .collect();
        obj(vec![
            ("attempted", Value::Int(self.attempted.into())),
            ("failed", Value::Int(self.failed.into())),
            ("samples", obj(samples)),
            ("layers", obj(layers)),
            ("fingerprint", Value::Array(self.fingerprint.clone())),
            (
                "errors",
                Value::Array(self.errors.iter().map(|e| text(e)).collect()),
            ),
        ])
    }
}

/// Builds a JSON object from `(key, value)` pairs, keeping their order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Exact JSON form of an `f64`'s bit pattern, for fingerprints.
pub fn bits(x: f64) -> Value {
    Value::Str(format!("{:016x}", x.to_bits()))
}

/// A JSON integer.
pub fn int(x: impl Into<i128>) -> Value {
    Value::Int(x.into())
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Prints one metric line: name, value (`-` when unmeasured), unit.
pub fn print_metric(name: &str, value: Option<f64>, unit: &str) {
    match value {
        Some(v) => println!("  {name:<32} {v:>16.6} {unit}"),
        None => println!("  {name:<32} {:>16} {unit}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_values_follow_the_metric() {
        let by_name = |n: &str| END_TO_END.iter().find(|e| e.name == n).unwrap();
        let xs = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(by_name("work_per_s").run_value(&xs), 10.0);
        assert_eq!(by_name("setup_s").run_value(&xs), 2.5);
    }
}
