//! Trace diffing: attribute the completion-time delta between two runs.
//!
//! Both runs are attributed independently ([`super::attribute`]); the
//! per-component deltas then explain the makespan difference. Because
//! each attribution telescopes to its own makespan with residual ≈ 0,
//! the component deltas sum to the makespan delta with the same tiny
//! residual — the ≥ 95 % attribution the acceptance bar asks for falls
//! out by construction rather than by curve fitting.

use super::breakdown::attribute;
use super::TraceData;

/// One attributed component in both runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffComponent {
    /// Component name (stable: `propagation`, `serialization`,
    /// `queueing`, `stall`, `compute`, `tail`).
    pub name: &'static str,
    /// Seconds charged in run A.
    pub a: f64,
    /// Seconds charged in run B.
    pub b: f64,
}

impl DiffComponent {
    /// `b − a`: the component's contribution to the makespan delta.
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }
}

/// The aligned attribution of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Run A's makespan (simulated seconds).
    pub a_makespan: f64,
    /// Run B's makespan (simulated seconds).
    pub b_makespan: f64,
    /// Critical-path flow counts `(a, b)`.
    pub path_flows: (usize, usize),
    /// Per-component seconds in both runs, stable order.
    pub components: Vec<DiffComponent>,
    /// Makespan delta not explained by any component.
    pub residual: f64,
    /// Fraction of `|Δ makespan|` the named components explain, in
    /// `[0, 1]`; `1.0` when the makespans are (nearly) equal.
    pub coverage: f64,
}

impl TraceDiff {
    /// `b_makespan − a_makespan`.
    pub fn delta(&self) -> f64 {
        self.b_makespan - self.a_makespan
    }
}

/// Diffs two traces.
///
/// # Errors
/// A message naming the offending side when either trace carries no
/// `flow.done` records (old exports, or anneal-only traces).
pub fn diff(a: &TraceData, b: &TraceData) -> Result<TraceDiff, String> {
    let aa = attribute(a).ok_or_else(|| no_flows("first"))?;
    let ab = attribute(b).ok_or_else(|| no_flows("second"))?;
    let components = vec![
        DiffComponent {
            name: "propagation",
            a: aa.on_path.propagation,
            b: ab.on_path.propagation,
        },
        DiffComponent {
            name: "serialization",
            a: aa.on_path.serialization,
            b: ab.on_path.serialization,
        },
        DiffComponent {
            name: "queueing",
            a: aa.on_path.queueing,
            b: ab.on_path.queueing,
        },
        DiffComponent {
            name: "stall",
            a: aa.on_path.stall,
            b: ab.on_path.stall,
        },
        DiffComponent {
            name: "compute",
            a: aa.compute,
            b: ab.compute,
        },
        DiffComponent {
            name: "tail",
            a: aa.tail,
            b: ab.tail,
        },
    ];
    let total_delta = ab.makespan - aa.makespan;
    let explained: f64 = components.iter().map(DiffComponent::delta).sum();
    let residual = total_delta - explained;
    let coverage = if total_delta.abs() <= f64::EPSILON * aa.makespan.abs().max(1.0) {
        1.0
    } else {
        (1.0 - residual.abs() / total_delta.abs()).max(0.0)
    };
    Ok(TraceDiff {
        a_makespan: aa.makespan,
        b_makespan: ab.makespan,
        path_flows: (aa.path_flows, ab.path_flows),
        components,
        residual,
        coverage,
    })
}

fn no_flows(which: &str) -> String {
    format!(
        "the {which} trace has no flow.done records — re-export it with a \
         current build (anneal-only traces cannot be diffed)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::FlowRecord;

    fn trace(scale: f64) -> TraceData {
        TraceData {
            flows: vec![
                FlowRecord {
                    id: 0,
                    src: 0,
                    dst: 1,
                    bytes: 1.0,
                    hops: 2,
                    created: 0.0,
                    completed: 10.0 * scale,
                    propagation: 2.0 * scale,
                    serialization: 5.0 * scale,
                    queueing: 2.0 * scale,
                    stall: 1.0 * scale,
                },
                FlowRecord {
                    id: 1,
                    src: 1,
                    dst: 0,
                    bytes: 1.0,
                    hops: 2,
                    created: 11.0 * scale,
                    completed: 20.0 * scale,
                    propagation: 2.0 * scale,
                    serialization: 5.0 * scale,
                    queueing: 1.0 * scale,
                    stall: 1.0 * scale,
                },
            ],
            deps: vec![(1, 0)],
            completed_time: Some(20.0 * scale),
            ..TraceData::default()
        }
    }

    #[test]
    fn identical_traces_diff_to_zero_with_full_coverage() {
        let d = diff(&trace(1.0), &trace(1.0)).unwrap();
        assert_eq!(d.delta(), 0.0);
        assert_eq!(d.coverage, 1.0);
        assert!(d.components.iter().all(|c| c.delta() == 0.0));
    }

    #[test]
    fn scaled_trace_attributes_the_full_delta() {
        let d = diff(&trace(1.0), &trace(1.5)).unwrap();
        assert!((d.delta() - 10.0).abs() < 1e-12);
        assert!(d.coverage >= 0.95, "coverage {}", d.coverage);
        assert!(d.residual.abs() < 1e-9);
        let ser = d
            .components
            .iter()
            .find(|c| c.name == "serialization")
            .unwrap();
        assert!((ser.delta() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn flowless_traces_are_rejected_with_the_side_named() {
        let empty = TraceData::default();
        let full = trace(1.0);
        assert!(diff(&empty, &full).unwrap_err().contains("first"));
        assert!(diff(&full, &empty).unwrap_err().contains("second"));
    }
}
