//! End-to-end makespan attribution.
//!
//! Walks the critical path and charges every simulated second of the
//! run to a named component. Because each flow's four latency
//! components sum exactly to its lifetime, and consecutive path steps
//! tile the timeline (gaps are rank-local compute / blocked time), the
//! attribution telescopes: `propagation + serialization + queueing +
//! stall + compute + tail + residual = makespan` with `residual ≈ 0`
//! up to float rounding.

use super::critical_path::{critical_path, CpNode};
use super::{FlowRecord, TraceData};
use std::collections::HashMap;

/// Latency component sums over a set of flows (simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Activation-delay seconds.
    pub propagation: f64,
    /// Uncontended streaming seconds.
    pub serialization: f64,
    /// Contention seconds.
    pub queueing: f64,
    /// Reroute/re-issue seconds.
    pub stall: f64,
}

impl Breakdown {
    /// Adds one flow's components.
    pub fn add(&mut self, f: &FlowRecord) {
        self.propagation += f.propagation;
        self.serialization += f.serialization;
        self.queueing += f.queueing;
        self.stall += f.stall;
    }

    /// Sum of the four components.
    pub fn total(&self) -> f64 {
        self.propagation + self.serialization + self.queueing + self.stall
    }
}

/// A full makespan attribution for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The run's simulated makespan.
    pub makespan: f64,
    /// Flows on the critical path.
    pub path_flows: usize,
    /// Component sums over the critical-path flows only.
    pub on_path: Breakdown,
    /// Rank-local seconds between path flows (compute or blocking on
    /// other channels), including the lead-in before the first flow.
    pub compute: f64,
    /// Seconds between the last path flow's delivery and the end of
    /// the run (drain of off-path work).
    pub tail: f64,
    /// Unattributed remainder — `≈ 0` for well-formed traces.
    pub residual: f64,
    /// Component sums over *all* completed flows, for context.
    pub all: Breakdown,
}

/// Attributes the makespan of `data` to named components, or `None`
/// when the trace carries no `flow.done` records (nothing to explain).
pub fn attribute(data: &TraceData) -> Option<Attribution> {
    if data.flows.is_empty() {
        return None;
    }
    let nodes: Vec<CpNode> = data
        .flows
        .iter()
        .map(|f| CpNode {
            id: f.id,
            start: f.created,
            end: f.completed,
        })
        .collect();
    let cp = critical_path(&nodes, &data.deps);
    let by_id: HashMap<u64, &FlowRecord> = data.flows.iter().map(|f| (f.id, f)).collect();
    let mut on_path = Breakdown::default();
    for step in &cp.steps {
        if let Some(f) = by_id.get(&step.id) {
            on_path.add(f);
        }
    }
    let mut all = Breakdown::default();
    for f in &data.flows {
        all.add(f);
    }
    let makespan = data.makespan();
    let compute = cp.total_gap();
    let tail = makespan - cp.makespan;
    let residual = makespan - on_path.total() - compute - tail;
    Some(Attribution {
        makespan,
        path_flows: cp.steps.len(),
        on_path,
        compute,
        tail,
        residual,
        all,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(id: u64, created: f64, completed: f64) -> FlowRecord {
        let total = completed - created;
        FlowRecord {
            id,
            src: 0,
            dst: 1,
            bytes: 1.0,
            hops: 2,
            created,
            completed,
            propagation: total * 0.25,
            serialization: total * 0.5,
            queueing: total * 0.125,
            stall: total * 0.125,
        }
    }

    #[test]
    fn empty_trace_has_no_attribution() {
        assert!(attribute(&TraceData::default()).is_none());
    }

    #[test]
    fn attribution_telescopes_to_the_makespan() {
        let data = TraceData {
            flows: vec![flow(0, 0.0, 10.0), flow(1, 12.0, 20.0), flow(2, 0.0, 5.0)],
            deps: vec![(1, 0)],
            completed_time: Some(21.0),
            ..TraceData::default()
        };
        let a = attribute(&data).unwrap();
        assert_eq!(a.path_flows, 2);
        assert_eq!(a.makespan, 21.0);
        assert!((a.compute - 2.0).abs() < 1e-12); // 12.0 start − 10.0 end
        assert!((a.tail - 1.0).abs() < 1e-12);
        assert!((a.on_path.total() - 18.0).abs() < 1e-12);
        assert!(a.residual.abs() < 1e-9);
        assert!((a.all.total() - 23.0).abs() < 1e-12);
    }
}
