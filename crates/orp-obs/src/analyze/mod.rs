//! Latency-attribution analysis over recorded telemetry.
//!
//! The recorder *records* — flow lifecycles, per-link load, span
//! trees — and this module family *explains*. The entry point is
//! [`TraceData`]: the analysis view of one run's metrics stream, built
//! by [`crate::parse_stream`] / [`crate::read_stream`] from the decoded
//! records. On top of it sit:
//!
//! * [`critical_path`] — which chain of flows gated completion, with
//!   per-edge slack,
//! * [`attribute`] — the end-to-end makespan split into propagation /
//!   serialization / queueing / reroute-stall / compute / tail,
//! * [`hotspots`] — top-k links by utilization-weighted queueing,
//! * [`aggregate_spans`] / [`collapsed_stacks`] — self/total span-tree
//!   rollup and a flamegraph-style folded-stack export,
//! * [`diff`] — align two runs and attribute the completion-time delta,
//! * [`render_report`] / [`render_diff`] / [`render_chrome`] — the
//!   faces behind `orp report`, `orp diff` and `orp report --chrome`.
//!
//! Everything leans on one invariant the simulator upholds: for every
//! `flow.done` record the four latency components sum *exactly* to
//! `completed - created`, so attributions telescope with no unexplained
//! remainder.

mod breakdown;
mod chrome;
mod critical_path;
mod diff;
mod hotspot;
mod report;
mod spans;

pub use breakdown::{attribute, Attribution, Breakdown};
pub use chrome::render_chrome;
pub use critical_path::{critical_path, CpNode, CriticalPath, PathStep};
pub use diff::{diff, DiffComponent, TraceDiff};
pub use hotspot::{hotspots, Hotspot};
pub use report::{render_diff, render_report};
pub use spans::{aggregate_spans, collapsed_stacks, SpanAgg};

use crate::stream::{Kind, Record, StreamEvent, StreamState};
use std::collections::BTreeMap;

/// One completed flow's latency decomposition (mirrors
/// [`crate::Event::FlowDone`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRecord {
    /// Flow id (per-simulation sequence number).
    pub id: u64,
    /// Source rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: f64,
    /// Links on the final route.
    pub hops: u32,
    /// Simulated creation time.
    pub created: f64,
    /// Simulated delivery time.
    pub completed: f64,
    /// Activation-delay component.
    pub propagation: f64,
    /// Uncontended streaming component.
    pub serialization: f64,
    /// Contention component.
    pub queueing: f64,
    /// Reroute/re-issue component.
    pub stall: f64,
}

/// One fabric hop of a flow's route (mirrors [`crate::Event::Hop`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopRecord {
    /// Owning flow.
    pub flow: u64,
    /// Route position (0-based).
    pub index: u32,
    /// Source switch.
    pub from: u32,
    /// Destination switch.
    pub to: u32,
    /// Head-arrival time (simulated seconds).
    pub enqueue: f64,
    /// Tail-departure time (simulated seconds).
    pub drain: f64,
}

/// Whole-run load rollup for one directed link (mirrors
/// [`crate::Event::LinkLoad`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRecord {
    /// Directed link id.
    pub link: u32,
    /// Source endpoint.
    pub a: u32,
    /// Destination endpoint.
    pub b: u32,
    /// 0 = host uplink, 1 = host downlink, 2 = switch→switch.
    pub kind: u32,
    /// Bytes moved over the run.
    pub bytes: f64,
    /// Utilization in ppm of capacity × makespan.
    pub util_ppm: f64,
    /// Time-averaged flows sharing the link.
    pub avg_flows: f64,
    /// Peak flows sharing the link.
    pub peak_flows: u32,
}

/// One completed span with an owned name (decoded streams cannot
/// borrow `&'static str` like [`crate::SpanRecord`] does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanInfo {
    /// Span name.
    pub name: String,
    /// Start, microseconds since recorder creation.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread id.
    pub tid: u32,
}

/// The analysis view of one run's metrics stream: the bounded summary
/// plus every decoded flow, dependency, hop, link and span record.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Run tags, counters, gauges, histograms, series, status and the
    /// newest journal events.
    pub state: StreamState,
    /// Per-flow latency decompositions.
    pub flows: Vec<FlowRecord>,
    /// Flow-dependency edges as `(flow, parent)`.
    pub deps: Vec<(u64, u64)>,
    /// Per-fabric-hop timings.
    pub hops: Vec<HopRecord>,
    /// Per-link load rollups.
    pub links: Vec<LinkRecord>,
    /// Completed spans.
    pub spans: Vec<SpanInfo>,
    /// Journal event multiplicities by name.
    pub event_counts: BTreeMap<String, usize>,
    /// Simulated makespan from the `sim.completed` mark, if present.
    pub completed_time: Option<f64>,
}

impl TraceData {
    /// Folds one decoded record into the view.
    pub(crate) fn apply(&mut self, mut r: Record) {
        match &mut r.kind {
            Kind::Events(events, _) => events.iter().for_each(|e| self.add_event(e)),
            Kind::Spans(spans, _) => self.spans.append(spans),
            _ => {}
        }
        self.state.apply(r);
    }

    fn add_event(&mut self, e: &StreamEvent) {
        match self.event_counts.get_mut(&e.name) {
            Some(n) => *n += 1,
            None => {
                self.event_counts.insert(e.name.clone(), 1);
            }
        }
        let get = |field: &str| -> f64 {
            e.args
                .iter()
                .find(|(k, _)| k == field)
                .map_or(0.0, |&(_, v)| v)
        };
        match e.name.as_str() {
            "flow.done" => self.flows.push(FlowRecord {
                id: get("id") as u64,
                src: get("src") as u32,
                dst: get("dst") as u32,
                bytes: get("bytes"),
                hops: get("hops") as u32,
                created: get("created"),
                completed: get("completed"),
                propagation: get("propagation"),
                serialization: get("serialization"),
                queueing: get("queueing"),
                stall: get("stall"),
            }),
            "flow.dep" => self.deps.push((get("flow") as u64, get("parent") as u64)),
            "flow.hop" => self.hops.push(HopRecord {
                flow: get("flow") as u64,
                index: get("index") as u32,
                from: get("from") as u32,
                to: get("to") as u32,
                enqueue: get("enqueue"),
                drain: get("drain"),
            }),
            "link.load" => self.links.push(LinkRecord {
                link: get("link") as u32,
                a: get("a") as u32,
                b: get("b") as u32,
                kind: get("kind") as u32,
                bytes: get("bytes"),
                util_ppm: get("util_ppm"),
                avg_flows: get("avg_flows"),
                peak_flows: get("peak_flows") as u32,
            }),
            "sim.completed" => self.completed_time = Some(get("value")),
            _ => {}
        }
    }

    /// The run's simulated makespan: the `sim.completed` mark when
    /// present, otherwise the latest flow completion.
    pub fn makespan(&self) -> f64 {
        self.completed_time
            .unwrap_or_else(|| self.flows.iter().map(|f| f.completed).fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::{ObsConfig, Recorder};
    use crate::stream::{read_stream, StreamSink};

    fn sample_recorder(cfg: ObsConfig) -> Recorder {
        let rec = Recorder::with_config(cfg);
        rec.incr("sim.flows", 2);
        drop(rec.span("sim.run"));
        for id in 0..100 {
            rec.emit(Event::FlowDone {
                id,
                src: 0,
                dst: 1,
                bytes: 100.0,
                hops: 3,
                created: id as f64,
                completed: id as f64 + 2.0,
                propagation: 0.5,
                serialization: 1.0,
                queueing: 0.25,
                stall: 0.25,
            });
            rec.emit(Event::FlowDep {
                flow: id + 1,
                parent: id,
            });
            rec.emit(Event::Hop {
                flow: id,
                index: 1,
                from: 0,
                to: 1,
                enqueue: 0.5,
                drain: 1.0 / 3.0,
            });
        }
        close_run(&rec);
        rec
    }

    /// A simulation's closing records: one link-load rollup and the
    /// `sim.completed` mark.
    fn close_run(rec: &Recorder) {
        rec.emit(Event::LinkLoad {
            link: 8,
            a: 0,
            b: 1,
            kind: 2,
            bytes: 100.0,
            util_ppm: 250_000.0,
            avg_flows: 1.25,
            peak_flows: 2,
        });
        rec.emit(Event::Mark {
            name: "sim.completed",
            value: 101.5,
        });
    }

    fn streamed(rec: &Recorder, name: &str) -> TraceData {
        let path = std::env::temp_dir().join(format!("orp-analyze-{}-{name}", std::process::id()));
        StreamSink::create(&path).unwrap().finish(rec, || ());
        let data = read_stream(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        data
    }

    #[test]
    fn streamed_run_decodes_to_the_snapshot() {
        let rec = sample_recorder(ObsConfig::default());
        let snap = rec.snapshot().unwrap();
        let data = streamed(&rec, "roundtrip.jsonl");
        // the snapshot's own records, decoded by hand from its events
        let mut expect = TraceData::default();
        for te in &snap.events {
            expect.add_event(&StreamEvent {
                ts_us: te.ts_us,
                name: te.event.name().into(),
                args: te
                    .event
                    .args()
                    .iter()
                    .map(|&(k, v)| (k.into(), v))
                    .collect(),
            });
        }
        assert_eq!(data.flows.len(), 100);
        assert_eq!(data.flows, expect.flows);
        assert_eq!(data.deps, expect.deps);
        assert_eq!(data.hops, expect.hops);
        assert_eq!(data.links, expect.links);
        assert_eq!(data.completed_time, Some(101.5));
        assert_eq!(data.event_counts, expect.event_counts);
        let spans: Vec<(&str, u64, u64, u32)> = snap
            .spans
            .iter()
            .map(|s| (s.name, s.start_us, s.dur_us, s.tid))
            .collect();
        let got: Vec<(&str, u64, u64, u32)> = data
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.start_us, s.dur_us, s.tid))
            .collect();
        assert_eq!(got, spans);
        assert_eq!(data.state.counter("sim.flows"), Some(2));
        assert_eq!(data.state.dropped_events, 0);
        assert!(data.state.done);
    }

    #[test]
    fn a_small_journal_drops_and_counts_the_rest() {
        // 302 events through a 50-event ring exported after the run:
        // the stream holds the newest 50 and counts the 252 evicted
        let rec = sample_recorder(ObsConfig {
            journal_capacity: 50,
            ..ObsConfig::default()
        });
        let data = streamed(&rec, "small.jsonl");
        assert_eq!(data.event_counts.values().sum::<usize>(), 50);
        assert_eq!(data.state.dropped_events, 252);
        assert_eq!(data.completed_time, Some(101.5));

        // streamed while recording: the flushes before `finish` keep
        // the oldest 25, `finish` the newest 25 (the run's closing link
        // load and `sim.completed` mark among them), and the stream
        // counts the 72 in between
        let path = std::env::temp_dir().join(format!("orp-analyze-{}-live", std::process::id()));
        let rec = Recorder::with_config(ObsConfig {
            journal_capacity: 50,
            ..ObsConfig::default()
        });
        let sink = StreamSink::with_interval(&path, std::time::Duration::ZERO).unwrap();
        for i in 0..120u64 {
            rec.emit(Event::Best {
                iter: i,
                value: 1.0,
            });
            if i % 10 == 9 {
                sink.maybe_flush(&rec, || ());
            }
        }
        close_run(&rec);
        sink.finish(&rec, || ());
        let data = read_stream(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(data.event_counts.values().sum::<usize>(), 50);
        assert_eq!(data.state.dropped_events, 72);
        assert_eq!(data.links.len(), 1);
        assert_eq!(data.completed_time, Some(101.5));
        let iters: Vec<f64> = data
            .state
            .events
            .iter()
            .filter(|e| e.name == "anneal.best")
            .map(|e| e.args[0].1)
            .collect();
        let kept: Vec<f64> = (0..25).chain(97..120).map(|i| i as f64).collect();
        assert_eq!(iters, kept);
    }
}
