//! Human-readable faces of the analysis engine: the text reports
//! behind `orp report` and `orp diff`.

use super::breakdown::attribute;
use super::diff::TraceDiff;
use super::hotspot::hotspots;
use super::spans::aggregate_spans;
use super::TraceData;
use crate::stream::{
    best_haspl, fmt_secs, render_eval_mix, render_watchdog, sparkline, worker_rows,
};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Formats simulated seconds with a readable unit.
fn t(secs: f64) -> String {
    let a = secs.abs();
    if a >= 1.0 || a == 0.0 {
        format!("{secs:.4} s")
    } else if a >= 1e-3 {
        format!("{:.4} ms", secs * 1e3)
    } else {
        format!("{:.4} µs", secs * 1e6)
    }
}

fn pct(part: f64, whole: f64) -> String {
    if whole.abs() < 1e-300 {
        "    –".into()
    } else {
        format!("{:5.1}%", part / whole * 100.0)
    }
}

/// Renders the report behind `orp report`: every section whose data
/// the stream carries — run and status, best h-ASPL, eval-path mix,
/// workers, watchdog, makespan attribution and critical path, link
/// hotspots, spans, counters, gauges, histograms and journal events by
/// name. Always non-empty.
pub fn render_report(data: &TraceData, top_k: usize) -> String {
    let st = &data.state;
    let mut o = String::with_capacity(4096);
    let _ = writeln!(o, "== telemetry report ==");
    if !st.tags.is_empty() {
        let tags: Vec<String> = st.tags.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(o, "run: {}", tags.join(" "));
    }
    if !st.meta.is_empty() {
        let meta: Vec<String> = st.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(o, "params: {}", meta.join(" "));
    }
    let _ = writeln!(
        o,
        "status: {} · last update {} · {} records (seq {}, format v{}){}",
        if st.done { "done" } else { "live" },
        fmt_secs(st.t_us as f64 / 1e6),
        st.records,
        st.seq,
        st.version,
        if st.truncated {
            " · TRUNCATED tail skipped"
        } else {
            ""
        },
    );
    if st.version == 1 && !data.event_counts.is_empty() {
        let _ = writeln!(
            o,
            "WARNING: a format v1 stream sampled the journal (the newest 64 \
             events per flush, the rest uncounted) — this analysis is \
             incomplete"
        );
    } else if st.dropped_events > 0 || st.dropped_spans > 0 {
        let _ = writeln!(
            o,
            "WARNING: the journal dropped {} events and {} spans — this \
             analysis is incomplete (raise ObsConfig::journal_capacity when \
             recording)",
            st.dropped_events, st.dropped_spans
        );
    }
    if let Some((best, pts)) = best_haspl(st) {
        let _ = writeln!(
            o,
            "best h-ASPL: {best:.6} over {} recorded points  {}",
            pts.len(),
            sparkline(pts, 40)
        );
    }
    render_eval_mix(&mut o, |n| {
        st.counter(n).or_else(|| st.gauge(n).map(|g| g as u64))
    });
    let rows = worker_rows(st);
    if !rows.is_empty() {
        let _ = writeln!(
            o,
            "workers:   {:>12} {:>12} {:>12} {:>9} {:>10}",
            "pops", "steals", "fail-steals", "busy-s", "idle-s"
        );
        for (i, r) in &rows {
            let _ = writeln!(
                o,
                "  w{i:<7} {:>12} {:>12} {:>12} {:>9.2} {:>10.2}",
                r.pops as u64,
                r.steals as u64,
                r.steal_fails as u64,
                r.busy_ns / 1e9,
                r.idle_ns / 1e9
            );
        }
    }
    render_watchdog(
        &mut o,
        st.t_us,
        st.counter("watchdog.stalls"),
        st.gauge("watchdog.heartbeat_us"),
        data.event_counts
            .get("watchdog.stalled")
            .map_or(0, |&n| n as u64),
    );
    if !data.flows.is_empty() || !data.links.is_empty() {
        let _ = writeln!(
            o,
            "\nlatency attribution: {} flows, {} dependency edges, {} hop records, {} loaded links",
            data.flows.len(),
            data.deps.len(),
            data.hops.len(),
            data.links.len(),
        );
    }
    if let Some(a) = attribute(data) {
        let _ = writeln!(o, "makespan: {}", t(a.makespan));
        let _ = writeln!(
            o,
            "critical path: {} flows, attribution (share of makespan):",
            a.path_flows
        );
        let rows = [
            ("propagation", a.on_path.propagation),
            ("serialization", a.on_path.serialization),
            ("queueing", a.on_path.queueing),
            ("reroute stall", a.on_path.stall),
            ("compute/blocked", a.compute),
            ("tail drain", a.tail),
            ("residual", a.residual),
        ];
        for (name, v) in rows {
            let _ = writeln!(o, "  {name:<16} {:>14} {}", t(v), pct(v, a.makespan));
        }
        let _ = writeln!(
            o,
            "all {} flows combined: prop {} · ser {} · queue {} · stall {}",
            data.flows.len(),
            t(a.all.propagation),
            t(a.all.serialization),
            t(a.all.queueing),
            t(a.all.stall)
        );
        render_path(&mut o, data);
    }
    if !data.links.is_empty() {
        let _ = writeln!(o, "\ntop {top_k} link hotspots (util × sharing):");
        let _ = writeln!(
            o,
            "  {:<6} {:<8} {:>11} {:>7} {:>10} {:>6} {:>8}",
            "link", "kind", "endpoints", "util", "avg_flows", "peak", "score"
        );
        for h in hotspots(&data.links, top_k) {
            let kind = match h.link.kind {
                0 => "host-up",
                1 => "host-dn",
                _ => "fabric",
            };
            let _ = writeln!(
                o,
                "  {:<6} {:<8} {:>5}→{:<5} {:>6.1}% {:>10.2} {:>6} {:>8.3}",
                h.link.link,
                kind,
                h.link.a,
                h.link.b,
                h.link.util_ppm / 1e4,
                h.link.avg_flows,
                h.link.peak_flows,
                h.score
            );
        }
    }
    let aggs = aggregate_spans(&data.spans);
    if !aggs.is_empty() {
        let _ = writeln!(o, "\nspans (self/total, µs wall):");
        for a in &aggs {
            let _ = writeln!(
                o,
                "  {:<40} ×{:<5} self {:>10} total {:>10}",
                a.path, a.count, a.self_us, a.total_us
            );
        }
    }
    if !st.counters.is_empty() {
        let _ = writeln!(o, "\ncounters:");
        for (name, v) in &st.counters {
            let _ = writeln!(o, "  {name:<36} {v}");
        }
    }
    if !st.gauges.is_empty() {
        let _ = writeln!(o, "\ngauges:");
        for (name, v) in &st.gauges {
            let _ = writeln!(o, "  {name:<36} {v}");
        }
    }
    if !st.hists.is_empty() {
        let _ = writeln!(
            o,
            "\nhistograms:                        {:>10} {:>12} {:>12} {:>12}",
            "count", "mean", "p50", "p99"
        );
        for (name, h) in &st.hists {
            let _ = writeln!(
                o,
                "  {name:<32} {:>10} {:>12.1} {:>12} {:>12}",
                h.count, h.mean, h.p50, h.p99
            );
        }
    }
    if !data.event_counts.is_empty() {
        let _ = writeln!(o, "\njournal events by name:");
        for (name, n) in &data.event_counts {
            let _ = writeln!(o, "  {name:<32} {n}");
        }
    }
    o
}

fn render_path(o: &mut String, data: &TraceData) {
    use super::critical_path::{critical_path, CpNode};
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
    let by_id: HashMap<u64, (u32, u32)> =
        data.flows.iter().map(|f| (f.id, (f.src, f.dst))).collect();
    const SHOWN: usize = 20;
    let _ = writeln!(
        o,
        "\ncritical path ({} steps{}):",
        cp.steps.len(),
        if cp.steps.len() > SHOWN {
            format!(", last {SHOWN} shown")
        } else {
            String::new()
        }
    );
    let skip = cp.steps.len().saturating_sub(SHOWN);
    for s in &cp.steps[skip..] {
        let (src, dst) = by_id.get(&s.id).copied().unwrap_or((0, 0));
        let _ = writeln!(
            o,
            "  flow {:>6} rank {:>4}→{:<4} [{} .. {}] gap {}",
            s.id,
            src,
            dst,
            t(s.start),
            t(s.end),
            t(s.gap)
        );
    }
}

/// Renders the two-run diff: per-component contributions to the
/// makespan delta plus the attribution coverage line the acceptance
/// bar keys on.
pub fn render_diff(a_label: &str, b_label: &str, d: &TraceDiff) -> String {
    let mut o = String::with_capacity(1024);
    let _ = writeln!(o, "== trace diff ==");
    let _ = writeln!(o, "A: {a_label}  makespan {}", t(d.a_makespan));
    let _ = writeln!(o, "B: {b_label}  makespan {}", t(d.b_makespan));
    let _ = writeln!(
        o,
        "Δ makespan (B − A): {}   critical-path flows: {} vs {}",
        t(d.delta()),
        d.path_flows.0,
        d.path_flows.1
    );
    let _ = writeln!(
        o,
        "\n  {:<16} {:>14} {:>14} {:>14} {:>8}",
        "component", "A", "B", "Δ", "share"
    );
    for c in &d.components {
        let _ = writeln!(
            o,
            "  {:<16} {:>14} {:>14} {:>14} {:>8}",
            c.name,
            t(c.a),
            t(c.b),
            t(c.delta()),
            pct(c.delta(), d.delta())
        );
    }
    let _ = writeln!(
        o,
        "  {:<16} {:>14} {:>14} {:>14} {:>8}",
        "residual",
        "",
        "",
        t(d.residual),
        pct(d.residual, d.delta())
    );
    let _ = writeln!(
        o,
        "\nnamed components explain {:.2}% of the makespan delta",
        d.coverage * 100.0
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::diff::diff;
    use crate::analyze::{FlowRecord, LinkRecord, SpanInfo};
    use crate::stream::StreamState;

    fn populated() -> TraceData {
        TraceData {
            flows: vec![FlowRecord {
                id: 0,
                src: 0,
                dst: 1,
                bytes: 64.0,
                hops: 3,
                created: 0.0,
                completed: 0.01,
                propagation: 0.004,
                serialization: 0.003,
                queueing: 0.002,
                stall: 0.001,
            }],
            links: vec![LinkRecord {
                link: 4,
                a: 0,
                b: 1,
                kind: 2,
                bytes: 64.0,
                util_ppm: 500_000.0,
                avg_flows: 1.5,
                peak_flows: 2,
            }],
            spans: vec![SpanInfo {
                name: "sim.run".into(),
                start_us: 0,
                dur_us: 120,
                tid: 0,
            }],
            state: StreamState {
                counters: vec![("sim.flows".into(), 1)],
                ..StreamState::default()
            },
            completed_time: Some(0.01),
            ..TraceData::default()
        }
    }

    #[test]
    fn report_covers_every_section() {
        let text = render_report(&populated(), 5);
        for needle in [
            "makespan",
            "propagation",
            "critical path",
            "hotspots",
            "fabric",
            "sim.run",
            "sim.flows",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn report_surfaces_eval_mix_and_watchdog() {
        let mut data = populated();
        data.state.counters = vec![
            ("eval.early_reject".into(), 5),
            ("eval.full".into(), 5),
            ("eval.incremental".into(), 90),
            ("watchdog.stalls".into(), 2),
        ];
        let text = render_report(&data, 5);
        assert!(text.contains("eval path mix"), "missing eval mix:\n{text}");
        assert!(text.contains("incremental 90 (90.0%)"), "{text}");
        assert!(text.contains("watchdog: 2 stalls"), "{text}");
        // absent telemetry leaves the section out entirely
        let bare = render_report(&populated(), 5);
        assert!(!bare.contains("eval path mix") && !bare.contains("watchdog"));
    }

    #[test]
    fn flowless_report_is_still_non_empty() {
        let mut data = TraceData::default();
        data.state.dropped_events = 3;
        let text = render_report(&data, 5);
        assert!(text.contains("telemetry report"));
        assert!(!text.contains("makespan"));
        assert!(text.contains("dropped 3 events"), "{text}");
    }

    #[test]
    fn a_v1_journal_is_reported_as_sampled() {
        let mut data = populated();
        data.state.version = 1;
        assert!(!render_report(&data, 5).contains("WARNING"));
        data.event_counts.insert("flow.done".into(), 1);
        let text = render_report(&data, 5);
        assert!(text.contains("v1 stream sampled the journal"), "{text}");
        data.state.version = 2;
        assert!(!render_report(&data, 5).contains("WARNING"));
    }

    #[test]
    fn diff_report_prints_coverage() {
        let a = populated();
        let mut b = populated();
        for f in &mut b.flows {
            f.completed *= 2.0;
            f.queueing += 0.01;
        }
        b.completed_time = Some(0.02);
        let d = diff(&a, &b).unwrap();
        let text = render_diff("a.json", "b.json", &d);
        assert!(text.contains("a.json"));
        assert!(text.contains("queueing"));
        assert!(text.contains("explain"));
    }
}
