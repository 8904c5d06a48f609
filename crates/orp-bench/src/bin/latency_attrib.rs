//! Latency attribution across the four §6 topologies.
//!
//! Runs NPB CG at `n = 128` on the proposed ORP topology and the three
//! paper baselines with full flow/hop telemetry recorded, then feeds
//! each run through `orp_obs::analyze`: critical-path extraction,
//! makespan attribution (propagation / serialization / queueing /
//! reroute-stall / compute / tail), and link hotspot ranking. The
//! point is to answer *why* a topology wins, not just that it does —
//! fewer hops shrink propagation, lower diameter and richer path
//! diversity shrink queueing.
//!
//! Every run is streamed to a metrics file and analysed from what the
//! stream decoder reads back, so the tables prove the whole record →
//! stream → decode → attribute loop. Artifacts:
//! * `results/ATTRIB_npb_n128.json` — per-topology attribution tables
//!   plus the proposed-vs-dragonfly diff,
//! * `results/TRACE_npb_cg_proposed_n128.jsonl` and
//!   `results/TRACE_npb_cg_dragonfly_n128.jsonl` — the full streams,
//!   the committed inputs for `orp diff`'s acceptance check (the torus
//!   and fat-tree streams go to a temporary directory).
//!
//! Effort scales with `ORP_SA_ITERS` / `ORP_NPB_ITERS` as usual.

use orp_bench::{proposed_topology, write_json, Effort, TopoSummary};
use orp_core::graph::HostSwitchGraph;
use orp_netsim::npb::Benchmark;
use orp_netsim::{Network, Simulator};
use orp_obs::analyze::{attribute, diff, hotspots, render_diff, Attribution, TraceData};
use orp_obs::{read_stream, ObsConfig, Recorder, StreamSink};
use orp_topo::prelude::*;
use serde::Serialize;
use std::path::Path;

/// Serializable mirror of [`Attribution`].
#[derive(Debug, Clone, Serialize)]
struct AttributionRow {
    makespan: f64,
    path_flows: usize,
    propagation: f64,
    serialization: f64,
    queueing: f64,
    stall: f64,
    compute: f64,
    tail: f64,
    residual: f64,
    all_propagation: f64,
    all_serialization: f64,
    all_queueing: f64,
    all_stall: f64,
}

impl AttributionRow {
    fn of(a: &Attribution) -> Self {
        Self {
            makespan: a.makespan,
            path_flows: a.path_flows,
            propagation: a.on_path.propagation,
            serialization: a.on_path.serialization,
            queueing: a.on_path.queueing,
            stall: a.on_path.stall,
            compute: a.compute,
            tail: a.tail,
            residual: a.residual,
            all_propagation: a.all.propagation,
            all_serialization: a.all.serialization,
            all_queueing: a.all.queueing,
            all_stall: a.all.stall,
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct HotspotRow {
    link: u32,
    kind: u32,
    a: u32,
    b: u32,
    util_ppm: f64,
    avg_flows: f64,
    peak_flows: u32,
    score: f64,
}

#[derive(Debug, Clone, Serialize)]
struct TopoAttribution {
    summary: TopoSummary,
    mops: f64,
    flows: u64,
    mean_hops: f64,
    attribution: AttributionRow,
    hotspots: Vec<HotspotRow>,
}

#[derive(Debug, Clone, Serialize)]
struct DiffRow {
    name: String,
    a: f64,
    b: f64,
    delta: f64,
}

#[derive(Debug, Clone, Serialize)]
struct DiffSummary {
    a_name: String,
    b_name: String,
    a_makespan: f64,
    b_makespan: f64,
    components: Vec<DiffRow>,
    residual: f64,
    coverage: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    hosts: u32,
    bench: String,
    npb_iters: usize,
    seed: u64,
    topologies: Vec<TopoAttribution>,
    proposed_vs_dragonfly: DiffSummary,
}

/// Runs CG with full telemetry streamed to `path`; returns the
/// analysis view decoded from the stream, Mop/s, and the flow count.
fn traced_cg(g: &HostSwitchGraph, iters: usize, path: &Path) -> (TraceData, f64, u64) {
    let rec = Recorder::with_config(ObsConfig {
        journal_capacity: 1 << 21,
        ..ObsConfig::default()
    });
    let net = Network::builder(g).recorder(rec.clone()).build();
    let ranks = g.num_hosts();
    let programs = Benchmark::Cg.build(ranks, Benchmark::Cg.paper_class(), iters);
    let rep = Simulator::builder(&net)
        .programs(programs)
        .run()
        .expect("fault-free CG completes");
    StreamSink::create(path)
        .expect("create trace stream")
        .finish(&rec, || ());
    let data = read_stream(path).expect("the stream decodes");
    assert_eq!(
        data.state.dropped_events, 0,
        "the stream must hold the whole run"
    );
    let mops = rep.flops / rep.time.max(1e-30) / 1e6;
    (data, mops, rep.flows)
}

fn analyse(
    name: &str,
    summary: TopoSummary,
    data: &TraceData,
    mops: f64,
    flows: u64,
) -> TopoAttribution {
    let a = attribute(data).expect("CG trace has flows");
    assert!(
        a.residual.abs() <= 1e-6 * a.makespan.max(1e-30),
        "{name}: attribution residual {} vs makespan {}",
        a.residual,
        a.makespan
    );
    let mean_hops = if data.flows.is_empty() {
        0.0
    } else {
        data.flows.iter().map(|f| f.hops as f64).sum::<f64>() / data.flows.len() as f64
    };
    let hs = hotspots(&data.links, 10)
        .into_iter()
        .map(|h| HotspotRow {
            link: h.link.link,
            kind: h.link.kind,
            a: h.link.a,
            b: h.link.b,
            util_ppm: h.link.util_ppm,
            avg_flows: h.link.avg_flows,
            peak_flows: h.link.peak_flows,
            score: h.score,
        })
        .collect();
    TopoAttribution {
        summary,
        mops,
        flows,
        mean_hops,
        attribution: AttributionRow::of(&a),
        hotspots: hs,
    }
}

fn main() {
    let effort = Effort::from_env();
    let n = 128u32;
    let r = 8u32;
    eprintln!(
        "latency attribution: CG at n={n}, iters={}",
        effort.npb_iters
    );

    let (orp, sa, m_opt) = proposed_topology(n, r, &effort);
    eprintln!(
        "proposed: m_opt={m_opt}, h-ASPL={:.4} after {} proposals",
        sa.metrics.haspl, sa.proposed
    );
    // same matched baselines as the resilience sweep (see resilience.rs)
    let torus = Torus {
        dim: 3,
        base: 4,
        radix: 8,
    }
    .build_with_hosts(n, AttachOrder::Sequential)
    .expect("4-ary 3-torus holds 128 hosts");
    let dragonfly = Dragonfly { a: 6 }
        .build_with_hosts(n, AttachOrder::Sequential)
        .expect("a=6 dragonfly holds 128 hosts");
    let fattree = FatTree { k: 8 }
        .build_with_hosts(n, AttachOrder::Sequential)
        .expect("8-ary fat-tree holds 128 hosts");

    let topologies: Vec<(&str, &HostSwitchGraph)> = vec![
        ("proposed (ORP)", &orp),
        ("torus (4-ary 3-D)", &torus),
        ("dragonfly (a=6)", &dragonfly),
        ("fat-tree (8-ary)", &fattree),
    ];

    // the two streams the acceptance bar diffs are artifacts; the
    // other two go to a temporary directory
    let tmp = std::env::temp_dir().join(format!("orp-latency-attrib-{}", std::process::id()));
    let streams = [
        Path::new("results/TRACE_npb_cg_proposed_n128.jsonl").to_path_buf(),
        tmp.join("torus.jsonl"),
        Path::new("results/TRACE_npb_cg_dragonfly_n128.jsonl").to_path_buf(),
        tmp.join("fattree.jsonl"),
    ];
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for ((name, g), path) in topologies.iter().zip(&streams) {
        let (data, mops, flows) = traced_cg(g, effort.npb_iters, path);
        eprintln!("wrote {}", path.display());
        rows.push(analyse(name, TopoSummary::of(name, g), &data, mops, flows));
        runs.push(data);
    }
    let _ = std::fs::remove_dir_all(&tmp);

    println!("== CG latency attribution at n = {n} (share of makespan) ==");
    println!(
        "{:<20} {:>10} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "topology", "makespan", "hops", "prop", "ser", "queue", "stall", "compute", "tail"
    );
    for row in &rows {
        let a = &row.attribution;
        let pc = |v: f64| format!("{:.1}%", v / a.makespan * 100.0);
        println!(
            "{:<20} {:>9.4}s {:>6.2} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            row.summary.name,
            a.makespan,
            row.mean_hops,
            pc(a.propagation),
            pc(a.serialization),
            pc(a.queueing),
            pc(a.stall),
            pc(a.compute),
            pc(a.tail),
        );
    }

    let d = diff(&runs[0], &runs[2]).expect("both traces have flows");
    println!();
    print!(
        "{}",
        render_diff(
            "TRACE_npb_cg_proposed_n128.jsonl",
            "TRACE_npb_cg_dragonfly_n128.jsonl",
            &d
        )
    );
    assert!(
        d.coverage >= 0.95,
        "diff must attribute ≥95% of the makespan delta, got {:.4}",
        d.coverage
    );

    let report = Report {
        hosts: n,
        bench: "CG".into(),
        npb_iters: effort.npb_iters,
        seed: effort.seed,
        topologies: rows,
        proposed_vs_dragonfly: DiffSummary {
            a_name: "proposed (ORP)".into(),
            b_name: "dragonfly (a=6)".into(),
            a_makespan: d.a_makespan,
            b_makespan: d.b_makespan,
            components: d
                .components
                .iter()
                .map(|c| DiffRow {
                    name: c.name.into(),
                    a: c.a,
                    b: c.b,
                    delta: c.delta(),
                })
                .collect(),
            residual: d.residual,
            coverage: d.coverage,
        },
    };
    let path = write_json("ATTRIB_npb_n128", &report);
    eprintln!("wrote {}", path.display());
}
