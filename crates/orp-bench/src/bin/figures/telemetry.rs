//! The recorded runs: the annealing trace, the resilience sweep and the
//! latency attribution. The last two share the proposed topology at
//! `(128, 8)`, three matched baselines and one recorded CG run on each.

use crate::{export, Job, TopoSummary};
use orp_core::anneal::MoveKind;
use orp_core::fault::{FaultSet, FaultView};
use orp_core::graph::{Host, HostSwitchGraph};
use orp_netsim::npb::Benchmark;
use orp_netsim::{FaultEvent, NetFault, Network, SimError, SimReport, Simulator};
use orp_obs::analyze::{attribute, diff, hotspots, render_diff, render_report, TraceData};
use orp_obs::{read_stream, ObsConfig, Recorder};
use orp_topo::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;

/// The telemetry smoke and trace artifact: the `(128, 8)` solve with a
/// recorder attached, exported as `results/TRACE_anneal_n128.jsonl`,
/// read back through the stream decoder and checked against the run
/// (every journaled `anneal.best` event, the proposal and acceptance
/// counts, the `anneal.run` span, the evaluation histogram). Runs
/// before any other user of that topology, so it records the one solve.
pub fn trace_anneal(job: &mut Job) {
    let rec = Recorder::enabled();
    let iters = job.budget.proposals;
    let res = job
        .solve_recorded(
            (128, 8),
            None,
            MoveKind::TwoNeighborSwing,
            iters,
            rec.clone(),
        )
        .expect("constructible");
    println!(
        "annealed n=128 r=8 m={}: h-ASPL {:.4}, {} proposals, {} accepted",
        res.graph.num_switches(),
        res.metrics.haspl,
        res.proposed,
        res.accepted
    );
    let path = export("results/TRACE_anneal_n128.jsonl", &rec);
    let data = read_stream(&path).expect("the artifact decodes");
    let snap = rec.snapshot().expect("recorder is enabled");
    assert_eq!(data.state.dropped_events, 0, "the stream dropped events");
    assert_eq!(
        data.event_counts.get("anneal.best").copied(),
        Some(snap.event_count("anneal.best")),
        "the stream must hold every anneal.best event the recorder journaled"
    );
    assert_eq!(
        data.state.counter("anneal.proposed"),
        Some(res.proposed as u64),
        "telemetry counter must match the annealer's own accounting"
    );
    assert_eq!(
        data.state.counter("anneal.accepted"),
        Some(res.accepted as u64)
    );
    assert!(
        data.spans.iter().any(|s| s.name == "anneal.run"),
        "anneal.run span missing"
    );
    assert!(
        data.state.hists.iter().any(|(n, _)| n == "anneal.eval_ns"),
        "eval latency histogram missing"
    );
    println!("{}", render_report(&data, 10));
}

/// A recorded simulation of CG at one rank per host.
pub struct Traced {
    report: Result<SimReport, SimError>,
    rec: Recorder,
}

/// The proposed topology at `(128, 8)` and the matched baselines: a
/// 4-ary 3-torus spends 6 of 8 ports on the fabric (`m = 64`, `n = 128`
/// exactly); the balanced dragonfly needs `a = 6` (`r = 11`, the
/// smallest even `a` whose capacity reaches 128, slightly richer than
/// the ORP radix, i.e. conservative for the proposed topology); the
/// 8-ary fat-tree is exact (`r = 8`, `n = 8³/4`).
fn matched(job: &mut Job) -> Vec<(&'static str, String, Rc<HostSwitchGraph>)> {
    let (pkey, proposed) = job.proposed(128, 8);
    let mut out = vec![("proposed (ORP)", pkey, proposed)];
    let baselines: [(&str, &dyn Topology); 3] = [
        (
            "torus (4-ary 3-D)",
            &Torus {
                dim: 3,
                base: 4,
                radix: 8,
            },
        ),
        ("dragonfly (a=6)", &Dragonfly { a: 6 }),
        ("fat-tree (8-ary)", &FatTree { k: 8 }),
    ];
    for (name, t) in baselines {
        let key = format!("{name} n=128");
        let g = job.fabric(&key, || {
            t.build_with_hosts(128, AttachOrder::Sequential)
                .expect("fits")
        });
        out.push((name, key, g));
    }
    out
}

/// CG on `g` with one rank per host, recorded by `rec`, under a fault
/// schedule (empty for none); simulated once per run under `id`.
fn recorded_cg(
    job: &mut Job,
    id: String,
    g: &HostSwitchGraph,
    rec: Recorder,
    faults: &[FaultEvent],
) -> Rc<Traced> {
    let iters = job.budget.npb_iters;
    job.traced
        .entry(id)
        .or_insert_with(|| {
            let net = Network::builder(g).recorder(rec.clone()).build();
            let programs = Benchmark::Cg.build(g.num_hosts(), Benchmark::Cg.paper_class(), iters);
            let report = Simulator::builder(&net)
                .programs(programs)
                .fault_schedule(faults)
                .run();
            Rc::new(Traced { report, rec })
        })
        .clone()
}

/// The fault-free CG run on `key`, with every flow and hop journaled.
fn healthy_cg(job: &mut Job, key: &str, g: &HostSwitchGraph) -> (Rc<Traced>, SimReport) {
    let rec = Recorder::with_config(ObsConfig {
        journal_capacity: 1 << 21,
        ..ObsConfig::default()
    });
    let run = recorded_cg(job, format!("{key} healthy"), g, rec, &[]);
    let report = *run.report.as_ref().expect("fault-free CG completes");
    (run, report)
}

/// Mop/s of a simulation report.
fn mops(rep: &SimReport) -> f64 {
    rep.flops / rep.time.max(1e-30) / 1e6
}

/// One `(rate, seed)` sample of one topology.
#[derive(Serialize)]
struct Sample {
    rate: f64,
    seed: u64,
    failed_switches: usize,
    failed_links: usize,
    alive_hosts: u32,
    reachable_fraction: f64,
    /// h-ASPL over surviving pairs; `None` when no pair survives.
    haspl: Option<f64>,
    diameter: u32,
    /// Every pair of surviving hosts still connected?
    connected: bool,
    /// Minimum edge-disjoint shortest-path count over sampled pairs.
    diversity_min: Option<u32>,
    /// Mean edge-disjoint shortest-path count over sampled pairs.
    diversity_mean: Option<f64>,
    /// CG ranks placed on the largest surviving component.
    cg_ranks: u32,
    /// CG Mop/s on the degraded fabric; `None` when fewer than 2 hosts
    /// survive in one component.
    cg_mops: Option<f64>,
}

/// Outcome of the mid-run link-death scenario.
#[derive(Serialize)]
struct MidRun {
    /// The killed switch–switch link.
    link: (u32, u32),
    /// Fault injection time (half the fault-free makespan).
    at: f64,
    healthy_time: f64,
    /// Degraded CG makespan when the run survives the cut.
    faulted_time: Option<f64>,
    slowdown: Option<f64>,
    /// Structured error when it does not (partition), as a string.
    error: Option<String>,
}

/// Per-rate aggregate across seeds.
#[derive(Serialize)]
struct RateAggregate {
    rate: f64,
    seeds: usize,
    /// Fraction of seeds whose surviving hosts were split apart.
    disconnect_probability: f64,
    mean_reachable_fraction: f64,
    /// Mean degraded h-ASPL over seeds where at least one pair survived.
    mean_haspl: Option<f64>,
    /// Mean CG Mop/s over seeds where the degraded run was possible.
    mean_cg_mops: Option<f64>,
}

#[derive(Serialize)]
struct TopoResilience {
    summary: TopoSummary,
    samples: Vec<Sample>,
    aggregates: Vec<RateAggregate>,
    midrun: MidRun,
}

#[derive(Serialize)]
struct ResilienceReport {
    hosts: u32,
    rates: &'static [f64],
    seeds: &'static [u64],
    npb_iters: usize,
    topologies: Vec<TopoResilience>,
}

fn mean_opt(vals: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let v: Vec<f64> = vals.flatten().collect();
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Largest power of two `<= x` (0 for x = 0).
fn prev_pow2(x: u32) -> u32 {
    x.checked_ilog2().map_or(0, |k| 1 << k)
}

/// Samples the budget's failure grid on one topology: degraded
/// connectivity, path diversity over 16 sampled pairs, and CG with its
/// ranks on the largest surviving component. A sample that fails
/// nothing is the fault-free run.
fn samples(job: &Job, g: &HostSwitchGraph, healthy: &SimReport) -> Vec<Sample> {
    let mut degraded: HashMap<String, Option<f64>> = HashMap::new();
    let mut out = Vec::new();
    for &rate in job.budget.fault_rates {
        for &seed in job.budget.fault_seeds {
            let faults = FaultSet::sample(g, rate, rate, seed);
            let view = FaultView::new(g, &faults);
            let m = view.degraded_metrics();
            let div = view.diversity_sample(16, seed);
            let component = view.largest_component_hosts();
            let ranks = prev_pow2(component.len() as u32);
            let id = format!("{:?} {:?}", faults.failed_switches(), faults.failed_links());
            let cg_mops = *degraded.entry(id).or_insert_with(|| match ranks {
                0 | 1 => None,
                _ if faults.is_empty() => Some(mops(healthy)),
                _ => {
                    let net = Network::builder(g).faults(&faults).build();
                    let programs = Benchmark::Cg.build(
                        ranks,
                        Benchmark::Cg.paper_class(),
                        job.budget.npb_iters,
                    );
                    let placement: Vec<Host> = component[..ranks as usize].to_vec();
                    let rep = Simulator::builder(&net)
                        .programs(programs)
                        .placement(placement)
                        .run();
                    rep.ok().map(|r| mops(&r))
                }
            });
            out.push(Sample {
                rate,
                seed,
                failed_switches: faults.num_failed_switches(),
                failed_links: faults.num_failed_links(),
                alive_hosts: m.alive_hosts,
                reachable_fraction: m.reachable_fraction,
                haspl: m.haspl,
                diameter: m.diameter,
                connected: m.connected,
                diversity_min: div.map(|d| d.min),
                diversity_mean: div.map(|d| d.mean),
                cg_ranks: ranks,
                cg_mops,
            });
        }
    }
    out
}

/// Resilience of the proposed topology against the paper's three
/// baselines at 128 hosts: random failure sets over the budget's rates
/// and seeds ([`FaultSet::sample`] fails each switch and link
/// independently), plus CG with the first link of host 0's switch dying
/// at half the fault-free makespan — the run completes over recomputed
/// routes or reports the partition, never hangs. The proposed
/// topology's mid-run scenario is exported as a metrics stream.
pub fn resilience(job: &mut Job) {
    println!(
        "resilience sweep: n=128, rates {:?}, seeds {:?}",
        job.budget.fault_rates, job.budget.fault_seeds
    );
    let mut topologies = Vec::new();
    // the proposed topology comes first; its mid-run run is the stream
    let mut stream = None;
    for (name, key, g) in matched(job) {
        let (_, healthy) = healthy_cg(job, &key, &g);
        let samples = samples(job, &g, &healthy);
        let (s, t) = (g.switch_of(0), g.neighbors(g.switch_of(0))[0]);
        let at = healthy.time / 2.0;
        let fault = [FaultEvent {
            time: at,
            fault: NetFault::Link(s, t),
        }];
        let run = recorded_cg(
            job,
            format!("{key} midrun"),
            &g,
            Recorder::enabled(),
            &fault,
        );
        let faulted = run.report.as_ref().ok();
        let midrun = MidRun {
            link: (s, t),
            at,
            healthy_time: healthy.time,
            faulted_time: faulted.map(|r| r.time),
            slowdown: faulted.map(|r| r.time / healthy.time),
            error: run.report.as_ref().err().map(|e| e.to_string()),
        };
        stream.get_or_insert_with(|| run.rec.clone());
        let aggregates = job
            .budget
            .fault_rates
            .iter()
            .map(|&rate| {
                let s: Vec<&Sample> = samples.iter().filter(|x| x.rate == rate).collect();
                let k = s.len() as f64;
                RateAggregate {
                    rate,
                    seeds: s.len(),
                    disconnect_probability: s.iter().filter(|x| !x.connected).count() as f64 / k,
                    mean_reachable_fraction: s.iter().map(|x| x.reachable_fraction).sum::<f64>()
                        / k,
                    mean_haspl: mean_opt(s.iter().map(|x| x.haspl)),
                    mean_cg_mops: mean_opt(s.iter().map(|x| x.cg_mops)),
                }
            })
            .collect();
        topologies.push(TopoResilience {
            summary: TopoSummary::of(name, &g),
            samples,
            aggregates,
            midrun,
        });
    }
    let fmt = |v: Option<f64>, p: usize| v.map_or("-".into(), |v| format!("{v:.p$}"));
    println!("\n== resilience: mean over seeds per failure rate ==");
    println!(
        "{:<20} {:>6} {:>8} {:>9} {:>10} {:>12}",
        "topology", "rate", "reach", "h-ASPL", "CG Mop/s", "P(disconn)"
    );
    for t in &topologies {
        for a in &t.aggregates {
            println!(
                "{:<20} {:>6.3} {:>8.4} {:>9} {:>10} {:>12.2}",
                t.summary.name,
                a.rate,
                a.mean_reachable_fraction,
                fmt(a.mean_haspl, 4),
                fmt(a.mean_cg_mops, 0),
                a.disconnect_probability,
            );
        }
    }
    println!("\n== mid-run link death at 50% of healthy CG makespan ==");
    for t in &topologies {
        let m = &t.midrun;
        let outcome = match (&m.slowdown, &m.error) {
            (Some(s), _) => format!("completed, slowdown {s:.3}x"),
            (None, e) => e.clone().unwrap_or_default(),
        };
        println!(
            "{:<20} link {:?} died at t={:.4e}: {outcome}",
            t.summary.name, m.link, m.at
        );
    }
    job.write(
        "BENCH_resilience",
        &ResilienceReport {
            hosts: 128,
            rates: job.budget.fault_rates,
            seeds: job.budget.fault_seeds,
            npb_iters: job.budget.npb_iters,
            topologies,
        },
    );
    let rec = stream.expect("four matched topologies");
    export("results/TRACE_resilience_midrun.jsonl", &rec);
}

#[derive(Serialize)]
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

#[derive(Serialize)]
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

#[derive(Serialize)]
struct TopoAttribution {
    summary: TopoSummary,
    mops: f64,
    flows: u64,
    mean_hops: f64,
    attribution: AttributionRow,
    hotspots: Vec<HotspotRow>,
}

#[derive(Serialize)]
struct DiffRow {
    name: String,
    a: f64,
    b: f64,
    delta: f64,
}

#[derive(Serialize)]
struct DiffSummary {
    a_name: String,
    b_name: String,
    a_makespan: f64,
    b_makespan: f64,
    components: Vec<DiffRow>,
    residual: f64,
    coverage: f64,
}

#[derive(Serialize)]
struct AttributionReport {
    hosts: u32,
    bench: String,
    npb_iters: usize,
    seed: u64,
    topologies: Vec<TopoAttribution>,
    proposed_vs_dragonfly: DiffSummary,
}

/// Critical path and makespan attribution (propagation, serialization,
/// queueing, reroute stall, compute, tail) plus link hotspots of the
/// recorded CG run, analysed from what the stream decoder reads back.
fn analyse(name: &str, g: &HostSwitchGraph, data: &TraceData, rep: &SimReport) -> TopoAttribution {
    let a = attribute(data).expect("CG trace has flows");
    assert!(
        a.residual.abs() <= 1e-6 * a.makespan.max(1e-30),
        "{name}: attribution residual {} vs makespan {}",
        a.residual,
        a.makespan
    );
    let hops: f64 = data.flows.iter().map(|f| f.hops as f64).sum();
    let hotspots = hotspots(&data.links, 10)
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
        summary: TopoSummary::of(name, g),
        mops: mops(rep),
        flows: rep.flows,
        mean_hops: if data.flows.is_empty() {
            0.0
        } else {
            hops / data.flows.len() as f64
        },
        attribution: AttributionRow {
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
        },
        hotspots,
    }
}

/// Why a topology wins: CG at 128 hosts on the proposed topology and
/// the three baselines, every run streamed and attributed from the
/// decoded stream, and the proposed-vs-dragonfly diff, which must
/// attribute at least 95 % of the makespan delta. The two streams that
/// diff reads are artifacts; the torus and fat-tree streams go to a
/// temporary directory.
pub fn latency_attrib(job: &mut Job) {
    println!(
        "latency attribution: CG at n=128, iters={}",
        job.budget.npb_iters
    );
    let tmp = std::env::temp_dir().join(format!("orp-latency-attrib-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temporary directory");
    let streams = [
        PathBuf::from("results/TRACE_npb_cg_proposed_n128.jsonl"),
        tmp.join("torus.jsonl"),
        PathBuf::from("results/TRACE_npb_cg_dragonfly_n128.jsonl"),
        tmp.join("fattree.jsonl"),
    ];
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for ((name, key, g), path) in matched(job).into_iter().zip(&streams) {
        let (run, rep) = healthy_cg(job, &key, &g);
        let data = read_stream(export(path, &run.rec)).expect("the stream decodes");
        assert_eq!(
            data.state.dropped_events, 0,
            "the stream must hold the whole run"
        );
        rows.push(analyse(name, &g, &data, &rep));
        runs.push(data);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!("== CG latency attribution at n = 128 (share of makespan) ==");
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
    let components = d
        .components
        .iter()
        .map(|c| DiffRow {
            name: c.name.into(),
            a: c.a,
            b: c.b,
            delta: c.delta(),
        })
        .collect();
    job.write(
        "ATTRIB_npb_n128",
        &AttributionReport {
            hosts: 128,
            bench: "CG".into(),
            npb_iters: job.budget.npb_iters,
            seed: job.budget.seed,
            topologies: rows,
            proposed_vs_dragonfly: DiffSummary {
                a_name: "proposed (ORP)".into(),
                b_name: "dragonfly (a=6)".into(),
                a_makespan: d.a_makespan,
                b_makespan: d.b_makespan,
                components,
                residual: d.residual,
                coverage: d.coverage,
            },
        },
    );
}
