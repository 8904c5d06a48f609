//! Resilience sweep — degraded operation of the proposed topology versus
//! the paper's three baselines (torus, dragonfly, fat-tree).
//!
//! For every topology at a matched scale (`n = 128` hosts, switch radix
//! near 8) the sweep samples random failure sets at several rates
//! ([`FaultSet::sample`] fails each switch and each switch–switch link
//! independently), then records per sample:
//!
//! * degraded connectivity ([`orp_core::fault::DegradedMetrics`]:
//!   reachable-pair fraction, h-ASPL over surviving pairs, diameter),
//! * edge-disjoint shortest-path diversity over sampled host pairs,
//! * NPB CG Mop/s on the surviving fabric — ranks are placed on the
//!   largest connected host component via
//!   [`orp_netsim::SimulatorBuilder::placement`],
//!
//! plus one *mid-run* scenario per topology: CG on the healthy network
//! with a switch–switch link dying halfway through the fault-free
//! makespan ([`orp_netsim::SimulatorBuilder::fault_schedule`]) — either the run
//! completes over recomputed routes (slowdown reported) or it
//! partitions (reported as such, never a hang).
//!
//! Env knobs (beyond the usual `ORP_SA_ITERS`/`ORP_NPB_ITERS`):
//! `ORP_FAULT_RATES` and `ORP_FAULT_SEEDS` as comma-separated lists —
//! the CI smoke runs a single rate and seed.

use orp_bench::{proposed_topology, write_json, Effort, TopoSummary};
use orp_core::fault::{FaultSet, FaultView};
use orp_core::graph::{Host, HostSwitchGraph};
use orp_netsim::npb::Benchmark;
use orp_netsim::{BenchResult, FaultEvent, NetFault, Network, SimError, Simulator};
use orp_obs::{Recorder, StreamSink};
use orp_topo::prelude::*;
use serde::Serialize;

/// One `(rate, seed)` sample of one topology.
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
struct MidRun {
    /// The killed switch–switch link.
    link: (u32, u32),
    /// Fault injection time (half the fault-free makespan).
    at: f64,
    /// Fault-free CG makespan.
    healthy_time: f64,
    /// Degraded CG makespan when the run survives the cut.
    faulted_time: Option<f64>,
    /// `faulted_time / healthy_time` when the run survives.
    slowdown: Option<f64>,
    /// Structured error when it does not (partition), as a string.
    error: Option<String>,
}

/// Per-rate aggregate across seeds.
#[derive(Debug, Clone, Serialize)]
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

/// Full record for one topology.
#[derive(Debug, Clone, Serialize)]
struct TopoResilience {
    summary: TopoSummary,
    samples: Vec<Sample>,
    aggregates: Vec<RateAggregate>,
    midrun: MidRun,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    hosts: u32,
    rates: Vec<f64>,
    seeds: Vec<u64>,
    npb_iters: usize,
    topologies: Vec<TopoResilience>,
}

fn env_list<T: std::str::FromStr + Copy>(key: &str, default: &[T]) -> Vec<T> {
    match std::env::var(key) {
        Ok(v) => {
            let parsed: Vec<T> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
            if parsed.is_empty() {
                default.to_vec()
            } else {
                parsed
            }
        }
        Err(_) => default.to_vec(),
    }
}

/// Largest power of two `<= x` (0 for x = 0).
fn prev_pow2(x: u32) -> u32 {
    if x == 0 {
        0
    } else {
        1 << (31 - x.leading_zeros())
    }
}

/// CG Mop/s with `ranks` processes placed on the first hosts of the
/// largest surviving component of `net`.
fn degraded_cg(
    net: &Network,
    component: &[Host],
    ranks: u32,
    iters: usize,
) -> Result<BenchResult, SimError> {
    let programs = Benchmark::Cg.build(ranks, Benchmark::Cg.paper_class(), iters);
    let placement: Vec<Host> = component[..ranks as usize].to_vec();
    let rep = Simulator::builder(net)
        .programs(programs)
        .placement(placement)
        .run()?;
    Ok(BenchResult::from_report(Benchmark::Cg.name(), rep))
}

fn sweep(
    name: &str,
    g: &HostSwitchGraph,
    rates: &[f64],
    seeds: &[u64],
    iters: usize,
) -> TopoResilience {
    let mut samples = Vec::new();
    for &rate in rates {
        for &seed in seeds {
            let faults = FaultSet::sample(g, rate, rate, seed);
            let view = FaultView::new(g, &faults);
            let m = view.degraded_metrics();
            let div = view.diversity_sample(16, seed);
            let component = view.largest_component_hosts();
            let ranks = prev_pow2(component.len() as u32);
            let cg_mops = if ranks >= 2 {
                let net = Network::builder(g).faults(&faults).build();
                degraded_cg(&net, &component, ranks, iters)
                    .ok()
                    .map(|r| r.mops)
            } else {
                None
            };
            samples.push(Sample {
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
        let last = samples.len() - seeds.len();
        let s = &samples[last..];
        eprintln!(
            "  {name:<18} rate {rate:<5}: reach {:.3}  haspl {}  cg {} Mop/s",
            s.iter().map(|x| x.reachable_fraction).sum::<f64>() / s.len() as f64,
            mean_opt(s.iter().map(|x| x.haspl))
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into()),
            mean_opt(s.iter().map(|x| x.cg_mops))
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    let aggregates = rates
        .iter()
        .map(|&rate| {
            let s: Vec<&Sample> = samples.iter().filter(|x| x.rate == rate).collect();
            RateAggregate {
                rate,
                seeds: s.len(),
                disconnect_probability: s.iter().filter(|x| !x.connected).count() as f64
                    / s.len() as f64,
                mean_reachable_fraction: s.iter().map(|x| x.reachable_fraction).sum::<f64>()
                    / s.len() as f64,
                mean_haspl: mean_opt(s.iter().map(|x| x.haspl)),
                mean_cg_mops: mean_opt(s.iter().map(|x| x.cg_mops)),
            }
        })
        .collect();
    TopoResilience {
        summary: TopoSummary::of(name, g),
        samples,
        aggregates,
        midrun: midrun_scenario(g, iters),
    }
}

fn mean_opt(vals: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let v: Vec<f64> = vals.flatten().collect();
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Runs CG healthy, then again with the first switch–switch link of
/// host 0's switch dying at half the healthy makespan.
fn midrun_scenario(g: &HostSwitchGraph, iters: usize) -> MidRun {
    let net = Network::builder(g).build();
    let ranks = prev_pow2(g.num_hosts());
    let programs = || Benchmark::Cg.build(ranks, Benchmark::Cg.paper_class(), iters);
    let healthy = Simulator::builder(&net)
        .programs(programs())
        .run()
        .expect("healthy CG run completes");
    let s = g.switch_of(0);
    let t = g.neighbors(s)[0];
    let at = healthy.time / 2.0;
    let fault = [FaultEvent {
        time: at,
        fault: NetFault::Link(s, t),
    }];
    match Simulator::builder(&net)
        .programs(programs())
        .fault_schedule(&fault)
        .run()
    {
        Ok(rep) => MidRun {
            link: (s, t),
            at,
            healthy_time: healthy.time,
            faulted_time: Some(rep.time),
            slowdown: Some(rep.time / healthy.time),
            error: None,
        },
        Err(e) => MidRun {
            link: (s, t),
            at,
            healthy_time: healthy.time,
            faulted_time: None,
            slowdown: None,
            error: Some(e.to_string()),
        },
    }
}

fn main() {
    let effort = Effort::from_env();
    let rates = env_list("ORP_FAULT_RATES", &[0.0, 0.02, 0.05, 0.10]);
    let seeds = env_list("ORP_FAULT_SEEDS", &[1u64, 2, 3]);
    let n = 128u32;
    let r = 8u32;

    eprintln!("resilience sweep: n={n}, rates {rates:?}, seeds {seeds:?}");
    let (orp, sa, m_opt) = proposed_topology(n, r, &effort);
    eprintln!(
        "proposed: m_opt={m_opt}, h-ASPL={:.4} after {} proposals",
        sa.metrics.haspl, sa.proposed
    );
    // Matched baselines at n = 128: a 4-ary 3-torus spends 6 of 8 ports
    // on the fabric (m = 64, n = 2·64 = 128 exactly); the balanced
    // dragonfly needs a = 6 (r = 11 — the smallest even a whose capacity
    // reaches 128, slightly richer than the ORP radix, i.e. conservative
    // for the proposed topology); the 8-ary fat-tree is exact (r = 8,
    // n = 8³/4 = 128).
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

    let mut results = Vec::new();
    for (name, g) in &topologies {
        eprintln!("{name}: m={}, r={}", g.num_switches(), g.radix());
        results.push(sweep(name, g, &rates, &seeds, effort.npb_iters));
    }

    println!("\n== resilience: mean over seeds per failure rate ==");
    println!(
        "{:<20} {:>6} {:>8} {:>9} {:>10} {:>12}",
        "topology", "rate", "reach", "h-ASPL", "CG Mop/s", "P(disconn)"
    );
    for t in &results {
        for a in &t.aggregates {
            println!(
                "{:<20} {:>6.3} {:>8.4} {:>9} {:>10} {:>12.2}",
                t.summary.name,
                a.rate,
                a.mean_reachable_fraction,
                a.mean_haspl
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_else(|| "-".into()),
                a.mean_cg_mops
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "-".into()),
                a.disconnect_probability,
            );
        }
    }
    println!("\n== mid-run link death at 50% of healthy CG makespan ==");
    for t in &results {
        let m = &t.midrun;
        match (&m.slowdown, &m.error) {
            (Some(s), _) => println!(
                "{:<20} link {:?} died at t={:.4e}: completed, slowdown {s:.3}x",
                t.summary.name, m.link, m.at
            ),
            (None, Some(e)) => println!(
                "{:<20} link {:?} died at t={:.4e}: {e}",
                t.summary.name, m.link, m.at
            ),
            _ => unreachable!(),
        }
    }

    let midrun_at = results[0].midrun.at;
    let report = Report {
        hosts: n,
        rates,
        seeds,
        npb_iters: effort.npb_iters,
        topologies: results,
    };
    let path = write_json("BENCH_resilience", &report);
    eprintln!("wrote {}", path.display());

    // one recorded replay of the proposed topology's mid-run scenario,
    // exported as a metrics stream (flow lifecycle + fault/reroute events)
    let rec = Recorder::enabled();
    let net = Network::builder(&orp).recorder(rec.clone()).build();
    let ranks = prev_pow2(orp.num_hosts());
    let programs = Benchmark::Cg.build(ranks, Benchmark::Cg.paper_class(), effort.npb_iters);
    let s = orp.switch_of(0);
    let t = orp.neighbors(s)[0];
    let fault = [FaultEvent {
        time: midrun_at,
        fault: NetFault::Link(s, t),
    }];
    let _ = Simulator::builder(&net)
        .programs(programs)
        .fault_schedule(&fault)
        .run();
    let path = "results/TRACE_resilience_midrun.jsonl";
    StreamSink::create(path)
        .expect("create midrun trace")
        .finish(&rec, || ());
    eprintln!("wrote {path}");
}
