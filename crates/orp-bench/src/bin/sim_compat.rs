//! Simulation-compatibility gate for the exact max-min sharing model.
//!
//! Two committed references hold NPB skeleton reports with every
//! floating-point field stored as its exact IEEE-754 bit pattern:
//!
//! * `results/SIM_COMPAT_npb.json` — 64 ranks on four §6 topologies,
//!   produced by the pre-event-queue synchronous engine (32 rows);
//! * `results/SIM_COMPAT_npb1024.json` — the eight kernels at 1,024
//!   ranks on `random_general(1024, 195, 15, 1)` (the paper's Fig. 9
//!   instance), identity placement, paper classes, one iteration,
//!   produced by the whole-network progressive filling that preceded
//!   the grouped re-solve (8 rows);
//! * `results/SIM_COMPAT_faults.json` — CG and IS at 64 ranks on the
//!   torus, the fat-tree and the random fabric under both sharing
//!   models, each with the busiest fabric link (and, where one carries
//!   traffic, the busiest hostless switch) dying at the healthy run's
//!   peak of fabric traffic (16 rows: outcome, report bits, event
//!   counts and re-routed flows), produced before the flow table kept
//!   only in-flight flows. These pin the paths fault-free runs never
//!   take: re-routes, re-activations and the approximate model's heap
//!   tombstones.
//!
//! * default (check) mode — reruns every scenario and fails on any bit
//!   drift against the committed references; then reruns CG at 64
//!   ranks under the approximate fair-sharing model and asserts its
//!   makespan stays within the documented contention bound (see
//!   DESIGN.md §5d).
//! * `ORP_SIM_COMPAT_WRITE=1` — regenerates the references (only
//!   legitimate when an attributed behaviour change is being committed;
//!   explain any rewrite in EXPERIMENTS.md).
//!
//! CI runs the check mode as the `sim-compat` smoke step.

use orp_bench::{fault_targets, write_json};
use orp_core::construct::random_general;
use orp_core::graph::HostSwitchGraph;
use orp_netsim::network::Network;
use orp_netsim::npb::Benchmark;
use orp_netsim::report::{run_benchmark, run_benchmark_with};
use orp_netsim::{FaultEvent, SharingMode, SimError, SimReport, Simulator};
use orp_obs::{ObsConfig, Recorder};
use orp_topo::prelude::*;
use serde::{Deserialize, Serialize};

/// One reference row: a benchmark on a topology, bit-exact.
#[derive(Debug, Serialize, Deserialize)]
struct CompatRow {
    topology: String,
    bench: String,
    ranks: u32,
    time_s: f64,
    time_bits: u64,
    bytes_bits: u64,
    flops_bits: u64,
    flows: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct CompatFile {
    /// Engine generation the reference was produced by.
    engine: String,
    ranks: u32,
    npb_iters: usize,
    rows: Vec<CompatRow>,
}

/// One committed reference: its artifact name, rank count, engine
/// label and topologies.
struct Suite {
    artifact: &'static str,
    ranks: u32,
    engine: &'static str,
    topologies: fn(u32) -> Vec<(String, HostSwitchGraph)>,
}

const SUITES: [Suite; 2] = [
    Suite {
        artifact: "SIM_COMPAT_npb",
        ranks: 64,
        engine: "exact max-min",
        topologies: small_topologies,
    },
    Suite {
        artifact: "SIM_COMPAT_npb1024",
        ranks: 1024,
        engine: "exact max-min, whole-network progressive filling",
        topologies: paper_topology,
    },
];

fn small_topologies(ranks: u32) -> Vec<(String, HostSwitchGraph)> {
    vec![
        (
            "torus3d".into(),
            Torus {
                dim: 3,
                base: 4,
                radix: 8,
            }
            .build_with_hosts(ranks, AttachOrder::Sequential)
            .expect("torus fits"),
        ),
        (
            "dragonfly".into(),
            Dragonfly { a: 4 }
                .build_with_hosts(ranks, AttachOrder::Sequential)
                .expect("dragonfly fits"),
        ),
        (
            "fattree".into(),
            FatTree { k: 8 }
                .build_with_hosts(ranks, AttachOrder::Sequential)
                .expect("fat-tree fits"),
        ),
        (
            "random".into(),
            random_general(ranks, 16, 8, 3).expect("feasible"),
        ),
    ]
}

/// The Fig. 9 instance (m_opt = 195 switches of radix 15), seed 1.
fn paper_topology(ranks: u32) -> Vec<(String, HostSwitchGraph)> {
    vec![(
        "random_general(1024,195,15,1)".into(),
        random_general(ranks, 195, 15, 1).expect("feasible"),
    )]
}

fn reference_rows(suite: &Suite, iters: usize) -> Vec<CompatRow> {
    let ranks = suite.ranks;
    let mut rows = Vec::new();
    for (name, g) in (suite.topologies)(ranks) {
        let net = Network::builder(&g).build();
        for bench in Benchmark::all() {
            let r = run_benchmark(&net, bench, ranks, bench.paper_class(), iters)
                .expect("fault-free NPB run succeeds");
            rows.push(CompatRow {
                topology: name.clone(),
                bench: r.name.clone(),
                ranks,
                time_s: r.time,
                time_bits: r.time.to_bits(),
                bytes_bits: r.bytes.to_bits(),
                flops_bits: r.flops.to_bits(),
                flows: r.flows,
            });
        }
    }
    rows
}

/// Reruns `suite` and counts the rows that drifted from its committed
/// reference, printing each.
fn drifted_rows(suite: &Suite, iters: usize) -> usize {
    let path = format!("results/{}.json", suite.artifact);
    let text = std::fs::read_to_string(&path).expect("committed reference");
    let reference: CompatFile = serde_json::from_str(&text).expect("parse reference");
    assert_eq!(reference.ranks, suite.ranks, "{path}: rank count");
    assert_eq!(reference.npb_iters, iters, "{path}: iterations");
    let fresh = reference_rows(suite, iters);
    assert_eq!(fresh.len(), reference.rows.len(), "scenario set changed");
    let mut drift = 0usize;
    for (new, old) in fresh.iter().zip(&reference.rows) {
        assert_eq!(
            (new.topology.as_str(), new.bench.as_str()),
            (old.topology.as_str(), old.bench.as_str())
        );
        if new.time_bits != old.time_bits
            || new.bytes_bits != old.bytes_bits
            || new.flops_bits != old.flops_bits
            || new.flows != old.flows
        {
            drift += 1;
            eprintln!(
                "DRIFT {}/{} ({} ranks): time {} -> {} (bits {:#x} -> {:#x}), flows {} -> {}",
                old.topology,
                old.bench,
                suite.ranks,
                f64::from_bits(old.time_bits),
                f64::from_bits(new.time_bits),
                old.time_bits,
                new.time_bits,
                old.flows,
                new.flows
            );
        }
    }
    println!(
        "sim-compat: {} of {} scenarios at {} ranks bit-identical to {}",
        reference.rows.len() - drift,
        reference.rows.len(),
        suite.ranks,
        path
    );
    drift
}

/// One fault scenario, bit-exact: a kernel on a topology under one
/// sharing model, with one element dying mid-run.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FaultRow {
    topology: String,
    bench: String,
    sharing: String,
    fault: String,
    at_bits: u64,
    /// `ok`, or the error the run ended with.
    outcome: String,
    time_bits: u64,
    bytes_bits: u64,
    flows: u64,
    events: u64,
    cancelled: u64,
    /// Flows torn down or re-pathed by the fault (`sim.reroutes`).
    reroutes: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct FaultFile {
    ranks: u32,
    npb_iters: usize,
    rows: Vec<FaultRow>,
}

const FAULT_ARTIFACT: &str = "SIM_COMPAT_faults";

fn fault_rows(iters: usize) -> Vec<FaultRow> {
    let ranks = SUITES[0].ranks;
    let mut rows = Vec::new();
    // three of the four fabrics keep the fault rows under half a second
    for (name, g) in small_topologies(ranks) {
        if name == "dragonfly" {
            continue;
        }
        let net = Network::builder(&g).build();
        for bench in [Benchmark::Cg, Benchmark::Is] {
            let programs = bench.build(ranks, bench.paper_class(), iters);
            for mode in [SharingMode::ExactMaxMin, SharingMode::ApproxFair] {
                let make = || {
                    Simulator::builder(&net)
                        .programs(programs.clone())
                        .sharing(mode)
                };
                let rec = journal_recorder();
                make()
                    .recorder(rec.clone())
                    .run()
                    .expect("fault-free NPB run succeeds");
                let (at, faults) = fault_targets(&g, &rec.snapshot().expect("recording"));
                for fault in faults {
                    let schedule = [FaultEvent { time: at, fault }];
                    let plain = make().fault_schedule(&schedule).run();
                    // a recorder counts the re-routes and must not move
                    // the outcome
                    let rec = journal_recorder();
                    let traced = make().fault_schedule(&schedule).recorder(rec.clone()).run();
                    let key = |r: &Result<SimReport, SimError>| match r {
                        Ok(rep) => format!(
                            "{:#x} {:#x} {} {} {}",
                            rep.time.to_bits(),
                            rep.bytes.to_bits(),
                            rep.flows,
                            rep.events,
                            rep.events_cancelled
                        ),
                        Err(e) => format!("{e}"),
                    };
                    assert_eq!(key(&plain), key(&traced), "recording moved a faulted run");
                    let reroutes = rec
                        .snapshot()
                        .and_then(|s| s.counter("sim.reroutes"))
                        .unwrap_or(0);
                    let (outcome, rep) = match plain {
                        Ok(rep) => ("ok".to_string(), Some(rep)),
                        Err(e) => (e.to_string(), None),
                    };
                    rows.push(FaultRow {
                        topology: name.clone(),
                        bench: bench.name().into(),
                        sharing: mode.name().into(),
                        fault: format!("{fault:?}"),
                        at_bits: at.to_bits(),
                        outcome,
                        time_bits: rep.map_or(0, |r| r.time.to_bits()),
                        bytes_bits: rep.map_or(0, |r| r.bytes.to_bits()),
                        flows: rep.map_or(0, |r| r.flows),
                        events: rep.map_or(0, |r| r.events),
                        cancelled: rep.map_or(0, |r| r.events_cancelled),
                        reroutes,
                    });
                }
            }
        }
    }
    rows
}

/// A recorder whose journal holds a whole 64-rank IS run.
fn journal_recorder() -> Recorder {
    Recorder::with_config(ObsConfig {
        journal_capacity: 1 << 20,
        ..ObsConfig::default()
    })
}

/// Reruns the fault scenarios and counts the rows that drifted from
/// the committed reference, printing each.
fn drifted_fault_rows(iters: usize) -> usize {
    let path = format!("results/{FAULT_ARTIFACT}.json");
    let text = std::fs::read_to_string(&path).expect("committed reference");
    let reference: FaultFile = serde_json::from_str(&text).expect("parse reference");
    assert_eq!(reference.npb_iters, iters, "{path}: iterations");
    let fresh = fault_rows(iters);
    assert_eq!(fresh.len(), reference.rows.len(), "scenario set changed");
    let mut drift = 0;
    for (new, old) in fresh.iter().zip(&reference.rows) {
        if new != old {
            drift += 1;
            eprintln!("DRIFT {old:?}\n   -> {new:?}");
        }
    }
    println!(
        "sim-compat: {} of {} fault scenarios at {} ranks bit-identical to {path}",
        reference.rows.len() - drift,
        reference.rows.len(),
        reference.ranks
    );
    drift
}

fn main() {
    let iters = 1usize;
    let write = std::env::var("ORP_SIM_COMPAT_WRITE").map(|v| v == "1") == Ok(true);
    if write {
        for suite in &SUITES {
            let file = CompatFile {
                engine: suite.engine.into(),
                ranks: suite.ranks,
                npb_iters: iters,
                rows: reference_rows(suite, iters),
            };
            let path = write_json(suite.artifact, &file);
            println!("wrote {} ({} rows)", path.display(), file.rows.len());
        }
        let file = FaultFile {
            ranks: SUITES[0].ranks,
            npb_iters: iters,
            rows: fault_rows(iters),
        };
        let path = write_json(FAULT_ARTIFACT, &file);
        println!("wrote {} ({} rows)", path.display(), file.rows.len());
        return;
    }
    let drift: usize =
        SUITES.iter().map(|s| drifted_rows(s, iters)).sum::<usize>() + drifted_fault_rows(iters);
    assert_eq!(
        drift, 0,
        "exact max-min engine drifted from the committed reference reports; \
         attribute the diff via `orp diff` and explain it in EXPERIMENTS.md \
         before regenerating the reference"
    );

    // second pass: CG under the approximate fair-sharing model must stay
    // within the documented contention bound of the exact reports. The
    // theoretical per-flow bound is a factor of α (peak per-link flow
    // multiplicity, easily tens here); makespans agree far more tightly
    // in practice, so gate at a fixed factor that still catches a broken
    // model without flaking on approximation error.
    let small = &SUITES[0];
    let ranks = small.ranks;
    let text = std::fs::read_to_string(format!("results/{}.json", small.artifact))
        .expect("committed reference");
    let reference: CompatFile = serde_json::from_str(&text).expect("parse reference");
    for (name, g) in (small.topologies)(ranks) {
        let net = Network::builder(&g).build();
        let bench = Benchmark::Cg;
        let exact = reference
            .rows
            .iter()
            .find(|r| r.topology == name && r.bench == bench.name())
            .expect("CG row in reference");
        let approx = run_benchmark_with(
            &net,
            bench,
            ranks,
            bench.paper_class(),
            iters,
            SharingMode::ApproxFair,
        )
        .expect("fault-free NPB run succeeds");
        let ratio = approx.time / exact.time_s;
        assert!(
            (0.25..=4.0).contains(&ratio),
            "approx fair-sharing CG makespan on {name} deviates {ratio:.3}x \
             from exact (exact {}s, approx {}s)",
            exact.time_s,
            approx.time
        );
        assert_eq!(approx.flows, exact.flows, "flow count is model-independent");
        println!("sim-compat: approx CG on {name}: {ratio:.4}x exact makespan");
    }
}
