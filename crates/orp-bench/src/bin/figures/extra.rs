//! Beyond the figures: the ablations, the random baselines of §2.1 and
//! the fluid-versus-packet model check.

use crate::paper::conventional;
use crate::{export, sketch, Job};
use orp_core::anneal::MoveKind;
use orp_core::bounds::{haspl_lower_bound, optimal_switch_count};
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::path_metrics;
use orp_core::random_graphs::{barabasi_albert, cycle_plus_matching, erdos_renyi, watts_strogatz};
use orp_layout::{evaluate, optimized_floorplan, Floorplan, HardwareModel};
use orp_netsim::npb::Benchmark;
use orp_netsim::packet::{packet_simulate_pattern, DEFAULT_MTU};
use orp_netsim::patterns::Pattern;
use orp_netsim::report::BenchResult;
use orp_netsim::{Network, RouteMode, Simulator};
use orp_obs::Recorder;
use orp_topo::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Rebuilds `g` with host ids randomly permuted across the same slots.
fn shuffle_hosts(g: &HostSwitchGraph, seed: u64) -> HostSwitchGraph {
    let mut out = HostSwitchGraph::new(g.num_switches(), g.radix()).expect("same params");
    for (a, b) in g.links() {
        out.add_link(a, b).expect("same structure");
    }
    let mut slots: Vec<u32> = (0..g.num_hosts()).map(|h| g.switch_of(h)).collect();
    slots.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    for s in slots {
        out.attach_host(s).expect("same capacity");
    }
    out
}

#[derive(Serialize)]
struct MappingRow {
    variant: String,
    haspl: f64,
    results: Vec<BenchResult>,
}

/// How much host placement and rank mapping matter (§1, §6.2.1): the
/// proposed fabric with DFS ranks against shuffled ranks, and the torus
/// attached sequentially against round-robin.
pub fn ablation_mapping(job: &mut Job) {
    let benches = [Benchmark::Cg, Benchmark::Mg, Benchmark::Lu, Benchmark::Is];
    let (pkey, proposed) = job.proposed(1024, 15);
    let skey = format!("{pkey} shuffled");
    job.fabric(&skey, || shuffle_hosts(&proposed, 99));
    let torus = Torus::paper_5d();
    let variants = [
        ("proposed + DFS ranks (paper)", pkey),
        ("proposed + shuffled ranks", skey),
        (
            "torus + sequential attach (paper)",
            conventional(job, &torus, AttachOrder::Sequential).0,
        ),
        (
            "torus + round-robin attach",
            conventional(job, &torus, AttachOrder::RoundRobin).0,
        ),
    ];
    println!(
        "== mapping ablation on the proposed fabric (m={}) ==",
        proposed.num_switches()
    );
    let mut rows = Vec::new();
    for (variant, key) in variants {
        let haspl = path_metrics(&job.graph(&key)).expect("connected").haspl;
        let results = job.suite(&key, RouteMode::SinglePath, &benches);
        println!("\n{variant}  (h-ASPL {haspl:.4})");
        for r in &results {
            println!("  {:<4} {:>12.0} Mop/s", r.name, r.mops);
        }
        rows.push(MappingRow {
            variant: variant.into(),
            haspl,
            results,
        });
    }
    println!("\nmapping effect (variant / first variant of the same fabric):");
    for pair in rows.chunks(2) {
        for (x, y) in pair[0].results.iter().zip(&pair[1].results) {
            println!(
                "  {:<4} {:>28} vs {:>28}: {:.3}",
                x.name,
                pair[0].variant,
                pair[1].variant,
                y.mops / x.mops
            );
        }
    }
    job.write("ablation_mapping", &rows);
}

#[derive(Serialize)]
struct PlacementRow {
    topology: String,
    per_cabinet: u32,
    naive_cable_m: f64,
    opt_cable_m: f64,
    naive_optical: u32,
    opt_optical: u32,
    naive_cable_cost: f64,
    opt_cable_cost: f64,
}

/// Id-order cabinet packing (the paper's implicit layout) against
/// partitioner-driven placement: much of the proposed topology's cable
/// premium (Fig. 9d) is placement, not topology.
pub fn ablation_placement(job: &mut Job) {
    let seed = job.budget.seed;
    let graphs = [
        (
            "5-D torus".to_string(),
            conventional(job, &Torus::paper_5d(), AttachOrder::Sequential).1,
        ),
        (
            "dragonfly a=8".into(),
            conventional(job, &Dragonfly::paper_a8(), AttachOrder::Sequential).1,
        ),
        (
            "16-ary fat-tree".into(),
            conventional(job, &FatTree::paper_16ary(), AttachOrder::Sequential).1,
        ),
        (
            "proposed (r=15)".into(),
            job.fabric("sketch n=1024 r=15", || {
                sketch(1024, 15, seed).expect("constructible")
            }),
        ),
    ];
    println!(
        "{:<18} {:>4} {:>11} {:>11} {:>9} {:>9} {:>11} {:>11}",
        "topology", "per", "cable_m", "cable_m*", "optical", "optical*", "cbl_cost", "cbl_cost*"
    );
    let hw = HardwareModel::default();
    let mut rows = Vec::new();
    for per in [2u32, 4] {
        for (name, g) in &graphs {
            let naive = evaluate(g, &Floorplan::new(g, per), &hw);
            let opt = evaluate(g, &optimized_floorplan(g, per, seed), &hw);
            let r = PlacementRow {
                topology: name.clone(),
                per_cabinet: per,
                naive_cable_m: naive.cable_m,
                opt_cable_m: opt.cable_m,
                naive_optical: naive.optical_cables,
                opt_optical: opt.optical_cables,
                naive_cable_cost: naive.cable_cost,
                opt_cable_cost: opt.cable_cost,
            };
            println!(
                "{:<18} {:>4} {:>11.0} {:>11.0} {:>9} {:>9} {:>11.0} {:>11.0}",
                r.topology,
                r.per_cabinet,
                r.naive_cable_m,
                r.opt_cable_m,
                r.naive_optical,
                r.opt_optical,
                r.naive_cable_cost,
                r.opt_cable_cost
            );
            rows.push(r);
        }
    }
    println!("\n(* = partitioner-driven placement; lower is better)");
    job.write("ablation_placement", &rows);
}

#[derive(Serialize)]
struct RoutingRow {
    topology: String,
    mode: String,
    results: Vec<BenchResult>,
}

/// Static single-path routing (the paper's SimGrid setup) against
/// per-flow ECMP on the fat-tree, which is engineered for multipath,
/// and on the proposed topology, whose path diversity is incidental:
/// how much of the Fig. 11a gap is routing policy.
pub fn ablation_routing(job: &mut Job) {
    let benches = [Benchmark::Cg, Benchmark::Mg, Benchmark::Bt, Benchmark::Lu];
    let ft = conventional(job, &FatTree::paper_16ary(), AttachOrder::Sequential).0;
    let proposed = job.proposed(1024, 16).0;
    let names: String = benches
        .iter()
        .map(|b| format!("{:>10}", b.name()))
        .collect();
    println!("{:<18} {:<12} {names}", "topology", "routing");
    let mut rows = Vec::new();
    for (name, key) in [("fat-tree", ft), ("proposed", proposed)] {
        for (mode_name, mode) in [
            ("single-path", RouteMode::SinglePath),
            ("ecmp", RouteMode::Ecmp),
        ] {
            let results = job.suite(&key, mode, &benches);
            let mops: String = results
                .iter()
                .map(|r| format!("{:>10.0}", r.mops))
                .collect();
            println!("{name:<18} {mode_name:<12} {mops}");
            rows.push(RoutingRow {
                topology: name.into(),
                mode: mode_name.into(),
                results,
            });
        }
    }
    println!("\nECMP / single-path speedup:");
    for pair in rows.chunks(2) {
        let gains: Vec<String> = pair[0]
            .results
            .iter()
            .zip(&pair[1].results)
            .map(|(a, b)| format!("{}: {:.3}", a.name, b.mops / a.mops))
            .collect();
        println!("  {:<10} {}", pair[0].topology, gains.join("  "));
    }
    job.write("ablation_routing", &rows);
}

#[derive(Serialize)]
struct FamilyRow {
    family: String,
    m: u32,
    haspl: f64,
    diameter: u32,
}

/// §2.1 replication: the annealed ORP solution against the random
/// families of the related work at the same `(n, r)` and `m = m_opt`.
pub fn baselines_random(job: &mut Job) {
    let (n, r) = (1024u32, 24u32);
    let m = optimal_switch_count(n.into(), r.into()).0 as u32;
    let seed = job.budget.seed;
    let lb = haspl_lower_bound(n.into(), r.into());
    println!("== random baselines at n={n}, r={r}, m={m} (Thm-2 bound {lb:.4}) ==");
    println!("{:<26} {:>5} {:>9} {:>4}", "family", "m", "h-ASPL", "D");
    let families = [
        ("Erdős–Rényi", erdos_renyi(n, m, r, seed).ok()),
        // cycle+matching needs even m
        (
            "cycle + matching",
            cycle_plus_matching(n, m + m % 2, r, seed).ok(),
        ),
        (
            "Watts–Strogatz (β=0.1, k=10)",
            watts_strogatz(n, m, 10, 0.1, r, seed).ok(),
        ),
        (
            "Watts–Strogatz (β=1.0, k=10)",
            watts_strogatz(n, m, 10, 1.0, r, seed).ok(),
        ),
        (
            "Barabási–Albert (k=5)",
            barabasi_albert(n, m, 5, r, seed).ok(),
        ),
    ];
    let mut rows = Vec::new();
    for (family, g) in families {
        let Some(g) = g else {
            println!("{family:<26} construction failed");
            continue;
        };
        rows.push((family, job.fabric(&format!("{family} n={n} r={r}"), || g)));
    }
    let annealed = job
        .solve(
            (n, r),
            None,
            MoveKind::TwoNeighborSwing,
            job.budget.proposals,
        )
        .expect("feasible");
    let ours = "ORP annealed (ours)";
    rows.push((
        ours,
        job.fabric(&format!("annealed n={n} r={r}"), || annealed.graph.clone()),
    ));
    let rows: Vec<FamilyRow> = rows
        .into_iter()
        .map(|(family, g)| {
            let pm = path_metrics(&g).expect("connected");
            println!(
                "{family:<26} {:>5} {:>9.4} {:>4}",
                g.num_switches(),
                pm.haspl,
                pm.diameter
            );
            FamilyRow {
                family: family.into(),
                m: g.num_switches(),
                haspl: pm.haspl,
                diameter: pm.diameter,
            }
        })
        .collect();
    let best_random = rows
        .iter()
        .filter(|x| x.family != ours)
        .map(|x| x.haspl)
        .min_by(f64::total_cmp);
    if let Some(best) = best_random {
        let a = annealed.metrics.haspl;
        println!(
            "\nannealed vs best random family: {a:.4} vs {best:.4} ({:+.1}%)",
            100.0 * (a / best - 1.0)
        );
    }
    job.write("baselines_random", &rows);
}

#[derive(Serialize)]
struct ModelCell {
    topology: String,
    pattern: String,
    fluid_s: f64,
    packet_s: f64,
}

/// The fluid (max-min fair) simulator against the packet-level
/// store-and-forward one on synthetic permutations at 256 hosts: the
/// conclusions need only the ordering of topologies to hold, so each
/// pattern reports whether both models pick the same winner. The fluid
/// run of the torus under uniform-permutation traffic is recorded and
/// exported as a metrics stream.
pub fn validation_models(job: &mut Job) {
    let (n, seed) = (256u32, job.budget.seed);
    let bytes = 32.0 * DEFAULT_MTU;
    let at256 = |t: &dyn Topology| {
        t.build_with_hosts(n, AttachOrder::Sequential)
            .expect("fits")
    };
    let topos = [
        (
            "torus 3D",
            job.fabric("torus 3D n=256", || {
                at256(&Torus {
                    dim: 3,
                    base: 4,
                    radix: 10,
                })
            }),
        ),
        (
            "dragonfly a=6",
            job.fabric("dragonfly a=6 n=256", || at256(&Dragonfly { a: 6 })),
        ),
        (
            "fat-tree K=12",
            job.fabric("fat-tree K=12 n=256", || at256(&FatTree { k: 12 })),
        ),
        (
            "proposed",
            job.fabric("sketch n=256 r=11", || {
                sketch(n, 11, seed).expect("constructible")
            }),
        ),
    ];
    let nets: Vec<Network> = topos
        .iter()
        .map(|(_, g)| Network::builder(g).build())
        .collect();
    let mut cells = Vec::new();
    let mut agreements = 0;
    for pattern in Pattern::all() {
        println!("\npattern: {}", pattern.name());
        println!(
            "{:<16} {:>12} {:>12}",
            "topology", "fluid (ms)", "packet (ms)"
        );
        let mut fluid = Vec::new();
        let mut packet = Vec::new();
        for (i, ((name, g), net)) in topos.iter().zip(&nets).enumerate() {
            let traced = i == 0 && pattern == Pattern::UniformPermutation;
            let rec = if traced {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            };
            let recorded = traced.then(|| Network::builder(g).recorder(rec.clone()).build());
            let fl = Simulator::builder(recorded.as_ref().unwrap_or(net))
                .programs(pattern.programs(n, bytes, 1, seed))
                .run()
                .expect("fluid run completes")
                .time;
            if traced {
                export("results/TRACE_validation_uniform.jsonl", &rec);
            }
            let pk = packet_simulate_pattern(net, pattern, bytes, seed)
                .expect("packet run completes")
                .makespan;
            println!("{name:<16} {:>12.4} {:>12.4}", fl * 1e3, pk * 1e3);
            fluid.push((*name, fl));
            packet.push((*name, pk));
            cells.push(ModelCell {
                topology: name.to_string(),
                pattern: pattern.name().into(),
                fluid_s: fl,
                packet_s: pk,
            });
        }
        let winner = |v: &[(&'static str, f64)]| {
            v.iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("four topologies")
                .0
        };
        let (wf, wp) = (winner(&fluid), winner(&packet));
        agreements += usize::from(wf == wp);
        println!(
            "winner: fluid = {wf}, packet = {wp} ({})",
            if wf == wp { "agree" } else { "DISAGREE" }
        );
    }
    println!(
        "\nwinner agreement: {agreements}/{} patterns",
        Pattern::all().len()
    );
    job.write("validation_models", &cells);
}
