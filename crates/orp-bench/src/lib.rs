//! # orp-bench — the figure-regeneration harness
//!
//! One binary per figure of the paper's evaluation (`fig5`–`fig11`), plus
//! shared machinery: building the proposed topology, converting graphs
//! for the partitioner, and the four-panel comparison of Figs. 9–11
//! (performance / bandwidth / power / cost).
//!
//! Every figure binary prints a human-readable table and writes a JSON
//! series next to it (under `results/`), and scales its effort with the
//! `ORP_SA_ITERS`, `ORP_NPB_ITERS` and `ORP_FULL` environment variables
//! so quick smoke runs and paper-fidelity runs share one code path.
//!
//! Performance has one harness, the `perf_ledger` bin (its own
//! README). Two measurement bins cover what it does not run:
//! `ckpt_overhead` (checkpoint cost) and `eventsim_scale` (the
//! simulator at 120k and 1M concurrent open-loop flows).

#![warn(missing_docs)]

use orp_core::anneal::{SaConfig, SaResult};
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::path_metrics;
use orp_core::solver::Solver;
use orp_layout::{evaluate, Floorplan, HardwareModel};
use orp_netsim::network::Network;
use orp_netsim::npb::Benchmark;
use orp_netsim::report::{run_suite, BenchResult};
use orp_partition::{partition, Graph as CutGraph, PartitionConfig};
use orp_topo::attach::relabel_hosts_dfs;
use serde::Serialize;
use std::path::PathBuf;

/// Effort knobs, resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Simulated-annealing proposals per ORP solve.
    pub sa_iters: usize,
    /// NPB iterations simulated per kernel.
    pub npb_iters: usize,
    /// Whether to run the full parameter grids (`ORP_FULL=1`).
    pub full: bool,
    /// Master seed.
    pub seed: u64,
}

impl Effort {
    /// Reads `ORP_SA_ITERS` / `ORP_NPB_ITERS` / `ORP_FULL` / `ORP_SEED`.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Self {
            sa_iters: get("ORP_SA_ITERS", 8_000),
            npb_iters: get("ORP_NPB_ITERS", 2),
            full: std::env::var("ORP_FULL").map(|v| v == "1").unwrap_or(false),
            seed: get("ORP_SEED", 1) as u64,
        }
    }

    /// The SA configuration derived from these knobs.
    pub fn sa_config(&self) -> SaConfig {
        SaConfig {
            iters: self.sa_iters,
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// Builds the paper's proposed topology for `(n, r)`: `m_opt` from the
/// continuous Moore bound, 2-neighbor-swing annealing ([`Solver`]), then
/// the depth-first host relabelling of §6.2.1.
///
/// When `ORP_CKPT_DIR` is set, the anneal checkpoints crash-safely to
/// `<dir>/solve_n<n>_r<r>_i<iters>_s<seed>.orp` and resumes from an
/// existing snapshot automatically — a killed figure sweep picks up
/// mid-solve instead of restarting from scratch (and, by the resume
/// invariant, produces the bit-identical topology either way).
pub fn proposed_topology(n: u32, r: u32, effort: &Effort) -> (HostSwitchGraph, SaResult, u32) {
    let mut solver = Solver::builder(n, r).config(effort.sa_config());
    if let Some(dir) = std::env::var_os("ORP_CKPT_DIR") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create checkpoint dir");
        // iters and seed are part of the name: a checkpoint is only
        // resumable under the exact config that wrote it
        let path = dir.join(format!(
            "solve_n{n}_r{r}_i{}_s{}.orp",
            effort.sa_iters, effort.seed
        ));
        solver = solver.checkpoint(path).resume(true);
    }
    let report = solver.run().expect("feasible ORP instance");
    let relabeled = relabel_hosts_dfs(&report.result.graph, 0);
    (relabeled, report.result, report.m)
}

/// Converts a host-switch graph into the partitioner's format over
/// `V = H ∪ S` (hosts first), unit weights — the §6.2.2 setup.
pub fn to_cut_graph(g: &HostSwitchGraph) -> CutGraph {
    let n = g.num_hosts();
    let m = g.num_switches();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n as usize + g.num_links());
    for h in 0..n {
        edges.push((h, n + g.switch_of(h)));
    }
    for (a, b) in g.links() {
        edges.push((n + a, n + b));
    }
    CutGraph::from_edges((n + m) as usize, &edges)
}

/// The bandwidth series of panels (b): edge cut for `P = 2..=16` parts.
///
/// The partitioner is a randomized heuristic and the cut is a
/// minimisation target, so each point takes the best of three seeds —
/// this is what stabilises the panel across runs (METIS does the same
/// internally via multiple initial partitions).
pub fn bandwidth_series(g: &HostSwitchGraph, seed: u64) -> Vec<(usize, u64)> {
    let cg = to_cut_graph(g);
    (2..=16usize)
        .map(|p| {
            let cut = (0..3u64)
                .map(|i| {
                    let cfg = PartitionConfig {
                        seed: seed.wrapping_add(i.wrapping_mul(0x9e37)),
                        ..Default::default()
                    };
                    partition(&cg, p, &cfg).cut
                })
                .min()
                .expect("three attempts");
            (p, cut)
        })
        .collect()
}

/// One four-panel comparison (Figs. 9–11).
#[derive(Debug, Serialize)]
pub struct Comparison {
    /// Conventional topology label.
    pub baseline_name: String,
    /// Proposed-topology metadata.
    pub proposed: TopoSummary,
    /// Conventional-topology metadata.
    pub baseline: TopoSummary,
    /// Panel (a): NPB results, proposed.
    pub perf_proposed: Vec<BenchResult>,
    /// Panel (a): NPB results, baseline.
    pub perf_baseline: Vec<BenchResult>,
    /// Panel (b): `(P, cut)` series, proposed.
    pub bw_proposed: Vec<(usize, u64)>,
    /// Panel (b): `(P, cut)` series, baseline.
    pub bw_baseline: Vec<(usize, u64)>,
    /// Panels (c)+(d): power/cost sweeps vs connectable hosts.
    pub sweep: Vec<SweepPoint>,
}

/// Key facts of one topology instance.
#[derive(Debug, Clone, Serialize)]
pub struct TopoSummary {
    /// Display name.
    pub name: String,
    /// Hosts.
    pub n: u32,
    /// Switches.
    pub m: u32,
    /// Radix.
    pub r: u32,
    /// h-ASPL.
    pub haspl: f64,
    /// Host-to-host diameter.
    pub diameter: u32,
}

impl TopoSummary {
    /// Computes the summary of a populated host-switch graph.
    pub fn of(name: &str, g: &HostSwitchGraph) -> Self {
        let pm = path_metrics(g).expect("connected graph");
        Self {
            name: name.to_string(),
            n: g.num_hosts(),
            m: g.num_switches(),
            r: g.radix(),
            haspl: pm.haspl,
            diameter: pm.diameter,
        }
    }
}

/// One point of the power/cost sweep of panels (c) and (d).
#[derive(Debug, Serialize)]
pub struct SweepPoint {
    /// Connectable hosts at this point.
    pub hosts: u32,
    /// Total power, proposed / baseline (watts).
    pub power_proposed: f64,
    /// Baseline power (watts).
    pub power_baseline: f64,
    /// Proposed switch cost (dollars).
    pub sw_cost_proposed: f64,
    /// Proposed cable cost (dollars).
    pub cable_cost_proposed: f64,
    /// Baseline switch cost (dollars).
    pub sw_cost_baseline: f64,
    /// Baseline cable cost (dollars).
    pub cable_cost_baseline: f64,
}

/// Runs the NPB suite of panel (a) on a populated graph.
pub fn performance_panel(
    g: &HostSwitchGraph,
    benches: &[Benchmark],
    ranks: u32,
    effort: &Effort,
) -> Vec<BenchResult> {
    let net = Network::builder(g).build();
    run_suite(&net, benches, ranks, effort.npb_iters).expect("fault-free suite simulates")
}

/// Power/cost of a populated graph under the default deployment.
pub fn layout_panel(g: &HostSwitchGraph) -> orp_layout::LayoutReport {
    let fp = Floorplan::new(g, 1);
    evaluate(g, &fp, &HardwareModel::default())
}

/// Writes a JSON artifact under `results/` (created on demand), and
/// returns the path. The write is atomic (sibling temp file + rename)
/// so a crash mid-write never leaves a truncated artifact behind.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    orp_core::ckpt::atomic_write(
        &path,
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
    .expect("write artifact");
    path
}

/// A *sketch* of the proposed topology for layout sweeps: `m_opt`
/// switches with balanced hosts and all ports wired randomly, skipping
/// the annealing — power/cost depend only on switch count, link count
/// and placement, which the annealer barely changes. `None` when no
/// feasible construction exists for this `(n, r)`.
pub fn proposed_sketch(n: u32, r: u32, seed: u64) -> Option<HostSwitchGraph> {
    let (m_opt, _) = orp_core::bounds::optimal_switch_count(n as u64, r as u64);
    orp_core::construct::random_general(n, m_opt as u32, r, seed).ok()
}

/// Computes one sweep point of panels (c)/(d) from two deployed graphs.
pub fn sweep_point(
    hosts: u32,
    baseline: &HostSwitchGraph,
    proposed: &HostSwitchGraph,
) -> SweepPoint {
    let rb = layout_panel(baseline);
    let rp = layout_panel(proposed);
    SweepPoint {
        hosts,
        power_proposed: rp.total_power(),
        power_baseline: rb.total_power(),
        sw_cost_proposed: rp.switch_cost,
        cable_cost_proposed: rp.cable_cost,
        sw_cost_baseline: rb.switch_cost,
        cable_cost_baseline: rb.cable_cost,
    }
}

/// Runs the full four-panel comparison of Figs. 9–11: panel (a) NPB
/// performance and panel (b) partition bandwidth on the two given
/// `n`-host instances, with the (c)/(d) sweep supplied by the caller.
#[allow(clippy::too_many_arguments)]
pub fn build_comparison(
    baseline_name: &str,
    baseline: &HostSwitchGraph,
    proposed_name: &str,
    proposed: &HostSwitchGraph,
    benches: &[Benchmark],
    ranks: u32,
    sweep: Vec<SweepPoint>,
    effort: &Effort,
) -> Comparison {
    Comparison {
        baseline_name: baseline_name.to_string(),
        proposed: TopoSummary::of(proposed_name, proposed),
        baseline: TopoSummary::of(baseline_name, baseline),
        perf_proposed: performance_panel(proposed, benches, ranks, effort),
        perf_baseline: performance_panel(baseline, benches, ranks, effort),
        bw_proposed: bandwidth_series(proposed, effort.seed),
        bw_baseline: bandwidth_series(baseline, effort.seed),
        sweep,
    }
}

/// Geometric-mean speedup of `a` over `b` across matched benchmarks —
/// how the paper summarises "outperforms by X% on average".
pub fn mean_speedup(a: &[BenchResult], b: &[BenchResult]) -> f64 {
    assert_eq!(a.len(), b.len());
    let log_sum: f64 = a.iter().zip(b).map(|(x, y)| (x.mops / y.mops).ln()).sum();
    (log_sum / a.len() as f64).exp()
}

/// Pretty-prints the four-panel comparison to stdout.
pub fn print_comparison(c: &Comparison) {
    println!("== {} vs proposed ==", c.baseline_name);
    println!(
        "{:<22} n={:<5} m={:<4} r={:<3} h-ASPL={:<7.4} D={}",
        c.baseline.name,
        c.baseline.n,
        c.baseline.m,
        c.baseline.r,
        c.baseline.haspl,
        c.baseline.diameter
    );
    println!(
        "{:<22} n={:<5} m={:<4} r={:<3} h-ASPL={:<7.4} D={}",
        c.proposed.name,
        c.proposed.n,
        c.proposed.m,
        c.proposed.r,
        c.proposed.haspl,
        c.proposed.diameter
    );
    let dm = 100.0 * (1.0 - c.proposed.m as f64 / c.baseline.m as f64);
    println!("switch reduction: {dm:.0}%");
    println!("\n(a) performance (Mop/s total):");
    println!(
        "{:<6} {:>14} {:>14} {:>8}",
        "bench", "baseline", "proposed", "ratio"
    );
    for (b, p) in c.perf_baseline.iter().zip(&c.perf_proposed) {
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>8.3}",
            b.name,
            b.mops,
            p.mops,
            p.mops / b.mops
        );
    }
    println!(
        "average speedup: {:.1}%",
        (mean_speedup(&c.perf_proposed, &c.perf_baseline) - 1.0) * 100.0
    );
    println!("\n(b) bandwidth (edge cut, P parts):");
    println!("{:<4} {:>10} {:>10}", "P", "baseline", "proposed");
    for ((p, cb), (_, cp)) in c.bw_baseline.iter().zip(&c.bw_proposed) {
        println!("{p:<4} {cb:>10} {cp:>10}");
    }
    let bis_b = c.bw_baseline[0].1 as f64;
    let bis_p = c.bw_proposed[0].1 as f64;
    println!("bisection change: {:+.0}%", 100.0 * (bis_p / bis_b - 1.0));
    println!("\n(c)/(d) power [W] and cost [$] vs connectable hosts:");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "hosts", "P_base", "P_prop", "swc_base", "swc_prop", "cbl_base", "cbl_prop"
    );
    for s in &c.sweep {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            s.hosts,
            s.power_baseline,
            s.power_proposed,
            s.sw_cost_baseline,
            s.sw_cost_proposed,
            s.cable_cost_baseline,
            s.cable_cost_proposed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::construct::random_general;

    #[test]
    fn cut_graph_has_host_and_switch_edges() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let cg = to_cut_graph(&g);
        assert_eq!(cg.len(), 20);
        assert_eq!(cg.num_edges(), 16 + g.num_links());
    }

    #[test]
    fn bandwidth_series_is_monotone_ish() {
        let g = random_general(32, 8, 10, 1).unwrap();
        let s = bandwidth_series(&g, 1);
        assert_eq!(s.len(), 15);
        assert_eq!(s[0].0, 2);
        assert!(s.last().unwrap().1 >= s[0].1);
    }

    #[test]
    fn mean_speedup_identity() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let e = Effort {
            sa_iters: 10,
            npb_iters: 1,
            full: false,
            seed: 1,
        };
        let perf = performance_panel(&g, &[Benchmark::Ep], 16, &e);
        assert!((mean_speedup(&perf, &perf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proposed_topology_small() {
        let e = Effort {
            sa_iters: 200,
            npb_iters: 1,
            full: false,
            seed: 1,
        };
        let (g, res, m_opt) = proposed_topology(64, 10, &e);
        assert_eq!(g.num_switches(), m_opt);
        assert_eq!(g.num_hosts(), 64);
        g.validate().unwrap();
        assert!(res.metrics.haspl >= 2.0);
    }
}
