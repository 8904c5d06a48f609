//! The figure job: regenerates Figs. 5–11 of the paper, the ablations,
//! the baselines and the telemetry artifacts in one run.
//!
//! ```text
//! figures --budget smoke|recorded <artifact>...|all
//! ```
//!
//! A budget is one constant row of [`BUDGETS`]. Within a run each
//! proposed topology is solved once and each (fabric, routing, kernel)
//! simulated once, whichever artifacts share them. Every topology an
//! artifact reports passes [`check_topology`] before anything is
//! written, and every JSON artifact is `{"provenance": …, "data": …}`
//! with the rev, dirty flag, budget, seed, `nproc` and wall time.
//! Artifacts land in `results/` under the working directory; an unknown
//! artifact or budget exits with code 2.

mod extra;
mod paper;
mod telemetry;

use orp_bench::{bandwidth_series, check_topology, CutPoint, Stamp};
use orp_core::anneal::{MoveKind, SaConfig, SaResult};
use orp_core::bounds::optimal_switch_count;
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::path_metrics;
use orp_core::solver::Solver;
use orp_netsim::npb::Benchmark;
use orp_netsim::report::{run_benchmark, BenchResult};
use orp_netsim::{NetConfig, Network, RouteMode};
use orp_obs::{Recorder, StreamSink};
use orp_partition::PartitionConfig;
use orp_topo::attach::relabel_hosts_dfs;
use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

/// One effort level. Each is a constant row: an item that needs more
/// seeds or proposals adds them here, not as a knob.
pub(crate) struct Budget {
    name: &'static str,
    /// Annealing proposals per solve.
    pub proposals: usize,
    /// NPB iterations per simulated kernel.
    pub npb_iters: usize,
    /// Seed of every solve, sketch and partition.
    pub seed: u64,
    /// Failure rates of the resilience sweep.
    pub fault_rates: &'static [f64],
    /// Failure-sampling seeds of the resilience sweep.
    pub fault_seeds: &'static [u64],
}

const BUDGETS: [Budget; 2] = [
    Budget {
        name: "smoke",
        proposals: 500,
        npb_iters: 1,
        seed: 1,
        fault_rates: &[0.05],
        fault_seeds: &[1],
    },
    Budget {
        name: "recorded",
        proposals: 20_000,
        npb_iters: 2,
        seed: 1,
        fault_rates: &[0.0, 0.02, 0.05, 0.10],
        fault_seeds: &[1, 2, 3],
    },
];

/// An artifact's name on the command line and the function that
/// computes, prints and writes it.
type Artifact = (&'static str, fn(&mut Job));

/// Every artifact in run order. `trace_anneal` records the (128, 8)
/// solve, so it runs before the two artifacts that reuse that topology.
const ARTIFACTS: [Artifact; 16] = [
    ("fig5", paper::fig5),
    ("fig6", paper::fig6),
    ("fig7", paper::fig7),
    ("fig8", paper::fig8),
    ("fig9", paper::fig9),
    ("fig10", paper::fig10),
    ("fig11", paper::fig11),
    ("summary", paper::summary),
    ("ablation_mapping", extra::ablation_mapping),
    ("ablation_placement", extra::ablation_placement),
    ("ablation_routing", extra::ablation_routing),
    ("baselines_random", extra::baselines_random),
    ("validation_models", extra::validation_models),
    ("trace_anneal", telemetry::trace_anneal),
    ("resilience", telemetry::resilience),
    ("latency_attrib", telemetry::latency_attrib),
];

/// One run's budget and its memo tables.
pub(crate) struct Job {
    pub budget: &'static Budget,
    stamp: Stamp,
    /// Start of the current artifact: its provenance's `wall_s` runs
    /// from here to its write, so a solve or simulation shared with an
    /// earlier artifact is charged to that one.
    started: Instant,
    solves: HashMap<String, Option<Rc<SaResult>>>,
    graphs: HashMap<String, Rc<HostSwitchGraph>>,
    nets: HashMap<String, Network>,
    runs: HashMap<String, BenchResult>,
    cuts: HashMap<String, Vec<CutPoint>>,
    /// Recorded CG runs at one rank per host, keyed by fabric and
    /// recorder configuration (see [`telemetry`]).
    pub traced: HashMap<String, Rc<telemetry::Traced>>,
}

impl Job {
    fn new(budget: &'static Budget) -> Self {
        Self {
            budget,
            stamp: Stamp::new(),
            started: Instant::now(),
            solves: HashMap::new(),
            graphs: HashMap::new(),
            nets: HashMap::new(),
            runs: HashMap::new(),
            cuts: HashMap::new(),
            traced: HashMap::new(),
        }
    }

    /// The best graph of one solve of `(n, r)` at `m` switches (`m_opt`
    /// when `None`) with `iters` proposals, solved once per run and
    /// checked; `None` where no start graph exists (a swap needs
    /// `m | n`). `rec` records the solve when it runs first.
    pub fn solve_recorded(
        &mut self,
        (n, r): (u32, u32),
        m: Option<u32>,
        kind: MoveKind,
        iters: usize,
        rec: Recorder,
    ) -> Option<Rc<SaResult>> {
        let m = m.unwrap_or_else(|| optimal_switch_count(n.into(), r.into()).0 as u32);
        let cfg = SaConfig {
            iters,
            seed: self.budget.seed,
            ..Default::default()
        };
        self.solves
            .entry(format!("{n} {m} {r} {kind:?} {iters}"))
            .or_insert_with(|| {
                let res = Solver::builder(n, r)
                    .kind(kind)
                    .switches(m)
                    .config(cfg)
                    .recorder(rec)
                    .run()
                    .ok()?
                    .result;
                check_topology(&res.graph, &res.metrics)
                    .unwrap_or_else(|e| panic!("solve ({n}, {m}, {r}) {kind:?}: {e}"));
                Some(Rc::new(res))
            })
            .clone()
    }

    /// [`Job::solve_recorded`] without a recorder.
    pub fn solve(
        &mut self,
        nr: (u32, u32),
        m: Option<u32>,
        kind: MoveKind,
        iters: usize,
    ) -> Option<Rc<SaResult>> {
        self.solve_recorded(nr, m, kind, iters, Recorder::disabled())
    }

    /// The paper's proposed topology for `(n, r)`: the budget's
    /// 2-neighbor-swing solve at `m_opt`, hosts relabelled depth-first
    /// (§6.2.1). Registered as the fabric `proposed n=<n> r=<r>`.
    pub fn proposed(&mut self, n: u32, r: u32) -> (String, Rc<HostSwitchGraph>) {
        let key = format!("proposed n={n} r={r}");
        let iters = self.budget.proposals;
        let res = self
            .solve((n, r), None, MoveKind::TwoNeighborSwing, iters)
            .expect("feasible ORP instance");
        let g = self.fabric(&key, || relabel_hosts_dfs(&res.graph, 0));
        (key, g)
    }

    /// The fabric registered as `key`, built by `build` the first time
    /// and checked by the oracles.
    pub fn fabric(
        &mut self,
        key: &str,
        build: impl FnOnce() -> HostSwitchGraph,
    ) -> Rc<HostSwitchGraph> {
        self.graphs
            .entry(key.to_string())
            .or_insert_with(|| {
                let g = build();
                let pm = path_metrics(&g).unwrap_or_else(|| panic!("{key}: disconnected"));
                check_topology(&g, &pm).unwrap_or_else(|e| panic!("{key}: {e}"));
                Rc::new(g)
            })
            .clone()
    }

    /// NPB results of `benches` on the registered fabric `key` with one
    /// rank per host: each (fabric, routing, kernel) is simulated once
    /// per run.
    pub fn suite(&mut self, key: &str, mode: RouteMode, benches: &[Benchmark]) -> Vec<BenchResult> {
        let g = self.graph(key);
        let iters = self.budget.npb_iters;
        benches
            .iter()
            .map(|&b| {
                let id = format!("{key}|{mode:?}|{}", b.name());
                if let Some(res) = self.runs.get(&id) {
                    return res.clone();
                }
                let net = self
                    .nets
                    .entry(format!("{key}|{mode:?}"))
                    .or_insert_with(|| {
                        let cfg = NetConfig {
                            route_mode: mode,
                            ..Default::default()
                        };
                        Network::builder(&g).config(cfg).build()
                    });
                let res = run_benchmark(net, b, g.num_hosts(), b.paper_class(), iters)
                    .expect("fault-free suite simulates");
                self.runs.insert(id, res.clone());
                res
            })
            .collect()
    }

    /// The registered fabric `key`.
    pub fn graph(&self, key: &str) -> Rc<HostSwitchGraph> {
        self.graphs[key].clone()
    }

    /// Panel (b) of the registered fabric `key`, partitioned once per
    /// run; warns for each point whose heaviest part exceeds the
    /// partitioner's `1 + eps` promise.
    pub fn cuts(&mut self, key: &str) -> Vec<CutPoint> {
        if let Some(c) = self.cuts.get(key) {
            return c.clone();
        }
        let cuts = bandwidth_series(&self.graph(key), self.budget.seed);
        let eps = PartitionConfig::default().eps;
        for c in cuts.iter().filter(|c| c.max_part_ratio > 1.0 + eps) {
            eprintln!(
                "warning: {key}: P={} cut {} has a part {:.3}x the ideal weight (bound {:.2})",
                c.parts,
                c.cut,
                c.max_part_ratio,
                1.0 + eps
            );
        }
        self.cuts.insert(key.to_string(), cuts.clone());
        cuts
    }

    /// Writes `results/<name>.json` stamped with this run's provenance,
    /// the budget's name and seed among its settings.
    pub fn write<T: Serialize>(&self, name: &str, data: &T) {
        let settings = vec![
            ("budget", self.budget.name.to_value()),
            ("seed", self.budget.seed.to_value()),
        ];
        let path = self.stamp.write(name, settings, self.started, data);
        println!("wrote {}", path.display());
    }
}

/// Exports `rec` as a metrics stream at `path`, creating its directory.
pub(crate) fn export(path: impl Into<PathBuf>, rec: &Recorder) -> PathBuf {
    let path = path.into();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create stream directory");
    }
    StreamSink::create(&path)
        .expect("create metrics stream")
        .finish(rec, || ());
    println!("wrote {}", path.display());
    path
}

/// A sketch of the proposed topology for layout sweeps and the model
/// check: `m_opt` switches with balanced hosts and every port wired at
/// random, without annealing (power and cost depend on switch count,
/// link count and placement, which the annealer barely changes).
/// `None` where no such construction exists for `(n, r)`.
pub(crate) fn sketch(n: u32, r: u32, seed: u64) -> Option<HostSwitchGraph> {
    let (m_opt, _) = optimal_switch_count(n.into(), r.into());
    orp_core::construct::random_general(n, m_opt as u32, r, seed).ok()
}

/// Key facts of one topology instance.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct TopoSummary {
    pub name: String,
    pub n: u32,
    pub m: u32,
    pub r: u32,
    pub haspl: f64,
    /// Host-to-host diameter.
    pub diameter: u32,
}

impl TopoSummary {
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

fn usage(msg: &str) -> ExitCode {
    let budgets: Vec<&str> = BUDGETS.iter().map(|b| b.name).collect();
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    eprintln!(
        "figures: {msg}\nusage: figures --budget {} <artifact>...|all\nartifacts: {}",
        budgets.join("|"),
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut budget = None;
    let mut wanted = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                let Some(name) = args.next() else {
                    return usage("--budget needs a value");
                };
                match BUDGETS.iter().find(|b| b.name == name) {
                    Some(b) => budget = Some(b),
                    None => return usage(&format!("unknown budget `{name}`")),
                }
            }
            "all" => wanted.extend(0..ARTIFACTS.len()),
            name => match ARTIFACTS.iter().position(|a| a.0 == name) {
                Some(i) => wanted.push(i),
                None => return usage(&format!("unknown artifact `{name}`")),
            },
        }
    }
    let Some(budget) = budget else {
        return usage("no budget given");
    };
    if wanted.is_empty() {
        return usage("no artifact given");
    }
    wanted.sort_unstable();
    wanted.dedup();
    let mut job = Job::new(budget);
    let t0 = Instant::now();
    for i in wanted {
        let (name, run) = ARTIFACTS[i];
        println!("\n##### {name} (budget {})", budget.name);
        job.started = Instant::now();
        run(&mut job);
    }
    println!(
        "\nfigure job done in {:.1} s: {} solves, {} fabrics, {} NPB runs, {} recorded CG runs",
        t0.elapsed().as_secs_f64(),
        job.solves.len(),
        job.graphs.len(),
        job.runs.len(),
        job.traced.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_solve_and_simulation_runs_once_per_job() {
        let mut job = Job::new(&BUDGETS[0]);
        let (key, g) = job.proposed(64, 10);
        let m_opt = optimal_switch_count(64, 10).0 as u32;
        assert_eq!((g.num_hosts(), g.num_switches()), (64, m_opt));
        g.validate().expect("valid proposed topology");
        assert!(Rc::ptr_eq(&g, &job.proposed(64, 10).1));
        let a = job.solve((64, 10), None, MoveKind::TwoNeighborSwing, 500);
        let b = job.solve((64, 10), None, MoveKind::TwoNeighborSwing, 500);
        assert!(Rc::ptr_eq(&a.expect("solved"), &b.expect("solved")));
        assert_eq!(job.solves.len(), 1);
        // a swap needs m | n: no start graph, remembered as such
        assert!(job.solve((64, 10), Some(7), MoveKind::Swap, 500).is_none());
        let first = job.suite(&key, RouteMode::SinglePath, &[Benchmark::Ep, Benchmark::Cg]);
        let again = job.suite(&key, RouteMode::SinglePath, &[Benchmark::Cg]);
        assert_eq!((job.runs.len(), job.nets.len()), (2, 1));
        assert_eq!(first[1].time.to_bits(), again[0].time.to_bits());
    }
}
