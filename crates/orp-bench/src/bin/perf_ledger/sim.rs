//! The simulator workloads (§6): the NPB suite, closed-loop, on the
//! paper's 1024-host instance, and a million open-loop flows on the
//! `eventsim_scale` fabric.
//!
//! A unit builds the network (`Network::builder().build()`), the rank
//! programs (`Benchmark::build`, NPB only) and the simulator
//! (`SimulatorBuilder::build`) — the set-up — then times
//! `Simulator::run`. The trace adds a replay of every flow of one unit
//! through `Network::route_with_into` and one run under an enabled
//! `orp_obs::Recorder`, whose report must equal the untraced one.

use crate::metrics::{bits, int, obj, text, Outcome, LAYERS};
use crate::stats;
use orp_core::construct::random_general;
use orp_core::HostSwitchGraph;
use orp_netsim::network::{LinkId, Network};
use orp_netsim::npb::Benchmark;
use orp_netsim::{InjectedFlow, Op, Program, SharingMode, SimReport, Simulator};
use orp_obs::Recorder;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::time::Instant;

/// NPB ranks, switches and radix: the paper's Fig. 9 instance.
const NPB_HOSTS: u32 = 1024;
const NPB_SWITCHES: u32 = 195;
const NPB_RADIX: u32 = 15;
/// Simulated iterations per kernel (NPB is steady-state per iteration).
const NPB_ITERS: usize = 1;

/// The `eventsim_scale` scenario: 256 hosts on 64 radix-16 switches
/// (fabric seed 7), 1 MB flows released within the first millisecond.
const OPEN_HOSTS: u32 = 256;
const OPEN_SWITCHES: u32 = 64;
const OPEN_RADIX: u32 = 16;
const OPEN_FABRIC_SEED: u64 = 7;
const OPEN_FLOWS: usize = 1_000_000;
const OPEN_FLOW_BYTES: f64 = 1e6;
const OPEN_WINDOW_NS: u32 = 1_000_000;
/// Flow-stream seed = ledger seed + this, so that `--seed 1` is the
/// `eventsim_scale` stream (its seed 42) and meets its recorded report.
const OPEN_SEED_OFFSET: u64 = 41;

/// The simulated outcome two runs of the same input must share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    time_bits: u64,
    flows: u64,
    bytes_bits: u64,
    events: u64,
    cancelled: u64,
    peak_depth: u64,
}

impl Fingerprint {
    fn of(rep: &SimReport) -> Self {
        Self {
            time_bits: rep.time.to_bits(),
            flows: rep.flows,
            bytes_bits: rep.bytes.to_bits(),
            events: rep.events,
            cancelled: rep.events_cancelled,
            peak_depth: rep.peak_queue_depth as u64,
        }
    }

    fn to_json(self, name: &str) -> Value {
        obj(vec![
            ("run", text(name)),
            ("time_bits", bits(f64::from_bits(self.time_bits))),
            ("flows", int(self.flows)),
            ("bytes_bits", bits(f64::from_bits(self.bytes_bits))),
            ("events", int(self.events)),
            ("cancelled", int(self.cancelled)),
            ("peak_depth", int(self.peak_depth)),
        ])
    }
}

/// `results/BENCH_eventsim.json`, 1,000,000 flows, one worker: the
/// reference for `openloop-1m` at `--seed 1`.
const OPENLOOP_SEED1: Fingerprint = Fingerprint {
    time_bits: 1.037_074_373_032_729_6_f64.to_bits(),
    flows: 1_000_000,
    bytes_bits: 1e12_f64.to_bits(),
    events: 2_999_823,
    cancelled: 268_270,
    peak_depth: 1_976,
};

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Npb,
    OpenLoop,
}

impl Kind {
    /// The workload configuration recorded in the ledger.
    pub fn describe(self) -> Value {
        match self {
            Kind::Npb => obj(vec![
                ("kernels", text("BT CG EP FT IS LU MG SP, paper classes")),
                ("ranks", int(NPB_HOSTS)),
                ("topology", text("random_general(1024, 195, 15, seed)")),
                ("npb_iters", int(NPB_ITERS as u64)),
                ("sharing", text(SharingMode::ExactMaxMin.name())),
                ("placement", text("identity")),
                ("setup_repeats", int(self.setup_repeats() as u64)),
            ]),
            Kind::OpenLoop => obj(vec![
                ("flows", int(OPEN_FLOWS as u64)),
                ("flow_bytes", Value::Float(OPEN_FLOW_BYTES)),
                ("window_ns", int(OPEN_WINDOW_NS)),
                ("topology", text("random_general(256, 64, 16, 7)")),
                ("flow_seed", text("seed + 41")),
                ("sharing", text(SharingMode::ApproxFair.name())),
                ("setup_repeats", int(self.setup_repeats() as u64)),
            ]),
        }
    }

    /// Set-ups timed per run for the `setup_s` median.
    fn setup_repeats(self) -> usize {
        match self {
            Kind::Npb => 5,
            Kind::OpenLoop => 9,
        }
    }
}

/// One simulation: its program or injection input and what it should
/// produce.
struct Job<'a> {
    name: &'static str,
    programs: Vec<Program>,
    flows: &'a [InjectedFlow],
    sharing: SharingMode,
    /// Network flows the run must complete.
    expected_flows: u64,
    /// Simulated time no run can beat, ignoring the network's
    /// contention: the busiest rank's compute (NPB), or the latest
    /// release plus that flow's transfer at full link rate (open loop).
    lower_bound_s: f64,
}

/// One timed simulation.
struct Timed {
    name: &'static str,
    run_s: f64,
    report: SimReport,
    lower_bound_s: f64,
}

/// The flows of a rank program that cross the network: sends to
/// another rank (identity placement makes every other rank another
/// host).
fn network_sends(programs: &[Program]) -> impl Iterator<Item = (u32, u32)> + '_ {
    programs.iter().enumerate().flat_map(|(rank, prog)| {
        let rank = rank as u32;
        prog.iter().filter_map(move |op| match *op {
            Op::Send { to, .. } | Op::SendRecv { to, .. } if to != rank => Some((rank, to)),
            _ => None,
        })
    })
}

/// Builds one kernel's job; the second value is the `Benchmark::build`
/// time, the only part of this that is the program's own set-up.
fn npb_job(bench: Benchmark, flops: f64) -> (Job<'static>, f64) {
    let t = Instant::now();
    let programs = bench.build(NPB_HOSTS, bench.paper_class(), NPB_ITERS);
    let build_s = t.elapsed().as_secs_f64();
    let compute = programs
        .iter()
        .map(|p| {
            p.iter()
                .map(|op| if let Op::Compute(f) = op { *f } else { 0.0 })
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    let job = Job {
        name: bench.name(),
        expected_flows: network_sends(&programs).count() as u64,
        programs,
        flows: &[],
        sharing: SharingMode::ExactMaxMin,
        lower_bound_s: compute / flops,
    };
    (job, build_s)
}

fn open_flows(seed: u64) -> Vec<InjectedFlow> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed + OPEN_SEED_OFFSET);
    (0..OPEN_FLOWS)
        .map(|_| {
            let src = rng.gen_range(0..OPEN_HOSTS);
            let mut dst = rng.gen_range(0..OPEN_HOSTS);
            while dst == src {
                dst = rng.gen_range(0..OPEN_HOSTS);
            }
            InjectedFlow {
                at: f64::from(rng.gen_range(0..OPEN_WINDOW_NS)) * 1e-9,
                src,
                dst,
                bytes: OPEN_FLOW_BYTES,
            }
        })
        .collect()
}

fn open_job(flows: &[InjectedFlow], bandwidth: f64) -> Job<'_> {
    Job {
        name: "openloop",
        programs: Vec::new(),
        flows,
        sharing: SharingMode::ApproxFair,
        expected_flows: flows.iter().filter(|f| f.src != f.dst).count() as u64,
        lower_bound_s: flows
            .iter()
            .map(|f| f.at + f.bytes / bandwidth)
            .fold(0.0, f64::max),
    }
}

/// The generated inputs of a workload: the topology and, open loop,
/// the flow list. Not part of the timed set-up.
struct Inputs {
    kind: Kind,
    graph: HostSwitchGraph,
    flows: Vec<InjectedFlow>,
}

impl Inputs {
    fn generate(kind: Kind, seed: u64) -> Result<Self, String> {
        let (graph, flows) = match kind {
            Kind::Npb => (
                random_general(NPB_HOSTS, NPB_SWITCHES, NPB_RADIX, seed),
                Vec::new(),
            ),
            Kind::OpenLoop => (
                random_general(OPEN_HOSTS, OPEN_SWITCHES, OPEN_RADIX, OPEN_FABRIC_SEED),
                open_flows(seed),
            ),
        };
        let graph = graph.map_err(|e| format!("topology: {e}"))?;
        Ok(Self { kind, graph, flows })
    }

    /// The unit's simulations and the time spent building rank programs.
    fn jobs(&self, net: &Network) -> (Vec<Job<'_>>, f64) {
        match self.kind {
            Kind::Npb => {
                let built: Vec<_> = Benchmark::all()
                    .iter()
                    .map(|&b| npb_job(b, net.config().flops))
                    .collect();
                let build_s = built.iter().map(|(_, s)| s).sum();
                (built.into_iter().map(|(j, _)| j).collect(), build_s)
            }
            Kind::OpenLoop => (vec![open_job(&self.flows, net.config().bandwidth)], 0.0),
        }
    }
}

fn simulator<'n>(net: &'n Network, job: &mut Job<'_>, rec: Option<&Recorder>) -> Simulator<'n> {
    let b = Simulator::builder(net)
        .programs(std::mem::take(&mut job.programs))
        .inject(job.flows)
        .sharing(job.sharing);
    match rec {
        Some(rec) => b.recorder(rec.clone()),
        None => b,
    }
    .build()
}

/// One set-up, timed and dropped: the network, the rank programs and
/// every simulator of a unit. Returns the network, program and total
/// seconds.
fn setup(inputs: &Inputs) -> [f64; 3] {
    let t = Instant::now();
    let net = Network::builder(&inputs.graph).build();
    let network_s = t.elapsed().as_secs_f64();
    let (jobs, programs_s) = inputs.jobs(&net);
    let mut sims_s = 0.0;
    for mut job in jobs {
        let t = Instant::now();
        let sim = simulator(&net, &mut job, None);
        sims_s += t.elapsed().as_secs_f64();
        drop(sim);
    }
    [network_s, programs_s, network_s + programs_s + sims_s]
}

/// `count` set-ups: each part's samples, in `setup` order.
fn timed_setups(inputs: &Inputs, count: usize) -> [Vec<f64>; 3] {
    let mut parts = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..count {
        for (p, x) in parts.iter_mut().zip(setup(inputs)) {
            p.push(x);
        }
    }
    parts
}

/// One unit's runs and its set-up and run seconds.
struct Unit {
    setup_s: f64,
    runs: Vec<Timed>,
}

impl Unit {
    fn run_s(&self) -> f64 {
        self.runs.iter().map(|r| r.run_s).sum()
    }

    fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.report.events).sum()
    }
}

/// Runs one unit, checking every run against its job. Failures are
/// recorded in `out`; a run that errors is left out of the unit.
fn unit(inputs: &Inputs, rec: Option<&Recorder>, out: &mut Outcome) -> Unit {
    let t = Instant::now();
    let net = Network::builder(&inputs.graph).build();
    let mut setup_s = t.elapsed().as_secs_f64();
    let (jobs, programs_s) = inputs.jobs(&net);
    setup_s += programs_s;
    let mut runs = Vec::new();
    for mut job in jobs {
        out.attempted += 1;
        let t = Instant::now();
        let sim = simulator(&net, &mut job, rec);
        setup_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = sim.run();
        let run_s = t.elapsed().as_secs_f64();
        match result {
            Ok(report) => {
                if report.flows != job.expected_flows {
                    out.fail(format!(
                        "{}: {} of {} flows completed",
                        job.name, report.flows, job.expected_flows
                    ));
                } else if report.time < job.lower_bound_s {
                    out.fail(format!(
                        "{}: simulated {} s beats the {} s lower bound",
                        job.name, report.time, job.lower_bound_s
                    ));
                }
                runs.push(Timed {
                    name: job.name,
                    run_s,
                    report,
                    lower_bound_s: job.lower_bound_s,
                });
            }
            Err(e) => out.fail(format!("{}: {e}", job.name)),
        }
    }
    Unit { setup_s, runs }
}

fn fingerprints(u: &Unit) -> Vec<(&'static str, Fingerprint)> {
    u.runs
        .iter()
        .map(|r| (r.name, Fingerprint::of(&r.report)))
        .collect()
}

/// Simulated time over the runs' lower bounds, as a gap in percent.
fn gap_pct(u: &Unit) -> f64 {
    let time: f64 = u.runs.iter().map(|r| r.report.time).sum();
    let bound: f64 = u.runs.iter().map(|r| r.lower_bound_s).sum();
    100.0 * (time - bound) / bound
}

/// Checks a unit against the first unit of the run and, open loop at
/// seed 1, against the recorded reference.
fn check_fingerprints(
    kind: Kind,
    seed: u64,
    first: &[(&'static str, Fingerprint)],
    u: &Unit,
    out: &mut Outcome,
) {
    let now = fingerprints(u);
    if now != first {
        out.fail("report fingerprint differs between units of one run".into());
    }
    if kind == Kind::OpenLoop && seed == 1 && now.iter().any(|(_, f)| *f != OPENLOOP_SEED1) {
        out.fail("openloop-1m at seed 1 differs from results/BENCH_eventsim.json".into());
    }
}

/// Untraced run: the timed set-ups, then `units` identical units on the
/// seed's inputs. The set-ups run back to back first: between units,
/// the units' own frees would decide whether the simulator's copy of
/// the flows lands on fresh pages, and that flips from seed to seed.
pub fn run(kind: Kind, seed: u64, units: usize) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match Inputs::generate(kind, seed) {
        Ok(i) => i,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let [_, _, setups] = timed_setups(&inputs, kind.setup_repeats());
    out.samples.insert("setup_s", setups);
    let mut first: Option<Vec<(&'static str, Fingerprint)>> = None;
    for _ in 0..units.max(1) {
        let u = unit(&inputs, None, &mut out);
        let fp = first.get_or_insert_with(|| fingerprints(&u));
        check_fingerprints(kind, seed, fp, &u, &mut out);
        out.sample("work_per_s", u.events() as f64 / u.run_s());
        out.sample("gap_pct", gap_pct(&u));
    }
    out.fingerprint = first
        .unwrap_or_default()
        .into_iter()
        .map(|(name, f)| f.to_json(name))
        .collect();
    out
}

/// Replays every network flow of `jobs` through
/// `Network::route_with_into`; returns (flows routed, seconds).
fn route_replay(net: &Network, jobs: &[Job]) -> Result<(u64, f64), String> {
    let table = net.routing();
    let mut buf: Vec<LinkId> = Vec::new();
    let mut routed = 0u64;
    let t = Instant::now();
    for job in jobs {
        let pairs = network_sends(&job.programs).chain(
            job.flows
                .iter()
                .filter(|f| f.src != f.dst)
                .map(|f| (f.src, f.dst)),
        );
        for (src, dst) in pairs {
            routed += 1;
            net.route_with_into(table, src, dst, routed, &mut buf)
                .map_err(|e| format!("route {src}->{dst}: {e}"))?;
        }
    }
    Ok((routed, t.elapsed().as_secs_f64()))
}

/// Traced run: one untraced unit for the layer walls and queue counts,
/// a route replay of its flows, and one unit under an enabled recorder.
pub fn run_traced(kind: Kind, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = match Inputs::generate(kind, seed) {
        Ok(i) => i,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let [network, programs, _] = timed_setups(&inputs, kind.setup_repeats());
    let t = Instant::now();
    let base = unit(&inputs, None, &mut out);
    let unit_s = t.elapsed().as_secs_f64();
    let fp = fingerprints(&base);
    check_fingerprints(kind, seed, &fp, &base, &mut out);
    out.fingerprint = fp.iter().map(|(name, f)| f.to_json(name)).collect();

    out.layer("network.build_s", stats::median(&network));
    if kind == Kind::Npb {
        out.layer("npb.program_build_s", stats::median(&programs));
        for r in &base.runs {
            let name = format!("npb.{}.wall_s", r.name);
            let def = LAYERS
                .iter()
                .find(|d| d.name == name)
                .expect("every kernel has a wall layer");
            out.layer(def.name, r.run_s);
        }
    }
    let run_s = base.run_s();
    let events = base.events();
    let reps = base.runs.iter().map(|r| &r.report);
    let cancelled: u64 = reps.clone().map(|r| r.events_cancelled).sum();
    out.layer("queue.events", events as f64);
    out.layer("queue.cancelled", cancelled as f64);
    out.layer(
        "queue.tombstone_ratio",
        cancelled as f64 / (events + cancelled).max(1) as f64,
    );
    out.layer(
        "queue.peak_depth",
        reps.clone().map(|r| r.peak_queue_depth).max().unwrap_or(0) as f64,
    );
    out.layer(
        "queue.compacted",
        reps.clone()
            .map(|r| r.events_compacted + r.model_compacted)
            .sum::<u64>() as f64,
    );
    out.layer(
        "sharing.flows",
        reps.clone().map(|r| r.flows).sum::<u64>() as f64,
    );
    out.layer(
        "sharing.peak_flows",
        reps.map(|r| r.peak_flows).max().unwrap_or(0) as f64,
    );
    let timed = base.setup_s + run_s;
    out.layer("trace.coverage_pct", 100.0 * timed / unit_s);
    // the layers are whole calls timed from outside: nothing runs traced
    out.layer("trace.overhead_pct", 0.0);

    // route replay over the same unit's flows
    let net = Network::builder(&inputs.graph).build();
    let (jobs, _) = inputs.jobs(&net);
    out.attempted += 1;
    match route_replay(&net, &jobs) {
        Ok((routed, route_s)) => {
            let flows: u64 = base.runs.iter().map(|r| r.report.flows).sum();
            out.layer(
                "trace.replay_identical",
                f64::from(u8::from(routed == flows)),
            );
            out.layer("route.ns_per_flow", route_s * 1e9 / routed.max(1) as f64);
            out.layer("route.share_pct", 100.0 * route_s / run_s);
            // an estimate: the engine's own routing is not the replay's
            out.layer(
                "engine.ns_per_event",
                (run_s - route_s) * 1e9 / events.max(1) as f64,
            );
        }
        Err(e) => out.fail(e),
    }
    drop(jobs);

    // the same unit under an enabled recorder
    let rec = Recorder::enabled();
    let observed = unit(&inputs, Some(&rec), &mut out);
    out.layer(
        "obs.equivalent",
        f64::from(u8::from(fingerprints(&observed) == fp)),
    );
    out.layer(
        "obs.overhead_pct",
        100.0 * (observed.run_s() - run_s) / run_s,
    );
    out
}
