//! The solver workloads (§5): simulated annealing with the 2-neighbor
//! swing on a random start with `m = m_opt` switches.
//!
//! Untraced, a unit is one `Anneal::builder(start).run()` timed from
//! outside. Traced, the same solve is replayed through `SearchState`'s
//! public API — a mirror of `Annealer::run_range` and
//! `step_two_neighbor` in `orp-core/src/anneal.rs` — with every call
//! into `ops` and `search` timed. The replay must reproduce the untraced
//! run bit for bit; when it does not (the annealer changed and this
//! mirror did not), `trace.replay_identical` reads 0 and the solver
//! layer numbers are withheld rather than attributed to the wrong loop.

use crate::metrics::{bits, int, obj, Outcome};
use crate::stats;
use orp_core::anneal::{Anneal, SaConfig};
use orp_core::bounds::{
    continuous_moore_haspl, diameter_lower_bound, haspl_lower_bound, optimal_switch_count,
};
use orp_core::construct::random_general;
use orp_core::metrics::path_metrics;
use orp_core::ops::{sample_swing, Swing};
use orp_core::search::{EvalOutcome, EvalPathKind, EARLY_REJECT_LOG};
use orp_core::{HostSwitchGraph, PathMetrics, PoolWorkerStats, SaResult, SearchState};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use std::time::{Duration, Instant};

/// One solver workload.
pub struct Spec {
    /// Hosts.
    pub n: u32,
    /// Switch radix.
    pub r: u32,
    /// Evaluation worker threads (`SaConfig::eval_workers`).
    pub eval_workers: usize,
    /// Proposals per solve (`SaConfig::iters`).
    pub proposals: usize,
    /// Set-ups timed per run for the `setup_s` median.
    pub setup_repeats: usize,
}

impl Spec {
    /// `m_opt`, the switch count minimising the continuous Moore bound.
    fn m(&self) -> u32 {
        let (m, _) = optimal_switch_count(u64::from(self.n), u64::from(self.r));
        u32::try_from(m).expect("m_opt <= n fits u32")
    }

    fn config(&self, seed: u64) -> SaConfig {
        SaConfig::builder()
            .iters(self.proposals)
            .seed(seed)
            .eval_workers(self.eval_workers)
            .build()
    }

    /// The workload configuration recorded in the ledger.
    pub fn describe(&self) -> Value {
        let cfg = self.config(0);
        obj(vec![
            ("n", int(self.n)),
            ("r", int(self.r)),
            ("m", int(self.m())),
            ("move", crate::metrics::text("2-neighbor swing")),
            ("proposals", int(self.proposals as u64)),
            ("eval_workers", int(self.eval_workers as u64)),
            ("t0", Value::Float(cfg.t0)),
            ("t_end", Value::Float(cfg.t_end)),
            ("sample_attempts", int(cfg.sample_attempts as u64)),
            ("early_reject", Value::Bool(cfg.early_reject)),
            ("cache_mode", crate::metrics::text("auto")),
            ("setup_repeats", int(self.setup_repeats as u64)),
        ])
    }
}

/// Times `f`, adding its duration to `acc`.
fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

/// One timed set-up: instance construction, then the search state the
/// annealer builds around it (and, traced, the extra first evaluation
/// `Annealer::new` runs).
struct Setup {
    graph: HostSwitchGraph,
    instance_s: f64,
    search_state_s: f64,
    first_eval_s: f64,
}

fn setup(spec: &Spec, m: u32, seed: u64, first_eval: bool) -> Result<Setup, String> {
    let t = Instant::now();
    let graph = random_general(spec.n, m, spec.r, seed).map_err(|e| format!("instance: {e}"))?;
    let instance_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut state =
        SearchState::with_search(graph.clone(), spec.eval_workers, spec.config(seed).search)
            .map_err(|e| format!("search state: {e}"))?;
    let search_state_s = t.elapsed().as_secs_f64();
    let mut first_eval_s = 0.0;
    if first_eval {
        let t = Instant::now();
        state.evaluate().ok_or("start graph is disconnected")?;
        first_eval_s = t.elapsed().as_secs_f64();
    }
    Ok(Setup {
        graph,
        instance_s,
        search_state_s,
        first_eval_s,
    })
}

/// Runs the set-up `count` times (at least once) on `seed`. Returns
/// the last instance, each set-up's time, and the per-part medians.
fn timed_setups(
    spec: &Spec,
    m: u32,
    seed: u64,
    traced: bool,
    count: usize,
) -> Result<(HostSwitchGraph, Vec<f64>, [f64; 3]), String> {
    let mut parts = [Vec::new(), Vec::new(), Vec::new()];
    let mut totals = Vec::new();
    let mut graph = None;
    for _ in 0..count.max(1) {
        let s = setup(spec, m, seed, traced)?;
        totals.push(s.instance_s + s.search_state_s);
        parts[0].push(s.instance_s);
        parts[1].push(s.search_state_s);
        parts[2].push(s.first_eval_s);
        graph = Some(s.graph);
    }
    let medians = parts.map(|p| stats::median(&p));
    Ok((graph.expect("at least one set-up"), totals, medians))
}

/// How many of a run's `total` timed set-ups go before unit `i` of
/// `units` (`i == units`: after the last). A set-up takes milliseconds
/// at n = 1024, so a back-to-back batch would sample one moment of the
/// host's load; spread over the run, one burst of interference from
/// other tenants stays out of the median.
fn setups_before(i: usize, units: usize, total: usize) -> usize {
    let slots = units + 1;
    total / slots + usize::from(i < total % slots)
}

/// One untraced solve, timed around `Anneal::run`.
fn solve(spec: &Spec, seed: u64, start: HostSwitchGraph) -> Result<(SaResult, f64), String> {
    let t = Instant::now();
    let res = Anneal::builder(start)
        .config(spec.config(seed))
        .run()
        .map_err(|e| format!("anneal seed {seed}: {e}"))?;
    Ok((res, t.elapsed().as_secs_f64()))
}

/// The independent oracles every solve must pass: a from-scratch
/// re-score, Theorems 1 and 2, and the graph invariants.
fn check(spec: &Spec, seed: u64, res: &SaResult) -> Result<(), String> {
    let rescore = path_metrics(&res.graph).ok_or("best graph is disconnected")?;
    if rescore.haspl.to_bits() != res.metrics.haspl.to_bits()
        || rescore.diameter != res.metrics.diameter
        || rescore.total_length != res.metrics.total_length
    {
        return Err(format!(
            "seed {seed}: re-score {rescore:?} != reported {:?}",
            res.metrics
        ));
    }
    let (n, r) = (u64::from(spec.n), u64::from(spec.r));
    if res.metrics.haspl < haspl_lower_bound(n, r) {
        return Err(format!("seed {seed}: h-ASPL below the Theorem 2 bound"));
    }
    if res.metrics.diameter < diameter_lower_bound(n, r) {
        return Err(format!("seed {seed}: diameter below the Theorem 1 bound"));
    }
    res.graph
        .validate()
        .map_err(|e| format!("seed {seed}: invalid graph: {e}"))
}

fn gap_pct(spec: &Spec, m: u32, haspl: f64) -> f64 {
    let moore = continuous_moore_haspl(u64::from(spec.n), u64::from(m), u64::from(spec.r));
    100.0 * (haspl - moore) / moore
}

fn fingerprint(
    seed: u64,
    proposed: usize,
    accepted: usize,
    disconnected: usize,
    best: PathMetrics,
) -> Value {
    obj(vec![
        ("seed", int(seed)),
        ("proposed", int(proposed as u64)),
        ("accepted", int(accepted as u64)),
        ("disconnected", int(disconnected as u64)),
        ("haspl_bits", bits(best.haspl)),
        ("diameter", int(best.diameter)),
        ("total_length", int(best.total_length)),
    ])
}

/// Untraced run: `units` solves on seeds `seed, seed+1, …`, with the
/// timed set-ups on `seed` spread between them.
pub fn run(spec: &Spec, seed: u64, units: usize) -> Outcome {
    let mut out = Outcome::default();
    let m = spec.m();
    let mut first = None;
    for i in 0..=units {
        let count = setups_before(i, units, spec.setup_repeats);
        if count > 0 {
            match timed_setups(spec, m, seed, false, count) {
                Ok((g, totals, _)) => {
                    out.samples.entry("setup_s").or_default().extend(totals);
                    if i == 0 {
                        first = Some(g);
                    }
                }
                Err(e) => {
                    out.attempted += 1;
                    out.fail(e);
                    return out;
                }
            }
        }
        if i == units {
            break;
        }
        let s = seed + i as u64;
        out.attempted += 1;
        let start = match first.take() {
            Some(g) => Ok(g),
            None => random_general(spec.n, m, spec.r, s).map_err(|e| format!("instance: {e}")),
        };
        let (res, wall) = match start.and_then(|g| solve(spec, s, g)) {
            Ok(x) => x,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        if let Err(e) = check(spec, s, &res) {
            out.fail(e);
        }
        out.sample("work_per_s", res.proposed as f64 / wall);
        out.sample("gap_pct", gap_pct(spec, m, res.metrics.haspl));
        out.fingerprint.push(fingerprint(
            s,
            res.proposed,
            res.accepted,
            res.disconnected,
            res.metrics,
        ));
    }
    out
}

/// Wall time per replayed call category.
#[derive(Default)]
struct Timers {
    /// `SearchState::with_search`, the first `evaluate()` and the first
    /// best-graph clone: `Annealer::new`.
    init: Duration,
    /// `sample_swing` plus the second-swing candidate pick.
    sample: Duration,
    samples: u64,
    /// `begin` + `apply_swing`.
    apply: Duration,
    /// `evaluate_guarded`.
    eval: Duration,
    eval_ns: Vec<f64>,
    commit: Duration,
    rollback: Duration,
    rollbacks: u64,
    /// Best-graph clones on each new best.
    snapshot: Duration,
}

/// The annealing loop, replayed call by call.
struct Replay {
    state: SearchState,
    rng: ChaCha8Rng,
    early_reject: bool,
    cur: PathMetrics,
    best: HostSwitchGraph,
    best_metrics: PathMetrics,
    proposed: usize,
    accepted: usize,
    disconnected: usize,
    cand: Vec<u32>,
    tm: Timers,
    /// Evaluations by path: full, incremental, early-rejected.
    kinds: [u64; 3],
    affected_pct_sum: f64,
}

impl Replay {
    fn new(start: HostSwitchGraph, spec: &Spec, cfg: &SaConfig) -> Result<Self, String> {
        let mut tm = Timers::default();
        let init = Instant::now();
        let mut state = SearchState::with_search(start, spec.eval_workers, cfg.search)
            .map_err(|e| format!("search state: {e}"))?;
        state.set_pool_telemetry(true);
        let cur = state.evaluate().ok_or("start graph is disconnected")?;
        let best = state.graph().clone();
        tm.init = init.elapsed();
        Ok(Self {
            best,
            best_metrics: cur,
            cur,
            state,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            early_reject: cfg.early_reject,
            proposed: 0,
            accepted: 0,
            disconnected: 0,
            cand: Vec::new(),
            tm,
            kinds: [0; 3],
            affected_pct_sum: 0.0,
        })
    }

    fn evaluate(&mut self, t: f64) -> EvalOutcome {
        let reject_above = self
            .early_reject
            .then(|| self.cur.haspl + EARLY_REJECT_LOG * t.max(0.0));
        let t0 = Instant::now();
        let out = self.state.evaluate_guarded(reject_above);
        let dt = t0.elapsed();
        self.tm.eval += dt;
        self.tm.eval_ns.push(dt.as_nanos() as f64);
        let st = self.state.eval_stats();
        match st.last_kind {
            EvalPathKind::Full => self.kinds[0] += 1,
            EvalPathKind::Incremental => {
                self.kinds[1] += 1;
                self.affected_pct_sum +=
                    100.0 * f64::from(st.last_affected) / f64::from(st.last_sources.max(1));
            }
            EvalPathKind::EarlyRejected => self.kinds[2] += 1,
        }
        out
    }

    fn metropolis(&mut self, delta: f64, t: f64) -> bool {
        if delta <= 0.0 {
            return true;
        }
        if t <= 0.0 {
            return false;
        }
        self.rng.gen::<f64>() < (-delta / t).exp()
    }

    fn accept(&mut self, m: PathMetrics) {
        self.cur = m;
        self.accepted += 1;
        if m.haspl < self.best_metrics.haspl {
            self.best_metrics = m;
            let state = &self.state;
            self.best = timed(&mut self.tm.snapshot, || state.graph().clone());
        }
    }

    fn rollback(&mut self) {
        let state = &mut self.state;
        timed(&mut self.tm.rollback, || state.rollback());
        self.tm.rollbacks += 1;
    }

    fn apply(&mut self, s: Swing) -> Result<(), String> {
        let state = &mut self.state;
        timed(&mut self.tm.apply, || {
            state.begin();
            state.apply_swing(s).map(drop)
        })
        .map_err(|e| format!("apply {s:?}: {e}"))
    }

    /// One 2-neighbor-swing proposal (`Annealer::step_two_neighbor`).
    fn step(&mut self, t: f64, attempts: usize) -> Result<(), String> {
        let (state, rng) = (&self.state, &mut self.rng);
        let s1 = timed(&mut self.tm.sample, || {
            sample_swing(state.graph(), state.edges(), rng, attempts)
        });
        self.tm.samples += 1;
        let Some(s1) = s1 else {
            return Ok(());
        };
        self.proposed += 1;
        self.apply(s1)?;
        match self.evaluate(t) {
            EvalOutcome::Metrics(m1) => {
                if self.metropolis(m1.haspl - self.cur.haspl, t) {
                    let state = &mut self.state;
                    timed(&mut self.tm.commit, || state.commit());
                    self.accept(m1);
                    return Ok(());
                }
            }
            EvalOutcome::EarlyRejected(_) => {}
            EvalOutcome::Disconnected => self.disconnected += 1,
        }
        let (state, rng, cand) = (&self.state, &mut self.rng, &mut self.cand);
        let s2 = timed(&mut self.tm.sample, || {
            let g = state.graph();
            cand.clear();
            cand.extend(g.neighbors(s1.c).iter().copied().filter(|&d| {
                d != s1.a
                    && d != s1.b
                    && Swing {
                        a: d,
                        b: s1.c,
                        c: s1.b,
                    }
                    .is_valid(g)
            }));
            match cand.as_slice() {
                [] => None,
                cs => Some(Swing {
                    a: cs[rng.gen_range(0..cs.len())],
                    b: s1.c,
                    c: s1.b,
                }),
            }
        });
        if let Some(s2) = s2 {
            self.apply(s2)?;
            match self.evaluate(t) {
                EvalOutcome::Metrics(m2) => {
                    if self.metropolis(m2.haspl - self.cur.haspl, t) {
                        let state = &mut self.state;
                        timed(&mut self.tm.commit, || {
                            state.commit();
                            state.commit();
                        });
                        self.accept(m2);
                        return Ok(());
                    }
                }
                EvalOutcome::EarlyRejected(_) => {}
                EvalOutcome::Disconnected => self.disconnected += 1,
            }
            self.rollback();
        }
        self.rollback();
        Ok(())
    }
}

fn pool_totals(stats: &[PoolWorkerStats]) -> [u64; 4] {
    stats.iter().fold([0; 4], |acc, w| {
        [
            acc[0] + w.busy_ns,
            acc[1] + w.idle_ns,
            acc[2] + w.steals,
            acc[3] + w.steal_fails,
        ]
    })
}

/// Traced run: the timed set-ups, one untraced reference solve on
/// `seed`, and its replay.
pub fn run_traced(spec: &Spec, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let m = spec.m();
    let cfg = spec.config(seed);
    out.attempted += 1;
    let (start, _, [instance_s, search_state_s, first_eval_s]) =
        match timed_setups(spec, m, seed, true, spec.setup_repeats) {
            Ok(x) => x,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
    out.layer("setup.instance_s", instance_s);
    out.layer("setup.search_state_s", search_state_s);
    out.layer("setup.first_eval_s", first_eval_s);
    let (reference, ref_wall) = match solve(spec, seed, start.clone()) {
        Ok(x) => x,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    if let Err(e) = check(spec, seed, &reference) {
        out.fail(e);
    }
    out.fingerprint.push(fingerprint(
        seed,
        reference.proposed,
        reference.accepted,
        reference.disconnected,
        reference.metrics,
    ));

    out.attempted += 1;
    let wall = Instant::now();
    let mut rp = match Replay::new(start, spec, &cfg) {
        Ok(rp) => rp,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let stats0 = *rp.state.eval_stats();
    let pool0 = pool_totals(&rp.state.pool_stats());
    let ratio = if cfg.t0 > 0.0 && cfg.t_end > 0.0 {
        (cfg.t_end / cfg.t0).powf(1.0 / cfg.iters.max(1) as f64)
    } else {
        1.0
    };
    let mut t = cfg.t0;
    for _ in 0..cfg.iters {
        if let Err(e) = rp.step(t, cfg.sample_attempts) {
            out.fail(format!("replay seed {seed}: {e}"));
            return out;
        }
        t *= ratio;
    }
    let wall = wall.elapsed().as_secs_f64();

    let identical = rp.proposed == reference.proposed
        && rp.accepted == reference.accepted
        && rp.disconnected == reference.disconnected
        && rp.best_metrics.haspl.to_bits() == reference.metrics.haspl.to_bits()
        && rp.best_metrics.total_length == reference.metrics.total_length
        && rp.best_metrics.diameter == reference.metrics.diameter;
    out.layer("trace.replay_identical", f64::from(u8::from(identical)));
    out.layer("trace.overhead_pct", 100.0 * (wall - ref_wall) / ref_wall);
    if !identical {
        return out;
    }
    let tm = &rp.tm;
    let share = |d: Duration| 100.0 * d.as_secs_f64() / wall;
    let covered = tm.init + tm.sample + tm.apply + tm.eval + tm.commit + tm.rollback + tm.snapshot;
    out.layer("trace.coverage_pct", share(covered));
    out.layer(
        "ops.sample_ns_mean",
        tm.sample.as_nanos() as f64 / tm.samples.max(1) as f64,
    );
    out.layer("ops.sample_share_pct", share(tm.sample));
    out.layer("search.apply_share_pct", share(tm.apply));
    out.layer("search.commit_share_pct", share(tm.commit));
    out.layer("search.rollback_share_pct", share(tm.rollback));
    out.layer(
        "search.rollback_us_mean",
        tm.rollback.as_secs_f64() * 1e6 / tm.rollbacks.max(1) as f64,
    );
    out.layer("search.eval_share_pct", share(tm.eval));
    if !tm.eval_ns.is_empty() {
        out.layer(
            "search.eval_us_p50",
            stats::percentile(&tm.eval_ns, 50.0) / 1e3,
        );
        out.layer(
            "search.eval_us_p99",
            stats::percentile(&tm.eval_ns, 99.0) / 1e3,
        );
    }
    let [full, incremental, early] = rp.kinds;
    let evals = (full + incremental + early).max(1);
    out.layer("search.eval_full", full as f64);
    out.layer("search.eval_incremental", incremental as f64);
    out.layer("search.eval_early_reject", early as f64);
    out.layer("search.early_reject_ratio", early as f64 / evals as f64);
    out.layer(
        "search.affected_pct_mean",
        rp.affected_pct_sum / incremental.max(1) as f64,
    );
    let stats1 = *rp.state.eval_stats();
    out.layer(
        "search.rows_repaired",
        (stats1.repaired - stats0.repaired) as f64,
    );
    out.layer("search.rows_swept", (stats1.swept - stats0.swept) as f64);
    out.layer("anneal.best_snapshot_share_pct", share(tm.snapshot));
    out.layer(
        "anneal.accept_ratio",
        rp.accepted as f64 / rp.proposed.max(1) as f64,
    );
    out.layer("anneal.disconnected", rp.disconnected as f64);
    let pool1 = pool_totals(&rp.state.pool_stats());
    let [busy, idle, steals, fails] = [0, 1, 2, 3].map(|i| pool1[i] - pool0[i]);
    // share of the evaluation window each worker spent running tasks
    // and spinning inside jobs; 0 without a pool (one worker)
    let lane_ns = (tm.eval.as_nanos() as f64 * spec.eval_workers as f64).max(1.0);
    let has_pool = spec.eval_workers > 1;
    out.layer(
        "pool.busy_pct",
        if has_pool {
            100.0 * busy as f64 / lane_ns
        } else {
            0.0
        },
    );
    out.layer(
        "pool.idle_pct",
        if has_pool {
            100.0 * idle as f64 / lane_ns
        } else {
            0.0
        },
    );
    out.layer("pool.steals", steals as f64);
    out.layer(
        "pool.steal_fail_ratio",
        fails as f64 / (steals + fails).max(1) as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_spread_over_every_slot() {
        // 15 set-ups around 2 units: 5 before each and 5 after the last
        let split: Vec<usize> = (0..=2).map(|i| setups_before(i, 2, 15)).collect();
        assert_eq!(split, [5, 5, 5]);
        // fewer set-ups than slots: the earliest slots get one each
        let split: Vec<usize> = (0..=5).map(|i| setups_before(i, 5, 3)).collect();
        assert_eq!(split, [1, 1, 1, 0, 0, 0]);
        assert_eq!((0..=3).map(|i| setups_before(i, 3, 5)).sum::<usize>(), 5);
    }
}
