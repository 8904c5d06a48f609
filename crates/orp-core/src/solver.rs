//! The unified end-to-end ORP solver (§5.3), builder style.
//!
//! [`Solver::builder`] is the one solve surface, consistent with
//! [`crate::anneal::Anneal`] and [`crate::temper::Temper`]: pick `m = m_opt` from the continuous
//! Moore bound, then run either independently seeded restarts of the
//! annealer or a parallel-tempering ensemble (when
//! [`Solver::replicas`] `> 1`), with per-restart checkpoints, resume,
//! stall watchdogs and panic isolation.
//!
//! ```
//! use orp_core::solver::Solver;
//! use orp_core::anneal::SaConfig;
//!
//! let report = Solver::builder(64, 10)
//!     .config(SaConfig::builder().iters(300).seed(1).build())
//!     .run()
//!     .unwrap();
//! assert_eq!(report.result.graph.num_switches(), report.m_opt);
//! ```

use crate::anneal::{
    restart_ckpt_path, Anneal, MoveKind, SaConfig, SaResult, DEFAULT_CHECKPOINT_EVERY,
};
use crate::bounds::{check_instance, optimal_switch_count};
use crate::construct::random_general;
use crate::error::{GraphError, SaError, WorkerPanic};
use crate::search::SearchConfig;
use crate::temper::{geometric_ladder, ExchangeStats, Temper};
use crate::watchdog::WatchSource;
use orp_obs::{Recorder, StreamSink};
use std::path::PathBuf;
use std::time::Duration;

/// Outcome of a [`Solver`] run that survived at least one restart.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Best result over the restarts (and replicas) that completed.
    pub result: SaResult,
    /// The predicted optimal switch count the search annealed with.
    pub m_opt: u32,
    /// Restarts that ran to completion.
    pub completed: usize,
    /// Restarts that panicked, with per-worker diagnostics; a crashed
    /// sibling never poisons the surviving results.
    pub panics: Vec<WorkerPanic>,
    /// Restarts that returned a structured error (e.g. stalled), with
    /// their indices.
    pub errors: Vec<(usize, SaError)>,
    /// Replica-exchange counters summed over the completed restarts;
    /// `None` for plain (single-replica) solves.
    pub exchanges: Option<ExchangeStats>,
}

/// Builder for the end-to-end solve; see the module docs.
#[derive(Debug, Clone)]
pub struct Solver {
    n: u32,
    r: u32,
    kind: MoveKind,
    cfg: SaConfig,
    restarts: usize,
    replicas: usize,
    ladder: Vec<f64>,
    exchange_every: usize,
    rec: Recorder,
    ckpt: Option<PathBuf>,
    ckpt_every: usize,
    resume: bool,
    watchdog: Option<Duration>,
    stream: Option<StreamSink>,
}

impl Solver {
    /// Starts a builder solving the ORP instance `(n, r)` with the
    /// defaults: one restart, one replica (plain annealing), the
    /// 2-neighbor swing neighbourhood and [`SaConfig::default`].
    pub fn builder(n: u32, r: u32) -> Self {
        Self {
            n,
            r,
            kind: MoveKind::TwoNeighborSwing,
            cfg: SaConfig::default(),
            restarts: 1,
            replicas: 1,
            ladder: Vec::new(),
            exchange_every: 1000,
            rec: Recorder::disabled(),
            ckpt: None,
            ckpt_every: DEFAULT_CHECKPOINT_EVERY,
            resume: false,
            watchdog: None,
            stream: None,
        }
    }

    /// Which neighbourhood to explore (default 2-neighbor swing, the
    /// paper's §5.2 operation for general graphs).
    pub fn kind(mut self, kind: MoveKind) -> Self {
        self.kind = kind;
        self
    }

    /// Schedule and bookkeeping knobs.
    pub fn config(mut self, cfg: SaConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Distance-cache memory budget of the evaluation engine; a
    /// shorthand for setting [`SaConfig::search`] after
    /// [`Solver::config`].
    pub fn search(mut self, search: SearchConfig) -> Self {
        self.cfg.search = search;
        self
    }

    /// Independently seeded restarts on parallel OS threads (minimum
    /// 1). Restart `i` offsets the base seed by `i × replicas`, so
    /// the single-restart single-replica case reproduces a plain
    /// [`Anneal`] run with the base seed exactly.
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Parallel-tempering replicas per restart (minimum 1). With more
    /// than one replica each restart runs a [`Temper`] ensemble over
    /// the temperature ladder instead of a single annealer.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Explicit temperature ladder for the tempering path; when unset,
    /// a [`geometric_ladder`] with [`Solver::replicas`] rungs from
    /// `cfg.t0` down to `cfg.t_end` is used.
    pub fn ladder(mut self, ladder: Vec<f64>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Iterations between replica-exchange attempts (tempering path
    /// only; minimum 1).
    pub fn exchange_every(mut self, every: usize) -> Self {
        self.exchange_every = every.max(1);
        self
    }

    /// Attaches a telemetry recorder.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Per-restart checkpoint prefix: restart `i` checkpoints to
    /// `<prefix>.r<i>` (see [`restart_ckpt_path`]), so one crashed
    /// worker never loses its siblings' progress. Tempering restarts
    /// write ensemble checkpoints (kind TEMPER) to the same paths.
    pub fn checkpoint(mut self, prefix: impl Into<PathBuf>) -> Self {
        self.ckpt = Some(prefix.into());
        self
    }

    /// Checkpoint stride in iterations (default
    /// [`DEFAULT_CHECKPOINT_EVERY`]). The tempering path rounds this
    /// up to whole exchange rounds.
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.ckpt_every = every;
        self
    }

    /// Resume each restart whose checkpoint file already exists;
    /// restarts without one start fresh.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// Arms a per-restart stall watchdog with this window.
    pub fn watchdog(mut self, window: Duration) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Attaches a live metrics stream. Restart 0 carries it — one
    /// restart keeps the JSONL gauge names collision-free while still
    /// showing a representative live view of the solve (all restarts
    /// run the same schedule; shared counters still aggregate across
    /// the whole solve through the recorder). No-op unless a recorder
    /// is also attached.
    pub fn stream(mut self, sink: StreamSink) -> Self {
        self.stream = Some(sink);
        self
    }

    /// Runs the solve. Fails with [`GraphError::InvalidParameters`] on
    /// fewer than two hosts or a radix below 3, and otherwise only when
    /// *no* restart completes: with the first structured error if one
    /// exists, else [`SaError::AllWorkersPanicked`].
    pub fn run(self) -> Result<SolveReport, SaError> {
        check_instance(self.n as u64, self.r as u64)?;
        let (m_opt, _) = optimal_switch_count(self.n as u64, self.r as u64);
        let m_opt = m_opt as u32;
        let restarts = self.restarts;
        // Split the machine across the restarts instead of pinning
        // every inner eval to one core: with `restarts < cores` the
        // leftover cores feed each restart's persistent eval pool. An
        // explicit `eval_workers` in the config wins over the split.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let per_restart = self
            .cfg
            .eval_workers
            .map(|w| w.max(1))
            .unwrap_or_else(|| (cores / restarts).max(1));
        let this = &self;
        let outcomes = scoped_restarts(
            restarts,
            |i| -> Result<(SaResult, ExchangeStats), SaError> {
                let mut c = this.cfg.clone();
                // Stride the restart seeds by the replica count so no two
                // annealers anywhere in the solve share an RNG stream
                // (tempering offsets replica `k` by `+k` within a restart).
                c.seed = this.cfg.seed.wrapping_add((i * this.replicas) as u64);
                c.eval_workers = Some(per_restart);
                let start = random_general(this.n, m_opt, this.r, c.seed)?;
                let ckpt_path = this.ckpt.as_ref().map(|p| restart_ckpt_path(p, i));
                let stream = (i == 0).then(|| this.stream.clone()).flatten();
                if this.replicas > 1 {
                    let mut b = Temper::builder(start)
                        .kind(this.kind)
                        .config(c)
                        .exchange_every(this.exchange_every)
                        .recorder(this.rec.clone());
                    if let Some(sink) = stream {
                        b = b.stream(sink);
                    }
                    if !this.ladder.is_empty() {
                        b = b.ladder(this.ladder.clone());
                    } else {
                        b = b.ladder(geometric_ladder(
                            this.cfg.t0,
                            this.cfg.t_end.max(1e-12),
                            this.replicas,
                        ));
                    }
                    if let Some(path) = &ckpt_path {
                        if this.resume && path.exists() {
                            b = b.resume_from(path);
                        }
                        b = b.checkpoint(path);
                        if this.ckpt_every > 0 {
                            b = b.checkpoint_every_rounds(
                                this.ckpt_every.div_ceil(this.exchange_every).max(1),
                            );
                        } else {
                            b = b.checkpoint_every_rounds(0);
                        }
                    }
                    if let Some(window) = this.watchdog {
                        b = b.watchdog(window).watchdog_label(i as u32);
                    }
                    let res = b.run()?;
                    let best = res.best;
                    Ok((
                        res.results.into_iter().nth(best).expect("best index"),
                        res.exchanges,
                    ))
                } else {
                    let mut b = Anneal::builder(start)
                        .kind(this.kind)
                        .config(c)
                        .recorder(this.rec.clone());
                    if let Some(sink) = stream {
                        b = b.stream(sink);
                    }
                    if let Some(path) = &ckpt_path {
                        if this.resume && path.exists() {
                            b = b.resume_from(path);
                        }
                        b = b.checkpoint(path);
                        if this.ckpt_every > 0 {
                            b = b.checkpoint_every(this.ckpt_every);
                        }
                    }
                    if let Some(window) = this.watchdog {
                        b = b
                            .watchdog(window)
                            .watchdog_label(WatchSource::Restart, i as u32);
                    }
                    Ok((b.run()?, ExchangeStats::default()))
                }
            },
        );
        let mut best: Option<SaResult> = None;
        let mut completed = 0usize;
        let mut panics = Vec::new();
        let mut errors = Vec::new();
        let mut exchanges = ExchangeStats::default();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(Ok((res, ex))) => {
                    completed += 1;
                    exchanges.attempted += ex.attempted;
                    exchanges.accepted += ex.accepted;
                    if best
                        .as_ref()
                        .map(|b| res.metrics.haspl < b.metrics.haspl)
                        .unwrap_or(true)
                    {
                        best = Some(res);
                    }
                }
                Ok(Err(e)) => errors.push((i, e)),
                Err(message) => panics.push(WorkerPanic {
                    restart: i,
                    seed: self.cfg.seed.wrapping_add((i * self.replicas) as u64),
                    message,
                }),
            }
        }
        match best {
            Some(result) => Ok(SolveReport {
                result,
                m_opt,
                completed,
                panics,
                errors,
                exchanges: (self.replicas > 1).then_some(exchanges),
            }),
            None => match errors.into_iter().next() {
                Some((_, e)) => Err(e),
                None if !panics.is_empty() => Err(SaError::AllWorkersPanicked(panics)),
                None => Err(SaError::Graph(GraphError::ConstructionFailed(
                    "no restarts ran".into(),
                ))),
            },
        }
    }
}

/// Runs `restarts` closures on parallel scoped threads, capturing
/// panics instead of propagating them. Returns one entry per restart:
/// the closure's result, or `Err(message)` if it panicked.
pub(crate) fn scoped_restarts<T, F>(restarts: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..restarts).map(|i| scope.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().map_err(|p| {
                    p.downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into())
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::haspl_lower_bound;

    fn small_cfg(iters: usize) -> SaConfig {
        SaConfig {
            iters,
            t0: 0.02,
            t_end: 1e-4,
            seed: 7,
            ..SaConfig::default()
        }
    }

    #[test]
    fn solver_uses_m_opt_and_respects_bounds() {
        let report = Solver::builder(64, 10)
            .config(small_cfg(300))
            .run()
            .unwrap();
        assert_eq!(report.result.graph.num_switches(), report.m_opt);
        assert_eq!(report.result.graph.num_hosts(), 64);
        report.result.graph.validate().unwrap();
        assert_eq!(report.completed, 1);
        assert!(report.exchanges.is_none());
        let lb = haspl_lower_bound(64, 10);
        assert!(report.result.metrics.haspl >= lb - 1e-9);
        // should come reasonably close to the bound on such a small case
        assert!(
            report.result.metrics.haspl <= lb + 1.5,
            "{} vs {lb}",
            report.result.metrics.haspl
        );
    }

    #[test]
    fn degenerate_instances_are_structured_errors() {
        for (n, r) in [(16, 2), (1, 4), (0, 0)] {
            let err = Solver::builder(n, r)
                .config(small_cfg(10))
                .run()
                .unwrap_err();
            assert!(
                matches!(err, SaError::Graph(GraphError::InvalidParameters(_))),
                "({n}, {r}): {err:?}"
            );
        }
    }

    #[test]
    fn single_restart_matches_plain_anneal() {
        // The builder with defaults reproduces a plain 2-neighbor-swing
        // anneal at `m_opt` bit-for-bit.
        let cfg = small_cfg(300);
        let report = Solver::builder(64, 10).config(cfg.clone()).run().unwrap();
        let (m_opt, _) = optimal_switch_count(64, 10);
        let start = random_general(64, m_opt as u32, 10, cfg.seed).unwrap();
        let plain = crate::anneal::anneal(start, MoveKind::TwoNeighborSwing, &cfg).unwrap();
        assert_eq!(report.result.graph, plain.graph);
        assert_eq!(report.result.metrics, plain.metrics);
    }

    #[test]
    fn multi_restart_takes_the_best() {
        let cfg = small_cfg(300);
        let single = Solver::builder(64, 10).config(cfg.clone()).run().unwrap();
        let multi = Solver::builder(64, 10)
            .config(cfg)
            .restarts(4)
            .run()
            .unwrap();
        assert_eq!(multi.completed, 4);
        assert!(multi.result.metrics.haspl <= single.result.metrics.haspl + 1e-12);
    }

    #[test]
    fn tempering_solve_reports_exchanges() {
        let report = Solver::builder(64, 10)
            .config(small_cfg(400))
            .replicas(3)
            .exchange_every(50)
            .run()
            .unwrap();
        assert_eq!(report.completed, 1);
        let ex = report.exchanges.expect("tempering stats");
        assert!(ex.attempted > 0);
        report.result.graph.validate().unwrap();
        assert!(report.result.metrics.haspl >= haspl_lower_bound(64, 10) - 1e-9);
    }

    #[test]
    fn solver_is_reproducible() {
        let run = || {
            Solver::builder(64, 10)
                .config(small_cfg(300))
                .replicas(2)
                .exchange_every(60)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.result.graph, b.result.graph);
        assert_eq!(a.result.metrics, b.result.metrics);
        assert_eq!(a.exchanges, b.exchanges);
    }

    #[test]
    fn checkpointed_solver_resumes_to_the_same_answer() {
        let dir = std::env::temp_dir().join(format!("orp_solver_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("solve.ckpt");
        let cfg = small_cfg(300);
        let run = |resume| {
            Solver::builder(64, 10)
                .config(cfg.clone())
                .restarts(2)
                .checkpoint(&prefix)
                .checkpoint_every(100)
                .resume(resume)
                .run()
                .unwrap()
        };
        let report = run(false);
        assert_eq!(report.completed, 2);
        assert!(report.panics.is_empty() && report.errors.is_empty());
        assert!(restart_ckpt_path(&prefix, 0).exists());
        assert!(restart_ckpt_path(&prefix, 1).exists());
        // Plain multi-restart must agree with the checkpointed one.
        let plain = Solver::builder(64, 10)
            .config(cfg.clone())
            .restarts(2)
            .run()
            .unwrap();
        assert_eq!(plain.m_opt, report.m_opt);
        assert_eq!(plain.result.graph, report.result.graph);
        assert_eq!(plain.result.metrics, report.result.metrics);
        // Resuming from the completed checkpoints lands on the same
        // answer immediately.
        let resumed = run(true);
        assert_eq!(resumed.result.graph, report.result.graph);
        assert_eq!(resumed.result.metrics, report.result.metrics);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scoped_restarts_captures_panics() {
        let out = scoped_restarts(3, |i| {
            if i == 1 {
                panic!("boom {i}");
            }
            i * 10
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1], Err("boom 1".to_string()));
        assert_eq!(out[2], Ok(20));
    }
}
