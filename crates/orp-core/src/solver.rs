//! The end-to-end ORP solve of §5.3, builder style: the one
//! (n, r) → topology entry point.
//!
//! [`Solver::builder`] picks `m = m_opt` from the continuous Moore bound
//! (or the count fixed by [`Solver::switches`]), builds a random start
//! graph that suits the move kind — [`random_regular`] for the swap of
//! §5.1, [`random_general`] otherwise — and runs one [`Anneal`].
//! Checkpoints go to the given path itself.
//! A resume skips the start graph and continues from the checkpoint's
//! graph, which must hold the solve's `(n, m, r)`. The stall watchdog
//! and a live metrics stream pass straight through to the engine. A
//! panic inside the solve reaches the caller, as it does from the
//! engines.
//!
//! ```
//! use orp_core::solver::Solver;
//! use orp_core::anneal::SaConfig;
//!
//! let report = Solver::builder(64, 10)
//!     .config(SaConfig::builder().iters(300).seed(1).build())
//!     .run()
//!     .unwrap();
//! assert_eq!(report.result.graph.num_switches(), report.m);
//! ```

use crate::anneal::{Anneal, MoveKind, SaConfig, SaResult, DEFAULT_CHECKPOINT_EVERY};
use crate::bounds::{check_instance, optimal_switch_count};
use crate::construct::{random_general, random_regular};
use crate::error::SaError;
use crate::watchdog::WatchdogConfig;
use orp_obs::{Recorder, StreamSink};
use std::path::PathBuf;

/// Outcome of a [`Solver`] run.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The annealer's result.
    pub result: SaResult,
    /// The switch count the solve annealed: `m_opt` from the continuous
    /// Moore bound unless [`Solver::switches`] fixed it.
    pub m: u32,
}

/// Builder for the end-to-end solve; see the module docs.
#[derive(Debug, Clone)]
pub struct Solver {
    n: u32,
    r: u32,
    kind: MoveKind,
    cfg: SaConfig,
    switches: Option<u32>,
    rec: Recorder,
    ckpt: Option<PathBuf>,
    ckpt_every: usize,
    resume: bool,
    watchdog: Option<WatchdogConfig>,
    stream: Option<StreamSink>,
}

impl Solver {
    /// Starts a builder solving the ORP instance `(n, r)` with the
    /// defaults: `m_opt` switches, the 2-neighbor swing neighbourhood
    /// and [`SaConfig::default`].
    pub fn builder(n: u32, r: u32) -> Self {
        Self {
            n,
            r,
            kind: MoveKind::TwoNeighborSwing,
            cfg: SaConfig::default(),
            switches: None,
            rec: Recorder::disabled(),
            ckpt: None,
            ckpt_every: DEFAULT_CHECKPOINT_EVERY,
            resume: false,
            watchdog: None,
            stream: None,
        }
    }

    /// Which neighbourhood to explore (default 2-neighbor swing, the
    /// paper's §5.2 operation for general graphs). It also picks the
    /// start graph: the swap preserves host counts, so it starts from a
    /// regular graph, which needs `m | n`.
    pub fn kind(mut self, kind: MoveKind) -> Self {
        self.kind = kind;
        self
    }

    /// Schedule and bookkeeping knobs, including the distance-cache
    /// memory budget ([`SaConfig::search`]).
    pub fn config(mut self, cfg: SaConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Anneals with exactly `m` switches instead of `m_opt` — the sweeps
    /// of Figs. 5 and 8.
    pub fn switches(mut self, m: u32) -> Self {
        self.switches = Some(m);
        self
    }

    /// Attaches a telemetry recorder.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Checkpoints crash-safely to `path` (kind ANNEAL).
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.ckpt = Some(path.into());
        self
    }

    /// Checkpoint stride in iterations (default
    /// [`DEFAULT_CHECKPOINT_EVERY`]). 0 writes neither periodic nor
    /// final saves; a stall still force-checkpoints.
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.ckpt_every = every;
        self
    }

    /// Resumes from the [`Solver::checkpoint`] file when it exists; a
    /// missing file starts fresh. A resume builds no start graph: it
    /// continues from the checkpoint's, which must hold this solve's
    /// hosts, switch count and radix ([`SaError::InstanceMismatch`]
    /// otherwise).
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// Arms the stall watchdog (see [`WatchdogConfig`]).
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Attaches a live metrics stream; no-op unless a recorder is also
    /// attached.
    pub fn stream(mut self, sink: StreamSink) -> Self {
        self.stream = Some(sink);
        self
    }

    /// Runs the solve. Fails with [`GraphError::InvalidParameters`] on
    /// fewer than two hosts or a radix below 3, with the start graph
    /// constructor's error when the switch count does not fit a fresh
    /// run (a swap solve needs `m | n`), and otherwise with the
    /// engine's error.
    ///
    /// [`GraphError::InvalidParameters`]: crate::error::GraphError::InvalidParameters
    pub fn run(self) -> Result<SolveReport, SaError> {
        check_instance(self.n.into(), self.r.into())?;
        let m = self
            .switches
            .unwrap_or_else(|| optimal_switch_count(self.n.into(), self.r.into()).0 as u32);
        // A resume continues from the checkpoint's graph, so only a fresh
        // run builds a start graph.
        let resume_from = self.ckpt.clone().filter(|p| self.resume && p.exists());
        let b = match resume_from {
            Some(path) => Anneal::resuming(path, (self.n, m, self.r)),
            None => Anneal::builder(match self.kind {
                MoveKind::Swap => random_regular(self.n, m, self.r, self.cfg.seed)?,
                MoveKind::Swing | MoveKind::TwoNeighborSwing => {
                    random_general(self.n, m, self.r, self.cfg.seed)?
                }
            }),
        };
        let mut b = b
            .kind(self.kind)
            .config(self.cfg)
            .recorder(self.rec)
            .checkpoint_every(self.ckpt_every);
        if let Some(path) = self.ckpt {
            b = b.checkpoint(path);
        }
        if let Some(wd) = self.watchdog {
            b = b.watchdog(wd);
        }
        if let Some(sink) = self.stream {
            b = b.stream(sink);
        }
        Ok(SolveReport {
            result: b.run()?,
            m,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::haspl_lower_bound;
    use crate::ckpt::{write_checkpoint, CkptError, KIND_ANNEAL, KIND_TEMPER_RETIRED};
    use crate::error::GraphError;

    fn small_cfg(iters: usize) -> SaConfig {
        SaConfig {
            iters,
            t0: 0.02,
            t_end: 1e-4,
            seed: 7,
            history_stride: 50,
            ..SaConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orp_solver_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_same(a: &SaResult, b: &SaResult, what: &str) {
        assert_eq!(a.graph, b.graph, "{what}");
        assert_eq!(
            a.metrics.haspl.to_bits(),
            b.metrics.haspl.to_bits(),
            "{what}"
        );
        assert_eq!(a.metrics, b.metrics, "{what}");
        assert_eq!(
            (a.proposed, a.accepted, a.disconnected),
            (b.proposed, b.accepted, b.disconnected),
            "{what}"
        );
        assert_eq!(a.history, b.history, "{what}");
    }

    #[test]
    fn solver_uses_m_opt_and_respects_bounds() {
        let report = Solver::builder(64, 10)
            .config(small_cfg(300))
            .run()
            .unwrap();
        let (m_opt, _) = optimal_switch_count(64, 10);
        assert_eq!(report.m as u64, m_opt);
        assert_eq!(report.result.graph.num_switches(), report.m);
        assert_eq!(report.result.graph.num_hosts(), 64);
        report.result.graph.validate().unwrap();
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

    /// `Solver` is a thin pipeline over the engine: every row runs the
    /// annealer by hand on the start graph the solve picks (constructor
    /// by move kind, same seed) and must match it bit for bit.
    #[test]
    fn solver_reproduces_the_engine_it_wraps() {
        let (n, r) = (64u32, 10u32);
        let cfg = small_cfg(300);
        let m_opt = optimal_switch_count(n.into(), r.into()).0 as u32;
        assert_ne!(m_opt, 20);
        // (move kind, fixed switch count)
        let rows = [
            (MoveKind::Swap, Some(16)),
            (MoveKind::Swing, Some(20)),
            (MoveKind::TwoNeighborSwing, None),
        ];
        for (kind, switches) in rows {
            let what = format!("{kind:?} m={switches:?}");
            let mut solver = Solver::builder(n, r).kind(kind).config(cfg.clone());
            if let Some(m) = switches {
                solver = solver.switches(m);
            }
            let report = solver.run().unwrap();
            let m = switches.unwrap_or(m_opt);
            assert_eq!(report.m, m, "{what}");
            let start = match kind {
                MoveKind::Swap => random_regular(n, m, r, cfg.seed).unwrap(),
                _ => random_general(n, m, r, cfg.seed).unwrap(),
            };
            let plain = Anneal::builder(start)
                .kind(kind)
                .config(cfg.clone())
                .run()
                .unwrap();
            assert_same(&report.result, &plain, &what);
        }
        // A swap solve at an m that does not divide n fails with the
        // regular constructor's own error (Fig. 5 prints "-" there).
        let err = Solver::builder(n, r)
            .kind(MoveKind::Swap)
            .switches(m_opt)
            .config(cfg.clone())
            .run()
            .unwrap_err();
        assert_ne!(n % m_opt, 0);
        let expected = random_regular(n, m_opt, r, cfg.seed).unwrap_err();
        assert_eq!(err, SaError::Graph(expected));
    }

    #[test]
    fn solver_is_reproducible() {
        let run = || {
            Solver::builder(64, 10)
                .config(small_cfg(300))
                .run()
                .unwrap()
        };
        assert_same(&run().result, &run().result, "rerun");
    }

    #[test]
    fn checkpointed_solver_resumes_to_the_same_answer() {
        let dir = temp_dir("resume");
        let path = dir.join("solve.ckpt");
        let cfg = small_cfg(300);
        let run = |resume| {
            Solver::builder(64, 10)
                .config(cfg.clone())
                .checkpoint(&path)
                .checkpoint_every(100)
                .resume(resume)
                .run()
                .unwrap()
        };
        let report = run(false);
        assert!(path.exists());
        // Checkpointing must not perturb the solve.
        let plain = Solver::builder(64, 10).config(cfg.clone()).run().unwrap();
        assert_eq!(plain.m, report.m);
        assert_same(&plain.result, &report.result, "plain vs checkpointed");
        // Resuming from the completion snapshot lands on the same answer
        // immediately.
        let resumed = run(true);
        assert_same(&resumed.result, &report.result, "resumed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a `(64, 10)` checkpoint, then resumes it as another
    /// instance — more hosts, one more switch, a larger radix — and as
    /// itself. Only the last may run, and it lands on the written answer.
    #[test]
    fn resume_refuses_a_checkpoint_of_another_instance() {
        let dir = temp_dir("instance");
        let path = dir.join("solve.ckpt");
        let solve = |n: u32, r: u32, switches: Option<u32>| {
            let mut s = Solver::builder(n, r)
                .config(small_cfg(300))
                .checkpoint(&path)
                .resume(true);
            if let Some(m) = switches {
                s = s.switches(m);
            }
            s.run()
        };
        let written = solve(64, 10, None).unwrap();
        let m = written.m;
        let m_128 = optimal_switch_count(128, 10).0 as u32;
        for (n, r, switches, expected) in [
            (128, 10, None, (128, m_128, 10)),
            (64, 10, Some(m + 1), (64, m + 1, 10)),
            (64, 12, Some(m), (64, m, 12)),
        ] {
            let err = solve(n, r, switches).unwrap_err();
            assert_eq!(
                err,
                SaError::InstanceMismatch {
                    expected,
                    found: (64, m, 10),
                }
            );
        }
        let resumed = solve(64, 10, None).unwrap();
        assert_same(&resumed.result, &written.result, "same instance");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A parallel-tempering checkpoint (kind 3, written by older builds)
    /// is refused by kind before any payload is read.
    #[test]
    fn resume_refuses_a_retired_tempering_checkpoint() {
        let dir = temp_dir("retired_kind");
        let path = dir.join("solve.ckpt");
        write_checkpoint(&path, KIND_TEMPER_RETIRED, &[0; 16]).unwrap();
        let err = Solver::builder(64, 10)
            .config(small_cfg(300))
            .checkpoint(&path)
            .resume(true)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SaError::Ckpt(CkptError::WrongKind {
                found: KIND_TEMPER_RETIRED,
                expected: KIND_ANNEAL,
            })
        );
        assert_eq!(
            err.to_string(),
            "wrong checkpoint kind: the file is a parallel-tempering checkpoint (kind 3, no \
             longer resumed), but an annealer checkpoint (kind 1) was requested"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The checkpoint is the given path itself, and a stride of 0 writes
    /// no file at all.
    #[test]
    fn checkpoint_stride_zero_writes_nothing() {
        for every in [0, 100] {
            let dir = temp_dir(&format!("stride_{every}"));
            Solver::builder(64, 10)
                .config(small_cfg(300))
                .checkpoint(dir.join("solve.ckpt"))
                .checkpoint_every(every)
                .run()
                .unwrap();
            let mut files: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            files.sort();
            let expected: &[&str] = if every == 0 { &[] } else { &["solve.ckpt"] };
            assert_eq!(files, expected, "every {every}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
