//! Randomized search for ORP (Section 5): simulated annealing with the
//! swap operation (restricted to regular host-switch graphs, §5.1) and
//! with the 2-neighbor swing operation (arbitrary host-switch graphs,
//! §5.2). [`Anneal`] anneals a given start graph; the end-to-end
//! pipeline of §5.3, which first predicts `m_opt` from the continuous
//! Moore bound and builds the start graph, is [`crate::solver::Solver`].

use crate::ckpt::{self, CkptError, Decoder, Encoder};
use crate::error::{GraphError, SaError};
use crate::graph::HostSwitchGraph;
use crate::metrics::PathMetrics;
use crate::ops::{sample_swap, sample_swing, Swing};
use crate::search::{
    resolve_parallel_eval, EvalOutcome, EvalPathKind, SearchConfig, SearchState, EARLY_REJECT_LOG,
};
use crate::watchdog::{ProgressHandle, Watchdog, WatchdogConfig};
use orp_obs::{Event, Recorder, StreamSink};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::{ChaCha8Rng, CHACHA_STATE_WORDS};
use std::path::{Path, PathBuf};

/// Default checkpoint stride for [`Anneal::checkpoint`]: a save every
/// this many iterations keeps the measured overhead well under 2% of
/// wall time (see `results/BENCH_ckpt_overhead.json`) while bounding
/// lost work on a kill.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 5000;

/// Which neighbourhood the annealer explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Swap only (Fig. 2) — preserves the host distribution, so a regular
    /// initial graph stays regular.
    Swap,
    /// Plain swing only (Fig. 3) — ablation; the paper argues this alone
    /// is insufficient because it always changes host-switch edges.
    Swing,
    /// The 2-neighbor swing of §5.2 (Fig. 4): try a swing; if rejected,
    /// try the follow-up swing whose net effect is a swap.
    TwoNeighborSwing,
}

impl MoveKind {
    fn code(self) -> u8 {
        match self {
            Self::Swap => 0,
            Self::Swing => 1,
            Self::TwoNeighborSwing => 2,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Self::Swap),
            1 => Some(Self::Swing),
            2 => Some(Self::TwoNeighborSwing),
            _ => None,
        }
    }
}

/// Annealing schedule and bookkeeping knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// Number of proposed moves.
    pub iters: usize,
    /// Initial temperature (h-ASPL units).
    pub t0: f64,
    /// Final temperature. Set `t0 = t_end = 0` for pure hill climbing.
    pub t_end: f64,
    /// RNG seed; identical seeds reproduce identical runs.
    pub seed: u64,
    /// Retries when sampling a valid move.
    pub sample_attempts: usize,
    /// Record `(iteration, best h-ASPL)` every this many iterations
    /// (0 = no history).
    pub history_stride: usize,
    /// Evaluation worker-thread count. `None` (the default) picks
    /// [`crate::search::resolve_parallel_eval`]: every CPU when the
    /// instance has at least [`crate::search::PARALLEL_SWITCH_THRESHOLD`]
    /// switches and more than one CPU is available, else 1. `Some(w)`
    /// pins the persistent pool to `w` workers (clamped to `1..=m`).
    /// Results are bit-identical for every worker count.
    pub eval_workers: Option<usize>,
    /// Enables the Δh-ASPL lower-bound early reject: a proposal the
    /// distance cache can prove is uphill by more than
    /// [`crate::search::EARLY_REJECT_LOG`]` × t` (acceptance probability
    /// below `exp(−40)`) is rejected without running any BFS. On by
    /// default. The skipped Metropolis draw advances the RNG stream
    /// differently, so toggling this changes trajectories (each setting
    /// remains fully seed-reproducible).
    pub early_reject: bool,
    /// Distance-cache memory budget of the evaluation engine. Every
    /// evaluation is bit-identical with and without the cache, but only
    /// a cached engine can early-reject, and an early reject skips the
    /// Metropolis draw. So a run whose budget turns the cache off
    /// follows the cached trajectory only until the guard first fires;
    /// from there the RNG streams part. The budget is exempt from the
    /// checkpoint config echo and may differ on resume, under the same
    /// caveat.
    pub search: SearchConfig,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            iters: 20_000,
            t0: 0.01,
            t_end: 1e-6,
            seed: 1,
            sample_attempts: 32,
            history_stride: 0,
            eval_workers: None,
            early_reject: true,
            search: SearchConfig::default(),
        }
    }
}

impl SaConfig {
    /// Convenience: hill climbing (zero temperature throughout).
    pub fn hill_climb(iters: usize, seed: u64) -> Self {
        Self {
            iters,
            t0: 0.0,
            t_end: 0.0,
            seed,
            ..Self::default()
        }
    }

    /// Starts a typed builder pre-loaded with the defaults.
    pub fn builder() -> SaConfigBuilder {
        SaConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Typed builder for [`SaConfig`]; obtain via [`SaConfig::builder`].
///
/// ```
/// use orp_core::anneal::SaConfig;
/// let cfg = SaConfig::builder().iters(500).seed(7).build();
/// assert_eq!(cfg.iters, 500);
/// ```
#[derive(Debug, Clone)]
pub struct SaConfigBuilder {
    cfg: SaConfig,
}

impl SaConfigBuilder {
    /// Number of proposed moves.
    pub fn iters(mut self, iters: usize) -> Self {
        self.cfg.iters = iters;
        self
    }

    /// Initial temperature (h-ASPL units).
    pub fn t0(mut self, t0: f64) -> Self {
        self.cfg.t0 = t0;
        self
    }

    /// Final temperature.
    pub fn t_end(mut self, t_end: f64) -> Self {
        self.cfg.t_end = t_end;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Retries when sampling a valid move.
    pub fn sample_attempts(mut self, attempts: usize) -> Self {
        self.cfg.sample_attempts = attempts;
        self
    }

    /// Best-so-far history stride (0 = no history).
    pub fn history_stride(mut self, stride: usize) -> Self {
        self.cfg.history_stride = stride;
        self
    }

    /// Pins the evaluation pool to an exact worker count.
    pub fn eval_workers(mut self, workers: usize) -> Self {
        self.cfg.eval_workers = Some(workers);
        self
    }

    /// Enables or disables the lower-bound early reject.
    pub fn early_reject(mut self, on: bool) -> Self {
        self.cfg.early_reject = on;
        self
    }

    /// Distance-cache memory budget of the evaluation engine.
    pub fn search(mut self, search: SearchConfig) -> Self {
        self.cfg.search = search;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SaConfig {
        self.cfg
    }
}

/// Outcome of an annealing run.
#[derive(Debug, Clone)]
pub struct SaResult {
    /// Best graph found.
    pub graph: HostSwitchGraph,
    /// Its metrics.
    pub metrics: PathMetrics,
    /// Moves proposed.
    pub proposed: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// Moves reverted because they disconnected some host pair.
    pub disconnected: usize,
    /// `(iteration, best h-ASPL)` samples when history was requested.
    pub history: Vec<(usize, f64)>,
}

pub(crate) struct Annealer {
    state: SearchState,
    rng: ChaCha8Rng,
    cur: PathMetrics,
    best: HostSwitchGraph,
    best_metrics: PathMetrics,
    accepted: usize,
    proposed: usize,
    disconnected: usize,
    history: Vec<(usize, f64)>,
    /// Candidate buffer for the 2-neighbor second swing, reused across
    /// proposals so the steady state allocates nothing.
    cand_buf: Vec<u32>,
    /// Telemetry handle; the default no-op recorder costs one branch per
    /// call and never touches the RNG, so recording cannot change results.
    rec: Recorder,
    /// Current iteration (for best-trajectory telemetry).
    it: usize,
    /// Accepted-move mix, tracked unconditionally (plain integer adds)
    /// and published as counters only when the recorder is enabled.
    swap_accepted: usize,
    swing_accepted: usize,
    two_neighbor_first: usize,
    two_neighbor_second: usize,
    /// Whether guarded evaluation may early-reject without a BFS.
    early_reject: bool,
    /// Next iteration to execute — 0 for a fresh run, the checkpointed
    /// boundary after a resume.
    next_it: usize,
    /// Current temperature, carried in the struct (not loop-local) so a
    /// checkpoint stores its exact bits: a resumed run keeps cooling by
    /// multiplication from the saved value, bit-identically to the
    /// uninterrupted run (recomputing `t0 · ratioᵏ` would not be).
    t: f64,
    /// Phase-telemetry cursor (hoisted for checkpointing).
    phase_index: u32,
    phase_base_proposed: usize,
    phase_base_accepted: usize,
}

fn encode_metrics(m: &PathMetrics, enc: &mut Encoder) {
    enc.put_f64(m.haspl);
    enc.put_u32(m.diameter);
    enc.put_u64(m.total_length);
}

fn decode_metrics(dec: &mut Decoder<'_>) -> Result<PathMetrics, CkptError> {
    Ok(PathMetrics {
        haspl: dec.get_f64()?,
        diameter: dec.get_u32()?,
        total_length: dec.get_u64()?,
    })
}

/// Run-control knobs threaded into the annealing loop: where and how
/// often to checkpoint, and the watchdog handle to report progress to.
#[derive(Debug, Default)]
pub(crate) struct RunCtl {
    pub(crate) ckpt_path: Option<PathBuf>,
    pub(crate) every: usize,
    pub(crate) watch: Option<ProgressHandle>,
    pub(crate) window_secs: f64,
    /// Deterministic interruption point: force-checkpoint and bail out
    /// *before* executing this iteration, exactly like a watchdog stall.
    /// Used by the resume tests to cut a run at a known boundary.
    pub(crate) stop_after: Option<usize>,
    /// Live telemetry stream: when set (and the recorder is enabled),
    /// the loop publishes fresh gauges and appends one delta batch on
    /// the sink's wall-clock cadence.
    pub(crate) stream: Option<StreamSink>,
}

impl Annealer {
    pub(crate) fn new(
        g: HostSwitchGraph,
        cfg: &SaConfig,
        rec: Recorder,
    ) -> Result<Self, GraphError> {
        let workers = Self::resolved_workers(g.num_switches(), cfg);
        let mut state = SearchState::with_search(g, workers, cfg.search)?;
        // Per-worker scheduler counters only tick when someone records;
        // an unrecorded run keeps the zero-cost (one relaxed load) path.
        state.set_pool_telemetry(rec.is_enabled());
        let cur = state.evaluate().ok_or(GraphError::Disconnected)?;
        Ok(Self {
            best: state.graph().clone(),
            best_metrics: cur,
            state,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cur,
            accepted: 0,
            proposed: 0,
            disconnected: 0,
            history: Vec::new(),
            cand_buf: Vec::new(),
            rec,
            it: 0,
            swap_accepted: 0,
            swing_accepted: 0,
            two_neighbor_first: 0,
            two_neighbor_second: 0,
            early_reject: cfg.early_reject,
            next_it: 0,
            t: cfg.t0,
            phase_index: 0,
            phase_base_proposed: 0,
            phase_base_accepted: 0,
        })
    }

    fn resolved_workers(g_switches: u32, cfg: &SaConfig) -> usize {
        cfg.eval_workers
            .unwrap_or_else(|| resolve_parallel_eval(g_switches))
    }

    /// Serializes the complete mid-run state. Everything that feeds the
    /// remaining iterations is captured bit-exactly: the config echo
    /// (validated on resume), loop cursors, move counters, current/best
    /// metrics, the RNG mid-stream state, both graphs in their exact
    /// internal order, the [`crate::ops::EdgeSet`] storage order the
    /// sampler indexes into, and the recorded history. The `DistCache`
    /// and eval telemetry are deliberately *not* serialized — the cache
    /// is rebuilt exactly on load (cached and full evaluation are
    /// bit-identical by the PR 5 guarantee).
    pub(crate) fn encode_ckpt(&self, kind: MoveKind, cfg: &SaConfig, enc: &mut Encoder) {
        // Config echo.
        enc.put_u8(kind.code());
        enc.put_u64(cfg.iters as u64);
        enc.put_f64(cfg.t0);
        enc.put_f64(cfg.t_end);
        enc.put_u64(cfg.seed);
        enc.put_u64(cfg.sample_attempts as u64);
        enc.put_u64(cfg.history_stride as u64);
        enc.put_bool(cfg.early_reject);
        // Loop cursors.
        enc.put_u64(self.next_it as u64);
        enc.put_f64(self.t);
        // Counters.
        enc.put_u64(self.proposed as u64);
        enc.put_u64(self.accepted as u64);
        enc.put_u64(self.disconnected as u64);
        enc.put_u64(self.swap_accepted as u64);
        enc.put_u64(self.swing_accepted as u64);
        enc.put_u64(self.two_neighbor_first as u64);
        enc.put_u64(self.two_neighbor_second as u64);
        enc.put_u32(self.phase_index);
        enc.put_u64(self.phase_base_proposed as u64);
        enc.put_u64(self.phase_base_accepted as u64);
        // Metrics (raw f64 bits).
        encode_metrics(&self.cur, enc);
        encode_metrics(&self.best_metrics, enc);
        // RNG mid-stream state.
        enc.put_u32_slice(&self.rng.state_words());
        // Current graph + the sampler's edge order, then the best graph.
        self.state.graph().encode_exact(enc);
        let order = self.state.edges().edges();
        enc.put_u64(order.len() as u64);
        for &(a, b) in order {
            enc.put_u32(a);
            enc.put_u32(b);
        }
        self.best.encode_exact(enc);
        // History.
        enc.put_u64(self.history.len() as u64);
        for &(it, v) in &self.history {
            enc.put_u64(it as u64);
            enc.put_f64(v);
        }
    }

    /// Atomically writes the current state to `path`.
    fn save_ckpt(&self, kind: MoveKind, cfg: &SaConfig, path: &Path) -> Result<(), CkptError> {
        let span = self.rec.span("anneal.checkpoint");
        let mut enc = Encoder::new();
        self.encode_ckpt(kind, cfg, &mut enc);
        let r = ckpt::write_checkpoint(path, ckpt::KIND_ANNEAL, &enc.into_bytes());
        drop(span);
        if r.is_ok() {
            self.rec.incr("anneal.checkpoints", 1);
        }
        r
    }

    /// Rebuilds an annealer from a checkpoint payload. The config and
    /// move kind of the resuming call must match the checkpointed ones
    /// (`eval_workers`/`search` excepted — the worker count never changes
    /// a result, and the cache budget only through the early reject; see
    /// [`SaConfig::search`]), and its graphs must have `instance`'s
    /// `(hosts, switches, radix)` ([`SaError::InstanceMismatch`]
    /// otherwise, before any search state is built). After restoring,
    /// the search state is
    /// re-evaluated from scratch and the result is required to match
    /// the checkpointed metrics bit-for-bit, so silent drift between
    /// the stored graph and stored metrics is impossible.
    pub(crate) fn from_ckpt(
        payload: &[u8],
        kind: MoveKind,
        cfg: &SaConfig,
        rec: Recorder,
        instance: (u32, u32, u32),
    ) -> Result<Self, SaError> {
        let bad = |what: &str| SaError::Ckpt(CkptError::BadSection(what.into()));
        let mut dec = Decoder::new(payload);
        let stored_kind = MoveKind::from_code(dec.get_u8().map_err(SaError::Ckpt)?)
            .ok_or_else(|| bad("unknown move kind"))?;
        if stored_kind != kind {
            return Err(bad("move kind does not match the checkpoint"));
        }
        let d = |r: Result<u64, CkptError>| r.map_err(SaError::Ckpt);
        let df = |r: Result<f64, CkptError>| r.map_err(SaError::Ckpt);
        let iters = d(dec.get_u64())?;
        let t0 = df(dec.get_f64())?;
        let t_end = df(dec.get_f64())?;
        let seed = d(dec.get_u64())?;
        let sample_attempts = d(dec.get_u64())?;
        let history_stride = d(dec.get_u64())?;
        let early_reject = dec.get_bool().map_err(SaError::Ckpt)?;
        if iters != cfg.iters as u64
            || t0.to_bits() != cfg.t0.to_bits()
            || t_end.to_bits() != cfg.t_end.to_bits()
            || seed != cfg.seed
            || sample_attempts != cfg.sample_attempts as u64
            || history_stride != cfg.history_stride as u64
            || early_reject != cfg.early_reject
        {
            return Err(bad(
                "config does not match the checkpoint (iters/t0/t_end/seed/\
                 sample_attempts/history_stride/early_reject must be identical)",
            ));
        }
        let next_it = d(dec.get_u64())? as usize;
        let t = df(dec.get_f64())?;
        let proposed = d(dec.get_u64())? as usize;
        let accepted = d(dec.get_u64())? as usize;
        let disconnected = d(dec.get_u64())? as usize;
        let swap_accepted = d(dec.get_u64())? as usize;
        let swing_accepted = d(dec.get_u64())? as usize;
        let two_neighbor_first = d(dec.get_u64())? as usize;
        let two_neighbor_second = d(dec.get_u64())? as usize;
        let phase_index = dec.get_u32().map_err(SaError::Ckpt)?;
        let phase_base_proposed = d(dec.get_u64())? as usize;
        let phase_base_accepted = d(dec.get_u64())? as usize;
        let cur = decode_metrics(&mut dec).map_err(SaError::Ckpt)?;
        let best_metrics = decode_metrics(&mut dec).map_err(SaError::Ckpt)?;
        let rng_words = dec.get_u32_vec().map_err(SaError::Ckpt)?;
        let rng_words: [u32; CHACHA_STATE_WORDS] = rng_words
            .try_into()
            .map_err(|_| bad("rng state has the wrong length"))?;
        let cur_graph = HostSwitchGraph::decode_exact(&mut dec).map_err(SaError::Ckpt)?;
        let n_edges = d(dec.get_u64())? as usize;
        let mut edge_order = Vec::with_capacity(n_edges.min(payload.len() / 8));
        for _ in 0..n_edges {
            let a = dec.get_u32().map_err(SaError::Ckpt)?;
            let b = dec.get_u32().map_err(SaError::Ckpt)?;
            edge_order.push((a, b));
        }
        let best = HostSwitchGraph::decode_exact(&mut dec).map_err(SaError::Ckpt)?;
        let n_hist = d(dec.get_u64())? as usize;
        let mut history = Vec::with_capacity(n_hist.min(payload.len() / 16));
        for _ in 0..n_hist {
            let it = d(dec.get_u64())? as usize;
            let v = df(dec.get_f64())?;
            history.push((it, v));
        }
        if next_it as u64 > iters {
            return Err(bad("iteration cursor past the end of the schedule"));
        }
        for g in [&cur_graph, &best] {
            let found = instance_of(g);
            if found != instance {
                return Err(SaError::InstanceMismatch {
                    expected: instance,
                    found,
                });
            }
        }
        let workers = Self::resolved_workers(cur_graph.num_switches(), cfg);
        let mut state =
            SearchState::with_search_edge_order(cur_graph, workers, cfg.search, &edge_order)
                .map_err(|e| SaError::Ckpt(CkptError::BadSection(format!("search state: {e}"))))?;
        state.set_pool_telemetry(rec.is_enabled());
        let reeval = state
            .evaluate()
            .ok_or_else(|| bad("restored graph is disconnected"))?;
        if reeval.haspl.to_bits() != cur.haspl.to_bits()
            || reeval.total_length != cur.total_length
            || reeval.diameter != cur.diameter
        {
            return Err(bad(
                "re-evaluated metrics do not match the checkpointed metrics",
            ));
        }
        Ok(Self {
            state,
            rng: ChaCha8Rng::from_state_words(&rng_words),
            cur,
            best,
            best_metrics,
            accepted,
            proposed,
            disconnected,
            history,
            cand_buf: Vec::new(),
            rec,
            it: next_it,
            swap_accepted,
            swing_accepted,
            two_neighbor_first,
            two_neighbor_second,
            early_reject: cfg.early_reject,
            next_it,
            t,
            phase_index,
            phase_base_proposed,
            phase_base_accepted,
        })
    }

    /// Runs one guarded evaluation under the eval-latency histogram.
    ///
    /// At temperature `t` the Metropolis rule accepts an uphill move of
    /// `Δ` with probability `exp(-Δ/t)`, so any proposal whose h-ASPL
    /// lower bound exceeds `cur + EARLY_REJECT_LOG·t` would be accepted
    /// with probability below `exp(-EARLY_REJECT_LOG)` — effectively
    /// never — and the guard skips the BFS for it entirely.
    fn evaluate_timed(&mut self, t: f64) -> EvalOutcome {
        let reject_above = if self.early_reject {
            Some(self.cur.haspl + EARLY_REJECT_LOG * t.max(0.0))
        } else {
            None
        };
        let state = &mut self.state;
        let out = self
            .rec
            .time("anneal.eval_ns", || state.evaluate_guarded(reject_above));
        let stats = self.state.eval_stats();
        if stats.last_kind == EvalPathKind::Incremental {
            // histogram of the affected-source fraction, in percent
            self.rec.record(
                "eval.affected_pct",
                (100 * u64::from(stats.last_affected)) / u64::from(stats.last_sources.max(1)),
            );
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

    fn note_accept(&mut self, metrics: PathMetrics) {
        self.cur = metrics;
        self.accepted += 1;
        if metrics.haspl < self.best_metrics.haspl {
            self.best_metrics = metrics;
            self.best = self.state.graph().clone();
            if self.rec.is_enabled() {
                self.rec
                    .series("anneal.best_haspl", self.it as f64, metrics.haspl);
                self.rec.emit(Event::Best {
                    iter: self.it as u64,
                    value: metrics.haspl,
                });
            }
        }
    }

    /// Converts a failed move application into a structured, diagnosable
    /// error (instead of the historical panic): the transaction is
    /// unwound `depth` levels so the state stays consistent for a final
    /// checkpoint, and the error names the move and iteration.
    fn invariant_broken(
        &mut self,
        what: &'static str,
        depth: usize,
        source: GraphError,
    ) -> SaError {
        for _ in 0..depth {
            self.state.rollback();
        }
        SaError::InvariantBroken {
            what,
            iter: self.it as u64,
            source,
        }
    }

    /// One swap proposal; returns whether it was accepted.
    fn step_swap(&mut self, t: f64, attempts: usize) -> Result<bool, SaError> {
        let Some(s) = sample_swap(
            self.state.graph(),
            self.state.edges(),
            &mut self.rng,
            attempts,
        ) else {
            return Ok(false);
        };
        self.proposed += 1;
        self.state.begin();
        if let Err(e) = self.state.apply_swap(s) {
            return Err(self.invariant_broken("swap", 1, e));
        }
        match self.evaluate_timed(t) {
            EvalOutcome::Metrics(m2) => {
                let delta = m2.haspl - self.cur.haspl;
                if self.metropolis(delta, t) {
                    self.state.commit();
                    self.note_accept(m2);
                    self.swap_accepted += 1;
                    return Ok(true);
                }
                self.state.rollback();
                Ok(false)
            }
            EvalOutcome::EarlyRejected(_) => {
                self.state.rollback();
                Ok(false)
            }
            EvalOutcome::Disconnected => {
                self.disconnected += 1;
                self.state.rollback();
                Ok(false)
            }
        }
    }

    /// One plain-swing proposal.
    fn step_swing(&mut self, t: f64, attempts: usize) -> Result<bool, SaError> {
        let Some(s) = sample_swing(
            self.state.graph(),
            self.state.edges(),
            &mut self.rng,
            attempts,
        ) else {
            return Ok(false);
        };
        self.proposed += 1;
        self.state.begin();
        if let Err(e) = self.state.apply_swing(s) {
            return Err(self.invariant_broken("swing", 1, e));
        }
        match self.evaluate_timed(t) {
            EvalOutcome::Metrics(m2) => {
                let delta = m2.haspl - self.cur.haspl;
                if self.metropolis(delta, t) {
                    self.state.commit();
                    self.note_accept(m2);
                    self.swing_accepted += 1;
                    return Ok(true);
                }
                self.state.rollback();
                Ok(false)
            }
            EvalOutcome::EarlyRejected(_) => {
                self.state.rollback();
                Ok(false)
            }
            EvalOutcome::Disconnected => {
                self.disconnected += 1;
                self.state.rollback();
                Ok(false)
            }
        }
    }

    /// One 2-neighbor-swing proposal (the four steps of §5.2), expressed
    /// as a nested transaction: the second swing stacks on the first and
    /// either both commit or both unwind.
    fn step_two_neighbor(&mut self, t: f64, attempts: usize) -> Result<bool, SaError> {
        let Some(s1) = sample_swing(
            self.state.graph(),
            self.state.edges(),
            &mut self.rng,
            attempts,
        ) else {
            return Ok(false);
        };
        self.proposed += 1;
        // Step 1: the 1-neighbor solution.
        self.state.begin();
        if let Err(e) = self.state.apply_swing(s1) {
            return Err(self.invariant_broken("swing", 1, e));
        }
        match self.evaluate_timed(t) {
            EvalOutcome::Metrics(m1) => {
                let delta = m1.haspl - self.cur.haspl;
                if self.metropolis(delta, t) {
                    // Step 2: accept the 1-neighbor solution.
                    self.state.commit();
                    self.note_accept(m1);
                    self.two_neighbor_first += 1;
                    return Ok(true);
                }
            }
            // An early-rejected first swing falls through to the second
            // swing, exactly like a Metropolis rejection would.
            EvalOutcome::EarlyRejected(_) => {}
            EvalOutcome::Disconnected => self.disconnected += 1,
        }
        // Step 3: the 2-neighbor solution swing(s_d, s_c, s_b):
        // pick d adjacent to c (excluding a), rewire {d,c} and move a host
        // back from b to c. Net effect on the original graph is the swap
        // {a,b},{c,d} → {a,c},{b,d}.
        let s2 = {
            let g = self.state.graph();
            self.cand_buf.clear();
            self.cand_buf
                .extend(g.neighbors(s1.c).iter().copied().filter(|&d| {
                    d != s1.a
                        && d != s1.b
                        && Swing {
                            a: d,
                            b: s1.c,
                            c: s1.b,
                        }
                        .is_valid(g)
                }));
            match self.cand_buf.as_slice() {
                [] => None,
                cs => Some(Swing {
                    a: cs[self.rng.gen_range(0..cs.len())],
                    b: s1.c,
                    c: s1.b,
                }),
            }
        };
        if let Some(s2) = s2 {
            self.state.begin();
            if let Err(e) = self.state.apply_swing(s2) {
                // Unwind both the inner and the outer transaction.
                return Err(self.invariant_broken("2-neighbor second swing", 2, e));
            }
            match self.evaluate_timed(t) {
                EvalOutcome::Metrics(m2) => {
                    let delta = m2.haspl - self.cur.haspl;
                    if self.metropolis(delta, t) {
                        // Step 4: accept the 2-neighbor solution — the inner
                        // commit folds s2 into the outer transaction.
                        self.state.commit();
                        self.state.commit();
                        self.note_accept(m2);
                        self.two_neighbor_second += 1;
                        return Ok(true);
                    }
                }
                EvalOutcome::EarlyRejected(_) => {}
                EvalOutcome::Disconnected => self.disconnected += 1,
            }
            self.state.rollback();
        }
        // Otherwise the initial solution holds.
        self.state.rollback();
        Ok(false)
    }

    /// Advances the annealer from its cursor to `cfg.iters`, leaving it
    /// at a quiescent iteration boundary — the same boundary checkpoints
    /// are defined at. [`Annealer::run`] is this plus
    /// [`Annealer::finish`].
    pub(crate) fn run_range(
        &mut self,
        kind: MoveKind,
        cfg: &SaConfig,
        ctl: &RunCtl,
    ) -> Result<(), SaError> {
        let iters = cfg.iters.max(1);
        // Geometric cooling; degenerate temperatures fall back to constant.
        let ratio = if cfg.t0 > 0.0 && cfg.t_end > 0.0 {
            (cfg.t_end / cfg.t0).powf(1.0 / iters as f64)
        } else {
            1.0
        };
        // Phase telemetry: ten phases per run, each reporting its local
        // proposal/acceptance mix (so acceptance-rate decay is visible).
        // The cursors live on `self` so checkpoints carry them.
        let phase_stride = (iters / 10).max(1);
        while self.next_it < cfg.iters {
            let it = self.next_it;
            self.it = it;
            // A checkpoint taken here captures the state *between*
            // iterations — the quiescent boundary the resume invariant
            // is defined at.
            if let Some(path) = &ctl.ckpt_path {
                if ctl.every > 0 && it > 0 && it.is_multiple_of(ctl.every) {
                    self.save_ckpt(kind, cfg, path)?;
                }
            }
            let stalled = ctl.watch.as_ref().is_some_and(|w| w.is_stalled());
            if stalled || ctl.stop_after == Some(it) {
                if let Some(watch) = &ctl.watch {
                    watch.acknowledge_stall();
                }
                let checkpoint = match &ctl.ckpt_path {
                    Some(p) => {
                        self.save_ckpt(kind, cfg, p)?;
                        Some(p.clone())
                    }
                    None => None,
                };
                return Err(SaError::Stalled {
                    window_secs: ctl.window_secs,
                    iter: it as u64,
                    checkpoint,
                });
            }
            let t = self.t;
            let _accepted = match kind {
                MoveKind::Swap => self.step_swap(t, cfg.sample_attempts)?,
                MoveKind::Swing => self.step_swing(t, cfg.sample_attempts)?,
                MoveKind::TwoNeighborSwing => self.step_two_neighbor(t, cfg.sample_attempts)?,
            };
            self.t *= ratio;
            self.next_it = it + 1;
            if let Some(watch) = &ctl.watch {
                watch.tick();
            }
            // Live streaming: `due()` is one lock + clock read, and the
            // publish/snapshot work only runs when the cadence elapsed,
            // so the steady-state cost stays under the 2% overhead bar.
            if let Some(sink) = &ctl.stream {
                if sink.due() {
                    let rec = self.rec.clone();
                    sink.maybe_flush(&rec, || {
                        self.publish_live(it + 1, cfg.iters);
                    });
                }
            }
            if cfg.history_stride > 0 && it.is_multiple_of(cfg.history_stride) {
                self.history.push((it, self.best_metrics.haspl));
            }
            if self.rec.is_enabled() && (it + 1).is_multiple_of(phase_stride) {
                self.rec.emit(Event::Phase {
                    index: self.phase_index,
                    temperature: self.t,
                    proposed: (self.proposed - self.phase_base_proposed) as u64,
                    accepted: (self.accepted - self.phase_base_accepted) as u64,
                    best: self.best_metrics.haspl,
                });
                self.phase_index += 1;
                self.phase_base_proposed = self.proposed;
                self.phase_base_accepted = self.accepted;
            }
        }
        Ok(())
    }

    /// Publishes the live gauge set the streaming dashboard renders:
    /// progress, proposal/acceptance totals, best-so-far trajectory,
    /// eval-path mix, per-worker scheduler counters and the distance
    /// cache footprint. The totals [`Annealer::finish`] publishes
    /// exactly once as counters are mirrored here as *gauges*
    /// (absolute, last-write-wins), so a stream read mid-run shows live
    /// values without ever double counting.
    fn publish_live(&self, iter: usize, total: usize) {
        use std::fmt::Write as _;
        if !self.rec.is_enabled() {
            return;
        }
        let mut name = String::with_capacity(48);
        let mut put = |suffix: std::fmt::Arguments<'_>, v: f64| {
            name.clear();
            let _ = name.write_fmt(suffix);
            self.rec.gauge_dyn(&name, v);
        };
        put(format_args!("progress.iter"), iter as f64);
        put(format_args!("progress.total"), total as f64);
        put(format_args!("anneal.proposed"), self.proposed as f64);
        put(format_args!("anneal.accepted"), self.accepted as f64);
        put(
            format_args!("anneal.disconnected"),
            self.disconnected as f64,
        );
        put(format_args!("anneal.best_haspl"), self.best_metrics.haspl);
        put(format_args!("anneal.temperature"), self.t);
        let stats = *self.state.eval_stats();
        put(format_args!("eval.full"), stats.full as f64);
        put(format_args!("eval.incremental"), stats.incremental as f64);
        put(
            format_args!("eval.early_reject"),
            stats.early_rejected as f64,
        );
        put(format_args!("cache.rows_repaired"), stats.repaired as f64);
        put(format_args!("cache.rows_swept"), stats.swept as f64);
        put(
            format_args!("cache.resident_bytes"),
            self.state.cache_resident_bytes() as f64,
        );
        for (i, w) in self.state.pool_stats().iter().enumerate() {
            put(format_args!("pool.w{i}.pushes"), w.pushes as f64);
            put(format_args!("pool.w{i}.pops"), w.pops as f64);
            put(format_args!("pool.w{i}.steals"), w.steals as f64);
            put(format_args!("pool.w{i}.steal_fails"), w.steal_fails as f64);
            put(format_args!("pool.w{i}.busy_ns"), w.busy_ns as f64);
            put(format_args!("pool.w{i}.idle_ns"), w.idle_ns as f64);
        }
    }

    /// Final checkpoint, telemetry flush and result extraction; call
    /// once [`Annealer::run_range`] has reached `cfg.iters`.
    pub(crate) fn finish(
        self,
        kind: MoveKind,
        cfg: &SaConfig,
        ctl: &RunCtl,
    ) -> Result<SaResult, SaError> {
        // Final save: a kill between completion and the caller consuming
        // the result still resumes (trivially) to the identical answer.
        if let Some(path) = &ctl.ckpt_path {
            if ctl.every > 0 {
                self.save_ckpt(kind, cfg, path)?;
            }
        }
        if self.rec.is_enabled() {
            self.rec.incr("anneal.proposed", self.proposed as u64);
            self.rec.incr("anneal.accepted", self.accepted as u64);
            self.rec
                .incr("anneal.disconnected", self.disconnected as u64);
            self.rec
                .incr("anneal.swap_accepted", self.swap_accepted as u64);
            self.rec
                .incr("anneal.swing_accepted", self.swing_accepted as u64);
            self.rec
                .incr("anneal.two_neighbor_first", self.two_neighbor_first as u64);
            self.rec.incr(
                "anneal.two_neighbor_second",
                self.two_neighbor_second as u64,
            );
            // Which eval path ran: full recompute vs affected-source
            // re-BFS vs guard-skipped (no BFS at all).
            let stats = *self.state.eval_stats();
            self.rec.incr("eval.full", stats.full);
            self.rec.incr("eval.incremental", stats.incremental);
            self.rec.incr("eval.early_reject", stats.early_rejected);
            self.rec.incr("eval.repaired", stats.repaired);
        }
        // Flush the closing state of *this* run segment to the live
        // stream (the final counters above ride along). The stream's
        // own `done` record is written by the owner via
        // [`StreamSink::finish`] once the whole solve ends.
        if let Some(sink) = &ctl.stream {
            let rec = self.rec.clone();
            sink.flush_now(&rec, || {
                self.publish_live(self.next_it, cfg.iters.max(1));
            });
        }
        Ok(SaResult {
            graph: self.best,
            metrics: self.best_metrics,
            proposed: self.proposed,
            accepted: self.accepted,
            disconnected: self.disconnected,
            history: self.history,
        })
    }

    pub(crate) fn run(
        mut self,
        kind: MoveKind,
        cfg: &SaConfig,
        ctl: &RunCtl,
    ) -> Result<SaResult, SaError> {
        let span = self.rec.span("anneal.run");
        self.run_range(kind, cfg, ctl)?;
        drop(span);
        self.finish(kind, cfg, ctl)
    }
}

/// Builder-style entry point for one annealing run.
///
/// This is the redesigned public API: every knob is optional, and an
/// [`orp_obs::Recorder`] can be attached without touching the search
/// itself (the recorder never feeds back into the RNG, so a recording
/// run is bit-identical to an unrecorded one).
///
/// ```
/// use orp_core::anneal::{Anneal, MoveKind, SaConfig};
/// use orp_core::construct::random_regular;
///
/// let start = random_regular(16, 4, 6, 1).unwrap();
/// let res = Anneal::builder(start)
///     .kind(MoveKind::Swap)
///     .config(SaConfig::builder().iters(50).seed(1).build())
///     .run()
///     .unwrap();
/// assert!(res.proposed <= 50);
/// ```
#[derive(Debug, Clone)]
pub struct Anneal {
    /// The graph a fresh run anneals; `None` only for
    /// [`Anneal::resuming`].
    start: Option<HostSwitchGraph>,
    /// `(hosts, switches, radix)` a resumed checkpoint must hold.
    instance: (u32, u32, u32),
    kind: MoveKind,
    cfg: SaConfig,
    rec: Recorder,
    ckpt: Option<PathBuf>,
    every: usize,
    resume: Option<PathBuf>,
    watchdog: Option<WatchdogConfig>,
    stream: Option<StreamSink>,
}

impl Anneal {
    /// Starts a builder annealing `start` with the defaults: the
    /// 2-neighbor swing neighbourhood, [`SaConfig::default`], no
    /// recording, no checkpointing, no watchdog.
    pub fn builder(start: HostSwitchGraph) -> Self {
        let instance = instance_of(&start);
        Self::with_start(Some(start), instance)
    }

    /// A builder that resumes from the checkpoint at `path` without a
    /// start graph; the checkpoint must hold `instance`'s `(hosts,
    /// switches, radix)`.
    pub(crate) fn resuming(path: PathBuf, instance: (u32, u32, u32)) -> Self {
        Self::with_start(None, instance).resume_from(path)
    }

    fn with_start(start: Option<HostSwitchGraph>, instance: (u32, u32, u32)) -> Self {
        Self {
            start,
            instance,
            kind: MoveKind::TwoNeighborSwing,
            cfg: SaConfig::default(),
            rec: Recorder::disabled(),
            ckpt: None,
            every: DEFAULT_CHECKPOINT_EVERY,
            resume: None,
            watchdog: None,
            stream: None,
        }
    }

    /// Which neighbourhood to explore.
    pub fn kind(mut self, kind: MoveKind) -> Self {
        self.kind = kind;
        self
    }

    /// Schedule and bookkeeping knobs.
    pub fn config(mut self, cfg: SaConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Attaches a telemetry recorder (defaults to the no-op recorder).
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Enables crash-safe checkpointing: the run state is atomically
    /// saved to `path` every [`Anneal::checkpoint_every`] iterations
    /// (and once on completion). A run killed at any point and resumed
    /// via [`Anneal::resume_from`] produces the bit-identical final
    /// result of the uninterrupted run.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.ckpt = Some(path.into());
        self
    }

    /// Checkpoint stride in iterations (default
    /// [`DEFAULT_CHECKPOINT_EVERY`]; 0 disables periodic saves while
    /// keeping stall force-checkpoints).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Resumes from a checkpoint previously written by this builder:
    /// the run continues from the checkpoint's graph, not the start
    /// graph, which only names the instance. The config and move kind
    /// must match the checkpointed run — everything except
    /// `eval_workers`, which is a pure wall-clock knob.
    /// Fails with [`SaError::Ckpt`] if the file is missing, corrupt,
    /// truncated, of the wrong kind/version, or config-incompatible,
    /// and with [`SaError::InstanceMismatch`] if its graph's hosts,
    /// switches or radix differ from the start graph's.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Arms a stall watchdog: if no iteration completes within
    /// `cfg.window` (wall clock), the run emits a structured
    /// `watchdog.stalled` diagnostic, force-checkpoints (when a
    /// checkpoint path is set), and returns [`SaError::Stalled`]
    /// instead of hanging forever.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Attaches a live metrics stream: on the sink's wall-clock cadence
    /// the annealing loop publishes fresh gauges (progress, eval mix,
    /// per-worker scheduler counters, cache footprint) and appends one
    /// self-describing JSONL batch that `orp watch` can tail mid-run.
    /// No-op unless a recorder is also attached.
    pub fn stream(mut self, sink: StreamSink) -> Self {
        self.stream = Some(sink);
        self
    }

    /// Runs the annealer (resuming first if configured).
    pub fn run(self) -> Result<SaResult, SaError> {
        let annealer = match &self.resume {
            Some(p) => {
                let payload = ckpt::read_checkpoint(p, ckpt::KIND_ANNEAL)?;
                Annealer::from_ckpt(
                    &payload,
                    self.kind,
                    &self.cfg,
                    self.rec.clone(),
                    self.instance,
                )?
            }
            None => {
                let start = self.start.expect("a builder without a start graph resumes");
                Annealer::new(start, &self.cfg, self.rec.clone())?
            }
        };
        let window_secs = self
            .watchdog
            .as_ref()
            .map_or(0.0, |w| w.window.as_secs_f64());
        let wd = self
            .watchdog
            .map(|cfg| Watchdog::spawn(cfg, self.rec.clone()));
        let ctl = RunCtl {
            ckpt_path: self.ckpt,
            every: self.every,
            watch: wd.as_ref().map(Watchdog::handle),
            window_secs,
            stop_after: None,
            stream: self.stream,
        };
        annealer.run(self.kind, &self.cfg, &ctl)
    }
}

/// A graph's `(hosts, switches, radix)`: what a resumed checkpoint
/// must share with the run that resumes it.
pub(crate) fn instance_of(g: &HostSwitchGraph) -> (u32, u32, u32) {
    (g.num_hosts(), g.num_switches(), g.radix())
}

/// Calibrates an initial temperature from the instance itself: samples
/// random swing moves on a scratch copy and sets `t0` to the median
/// |Δh-ASPL| (so roughly half of all degrading moves are accepted at the
/// start) and `t_end` three orders of magnitude below.
pub fn auto_temperature(start: &HostSwitchGraph, cfg: &SaConfig) -> SaConfig {
    let Ok(mut state) = SearchState::with_search(start.clone(), 1, SearchConfig::default()) else {
        return cfg.clone();
    };
    let Some(base) = state.evaluate() else {
        return cfg.clone();
    };
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x7e5);
    let mut deltas: Vec<f64> = Vec::new();
    for _ in 0..24 {
        let Some(s) = sample_swing(state.graph(), state.edges(), &mut rng, 16) else {
            continue;
        };
        state.begin();
        state.apply_swing(s).expect("sampled move valid");
        if let Some(m2) = state.evaluate() {
            deltas.push((m2.haspl - base.haspl).abs());
        }
        state.rollback();
    }
    if deltas.is_empty() {
        return cfg.clone();
    }
    deltas.sort_by(f64::total_cmp);
    let t0 = deltas[deltas.len() / 2].max(1e-9);
    SaConfig {
        t0,
        t_end: t0 * 1e-3,
        ..cfg.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::haspl_lower_bound;
    use crate::construct::{random_general, random_regular};
    use crate::metrics::path_metrics;

    fn small_cfg(iters: usize) -> SaConfig {
        SaConfig {
            iters,
            t0: 0.02,
            t_end: 1e-5,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn swap_anneal_improves_over_random_start() {
        let n = 64;
        let m = 16;
        let r = 8; // per = 4, k = 4
        let start = random_regular(n, m, r, 7).unwrap();
        let before = path_metrics(&start).unwrap().haspl;
        let res = Anneal::builder(start)
            .kind(MoveKind::Swap)
            .config(small_cfg(800))
            .run()
            .unwrap();
        assert!(res.metrics.haspl <= before);
        res.graph.validate().unwrap();
        // swap preserves regularity
        assert_eq!(res.graph.regularity(), Some((4, 4)));
        assert!(res.accepted > 0);
    }

    #[test]
    fn two_neighbor_swing_anneal_improves() {
        let n = 64;
        let m = 16;
        let r = 8;
        let start = random_general(n, m, r, 3).unwrap();
        let before = path_metrics(&start).unwrap().haspl;
        let res = Anneal::builder(start)
            .kind(MoveKind::TwoNeighborSwing)
            .config(small_cfg(800))
            .run()
            .unwrap();
        assert!(res.metrics.haspl <= before);
        res.graph.validate().unwrap();
        assert_eq!(res.graph.num_hosts(), n);
        assert_eq!(res.graph.num_switches(), m);
        assert!(res.metrics.haspl >= haspl_lower_bound(n as u64, r as u64) - 1e-9);
    }

    #[test]
    fn plain_swing_anneal_runs() {
        let start = random_general(48, 12, 8, 5).unwrap();
        let res = Anneal::builder(start)
            .kind(MoveKind::Swing)
            .config(small_cfg(400))
            .run()
            .unwrap();
        res.graph.validate().unwrap();
        assert!(res.metrics.haspl >= 2.0);
    }

    #[test]
    fn hill_climb_never_accepts_worse() {
        let start = random_general(48, 12, 8, 5).unwrap();
        let before = path_metrics(&start).unwrap();
        let cfg = SaConfig::hill_climb(400, 11);
        let res = Anneal::builder(start).config(cfg).run().unwrap();
        assert!(res.metrics.haspl <= before.haspl);
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = small_cfg(300);
        let run = || {
            let start = random_general(48, 12, 8, cfg.seed).unwrap();
            Anneal::builder(start).config(cfg.clone()).run().unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.metrics.total_length, b.metrics.total_length);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let cfg = SaConfig {
            history_stride: 50,
            ..small_cfg(500)
        };
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let res = Anneal::builder(start).config(cfg).run().unwrap();
        assert!(!res.history.is_empty());
        for w in res.history.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
    }

    #[test]
    fn auto_temperature_matches_move_scale() {
        let g = random_general(128, 32, 10, 3).unwrap();
        let tuned = auto_temperature(&g, &SaConfig::default());
        // typical swing deltas at this size are O(1/n)..O(0.1)
        assert!(tuned.t0 > 0.0 && tuned.t0 < 0.5, "t0 = {}", tuned.t0);
        assert!(tuned.t_end < tuned.t0);
        // annealing with the tuned schedule still works
        let res = Anneal::builder(g)
            .config(SaConfig {
                iters: 400,
                ..tuned
            })
            .run()
            .unwrap();
        res.graph.validate().unwrap();
    }

    #[test]
    fn recorded_run_is_identical_and_populates_telemetry() {
        let cfg = small_cfg(300);
        let start = random_general(48, 12, 8, 3).unwrap();
        let plain = Anneal::builder(start.clone())
            .config(cfg.clone())
            .run()
            .unwrap();
        let rec = Recorder::enabled();
        let traced = Anneal::builder(start)
            .kind(MoveKind::TwoNeighborSwing)
            .config(cfg)
            .recorder(rec.clone())
            .run()
            .unwrap();
        // recording must not perturb the search
        assert_eq!(plain.graph, traced.graph);
        assert_eq!(plain.accepted, traced.accepted);
        let snap = rec.snapshot().unwrap();
        assert_eq!(
            snap.counter("anneal.proposed"),
            Some(traced.proposed as u64)
        );
        assert_eq!(
            snap.counter("anneal.accepted"),
            Some(traced.accepted as u64)
        );
        assert_eq!(snap.event_count("anneal.phase"), 10);
        assert!(snap.histogram("anneal.eval_ns").unwrap().count >= traced.proposed as u64);
        assert!(!snap.series("anneal.best_haspl").unwrap().is_empty());
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "anneal.run");
    }

    #[test]
    fn sa_config_builder_matches_struct_literal() {
        let built = SaConfig::builder()
            .iters(123)
            .t0(0.5)
            .t_end(1e-4)
            .seed(9)
            .sample_attempts(8)
            .history_stride(10)
            .eval_workers(3)
            .early_reject(false)
            .search(SearchConfig::off())
            .build();
        assert_eq!(built.iters, 123);
        assert_eq!(built.t0, 0.5);
        assert_eq!(built.t_end, 1e-4);
        assert_eq!(built.seed, 9);
        assert_eq!(built.sample_attempts, 8);
        assert_eq!(built.history_stride, 10);
        assert_eq!(built.eval_workers, Some(3));
        assert!(!built.early_reject);
        assert_eq!(built.search, SearchConfig::off());
    }

    #[test]
    fn eval_worker_count_does_not_change_results() {
        // Every pool size reduces partial sums in deterministic order, so
        // pinning more eval workers is a pure wall-clock knob.
        let one = SaConfig {
            eval_workers: Some(1),
            ..small_cfg(300)
        };
        let three = SaConfig {
            eval_workers: Some(3),
            ..small_cfg(300)
        };
        let start = random_general(48, 12, 8, one.seed).unwrap();
        let a = Anneal::builder(start.clone()).config(one).run().unwrap();
        let b = Anneal::builder(start).config(three).run().unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn early_reject_off_still_converges() {
        // Disabling the guard changes which proposals consume RNG draws,
        // so results may differ from the guarded run — but the run itself
        // must stay valid and each setting stays seed-reproducible.
        let cfg = SaConfig {
            early_reject: false,
            ..small_cfg(400)
        };
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let a = Anneal::builder(start.clone())
            .config(cfg.clone())
            .run()
            .unwrap();
        let b = Anneal::builder(start).config(cfg).run().unwrap();
        assert_eq!(a.graph, b.graph);
        a.graph.validate().unwrap();
    }

    #[test]
    fn anneal_rejects_disconnected_start() {
        let mut g = HostSwitchGraph::new(2, 4).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(1).unwrap();
        let res = Anneal::builder(g)
            .kind(MoveKind::Swap)
            .config(small_cfg(10))
            .run();
        assert!(res.is_err());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("orp_anneal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The tentpole invariant: a run cut at *any* iteration boundary and
    /// resumed from its forced checkpoint finishes with the bit-identical
    /// result of the uninterrupted run — graph, metric bits, counters,
    /// and history all equal.
    #[test]
    fn interrupted_resume_is_bit_identical() {
        let dir = temp_dir("resume");
        let path = dir.join("run.ckpt");
        let cfg = SaConfig {
            history_stride: 50,
            ..small_cfg(600)
        };
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let reference = Anneal::builder(start.clone())
            .config(cfg.clone())
            .run()
            .unwrap();
        for cut in [1usize, 123, 250, 599] {
            let annealer = Annealer::new(start.clone(), &cfg, Recorder::disabled()).unwrap();
            let ctl = RunCtl {
                ckpt_path: Some(path.clone()),
                stop_after: Some(cut),
                ..Default::default()
            };
            let err = annealer
                .run(MoveKind::TwoNeighborSwing, &cfg, &ctl)
                .unwrap_err();
            assert!(matches!(err, SaError::Stalled { iter, .. } if iter == cut as u64));
            let resumed = Anneal::builder(start.clone())
                .kind(MoveKind::TwoNeighborSwing)
                .config(cfg.clone())
                .resume_from(&path)
                .run()
                .unwrap();
            assert_eq!(resumed.graph, reference.graph, "cut at {cut}");
            assert_eq!(
                resumed.metrics.haspl.to_bits(),
                reference.metrics.haspl.to_bits(),
                "cut at {cut}"
            );
            assert_eq!(resumed.metrics, reference.metrics);
            assert_eq!(resumed.proposed, reference.proposed, "cut at {cut}");
            assert_eq!(resumed.accepted, reference.accepted, "cut at {cut}");
            assert_eq!(resumed.disconnected, reference.disconnected);
            assert_eq!(resumed.history, reference.history, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resuming twice in a row (kill the resumed run too) still lands on
    /// the uninterrupted result.
    #[test]
    fn double_interruption_still_resumes_exactly() {
        let dir = temp_dir("resume2");
        let path = dir.join("run.ckpt");
        let cfg = small_cfg(500);
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let reference = Anneal::builder(start.clone())
            .kind(MoveKind::Swap)
            .config(cfg.clone())
            .run()
            .unwrap();
        // First cut at 150 from a fresh run.
        let a = Annealer::new(start.clone(), &cfg, Recorder::disabled()).unwrap();
        let ctl = RunCtl {
            ckpt_path: Some(path.clone()),
            stop_after: Some(150),
            ..Default::default()
        };
        a.run(MoveKind::Swap, &cfg, &ctl).unwrap_err();
        // Second cut at 350 from the resumed run.
        let payload = ckpt::read_checkpoint(&path, ckpt::KIND_ANNEAL).unwrap();
        let b = Annealer::from_ckpt(
            &payload,
            MoveKind::Swap,
            &cfg,
            Recorder::disabled(),
            instance_of(&start),
        )
        .unwrap();
        let ctl = RunCtl {
            ckpt_path: Some(path.clone()),
            stop_after: Some(350),
            ..Default::default()
        };
        b.run(MoveKind::Swap, &cfg, &ctl).unwrap_err();
        // Final resume runs to completion.
        let resumed = Anneal::builder(start)
            .kind(MoveKind::Swap)
            .config(cfg.clone())
            .resume_from(&path)
            .run()
            .unwrap();
        assert_eq!(resumed.graph, reference.graph);
        assert_eq!(resumed.metrics, reference.metrics);
        assert_eq!(resumed.accepted, reference.accepted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_config_kind_and_missing_file() {
        let dir = temp_dir("reject");
        let path = dir.join("run.ckpt");
        let cfg = small_cfg(300);
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let a = Annealer::new(start.clone(), &cfg, Recorder::disabled()).unwrap();
        let ctl = RunCtl {
            ckpt_path: Some(path.clone()),
            stop_after: Some(100),
            ..Default::default()
        };
        a.run(MoveKind::TwoNeighborSwing, &cfg, &ctl).unwrap_err();
        // Different seed: the config echo must match bitwise.
        let other = SaConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let err = Anneal::builder(start.clone())
            .config(other)
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, SaError::Ckpt(CkptError::BadSection(_))));
        // Different move kind.
        let err = Anneal::builder(start.clone())
            .kind(MoveKind::Swap)
            .config(cfg.clone())
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, SaError::Ckpt(CkptError::BadSection(_))));
        // Missing file surfaces as an IO checkpoint error.
        let err = Anneal::builder(start)
            .config(cfg)
            .resume_from(dir.join("nope.ckpt"))
            .run()
            .unwrap_err();
        assert!(matches!(err, SaError::Ckpt(CkptError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_worker_count_does_not_change_resume() {
        // `eval_workers` is exempt from the config echo: resuming with a
        // different pool size is allowed and bit-identical.
        let dir = temp_dir("workers");
        let path = dir.join("run.ckpt");
        let cfg = SaConfig {
            eval_workers: Some(1),
            ..small_cfg(400)
        };
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let reference = Anneal::builder(start.clone())
            .config(cfg.clone())
            .run()
            .unwrap();
        let a = Annealer::new(start.clone(), &cfg, Recorder::disabled()).unwrap();
        let ctl = RunCtl {
            ckpt_path: Some(path.clone()),
            stop_after: Some(200),
            ..Default::default()
        };
        a.run(MoveKind::TwoNeighborSwing, &cfg, &ctl).unwrap_err();
        let resumed = Anneal::builder(start)
            .config(SaConfig {
                eval_workers: Some(3),
                ..cfg
            })
            .resume_from(&path)
            .run()
            .unwrap();
        assert_eq!(resumed.graph, reference.graph);
        assert_eq!(resumed.metrics, reference.metrics);
        std::fs::remove_dir_all(&dir).ok();
    }
}
