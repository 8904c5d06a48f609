//! Parallel tempering (replica exchange) on top of the annealer.
//!
//! `K` replicas of the search run side by side, each at a fixed rung of
//! a temperature ladder. Every `exchange_every` iterations all replicas
//! reach a synchronized round boundary and adjacent rungs propose to
//! swap temperatures with the standard replica-exchange acceptance rule
//! `min(1, exp((β_j − β_{j+1}) · (E_j − E_{j+1})))`, where `E` is the
//! replica's current h-ASPL. Hot rungs cross barriers, cold rungs
//! exploit; an accepted exchange moves only the *temperature* between
//! the two replicas (no graph copying).
//!
//! Determinism: replicas advance in index order and each owns its own
//! seeded RNG; exchange decisions come from a dedicated exchange RNG
//! that draws exactly one uniform per proposed pair, *unconditionally*,
//! in rung order — so the stream never depends on the energies and a
//! run is reproducible for any eval worker count or cache budget.
//! Checkpoints (kind [`ckpt::KIND_TEMPER`]) embed one annealer payload
//! per replica plus the rung permutation and the exchange RNG state;
//! a run cut at any point resumes bit-identically, even mid-round
//! (replicas already at the boundary simply no-op until the laggard
//! catches up).

use crate::anneal::{instance_of, Annealer, MoveKind, RunCtl, SaConfig, SaResult};
use crate::ckpt::{self, CkptError, Decoder, Encoder};
use crate::error::SaError;
use crate::graph::HostSwitchGraph;
use crate::watchdog::{Watchdog, WatchdogConfig};
use orp_obs::{Recorder, StreamSink};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::{ChaCha8Rng, CHACHA_STATE_WORDS};
use std::path::{Path, PathBuf};

/// Domain-separation constant for the exchange RNG seed, so the
/// exchange stream never collides with a replica stream derived from
/// the same base seed.
const EXCHANGE_SEED_SALT: u64 = 0xA5A5_5A5A_7E39_0001;

/// Counters for the replica-exchange moves of a tempering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Adjacent-rung swaps proposed.
    pub attempted: u64,
    /// Swaps accepted (temperatures actually moved).
    pub accepted: u64,
}

/// Outcome of a tempering run.
#[derive(Debug, Clone)]
pub struct TemperResult {
    /// Per-replica results, in replica index order.
    pub results: Vec<SaResult>,
    /// Index of the replica with the lowest best h-ASPL (first on ties).
    pub best: usize,
    /// Exchange-move counters.
    pub exchanges: ExchangeStats,
}

impl TemperResult {
    /// The best replica's result.
    pub fn best_result(&self) -> &SaResult {
        &self.results[self.best]
    }
}

/// The per-replica config: rung `k` anneals at the constant temperature
/// `ladder[k]` (geometric cooling degenerates to constant when
/// `t0 == t_end`) with seed `base.seed + k`.
fn replica_cfg(base: &SaConfig, ladder: &[f64], k: usize) -> SaConfig {
    SaConfig {
        t0: ladder[k],
        t_end: ladder[k],
        seed: base.seed.wrapping_add(k as u64),
        ..base.clone()
    }
}

/// A geometric temperature ladder with `rungs` rungs from `hot` down to
/// `cold` (inclusive); the natural choice when acceptance rates should
/// overlap between neighbours.
pub fn geometric_ladder(hot: f64, cold: f64, rungs: usize) -> Vec<f64> {
    let rungs = rungs.max(1);
    if rungs == 1 {
        return vec![hot];
    }
    (0..rungs)
        .map(|k| hot * (cold / hot).powf(k as f64 / (rungs - 1) as f64))
        .collect()
}

/// The running state of a tempering solve: the replicas, the rung
/// permutation, the exchange RNG and the round cursor. Checkpoint
/// encode/decode round-trips all of it bit-exactly.
pub(crate) struct TemperRun {
    replicas: Vec<Annealer>,
    /// `rung[i]` = the ladder rung replica `i` currently holds.
    rung: Vec<u32>,
    xrng: ChaCha8Rng,
    next_round: usize,
    attempted: u64,
    accepted: u64,
    /// Per-adjacent-rung-pair exchange telemetry, indexed by the lower
    /// rung `j` of the pair `(j, j+1)`. Pure observability: deliberately
    /// *not* checkpointed (a resumed run restarts these at zero while
    /// the totals above round-trip exactly), so the stream stays
    /// self-consistent within one process lifetime.
    pair_attempted: Vec<u64>,
    pair_accepted: Vec<u64>,
}

impl TemperRun {
    pub(crate) fn new(
        start: &HostSwitchGraph,
        kind: MoveKind,
        cfg: &SaConfig,
        ladder: &[f64],
        rec: &Recorder,
    ) -> Result<Self, SaError> {
        let _ = kind;
        let mut replicas = Vec::with_capacity(ladder.len());
        for k in 0..ladder.len() {
            let c = replica_cfg(cfg, ladder, k);
            replicas.push(Annealer::new(start.clone(), &c, rec.clone())?);
        }
        let pairs = replicas.len().saturating_sub(1);
        Ok(Self {
            rung: (0..replicas.len() as u32).collect(),
            replicas,
            xrng: ChaCha8Rng::seed_from_u64(cfg.seed ^ EXCHANGE_SEED_SALT),
            next_round: 0,
            attempted: 0,
            accepted: 0,
            pair_attempted: vec![0; pairs],
            pair_accepted: vec![0; pairs],
        })
    }

    fn encode_ckpt(&self, kind: MoveKind, cfg: &SaConfig, ladder: &[f64], enc: &mut Encoder) {
        // Config echo (validated bitwise on resume). `t0`/`t_end` of the
        // base config are not echoed — the ladder replaces them — and
        // `eval_workers`/`search` stay exempt as usual.
        enc.put_u64(cfg.iters as u64);
        enc.put_u64(cfg.seed);
        enc.put_u64(cfg.sample_attempts as u64);
        enc.put_u64(cfg.history_stride as u64);
        enc.put_bool(cfg.early_reject);
        enc.put_u64(ladder.len() as u64);
        for &t in ladder {
            enc.put_f64(t);
        }
        // Cursors and exchange state.
        enc.put_u64(self.next_round as u64);
        enc.put_u32_slice(&self.rung);
        enc.put_u32_slice(&self.xrng.state_words());
        enc.put_u64(self.attempted);
        enc.put_u64(self.accepted);
        // One embedded annealer payload per replica. Each carries its
        // own iteration cursor, so a mid-round cut (replicas at mixed
        // cursors) round-trips exactly.
        for (k, rep) in self.replicas.iter().enumerate() {
            let mut sub = Encoder::new();
            rep.encode_ckpt(kind, &replica_cfg(cfg, ladder, k), &mut sub);
            enc.put_bytes(&sub.into_bytes());
        }
    }

    fn save_ckpt(
        &self,
        kind: MoveKind,
        cfg: &SaConfig,
        ladder: &[f64],
        path: &Path,
    ) -> Result<(), CkptError> {
        let mut enc = Encoder::new();
        self.encode_ckpt(kind, cfg, ladder, &mut enc);
        ckpt::write_checkpoint(path, ckpt::KIND_TEMPER, &enc.into_bytes())
    }

    pub(crate) fn from_ckpt(
        payload: &[u8],
        kind: MoveKind,
        cfg: &SaConfig,
        ladder: &[f64],
        rec: &Recorder,
        instance: (u32, u32, u32),
    ) -> Result<Self, SaError> {
        let bad = |what: &str| SaError::Ckpt(CkptError::BadSection(what.into()));
        let mut dec = Decoder::new(payload);
        let d = |r: Result<u64, CkptError>| r.map_err(SaError::Ckpt);
        let iters = d(dec.get_u64())?;
        let seed = d(dec.get_u64())?;
        let sample_attempts = d(dec.get_u64())?;
        let history_stride = d(dec.get_u64())?;
        let early_reject = dec.get_bool().map_err(SaError::Ckpt)?;
        let n_rungs = d(dec.get_u64())? as usize;
        let mut stored_ladder = Vec::with_capacity(n_rungs.min(payload.len() / 8));
        for _ in 0..n_rungs {
            stored_ladder.push(dec.get_f64().map_err(SaError::Ckpt)?);
        }
        let echo_ok = iters == cfg.iters as u64
            && seed == cfg.seed
            && sample_attempts == cfg.sample_attempts as u64
            && history_stride == cfg.history_stride as u64
            && early_reject == cfg.early_reject
            && stored_ladder.len() == ladder.len()
            && stored_ladder
                .iter()
                .zip(ladder)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !echo_ok {
            return Err(bad(
                "config does not match the checkpoint (iters/seed/sample_attempts/\
                 history_stride/early_reject/ladder must be identical)",
            ));
        }
        let next_round = d(dec.get_u64())? as usize;
        let rung = dec.get_u32_vec().map_err(SaError::Ckpt)?;
        if rung.len() != ladder.len() {
            return Err(bad("rung permutation has the wrong length"));
        }
        let mut sorted = rung.clone();
        sorted.sort_unstable();
        if !sorted.iter().enumerate().all(|(i, &r)| r == i as u32) {
            return Err(bad("rung assignment is not a permutation"));
        }
        let xrng_words = dec.get_u32_vec().map_err(SaError::Ckpt)?;
        let xrng_words: [u32; CHACHA_STATE_WORDS] = xrng_words
            .try_into()
            .map_err(|_| bad("exchange rng state has the wrong length"))?;
        let attempted = d(dec.get_u64())?;
        let accepted = d(dec.get_u64())?;
        let mut replicas = Vec::with_capacity(ladder.len());
        for k in 0..ladder.len() {
            let sub = dec.get_bytes().map_err(SaError::Ckpt)?;
            let c = replica_cfg(cfg, ladder, k);
            replicas.push(Annealer::from_ckpt(sub, kind, &c, rec.clone(), instance)?);
        }
        let pairs = replicas.len().saturating_sub(1);
        Ok(Self {
            replicas,
            rung,
            xrng: ChaCha8Rng::from_state_words(&xrng_words),
            next_round,
            attempted,
            accepted,
            pair_attempted: vec![0; pairs],
            pair_accepted: vec![0; pairs],
        })
    }

    /// One synchronized exchange sweep at a round boundary: adjacent
    /// rung pairs of the round's parity propose to swap temperatures.
    /// One uniform is drawn per pair unconditionally, in rung order, so
    /// the exchange stream is a pure function of the round index.
    fn exchange(&mut self, parity: usize) {
        let k = self.replicas.len();
        // Invert the rung permutation: holder[j] = replica at rung j.
        let mut holder = vec![0usize; k];
        for (i, &r) in self.rung.iter().enumerate() {
            holder[r as usize] = i;
        }
        let mut j = parity % 2;
        while j + 1 < k {
            let (a, b) = (holder[j], holder[j + 1]);
            let draw: f64 = self.xrng.gen();
            self.attempted += 1;
            self.pair_attempted[j] += 1;
            let (ta, tb) = (
                self.replicas[a].temperature(),
                self.replicas[b].temperature(),
            );
            let (ea, eb) = (
                self.replicas[a].cur_metrics().haspl,
                self.replicas[b].cur_metrics().haspl,
            );
            // min(1, exp((βa − βb)(Ea − Eb))); βs are finite because the
            // ladder is validated strictly positive.
            let log_accept = (1.0 / ta - 1.0 / tb) * (ea - eb);
            if log_accept >= 0.0 || draw < log_accept.exp() {
                self.replicas[a].set_temperature(tb);
                self.replicas[b].set_temperature(ta);
                self.rung.swap(a, b);
                self.accepted += 1;
                self.pair_accepted[j] += 1;
            }
            j += 2;
        }
    }

    /// Publishes the live tempering gauges the streaming dashboard
    /// renders: overall and per-adjacent-pair exchange attempt/accept
    /// counts plus every replica's current rung temperature. Gauges are
    /// absolute (last-write-wins), so a flush at any round boundary
    /// shows the up-to-date ensemble without double counting.
    fn publish_gauges(&self, rec: &Recorder) {
        if !rec.is_enabled() {
            return;
        }
        use std::fmt::Write as _;
        rec.gauge("temper.round", self.next_round as f64);
        rec.gauge("temper.exchanges_attempted", self.attempted as f64);
        rec.gauge("temper.exchanges_accepted", self.accepted as f64);
        let mut name = String::with_capacity(32);
        for (j, (&att, &acc)) in self
            .pair_attempted
            .iter()
            .zip(&self.pair_accepted)
            .enumerate()
        {
            name.clear();
            let _ = write!(name, "temper.pair{j}.attempted");
            rec.gauge_dyn(&name, att as f64);
            name.clear();
            let _ = write!(name, "temper.pair{j}.accepted");
            rec.gauge_dyn(&name, acc as f64);
        }
        for (i, rep) in self.replicas.iter().enumerate() {
            name.clear();
            let _ = write!(name, "temper.r{i}.temp");
            rec.gauge_dyn(&name, rep.temperature());
        }
    }

    /// Drives all replicas to completion in synchronized rounds of
    /// `exchange_every` iterations, exchanging at each interior
    /// boundary. On a stall or deterministic cut the whole ensemble is
    /// checkpointed to `ckpt_path` (kind TEMPER) before the error
    /// surfaces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        mut self,
        kind: MoveKind,
        cfg: &SaConfig,
        ladder: &[f64],
        exchange_every: usize,
        ctl: &RunCtl,
        rec: &Recorder,
    ) -> Result<TemperResult, SaError> {
        let span = rec.span("temper.run");
        let exchange_every = exchange_every.max(1);
        // Replicas never checkpoint themselves — the ensemble does.
        // Each gets the shared stream under its own `r{k}.` label so
        // one JSONL file carries the whole ensemble.
        let mut sub_ctl = RunCtl {
            ckpt_path: None,
            every: 0,
            watch: ctl.watch.clone(),
            window_secs: ctl.window_secs,
            stop_after: ctl.stop_after,
            stream: None,
            stream_label: None,
        };
        loop {
            let boundary = ((self.next_round + 1) * exchange_every).min(cfg.iters);
            let mut stalled = None;
            for (k, rep) in self.replicas.iter_mut().enumerate() {
                let c = replica_cfg(cfg, ladder, k);
                sub_ctl.stream = ctl.stream.clone();
                sub_ctl.stream_label = Some(k as u32);
                if let Err(e) = rep.run_range(kind, &c, &sub_ctl, boundary) {
                    stalled = Some(e);
                    break;
                }
            }
            if let Some(e) = stalled {
                // Force-checkpoint the whole ensemble (mid-round cuts
                // are fine: every replica payload has its own cursor).
                let checkpoint = match &ctl.ckpt_path {
                    Some(p) => {
                        self.save_ckpt(kind, cfg, ladder, p)?;
                        Some(p.clone())
                    }
                    None => None,
                };
                return Err(match e {
                    SaError::Stalled {
                        window_secs, iter, ..
                    } => SaError::Stalled {
                        window_secs,
                        iter,
                        checkpoint,
                    },
                    other => other,
                });
            }
            if boundary >= cfg.iters {
                break;
            }
            self.exchange(self.next_round);
            self.next_round += 1;
            // Exchange stats change only here, so a round boundary is
            // the one spot live gauges can go stale — refresh them.
            self.publish_gauges(rec);
            if let Some(path) = &ctl.ckpt_path {
                if ctl.every > 0 && self.next_round.is_multiple_of(ctl.every) {
                    self.save_ckpt(kind, cfg, ladder, path)
                        .map_err(SaError::Ckpt)?;
                }
            }
        }
        // Final save before the replicas are consumed.
        if let Some(path) = &ctl.ckpt_path {
            if ctl.every > 0 {
                self.save_ckpt(kind, cfg, ladder, path)
                    .map_err(SaError::Ckpt)?;
            }
        }
        self.publish_gauges(rec);
        let mut results = Vec::with_capacity(self.replicas.len());
        for (k, rep) in self.replicas.into_iter().enumerate() {
            let c = replica_cfg(cfg, ladder, k);
            let finish_ctl = RunCtl {
                stream: ctl.stream.clone(),
                stream_label: Some(k as u32),
                ..RunCtl::default()
            };
            results.push(rep.finish(kind, &c, &finish_ctl)?);
        }
        let best = results
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.metrics.haspl.total_cmp(&b.metrics.haspl))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if rec.is_enabled() {
            rec.incr("temper.exchanges_attempted", self.attempted);
            rec.incr("temper.exchanges_accepted", self.accepted);
        }
        drop(span);
        Ok(TemperResult {
            results,
            best,
            exchanges: ExchangeStats {
                attempted: self.attempted,
                accepted: self.accepted,
            },
        })
    }
}

/// Builder-style entry point for a parallel-tempering run, consistent
/// with [`crate::anneal::Anneal`].
///
/// ```
/// use orp_core::temper::{geometric_ladder, Temper};
/// use orp_core::anneal::{MoveKind, SaConfig};
/// use orp_core::construct::random_general;
///
/// let start = random_general(64, 16, 8, 1).unwrap();
/// let res = Temper::builder(start)
///     .kind(MoveKind::TwoNeighborSwing)
///     .config(SaConfig::builder().iters(200).seed(1).build())
///     .ladder(geometric_ladder(0.02, 1e-4, 3))
///     .exchange_every(50)
///     .run()
///     .unwrap();
/// assert_eq!(res.results.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Temper {
    /// The graph every replica of a fresh run starts from; `None` only
    /// for [`Temper::resuming`].
    start: Option<HostSwitchGraph>,
    /// `(hosts, switches, radix)` a resumed checkpoint must hold.
    instance: (u32, u32, u32),
    kind: MoveKind,
    cfg: SaConfig,
    ladder: Vec<f64>,
    exchange_every: usize,
    rec: Recorder,
    ckpt: Option<PathBuf>,
    every_rounds: usize,
    resume: Option<PathBuf>,
    watchdog: Option<WatchdogConfig>,
    stream: Option<StreamSink>,
}

impl Temper {
    /// Starts a builder tempering `start` with the defaults: the
    /// 2-neighbor swing neighbourhood, a 4-rung geometric ladder from
    /// `cfg.t0` down to `cfg.t_end`, an exchange every 1000 iterations.
    pub fn builder(start: HostSwitchGraph) -> Self {
        let instance = instance_of(&start);
        Self::with_start(Some(start), instance)
    }

    /// A builder that resumes from the ensemble checkpoint at `path`
    /// without a start graph; the checkpoint must hold `instance`'s
    /// `(hosts, switches, radix)`.
    pub(crate) fn resuming(path: PathBuf, instance: (u32, u32, u32)) -> Self {
        Self::with_start(None, instance).resume_from(path)
    }

    fn with_start(start: Option<HostSwitchGraph>, instance: (u32, u32, u32)) -> Self {
        Self {
            start,
            instance,
            kind: MoveKind::TwoNeighborSwing,
            cfg: SaConfig::default(),
            ladder: Vec::new(),
            exchange_every: 1000,
            rec: Recorder::disabled(),
            ckpt: None,
            every_rounds: 1,
            resume: None,
            watchdog: None,
            stream: None,
        }
    }

    /// Which neighbourhood each replica explores.
    pub fn kind(mut self, kind: MoveKind) -> Self {
        self.kind = kind;
        self
    }

    /// Shared schedule knobs. `t0`/`t_end` only seed the default ladder
    /// (see [`Temper::ladder`]); replica `k` runs at the constant
    /// temperature of its current rung.
    pub fn config(mut self, cfg: SaConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Explicit temperature ladder; one replica per rung. Every rung
    /// must be finite and strictly positive. When unset, a 4-rung
    /// [`geometric_ladder`] from `cfg.t0` to `cfg.t_end` is used.
    pub fn ladder(mut self, ladder: Vec<f64>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Iterations between exchange attempts (minimum 1).
    pub fn exchange_every(mut self, every: usize) -> Self {
        self.exchange_every = every;
        self
    }

    /// Attaches a telemetry recorder.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Enables crash-safe ensemble checkpointing to `path` (kind
    /// [`ckpt::KIND_TEMPER`]), saved at round boundaries.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.ckpt = Some(path.into());
        self
    }

    /// Checkpoint stride in *rounds* (default 1; 0 disables periodic
    /// saves while keeping stall force-checkpoints).
    pub fn checkpoint_every_rounds(mut self, rounds: usize) -> Self {
        self.every_rounds = rounds;
        self
    }

    /// Resumes from an ensemble checkpoint previously written by this
    /// builder: the replicas continue from the checkpoint's graphs, not
    /// the start graph, which only names the instance. The config and
    /// ladder must match bitwise; `eval_workers`/`search` may differ
    /// (pure wall-clock/memory knobs). Every replica's graph must have
    /// the start graph's hosts, switches and radix, or the run fails
    /// with [`SaError::InstanceMismatch`].
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Arms a stall watchdog over the whole ensemble: if no replica
    /// iteration completes within `cfg.window`, the run force-checkpoints
    /// (when a path is set) and returns [`SaError::Stalled`].
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    /// Attaches a live metrics stream shared by the whole ensemble:
    /// replica `k` publishes its gauges under the `r{k}.` prefix and
    /// exchange statistics refresh at every round boundary. No-op
    /// unless a recorder is also attached.
    pub fn stream(mut self, sink: StreamSink) -> Self {
        self.stream = Some(sink);
        self
    }

    fn effective_ladder(&self) -> Result<Vec<f64>, SaError> {
        let ladder = if self.ladder.is_empty() {
            geometric_ladder(self.cfg.t0, self.cfg.t_end.max(1e-12), 4)
        } else {
            self.ladder.clone()
        };
        if !ladder.iter().all(|t| t.is_finite() && *t > 0.0) {
            return Err(SaError::Ckpt(CkptError::BadSection(
                "temperature ladder must be finite and strictly positive".into(),
            )));
        }
        Ok(ladder)
    }

    /// Runs the ensemble (resuming first if configured).
    pub fn run(self) -> Result<TemperResult, SaError> {
        let ladder = self.effective_ladder()?;
        let run = match &self.resume {
            Some(p) => {
                let payload = ckpt::read_checkpoint(p, ckpt::KIND_TEMPER)?;
                TemperRun::from_ckpt(
                    &payload,
                    self.kind,
                    &self.cfg,
                    &ladder,
                    &self.rec,
                    self.instance,
                )?
            }
            None => {
                let start = self
                    .start
                    .as_ref()
                    .expect("a builder without a start graph resumes");
                TemperRun::new(start, self.kind, &self.cfg, &ladder, &self.rec)?
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
            ckpt_path: self.ckpt.clone(),
            every: self.every_rounds,
            watch: wd.as_ref().map(Watchdog::handle),
            window_secs,
            stop_after: None,
            stream: self.stream.clone(),
            stream_label: None,
        };
        run.run(
            self.kind,
            &self.cfg,
            &ladder,
            self.exchange_every,
            &ctl,
            &self.rec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::random_general;
    use crate::metrics::path_metrics;

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
    fn geometric_ladder_spans_hot_to_cold() {
        let l = geometric_ladder(0.1, 1e-4, 4);
        assert_eq!(l.len(), 4);
        assert!((l[0] - 0.1).abs() < 1e-15);
        assert!((l[3] - 1e-4).abs() < 1e-12);
        for w in l.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(geometric_ladder(0.1, 1e-4, 1), vec![0.1]);
    }

    #[test]
    fn tempering_improves_and_is_reproducible() {
        let start = random_general(64, 16, 8, 7).unwrap();
        let before = path_metrics(&start).unwrap();
        let run = |_| {
            Temper::builder(start.clone())
                .config(small_cfg(400))
                .ladder(geometric_ladder(0.02, 1e-4, 3))
                .exchange_every(50)
                .run()
                .unwrap()
        };
        let a = run(());
        let b = run(());
        assert_eq!(a.results.len(), 3);
        assert!(a.best_result().metrics.haspl <= before.haspl);
        a.best_result().graph.validate().unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.exchanges, b.exchanges);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.accepted, y.accepted);
        }
    }

    #[test]
    fn exchanges_actually_happen() {
        let start = random_general(64, 16, 8, 3).unwrap();
        let res = Temper::builder(start)
            .config(small_cfg(600))
            // A tight ladder keeps neighbouring acceptance rates close,
            // so swaps are frequent.
            .ladder(vec![0.02, 0.018, 0.016])
            .exchange_every(25)
            .run()
            .unwrap();
        assert!(res.exchanges.attempted >= 20);
        assert!(res.exchanges.accepted > 0);
        assert!(res.exchanges.accepted <= res.exchanges.attempted);
    }

    #[test]
    fn single_rung_matches_constant_temperature_anneal() {
        // K = 1 degenerates to a plain constant-temperature annealing
        // run with the same derived seed — bit-identical.
        let start = random_general(48, 12, 8, 5).unwrap();
        let cfg = small_cfg(300);
        let t = 0.01;
        let temper = Temper::builder(start.clone())
            .config(cfg.clone())
            .ladder(vec![t])
            .exchange_every(50)
            .run()
            .unwrap();
        let plain = crate::anneal::Anneal::builder(start)
            .config(SaConfig {
                t0: t,
                t_end: t,
                ..cfg
            })
            .run()
            .unwrap();
        assert_eq!(temper.results.len(), 1);
        assert_eq!(temper.exchanges.attempted, 0);
        assert_eq!(temper.results[0].graph, plain.graph);
        assert_eq!(temper.results[0].metrics, plain.metrics);
        assert_eq!(temper.results[0].accepted, plain.accepted);
    }

    #[test]
    fn worker_count_does_not_change_tempering() {
        let start = random_general(64, 16, 8, 9).unwrap();
        let run = |workers| {
            Temper::builder(start.clone())
                .config(SaConfig {
                    eval_workers: Some(workers),
                    ..small_cfg(300)
                })
                .ladder(geometric_ladder(0.02, 1e-3, 3))
                .exchange_every(40)
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.best, b.best);
        assert_eq!(a.exchanges, b.exchanges);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.metrics, y.metrics);
        }
    }

    #[test]
    fn rejects_bad_ladders() {
        let start = random_general(48, 12, 8, 1).unwrap();
        for ladder in [vec![0.0, 0.1], vec![-0.1], vec![f64::NAN]] {
            let err = Temper::builder(start.clone())
                .config(small_cfg(50))
                .ladder(ladder)
                .run()
                .unwrap_err();
            assert!(matches!(err, SaError::Ckpt(CkptError::BadSection(_))));
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("orp_temper_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The tempering resume invariant: a run cut at *any* iteration —
    /// including mid-round, with replicas at mixed cursors — and resumed
    /// from its forced ensemble checkpoint finishes bit-identical to the
    /// uninterrupted run.
    #[test]
    fn interrupted_tempering_resumes_bit_identically() {
        let dir = temp_dir("resume");
        let path = dir.join("run.ckpt");
        let cfg = small_cfg(300);
        let ladder = geometric_ladder(0.02, 1e-3, 3);
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let reference = Temper::builder(start.clone())
            .config(cfg.clone())
            .ladder(ladder.clone())
            .exchange_every(50)
            .run()
            .unwrap();
        // Cut mid-round (73) and at a round boundary (100).
        for cut in [73usize, 100, 151] {
            let run = TemperRun::new(
                &start,
                MoveKind::TwoNeighborSwing,
                &cfg,
                &ladder,
                &Recorder::disabled(),
            )
            .unwrap();
            let ctl = RunCtl {
                ckpt_path: Some(path.clone()),
                every: 1,
                stop_after: Some(cut),
                ..Default::default()
            };
            let err = run
                .run(
                    MoveKind::TwoNeighborSwing,
                    &cfg,
                    &ladder,
                    50,
                    &ctl,
                    &Recorder::disabled(),
                )
                .unwrap_err();
            assert!(matches!(err, SaError::Stalled { iter, .. } if iter == cut as u64));
            let resumed = Temper::builder(start.clone())
                .config(cfg.clone())
                .ladder(ladder.clone())
                .exchange_every(50)
                .resume_from(&path)
                .run()
                .unwrap();
            assert_eq!(resumed.best, reference.best, "cut at {cut}");
            assert_eq!(resumed.exchanges, reference.exchanges, "cut at {cut}");
            for (x, y) in resumed.results.iter().zip(&reference.results) {
                assert_eq!(x.graph, y.graph, "cut at {cut}");
                assert_eq!(
                    x.metrics.haspl.to_bits(),
                    y.metrics.haspl.to_bits(),
                    "cut at {cut}"
                );
                assert_eq!(x.accepted, y.accepted, "cut at {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_ladder_and_config() {
        let dir = temp_dir("reject");
        let path = dir.join("run.ckpt");
        let cfg = small_cfg(200);
        let ladder = geometric_ladder(0.02, 1e-3, 3);
        let start = random_general(48, 12, 8, cfg.seed).unwrap();
        let run = TemperRun::new(
            &start,
            MoveKind::TwoNeighborSwing,
            &cfg,
            &ladder,
            &Recorder::disabled(),
        )
        .unwrap();
        let ctl = RunCtl {
            ckpt_path: Some(path.clone()),
            every: 1,
            stop_after: Some(100),
            ..Default::default()
        };
        run.run(
            MoveKind::TwoNeighborSwing,
            &cfg,
            &ladder,
            50,
            &ctl,
            &Recorder::disabled(),
        )
        .unwrap_err();
        // Different ladder.
        let err = Temper::builder(start.clone())
            .config(cfg.clone())
            .ladder(geometric_ladder(0.02, 1e-3, 4))
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, SaError::Ckpt(CkptError::BadSection(_))));
        // Different seed.
        let err = Temper::builder(start)
            .config(SaConfig {
                seed: cfg.seed + 1,
                ..cfg
            })
            .ladder(ladder)
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, SaError::Ckpt(CkptError::BadSection(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
