//! The annealing evaluation engine: a [`SearchState`] that owns the graph
//! and every derived structure the local search needs, keeps them all in
//! sync through a transactional apply/score/commit/rollback API, and
//! evaluates h-ASPL with a bit-parallel batched BFS over reusable scratch
//! so that steady-state annealing performs **zero heap allocation and zero
//! full rebuilds per proposal**.
//!
//! # Why
//!
//! The original annealer rebuilt a [`SwitchCsr`] and the host-count vector
//! from the graph on every proposal (`O(m + L)` of pure allocation and
//! copying before a single BFS step ran) and hand-mirrored every
//! `EdgeSet::remove`/`insert` in each of the three move kinds — a classic
//! source of drift bugs. Here the graph, the CSR, the host counts, and the
//! [`EdgeSet`] live behind one API; a move is applied exactly once and
//! every structure follows.
//!
//! # Transactions
//!
//! [`SearchState::begin`] opens a transaction; [`SearchState::apply_swap`]
//! and [`SearchState::apply_swing`] mutate all owned structures and append
//! to an undo log; [`SearchState::rollback`] replays the log backwards to
//! the matching `begin`, and [`SearchState::commit`] forgets it.
//! Transactions nest, which is exactly what the 2-neighbor swing of §5.2
//! needs: apply the first swing, score, and on rejection stack a second
//! swing on top before deciding the fate of both.
//!
//! # Evaluation
//!
//! [`SearchState::evaluate`] runs a *batched* BFS: 64 sources advance
//! together, one bit per source in a `u64` frontier mask per switch. Per
//! level every switch ORs its neighbours' frontier masks — with the tiny
//! diameters of ORP solutions (3–5) the whole sweep touches each adjacency
//! list a handful of times instead of once per source, which is roughly an
//! order of magnitude faster than source-at-a-time BFS even before
//! threading.
//!
//! # Incremental delta evaluation
//!
//! On cache-eligible instances (see [`SearchConfig`]) the engine keeps a
//! **per-source distance cache**: an `m × m` matrix of hop counts plus
//! per-source aggregates (host-weighted path sums, per-distance
//! hostful-switch histograms, eccentricities). A swap or swing perturbs at
//! most three switch links, and the *exact* set of sources whose distance
//! vector changes is computable from the cached rows alone:
//!
//! * an **added** link `{u, v}` changes the distances from `s` iff
//!   `|d(s,u) − d(s,v)| ≥ 2` (the shortcut strictly improves the farther
//!   endpoint, and only then can anything downstream improve);
//! * a **removed** link `{u, v}` with `d(s,u) + 1 = d(s,v)` changes the
//!   distances from `s` iff `v` has no *other* surviving neighbour `w`
//!   with `d(s,w) = d(s,u)` — an alternate BFS parent keeps `d(s,v)` and
//!   therefore every distance below it intact; if `d(s,u) = d(s,v)` the
//!   link lies on no shortest path at all.
//!
//! The classification is a handful of `O(m)` whole-row passes: one per
//! added link, one per removed link, and — when at most one link is
//! added, so the early-reject guard can use the result — `deg(u) +
//! deg(v)` witness passes per removed link `{u, v}`. Each pass runs over
//! plain `&[u8]` row slices, so its branch-free body vectorizes. The
//! affected sources are repaired in place (decremental re-relaxation
//! for the removals, then insertion relaxation for the adds); only
//! invalid rows are re-swept in 64-wide batches, and everything else
//! is scored from the cached
//! aggregates in `O(m)`. Edge deltas accumulate *lazily* (rollback
//! pushes the inverse delta, so a rejected proposal that never
//! re-evaluated cancels to a no-op), and the full sweep remains both the
//! fallback (over-budget `m`, deep graphs) and the correctness oracle of
//! the equivalence suites.
//!
//! # Rows and memory budget
//!
//! A cache row stores one `u8` per switch: distances up to 63, and
//! `0xFF` for an unreachable switch, so the cache of a Graph-Golf-scale
//! instance (`n = 65536`) fits in about 4 GiB. ORP diameters are
//! single-digit, so the cap never binds on real searches; a finite
//! distance of 64 or more releases the cache to the plain sweep. The
//! cache is built when [`SearchConfig::cache_bytes`] fits the memory
//! budget, the engine's only cache knob.
//!
//! Inside a transaction every cache write is undo-logged entry by entry:
//! a row's header (validity and aggregates) the first time an evaluation
//! writes it, then `(v, d_old)` per overwritten entry. A repair changes a
//! handful of entries per row, so a rejected proposal costs
//! `O(entries changed)` to log and to roll back at any `m`. The header
//! aggregates are those of the evaluation's host counts, so a rollback
//! restores the logged rows at the evaluation's place in the undo log —
//! after undoing every later host move, before any earlier one.
//!
//! # Sharded parallel repair
//!
//! Re-BFS batches **and** per-source repairs of one evaluation form one
//! job, and one task function runs each of its tasks on a worker's
//! scratch. With a single worker, or a job too small to pay for a
//! wake-up, the evaluating thread runs the tasks inline in order. On the
//! persistent worker pool each worker owns one claim cursor (an
//! `AtomicUsize`): the publisher points it at the start of the worker's
//! contiguous shard of the task list, the worker claims its shard with
//! `fetch_add`, then claims the rest of each sibling's shard through the
//! sibling's cursor. Every repair touches only its own source's row,
//! aggregates, and flags, so workers never contend on data; sweep sums
//! are integer sums and the worker-local undo logs are merged in source
//! order afterwards, which keeps the result bit-identical for every
//! worker count and schedule.

use crate::error::GraphError;
use crate::graph::{Host, HostSwitchGraph, Switch};
use crate::metrics::{finalize_metrics, PathMetrics, SwitchCsr};
use crate::ops::{EdgeSet, Swap, Swing};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Switch count from which the auto heuristic turns on threaded
/// evaluation (when more than one CPU is available).
pub const PARALLEL_SWITCH_THRESHOLD: u32 = 256;

/// Distance cap of the cache rows and stride of the per-source
/// histograms: a finite distance reaching it permanently disables the
/// cache for the instance (ORP graphs have single-digit diameters, so
/// this only triggers on degenerate path-like inputs).
const MAX_DIST: usize = 64;

/// Row entry marking an unreachable switch.
const INVALID_DIST: u8 = u8::MAX;

/// `−ln` of the Metropolis acceptance probability below which guarded
/// evaluation may early-reject without running a BFS
/// (`exp(−40) ≈ 4·10⁻¹⁸`, far below one draw in a lifetime of runs).
pub const EARLY_REJECT_LOG: f64 = 40.0;

/// Default [`SearchConfig::memory_budget_bytes`]: 8 GiB, about twice
/// what the cache needs at m = 65536 switches, so the whole Graph-Golf
/// range runs cached out of the box.
pub const DEFAULT_CACHE_BUDGET: usize = 1 << 33;

/// Minimum combined task count (sweep batches + repairs) before a
/// cached evaluation engages the worker pool; below it the condvar
/// round trip costs more than the work.
const POOL_TASK_THRESHOLD: usize = 32;

/// The automatic evaluation worker count (`SaConfig::eval_workers:
/// None`): every CPU when `m >=` [`PARALLEL_SWITCH_THRESHOLD`] and the
/// machine has more than one, else 1.
pub fn resolve_parallel_eval(num_switches: u32) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    if num_switches >= PARALLEL_SWITCH_THRESHOLD && cpus > 1 {
        cpus
    } else {
        1
    }
}

// ---- search configuration ----------------------------------------------

/// Tunables of the evaluation engine, surfaced through
/// `Solver::builder()` and `orp solve --mem-budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Upper bound on the distance cache's bulk allocation (see
    /// [`SearchConfig::cache_bytes`]); an instance whose cache would
    /// exceed it runs uncached, so a budget of 0 turns the cache off.
    pub memory_budget_bytes: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: DEFAULT_CACHE_BUDGET,
        }
    }
}

impl SearchConfig {
    /// A config that disables the distance cache entirely (budget 0):
    /// every evaluation is a full sweep.
    pub fn off() -> Self {
        Self {
            memory_budget_bytes: 0,
        }
    }

    /// Bytes of bulk storage the distance cache needs for `m` switches:
    /// one byte per row entry, plus each source's histogram and
    /// aggregates.
    pub fn cache_bytes(m: usize) -> usize {
        m.saturating_mul(m)
            .saturating_add(m.saturating_mul(MAX_DIST * 4 + 14))
    }

    /// Whether this config provisions the distance cache for an
    /// `m`-switch instance: at least two switches, and
    /// [`Self::cache_bytes`] within the budget.
    pub fn cache_fits(&self, m: usize) -> bool {
        m >= 2 && Self::cache_bytes(m) <= self.memory_budget_bytes
    }
}

/// Fixed-capacity CSR adjacency, edited in place on every link change
/// instead of rebuilt from the graph: switch `s` owns slots
/// `[s·r, s·r + deg(s))` of a flat array (`r` = radix), so adding or
/// removing a link is `O(r)` with no allocation.
#[derive(Debug, Clone)]
pub struct SlotCsr {
    radix: usize,
    deg: Vec<u32>,
    slots: Vec<u32>,
}

impl SlotCsr {
    /// Builds the slotted adjacency from a graph.
    pub fn from_graph(g: &HostSwitchGraph) -> Self {
        let m = g.num_switches() as usize;
        let radix = g.radix() as usize;
        let mut csr = Self {
            radix,
            deg: vec![0; m],
            slots: vec![u32::MAX; m * radix],
        };
        for s in 0..m as u32 {
            for &t in g.neighbors(s) {
                let d = &mut csr.deg[s as usize];
                csr.slots[s as usize * radix + *d as usize] = t;
                *d += 1;
            }
        }
        csr
    }

    /// Number of switches.
    #[inline]
    pub fn len(&self) -> usize {
        self.deg.len()
    }

    /// Whether there are no switches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deg.is_empty()
    }

    /// Switch neighbours of `s` (unsorted).
    #[inline]
    pub fn neighbors(&self, s: Switch) -> &[u32] {
        let base = s as usize * self.radix;
        &self.slots[base..base + self.deg[s as usize] as usize]
    }

    #[inline]
    fn push(&mut self, s: Switch, t: Switch) {
        let d = &mut self.deg[s as usize];
        debug_assert!((*d as usize) < self.radix, "slot overflow at switch {s}");
        self.slots[s as usize * self.radix + *d as usize] = t;
        *d += 1;
    }

    #[inline]
    fn pull(&mut self, s: Switch, t: Switch) {
        let base = s as usize * self.radix;
        let d = self.deg[s as usize] as usize;
        let row = &mut self.slots[base..base + d];
        let pos = row.iter().position(|&x| x == t).expect("neighbor present");
        row[pos] = row[d - 1];
        self.deg[s as usize] -= 1;
    }

    /// Records the new link `{a, b}` (`O(1)`).
    #[inline]
    pub fn add_link(&mut self, a: Switch, b: Switch) {
        self.push(a, b);
        self.push(b, a);
    }

    /// Drops the link `{a, b}` (`O(r)`).
    #[inline]
    pub fn remove_link(&mut self, a: Switch, b: Switch) {
        self.pull(a, b);
        self.pull(b, a);
    }
}

/// Reusable buffers for one evaluation worker: three `u64` frontier masks
/// per switch. Allocated once, reused by every proposal.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    cur: Vec<u64>,
    next: Vec<u64>,
    seen: Vec<u64>,
}

impl EvalScratch {
    fn reset(&mut self, m: usize) {
        self.cur.clear();
        self.cur.resize(m, 0);
        self.next.clear();
        self.next.resize(m, 0);
        self.seen.clear();
        self.seen.resize(m, 0);
    }
}

/// Partial result of sweeping one batch of sources.
#[derive(Debug, Clone, Copy, Default)]
struct BatchSums {
    /// Σ `k_a·k_b·(d+2)` over ordered hostful pairs with source in batch.
    weighted: u64,
    /// Max inter-switch distance seen from this batch's sources.
    max_d: u32,
    /// Hostful switches reached, summed over the batch's sources
    /// (each source counts itself). Detects disconnection.
    reached: u64,
}

impl BatchSums {
    #[inline]
    fn absorb(&mut self, b: BatchSums) {
        self.weighted += b.weighted;
        self.max_d = self.max_d.max(b.max_d);
        self.reached += b.reached;
    }
}

/// Sweeps sources `srcs[lo..hi]` (at most 64) in lockstep: bit `i` of a
/// mask tracks source `srcs[lo + i]`.
fn sweep_batch(
    csr: &SlotCsr,
    counts: &[u32],
    srcs: &[u32],
    scratch: &mut EvalScratch,
) -> BatchSums {
    debug_assert!(!srcs.is_empty() && srcs.len() <= 64);
    let m = csr.len();
    scratch.reset(m);
    let mut k_src = [0u64; 64];
    for (i, &s) in srcs.iter().enumerate() {
        scratch.cur[s as usize] = 1 << i;
        scratch.seen[s as usize] = 1 << i;
        k_src[i] = counts[s as usize] as u64;
    }
    let mut sums = BatchSums {
        reached: srcs.len() as u64,
        ..Default::default()
    };
    let mut depth = 0u64;
    loop {
        depth += 1;
        let mut active = false;
        for (v, &kv) in counts.iter().enumerate().take(m) {
            let mut gather = 0u64;
            for &u in csr.neighbors(v as u32) {
                gather |= scratch.cur[u as usize];
            }
            let new = gather & !scratch.seen[v];
            scratch.next[v] = new;
            if new != 0 {
                scratch.seen[v] |= new;
                active = true;
                let kv = kv as u64;
                if kv > 0 {
                    sums.max_d = sums.max_d.max(depth as u32);
                    sums.reached += new.count_ones() as u64;
                    let mut bits = new;
                    let mut batch_k = 0u64;
                    while bits != 0 {
                        batch_k += k_src[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                    sums.weighted += batch_k * kv * (depth + 2);
                }
            }
        }
        if !active {
            return sums;
        }
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
    }
}

// ---- distance cache ----------------------------------------------------

/// Undo-log header of one row: its state just before an in-transaction
/// evaluation first wrote it. The row's overwritten entries follow in
/// the owning entry log, from `start` up to the next header's `start`.
#[derive(Debug, Clone, Copy)]
struct RowUndo {
    s: u32,
    was_valid: bool,
    ecc: u8,
    nreach: u32,
    wsum: u64,
    start: usize,
}

impl RowUndo {
    /// Captures the header of row `s`, whose entries will be logged
    /// from `start` on.
    ///
    /// # Safety
    /// The caller must own source `s` for the duration of the job.
    #[inline]
    unsafe fn capture(c: &CachePtrs, s: usize, start: usize) -> Self {
        Self {
            s: s as u32,
            was_valid: *c.valid.add(s),
            ecc: *c.ecc.add(s),
            nreach: *c.nreach.add(s),
            wsum: *c.wsum.add(s),
            start,
        }
    }
}

/// One logged entry write: `(v, d_old)`.
type EntryUndo = (u32, u8);

/// Raw views into the cache arrays, so one sweep/repair implementation
/// serves both the sequential path and the worker pool (each task writes
/// only the row and aggregates of its own sources, which are disjoint).
#[derive(Debug, Clone, Copy)]
struct CachePtrs {
    rows: *mut u8,
    wsum: *mut u64,
    hist: *mut u32,
    ecc: *mut u8,
    nreach: *mut u32,
    valid: *mut bool,
    m: usize,
}

// SAFETY: the pointers are only dereferenced for sources assigned to the
// holder, and distinct workers are assigned disjoint sources.
unsafe impl Send for CachePtrs {}
unsafe impl Sync for CachePtrs {}

impl CachePtrs {
    /// Reads entry `(s, v)`.
    ///
    /// # Safety
    /// The caller must own source `s` for the duration of the job.
    #[inline]
    unsafe fn get(&self, s: usize, v: usize) -> u8 {
        *self.rows.add(s * self.m + v)
    }

    /// Writes entry `(s, v)`.
    ///
    /// # Safety
    /// The caller must own source `s` for the duration of the job.
    #[inline]
    unsafe fn set(&self, s: usize, v: usize, d: u8) {
        *self.rows.add(s * self.m + v) = d
    }

    /// Fills row `s` with the unreachable marker.
    ///
    /// # Safety
    /// The caller must own source `s` for the duration of the job.
    #[inline]
    unsafe fn fill_invalid(&self, s: usize) {
        std::ptr::write_bytes(self.rows.add(s * self.m), INVALID_DIST, self.m)
    }
}

/// As [`sweep_batch`], but additionally fills the cache row and
/// per-source aggregates of every swept source. Returns `false` when
/// some switch lies at the cache's distance cap (the cache must be
/// disabled).
fn sweep_batch_cached(
    csr: &SlotCsr,
    counts: &[u32],
    srcs: &[u32],
    scratch: &mut EvalScratch,
    c: &CachePtrs,
) -> bool {
    debug_assert!(!srcs.is_empty() && srcs.len() <= 64);
    let m = csr.len();
    debug_assert_eq!(m, c.m);
    scratch.reset(m);
    // SAFETY: every source in `srcs` is owned by this batch; rows and
    // per-source aggregates of distinct sources never alias.
    unsafe {
        for &s in srcs {
            let s = s as usize;
            c.fill_invalid(s);
            c.set(s, s, 0);
        }
    }
    for (i, &s) in srcs.iter().enumerate() {
        scratch.cur[s as usize] = 1 << i;
        scratch.seen[s as usize] = 1 << i;
    }
    let mut depth = 0usize;
    loop {
        depth += 1;
        let mut active = false;
        for v in 0..m {
            let mut gather = 0u64;
            for &u in csr.neighbors(v as u32) {
                gather |= scratch.cur[u as usize];
            }
            let new = gather & !scratch.seen[v];
            scratch.next[v] = new;
            if new != 0 {
                scratch.seen[v] |= new;
                active = true;
                let mut bits = new;
                while bits != 0 {
                    let s = srcs[bits.trailing_zeros() as usize] as usize;
                    bits &= bits - 1;
                    // SAFETY: `s` belongs to this batch (see above).
                    unsafe {
                        c.set(s, v, depth as u8);
                    }
                }
            }
        }
        if !active {
            break;
        }
        if depth >= MAX_DIST {
            // a non-empty level at the cap: the rows cannot hold it
            return false;
        }
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
    }
    // Aggregates come from a sequential post-pass over each finished
    // row — far cheaper than scalar updates inside the frontier bit
    // loop above, which would cost one scattered read-modify-write per
    // (source, switch) pair.
    // SAFETY: as above.
    unsafe {
        for &s in srcs {
            recompute_aggregates_ptr(c, s as usize, counts);
            *c.valid.add(s as usize) = true;
        }
    }
    true
}

/// Rebuilds the aggregates of source `s` from its stored row: a single
/// sequential pass shared by the sweep workers and the repair path.
///
/// # Safety
/// The caller must own source `s` (no other thread may touch its row or
/// aggregate slots), and the row must be fully written.
unsafe fn recompute_aggregates_ptr(c: &CachePtrs, s: usize, counts: &[u32]) {
    let m = c.m;
    let hist = std::slice::from_raw_parts_mut(c.hist.add(s * MAX_DIST), MAX_DIST);
    hist.fill(0);
    let mut wsum = 0u64;
    let mut nreach = 0u32;
    let mut ecc = 0u8;
    for (v, &kv) in counts.iter().enumerate().take(m) {
        let d = c.get(s, v);
        if v == s || d == INVALID_DIST || kv == 0 {
            continue;
        }
        wsum += kv as u64 * (d as u64 + 2);
        hist[d as usize] += 1;
        nreach += 1;
        ecc = ecc.max(d);
    }
    *c.wsum.add(s) = wsum;
    *c.nreach.add(s) = nreach;
    *c.ecc.add(s) = ecc;
}

/// The per-source distance cache: one row per switch (hop counts to
/// every other switch, one byte each) plus the aggregates that let a
/// proposal be scored without re-visiting unaffected rows.
///
/// Invariants (for every row with `valid[s]`):
/// * row `s` holds the hop distances of the graph **minus the pending
///   [`DistCache::edge_delta`]** — rows are only refreshed inside
///   `evaluate`, edge mutations between evaluations just accumulate;
/// * `wsum[s] = Σ_{v≠s, k_v>0, reachable} k_v·(d(s,v)+2)`,
///   `hist[s][d] = #{v≠s : k_v>0, d(s,v)=d}`, `nreach[s] = Σ_d hist[s][d]`
///   and `ecc[s] = max{d : hist[s][d]>0}` — all wrt the row *as stored*
///   and the **current** host counts (host moves adjust them eagerly and
///   reversibly in `O(valid rows)`).
#[derive(Debug)]
struct DistCache {
    m: usize,
    /// Row `s` is `rows[s·m..(s+1)·m]`; [`INVALID_DIST`] marks an
    /// unreachable switch.
    rows: Vec<u8>,
    valid: Vec<bool>,
    wsum: Vec<u64>,
    hist: Vec<u32>,
    ecc: Vec<u8>,
    nreach: Vec<u32>,
    /// Net link changes since the rows were last refreshed, as
    /// `(a, b, net)` with `a < b`; entries cancelling to net 0 are
    /// dropped, so a rolled-back proposal leaves no trace.
    edge_delta: Vec<(Switch, Switch, i32)>,
    /// Set when a sweep or repair overflowed the distance cap; the
    /// engine then falls back to full sweeps forever.
    disabled: bool,
    // -- transactional undo log --------------------------------------
    /// Headers of the rows in-transaction evaluations rewrote, in
    /// write order; an [`UndoOp::RewroteRows`] on the engine's undo log
    /// names where each evaluation's headers begin.
    undo_rows: Vec<RowUndo>,
    /// Entries backing [`Self::undo_rows`], one per overwrite.
    undo_entries: Vec<EntryUndo>,
    /// [`Self::edge_delta`] at each open `begin`, stacked flat and
    /// restored wholesale on rollback (the restored rows match the
    /// restored graph, so the inverse notes pushed by undo replay are
    /// discarded).
    saved_deltas: Vec<(Switch, Switch, i32)>,
    /// `saved_deltas` boundary per open transaction level.
    delta_marks: Vec<usize>,
    // -- scan scratch (never undo-logged) ---------------------------
    /// Per-source classification bits (`ADD_AFF` / `DEL_AFF` /
    /// `NO_STRICT`).
    flags: Vec<u8>,
    /// Per-removal shortest-path-side marker (0 = not on one, 1 = far
    /// endpoint is `v`, 2 = far endpoint is `u`).
    wneed: Vec<u8>,
    /// Per-removal witness bits (bit 0: any witness, bit 1: witness not
    /// using an added link).
    wit: Vec<u8>,
    /// `max(k_far)` over witness-less removals, per source.
    strict: Vec<u32>,
    /// Rows the last repair pass actually rewrote —
    /// conservatively-routed rows a surviving witness protected are
    /// excluded, so the affected-row statistics stay meaningful.
    touched: u32,
}

/// [`DistCache::flags`] bit: some added link can shorten this source.
const ADD_AFF: u8 = 1;
/// [`DistCache::flags`] bit: some removed link lengthens this source
/// (it was on a shortest path and no alternate parent survives).
const DEL_AFF: u8 = 2;
/// [`DistCache::flags`] bit: some removal's only surviving witness goes
/// through an added link, so this row is *not* exact for the graph
/// minus that link alone and must run the decremental phase.
const NO_STRICT: u8 = 4;

/// Read-only result of classifying the pending edge delta against the
/// cached rows.
#[derive(Debug, Default)]
struct DeltaScan {
    /// Whether some hostful source has no valid row (its aggregates are
    /// unknown — early reject is then impossible).
    invalid_hostful: bool,
    /// Whether the guard's allowance bound applies: at most one
    /// net-added link (the single-add distance formula the improvement
    /// bound rests on does not compose across simultaneous adds).
    guardable: bool,
    /// Lower bound on the increase of the *ordered* weighted path sum
    /// from witness-less removals, over sources the add cannot touch.
    strict_sum: u64,
    /// Upper bound on the decrease of the ordered weighted path sum from
    /// the added link: an ordered pair `(s, x)` can only improve if `s`
    /// sits strictly behind one endpoint and `x` strictly behind the
    /// other, and then by at most `min(diff(s), diff(x)) − 1`, so the
    /// total decrease is at most `2·min(Su·Kv, Sv·Ku)` where
    /// `Su = Σ k_s·(diff(s)−1)` and `Ku = Σ k_s` over sources behind `u`
    /// (resp. `v`).
    allowance: u64,
}

impl DistCache {
    fn new(m: usize) -> Self {
        Self {
            m,
            rows: vec![INVALID_DIST; m * m],
            valid: vec![false; m],
            wsum: vec![0; m],
            hist: vec![0; m * MAX_DIST],
            ecc: vec![0; m],
            nreach: vec![0; m],
            edge_delta: Vec::new(),
            disabled: false,
            undo_rows: Vec::new(),
            undo_entries: Vec::new(),
            saved_deltas: Vec::new(),
            delta_marks: Vec::new(),
            flags: vec![0; m],
            wneed: vec![0; m],
            wit: vec![0; m],
            strict: vec![0; m],
            touched: 0,
        }
    }

    /// Resident bytes of the rows, the per-source aggregates, and the
    /// live transactional undo log.
    fn resident_bytes(&self) -> usize {
        self.rows.len()
            + self.hist.len() * 4
            + self.wsum.len() * 8
            + self.nreach.len() * 4
            + self.ecc.len()
            + self.valid.len()
            + self.undo_rows.len() * std::mem::size_of::<RowUndo>()
            + self.undo_entries.len() * std::mem::size_of::<EntryUndo>()
    }

    // -- transactional undo log ---------------------------------------

    /// Opens a transaction level (called from [`SearchState::begin`]).
    fn mark(&mut self) {
        if self.disabled {
            return;
        }
        self.delta_marks.push(self.saved_deltas.len());
        self.saved_deltas.extend_from_slice(&self.edge_delta);
    }

    /// Folds the innermost level into its parent (commit): logged rows
    /// stay restorable by an enclosing rollback and are dropped only
    /// when the outermost transaction commits.
    fn commit_mark(&mut self) {
        if self.disabled {
            return;
        }
        if let Some(boundary) = self.delta_marks.pop() {
            self.saved_deltas.truncate(boundary);
        }
        if self.delta_marks.is_empty() {
            self.undo_rows.clear();
            self.undo_entries.clear();
        }
    }

    /// Rewinds the edge delta to its state at the innermost `begin`.
    /// The rows themselves were restored by the [`UndoOp::RewroteRows`]
    /// entries of the replayed undo log.
    fn rollback_mark(&mut self) {
        if self.disabled {
            return;
        }
        let Some(boundary) = self.delta_marks.pop() else {
            return;
        };
        self.edge_delta.clear();
        self.edge_delta
            .extend_from_slice(&self.saved_deltas[boundary..]);
        self.saved_deltas.truncate(boundary);
    }

    /// Restores every row logged from header `from` on, newest first:
    /// writes the old entries back, reverses their histogram patches and
    /// reinstates the saved validity and aggregates. `counts` must be
    /// the host counts of the evaluation that logged the rows, which
    /// replaying the undo log in order guarantees: every later host move
    /// is already undone, every earlier one not yet.
    fn restore_rows(&mut self, from: usize, counts: &[u32]) {
        if self.disabled {
            return;
        }
        let m = self.m;
        while self.undo_rows.len() > from {
            let h = self.undo_rows.pop().expect("len > from");
            let s = h.s as usize;
            if h.was_valid {
                let hist = &mut self.hist[s * MAX_DIST..(s + 1) * MAX_DIST];
                let row = &mut self.rows[s * m..(s + 1) * m];
                for &(v, d_old) in self.undo_entries[h.start..].iter().rev() {
                    let v = v as usize;
                    let d_cur = row[v];
                    if d_cur != d_old && counts[v] != 0 && v != s {
                        if d_cur != INVALID_DIST {
                            hist[d_cur as usize] -= 1;
                        }
                        if d_old != INVALID_DIST {
                            hist[d_old as usize] += 1;
                        }
                    }
                    row[v] = d_old;
                }
                self.wsum[s] = h.wsum;
                self.nreach[s] = h.nreach;
                self.ecc[s] = h.ecc;
            }
            self.undo_entries.truncate(h.start);
            self.valid[s] = h.was_valid;
        }
    }

    /// Logs row `s` before a re-BFS sweep rewrites it wholesale: a
    /// valid row logs every entry, an invalid one only its header (its
    /// content is refilled before any sweep reads it).
    fn log_swept_row(&mut self, s: u32) {
        let s = s as usize;
        self.undo_rows.push(RowUndo {
            s: s as u32,
            was_valid: self.valid[s],
            ecc: self.ecc[s],
            nreach: self.nreach[s],
            wsum: self.wsum[s],
            start: self.undo_entries.len(),
        });
        if self.valid[s] {
            let row = &self.rows[s * self.m..(s + 1) * self.m];
            self.undo_entries
                .extend(row.iter().enumerate().map(|(v, &d)| (v as u32, d)));
        }
    }

    fn ptrs(&mut self) -> CachePtrs {
        CachePtrs {
            rows: self.rows.as_mut_ptr(),
            wsum: self.wsum.as_mut_ptr(),
            hist: self.hist.as_mut_ptr(),
            ecc: self.ecc.as_mut_ptr(),
            nreach: self.nreach.as_mut_ptr(),
            valid: self.valid.as_mut_ptr(),
            m: self.m,
        }
    }

    /// Accumulates a link change (`net = ±1`); exact inverses cancel.
    fn note_edge(&mut self, a: Switch, b: Switch, net: i32) {
        if self.disabled {
            return;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(pos) = self.edge_delta.iter().position(|&(x, y, _)| (x, y) == key) {
            self.edge_delta[pos].2 += net;
            if self.edge_delta[pos].2 == 0 {
                self.edge_delta.swap_remove(pos);
            }
        } else {
            self.edge_delta.push((key.0, key.1, net));
        }
    }

    /// Eagerly re-weights every valid row for a host-count change at `v`.
    /// Self-inverse under the opposite delta, so transaction rollback
    /// (which replays the inverse host move) restores the aggregates
    /// exactly. All valid rows describe the same graph, so `d(s,v)` is
    /// read from `v`'s own row: one sequential, branch-free pass
    /// re-weights `wsum`. The scalar pass below runs only when the
    /// hostful set changes (`v` gains its first host or loses its last,
    /// so histograms move too) or when row `v` is invalid and `d(s,v)`
    /// must come from each row `s`.
    fn note_host_delta(&mut self, v: Switch, old_k: u32, new_k: u32) {
        if self.disabled || old_k == new_k {
            return;
        }
        let (m, v) = (self.m, v as usize);
        let rows = &self.rows;
        let (dk, gain) = (old_k.abs_diff(new_k), new_k > old_k);
        let from_row = self.valid[v];
        if from_row {
            // every source but `v` itself
            let row = &rows[v * m..(v + 1) * m];
            let (valid, wsum) = (&self.valid, &mut self.wsum);
            add_weights(&row[..v], &valid[..v], &mut wsum[..v], dk, gain);
            add_weights(&row[v + 1..], &valid[v + 1..], &mut wsum[v + 1..], dk, gain);
            if old_k != 0 && new_k != 0 {
                return;
            }
        }
        for s in 0..m {
            if !self.valid[s] || s == v {
                continue;
            }
            let d = if from_row {
                rows[v * m + s]
            } else {
                rows[s * m + v]
            };
            if d == INVALID_DIST {
                continue;
            }
            let du = d as usize;
            if !from_row {
                let step = u64::from(dk) * (du as u64 + 2);
                let w = &mut self.wsum[s];
                *w = if gain {
                    w.wrapping_add(step)
                } else {
                    w.wrapping_sub(step)
                };
            }
            if old_k == 0 {
                self.hist[s * MAX_DIST + du] += 1;
                self.nreach[s] += 1;
                if d > self.ecc[s] {
                    self.ecc[s] = d;
                }
            } else if new_k == 0 {
                let base = s * MAX_DIST;
                self.hist[base + du] -= 1;
                self.nreach[s] -= 1;
                if self.hist[base + du] == 0 && d == self.ecc[s] {
                    let mut e = du;
                    while e > 0 && self.hist[base + e] == 0 {
                        e -= 1;
                    }
                    self.ecc[s] = e as u8;
                }
            }
        }
    }

    /// Splits the pending edge delta into net-added links (with their
    /// multiplicity) and net-removed ones, into reused buffers; swings
    /// keep `|adds| = |dels| = 1`, swaps 2 and 2.
    fn split_delta(&self, adds: &mut Vec<(u32, u32, u32)>, dels: &mut Vec<(u32, u32)>) {
        adds.clear();
        dels.clear();
        for &(a, b, net) in &self.edge_delta {
            if net > 0 {
                adds.push((a, b, net as u32));
            } else if net < 0 {
                dels.push((a, b));
            }
        }
    }

    /// Classifies every row against the pending edge delta, split by
    /// [`DistCache::split_delta`] into `adds` and `dels`, pushing the
    /// sources that must be re-swept (affected or invalid, hostful or
    /// not — the cache keeps every row warm so host moves onto hostless
    /// switches never cold-start) into `rebfs`. Read-only on the cache
    /// itself, so an early reject can abandon the result without repair
    /// work.
    fn scan_delta(
        &mut self,
        csr: &SlotCsr,
        counts: &[u32],
        adds: &[(u32, u32, u32)],
        dels: &[(u32, u32)],
        rebfs: &mut Vec<u32>,
        repair: &mut Vec<u32>,
    ) -> DeltaScan {
        rebfs.clear();
        repair.clear();
        let mut scan = DeltaScan::default();
        let m = self.m;
        scan.guardable = adds.len() <= 1;
        for (s, (&ok, &k)) in self.valid.iter().zip(counts).enumerate().take(m) {
            if !ok {
                if k > 0 {
                    scan.invalid_hostful = true;
                }
                rebfs.push(s as u32);
            }
        }
        if adds.is_empty() && dels.is_empty() {
            return scan;
        }
        // Every pass reads whole rows sequentially (d(s,x) is read from
        // x's row — valid rows all describe the same graph, so the
        // symmetric entry is identical and the `m`-stride column walk of
        // a per-source formulation is avoided). That needs the rows of
        // every delta endpoint and witness candidate; if any is missing
        // (only possible before the first full sweep), classification is
        // impossible and every row is conservatively re-swept.
        let mut conservative = adds
            .iter()
            .map(|&(u, v, _)| (u, v))
            .chain(dels.iter().copied())
            .any(|(u, v)| !self.valid[u as usize] || !self.valid[v as usize]);
        for &(u, v) in dels {
            conservative |= csr
                .neighbors(u)
                .iter()
                .chain(csr.neighbors(v))
                .any(|&w| !self.valid[w as usize]);
        }
        if conservative {
            scan.guardable = false;
            rebfs.extend((0..m as u32).filter(|&s| self.valid[s as usize]));
            rebfs.sort_unstable();
            return scan;
        }
        scan.allowance = self.classify(csr, counts, adds, dels);
        // Every affected source — add endpoints included — is repaired
        // in place (decremental orphan re-relaxation for the removals,
        // then incremental insertion relaxation for the adds — see
        // `repair_one_source`); re-BFS is reserved for invalid rows.
        // Strict increments count only for sources the add cannot
        // rescue. The repair list is compacted branch-free: every
        // source's index is written, and the cursor advances past the
        // affected ones.
        repair.resize(m, 0);
        let mut n = 0;
        let marks = self.flags.iter().zip(&self.strict);
        for (s, ((&ok, &k), (&f, &st))) in self.valid.iter().zip(counts).zip(marks).enumerate() {
            let counted = ok & (f & ADD_AFF == 0);
            scan.strict_sum += if counted {
                u64::from(k) * u64::from(st)
            } else {
                0
            };
            repair[n] = s as u32;
            n += usize::from(ok & (f & (ADD_AFF | DEL_AFF) != 0));
        }
        repair.truncate(n);
        scan
    }

    /// The whole-row passes of [`Self::scan_delta`] over the rows, all
    /// of them valid: one pass per added link, one on-DAG marking pass
    /// per removal and, when the delta is guardable (at most one add),
    /// `deg(u) + deg(v)` witness passes per removal.
    /// Fills `flags` and `strict`; returns the single-add improvement
    /// allowance (see [`DeltaScan::allowance`]).
    fn classify(
        &mut self,
        csr: &SlotCsr,
        counts: &[u32],
        adds: &[(u32, u32, u32)],
        dels: &[(u32, u32)],
    ) -> u64 {
        let m = self.m;
        let rows = &self.rows;
        let row = move |s: u32| &rows[s as usize * m..(s as usize + 1) * m];
        let (valid, counts) = (&self.valid[..m], &counts[..m]);
        let flags = &mut self.flags[..m];
        let strict = &mut self.strict[..m];
        let (wneed, wit) = (&mut self.wneed[..m], &mut self.wit[..m]);
        flags.fill(0);
        strict.fill(0);
        let guardable = adds.len() <= 1;
        let mut allowance = 0;
        for &(u, v, _) in adds {
            let [su, ku, sv, kv] = add_pass(row(u), row(v), valid, counts, flags);
            if guardable {
                allowance = 2 * (su * kv).min(sv * ku);
            }
        }
        // Removed links, one at a time: `s` lengthens iff the link was on
        // a shortest path from `s` and its far endpoint has no alternate
        // parent (a witness) in the post-delta adjacency.
        for &(u, v) in dels {
            on_dag_pass(row(u), row(v), valid, wneed);
            if !guardable {
                // No guard will read the strict increments, so the
                // witness passes buy nothing: every on-DAG source goes
                // to the decremental phase, which rediscovers surviving
                // parents at O(deg) per source.
                for (f, &need) in flags.iter_mut().zip(wneed.iter()) {
                    *f |= DEL_AFF * u8::from(need != 0);
                }
                continue;
            }
            wit.fill(0);
            for (far, need) in [(v, 1u8), (u, 2u8)] {
                for &w in csr.neighbors(far) {
                    let key = (far.min(w), far.max(w));
                    let bit = if adds.iter().any(|&(a, b, _)| (a, b) == key) {
                        1
                    } else {
                        3
                    };
                    witness_pass(row(w), row(far), wneed, need, bit, wit);
                }
            }
            let k_far = [counts[v as usize], counts[u as usize]];
            removal_verdict(wneed, wit, k_far, flags, strict);
        }
        allowance
    }

    /// The per-entry formulation of [`Self::scan_delta`], reading every
    /// entry by index: the reference the whole-row passes are tested
    /// against, field by field.
    #[cfg(test)]
    fn scan_delta_reference(
        &mut self,
        csr: &SlotCsr,
        counts: &[u32],
        adds: &[(u32, u32, u32)],
        dels: &[(u32, u32)],
        rebfs: &mut Vec<u32>,
        repair: &mut Vec<u32>,
    ) -> DeltaScan {
        rebfs.clear();
        repair.clear();
        let mut scan = DeltaScan::default();
        let m = self.m;
        scan.guardable = adds.len() <= 1;
        for (s, (&ok, &k)) in self.valid.iter().zip(counts).enumerate().take(m) {
            if !ok {
                if k > 0 {
                    scan.invalid_hostful = true;
                }
                rebfs.push(s as u32);
            }
        }
        if adds.is_empty() && dels.is_empty() {
            return scan;
        }
        // Every pass below reads whole rows sequentially (d(s,x) is read
        // from x's row — valid rows all describe the same graph, so the
        // symmetric entry is identical and the `m`-stride column walk of
        // a per-source formulation is avoided). That needs the rows of
        // every delta endpoint and witness candidate; if any is missing
        // (only possible before the first full sweep), classification is
        // impossible and every row is conservatively re-swept.
        let mut conservative = adds
            .iter()
            .map(|&(u, v, _)| (u, v))
            .chain(dels.iter().copied())
            .any(|(u, v)| !self.valid[u as usize] || !self.valid[v as usize]);
        for &(u, v) in dels {
            conservative |= csr
                .neighbors(u)
                .iter()
                .chain(csr.neighbors(v))
                .any(|&w| !self.valid[w as usize]);
        }
        if conservative {
            scan.guardable = false;
            for s in 0..m {
                if self.valid[s] {
                    rebfs.push(s as u32);
                }
            }
            rebfs.sort_unstable();
            return scan;
        }
        self.flags[..m].fill(0);
        self.strict[..m].fill(0);
        // Added links: `s` can shrink iff its endpoint distances differ
        // by ≥ 2 (or one endpoint is unreachable — reachability gain).
        // Accumulates the behind-u / behind-v host masses of the
        // single-add improvement allowance (see `DeltaScan::allowance`).
        let (mut su, mut ku, mut sv, mut kv) = (0u64, 0u64, 0u64, 0u64);
        for &(u, v, _) in adds {
            for (s, &ks) in counts.iter().enumerate().take(m) {
                if !self.valid[s] {
                    continue;
                }
                let du = self.rows[u as usize * m + s];
                let dv = self.rows[v as usize * m + s];
                if du == INVALID_DIST && dv == INVALID_DIST {
                    continue; // joins two components not containing s
                }
                if du == INVALID_DIST || dv == INVALID_DIST {
                    // s gains reachability: pairs only appear (weighted
                    // sum grows), so no allowance is needed — but the
                    // row must be re-derived
                    self.flags[s] |= ADD_AFF;
                    continue;
                }
                let ks = u64::from(ks);
                if du + 2 <= dv {
                    // s strictly behind u: improving pairs enter the new
                    // link at u and exit towards targets behind v
                    self.flags[s] |= ADD_AFF;
                    if scan.guardable {
                        su += ks * (dv - du - 1) as u64;
                        ku += ks;
                    }
                } else if dv + 2 <= du {
                    self.flags[s] |= ADD_AFF;
                    if scan.guardable {
                        sv += ks * (du - dv - 1) as u64;
                        kv += ks;
                    }
                }
            }
        }
        scan.allowance = 2 * (su * kv).min(sv * ku);
        // Removed links, one at a time: `s` lengthens iff the link was on
        // a shortest path from `s` (endpoint levels differ — by exactly 1,
        // since it was an edge) and the far endpoint has no alternate
        // parent. A parent in the *post-delta* adjacency keeps every
        // distance intact — inductively down the BFS levels — but a
        // parent reached through an added link only proves the combined
        // delta leaves `s` unchanged, not the removals alone, so it does
        // not count as a *strict* witness (bit 1), which is what formula
        // repair needs.
        for &(u, v) in dels {
            for s in 0..m {
                // add-affected sources still need their removal bits:
                // they decide repair eligibility (strict increments are
                // filtered later)
                let need = if !self.valid[s] {
                    0
                } else {
                    let du = self.rows[u as usize * m + s];
                    let dv = self.rows[v as usize * m + s];
                    if du == INVALID_DIST || dv == INVALID_DIST || du == dv {
                        0
                    } else if du < dv {
                        1 // far endpoint is v
                    } else {
                        2 // far endpoint is u
                    }
                };
                self.wneed[s] = need;
            }
            if !scan.guardable {
                // No guard will read the strict increments, so the
                // witness scan (deg(far) whole-row passes) buys nothing:
                // route every on-DAG source to the decremental phase,
                // which rediscovers surviving parents at O(deg) per
                // source and leaves witness-protected rows untouched.
                for s in 0..m {
                    if self.wneed[s] != 0 {
                        self.flags[s] |= DEL_AFF;
                    }
                }
                continue;
            }
            self.wit[..m].fill(0);
            for (far, need) in [(v, 1u8), (u, 2u8)] {
                for &w in csr.neighbors(far) {
                    let key = if far < w { (far, w) } else { (w, far) };
                    let strict_bit = if adds.iter().any(|&(a, b, _)| (a, b) == key) {
                        1
                    } else {
                        3
                    };
                    for s in 0..m {
                        if self.wneed[s] == need {
                            let dw = self.rows[w as usize * m + s];
                            if dw != INVALID_DIST && dw + 1 == self.rows[far as usize * m + s] {
                                self.wit[s] |= strict_bit;
                            }
                        }
                    }
                }
            }
            for s in 0..m {
                if self.wneed[s] == 0 {
                    continue;
                }
                let far = if self.wneed[s] == 1 { v } else { u };
                if self.wit[s] & 1 == 0 {
                    self.flags[s] |= DEL_AFF;
                    // the farther endpoint strictly recedes by ≥ 1
                    self.strict[s] = self.strict[s].max(counts[far as usize]);
                }
                if self.wit[s] & 2 == 0 {
                    self.flags[s] |= NO_STRICT;
                }
            }
        }
        // Every affected source — add endpoints included — is repaired
        // in place (decremental orphan re-relaxation for the removals,
        // then incremental insertion relaxation for the adds — see
        // `repair_one_source`); re-BFS is reserved for invalid rows.
        for (s, &ks) in counts.iter().enumerate().take(m) {
            if !self.valid[s] {
                continue; // already queued
            }
            let f = self.flags[s];
            let ks = u64::from(ks);
            if f & ADD_AFF == 0 {
                // strict increments only for sources the add cannot
                // rescue
                scan.strict_sum += ks * self.strict[s] as u64;
            }
            if f & (ADD_AFF | DEL_AFF) == 0 {
                continue;
            }
            repair.push(s as u32);
        }
        scan
    }

    /// Scores the graph from the aggregates alone (`O(m)`); requires
    /// every hostful source to hold a valid, refreshed row.
    fn totals(&self, counts: &[u32]) -> BatchSums {
        let mut t = BatchSums::default();
        for (s, &k) in counts.iter().enumerate().take(self.m) {
            if k == 0 {
                continue;
            }
            debug_assert!(self.valid[s], "hostful source {s} lacks a cache row");
            t.weighted += k as u64 * self.wsum[s];
            t.max_d = t.max_d.max(self.ecc[s] as u32);
            t.reached += 1 + self.nreach[s] as u64;
        }
        t
    }

    /// Lower bound on the *ordered* weighted path sum after the pending
    /// delta: stale aggregates (with current host counts), plus the
    /// strict-removal increments (those sources' distances cannot have
    /// been rescued by the add), minus the add-improvement allowance
    /// (which over-covers every pair whose distance can shrink). Valid
    /// only for guardable scans with no invalid hostful row.
    fn lower_bound_weighted(&self, counts: &[u32], scan: &DeltaScan) -> u64 {
        let mut w = scan.strict_sum;
        for (s, &k) in counts.iter().enumerate().take(self.m) {
            if k > 0 {
                w += k as u64 * self.wsum[s];
            }
        }
        w.saturating_sub(scan.allowance)
    }

    /// Drops the bulk storage once the cache is disabled.
    fn release(&mut self) {
        self.disabled = true;
        self.rows = Vec::new();
        self.hist = Vec::new();
        self.wsum = Vec::new();
        self.ecc = Vec::new();
        self.nreach = Vec::new();
        self.valid = vec![false; self.m];
        self.edge_delta = Vec::new();
        self.undo_rows = Vec::new();
        self.undo_entries = Vec::new();
        self.saved_deltas = Vec::new();
        self.delta_marks = Vec::new();
        self.flags = Vec::new();
        self.wneed = Vec::new();
        self.wit = Vec::new();
        self.strict = Vec::new();
    }
}

// ---- whole-row passes --------------------------------------------------
//
// Each pass walks row slices in lockstep with the per-source arrays;
// `du`/`dv`/`dw`/`dfar` hold `d(x, s)` for every source `s`, read from
// row `x` (valid rows are symmetric). The bodies are branch-free
// selects so that the loops vectorize.

/// The weighted-sum half of a host move at `v`: adds `dk·(d + 2)` to
/// (`gain`) or subtracts it from `wsum[s]` for every valid source whose
/// distance `d` to `v` is finite.
fn add_weights(dists: &[u8], valid: &[bool], wsum: &mut [u64], dk: u32, gain: bool) {
    for ((&d, &ok), w) in dists.iter().zip(valid).zip(wsum) {
        let hops = u32::from(d);
        let live = ok & (d != INVALID_DIST);
        let step = if live {
            u64::from(dk) * u64::from(hops + 2)
        } else {
            0
        };
        *w = if gain {
            w.wrapping_add(step)
        } else {
            w.wrapping_sub(step)
        };
    }
}

/// Added link `{u, v}`: flags [`ADD_AFF`] on every valid source whose
/// endpoint distances differ by ≥ 2 (the shortcut strictly improves the
/// farther endpoint, and only then can anything downstream improve) or
/// that reaches exactly one endpoint (reachability gain: pairs only
/// appear, so no allowance is needed, but the row must be re-derived).
/// Returns the allowance masses `[Su, Ku, Sv, Kv]` of
/// [`DeltaScan::allowance`]: improving pairs enter the link at the near
/// endpoint of a source strictly behind it.
fn add_pass(du: &[u8], dv: &[u8], valid: &[bool], counts: &[u32], flags: &mut [u8]) -> [u64; 4] {
    let (mut su, mut ku, mut sv, mut kv) = (0u64, 0u64, 0u64, 0u64);
    for ((((&a, &b), &ok), &k), f) in du.iter().zip(dv).zip(valid).zip(counts).zip(flags) {
        let reach_gain = (a == INVALID_DIST) != (b == INVALID_DIST);
        let both = (a != INVALID_DIST) & (b != INVALID_DIST);
        let (a, b) = (u32::from(a), u32::from(b));
        let behind_u = ok & both & (a + 2 <= b);
        let behind_v = ok & both & (b + 2 <= a);
        *f |= ADD_AFF * u8::from((ok & reach_gain) | behind_u | behind_v);
        let k = u64::from(k);
        su += if behind_u {
            k * u64::from(b - a - 1)
        } else {
            0
        };
        ku += if behind_u { k } else { 0 };
        sv += if behind_v {
            k * u64::from(a - b - 1)
        } else {
            0
        };
        kv += if behind_v { k } else { 0 };
    }
    [su, ku, sv, kv]
}

/// Removed link `{u, v}`: marks which endpoint is the far one on each
/// valid source's shortest-path DAG — 0 when the link lies on none
/// (equal levels, or an endpoint unreachable), 1 when the far endpoint
/// is `v`, 2 when it is `u` (levels then differ by exactly 1, since it
/// was an edge).
fn on_dag_pass(du: &[u8], dv: &[u8], valid: &[bool], wneed: &mut [u8]) {
    for (((&a, &b), &ok), need) in du.iter().zip(dv).zip(valid).zip(wneed) {
        let on = ok & (a != INVALID_DIST) & (b != INVALID_DIST) & (a != b);
        *need = u8::from(on) * (1 + u8::from(a > b));
    }
}

/// One surviving neighbour `w` of a removal's far endpoint: sets `bit`
/// in `wit[s]` for every source whose far endpoint this is
/// (`wneed[s] == need`) and for which `w` is an alternate BFS parent,
/// `d(s,w) + 1 = d(s,far)`. A parent in the post-delta adjacency keeps
/// every distance below it intact; one reached through an added link
/// only proves the *combined* delta harmless, so the caller passes
/// `bit = 1` for it and `bit = 3` (also a strict witness) otherwise.
fn witness_pass(dw: &[u8], dfar: &[u8], wneed: &[u8], need: u8, bit: u8, wit: &mut [u8]) {
    for (((&a, &f), &nd), x) in dw.iter().zip(dfar).zip(wneed).zip(wit) {
        let hit = (nd == need) & (a != INVALID_DIST) & (a.wrapping_add(1) == f);
        *x |= bit * u8::from(hit);
    }
}

/// A removal's verdict from its witness bits: an on-DAG source with no
/// witness lengthens ([`DEL_AFF`]) and its far endpoint strictly recedes
/// by ≥ 1, so `strict[s]` takes that endpoint's host count
/// (`k_far = [k_v, k_u]`); one with no strict witness must run the
/// decremental phase ([`NO_STRICT`]).
fn removal_verdict(
    wneed: &[u8],
    wit: &[u8],
    k_far: [u32; 2],
    flags: &mut [u8],
    strict: &mut [u32],
) {
    for (((&need, &w), f), st) in wneed.iter().zip(wit).zip(flags).zip(strict) {
        let on = need != 0;
        let orphaned = on & (w & 1 == 0);
        let no_strict = on & (w & 2 == 0);
        *f |= (DEL_AFF * u8::from(orphaned)) | (NO_STRICT * u8::from(no_strict));
        let k = if need == 1 { k_far[0] } else { k_far[1] };
        *st = (*st).max(if orphaned { k } else { 0 });
    }
}

// ---- sharded in-place repair -------------------------------------------

/// Per-worker scratch of the sharded repair path: epoch-stamped marker
/// arrays, the bucket queue, and the worker-local undo log (merged into
/// the cache's log after the job, so workers never contend on it).
#[derive(Debug, Default)]
struct RepairScratch {
    /// Current epoch; a stamp array entry equals it iff set this source.
    ep: u32,
    /// Stamp: vertex already examined as an orphan candidate.
    cand_ep: Vec<u32>,
    /// Stamp: vertex orphaned (all strict shortest-path parents gone).
    orphan_ep: Vec<u32>,
    /// Stamp: orphan settled by the re-relaxation.
    settled_ep: Vec<u32>,
    /// Bucket queue over hop distance, shared by orphan descent and
    /// re-relaxation (each drains the buckets it fills).
    buckets: Vec<Vec<u32>>,
    /// Orphans of the current source.
    orphans: Vec<u32>,
    /// Headers of the rows this worker's repairs wrote during the
    /// current job, with `start` indexing [`Self::undo_entries`].
    undo_rows: Vec<RowUndo>,
    /// Entries backing [`Self::undo_rows`].
    undo_entries: Vec<EntryUndo>,
    /// Rows this worker's repairs actually rewrote during the job.
    touched: u32,
}

impl RepairScratch {
    fn ensure(&mut self, m: usize) {
        if self.cand_ep.len() != m {
            self.ep = 0;
            self.cand_ep = vec![0; m];
            self.orphan_ep = vec![0; m];
            self.settled_ep = vec![0; m];
        }
        if self.buckets.len() != MAX_DIST + 1 {
            self.buckets = vec![Vec::new(); MAX_DIST + 1];
        }
    }

    fn reset_job(&mut self) {
        self.touched = 0;
        self.undo_rows.clear();
        self.undo_entries.clear();
    }
}

/// Everything a repair task needs, as raw views so the same packet can
/// be executed by any pool worker. All pointers stay valid until the
/// job completes (the publisher blocks).
#[derive(Debug, Clone, Copy)]
struct RepairCtx {
    cache: CachePtrs,
    /// Classification bits from the scan (read-only during repair).
    flags: *const u8,
    csr: *const SlotCsr,
    counts: *const u32,
    counts_len: usize,
    adds: *const (u32, u32, u32),
    adds_len: usize,
    dels: *const (u32, u32),
    dels_len: usize,
    /// Whether a transaction is open (every write must be undo-logged).
    log: bool,
}

// SAFETY: every task dereferences only its own source's row, aggregate
// slots, and flag byte; the shared inputs (csr/counts/adds/dels) are
// read-only for the duration of the job.
unsafe impl Send for RepairCtx {}
unsafe impl Sync for RepairCtx {}

/// Logs the header of row `s` into this worker's undo log just before
/// the row's first write of the job (a no-op outside transactions).
///
/// # Safety
/// The caller must own source `s` for the duration of the job.
#[inline]
unsafe fn log_row(ctx: &RepairCtx, rs: &mut RepairScratch, s: usize) {
    if ctx.log {
        let start = rs.undo_entries.len();
        rs.undo_rows.push(RowUndo::capture(&ctx.cache, s, start));
    }
}

/// Writes entry `(s, v)`, first logging its old value `d_old` when a
/// transaction is open.
///
/// # Safety
/// The caller must own source `s` for the duration of the job.
#[inline]
unsafe fn write_entry(
    ctx: &RepairCtx,
    rs: &mut RepairScratch,
    s: usize,
    v: usize,
    d_old: u8,
    d: u8,
) {
    if ctx.log {
        rs.undo_entries.push((v as u32, d_old));
    }
    ctx.cache.set(s, v, d);
}

/// The added-link copies incident to `x`, as `(other endpoint,
/// copies to skip)` — iterating `csr` neighbors must ignore exactly
/// that many occurrences to see the strict (minus-removals,
/// minus-adds) adjacency. Parallel pre-existing copies survive.
#[inline]
fn added_copies(adds: &[(u32, u32, u32)], x: u32) -> [(u32, u32); 4] {
    let mut skip = [(u32::MAX, 0u32); 4];
    let mut n = 0;
    for &(a, b, mult) in adds {
        let other = if a == x {
            b
        } else if b == x {
            a
        } else {
            continue;
        };
        if n < skip.len() {
            skip[n] = (other, mult);
            n += 1;
        }
    }
    skip
}

/// Consumes one skip token for neighbor `w`, returning `true` if
/// this occurrence is an added copy.
#[inline]
fn consume_added(skip: &mut [(u32, u32); 4], w: u32) -> bool {
    for e in skip.iter_mut() {
        if e.0 == w && e.1 > 0 {
            e.1 -= 1;
            return true;
        }
    }
    false
}

/// Whether `x` keeps a surviving strict shortest-path parent (level
/// exactly one below, reached neither through an added link nor an
/// already-orphaned vertex).
///
/// # Safety
/// The caller must own source `s` for the duration of the job.
#[inline]
unsafe fn strict_parent_survives(
    c: &CachePtrs,
    rs: &RepairScratch,
    csr: &SlotCsr,
    adds: &[(u32, u32, u32)],
    s: usize,
    x: u32,
    lvl: u8,
) -> bool {
    let mut skip = added_copies(adds, x);
    for &w in csr.neighbors(x) {
        if consume_added(&mut skip, w) {
            continue;
        }
        let wi = w as usize;
        if u32::from(c.get(s, wi)) + 1 == u32::from(lvl) && rs.orphan_ep[wi] != rs.ep {
            return true;
        }
    }
    false
}

/// Decremental phase for one source: rewrites the stored row from the
/// pre-delta distances to `d_del` (graph minus the removals, added
/// links excluded). Orphan descent finds exactly the vertices whose
/// every strict shortest-path parent is gone, then a bucket-Dijkstra
/// re-settles them from the unorphaned boundary, patching
/// `wsum`/`hist`/`ecc`/`nreach` per rewritten entry. Undo-logs the row
/// header before the first write and every entry it overwrites when a
/// transaction is open. Returns
/// `None` on distance overflow, otherwise whether any entry was
/// rewritten (a row whose every on-DAG removal keeps a surviving
/// strict parent is untouched, and its aggregates stay exact).
///
/// # Safety
/// The caller must own source `s` exclusively for the duration of the
/// job, and every `RepairCtx` pointer must be live.
unsafe fn del_repair_source(ctx: &RepairCtx, rs: &mut RepairScratch, s: usize) -> Option<bool> {
    let c = &ctx.cache;
    let csr = &*ctx.csr;
    let counts = std::slice::from_raw_parts(ctx.counts, ctx.counts_len);
    let adds = std::slice::from_raw_parts(ctx.adds, ctx.adds_len);
    let dels = std::slice::from_raw_parts(ctx.dels, ctx.dels_len);
    if rs.ep == u32::MAX {
        rs.cand_ep.iter_mut().for_each(|e| *e = 0);
        rs.orphan_ep.iter_mut().for_each(|e| *e = 0);
        rs.settled_ep.iter_mut().for_each(|e| *e = 0);
        rs.ep = 0;
    }
    rs.ep += 1;
    let ep = rs.ep;
    rs.orphans.clear();
    // -- orphan descent ------------------------------------------
    // Seed with the far endpoint of every removal that sat on the
    // shortest-path DAG of `s` (endpoint levels differ by 1).
    let mut lo = MAX_DIST;
    let mut pending = 0usize;
    for &(a, b) in dels {
        let (da, db) = (c.get(s, a as usize), c.get(s, b as usize));
        if da == INVALID_DIST || db == INVALID_DIST || da == db {
            continue;
        }
        let (far, lvl) = if da < db { (b, db) } else { (a, da) };
        let lvl = lvl as usize;
        debug_assert!(lvl < MAX_DIST);
        rs.buckets[lvl].push(far);
        lo = lo.min(lvl);
        pending += 1;
    }
    let mut lvl = lo;
    while pending > 0 && lvl < MAX_DIST {
        while let Some(x) = rs.buckets[lvl].pop() {
            pending -= 1;
            let xi = x as usize;
            if rs.cand_ep[xi] == ep {
                continue;
            }
            rs.cand_ep[xi] = ep;
            if strict_parent_survives(c, rs, csr, adds, s, x, lvl as u8) {
                continue;
            }
            rs.orphan_ep[xi] = ep;
            rs.orphans.push(x);
            // shortest-path children may have lost their last parent
            let mut skip = added_copies(adds, x);
            for &y in csr.neighbors(x) {
                if consume_added(&mut skip, y) {
                    continue;
                }
                let yi = y as usize;
                if c.get(s, yi) == lvl as u8 + 1 && rs.cand_ep[yi] != ep {
                    rs.buckets[lvl + 1].push(y);
                    pending += 1;
                }
            }
        }
        lvl += 1;
    }
    if rs.orphans.is_empty() {
        return Some(false);
    }
    // The row is about to be rewritten: log its header now, so
    // witness-protected rows never pay for one.
    log_row(ctx, rs, s);
    // -- re-relaxation (unit-weight Dijkstra from the boundary) ---
    let mut lo = MAX_DIST;
    for oi in 0..rs.orphans.len() {
        let x = rs.orphans[oi];
        let mut best = u32::from(INVALID_DIST);
        let mut skip = added_copies(adds, x);
        for &w in csr.neighbors(x) {
            if consume_added(&mut skip, w) {
                continue;
            }
            let wi = w as usize;
            let dw = c.get(s, wi);
            if rs.orphan_ep[wi] != ep && dw != INVALID_DIST {
                best = best.min(u32::from(dw) + 1);
            }
        }
        if best < u32::from(INVALID_DIST) {
            let key = (best as usize).min(MAX_DIST);
            rs.buckets[key].push(x);
            lo = lo.min(key);
        }
    }
    let hist = std::slice::from_raw_parts_mut(c.hist.add(s * MAX_DIST), MAX_DIST);
    let wsum = &mut *c.wsum.add(s);
    let ecc = &mut *c.ecc.add(s);
    let nreach = &mut *c.nreach.add(s);
    let mut overflow = false;
    let mut key = lo;
    while key <= MAX_DIST {
        while let Some(x) = rs.buckets[key].pop() {
            let xi = x as usize;
            if rs.settled_ep[xi] == ep {
                continue;
            }
            rs.settled_ep[xi] = ep;
            if key >= MAX_DIST {
                overflow = true;
                continue; // keep draining the buckets
            }
            // Patch the aggregates in place: orphan distances grow
            // strictly, so the eccentricity only ratchets up here.
            let d_old = c.get(s, xi);
            write_entry(ctx, rs, s, xi, d_old, key as u8);
            debug_assert!((key as u8) > d_old);
            let kx = counts[xi];
            if kx != 0 {
                *wsum += kx as u64 * (key as u64 - d_old as u64);
                hist[d_old as usize] -= 1;
                hist[key] += 1;
                *ecc = (*ecc).max(key as u8);
            }
            let mut skip = added_copies(adds, x);
            for &w in csr.neighbors(x) {
                if consume_added(&mut skip, w) {
                    continue;
                }
                let wi = w as usize;
                if rs.orphan_ep[wi] == ep && rs.settled_ep[wi] != ep {
                    rs.buckets[(key + 1).min(MAX_DIST)].push(w);
                }
            }
        }
        key += 1;
    }
    if overflow {
        return None;
    }
    // orphans the boundary never reached are now unreachable
    let mut ecc_dirty = false;
    for oi in 0..rs.orphans.len() {
        let xi = rs.orphans[oi] as usize;
        if rs.settled_ep[xi] != ep {
            let d_old = c.get(s, xi);
            write_entry(ctx, rs, s, xi, d_old, INVALID_DIST);
            let kx = counts[xi];
            if kx != 0 {
                *wsum -= kx as u64 * (d_old as u64 + 2);
                hist[d_old as usize] -= 1;
                *nreach -= 1;
                if d_old == *ecc {
                    ecc_dirty = true;
                }
            }
        }
    }
    if ecc_dirty {
        // the histogram is current again: its highest non-empty
        // bucket is the surviving eccentricity
        *ecc = hist.iter().rposition(|&cnt| cnt != 0).unwrap_or(0) as u8;
    }
    Some(true)
}

/// Insertion phase for one source: given a row holding `d_del`, seeds
/// each pending add's endpoints with the opposite endpoint's distance
/// plus one and settles the decrease wavefront in ascending key order
/// through the live adjacency (bucket Dijkstra; a popped key at or
/// above the current entry is stale and skipped). Only entries that
/// actually shrink are touched, and the aggregates are patched per
/// write — the eccentricity is re-read from the histogram when the
/// previous maximum shrank. Returns `None` when a new finite distance
/// reaches the cap, otherwise whether anything changed.
///
/// # Safety
/// As [`del_repair_source`].
unsafe fn add_repair_source(
    ctx: &RepairCtx,
    rs: &mut RepairScratch,
    s: usize,
    logged: bool,
) -> Option<bool> {
    let c = &ctx.cache;
    let csr = &*ctx.csr;
    let counts = std::slice::from_raw_parts(ctx.counts, ctx.counts_len);
    let adds = std::slice::from_raw_parts(ctx.adds, ctx.adds_len);
    let mut lo = MAX_DIST;
    let mut seeded = false;
    for &(u, v, _) in adds {
        let (du, dv) = (c.get(s, u as usize), c.get(s, v as usize));
        for (x, cand) in [(v, du.saturating_add(1)), (u, dv.saturating_add(1))] {
            if cand < c.get(s, x as usize) {
                let key = (cand as usize).min(MAX_DIST);
                rs.buckets[key].push(x);
                lo = lo.min(key);
                seeded = true;
            }
        }
    }
    if !seeded {
        return Some(false);
    }
    if !logged {
        log_row(ctx, rs, s);
    }
    let hist = std::slice::from_raw_parts_mut(c.hist.add(s * MAX_DIST), MAX_DIST);
    let wsum = &mut *c.wsum.add(s);
    let ecc = &mut *c.ecc.add(s);
    let nreach = &mut *c.nreach.add(s);
    let mut overflow = false;
    let mut ecc_dirty = false;
    let mut key = lo;
    while key <= MAX_DIST {
        while let Some(x) = rs.buckets[key].pop() {
            let xi = x as usize;
            let d_old = c.get(s, xi);
            if key >= d_old as usize {
                continue; // stale: already settled at least as close
            }
            if key >= MAX_DIST {
                overflow = true; // finite but beyond histogram range
                continue; // keep draining the buckets
            }
            write_entry(ctx, rs, s, xi, d_old, key as u8);
            let kx = counts[xi];
            if d_old == INVALID_DIST {
                // newly reachable through an added link
                if kx != 0 {
                    *wsum += kx as u64 * (key as u64 + 2);
                    hist[key] += 1;
                    *nreach += 1;
                    *ecc = (*ecc).max(key as u8);
                }
            } else if kx != 0 {
                *wsum -= kx as u64 * (d_old as u64 - key as u64);
                hist[d_old as usize] -= 1;
                hist[key] += 1;
                if d_old == *ecc {
                    ecc_dirty = true;
                }
            }
            let cand = key + 1;
            for &w in csr.neighbors(x) {
                if cand < usize::from(c.get(s, w as usize)) {
                    rs.buckets[cand.min(MAX_DIST)].push(w);
                }
            }
        }
        key += 1;
    }
    if overflow {
        return None;
    }
    if ecc_dirty {
        // the histogram is current again: its highest non-empty
        // bucket is the surviving eccentricity
        *ecc = hist.iter().rposition(|&cnt| cnt != 0).unwrap_or(0) as u8;
    }
    Some(true)
}

/// Runs both repair phases for one source — the unit of work a repair
/// task executes, identical on the sequential and pool paths. Returns
/// `false` when a repaired distance overflowed the cap (the cache must
/// then be released).
fn repair_one_source(ctx: &RepairCtx, rs: &mut RepairScratch, s: usize) -> bool {
    // SAFETY: source `s` is owned by exactly one task; everything this
    // function writes (row `s`, aggregates of `s`, the worker-local
    // scratch) is private to that task.
    let flags_s = unsafe { *ctx.flags.add(s) };
    let mut changed = false;
    if ctx.dels_len > 0 && flags_s & (DEL_AFF | NO_STRICT) != 0 {
        match unsafe { del_repair_source(ctx, rs, s) } {
            None => return false,
            Some(c) => changed = c,
        }
    }
    if ctx.adds_len > 0 {
        match unsafe { add_repair_source(ctx, rs, s, changed) } {
            None => return false,
            Some(c) => changed |= c,
        }
    }
    rs.touched += u32::from(changed);
    true
}

// ---- persistent evaluation worker pool ---------------------------------

/// One evaluation job, published to the pool by the evaluating thread.
/// Task ids below the batch count (`⌈srcs_len/64⌉`) are 64-wide sweep
/// batches; the rest index into `repair`. All pointers stay valid until
/// the job completes (the publisher blocks).
#[derive(Debug, Clone, Copy)]
struct JobPacket {
    csr: *const SlotCsr,
    counts: *const u32,
    counts_len: usize,
    srcs: *const u32,
    srcs_len: usize,
    scratch: *mut EvalScratch,
    cache: Option<CachePtrs>,
    repair: *const u32,
    repair_len: usize,
    rctx: Option<RepairCtx>,
    rscratch: *mut RepairScratch,
}

// SAFETY: the publisher blocks until every worker finished, scratch
// buffers are indexed per worker, and cached sweeps/repairs write
// disjoint rows.
unsafe impl Send for JobPacket {}
unsafe impl Sync for JobPacket {}

impl JobPacket {
    /// Sweep batches plus repair sources.
    fn ntasks(&self) -> usize {
        self.srcs_len.div_ceil(64) + self.repair_len
    }
}

/// Runs task `t` of `job` on worker `w`'s scratch — the one unit of work
/// of both the pool and the inline path. A plain sweep batch adds its
/// sums to `acc`. Returns `false` when the task overflowed the cache's
/// distance cap (the cache must then be released).
///
/// # Safety
/// Every pointer of `job` must be live for the call, worker `w`'s
/// buffers (`scratch.add(w)`, `rscratch.add(w)`) must be exclusive to
/// the calling thread, `t < job.ntasks()`, and no other call may run
/// task `t` of this job.
unsafe fn run_task(job: &JobPacket, w: usize, t: usize, acc: &mut BatchSums) -> bool {
    let csr = &*job.csr;
    let counts = std::slice::from_raw_parts(job.counts, job.counts_len);
    let nbatches = job.srcs_len.div_ceil(64);
    if t < nbatches {
        let srcs = std::slice::from_raw_parts(job.srcs, job.srcs_len);
        let batch = &srcs[t * 64..(t * 64 + 64).min(srcs.len())];
        let scratch = &mut *job.scratch.add(w);
        match &job.cache {
            Some(c) => return sweep_batch_cached(csr, counts, batch, scratch, c),
            None => acc.absorb(sweep_batch(csr, counts, batch, scratch)),
        }
        true
    } else {
        let ctx = job.rctx.as_ref().expect("repair task without context");
        let s = *job.repair.add(t - nbatches) as usize;
        repair_one_source(ctx, &mut *job.rscratch.add(w), s)
    }
}

/// Runs every task of `job` — on `pool` when given (the caller joins as
/// worker 0), else inline over `0..ntasks` as worker 0 — and returns the
/// plain sweeps' combined sums plus whether any task overflowed.
///
/// # Safety
/// Every pointer of `job` must stay live, and every buffer it points to
/// untouched by anything else, until the call returns; `job.scratch` and
/// `job.rscratch` must hold one buffer per worker of `pool` (one inline).
unsafe fn run_job(pool: Option<&EvalPool>, job: JobPacket) -> (BatchSums, bool) {
    if let Some(pool) = pool {
        return pool.run(job);
    }
    let mut acc = BatchSums::default();
    let mut overflow = false;
    for t in 0..job.ntasks() {
        // SAFETY: the caller's guarantees above, and this thread is the
        // job's only worker, so worker 0's buffers are exclusive and each
        // task runs once.
        overflow |= !run_task(&job, 0, t, &mut acc);
    }
    (acc, overflow)
}

#[derive(Debug)]
struct PoolCtl {
    seq: u64,
    shutdown: bool,
    job: Option<JobPacket>,
    active: usize,
    partials: Vec<BatchSums>,
}

/// One worker's cumulative scheduler counters. Written with relaxed
/// atomics — once per job by the owning worker, pushes by the
/// publisher at shard time — and read by [`SearchState::pool_stats`].
/// Untouched (a single relaxed load per job) unless telemetry is on.
#[derive(Debug, Default)]
struct LaneStats {
    pushes: AtomicU64,
    pops: AtomicU64,
    steals: AtomicU64,
    steal_fails: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

#[derive(Debug)]
struct PoolShared {
    ctl: Mutex<PoolCtl>,
    go: Condvar,
    done: Condvar,
    /// One claim cursor per worker (index 0 = the publisher): the next
    /// unclaimed task of the worker's shard `[w·per, (w+1)·per)`. The
    /// publisher stores each shard start before the job is published;
    /// a claim is one `fetch_add`, and a value at or past the shard end
    /// means the shard is exhausted for the rest of the job.
    cursors: Vec<AtomicUsize>,
    overflow: AtomicBool,
    /// Per-worker scheduler telemetry; populated only while
    /// [`PoolShared::telemetry`] is set.
    lanes: Vec<LaneStats>,
    telemetry: AtomicBool,
}

/// Persistent evaluation workers: spawned once per [`SearchState`],
/// parked on a condvar between proposals, woken by sequence number.
/// Replaces the per-proposal `std::thread::scope` spawn of the previous
/// engine — the steady-state eval path creates no threads at all.
#[derive(Debug)]
struct EvalPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Executes this worker's share of `job`: claims tasks through its own
/// cursor until its shard is exhausted, then through each sibling's
/// cursor in turn. A claim on a sibling's shard counts as a steal, and
/// the first claim past a sibling's shard end as a steal-fail.
fn pool_process(job: &JobPacket, worker: usize, shared: &PoolShared) -> BatchSums {
    let telemetry = shared.telemetry.load(Ordering::Relaxed);
    let job_start = telemetry.then(Instant::now);
    let (mut busy_ns, mut pops, mut steals, mut steal_fails) = (0u64, 0u64, 0u64, 0u64);
    let nw = shared.cursors.len();
    let ntasks = job.ntasks();
    let per = ntasks.div_ceil(nw);
    let mut acc = BatchSums::default();
    for k in 0..nw {
        let owner = (worker + k) % nw;
        let end = ((owner + 1) * per).min(ntasks);
        loop {
            // Relaxed suffices: the job mutex orders the publisher's
            // shard-start store before this load, and the cursor's own
            // modification order hands each value to exactly one claim.
            let t = shared.cursors[owner].fetch_add(1, Ordering::Relaxed);
            if t >= end {
                steal_fails += u64::from(k > 0);
                break;
            }
            if k == 0 {
                pops += 1;
            } else {
                steals += 1;
            }
            // Telemetry brackets each task with two clock reads (tens of
            // ns against µs-scale BFS batches and repairs).
            let t0 = telemetry.then(Instant::now);
            // SAFETY: the publisher keeps `job`'s pointers alive until
            // every worker finished, buffer index `worker` belongs to
            // this thread alone, `t < end <= ntasks`, and the `fetch_add`
            // above gave task `t` to this claim only.
            if !unsafe { run_task(job, worker, t, &mut acc) } {
                shared.overflow.store(true, Ordering::Relaxed);
            }
            if let Some(t0) = t0 {
                busy_ns += t0.elapsed().as_nanos() as u64;
            }
        }
    }
    if let Some(t0) = job_start {
        let total_ns = t0.elapsed().as_nanos() as u64;
        let lane = &shared.lanes[worker];
        lane.pops.fetch_add(pops, Ordering::Relaxed);
        lane.steals.fetch_add(steals, Ordering::Relaxed);
        lane.steal_fails.fetch_add(steal_fails, Ordering::Relaxed);
        lane.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        lane.idle_ns
            .fetch_add(total_ns.saturating_sub(busy_ns), Ordering::Relaxed);
    }
    acc
}

impl EvalPool {
    /// Spawns `extra` parked workers (the evaluating thread itself acts
    /// as worker 0). If a spawn fails, the workers already started are
    /// shut down and joined before the error is returned.
    fn spawn(extra: usize) -> std::io::Result<Self> {
        let shared = Arc::new(PoolShared {
            ctl: Mutex::new(PoolCtl {
                seq: 0,
                shutdown: false,
                job: None,
                active: 0,
                partials: vec![BatchSums::default(); extra + 1],
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            cursors: (0..=extra).map(|_| AtomicUsize::new(0)).collect(),
            overflow: AtomicBool::new(false),
            lanes: (0..=extra).map(|_| LaneStats::default()).collect(),
            telemetry: AtomicBool::new(false),
        });
        let mut pool = Self {
            shared,
            handles: Vec::with_capacity(extra),
        };
        for w in 1..=extra {
            let shared = Arc::clone(&pool.shared);
            // `?` drops `pool`, whose `Drop` joins the started workers.
            let handle = std::thread::Builder::new().spawn(move || {
                let mut last_seen = 0u64;
                loop {
                    let job = {
                        let mut ctl = shared.ctl.lock().expect("pool lock");
                        loop {
                            if ctl.shutdown {
                                return;
                            }
                            if ctl.seq != last_seen {
                                if let Some(job) = ctl.job {
                                    last_seen = ctl.seq;
                                    break job;
                                }
                            }
                            ctl = shared.go.wait(ctl).expect("pool wait");
                        }
                    };
                    let acc = pool_process(&job, w, &shared);
                    let mut ctl = shared.ctl.lock().expect("pool lock");
                    ctl.partials[w] = acc;
                    ctl.active -= 1;
                    if ctl.active == 0 {
                        shared.done.notify_one();
                    }
                }
            })?;
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Runs one job across the pool (the caller participates as worker
    /// 0) and returns the combined sums plus the overflow flag.
    fn run(&self, job: JobPacket) -> (BatchSums, bool) {
        self.shared.overflow.store(false, Ordering::Relaxed);
        // Point each worker's cursor at its contiguous shard of the task
        // list (worker w owns tasks [w·per, (w+1)·per)): contiguous
        // source ranges keep each worker's row writes dense in memory,
        // and claims through siblings' cursors rebalance the tail. The
        // job publish below (mutex + condvar) orders these stores before
        // any worker's first claim.
        let ntasks = job.ntasks();
        let per = ntasks.div_ceil(self.shared.cursors.len());
        let telemetry = self.shared.telemetry.load(Ordering::Relaxed);
        for (w, cursor) in self.shared.cursors.iter().enumerate() {
            let start = w * per;
            cursor.store(start, Ordering::Relaxed);
            if telemetry {
                let shard = ntasks.min(start + per).saturating_sub(start);
                self.shared.lanes[w]
                    .pushes
                    .fetch_add(shard as u64, Ordering::Relaxed);
            }
        }
        {
            let mut ctl = self.shared.ctl.lock().expect("pool lock");
            ctl.seq += 1;
            ctl.job = Some(job);
            ctl.active = self.handles.len();
            for p in &mut ctl.partials {
                *p = BatchSums::default();
            }
        }
        self.shared.go.notify_all();
        let mine = pool_process(&job, 0, &self.shared);
        let mut ctl = self.shared.ctl.lock().expect("pool lock");
        while ctl.active > 0 {
            ctl = self.shared.done.wait(ctl).expect("pool wait");
        }
        ctl.job = None;
        let mut totals = mine;
        for p in &ctl.partials {
            totals.absorb(*p);
        }
        (totals, self.shared.overflow.load(Ordering::Relaxed))
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        {
            let mut ctl = self.shared.ctl.lock().expect("pool lock");
            ctl.shutdown = true;
        }
        self.shared.go.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---- evaluation outcome & stats ----------------------------------------

/// Which code path scored the last proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalPathKind {
    /// Full batched sweep over every hostful source.
    #[default]
    Full,
    /// Affected-source re-sweep over the distance cache.
    Incremental,
    /// Guarded evaluation proved the move hopeless without any BFS.
    EarlyRejected,
}

/// Running counters for the evaluation paths, exposed for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Evaluations that swept every hostful source.
    pub full: u64,
    /// Evaluations served by the affected-source re-sweep.
    pub incremental: u64,
    /// Guarded evaluations rejected from the lower bound alone.
    pub early_rejected: u64,
    /// Sources fixed by the in-place repair path instead of a re-BFS
    /// (a subset of the incremental evaluations' affected sources).
    pub repaired: u64,
    /// Cache rows rewritten by a full re-BFS sweep (the expensive
    /// complement of [`EvalStats::repaired`]).
    pub swept: u64,
    /// Jobs dispatched to the worker pool.
    pub pool_jobs: u64,
    /// Path taken by the most recent evaluation.
    pub last_kind: EvalPathKind,
    /// Sources re-swept by the most recent evaluation.
    pub last_affected: u32,
    /// Source universe of the most recent evaluation (every switch on
    /// the cached path, hostful switches on the plain path).
    pub last_sources: u32,
}

/// One worker's cumulative scheduler counters, as returned by
/// [`SearchState::pool_stats`]. All values are totals since the pool
/// was spawned (telemetry-off stretches contribute nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWorkerStats {
    /// Tasks in this worker's shards (its cursor's start-to-end span,
    /// summed over jobs).
    pub pushes: u64,
    /// Tasks this worker claimed from its own shard.
    pub pops: u64,
    /// Tasks this worker claimed from siblings' shards.
    pub steals: u64,
    /// Sibling shards this worker found exhausted (one per sibling per
    /// job, counted at the first claim past the shard's end).
    pub steal_fails: u64,
    /// Wall nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Wall nanoseconds inside jobs but not executing (claiming tasks
    /// and probing exhausted shards).
    pub idle_ns: u64,
}

/// Result of [`SearchState::evaluate_guarded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalOutcome {
    /// The graph was scored.
    Metrics(PathMetrics),
    /// Some host pair is unreachable.
    Disconnected,
    /// The proposal was provably worse than the caller's threshold; no
    /// BFS ran and the cache is untouched. Contains the proven h-ASPL
    /// lower bound.
    EarlyRejected(f64),
}

/// One entry of the undo log; each names the *applied* mutation, so
/// rollback performs its inverse.
#[derive(Debug, Clone, Copy)]
enum UndoOp {
    AddedLink(Switch, Switch),
    RemovedLink(Switch, Switch),
    /// Host `.0` was moved; it previously sat on switch `.1`.
    MovedHost(Host, Switch),
    /// An evaluation rewrote the cache rows logged from header `.0` of
    /// the cache's undo log on. Kept in order with the host moves: the
    /// logged aggregates hold for the host counts of that evaluation.
    RewroteRows(usize),
}

/// The single source of truth for everything the local search reads or
/// mutates: the [`HostSwitchGraph`], a mutation-tracked [`SlotCsr`], the
/// per-switch host counts, and the [`EdgeSet`] used for move sampling.
///
/// Moves go through [`SearchState::apply_swap`] /
/// [`SearchState::apply_swing`] inside a [`SearchState::begin`] …
/// [`SearchState::commit`]/[`SearchState::rollback`] transaction, which
/// keeps all four structures consistent by construction; the structures
/// are never rebuilt after [`SearchState::with_search`]. Scoring via
/// [`SearchState::evaluate`] reuses per-worker [`EvalScratch`] buffers —
/// after warm-up a proposal allocates nothing — and, whenever the
/// [`SearchConfig`] provisions a distance cache, re-sweeps only the
/// sources whose distance vectors the move can actually change (see
/// the module docs). The re-sweeps *and*
/// per-source repairs of one evaluation form a single job, run inline
/// or over the worker pool's per-shard claim cursors.
#[derive(Debug)]
pub struct SearchState {
    g: HostSwitchGraph,
    csr: SlotCsr,
    counts: Vec<u32>,
    edges: EdgeSet,
    hostful: u64,
    undo: Vec<UndoOp>,
    txn_marks: Vec<usize>,
    workers: usize,
    scratch: Vec<EvalScratch>,
    srcs: Vec<u32>,
    cache: Option<DistCache>,
    pool: Option<EvalPool>,
    rebfs_buf: Vec<u32>,
    repair_buf: Vec<u32>,
    /// Per-worker repair scratch (index 0 doubles as the sequential
    /// path's scratch).
    rscratch: Vec<RepairScratch>,
    /// Pending delta split for the repair tasks, reused per evaluation.
    adds_buf: Vec<(u32, u32, u32)>,
    dels_buf: Vec<(u32, u32)>,
    /// Reusable `(source, worker, index)` keys for the deterministic
    /// post-job undo-log merge.
    undo_order: Vec<(u32, u32, u32)>,
    stats: EvalStats,
}

impl SearchState {
    /// Builds the engine around `start` with `workers` evaluation
    /// threads (the caller's thread counts as one; clamped to
    /// `1..=m`) and the given cache budget (see
    /// [`SearchConfig::cache_fits`]). [`resolve_parallel_eval`] is
    /// the automatic worker count.
    ///
    /// Fails with [`GraphError::Disconnected`] if some host pair is
    /// unreachable (the annealer requires a connected start), and with
    /// [`GraphError::InvalidParameters`] on fewer than two hosts or
    /// when the worker threads cannot be started.
    pub fn with_search(
        start: HostSwitchGraph,
        workers: usize,
        cfg: SearchConfig,
    ) -> Result<Self, GraphError> {
        if start.num_hosts() < 2 {
            return Err(GraphError::InvalidParameters(
                "search needs at least two hosts".into(),
            ));
        }
        let counts = start.host_counts();
        let m = start.num_switches() as usize;
        // A job holds at most m + ⌈m/64⌉ tasks (every source re-swept
        // and repaired), so workers beyond m would find next to nothing
        // to claim: clamp before any per-worker buffer or thread exists.
        let requested = workers;
        let workers = workers.min(m).max(1);
        let pool = (workers > 1)
            .then(|| EvalPool::spawn(workers - 1))
            .transpose()
            .map_err(|e| {
                GraphError::InvalidParameters(format!(
                    "cannot start {workers} evaluation workers ({requested} requested): {e}"
                ))
            })?;
        let mut state = Self {
            csr: SlotCsr::from_graph(&start),
            edges: EdgeSet::from_graph(&start),
            hostful: counts.iter().filter(|&&k| k > 0).count() as u64,
            counts,
            g: start,
            undo: Vec::new(),
            txn_marks: Vec::new(),
            workers,
            scratch: vec![EvalScratch::default(); workers],
            srcs: Vec::new(),
            cache: cfg.cache_fits(m).then(|| DistCache::new(m)),
            pool,
            rebfs_buf: Vec::new(),
            repair_buf: Vec::new(),
            rscratch: (0..workers).map(|_| RepairScratch::default()).collect(),
            adds_buf: Vec::new(),
            dels_buf: Vec::new(),
            undo_order: Vec::new(),
            stats: EvalStats::default(),
        };
        if state.evaluate().is_none() {
            return Err(GraphError::Disconnected);
        }
        Ok(state)
    }

    /// Checkpoint-restore constructor: as [`SearchState::with_search`]
    /// but with an explicit [`EdgeSet`] storage order.
    ///
    /// The edge set's internal order after a long run is a function of
    /// the whole move history (swap-remove on every removal), and move
    /// sampling indexes into it — so resuming a run bit-identically
    /// requires restoring that exact order, not rebuilding it from the
    /// graph. `edge_order` must hold exactly the graph's links, each
    /// once, in the checkpointed order.
    pub fn with_search_edge_order(
        start: HostSwitchGraph,
        workers: usize,
        cfg: SearchConfig,
        edge_order: &[(Switch, Switch)],
    ) -> Result<Self, GraphError> {
        let edges = EdgeSet::from_ordered(edge_order).ok_or_else(|| {
            GraphError::InvalidParameters("edge order contains duplicates".into())
        })?;
        if edges.len() != start.num_links()
            || edge_order.iter().any(|&(a, b)| !start.has_link(a, b))
        {
            return Err(GraphError::InvalidParameters(
                "edge order does not match the graph's links".into(),
            ));
        }
        let mut state = Self::with_search(start, workers, cfg)?;
        state.edges = edges;
        Ok(state)
    }

    /// The owned graph. Mutate it only through this engine.
    #[inline]
    pub fn graph(&self) -> &HostSwitchGraph {
        &self.g
    }

    /// The link multiset kept in sync with the graph (for move sampling).
    #[inline]
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    /// The in-place-maintained adjacency.
    #[inline]
    pub fn csr(&self) -> &SlotCsr {
        &self.csr
    }

    /// `k_s` per switch, maintained incrementally.
    #[inline]
    pub fn host_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of evaluation worker threads this state resolved to.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the incremental distance cache is live for this instance.
    #[inline]
    pub fn cache_active(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| !c.disabled)
    }

    /// Evaluation-path counters (full vs incremental vs early-rejected).
    #[inline]
    pub fn eval_stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Turns per-worker scheduler telemetry on or off. Off (the
    /// default), the pool's hot path pays one relaxed load per job;
    /// on, each task execution is clock-bracketed and the counters
    /// land in [`SearchState::pool_stats`].
    pub fn set_pool_telemetry(&self, on: bool) {
        if let Some(pool) = &self.pool {
            pool.shared.telemetry.store(on, Ordering::Relaxed);
        }
    }

    /// Cumulative per-worker scheduler counters (index 0 = the
    /// evaluating thread). Empty on single-worker engines; all zeros
    /// until [`SearchState::set_pool_telemetry`] enables collection.
    pub fn pool_stats(&self) -> Vec<PoolWorkerStats> {
        self.pool.as_ref().map_or_else(Vec::new, |pool| {
            pool.shared
                .lanes
                .iter()
                .map(|l| PoolWorkerStats {
                    pushes: l.pushes.load(Ordering::Relaxed),
                    pops: l.pops.load(Ordering::Relaxed),
                    steals: l.steals.load(Ordering::Relaxed),
                    steal_fails: l.steal_fails.load(Ordering::Relaxed),
                    busy_ns: l.busy_ns.load(Ordering::Relaxed),
                    idle_ns: l.idle_ns.load(Ordering::Relaxed),
                })
                .collect()
        })
    }

    /// Resident bytes of the live distance cache (row store, per-source
    /// aggregates, and transactional undo log). 0 when no cache is
    /// provisioned or it disabled itself.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache
            .as_ref()
            .filter(|c| !c.disabled)
            .map_or(0, DistCache::resident_bytes)
    }

    /// Consumes the engine, returning the graph.
    pub fn into_graph(self) -> HostSwitchGraph {
        self.g
    }

    // ---- transactional mutation ------------------------------------

    /// Opens a transaction. Transactions nest; each `begin` must be
    /// matched by exactly one [`Self::commit`] or [`Self::rollback`].
    pub fn begin(&mut self) {
        self.txn_marks.push(self.undo.len());
        if let Some(c) = &mut self.cache {
            c.mark();
        }
    }

    /// Whether a transaction is currently open.
    #[inline]
    pub fn in_txn(&self) -> bool {
        !self.txn_marks.is_empty()
    }

    /// Makes the innermost transaction's mutations permanent (or part of
    /// the enclosing transaction, if one is open).
    pub fn commit(&mut self) {
        self.txn_marks.pop().expect("commit without begin");
        if let Some(c) = &mut self.cache {
            c.commit_mark();
        }
        if self.txn_marks.is_empty() {
            self.undo.clear();
        }
    }

    /// Reverts every mutation of the innermost transaction, restoring the
    /// graph, CSR, host counts, and edge set to their state at `begin`.
    /// The distance cache writes back every entry an in-transaction
    /// evaluation overwrote, at that evaluation's place in the undo log,
    /// and rewinds its pending edge delta, so a rejected proposal leaves
    /// the cache exactly as `begin` found it — the *next* proposal's
    /// affected set is not inflated by the rejected one.
    pub fn rollback(&mut self) {
        let mark = self.txn_marks.pop().expect("rollback without begin");
        while self.undo.len() > mark {
            match self.undo.pop().expect("len > mark") {
                UndoOp::AddedLink(a, b) => self.raw_unlink(a, b),
                UndoOp::RemovedLink(a, b) => self.raw_link(a, b),
                UndoOp::MovedHost(h, from) => self.raw_move_host(h, from),
                UndoOp::RewroteRows(from) => {
                    if let Some(c) = &mut self.cache {
                        c.restore_rows(from, &self.counts);
                    }
                }
            }
        }
        if let Some(c) = &mut self.cache {
            c.rollback_mark();
        }
    }

    fn raw_link(&mut self, a: Switch, b: Switch) {
        self.g.add_link(a, b).expect("undo-logged link re-add");
        self.csr.add_link(a, b);
        self.edges.insert(a, b);
        if let Some(c) = &mut self.cache {
            c.note_edge(a, b, 1);
        }
    }

    fn raw_unlink(&mut self, a: Switch, b: Switch) {
        self.g.remove_link(a, b).expect("undo-logged link removal");
        self.csr.remove_link(a, b);
        self.edges.remove(a, b);
        if let Some(c) = &mut self.cache {
            c.note_edge(a, b, -1);
        }
    }

    fn raw_move_host(&mut self, h: Host, to: Switch) {
        let from = self.g.switch_of(h);
        self.g.move_host(h, to).expect("undo-logged host move");
        let from_old = self.counts[from as usize];
        let to_old = self.counts[to as usize];
        self.counts[from as usize] -= 1;
        if self.counts[from as usize] == 0 {
            self.hostful -= 1;
        }
        if self.counts[to as usize] == 0 {
            self.hostful += 1;
        }
        self.counts[to as usize] += 1;
        if let Some(c) = &mut self.cache {
            c.note_host_delta(from, from_old, from_old - 1);
            c.note_host_delta(to, to_old, to_old + 1);
        }
    }

    fn link(&mut self, a: Switch, b: Switch) {
        self.raw_link(a, b);
        self.undo.push(UndoOp::AddedLink(a, b));
    }

    fn unlink(&mut self, a: Switch, b: Switch) {
        self.raw_unlink(a, b);
        self.undo.push(UndoOp::RemovedLink(a, b));
    }

    fn move_host(&mut self, h: Host, to: Switch) {
        let from = self.g.switch_of(h);
        self.raw_move_host(h, to);
        self.undo.push(UndoOp::MovedHost(h, from));
    }

    /// Applies a swap (Fig. 2) to every owned structure. Must be inside a
    /// transaction; invalid swaps leave the state untouched.
    pub fn apply_swap(&mut self, s: Swap) -> Result<(), GraphError> {
        assert!(self.in_txn(), "apply_swap outside a transaction");
        if !s.is_valid(&self.g) {
            return Err(GraphError::InvalidParameters(format!("invalid swap {s:?}")));
        }
        self.unlink(s.a, s.b);
        self.unlink(s.c, s.d);
        self.link(s.a, s.d);
        self.link(s.c, s.b);
        Ok(())
    }

    /// Applies a swing (Fig. 3) to every owned structure, returning the
    /// host that moved. Must be inside a transaction; invalid swings leave
    /// the state untouched.
    pub fn apply_swing(&mut self, s: Swing) -> Result<Host, GraphError> {
        assert!(self.in_txn(), "apply_swing outside a transaction");
        if !s.is_valid(&self.g) {
            return Err(GraphError::InvalidParameters(format!(
                "invalid swing {s:?}"
            )));
        }
        let h = *self.g.hosts_of(s.c).last().expect("validated non-empty");
        self.unlink(s.a, s.b);
        self.move_host(h, s.b);
        self.link(s.a, s.c);
        Ok(h)
    }

    // ---- evaluation -------------------------------------------------

    /// Scores the current (possibly uncommitted) graph: h-ASPL, diameter,
    /// and total pair length, or `None` if some host pair is unreachable.
    ///
    /// On cache-backed instances only the sources affected by the edge
    /// delta since the last evaluation are re-swept; otherwise (and as
    /// the fallback) the full batched BFS runs over the in-place CSR and
    /// reused scratch.
    pub fn evaluate(&mut self) -> Option<PathMetrics> {
        match self.evaluate_guarded(None) {
            EvalOutcome::Metrics(m) => Some(m),
            EvalOutcome::Disconnected => None,
            EvalOutcome::EarlyRejected(_) => unreachable!("no reject threshold given"),
        }
    }

    /// As [`Self::evaluate`], but with an optional early-reject
    /// threshold: if the engine can prove from the cached distances alone
    /// that the new h-ASPL exceeds `reject_above` (possible when no
    /// added link shortcuts any source and some removed link strictly
    /// lengthens a path), it returns [`EvalOutcome::EarlyRejected`]
    /// without running any BFS and without touching the cache — the
    /// caller is expected to roll the proposal back.
    pub fn evaluate_guarded(&mut self, reject_above: Option<f64>) -> EvalOutcome {
        let n = self.g.num_hosts() as u64;
        self.srcs.clear();
        let counts = &self.counts;
        self.srcs
            .extend((0..self.csr.len() as u32).filter(|&s| counts[s as usize] > 0));
        if self.cache_active() {
            if let Some(outcome) = self.evaluate_cached(n, reject_above) {
                return outcome;
            }
            // the cached sweep overflowed the distance cap: drop
            // the cache and fall through to the plain path
            if let Some(c) = &mut self.cache {
                c.release();
            }
        }
        let totals = self.sweep_all_plain();
        self.stats.full += 1;
        self.stats.last_kind = EvalPathKind::Full;
        self.stats.last_affected = self.srcs.len() as u32;
        self.stats.last_sources = self.srcs.len() as u32;
        self.finish(n, totals)
    }

    /// The cache-backed evaluation path; `None` means the cache
    /// overflowed and the caller must fall back to the plain sweep.
    ///
    /// Re-sweeps and per-source repairs are one combined job: sweeps
    /// rewrite *invalid* rows, repairs rewrite *valid* rows, and both
    /// touch only their own source's row and aggregates, so the tasks
    /// are independent and may run in any order — inline in task order
    /// on small jobs and single-worker engines, else claimed through the
    /// pool's per-shard cursors. Every task runs even after one
    /// overflows (the cache is then released either way). The undo-log
    /// merge happens in source order afterwards, so the result is
    /// bit-identical for any worker count and schedule.
    fn evaluate_cached(&mut self, n: u64, reject_above: Option<f64>) -> Option<EvalOutcome> {
        let in_txn = self.in_txn();
        let cache = self.cache.as_mut().expect("cache_active checked");
        // split the pending delta once for the scan and every repair task
        cache.split_delta(&mut self.adds_buf, &mut self.dels_buf);
        let scan = cache.scan_delta(
            &self.csr,
            &self.counts,
            &self.adds_buf,
            &self.dels_buf,
            &mut self.rebfs_buf,
            &mut self.repair_buf,
        );
        if let Some(limit) = reject_above {
            if scan.guardable && !scan.invalid_hostful {
                let weighted = cache.lower_bound_weighted(&self.counts, &scan);
                let lb = finalize_metrics(n, &self.counts, weighted, 0, weighted > 0).haspl;
                if lb > limit {
                    self.stats.early_rejected += 1;
                    self.stats.last_kind = EvalPathKind::EarlyRejected;
                    self.stats.last_affected = 0;
                    self.stats.last_sources = self.srcs.len() as u32;
                    return Some(EvalOutcome::EarlyRejected(lb));
                }
            }
        }
        let full = self.rebfs_buf.len() == self.csr.len();
        let m = self.csr.len();
        let cache = self.cache.as_mut().expect("cache_active checked");
        let logged_from = cache.undo_rows.len();
        if in_txn {
            // Rows rewritten wholesale by re-BFS are logged here; the
            // repair path logs at its write sites, so
            // conservatively-routed rows a witness protects never pay
            // for a log entry.
            for &s in self.rebfs_buf.iter() {
                cache.log_swept_row(s);
            }
        }
        let ptrs = cache.ptrs();
        let rctx = RepairCtx {
            cache: ptrs,
            flags: cache.flags.as_ptr(),
            csr: &self.csr,
            counts: self.counts.as_ptr(),
            counts_len: self.counts.len(),
            adds: self.adds_buf.as_ptr(),
            adds_len: self.adds_buf.len(),
            dels: self.dels_buf.as_ptr(),
            dels_len: self.dels_buf.len(),
            log: in_txn,
        };
        for rs in &mut self.rscratch {
            rs.ensure(m);
            rs.reset_job();
        }
        let job = JobPacket {
            csr: &self.csr,
            counts: self.counts.as_ptr(),
            counts_len: self.counts.len(),
            srcs: self.rebfs_buf.as_ptr(),
            srcs_len: self.rebfs_buf.len(),
            scratch: self.scratch.as_mut_ptr(),
            cache: Some(ptrs),
            repair: self.repair_buf.as_ptr(),
            repair_len: self.repair_buf.len(),
            rctx: Some(rctx),
            rscratch: self.rscratch.as_mut_ptr(),
        };
        let pool = self
            .pool
            .as_ref()
            .filter(|_| self.rebfs_buf.len() > 64 || job.ntasks() >= POOL_TASK_THRESHOLD);
        self.stats.pool_jobs += u64::from(pool.is_some());
        // SAFETY: `job` points into this engine's buffers, which the
        // exclusive borrow of `self` keeps alive and untouched until the
        // call returns, with one scratch per worker.
        if unsafe { run_job(pool, job) }.1 {
            return None;
        }
        let cache = self.cache.as_mut().expect("cache_active checked");
        if in_txn {
            // Merge the worker-local undo logs into the cache's log in
            // ascending source order — deterministic no matter which
            // worker executed (or stole) each repair task. Within one
            // evaluation each source is logged at most once, so the
            // rows of one `RewroteRows` entry are disjoint.
            self.undo_order.clear();
            for (w, rs) in self.rscratch.iter().enumerate() {
                for (i, h) in rs.undo_rows.iter().enumerate() {
                    self.undo_order.push((h.s, w as u32, i as u32));
                }
            }
            self.undo_order.sort_unstable();
            for &(_, w, i) in &self.undo_order {
                let rs = &self.rscratch[w as usize];
                let h = rs.undo_rows[i as usize];
                let end = rs
                    .undo_rows
                    .get(i as usize + 1)
                    .map_or(rs.undo_entries.len(), |next| next.start);
                cache.undo_rows.push(RowUndo {
                    start: cache.undo_entries.len(),
                    ..h
                });
                cache
                    .undo_entries
                    .extend_from_slice(&rs.undo_entries[h.start..end]);
            }
            if cache.undo_rows.len() > logged_from {
                self.undo.push(UndoOp::RewroteRows(logged_from));
            }
        }
        cache.touched = self.rscratch.iter().map(|rs| rs.touched).sum();
        cache.edge_delta.clear();
        let totals = cache.totals(&self.counts);
        if full {
            self.stats.full += 1;
            self.stats.last_kind = EvalPathKind::Full;
        } else {
            self.stats.incremental += 1;
            self.stats.last_kind = EvalPathKind::Incremental;
        }
        let touched = self.cache.as_ref().expect("cache_active checked").touched;
        self.stats.repaired += u64::from(touched);
        self.stats.swept += self.rebfs_buf.len() as u64;
        self.stats.last_affected = self.rebfs_buf.len() as u32 + touched;
        self.stats.last_sources = self.csr.len() as u32;
        Some(self.finish(n, totals))
    }

    /// Full batched sweep with no cache involvement, on the pool when
    /// the instance is large enough.
    fn sweep_all_plain(&mut self) -> BatchSums {
        let job = JobPacket {
            csr: &self.csr,
            counts: self.counts.as_ptr(),
            counts_len: self.counts.len(),
            srcs: self.srcs.as_ptr(),
            srcs_len: self.srcs.len(),
            scratch: self.scratch.as_mut_ptr(),
            cache: None,
            repair: std::ptr::null(),
            repair_len: 0,
            rctx: None,
            rscratch: self.rscratch.as_mut_ptr(),
        };
        let pool = self.pool.as_ref().filter(|_| self.srcs.len() > 64);
        self.stats.pool_jobs += u64::from(pool.is_some());
        // SAFETY: as in `evaluate_cached`.
        unsafe { run_job(pool, job) }.0
    }

    /// Connectivity check plus the shared metric accounting.
    fn finish(&self, n: u64, totals: BatchSums) -> EvalOutcome {
        // every source must have reached every hostful switch
        if totals.reached != self.srcs.len() as u64 * self.hostful {
            return EvalOutcome::Disconnected;
        }
        EvalOutcome::Metrics(finalize_metrics(
            n,
            &self.counts,
            totals.weighted,
            totals.max_d,
            totals.weighted > 0,
        ))
    }

    /// Debug-grade cross-check that every incremental structure matches a
    /// from-scratch derivation (used by the property suites): host
    /// counts, adjacency, edge set, and — when the distance cache is live
    /// — its aggregates against its rows and, once the pending edge delta
    /// is settled, its rows against fresh single-source BFS distances.
    pub fn check_consistency(&self) -> Result<(), String> {
        let fresh_counts = self.g.host_counts();
        if self.counts != fresh_counts {
            return Err(format!(
                "host counts diverged: incremental {:?} vs fresh {:?}",
                self.counts, fresh_counts
            ));
        }
        let fresh = SwitchCsr::from_graph(&self.g);
        for s in 0..self.csr.len() as u32 {
            let mut a: Vec<u32> = self.csr.neighbors(s).to_vec();
            let mut b: Vec<u32> = fresh.neighbors(s).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return Err(format!("adjacency of switch {s} diverged: {a:?} vs {b:?}"));
            }
        }
        let mut ours: Vec<(u32, u32)> = self.edges.edges().to_vec();
        let mut theirs: Vec<(u32, u32)> = self.g.links().collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        if ours != theirs {
            return Err(format!("edge set diverged: {ours:?} vs {theirs:?}"));
        }
        self.check_cache_consistency()
    }

    /// Distance-cache part of [`Self::check_consistency`].
    fn check_cache_consistency(&self) -> Result<(), String> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        if cache.disabled {
            return Ok(());
        }
        let m = cache.m;
        let settled = cache.edge_delta.is_empty();
        for s in 0..m {
            if !cache.valid[s] {
                continue;
            }
            let row = &cache.rows[s * m..(s + 1) * m];
            // aggregates must match the row as stored + current counts
            let mut wsum = 0u64;
            let mut hist = vec![0u32; MAX_DIST];
            let mut nreach = 0u32;
            let mut ecc = 0u8;
            for (v, (&k, &d)) in self.counts.iter().zip(row).enumerate() {
                if v == s || d == INVALID_DIST || k == 0 {
                    continue;
                }
                wsum += k as u64 * (d as u64 + 2);
                hist[d as usize] += 1;
                nreach += 1;
                ecc = ecc.max(d);
            }
            if wsum != cache.wsum[s]
                || nreach != cache.nreach[s]
                || ecc != cache.ecc[s]
                || hist != cache.hist[s * MAX_DIST..(s + 1) * MAX_DIST]
            {
                return Err(format!(
                    "cache aggregates of source {s} diverged from its row \
                     (wsum {} vs {}, nreach {} vs {}, ecc {} vs {})",
                    cache.wsum[s], wsum, cache.nreach[s], nreach, cache.ecc[s], ecc
                ));
            }
            if settled {
                // rows must equal fresh BFS distances of the owned graph
                let fresh = self.g.switch_distances(s as u32);
                for (v, (&f, &d)) in fresh.iter().zip(row).enumerate() {
                    let cached = if d == INVALID_DIST {
                        u32::MAX
                    } else {
                        u32::from(d)
                    };
                    if cached != f {
                        return Err(format!(
                            "cached distance d({s},{v}) = {cached} diverged from fresh {f}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::random_general;
    use crate::metrics::path_metrics;
    use crate::ops::{sample_swap, sample_swing};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Side-by-side cost of the plain vs cache-filling batched sweep;
    /// run with `--ignored --nocapture` on a release build when tuning.
    #[test]
    #[ignore = "perf harness, not a correctness check"]
    fn bfs_sweep_cost_comparison() {
        let m = 4096u32;
        let g = random_general(4 * m, m, 12, 7).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let srcs: Vec<u32> = (0..m).collect();
        let mut scratch = EvalScratch::default();
        for round in 0..3 {
            let t0 = std::time::Instant::now();
            let mut sums = BatchSums::default();
            for lo in (0..srcs.len()).step_by(64) {
                sums.absorb(sweep_batch(
                    &st.csr,
                    &st.counts,
                    &srcs[lo..lo + 64],
                    &mut scratch,
                ));
            }
            let plain = t0.elapsed();
            let cache = st.cache.as_mut().unwrap();
            let ptrs = cache.ptrs();
            let t0 = std::time::Instant::now();
            for lo in (0..srcs.len()).step_by(64) {
                assert!(sweep_batch_cached(
                    &st.csr,
                    &st.counts,
                    &srcs[lo..lo + 64],
                    &mut scratch,
                    &ptrs,
                ));
            }
            let cached = t0.elapsed();
            println!(
                "round {round}: plain {plain:?}  cached {cached:?}  (weighted {})",
                sums.weighted
            );
        }
    }

    /// Per-call cost of the whole-row scan against the per-entry
    /// reference on single swings, at the two perf-ledger solve sizes
    /// (m = 195 and 6177); run with `--release -- --ignored --nocapture`
    /// when tuning the scan.
    #[test]
    #[ignore = "perf harness, not a correctness check"]
    fn scan_kernel_cost_comparison() {
        for (n, m, r) in [(1024u32, 195u32, 15u32), (16384, 6177, 12)] {
            let g = random_general(n, m, r, 1).unwrap();
            let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let (mut adds, mut dels) = (Vec::new(), Vec::new());
            let (mut rebfs, mut repair) = (Vec::new(), Vec::new());
            let (mut kernel, mut reference, mut calls) = (0.0, 0.0, 0);
            for _ in 0..400 {
                let Some(s) = sample_swing(st.graph(), st.edges(), &mut rng, 24) else {
                    continue;
                };
                st.begin();
                st.apply_swing(s).unwrap();
                let cache = st.cache.as_mut().unwrap();
                cache.split_delta(&mut adds, &mut dels);
                let t0 = Instant::now();
                cache.scan_delta(&st.csr, &st.counts, &adds, &dels, &mut rebfs, &mut repair);
                kernel += t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                cache.scan_delta_reference(
                    &st.csr,
                    &st.counts,
                    &adds,
                    &dels,
                    &mut rebfs,
                    &mut repair,
                );
                reference += t0.elapsed().as_secs_f64();
                calls += 1;
                st.rollback();
            }
            let us = |t: f64| t / calls as f64 * 1e6;
            println!(
                "m = {m}: kernel {:.1} us, reference {:.1} us per swing scan ({calls} scans)",
                us(kernel),
                us(reference)
            );
        }
    }

    /// Prints how swap/swing proposals classify sources (re-BFS vs
    /// formula repair vs untouched); run with `--ignored --nocapture`
    /// when tuning the scan.
    #[test]
    #[ignore = "perf harness, not a correctness check"]
    fn delta_classification_profile() {
        let m = 1024u32;
        let g = random_general(4 * m, m, 12, 7).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for round in 0..8 {
            for swing in [false, true] {
                st.begin();
                let ok = if swing {
                    sample_swing(&st.g, &st.edges, &mut rng, 32)
                        .map(|s| st.apply_swing(s).unwrap())
                        .is_some()
                } else {
                    sample_swap(&st.g, &st.edges, &mut rng, 32)
                        .map(|s| st.apply_swap(s).unwrap())
                        .is_some()
                };
                if !ok {
                    st.rollback();
                    continue;
                }
                let counts = st.counts.clone();
                let cache = st.cache.as_mut().unwrap();
                let (mut rebfs, mut repair) = (Vec::new(), Vec::new());
                let (mut adds, mut dels) = (Vec::new(), Vec::new());
                cache.split_delta(&mut adds, &mut dels);
                cache.scan_delta(&st.csr, &counts, &adds, &dels, &mut rebfs, &mut repair);
                let mu = cache.m;
                let count = |bit: u8| (0..mu).filter(|&s| cache.flags[s] & bit != 0).count();
                println!(
                    "round {round} {}: rebfs {:>4} repair {:>4}  add_aff {:>4} del_aff {:>4} \
                     no_strict {:>4}",
                    if swing { "swing" } else { "swap " },
                    rebfs.len(),
                    repair.len(),
                    count(ADD_AFF),
                    count(DEL_AFF),
                    count(NO_STRICT),
                );
                st.rollback();
            }
        }
    }

    /// Structural equality up to adjacency-list ordering (rollback uses
    /// `swap_remove`, which permutes neighbour lists).
    fn assert_same_graph(a: &HostSwitchGraph, b: &HostSwitchGraph) {
        let (mut a, mut b) = (a.clone(), b.clone());
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a, b);
    }

    fn ring(m: u32, hosts_per: u32, r: u32) -> HostSwitchGraph {
        let mut g = HostSwitchGraph::new(m, r).unwrap();
        for s in 0..m {
            g.add_link(s, (s + 1) % m).unwrap();
        }
        for s in 0..m {
            for _ in 0..hosts_per {
                g.attach_host(s).unwrap();
            }
        }
        g
    }

    #[test]
    fn search_config_budget_provisions_the_cache() {
        let default = SearchConfig::default();
        assert!(default.cache_fits(64));
        assert!(
            default.cache_fits(65536),
            "the Graph-Golf range runs cached"
        );
        assert!(!default.cache_fits(1));
        assert!(!SearchConfig::off().cache_fits(2));
    }

    #[test]
    fn sharded_repair_pool_matches_sequential() {
        // the combined sweep+repair job on the pool must be bit-identical
        // to the sequential engine, including rollbacks, and must run
        // every task exactly once (3 workers on any core count)
        let g = random_general(768, 192, 10, 29).unwrap();
        let mut seq = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut par = SearchState::with_search(g, 3, SearchConfig::default()).unwrap();
        assert_eq!(par.workers(), 3);
        assert!(par.eval_stats().pool_jobs > 0, "initial fill uses the pool");
        par.set_pool_telemetry(true);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for step in 0..60 {
            let applied = if step % 2 == 0 {
                sample_swing(seq.graph(), seq.edges(), &mut rng, 24).map(|s| {
                    seq.begin();
                    par.begin();
                    seq.apply_swing(s).unwrap();
                    par.apply_swing(s).unwrap();
                })
            } else {
                sample_swap(seq.graph(), seq.edges(), &mut rng, 24).map(|s| {
                    seq.begin();
                    par.begin();
                    seq.apply_swap(s).unwrap();
                    par.apply_swap(s).unwrap();
                })
            };
            if applied.is_none() {
                continue;
            }
            let want = seq.evaluate();
            assert_eq!(par.evaluate(), want, "step {step}");
            if step % 3 == 0 && want.is_some() {
                seq.commit();
                par.commit();
            } else {
                seq.rollback();
                par.rollback();
            }
        }
        assert_eq!(seq.evaluate(), par.evaluate());
        assert_eq!(seq.eval_stats().repaired, par.eval_stats().repaired);
        assert!(par.eval_stats().repaired > 0, "walk exercised the repairs");
        par.check_consistency().unwrap();
        let lanes = par.pool_stats();
        let shards: u64 = lanes.iter().map(|w| w.pushes).sum();
        let claimed: u64 = lanes.iter().map(|w| w.pops + w.steals).sum();
        assert!(shards > 0, "walk ran pool jobs with telemetry on");
        assert_eq!(
            claimed, shards,
            "every task claimed exactly once: {lanes:?}"
        );
    }

    #[test]
    fn evaluate_matches_path_metrics() {
        for seed in 0..4 {
            let g = random_general(96, 24, 8, seed).unwrap();
            let expect = path_metrics(&g).unwrap();
            let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
            let got = st.evaluate().unwrap();
            assert_eq!(got.total_length, expect.total_length, "seed {seed}");
            assert_eq!(got.diameter, expect.diameter, "seed {seed}");
            assert!((got.haspl - expect.haspl).abs() < 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn evaluate_matches_on_irregular_counts() {
        // hostless switches, piles of hosts on others
        let mut g = HostSwitchGraph::new(5, 8).unwrap();
        for s in 0..5 {
            g.add_link(s, (s + 1) % 5).unwrap();
        }
        for _ in 0..5 {
            g.attach_host(0).unwrap();
        }
        g.attach_host(2).unwrap();
        let expect = path_metrics(&g).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        assert_eq!(st.evaluate().unwrap(), expect);
    }

    #[test]
    fn evaluate_batches_beyond_64_sources() {
        // more than 64 hostful switches exercises multi-batch sweeps; the
        // 126-ring's eccentricity of 63 is the deepest the rows hold
        let g = ring(126, 1, 4);
        let expect = path_metrics(&g).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        assert!(st.cache_active());
        assert_eq!(st.evaluate().unwrap(), expect);
    }

    #[test]
    fn worker_pool_matches_sequential_across_random_walk() {
        // explicit worker counts so the pool is exercised even on 1-CPU
        // machines (usize::MAX clamps to one worker per switch); every
        // engine must follow the sequential trajectory bit for bit
        let g = random_general(256, 72, 10, 21).unwrap();
        for (workers, resolved) in [(3, 3), (usize::MAX, 72)] {
            let mut seq = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
            let mut par =
                SearchState::with_search(g.clone(), workers, SearchConfig::default()).unwrap();
            assert_eq!(par.workers(), resolved);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            for step in 0..60 {
                let Some(s) = sample_swing(seq.graph(), seq.edges(), &mut rng, 24) else {
                    continue;
                };
                seq.begin();
                par.begin();
                seq.apply_swing(s).unwrap();
                par.apply_swing(s).unwrap();
                assert_eq!(
                    seq.evaluate(),
                    par.evaluate(),
                    "{workers} workers, step {step}"
                );
                if step % 3 == 0 {
                    seq.commit();
                    par.commit();
                } else {
                    seq.rollback();
                    par.rollback();
                }
            }
            assert_eq!(seq.evaluate(), par.evaluate());
            par.check_consistency().unwrap();
        }
    }

    #[test]
    fn cache_disabled_engine_matches_cached() {
        // the cached engine must follow the no-cache oracle bit for bit
        // across mixed proposals with commits and rollbacks
        let g = random_general(96, 24, 8, 13).unwrap();
        let mut cached = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
        assert!(cached.cache_active());
        assert!(!plain.cache_active());
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for step in 0..120 {
            let applied = if step % 2 == 0 {
                sample_swing(plain.graph(), plain.edges(), &mut rng, 24).map(|s| {
                    cached.begin();
                    plain.begin();
                    cached.apply_swing(s).unwrap();
                    plain.apply_swing(s).unwrap();
                })
            } else {
                sample_swap(plain.graph(), plain.edges(), &mut rng, 24).map(|s| {
                    cached.begin();
                    plain.begin();
                    cached.apply_swap(s).unwrap();
                    plain.apply_swap(s).unwrap();
                })
            };
            if applied.is_none() {
                continue;
            }
            let want = plain.evaluate();
            assert_eq!(cached.evaluate(), want, "step {step}");
            if step % 3 == 0 && want.is_some() {
                cached.commit();
                plain.commit();
            } else {
                cached.rollback();
                plain.rollback();
            }
        }
        assert_eq!(cached.evaluate(), plain.evaluate());
        cached.check_consistency().unwrap();
        assert!(cached.eval_stats().incremental > 0);
    }

    #[test]
    fn disconnection_detected() {
        let mut g = HostSwitchGraph::new(4, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(2, 3).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(3).unwrap();
        assert!(matches!(
            SearchState::with_search(g, 1, SearchConfig::default()),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn uncommitted_disconnection_is_caught_incrementally() {
        // two 4-cycles joined by {0,4} and {2,6}; the swap rewires both
        // cross links to internal chords, disconnecting the halves — the
        // affected-source scan must surface it without a full sweep
        let mut g = HostSwitchGraph::new(8, 4).unwrap();
        for s in 0..4 {
            g.add_link(s, (s + 1) % 4).unwrap();
            g.add_link(4 + s, 4 + (s + 1) % 4).unwrap();
        }
        g.add_link(0, 4).unwrap();
        g.add_link(2, 6).unwrap();
        for s in 0..8 {
            g.attach_host(s).unwrap();
        }
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let before = st.evaluate().unwrap();
        st.begin();
        // {0,4},{6,2} -> {0,2},{6,4}: both new links are intra-cycle
        let s = Swap {
            a: 0,
            b: 4,
            c: 6,
            d: 2,
        };
        assert!(s.is_valid(st.graph()));
        st.apply_swap(s).unwrap();
        assert!(st.evaluate().is_none());
        st.rollback();
        assert_eq!(st.evaluate().unwrap(), before);
        st.check_consistency().unwrap();
    }

    #[test]
    fn swap_commit_and_rollback() {
        let mut g = ring(6, 1, 5);
        g.add_link(0, 3).unwrap();
        g.add_link(1, 4).unwrap();
        let snapshot = g.clone();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let s = Swap {
            a: 0,
            b: 1,
            c: 3,
            d: 4,
        };

        st.begin();
        st.apply_swap(s).unwrap();
        assert!(st.graph().has_link(0, 4) && !st.graph().has_link(0, 1));
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        st.check_consistency().unwrap();

        st.begin();
        st.apply_swap(s).unwrap();
        st.commit();
        assert!(st.graph().has_link(0, 4) && st.graph().has_link(3, 1));
        st.check_consistency().unwrap();
        assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
    }

    #[test]
    fn swing_rollback_restores_host() {
        let g = ring(5, 2, 6);
        let snapshot = g.clone();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let s = Swing { a: 0, b: 1, c: 3 };
        st.begin();
        let h = st.apply_swing(s).unwrap();
        assert_eq!(st.graph().switch_of(h), 1);
        assert_eq!(st.host_counts()[3], 1);
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        assert_eq!(st.host_counts()[3], 2);
        st.check_consistency().unwrap();
    }

    #[test]
    fn nested_transactions_support_two_neighbor_flow() {
        let g = ring(8, 2, 6);
        let snapshot = g.clone();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();

        // outer swing, inner swing stacked on top, roll both back
        st.begin();
        st.apply_swing(Swing { a: 0, b: 1, c: 3 }).unwrap();
        st.begin();
        let s2 = Swing { a: 4, b: 3, c: 1 };
        assert!(s2.is_valid(st.graph()));
        st.apply_swing(s2).unwrap();
        st.rollback();
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        st.check_consistency().unwrap();

        // commit inner into outer, then commit outer
        st.begin();
        st.apply_swing(Swing { a: 0, b: 1, c: 3 }).unwrap();
        st.begin();
        st.apply_swing(s2).unwrap();
        st.commit();
        st.commit();
        assert!(!st.in_txn());
        st.check_consistency().unwrap();
        assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
    }

    #[test]
    fn invalid_moves_leave_state_untouched() {
        let g = ring(5, 1, 5);
        let snapshot = g.clone();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        st.begin();
        assert!(st
            .apply_swap(Swap {
                a: 0,
                b: 1,
                c: 1,
                d: 2
            })
            .is_err());
        assert!(st.apply_swing(Swing { a: 0, b: 1, c: 0 }).is_err());
        st.rollback();
        assert_same_graph(st.graph(), &snapshot);
        st.check_consistency().unwrap();
    }

    #[test]
    fn long_random_walk_stays_consistent() {
        let g = random_general(64, 16, 8, 5).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for step in 0..300 {
            let accept = step % 3 != 0;
            if step % 2 == 0 {
                let Some(s) = sample_swap(st.graph(), st.edges(), &mut rng, 24) else {
                    continue;
                };
                st.begin();
                st.apply_swap(s).unwrap();
                let ok = st.evaluate().is_some();
                if accept && ok {
                    st.commit();
                } else {
                    st.rollback();
                }
            } else {
                let Some(s) = sample_swing(st.graph(), st.edges(), &mut rng, 24) else {
                    continue;
                };
                st.begin();
                st.apply_swing(s).unwrap();
                let ok = st.evaluate().is_some();
                if accept && ok {
                    st.commit();
                } else {
                    st.rollback();
                }
            }
        }
        st.check_consistency().unwrap();
        assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
    }

    #[test]
    fn early_reject_fires_on_a_provably_uphill_swing() {
        // Hub 0 with leaves 1..4 plus chord {1,2}; hosts 1@1, 4@3, 4@4.
        // Swing{a:3, b:0, c:1} removes the hub link of the heavy leaf 3,
        // re-hangs it off leaf 1, and moves 1's host to the hub: for
        // sources 0 and 4 the removal has no witness (strict ≥ +20 on
        // the ordered sum), while everything behind the added link's
        // far side is hostless, so the improvement allowance is 0 — the
        // guard must prove the move uphill without any BFS.
        let mut g = HostSwitchGraph::new(5, 5).unwrap();
        for leaf in 1..5 {
            g.add_link(0, leaf).unwrap();
        }
        g.add_link(1, 2).unwrap();
        g.attach_host(1).unwrap();
        for _ in 0..4 {
            g.attach_host(3).unwrap();
            g.attach_host(4).unwrap();
        }
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let cur = st.evaluate().unwrap();
        st.begin();
        let s = Swing { a: 3, b: 0, c: 1 };
        assert!(s.is_valid(st.graph()));
        st.apply_swing(s).unwrap();
        let outcome = st.evaluate_guarded(Some(cur.haspl));
        let EvalOutcome::EarlyRejected(lb) = outcome else {
            panic!("expected an early reject, got {outcome:?}");
        };
        assert!(lb > cur.haspl);
        let truth = path_metrics(st.graph()).unwrap();
        assert!(
            truth.haspl >= lb - 1e-9,
            "lower bound {lb} exceeds truth {}",
            truth.haspl
        );
        assert_eq!(st.eval_stats().early_rejected, 1);
        assert_eq!(st.eval_stats().last_kind, EvalPathKind::EarlyRejected);
        // the rejected proposal must not have corrupted the cache
        st.rollback();
        assert_eq!(st.evaluate().unwrap(), cur);
        st.check_consistency().unwrap();
    }

    #[test]
    fn guarded_evaluation_is_sound_on_random_walks() {
        // Every early reject must prove a genuine lower bound, and a
        // guarded engine must stay bit-identical to an unguarded one.
        let g = random_general(128, 32, 8, 7).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let cur = st.evaluate().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for step in 0..300 {
            st.begin();
            let applied = if step % 2 == 0 {
                match sample_swing(st.graph(), st.edges(), &mut rng, 24) {
                    Some(s) => {
                        st.apply_swing(s).unwrap();
                        true
                    }
                    None => false,
                }
            } else {
                match sample_swap(st.graph(), st.edges(), &mut rng, 24) {
                    Some(s) => {
                        st.apply_swap(s).unwrap();
                        true
                    }
                    None => false,
                }
            };
            if !applied {
                st.rollback();
                continue;
            }
            match st.evaluate_guarded(Some(cur.haspl)) {
                EvalOutcome::EarlyRejected(lb) => {
                    assert!(lb > cur.haspl);
                    if let Some(truth) = path_metrics(st.graph()) {
                        assert!(
                            truth.haspl >= lb - 1e-9,
                            "lower bound {lb} exceeds truth {}",
                            truth.haspl
                        );
                    }
                }
                EvalOutcome::Metrics(m) => {
                    assert_eq!(m, path_metrics(st.graph()).unwrap());
                }
                EvalOutcome::Disconnected => {
                    assert!(path_metrics(st.graph()).is_none());
                }
            }
            st.rollback();
        }
        // the rejected proposals must not have corrupted the cache
        assert_eq!(st.evaluate().unwrap(), cur);
        st.check_consistency().unwrap();
    }

    /// Runs the whole-row scan and the per-entry reference on the
    /// pending delta and asserts that they agree field by field.
    /// Returns the scan, the number of removed links and the number of
    /// rows queued for re-BFS.
    fn scan_against_reference(st: &mut SearchState, what: &str) -> (DeltaScan, usize, usize) {
        let counts = st.counts.clone();
        let cache = st.cache.as_mut().expect("cache provisioned");
        let (mut adds, mut dels) = (Vec::new(), Vec::new());
        cache.split_delta(&mut adds, &mut dels);
        let (mut rebfs, mut repair) = (Vec::new(), Vec::new());
        let got = cache.scan_delta(&st.csr, &counts, &adds, &dels, &mut rebfs, &mut repair);
        let (flags, strict) = (cache.flags.clone(), cache.strict.clone());
        let (mut want_rebfs, mut want_repair) = (Vec::new(), Vec::new());
        let want = cache.scan_delta_reference(
            &st.csr,
            &counts,
            &adds,
            &dels,
            &mut want_rebfs,
            &mut want_repair,
        );
        assert_eq!(flags, cache.flags, "{what}: flags");
        assert_eq!(strict, cache.strict, "{what}: strict");
        assert_eq!(rebfs, want_rebfs, "{what}: rebfs");
        assert_eq!(repair, want_repair, "{what}: repair");
        assert_eq!(got.guardable, want.guardable, "{what}: guardable");
        assert_eq!(
            got.invalid_hostful, want.invalid_hostful,
            "{what}: invalid_hostful"
        );
        assert_eq!(got.strict_sum, want.strict_sum, "{what}: strict_sum");
        assert_eq!(got.allowance, want.allowance, "{what}: allowance");
        (got, dels.len(), rebfs.len())
    }

    #[test]
    fn scan_kernel_matches_per_entry_reference() {
        // The scan decides which rows are repaired; a kernel flagging too
        // many would still score every proposal correctly (more repairs,
        // same answer), so only a field-by-field comparison catches it.
        // Odd switch counts leave a partial vector at the end of each row.
        for (m, seed) in [(101u32, 41u64), (77, 43)] {
            let g = random_general(4 * m, m, 10, seed).unwrap();
            let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
            let mut cur = st.evaluate().unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut witnessed, mut unguarded, mut conservative, mut flagged) = (0, 0, 0, 0);
            for step in 0..240 {
                let what = format!("m = {m} step {step}");
                st.begin();
                // 0, 1: a single swing (guardable: the witness passes
                // run); 2: a swap; 3: a nested 2-neighbor swing with no
                // evaluation in between (both unguardable)
                let levels = if step % 4 == 3 { 2 } else { 1 };
                let mut applied = true;
                for level in 0..levels {
                    if level > 0 {
                        st.begin();
                    }
                    applied &= if step % 4 == 2 {
                        sample_swap(st.graph(), st.edges(), &mut rng, 24)
                            .map(|s| st.apply_swap(s).unwrap())
                            .is_some()
                    } else {
                        sample_swing(st.graph(), st.edges(), &mut rng, 24)
                            .map(|s| st.apply_swing(s).unwrap())
                            .is_some()
                    };
                }
                if !applied {
                    (0..levels).for_each(|_| st.rollback());
                    continue;
                }
                // Every fifth step also scans with an invalid row: a
                // delta endpoint, a witness candidate (both take the
                // conservative path) or an unrelated switch. The row's
                // content is untouched, so it is revalidated after.
                let cache = st.cache.as_ref().unwrap();
                let endpoint = cache.edge_delta.first().map(|&(a, _, _)| a);
                let invalid = match (step % 5, endpoint) {
                    (0, Some(a)) => Some(a),
                    (1, Some(a)) => st.csr.neighbors(a).first().copied(),
                    (2, Some(_)) => {
                        let near = |s: u32| {
                            cache.edge_delta.iter().any(|&(a, b, _)| {
                                [a, b]
                                    .iter()
                                    .any(|&x| x == s || st.csr.neighbors(x).contains(&s))
                            })
                        };
                        (0..m).find(|&s| !near(s))
                    }
                    _ => None,
                };
                if let Some(s) = invalid {
                    st.cache.as_mut().unwrap().valid[s as usize] = false;
                    let what = format!("{what}, row {s} invalid");
                    let (_, _, swept) = scan_against_reference(&mut st, &what);
                    conservative += usize::from(swept == m as usize);
                    st.cache.as_mut().unwrap().valid[s as usize] = true;
                }
                let (scan, dels, _) = scan_against_reference(&mut st, &what);
                if dels > 0 {
                    if scan.guardable {
                        witnessed += 1;
                    } else {
                        unguarded += 1;
                    }
                }
                let cache = st.cache.as_ref().unwrap();
                flagged += cache.flags.iter().filter(|&&f| f & NO_STRICT != 0).count();
                let accept = match st.evaluate_guarded(Some(cur.haspl)) {
                    EvalOutcome::Metrics(now) if step % 3 != 0 => {
                        cur = now;
                        true
                    }
                    _ => false,
                };
                for _ in 0..levels {
                    if accept {
                        st.commit();
                    } else {
                        st.rollback();
                    }
                }
            }
            assert!(witnessed > 20, "m = {m}: {witnessed} guardable removals");
            assert!(unguarded > 20, "m = {m}: {unguarded} unguardable removals");
            assert!(
                conservative > 5,
                "m = {m}: {conservative} conservative scans"
            );
            assert!(flagged > 0, "m = {m}: no NO_STRICT source");
            st.check_consistency().unwrap();
            assert_eq!(st.evaluate().unwrap(), path_metrics(st.graph()).unwrap());
        }
    }

    #[test]
    fn cache_survives_depth_overflow_by_disabling() {
        // a 128-ring has eccentricity 64, the rows' distance cap (the
        // first ring that overflows): the engine must fall back to the
        // full sweep and still score correctly
        let g = ring(128, 1, 4);
        let expect = path_metrics(&g).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        assert!(!st.cache_active());
        assert_eq!(st.evaluate().unwrap(), expect);
        assert!(st.eval_stats().full >= 2);
    }

    #[test]
    fn slot_csr_tracks_link_edits() {
        let g = ring(6, 0, 4);
        let mut csr = SlotCsr::from_graph(&g);
        csr.remove_link(0, 1);
        csr.add_link(0, 3);
        let mut n0: Vec<u32> = csr.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![3, 5]);
        assert!(csr.neighbors(1).iter().all(|&t| t != 0));
        assert!(csr.neighbors(3).contains(&0));
    }

    #[test]
    fn resolve_parallel_eval_follows_the_auto_rule() {
        // small instances stay sequential, large ones take every CPU
        assert_eq!(resolve_parallel_eval(PARALLEL_SWITCH_THRESHOLD - 1), 1);
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(resolve_parallel_eval(PARALLEL_SWITCH_THRESHOLD), cpus);
    }
}
