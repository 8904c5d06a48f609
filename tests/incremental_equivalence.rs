//! Property suite for the incremental delta-evaluation engine.
//!
//! The distance-cached affected-source path must be *observationally
//! invisible*: after any interleaving of apply / evaluate / rollback /
//! commit, a cached [`SearchState`] must return bit-identical
//! [`PathMetrics`] to both a cache-disabled twin driven in lockstep and a
//! from-scratch [`path_metrics`] on the owned graph. The early-reject
//! guard must additionally be *sound*: whenever it skips the BFS, a full
//! recompute of the proposal must confirm the rejection (true h-ASPL at
//! or above the reported lower bound, which itself exceeds the limit).
//!
//! `SearchState::check_consistency` cross-checks the cache internally
//! (row distances vs `switch_distances`, per-source aggregates vs rows),
//! so calling it after every step also exercises the transactional cache
//! protocol. The rollback tests below pin that protocol's exactness: a
//! rolled-back transaction leaves nothing behind, whatever happened
//! between its evaluations and its end.

use orp_core::construct::random_general;
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::{path_metrics, PathMetrics};
use orp_core::ops::{sample_swap, sample_swing, Swap, Swing};
use orp_core::search::{EvalOutcome, SearchConfig, SearchState};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn assert_matches_fresh(outcome: &EvalOutcome, fresh: Option<PathMetrics>) -> Result<(), String> {
    match (outcome, fresh) {
        (EvalOutcome::Metrics(a), Some(b)) => {
            if a.total_length != b.total_length
                || a.diameter != b.diameter
                || a.haspl.to_bits() != b.haspl.to_bits()
            {
                return Err(format!("metrics diverged: cached {a:?} vs fresh {b:?}"));
            }
            Ok(())
        }
        (EvalOutcome::Disconnected, None) => Ok(()),
        (a, b) => Err(format!("verdicts diverged: {a:?} vs fresh {b:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached and cache-disabled engines driven in lockstep agree on
    /// every evaluation, evaluated both mid-transaction and after the
    /// commit/rollback resolution, and the cache survives all of it.
    #[test]
    fn cached_engine_is_bit_identical_to_uncached(
        gseed in 0u64..24,
        opseed in proptest::prelude::any::<u64>(),
        steps in 8usize..32,
    ) {
        let g = random_general(48, 16, 8, gseed).unwrap();
        let mut cached = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
        prop_assert!(cached.cache_active());
        prop_assert!(!plain.cache_active());
        let mut rng = ChaCha8Rng::seed_from_u64(opseed);

        for step in 0..steps {
            let swap = rng.gen::<bool>();
            cached.begin();
            plain.begin();
            let applied = if swap {
                match sample_swap(cached.graph(), cached.edges(), &mut rng, 32) {
                    Some(s) => {
                        cached.apply_swap(s).unwrap();
                        plain.apply_swap(s).unwrap();
                        true
                    }
                    None => false,
                }
            } else {
                match sample_swing(cached.graph(), cached.edges(), &mut rng, 32) {
                    Some(s) => {
                        cached.apply_swing(s).unwrap();
                        plain.apply_swing(s).unwrap();
                        true
                    }
                    None => false,
                }
            };
            if !applied {
                cached.rollback();
                plain.rollback();
                continue;
            }
            // Evaluate mid-transaction: the cached path sees the pending
            // edge delta and must still agree with scratch recomputation.
            let a = cached.evaluate_guarded(None);
            let b = plain.evaluate_guarded(None);
            let fresh = path_metrics(cached.graph());
            if let Err(e) = assert_matches_fresh(&a, fresh) {
                prop_assert!(false, "step {step} (cached mid-txn): {e}");
            }
            if let Err(e) = assert_matches_fresh(&b, fresh) {
                prop_assert!(false, "step {step} (plain mid-txn): {e}");
            }
            // Keep the walk connected: only commit evaluable states.
            if matches!(a, EvalOutcome::Metrics(_)) && rng.gen::<bool>() {
                cached.commit();
                plain.commit();
            } else {
                cached.rollback();
                plain.rollback();
            }
            if let Err(e) = cached.check_consistency() {
                prop_assert!(false, "step {step}: cached state inconsistent: {e}");
            }
            // Evaluate again at rest — exercises the post-rollback cache
            // repair (inverse deltas) and the post-commit adoption.
            let a = cached.evaluate_guarded(None);
            let fresh = path_metrics(cached.graph());
            if let Err(e) = assert_matches_fresh(&a, fresh) {
                prop_assert!(false, "step {step} (cached at rest): {e}");
            }
        }
        let stats = cached.eval_stats();
        prop_assert!(
            stats.incremental > 0,
            "walk never took the incremental path: {stats:?}"
        );
    }

    /// Guarded evaluation with a finite limit never mis-rejects: every
    /// `EarlyRejected(lb)` is confirmed by a full recompute of the same
    /// proposal, and every returned metric matches scratch.
    #[test]
    fn early_reject_guard_is_sound(
        gseed in 0u64..24,
        opseed in proptest::prelude::any::<u64>(),
        // Tight limits make the guard fire often; loose ones exercise
        // the pass-through path. Sampled per-walk.
        slack_millis in 0u64..200,
    ) {
        let g = random_general(64, 16, 8, gseed).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(opseed);
        let mut cur = st.evaluate().expect("start graph connected");
        let slack = slack_millis as f64 * 1e-3;
        let mut fired = 0u32;

        for step in 0..60 {
            st.begin();
            let applied = if rng.gen::<bool>() {
                sample_swing(st.graph(), st.edges(), &mut rng, 32)
                    .map(|s| st.apply_swing(s).unwrap())
                    .is_some()
            } else {
                sample_swap(st.graph(), st.edges(), &mut rng, 32)
                    .map(|s| st.apply_swap(s).unwrap())
                    .is_some()
            };
            if !applied {
                st.rollback();
                continue;
            }
            let limit = cur.haspl + slack;
            match st.evaluate_guarded(Some(limit)) {
                EvalOutcome::Metrics(m) => {
                    let fresh = path_metrics(st.graph()).expect("metrics imply connected");
                    prop_assert_eq!(m.haspl.to_bits(), fresh.haspl.to_bits());
                    prop_assert_eq!(m.total_length, fresh.total_length);
                    if m.haspl < cur.haspl {
                        st.commit();
                        cur = m;
                        continue;
                    }
                }
                EvalOutcome::EarlyRejected(lb) => {
                    fired += 1;
                    prop_assert!(lb > limit, "guard fired below the limit: {lb} <= {limit}");
                    // The lower bound must be genuine: the true score of
                    // the proposal is at or above it (or the proposal
                    // disconnects, which the limit also rejects).
                    if let Some(truth) = path_metrics(st.graph()) {
                        prop_assert!(
                            truth.haspl >= lb - 1e-9,
                            "step {}: unsound lower bound {} > true {}",
                            step, lb, truth.haspl
                        );
                    }
                }
                EvalOutcome::Disconnected => {}
            }
            st.rollback();
            if let Err(e) = st.check_consistency() {
                prop_assert!(false, "step {step}: {e}");
            }
        }
        prop_assert_eq!(st.eval_stats().early_rejected, u64::from(fired));
    }
}

/// Asserts that `st`, just rolled back to rest, is consistent and scores
/// `want` bit for bit without re-sweeping or repairing any row.
fn assert_restored(st: &mut SearchState, want: &PathMetrics, what: &str) {
    if let Err(e) = st.check_consistency() {
        panic!("{what}: inconsistent after rollback: {e}");
    }
    let got = st.evaluate().expect("restored graph is connected");
    assert_eq!(got.haspl.to_bits(), want.haspl.to_bits(), "{what}");
    assert_eq!(got.total_length, want.total_length, "{what}");
    assert_eq!(got.diameter, want.diameter, "{what}");
    assert_eq!(
        st.eval_stats().last_affected,
        0,
        "{what}: rollback left work behind"
    );
}

/// A swing sampled from `st`'s current graph.
fn swing(st: &SearchState, rng: &mut ChaCha8Rng) -> Swing {
    sample_swing(st.graph(), st.edges(), rng, 64).expect("a valid swing exists")
}

/// The logged aggregates of an evaluation hold for the host counts of
/// that evaluation, so a host move applied *after* it in the same
/// transaction must be undone before the rows are restored.
#[test]
fn rollback_after_a_post_evaluation_host_move_is_exact() {
    for seed in 0..6 {
        let g = random_general(64, 16, 8, seed).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
        let base = st.evaluate().unwrap();
        for step in 0..20 {
            let what = format!("seed {seed} step {step}");
            st.begin();
            let first = swing(&st, &mut rng);
            st.apply_swing(first).unwrap();
            st.evaluate_guarded(None);
            let second = swing(&st, &mut rng);
            st.apply_swing(second).unwrap();
            st.rollback();
            assert_restored(&mut st, &base, &what);
        }
    }
}

/// Evaluations at both levels of a nested transaction, then a rollback
/// of each: the inner one must restore the outer evaluation's cache, the
/// outer one the pre-`begin` cache.
#[test]
fn nested_rollback_with_evaluations_at_both_levels_is_exact() {
    for seed in 0..6 {
        let g = random_general(64, 16, 8, seed).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(200 + seed);
        let base = st.evaluate().unwrap();
        for step in 0..20 {
            let what = format!("seed {seed} step {step}");
            st.begin();
            let outer = swing(&st, &mut rng);
            st.apply_swing(outer).unwrap();
            let Some(mid) = st.evaluate() else {
                st.rollback();
                assert_restored(&mut st, &base, &what);
                continue;
            };
            st.begin();
            if rng.gen::<bool>() {
                let inner = swing(&st, &mut rng);
                st.apply_swing(inner).unwrap();
            } else if let Some(s) = sample_swap(st.graph(), st.edges(), &mut rng, 64) {
                st.apply_swap(s).unwrap();
            }
            st.evaluate_guarded(None);
            st.rollback();
            assert_restored(&mut st, &mid, &format!("{what} (inner)"));
            st.rollback();
            assert_restored(&mut st, &base, &format!("{what} (outer)"));
        }
    }
}

/// Two swaps in one transaction whose added links share an endpoint
/// `x`: `x` ends two pending added links, and the decremental phase
/// must leave both out of its adjacency. One evaluation after both
/// swaps must match the uncached engine, with every row equal to fresh
/// BFS, and rolling both back must restore the cache exactly.
#[test]
fn repair_at_a_switch_ending_two_added_links_is_exact() {
    let mut cases = 0;
    for seed in 0..12 {
        let g = random_general(48, 16, 8, seed).unwrap();
        let mut cached = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(300 + seed);
        let base = cached.evaluate().unwrap();
        for step in 0..8 {
            let what = format!("seed {seed} step {step}");
            let first = sample_swap(cached.graph(), cached.edges(), &mut rng, 64).unwrap();
            cached.begin();
            cached.apply_swap(first).unwrap();
            // the first swap linked `x` to `first.d`; relink `x` again
            let x = first.a;
            let second = (0..256).find_map(|_| {
                let nbrs = cached.graph().neighbors(x);
                let b = nbrs[rng.gen_range(0..nbrs.len())];
                let (c, d) = cached.edges().sample_oriented(&mut rng);
                let s = Swap { a: x, b, c, d };
                (b != first.d && s.is_valid(cached.graph())).then_some(s)
            });
            let Some(second) = second else {
                cached.rollback();
                continue;
            };
            cached.begin();
            cached.apply_swap(second).unwrap();
            for s in [first, second] {
                plain.begin();
                plain.apply_swap(s).unwrap();
            }
            let got = cached.evaluate_guarded(None);
            assert_matches_fresh(&got, plain.evaluate()).unwrap_or_else(|e| panic!("{what}: {e}"));
            if let Err(e) = cached.check_consistency() {
                panic!("{what}: inconsistent after the evaluation: {e}");
            }
            cases += 1;
            for st in [&mut cached, &mut plain] {
                st.rollback();
                st.rollback();
            }
            assert_restored(&mut cached, &base, &what);
        }
    }
    assert!(cases >= 48, "only {cases} double swaps shared an endpoint");
}

/// The undo log grows by the entries a repair changes, not by the rows
/// it touches: one evaluated swing at m = 1024 logs well under `m`
/// bytes per rewritten row, and the rollback returns every byte.
#[test]
fn undo_log_grows_by_changed_entries_not_rows() {
    let m = 1024u32;
    let g = random_general(2 * m, m, 8, 3).unwrap();
    let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let rest = st.cache_resident_bytes();
    let mut measured = 0;
    for _ in 0..12 {
        st.begin();
        let s = swing(&st, &mut rng);
        st.apply_swing(s).unwrap();
        st.evaluate_guarded(None);
        let grown = st.cache_resident_bytes() - rest;
        let rows = st.eval_stats().last_affected as usize;
        if rows > 0 {
            measured += 1;
            assert!(
                grown < rows * m as usize,
                "{grown} undo bytes for {rows} rewritten rows at m = {m}"
            );
        }
        st.rollback();
        assert_eq!(st.cache_resident_bytes(), rest, "rollback kept undo bytes");
    }
    assert!(measured > 0, "no swing rewrote a row");
}

/// The first sweep writes every entry of its rows once: an entry the
/// sweep never reaches must read unreachable, not the zero the rows
/// start as. At m = 70 the fill runs one 64-source batch and one
/// 6-source batch, on two workers; switch 66 has no hosts and no links,
/// so every row has an unreached entry and row 66 reaches nothing.
#[test]
fn first_fill_marks_unreached_entries_in_full_and_short_batches() {
    const ISOLATED: u32 = 66;
    for seed in 0..3 {
        let connected = random_general(200, 69, 8, seed).unwrap();
        let at = |s: u32| if s < ISOLATED { s } else { s + 1 };
        let mut g = HostSwitchGraph::new(70, 8).unwrap();
        for (a, b) in connected.links() {
            g.add_link(at(a), at(b)).unwrap();
        }
        for s in 0..69 {
            for _ in 0..connected.host_count(s) {
                g.attach_host(at(s)).unwrap();
            }
        }
        let mut cached = SearchState::with_search(g.clone(), 2, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
        assert!(cached.cache_active());
        if let Err(e) = cached.check_consistency() {
            panic!("seed {seed}: inconsistent after the first fill: {e}");
        }
        let got = cached.evaluate_guarded(None);
        assert_matches_fresh(&got, plain.evaluate()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // swings may link the isolated switch in; the cached rows follow
        let mut rng = ChaCha8Rng::seed_from_u64(400 + seed);
        for step in 0..16 {
            let s = swing(&cached, &mut rng);
            for st in [&mut cached, &mut plain] {
                st.begin();
                st.apply_swing(s).unwrap();
            }
            let got = cached.evaluate_guarded(None);
            let what = format!("seed {seed} step {step}");
            assert_matches_fresh(&got, plain.evaluate()).unwrap_or_else(|e| panic!("{what}: {e}"));
            if let Err(e) = cached.check_consistency() {
                panic!("{what}: inconsistent after the evaluation: {e}");
            }
            let keep = rng.gen::<bool>();
            for st in [&mut cached, &mut plain] {
                if keep {
                    st.commit();
                } else {
                    st.rollback();
                }
            }
        }
    }
}
