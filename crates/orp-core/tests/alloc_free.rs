//! Steady-state annealing proposals allocate nothing: once the engine's
//! reusable buffers (scan and repair scratch, undo logs, saved edge
//! deltas) have reached their working size, a proposal — begin, apply,
//! guarded evaluation, commit or rollback, nested as in the 2-neighbor
//! swing — performs zero heap allocations.
//!
//! A counting global allocator tallies the allocations of the test
//! thread only, so the harness's own threads never inflate the count.

use orp_core::construct::random_general;
use orp_core::ops::{sample_swap, sample_swing};
use orp_core::search::{EvalOutcome, SearchConfig, SearchState};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One annealing-style proposal: a swing or swap, scored with the
/// early-reject guard against `cur`, accepted when it improves (or on a
/// coin flip), otherwise answered with a nested second swing before
/// both are rolled back.
fn propose(st: &mut SearchState, rng: &mut ChaCha8Rng, cur: &mut f64) {
    st.begin();
    let applied = if rng.gen::<bool>() {
        sample_swing(st.graph(), st.edges(), rng, 32).map(|s| st.apply_swing(s).is_ok())
    } else {
        sample_swap(st.graph(), st.edges(), rng, 32).map(|s| st.apply_swap(s).is_ok())
    };
    if applied != Some(true) {
        st.rollback();
        return;
    }
    let limit = *cur + 0.02;
    if let EvalOutcome::Metrics(m) = st.evaluate_guarded(Some(limit)) {
        if m.haspl < *cur || rng.gen::<f64>() < 0.2 {
            *cur = m.haspl;
            st.commit();
            return;
        }
        if let Some(s) = sample_swing(st.graph(), st.edges(), rng, 32) {
            st.begin();
            st.apply_swing(s).expect("sampled swing is valid");
            if let EvalOutcome::Metrics(m2) = st.evaluate_guarded(Some(limit)) {
                if m2.haspl < *cur {
                    *cur = m2.haspl;
                    st.commit();
                    st.commit();
                    return;
                }
            }
            st.rollback();
        }
    }
    st.rollback();
}

#[test]
fn steady_state_proposals_allocate_nothing() {
    let g = random_general(256, 64, 8, 1).unwrap();
    let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
    assert!(st.cache_active());
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut cur = st.evaluate().unwrap().haspl;
    for _ in 0..3000 {
        propose(&mut st, &mut rng, &mut cur);
    }
    COUNTING.with(|c| c.set(true));
    for _ in 0..1000 {
        propose(&mut st, &mut rng, &mut cur);
    }
    COUNTING.with(|c| c.set(false));
    let stats = *st.eval_stats();
    assert!(
        stats.incremental > 0 && stats.early_rejected > 0,
        "{stats:?}"
    );
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "allocations in 1000 proposals"
    );
}
