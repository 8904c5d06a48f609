//! Property test: the incremental [`SearchState`] engine is observationally
//! identical to from-scratch recomputation, no matter what transaction
//! history it has been through.
//!
//! Each case drives a random sequence of swap / swing / nested 2-neighbor
//! swing transactions, each randomly committed or rolled back, and after
//! every step checks that
//!
//! * `evaluate()` agrees with a fresh `path_metrics` on the owned graph,
//! * the in-place CSR matches `SwitchCsr::from_graph`,
//! * the `EdgeSet` matches `HostSwitchGraph::links()`,
//! * the host-count vector matches `host_counts()`
//!
//! (the structural checks are `SearchState::check_consistency`).

use orp_core::construct::random_general;
use orp_core::metrics::path_metrics;
use orp_core::ops::{sample_swap, sample_swing, Swing};
use orp_core::search::{SearchConfig, SearchState};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One full cross-check of the engine against scratch recomputation.
/// Returns a description of the first divergence, if any.
fn divergence(st: &mut SearchState) -> Option<String> {
    if let Err(e) = st.check_consistency() {
        return Some(e);
    }
    let fresh = path_metrics(st.graph());
    let inc = st.evaluate();
    match (inc, fresh) {
        (None, None) => None,
        (Some(a), Some(b)) => {
            if a.total_length != b.total_length
                || a.diameter != b.diameter
                || (a.haspl - b.haspl).abs() > 1e-12
            {
                Some(format!(
                    "metrics diverged: incremental {a:?} vs fresh {b:?}"
                ))
            } else {
                None
            }
        }
        (a, b) => Some(format!("connectivity verdicts diverged: {a:?} vs {b:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_scratch_recompute(
        gseed in 0u64..32,
        opseed in proptest::prelude::any::<u64>(),
        steps in 8usize..40,
    ) {
        // 16 switches × radix 8, 2 hosts/switch on average: hostless and
        // crowded switches both occur, and swings stay plentiful.
        let g = random_general(32, 16, 8, gseed).unwrap();
        let mut st = SearchState::with_search(g, 1, SearchConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(opseed);

        for step in 0..steps {
            match rng.gen_range(0u32..3) {
                // plain swap transaction
                0 => {
                    let Some(s) = sample_swap(st.graph(), st.edges(), &mut rng, 32) else {
                        continue;
                    };
                    st.begin();
                    st.apply_swap(s).unwrap();
                    if rng.gen::<bool>() {
                        st.commit();
                    } else {
                        st.rollback();
                    }
                }
                // plain swing transaction
                1 => {
                    let Some(s) = sample_swing(st.graph(), st.edges(), &mut rng, 32) else {
                        continue;
                    };
                    st.begin();
                    st.apply_swing(s).unwrap();
                    if rng.gen::<bool>() {
                        st.commit();
                    } else {
                        st.rollback();
                    }
                }
                // nested 2-neighbor swing transaction
                _ => {
                    let Some(s1) = sample_swing(st.graph(), st.edges(), &mut rng, 32) else {
                        continue;
                    };
                    st.begin();
                    st.apply_swing(s1).unwrap();
                    let cand: Vec<u32> = st
                        .graph()
                        .neighbors(s1.c)
                        .iter()
                        .copied()
                        .filter(|&d| {
                            d != s1.a
                                && d != s1.b
                                && Swing { a: d, b: s1.c, c: s1.b }.is_valid(st.graph())
                        })
                        .collect();
                    if let Some(&d) = cand.first() {
                        let s2 = Swing { a: d, b: s1.c, c: s1.b };
                        st.begin();
                        st.apply_swing(s2).unwrap();
                        if rng.gen::<bool>() {
                            st.commit(); // fold into outer txn
                        } else {
                            st.rollback();
                        }
                    }
                    if rng.gen::<bool>() {
                        st.commit();
                    } else {
                        st.rollback();
                    }
                }
            }
            if let Some(err) = divergence(&mut st) {
                prop_assert!(false, "step {}: {}", step, err);
            }
        }
    }
}
