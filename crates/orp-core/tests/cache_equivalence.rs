//! Property test: every distance-cache configuration of the search
//! engine — no cache (full batched sweeps, the oracle), the cache on
//! one worker, and the sharded multi-worker repair path — is
//! observationally *bit-identical* on any transaction history,
//! including rollbacks and nested transactions.
//!
//! This is the contract that lets `SearchConfig` be a pure
//! wall-clock/memory knob: solver results can never depend on the
//! memory budget or the worker count.

use orp_core::construct::random_general;
use orp_core::ops::{sample_swap, sample_swing, Swing};
use orp_core::search::{SearchConfig, SearchState};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Drives one uniformly sampled transaction (swap / swing / nested
/// 2-neighbor swing, each committed or rolled back) on `st`, with every
/// random decision drawn from `rng`. Identical `rng` streams drive
/// identical move sequences on engines holding identical graphs.
fn step(st: &mut SearchState, rng: &mut ChaCha8Rng) {
    match rng.gen_range(0u32..3) {
        0 => {
            let Some(s) = sample_swap(st.graph(), st.edges(), rng, 32) else {
                return;
            };
            st.begin();
            st.apply_swap(s).unwrap();
            if rng.gen::<bool>() {
                st.commit();
            } else {
                st.rollback();
            }
        }
        1 => {
            let Some(s) = sample_swing(st.graph(), st.edges(), rng, 32) else {
                return;
            };
            st.begin();
            st.apply_swing(s).unwrap();
            if rng.gen::<bool>() {
                st.commit();
            } else {
                st.rollback();
            }
        }
        _ => {
            let Some(s1) = sample_swing(st.graph(), st.edges(), rng, 32) else {
                return;
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
                        && Swing {
                            a: d,
                            b: s1.c,
                            c: s1.b,
                        }
                        .is_valid(st.graph())
                })
                .collect();
            if let Some(&d) = cand.first() {
                let s2 = Swing {
                    a: d,
                    b: s1.c,
                    c: s1.b,
                };
                st.begin();
                st.apply_swing(s2).unwrap();
                if rng.gen::<bool>() {
                    st.commit();
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plain-sweep oracle vs the cache on 1, 3 and 4 workers (the
    /// latter two run the sharded repair path): after every step, all
    /// four engines agree on connectivity, `total_length`, diameter,
    /// and the raw h-ASPL bits.
    #[test]
    fn all_cache_configurations_are_bit_identical(
        gseed in 0u64..32,
        opseed in any::<u64>(),
        steps in 8usize..32,
    ) {
        let g = random_general(32, 16, 8, gseed).unwrap();
        let cached = SearchConfig::default();
        let mut engines = [
            ("oracle", SearchState::with_search(g.clone(), 1, SearchConfig::off()).unwrap()),
            ("cached", SearchState::with_search(g.clone(), 1, cached).unwrap()),
            ("sharded-3", SearchState::with_search(g.clone(), 3, cached).unwrap()),
            ("sharded-4", SearchState::with_search(g, 4, cached).unwrap()),
        ];
        // only the oracle runs uncached — otherwise this test is vacuous
        for (name, st) in &engines {
            prop_assert!(st.cache_active() == (*name != "oracle"), "{name}: cache_active");
        }

        for s in 0..steps {
            // one RNG per engine, same seed: identical move streams
            let mut results = Vec::new();
            for (name, st) in engines.iter_mut() {
                let mut rng = ChaCha8Rng::seed_from_u64(opseed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                step(st, &mut rng);
                if let Err(e) = st.check_consistency() {
                    prop_assert!(false, "step {s} [{name}]: {e}");
                }
                results.push((*name, st.evaluate()));
            }
            let (base_name, base) = (results[0].0, results[0].1);
            for (name, got) in &results[1..] {
                match (base, got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert!(
                            a.total_length == b.total_length,
                            "step {s} {base_name} vs {name}: total_length {} vs {}",
                            a.total_length, b.total_length
                        );
                        prop_assert!(
                            a.diameter == b.diameter,
                            "step {s} {name}: diameter {} vs {}", a.diameter, b.diameter
                        );
                        prop_assert!(
                            a.haspl.to_bits() == b.haspl.to_bits(),
                            "step {s} {base_name} vs {name}: h-ASPL bits differ ({} vs {})",
                            a.haspl, b.haspl
                        );
                    }
                    (a, b) => prop_assert!(
                        false,
                        "step {s} {base_name} vs {name}: connectivity diverged {a:?} vs {b:?}"
                    ),
                }
            }
        }
    }

    /// The memory budget is the cache's only knob: a budget of exactly
    /// `SearchConfig::cache_bytes(m)` provisions the cache, while one
    /// byte less (or a degenerate budget) runs uncached — and every
    /// engine still matches the oracle bit-for-bit.
    #[test]
    fn starved_budget_degrades_but_stays_exact(
        gseed in 0u64..16,
        opseed in any::<u64>(),
    ) {
        let g = random_general(24, 12, 8, gseed).unwrap();
        let need = SearchConfig::cache_bytes(g.num_switches() as usize);
        for (budget, cached) in [(1, false), (need - 1, false), (need, true)] {
            let cfg = SearchConfig { memory_budget_bytes: budget };
            let mut tight = SearchState::with_search(g.clone(), 2, cfg).unwrap();
            prop_assert!(tight.cache_active() == cached, "budget {budget}: cache_active");
            let mut oracle = SearchState::with_search(g.clone(), 1, SearchConfig::off()).unwrap();
            for s in 0..12usize {
                let mut ra = ChaCha8Rng::seed_from_u64(opseed.wrapping_add(s as u64));
                let mut rb = ra.clone();
                step(&mut tight, &mut ra);
                step(&mut oracle, &mut rb);
                let (a, b) = (tight.evaluate(), oracle.evaluate());
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert!(a.total_length == b.total_length, "budget {budget} step {s}");
                        prop_assert!(
                            a.haspl.to_bits() == b.haspl.to_bits(),
                            "budget {budget} step {s}"
                        );
                    }
                    (a, b) => prop_assert!(false, "budget {budget} step {s}: diverged {a:?} vs {b:?}"),
                }
            }
        }
    }
}
