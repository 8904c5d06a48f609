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
use orp_core::metrics::{path_metrics, PathMetrics};
use orp_core::ops::{sample_swap, sample_swing, Swing};
use orp_core::search::{EvalOutcome, SearchConfig, SearchState};
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

/// An evaluation's observable result: h-ASPL bits, total length and
/// diameter, or `None` when disconnected.
fn bits(m: Option<PathMetrics>) -> Option<(u64, u64, u32)> {
    m.map(|m| (m.haspl.to_bits(), m.total_length, m.diameter))
}

/// The annealer's own walk shape at n = 1024 (m = 256, radix 12): 24
/// accept-improving proposals per move mix from seed 11, each move
/// applied to the cache on 1 worker and to the uncached engine,
/// evaluated by both and committed only when the h-ASPL falls. Every
/// outcome must agree bit for bit, with the cache active throughout.
#[test]
fn accept_improving_walks_match_the_uncached_engine_at_n1024() {
    let g = random_general(1024, 256, 12, 7).unwrap();
    for mix in ["swing", "swap", "mixed"] {
        let mut cached = SearchState::with_search(g.clone(), 1, SearchConfig::default()).unwrap();
        let mut plain = SearchState::with_search(g.clone(), 1, SearchConfig::off()).unwrap();
        assert!(!plain.cache_active());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut best = plain.evaluate().expect("connected").haspl;
        let mut proposed = 0;
        while proposed < 24 {
            let pick_swing = match mix {
                "swing" => true,
                "swap" => false,
                _ => rng.gen(),
            };
            let (swing, swap) = if pick_swing {
                (
                    sample_swing(cached.graph(), cached.edges(), &mut rng, 32),
                    None,
                )
            } else {
                (
                    None,
                    sample_swap(cached.graph(), cached.edges(), &mut rng, 32),
                )
            };
            if swing.is_none() && swap.is_none() {
                continue;
            }
            proposed += 1;
            let [a, b] = [&mut cached, &mut plain].map(|st| {
                st.begin();
                if let Some(s) = swing {
                    st.apply_swing(s).unwrap();
                }
                if let Some(s) = swap {
                    st.apply_swap(s).unwrap();
                }
                match st.evaluate_guarded(None) {
                    EvalOutcome::Metrics(m) => Some(m),
                    EvalOutcome::Disconnected => None,
                    early => panic!("an unguarded evaluation returned {early:?}"),
                }
            });
            assert!(
                cached.cache_active(),
                "{mix} {proposed}: the cache was released"
            );
            assert_eq!(bits(a), bits(b), "{mix} {proposed}: outcomes differ");
            match a {
                Some(m) if m.haspl < best => {
                    best = m.haspl;
                    cached.commit();
                    plain.commit();
                }
                _ => {
                    cached.rollback();
                    plain.rollback();
                }
            }
        }
        assert!(
            cached.eval_stats().incremental > 0,
            "{mix}: no evaluation took the affected-source path"
        );
    }
}

/// Graph-Golf scale: at n = 8192 (m = 4096, radix 16) the cache on 3
/// workers — sharded row repairs through the pool — against the
/// uncached engine on 1 worker, over one fixed 100-step history. Every
/// evaluation must agree bit for bit with the cache active throughout,
/// and the last one must equal a from-scratch `path_metrics`. Too slow
/// for a debug build; CI runs it in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ~100x slower in debug")]
fn sharded_cache_matches_the_uncached_engine_at_n8192() {
    let g = random_general(8192, 4096, 16, 7).unwrap();
    let mut cached = SearchState::with_search(g.clone(), 3, SearchConfig::default()).unwrap();
    let mut plain = SearchState::with_search(g, 1, SearchConfig::off()).unwrap();
    assert!(!plain.cache_active());
    let mut last = None;
    for s in 0..100u64 {
        let mut ra = ChaCha8Rng::seed_from_u64(0x5CA1E ^ s);
        let mut rb = ra.clone();
        step(&mut cached, &mut ra);
        step(&mut plain, &mut rb);
        assert!(cached.cache_active(), "step {s}: the cache was released");
        let (a, b) = (cached.evaluate(), plain.evaluate());
        assert_eq!(
            bits(a),
            bits(b),
            "step {s}: cached and uncached evaluations differ"
        );
        last = a;
    }
    let last = last.expect("the walk stays connected");
    let scratch = path_metrics(cached.graph()).expect("connected");
    assert_eq!(last.haspl.to_bits(), scratch.haspl.to_bits());
    assert_eq!(
        (last.total_length, last.diameter),
        (scratch.total_length, scratch.diameter)
    );
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
