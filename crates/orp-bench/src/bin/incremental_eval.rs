//! Incremental (distance-cached) vs full proposal evaluation.
//!
//! Drives identical accept-improving random walks over two `SearchState`
//! engines — one with the per-source distance cache, one without — and
//! times every `evaluate` call. Both engines see the same moves and
//! return bit-identical metrics (asserted), so the medians compare the
//! affected-source re-BFS directly against the full 64-wide batched
//! recompute on the exact same proposal stream.
//!
//! Grid: n ∈ {1024, 4096, 16384} hosts (m = n/4 switches, radix 12) ×
//! move mixes {swing, swap, mixed}. Per-eval affected-source fractions
//! are averaged into the artifact, `results/BENCH_incremental_eval.json`.
//!
//! `ORP_BENCH_QUICK=1` shrinks the grid to the smallest instance with a
//! short walk — the CI smoke configuration.

use orp_bench::write_json;
use orp_core::construct::random_general;
use orp_core::metrics::PathMetrics;
use orp_core::ops::{sample_swap, sample_swing};
use orp_core::search::{EvalOutcome, SearchConfig, SearchState};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

const RADIX: u32 = 12;

/// One grid row of the emitted artifact.
#[derive(Debug, Serialize)]
struct Row {
    n: u32,
    m: u32,
    radix: u32,
    mix: &'static str,
    proposals: usize,
    full_eval_ns_median: f64,
    incremental_eval_ns_median: f64,
    speedup: f64,
    /// Mean fraction of sources the cached path actually re-BFS'd.
    affected_fraction_mean: f64,
    incremental_evals: u64,
    full_evals: u64,
}

#[derive(Clone, Copy)]
enum Mix {
    Swing,
    Swap,
    Mixed,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Swing => "swing",
            Mix::Swap => "swap",
            Mix::Mixed => "mixed",
        }
    }
}

/// Accept-improving walk; returns per-eval latencies and the metrics
/// stream (for the lockstep bit-identity check).
fn walk(
    st: &mut SearchState,
    mix: Mix,
    proposals: usize,
    seed: u64,
) -> (Vec<u64>, Vec<Option<PathMetrics>>, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut lat = Vec::with_capacity(proposals);
    let mut stream = Vec::with_capacity(proposals);
    let mut cur = st.evaluate().expect("instance connected");
    let m = st.graph().num_switches() as f64;
    let mut affected_sum = 0.0;
    let mut affected_n = 0u64;
    let mut done = 0;
    while done < proposals {
        let swing = match mix {
            Mix::Swing => true,
            Mix::Swap => false,
            Mix::Mixed => rng.gen::<bool>(),
        };
        st.begin();
        let applied = if swing {
            sample_swing(st.graph(), st.edges(), &mut rng, 32)
                .map(|s| st.apply_swing(s).expect("sampled swing valid"))
                .is_some()
        } else {
            sample_swap(st.graph(), st.edges(), &mut rng, 32)
                .map(|s| st.apply_swap(s).expect("sampled swap valid"))
                .is_some()
        };
        if !applied {
            st.rollback();
            continue;
        }
        done += 1;
        let t0 = Instant::now();
        let out = st.evaluate_guarded(None);
        lat.push(t0.elapsed().as_nanos() as u64);
        let stats = st.eval_stats();
        affected_sum += f64::from(stats.last_affected) / m;
        affected_n += 1;
        match out {
            EvalOutcome::Metrics(m2) => {
                stream.push(Some(m2));
                if m2.haspl < cur.haspl {
                    st.commit();
                    cur = m2;
                } else {
                    st.rollback();
                }
            }
            _ => {
                stream.push(None);
                st.rollback();
            }
        }
    }
    (lat, stream, affected_sum / affected_n.max(1) as f64)
}

fn median(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64
}

fn main() {
    let quick = std::env::var("ORP_BENCH_QUICK").is_ok_and(|v| v == "1");
    let grid: &[(u32, usize)] = if quick {
        &[(1024, 24)]
    } else {
        &[(1024, 240), (4096, 96), (16384, 40)]
    };
    let mut rows = Vec::new();
    for &(n, proposals) in grid {
        let m = n / 4;
        let g = random_general(n, m, RADIX, 7).expect("constructible");
        for mix in [Mix::Swing, Mix::Swap, Mix::Mixed] {
            let mut cached =
                SearchState::with_search(g.clone(), 1, SearchConfig::default()).expect("connected");
            let mut plain =
                SearchState::with_search(g.clone(), 1, SearchConfig::off()).expect("connected");
            assert!(cached.cache_active(), "cache must engage at m = {m}");
            let (lat_inc, stream_inc, affected) = walk(&mut cached, mix, proposals, 11);
            let (lat_full, stream_full, _) = walk(&mut plain, mix, proposals, 11);
            assert_eq!(
                stream_inc,
                stream_full,
                "incremental metrics diverged from full at n = {n}, mix = {}",
                mix.name()
            );
            let stats = *cached.eval_stats();
            let inc_ns = median(lat_inc);
            let full_ns = median(lat_full);
            rows.push(Row {
                n,
                m,
                radix: RADIX,
                mix: mix.name(),
                proposals,
                full_eval_ns_median: full_ns,
                incremental_eval_ns_median: inc_ns,
                speedup: full_ns / inc_ns,
                affected_fraction_mean: affected,
                incremental_evals: stats.incremental,
                full_evals: stats.full,
            });
            let r = rows.last().unwrap();
            println!(
                "n = {:>6} (m = {:>5}), {:<5}: full {:>12.0} ns, incremental {:>10.0} ns \
                 ({:>5.2}x), affected {:>5.1}% of sources",
                n,
                m,
                r.mix,
                r.full_eval_ns_median,
                r.incremental_eval_ns_median,
                r.speedup,
                100.0 * r.affected_fraction_mean,
            );
        }
    }
    let path = write_json("BENCH_incremental_eval", &rows);
    println!("\nwrote {}", path.display());
}
