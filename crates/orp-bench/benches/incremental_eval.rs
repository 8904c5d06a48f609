//! Criterion harness for the distance-cached affected-source evaluator.
//!
//! Complements the `incremental_eval` bin (which emits the committed
//! JSON artifact over the large grid): this bench tracks the small- and
//! mid-size regression points `m ∈ {256, 1024}` under criterion's
//! sampling so `cargo bench` catches cache-path slowdowns early.

use criterion::{black_box, BenchmarkId, Criterion};
use orp_core::construct::random_general;
use orp_core::ops::sample_swing;
use orp_core::search::{SearchConfig, SearchState};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SWITCH_COUNTS: [u32; 2] = [256, 1024];
const RADIX: u32 = 12;

fn bench_cached_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_eval");
    group.sample_size(10);
    for m in SWITCH_COUNTS {
        let g = random_general(4 * m, m, RADIX, 7).expect("constructible");
        for (label, search) in [
            ("full", SearchConfig::off()),
            ("cached", SearchConfig::default()),
        ] {
            group.bench_with_input(BenchmarkId::new(label, m), &g, |b, g| {
                let mut st = SearchState::with_search(g.clone(), 1, search).expect("connected");
                let mut rng = ChaCha8Rng::seed_from_u64(11);
                b.iter(|| {
                    let Some(s) = sample_swing(st.graph(), st.edges(), &mut rng, 32) else {
                        return;
                    };
                    st.begin();
                    st.apply_swing(s).expect("sampled swing valid");
                    black_box(st.evaluate());
                    st.rollback();
                })
            });
        }
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_cached_eval(&mut criterion);
}
