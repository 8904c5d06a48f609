//! Criterion microbenchmarks of the metric kernels: h-ASPL evaluation at
//! the graph sizes the annealer sees (the SA inner loop is one of these
//! per proposal).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orp_core::construct::random_general;
use orp_core::metrics::{path_metrics, path_metrics_par};
use orp_core::search::{SearchConfig, SearchState};

fn bench_path_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_metrics");
    for (n, m, r) in [(256u32, 55u32, 12u32), (1024, 195, 15), (1024, 79, 24)] {
        let g = random_general(n, m, r, 7).expect("constructible");
        group.bench_with_input(
            BenchmarkId::new("sequential", format!("n{n}_m{m}_r{r}")),
            &g,
            |b, g| b.iter(|| path_metrics(g).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", format!("n{n}_m{m}_r{r}")),
            &g,
            |b, g| b.iter(|| path_metrics_par(g).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("engine_batched", format!("n{n}_m{m}_r{r}")),
            &g,
            |b, g| {
                let mut st = SearchState::with_search(g.clone(), 1, SearchConfig::default())
                    .expect("connected");
                b.iter(|| st.evaluate().unwrap())
            },
        );
    }
    group.finish();
}

fn bench_large_fabric(c: &mut Criterion) {
    // the Fig. 8 regime: m = n = 1024
    let g = random_general(1024, 1024, 24, 7).expect("constructible");
    let mut group = c.benchmark_group("path_metrics_m1024");
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| path_metrics(&g).unwrap()));
    group.bench_function("parallel", |b| b.iter(|| path_metrics_par(&g).unwrap()));
    group.bench_function("engine_batched", |b| {
        let mut st =
            SearchState::with_search(g.clone(), 1, SearchConfig::default()).expect("connected");
        b.iter(|| st.evaluate().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_path_metrics, bench_large_fabric);
criterion_main!(benches);
