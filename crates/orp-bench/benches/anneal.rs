//! Criterion benchmarks of the ORP solver: proposals per second for each
//! move kind, plus the ablation the DESIGN.md calls out (swap-only vs
//! swing-only vs 2-neighbor swing at equal budget).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use orp_core::anneal::{Anneal, MoveKind, SaConfig, SaResult};
use orp_core::construct::{random_general, random_regular};
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::path_metrics;
use orp_core::ops::sample_swing;
use orp_core::search::{SearchConfig, SearchState};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One seed-3 anneal of `start` with `iters` proposals.
fn anneal(start: &HostSwitchGraph, kind: MoveKind, iters: usize) -> SaResult {
    let cfg = SaConfig {
        iters,
        seed: 3,
        ..Default::default()
    };
    Anneal::builder(start.clone())
        .kind(kind)
        .config(cfg)
        .run()
        .unwrap()
}

/// The raw engine transaction cycle without annealing bookkeeping:
/// sample → begin → apply → evaluate → rollback.
fn bench_engine_proposal(c: &mut Criterion) {
    let g = random_general(256, 55, 12, 3).expect("constructible");
    let mut st = SearchState::with_search(g, 1, SearchConfig::default()).expect("connected");
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    c.bench_function("engine_proposal_cycle", |b| {
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

fn bench_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("anneal_200_proposals");
    group.sample_size(10);
    let reg = random_regular(256, 64, 12, 3).expect("constructible");
    group.bench_function("swap", |b| b.iter(|| anneal(&reg, MoveKind::Swap, 200)));
    let gen = random_general(256, 55, 12, 3).expect("constructible");
    group.bench_function("swing", |b| b.iter(|| anneal(&gen, MoveKind::Swing, 200)));
    group.bench_function("two_neighbor_swing", |b| {
        b.iter(|| anneal(&gen, MoveKind::TwoNeighborSwing, 200))
    });
    group.finish();
}

/// Not a timing benchmark: prints the ablation quality table (final
/// h-ASPL at equal proposal budget) once per run.
fn ablation_quality(c: &mut Criterion) {
    let budget = 1500;
    let gen = random_general(256, 55, 12, 3).expect("constructible");
    let start = path_metrics(&gen).unwrap().haspl;
    let swing = anneal(&gen, MoveKind::Swing, budget);
    let two = anneal(&gen, MoveKind::TwoNeighborSwing, budget);
    let reg = random_regular(256, 64, 12, 3).expect("constructible");
    let swap = anneal(&reg, MoveKind::Swap, budget);
    println!("\n== ablation (n=256, r=12, {budget} proposals) ==");
    println!("random start (m=55):      h-ASPL {start:.4}");
    println!("swap-only (m=64 regular): h-ASPL {:.4}", swap.metrics.haspl);
    println!(
        "swing-only (m=55):        h-ASPL {:.4}",
        swing.metrics.haspl
    );
    println!("2-neighbor swing (m=55):  h-ASPL {:.4}", two.metrics.haspl);
    // keep criterion happy with a trivial measured body
    c.bench_function("ablation_noop", |b| b.iter(|| std::hint::black_box(1 + 1)));
}

criterion_group!(
    benches,
    bench_engine_proposal,
    bench_moves,
    ablation_quality
);
criterion_main!(benches);
