//! Full-rebuild vs incremental proposal evaluation.
//!
//! Measures the cost of one annealing proposal (sample a swing, apply it,
//! score h-ASPL, revert) two ways at `m ∈ {64, 256, 1024}`:
//!
//! * `full_rebuild` — the pre-engine hot loop: mutate the graph, then
//!   `path_metrics` (which rebuilds `SwitchCsr` + host counts from
//!   scratch and runs source-at-a-time BFS), then undo.
//! * `incremental` — the `SearchState` engine: transactional
//!   apply/evaluate/rollback over the in-place CSR with batched BFS and
//!   reused scratch.
//!
//! Besides the usual stdout report, medians land in
//! `results/BENCH_anneal_eval.json` for regression tracking.

use criterion::{black_box, BenchmarkId, Criterion};
use orp_bench::write_json;
use orp_core::construct::random_general;
use orp_core::metrics::path_metrics;
use orp_core::ops::{sample_swing, EdgeSet};
use orp_core::search::{SearchConfig, SearchState};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const SWITCH_COUNTS: [u32; 3] = [64, 256, 1024];
const RADIX: u32 = 12;

fn instance(m: u32) -> orp_core::HostSwitchGraph {
    // 4 hosts per switch keeps every switch hostful, 12 ports leave a
    // well-connected fabric at every size
    random_general(4 * m, m, RADIX, 7).expect("constructible")
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("proposal_eval");
    group.sample_size(10);
    for m in SWITCH_COUNTS {
        let g = instance(m);
        group.bench_with_input(BenchmarkId::new("full_rebuild", m), &g, |b, g| {
            let mut g = g.clone();
            let edges = EdgeSet::from_graph(&g);
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            b.iter(|| {
                let Some(s) = sample_swing(&g, &edges, &mut rng, 32) else {
                    return;
                };
                let h = s.apply(&mut g).expect("sampled swing valid");
                black_box(path_metrics(&g));
                s.undo(&mut g, h).expect("undo");
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", m), &g, |b, g| {
            let mut st =
                SearchState::with_search(g.clone(), 1, SearchConfig::default()).expect("connected");
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
    group.finish();
}

/// One row of the emitted artifact.
#[derive(Debug, Serialize)]
struct EvalPoint {
    m: u32,
    radix: u32,
    hosts: u32,
    full_rebuild_ns: f64,
    incremental_ns: f64,
    speedup: f64,
}

fn emit_json(c: &Criterion) {
    let median_of = |id: &str| {
        c.measurements()
            .iter()
            .find(|meas| meas.group == "proposal_eval" && meas.id == id)
            .map(|meas| meas.median_ns)
    };
    let rows: Vec<EvalPoint> = SWITCH_COUNTS
        .iter()
        .filter_map(|&m| {
            let full = median_of(&format!("full_rebuild/{m}"))?;
            let inc = median_of(&format!("incremental/{m}"))?;
            Some(EvalPoint {
                m,
                radix: RADIX,
                hosts: 4 * m,
                full_rebuild_ns: full,
                incremental_ns: inc,
                speedup: full / inc,
            })
        })
        .collect();
    let path = write_json("BENCH_anneal_eval", &rows);
    println!("\nwrote {}", path.display());
    for row in &rows {
        println!(
            "m = {:>5}: full rebuild {:>12.0} ns/proposal, incremental {:>12.0} ns/proposal ({:.2}x)",
            row.m, row.full_rebuild_ns, row.incremental_ns, row.speedup
        );
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_eval(&mut criterion);
    emit_json(&criterion);
}
