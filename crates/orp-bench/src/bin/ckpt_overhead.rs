//! Checkpoint overhead: how much wall time crash-safe snapshotting adds
//! to an annealing run and a simulation run at the default strides.
//!
//! A single checkpoint save costs ~1 ms — far below the run-to-run
//! wall-clock noise of whole runs — so the cost is measured *amplified*:
//! the same deterministic workload runs with checkpointing off and with
//! an aggressive stride that writes hundreds of snapshots, the per-save
//! cost is the wall-time delta divided by the save count, and the
//! overhead at the default stride follows from how many saves a default
//! run performs. Results are asserted bit-identical across all variants
//! (writing snapshots must never perturb a run). The acceptance bar is
//! ≤ 2% at the default strides and the bin exits non-zero above it; the
//! measured numbers land in `results/BENCH_ckpt_overhead.json`, stamped
//! with their provenance. The
//! workloads are sized so that one ~0.5 ms save stays well inside the
//! bar's resolution: a 20 ms run cannot carry a 2% bar.

use orp_bench::Stamp;
use orp_core::anneal::{Anneal, SaConfig, DEFAULT_CHECKPOINT_EVERY};
use orp_core::construct::random_general;
use orp_netsim::npb::{Benchmark, Class};
use orp_netsim::report::run_benchmark_configured;
use orp_netsim::{Network, SharingMode, SIM_CKPT_EVERY_DEFAULT};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// One workload row of the emitted artifact.
#[derive(Debug, Serialize)]
struct Row {
    workload: String,
    default_stride: u64,
    amplified_saves: u64,
    plain_secs: f64,
    per_save_ms: f64,
    saves_at_default_stride: u64,
    overhead_pct_at_default_stride: f64,
}

/// Best-of-reps wall time of a deterministic run: the minimum is the
/// noise floor, so deltas between minima isolate real added work.
fn best_of(
    reps: usize,
    stride: Option<u64>,
    run: &mut impl FnMut(Option<u64>) -> std::time::Duration,
) -> f64 {
    (0..reps)
        .map(|_| run(stride).as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

fn row(
    workload: String,
    default_stride: u64,
    work_units: u64,
    amp_stride: u64,
    reps: usize,
    run: &mut impl FnMut(Option<u64>) -> std::time::Duration,
) -> Row {
    let amplified_saves = work_units / amp_stride + 1;
    let plain_secs = best_of(reps, None, run);
    let amp_secs = best_of(reps, Some(amp_stride), run);
    let per_save = (amp_secs - plain_secs).max(0.0) / amplified_saves as f64;
    // a default-stride run writes work/stride periodic saves + 1 on completion
    let saves_default = work_units / default_stride + 1;
    Row {
        workload,
        default_stride,
        amplified_saves,
        plain_secs,
        per_save_ms: per_save * 1e3,
        saves_at_default_stride: saves_default,
        overhead_pct_at_default_stride: 100.0 * per_save * saves_default as f64 / plain_secs,
    }
}

fn anneal_row(iters: usize, reps: usize, dir: &std::path::Path) -> Row {
    let n = 256;
    let (m, _) = orp_core::bounds::optimal_switch_count(n as u64, 12);
    let cfg = SaConfig {
        iters,
        seed: 42,
        ..Default::default()
    };
    let start = random_general(n, m as u32, 12, cfg.seed).expect("constructible");
    let ck = dir.join("anneal.orp");
    let amp_stride = (iters as u64 / 200).max(1);
    let mut baseline: Option<u64> = None;
    let mut run = |stride: Option<u64>| {
        let mut b = Anneal::builder(start.clone()).config(cfg.clone());
        if let Some(s) = stride {
            b = b.checkpoint(&ck).checkpoint_every(s as usize);
        }
        let t0 = Instant::now();
        let res = b.run().expect("anneal");
        let dt = t0.elapsed();
        let bits = res.metrics.haspl.to_bits();
        assert_eq!(
            *baseline.get_or_insert(bits),
            bits,
            "checkpointing perturbed the anneal"
        );
        dt
    };
    row(
        format!("anneal n={n} iters={iters}"),
        DEFAULT_CHECKPOINT_EVERY as u64,
        iters as u64,
        amp_stride,
        reps,
        &mut run,
    )
}

fn sim_row(bench: Benchmark, iters: usize, reps: usize, dir: &std::path::Path) -> Row {
    let g = random_general(64, 16, 10, 42).expect("constructible");
    let net = Network::builder(&g).build();
    let ck = dir.join("sim.orp");
    // count the events once so the amplified stride is known exactly
    let events = {
        let programs = bench.build(64, Class::A, iters);
        orp_netsim::Simulator::builder(&net)
            .programs(programs)
            .run()
            .expect("simulation")
            .events
    };
    let amp_stride = (events / 200).max(1);
    let mut baseline: Option<u64> = None;
    let mut run = |stride: Option<u64>| {
        let t0 = Instant::now();
        let res = run_benchmark_configured(
            &net,
            bench,
            64,
            Class::A,
            iters,
            SharingMode::default(),
            |b| match stride {
                Some(s) => b.checkpoint(&ck).checkpoint_every(s),
                None => b,
            },
        )
        .expect("simulation");
        let dt = t0.elapsed();
        let bits = res.time.to_bits();
        assert_eq!(
            *baseline.get_or_insert(bits),
            bits,
            "checkpointing perturbed the simulation"
        );
        dt
    };
    row(
        format!("sim {} n=64 iters={iters}", bench.name()),
        SIM_CKPT_EVERY_DEFAULT,
        events,
        amp_stride,
        reps,
        &mut run,
    )
}

/// Overhead at the default strides above which the bin fails.
const BAR_PCT: f64 = 2.0;

fn main() -> ExitCode {
    let started = Instant::now();
    let stamp = Stamp::new();
    let dir = std::env::temp_dir().join(format!("orp-ckpt-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create ckpt dir");
    let rows = vec![
        anneal_row(12_000, 7, &dir),
        sim_row(Benchmark::Mg, 24, 7, &dir),
    ];
    for r in &rows {
        println!(
            "{:<28} plain {:>7.3} s, {:>6.3} ms/save x {} saves at default stride {} => {:+.3}%",
            r.workload,
            r.plain_secs,
            r.per_save_ms,
            r.saves_at_default_stride,
            r.default_stride,
            r.overhead_pct_at_default_stride
        );
    }
    let worst = rows
        .iter()
        .map(|r| r.overhead_pct_at_default_stride)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("worst overhead: {worst:+.3}% (bar: <= {BAR_PCT}%)");
    let path = stamp.write("BENCH_ckpt_overhead", Vec::new(), started, &rows);
    println!("wrote {}", path.display());
    std::fs::remove_dir_all(&dir).ok();
    if worst > BAR_PCT {
        eprintln!("ckpt_overhead: worst overhead {worst:+.3}% is above the {BAR_PCT}% bar");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
