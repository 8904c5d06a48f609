//! Cached, multi-worker annealing at Graph-Golf scale is bit-identical
//! to the plain engine.
//!
//! Committed as `results/BENCH_scale.json`: at n = 2048 and 8192
//! (radix 16, two hosts per switch) one [`Anneal`] runs on the distance
//! cache with 3 evaluation workers and one runs uncached (full sweeps)
//! on 1 worker, over the same start graph and schedule. Their results
//! must match bit for bit: the cache, the worker count and which worker
//! claims which task are pure wall-clock knobs.
//!
//! Only the cached engine can early-reject, and an early reject skips
//! the Metropolis draw, so the two runs agree only while that guard
//! never fires. Each row records the cached run's early-reject count,
//! and the run fails unless it is 0: a comparison past the first fire
//! would test nothing.
//!
//! `ORP_SCALE_SMOKE=1` runs only the n = 8192 check with a short walk
//! and writes no artifact — the CI configuration.

use orp_bench::write_json;
use orp_core::anneal::{Anneal, SaConfig, SaResult};
use orp_core::construct::random_general;
use orp_core::search::SearchConfig;
use orp_obs::Recorder;
use serde::Serialize;
use std::time::Instant;

const RADIX: u32 = 16;
/// Hosts per switch; radix 16 leaves 14 ports of network fabric.
const HOSTS_PER_SWITCH: u32 = 2;
/// Evaluation workers of the cached run.
const CACHED_WORKERS: usize = 3;

#[derive(Debug, Serialize)]
struct IdentityRow {
    n: u32,
    m: u32,
    radix: u32,
    iters: usize,
    t0: f64,
    t_end: f64,
    seed: u64,
    cached_workers: usize,
    /// Proposals the cached run rejected without a BFS.
    cached_early_rejects: u64,
    /// `f64::to_bits` of the best h-ASPL, as hex (JSON floats would
    /// round-trip lossily through the summary collator).
    haspl_bits_cached: String,
    haspl_bits_uncached: String,
    accepted: usize,
    identical: bool,
    cached_elapsed_s: f64,
    uncached_elapsed_s: f64,
}

#[derive(Debug, Serialize)]
struct Artifact {
    radix: u32,
    hosts_per_switch: u32,
    bit_identity: Vec<IdentityRow>,
}

fn anneal(g: &orp_core::graph::HostSwitchGraph, cfg: SaConfig, rec: Recorder) -> (SaResult, f64) {
    let t = Instant::now();
    let res = Anneal::builder(g.clone())
        .config(cfg)
        .recorder(rec)
        .run()
        .expect("anneal");
    (res, t.elapsed().as_secs_f64())
}

/// The cached multi-worker annealer vs the one-worker uncached one on
/// the same instance and schedule: the results must be bit-identical.
fn identity_row(n: u32, iters: usize) -> IdentityRow {
    let m = n / HOSTS_PER_SWITCH;
    let g = random_general(n, m, RADIX, 7).expect("constructible instance");
    let base = SaConfig::builder()
        .iters(iters)
        .t0(0.02)
        .t_end(1e-4)
        .seed(11)
        .build();

    let cfg = SaConfig {
        eval_workers: Some(CACHED_WORKERS),
        search: SearchConfig::default(),
        ..base.clone()
    };
    assert!(cfg.search.cache_fits(m as usize), "n = {n} must run cached");
    let rec = Recorder::enabled();
    let (cached, t_cached) = anneal(&g, cfg, rec.clone());
    let early = rec
        .snapshot()
        .and_then(|s| s.counter("eval.early_reject"))
        .unwrap_or(0);

    let cfg = SaConfig {
        eval_workers: Some(1),
        search: SearchConfig::off(),
        ..base.clone()
    };
    let (uncached, t_uncached) = anneal(&g, cfg, Recorder::disabled());

    assert_eq!(
        early, 0,
        "the early-reject guard fired at n = {n}: the uncached run cannot follow past it"
    );
    let (hc, hu) = (
        cached.metrics.haspl.to_bits(),
        uncached.metrics.haspl.to_bits(),
    );
    let identical = cached.graph == uncached.graph
        && hc == hu
        && (cached.proposed, cached.accepted, cached.disconnected)
            == (uncached.proposed, uncached.accepted, uncached.disconnected);
    assert!(
        identical,
        "the cached annealer diverged from the uncached one at n = {n}"
    );
    println!(
        "identity  n = {n:>5} (m = {m:>5}): haspl bits {hc:#018x} == {hu:#018x}, \
         {} accepted ({CACHED_WORKERS} cached workers, {early} early rejects, vs plain sweeps)",
        cached.accepted
    );
    IdentityRow {
        n,
        m,
        radix: RADIX,
        iters,
        t0: base.t0,
        t_end: base.t_end,
        seed: base.seed,
        cached_workers: CACHED_WORKERS,
        cached_early_rejects: early,
        haspl_bits_cached: format!("{hc:#018x}"),
        haspl_bits_uncached: format!("{hu:#018x}"),
        accepted: cached.accepted,
        identical,
        cached_elapsed_s: t_cached,
        uncached_elapsed_s: t_uncached,
    }
}

fn main() {
    if std::env::var("ORP_SCALE_SMOKE").is_ok_and(|v| v == "1") {
        identity_row(8192, 160);
        println!("scale smoke ok");
        return;
    }
    let artifact = Artifact {
        radix: RADIX,
        hosts_per_switch: HOSTS_PER_SWITCH,
        bit_identity: vec![identity_row(2048, 400), identity_row(8192, 200)],
    };
    let path = write_json("BENCH_scale", &artifact);
    println!("\nwrote {}", path.display());
}
