//! Sharded-cache parallel tempering at Graph-Golf scale.
//!
//! Three measurements, committed as `results/BENCH_scale.json`:
//!
//! 1. **Bit-identity** (n ≤ 8192): a short tempering solve on the
//!    sharded, cached engine (worker pool + distance cache) against
//!    the sequential reference (one worker, no cache, full sweeps).
//!    The final h-ASPL must match bit for bit — the cache, the worker
//!    count and which worker claims which task are pure wall-clock
//!    knobs.
//! 2. **Throughput** (n = 16384, m = 8192): aggregate proposals/sec of
//!    a 3-replica tempering ensemble on the sharded cache vs the
//!    single-annealer baseline in its pre-cache configuration — at
//!    m > 4096 the first cached engine had no cache, so every proposal
//!    paid a full 64-wide sweep. The run asserts ≥ 3×.
//! 3. **Scale** (n = 65536, m = 32768): sustained proposals/sec of a
//!    2-replica tempering solve on the cache (one byte per row entry)
//!    — a scale the paper only extrapolates bounds for, never anneals
//!    at.
//!
//! The artifact's `sharded_codec`, `cache_mode` and `codec` fields read
//! `packed` for a cached run and `none` or `off` for an uncached one.
//!
//! `ORP_SCALE_SMOKE=1` runs only the n = 8192 bit-identity check with
//! a short walk and writes no artifact — the CI configuration.

use orp_bench::write_json;
use orp_core::anneal::{Anneal, SaConfig};
use orp_core::construct::random_general;
use orp_core::search::SearchConfig;
use orp_core::temper::{geometric_ladder, Temper, TemperResult};
use serde::Serialize;
use std::time::Instant;

const RADIX: u32 = 16;
/// Hosts per switch; radix 16 leaves 14 ports of network fabric.
const HOSTS_PER_SWITCH: u32 = 2;

#[derive(Debug, Serialize)]
struct IdentityRow {
    n: u32,
    m: u32,
    radix: u32,
    replicas: usize,
    iters: usize,
    sharded_codec: String,
    sharded_workers: usize,
    /// `f64::to_bits` of the best h-ASPL, as hex (JSON floats would
    /// round-trip lossily through the summary collator).
    haspl_bits_sharded: String,
    haspl_bits_sequential: String,
    identical: bool,
    sharded_elapsed_s: f64,
    sequential_elapsed_s: f64,
}

#[derive(Debug, Serialize)]
struct ThroughputSide {
    cache_mode: String,
    workers: usize,
    replicas: usize,
    iters_per_replica: usize,
    proposals: usize,
    elapsed_s: f64,
    proposals_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct ThroughputRow {
    n: u32,
    m: u32,
    radix: u32,
    baseline: ThroughputSide,
    sharded: ThroughputSide,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct ScaleRow {
    n: u32,
    m: u32,
    radix: u32,
    codec: String,
    replicas: usize,
    iters_per_replica: usize,
    exchange_every: usize,
    proposals: usize,
    exchanges_attempted: u64,
    exchanges_accepted: u64,
    elapsed_s: f64,
    sustained_proposals_per_sec: f64,
    haspl_initial: f64,
    haspl_final: f64,
    cache_bytes_per_replica: usize,
}

#[derive(Debug, Serialize)]
struct Artifact {
    radix: u32,
    hosts_per_switch: u32,
    bit_identity: Vec<IdentityRow>,
    throughput: ThroughputRow,
    scale: ScaleRow,
}

/// The artifact's row-format word for `cfg` on an `m`-switch instance.
fn cache_word(cfg: &SaConfig, m: u32) -> String {
    let cached = cfg.search.cache_fits(m as usize);
    (if cached { "packed" } else { "none" }).into()
}

fn instance(n: u32, seed: u64) -> orp_core::graph::HostSwitchGraph {
    let m = n / HOSTS_PER_SWITCH;
    random_general(n, m, RADIX, seed).expect("constructible instance")
}

fn temper(
    g: &orp_core::graph::HostSwitchGraph,
    cfg: &SaConfig,
    ladder: Vec<f64>,
    exchange_every: usize,
) -> (TemperResult, f64) {
    let t0 = Instant::now();
    let res = Temper::builder(g.clone())
        .config(cfg.clone())
        .ladder(ladder)
        .exchange_every(exchange_every)
        .run()
        .expect("tempering solve");
    (res, t0.elapsed().as_secs_f64())
}

/// Sharded cached ensemble vs the one-worker uncached reference on the
/// same instance and schedule: final h-ASPL must be bit-identical.
fn identity_row(n: u32, iters: usize) -> IdentityRow {
    let g = instance(n, 7);
    let m = g.num_switches();
    let ladder = geometric_ladder(0.02, 1e-4, 3);
    let mut cfg = SaConfig::builder().iters(iters).seed(11).build();

    cfg.eval_workers = Some(3);
    cfg.search = SearchConfig::default();
    let codec = cache_word(&cfg, m);
    let (sharded, t_sharded) = temper(&g, &cfg, ladder.clone(), iters.div_ceil(4));

    cfg.eval_workers = Some(1);
    cfg.search = SearchConfig::off();
    let (sequential, t_seq) = temper(&g, &cfg, ladder, iters.div_ceil(4));

    let hb = sharded.best_result().metrics.haspl.to_bits();
    let sb = sequential.best_result().metrics.haspl.to_bits();
    assert_eq!(
        sharded.best_result().metrics,
        sequential.best_result().metrics,
        "sharded tempering diverged from the sequential reference at n = {n}"
    );
    println!(
        "identity  n = {n:>5} (m = {m:>5}): haspl bits {hb:#018x} == {sb:#018x} \
         ({codec} cache, 3 workers vs plain sweeps)"
    );
    IdentityRow {
        n,
        m,
        radix: RADIX,
        replicas: 3,
        iters,
        sharded_codec: codec,
        sharded_workers: 3,
        haspl_bits_sharded: format!("{hb:#018x}"),
        haspl_bits_sequential: format!("{sb:#018x}"),
        identical: hb == sb,
        sharded_elapsed_s: t_sharded,
        sequential_elapsed_s: t_seq,
    }
}

fn throughput_row(n: u32, base_iters: usize, sharded_iters: usize) -> ThroughputRow {
    let g = instance(n, 7);
    let m = g.num_switches();

    // Baseline: exactly the pre-sharding engine at this size — one
    // annealer, no distance cache (the first cache was hard-capped at
    // 4096 switches), one worker.
    let mut cfg = SaConfig::builder().iters(base_iters).seed(11).build();
    cfg.eval_workers = Some(1);
    cfg.search = SearchConfig::off();
    let t0 = Instant::now();
    let base = Anneal::builder(g.clone())
        .config(cfg)
        .run()
        .expect("baseline anneal");
    let base_s = t0.elapsed().as_secs_f64();
    let baseline = ThroughputSide {
        cache_mode: "off".into(),
        workers: 1,
        replicas: 1,
        iters_per_replica: base_iters,
        proposals: base.proposed,
        elapsed_s: base_s,
        proposals_per_sec: base.proposed as f64 / base_s,
    };

    // Sharded: a 3-replica tempering ensemble on the cache.
    // One worker per replica — how `Solver` divides this machine's
    // cores — and the Solver's default ladder, spanning the same
    // temperature range as the baseline's schedule so cold rungs pay
    // the same early-reject profile the baseline would if it could.
    let mut cfg = SaConfig::builder().iters(sharded_iters).seed(11).build();
    cfg.eval_workers = Some(1);
    cfg.search = SearchConfig::default();
    let codec = cache_word(&cfg, m);
    let (res, sharded_s) = temper(
        &g,
        &cfg,
        geometric_ladder(cfg.t0, cfg.t_end.max(1e-12), 3),
        sharded_iters.div_ceil(4),
    );
    let proposed: usize = res.results.iter().map(|r| r.proposed).sum();
    let sharded = ThroughputSide {
        cache_mode: codec,
        workers: 1,
        replicas: res.results.len(),
        iters_per_replica: sharded_iters,
        proposals: proposed,
        elapsed_s: sharded_s,
        proposals_per_sec: proposed as f64 / sharded_s,
    };

    let speedup = sharded.proposals_per_sec / baseline.proposals_per_sec;
    println!(
        "throughput n = {n} (m = {m}): baseline {:.1} pps, sharded {:.1} pps aggregate \
         ({speedup:.1}x)",
        baseline.proposals_per_sec, sharded.proposals_per_sec
    );
    assert!(
        speedup >= 3.0,
        "sharded aggregate throughput must be >= 3x the single-annealer baseline, got {speedup:.2}x"
    );
    ThroughputRow {
        n,
        m,
        radix: RADIX,
        baseline,
        sharded,
        speedup,
    }
}

fn scale_row(n: u32, iters: usize, exchange_every: usize) -> ScaleRow {
    let g = instance(n, 7);
    let m = g.num_switches();
    let mut cfg = SaConfig::builder().iters(iters).seed(11).build();
    cfg.eval_workers = Some(2);
    cfg.search = SearchConfig::default();
    let codec = cache_word(&cfg, m);
    assert_eq!(codec, "packed", "n = {n} must run cached");

    let (res, elapsed) = temper(
        &g,
        &cfg,
        geometric_ladder(cfg.t0, cfg.t_end.max(1e-12), 2),
        exchange_every,
    );
    let proposed: usize = res.results.iter().map(|r| r.proposed).sum();
    let best = res.best_result();
    let row = ScaleRow {
        n,
        m,
        radix: RADIX,
        codec,
        replicas: res.results.len(),
        iters_per_replica: iters,
        exchange_every,
        proposals: proposed,
        exchanges_attempted: res.exchanges.attempted,
        exchanges_accepted: res.exchanges.accepted,
        elapsed_s: elapsed,
        sustained_proposals_per_sec: proposed as f64 / elapsed,
        haspl_initial: 0.0, // filled by caller
        haspl_final: best.metrics.haspl,
        cache_bytes_per_replica: SearchConfig::cache_bytes(m as usize),
    };
    println!(
        "scale      n = {n} (m = {m}): {} proposals in {elapsed:.1} s = {:.1} pps sustained \
         (cached, {} exchanges accepted), h-ASPL -> {:.6}",
        row.proposals, row.sustained_proposals_per_sec, row.exchanges_accepted, row.haspl_final
    );
    row
}

fn main() {
    let smoke = std::env::var("ORP_SCALE_SMOKE").is_ok_and(|v| v == "1");
    if smoke {
        let row = identity_row(8192, 160);
        assert!(row.identical);
        println!("scale smoke ok");
        return;
    }

    let env_iters = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let bit_identity = vec![identity_row(2048, 400), identity_row(8192, 200)];
    let throughput = throughput_row(
        16384,
        env_iters("ORP_SCALE_BASE_ITERS", 48),
        env_iters("ORP_SCALE_SHARD_ITERS", 1200),
    );
    let mut scale = scale_row(65536, env_iters("ORP_SCALE_BIG_ITERS", 600), 200);

    // Initial h-ASPL of the scale instance, for context in the artifact.
    let g = instance(65536, 7);
    let mut st =
        orp_core::search::SearchState::with_search(g, 1, SearchConfig::off()).expect("connected");
    scale.haspl_initial = st.evaluate().expect("connected").haspl;

    let artifact = Artifact {
        radix: RADIX,
        hosts_per_switch: HOSTS_PER_SWITCH,
        bit_identity,
        throughput,
        scale,
    };
    let path = write_json("BENCH_scale", &artifact);
    println!("\nwrote {}", path.display());
}
