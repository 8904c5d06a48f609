//! Overhead of the observability layer on the annealer's hot loop.
//!
//! Four variants of the same `n = 64`, `r = 8` anneal:
//!
//! * `legacy` — [`Anneal::builder`] with no `.recorder()` call, the call
//!   shape that predates telemetry,
//! * `builder_disabled` — [`Anneal::builder`] with an explicitly
//!   attached *disabled* [`Recorder`] (the zero-cost claim under test),
//! * `builder_enabled` — the same run with a recording `Recorder`, for
//!   reference,
//! * `stream_enabled` — recording `Recorder` plus a live [`StreamSink`]
//!   writing JSONL telemetry, the `orp solve --metrics` configuration.
//!
//! The disabled-recorder run must stay within a few percent of the
//! legacy entry point, and streaming must stay within 2% of the
//! plain enabled-recorder run; the artifact
//! (`results/BENCH_obs_overhead.json`) records medians and the ratios.

use criterion::Criterion;
use orp_bench::write_json;
use orp_core::anneal::{Anneal, SaConfig};
use orp_core::construct::random_general;
use orp_core::graph::HostSwitchGraph;
use orp_obs::{Recorder, StreamSink};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    id: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
    iterations: u64,
}

#[derive(Serialize)]
struct Artifact {
    n: u32,
    r: u32,
    sa_iters: usize,
    rows: Vec<Row>,
    /// `builder_disabled` median over `legacy` median.
    disabled_over_legacy: f64,
    /// `builder_enabled` median over `legacy` median.
    enabled_over_legacy: f64,
    /// `stream_enabled` median over `builder_enabled` median — the
    /// marginal cost of live JSONL streaming (must stay <= 1.02).
    stream_over_enabled: f64,
}

fn cfg() -> SaConfig {
    SaConfig::builder().iters(2_000).seed(11).build()
}

fn start() -> HostSwitchGraph {
    random_general(64, 12, 8, 11).expect("constructible")
}

fn main() {
    let mut c = Criterion::default();
    let mut group = c.benchmark_group("anneal_n64");
    group.sample_size(10);
    group.bench_function("legacy", |b| {
        b.iter(|| Anneal::builder(start()).config(cfg()).run().unwrap())
    });
    group.bench_function("builder_disabled", |b| {
        b.iter(|| {
            Anneal::builder(start())
                .config(cfg())
                .recorder(Recorder::disabled())
                .run()
                .unwrap()
        })
    });
    group.bench_function("builder_enabled", |b| {
        b.iter(|| {
            Anneal::builder(start())
                .config(cfg())
                .recorder(Recorder::enabled())
                .run()
                .unwrap()
        })
    });
    let stream_path = std::env::temp_dir().join("orp_obs_overhead_stream.jsonl");
    let sink = StreamSink::create(&stream_path).expect("stream sink in temp dir");
    group.bench_function("stream_enabled", |b| {
        b.iter(|| {
            Anneal::builder(start())
                .config(cfg())
                .recorder(Recorder::enabled())
                .stream(sink.clone())
                .run()
                .unwrap()
        })
    });
    let _ = std::fs::remove_file(&stream_path);
    group.finish();

    let rows: Vec<Row> = c
        .measurements()
        .iter()
        .map(|m| Row {
            id: m.id.clone(),
            median_ns: m.median_ns,
            min_ns: m.min_ns,
            max_ns: m.max_ns,
            iterations: m.iterations,
        })
        .collect();
    let median = |id: &str| {
        rows.iter()
            .find(|r| r.id == id)
            .map(|r| r.median_ns)
            .expect("bench ran")
    };
    let artifact = Artifact {
        n: 64,
        r: 8,
        sa_iters: 2_000,
        disabled_over_legacy: median("builder_disabled") / median("legacy"),
        enabled_over_legacy: median("builder_enabled") / median("legacy"),
        stream_over_enabled: median("stream_enabled") / median("builder_enabled"),
        rows,
    };
    println!(
        "disabled/legacy = {:.4}, enabled/legacy = {:.4}, stream/enabled = {:.4}",
        artifact.disabled_over_legacy, artifact.enabled_over_legacy, artifact.stream_over_enabled
    );
    let path = write_json("BENCH_obs_overhead", &artifact);
    eprintln!("wrote {}", path.display());
}
