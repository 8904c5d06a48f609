//! Telemetry smoke + trace artifact: anneal the paper-scale `n = 128`,
//! `r = 8` instance with a recording [`Recorder`] attached and export
//! the run as a metrics stream (`results/TRACE_anneal_n128.jsonl`;
//! `orp report --chrome` renders it for `chrome://tracing` or
//! Perfetto).
//!
//! The binary reads its own artifact back through the stream decoder
//! and checks it against the run — every `anneal.best` event the
//! recorder journaled, the annealer's proposal and acceptance counts,
//! the `anneal.run` span — so CI can use it as the observability smoke
//! test (`ORP_SA_ITERS` scales the effort as usual). It prints the
//! stream's report.

use orp_bench::Effort;
use orp_core::anneal::Anneal;
use orp_core::bounds::optimal_switch_count;
use orp_core::construct::random_general;
use orp_obs::analyze::render_report;
use orp_obs::{read_stream, Recorder, StreamSink};

fn main() {
    let effort = Effort::from_env();
    let (n, r) = (128u32, 8u32);
    let (m_opt, _) = optimal_switch_count(n as u64, r as u64);

    let rec = Recorder::enabled();
    let start = random_general(n, m_opt as u32, r, effort.seed).expect("constructible");
    let res = Anneal::builder(start)
        .config(effort.sa_config())
        .recorder(rec.clone())
        .run()
        .expect("anneal completes");
    eprintln!(
        "annealed n={n} r={r} m={m_opt}: h-ASPL {:.4}, {} proposals, {} accepted",
        res.metrics.haspl, res.proposed, res.accepted
    );

    let path = "results/TRACE_anneal_n128.jsonl";
    StreamSink::create(path)
        .expect("create trace artifact")
        .finish(&rec, || ());
    let data = read_stream(path).expect("the artifact decodes");
    let snap = rec.snapshot().expect("recorder is enabled");
    assert_eq!(data.state.dropped_events, 0, "the stream dropped events");
    assert_eq!(
        data.event_counts.get("anneal.best").copied(),
        Some(snap.event_count("anneal.best")),
        "the stream must hold every anneal.best event the recorder journaled"
    );
    assert_eq!(
        data.state.counter("anneal.proposed"),
        Some(res.proposed as u64),
        "telemetry counter must match the annealer's own accounting"
    );
    assert_eq!(
        data.state.counter("anneal.accepted"),
        Some(res.accepted as u64)
    );
    assert!(
        data.spans.iter().any(|s| s.name == "anneal.run"),
        "anneal.run span missing"
    );
    assert!(
        data.state.hists.iter().any(|(n, _)| n == "anneal.eval_ns"),
        "eval latency histogram missing"
    );
    eprintln!("wrote {path} ({} journal events)", snap.events.len());

    println!("{}", render_report(&data, 10));
}
