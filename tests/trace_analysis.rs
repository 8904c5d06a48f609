//! Golden-trace smoke tests: the committed Chrome-trace artifacts under
//! `results/` must keep parsing and producing non-empty reports, and
//! `diff` over the two committed NPB traces must keep attributing at
//! least 95% of the makespan delta (the PR's acceptance bar). These run
//! against checked-in files, so a format drift in either the exporter
//! or the parser fails here before it reaches a user. The same holds for
//! `tests/data/tempering_stream.jsonl`, a metrics stream from a build
//! that still had parallel tempering (`r{k}.`-labelled and `temper.*`
//! gauges): `orp report` and `orp watch --once` must still render it.

use orp::obs::analyze::{attribute, diff, render_diff, render_report, TraceData};
use std::process::Command;

fn load(name: &str) -> TraceData {
    let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed trace {path} must be readable: {e}"));
    TraceData::parse_chrome(&text)
        .unwrap_or_else(|e| panic!("committed trace {path} must parse: {e}"))
}

#[test]
fn committed_anneal_trace_reports_non_empty() {
    let data = load("TRACE_anneal_n128.json");
    let report = render_report(&data, 10);
    assert!(!report.trim().is_empty());
    // anneal-only traces carry no flows; the report says so instead of
    // rendering an empty attribution table
    assert!(
        report.contains("latency attribution report"),
        "missing header:\n{report}"
    );
    assert!(!data.spans.is_empty() || !data.counters.is_empty());
}

#[test]
fn committed_resilience_trace_reports_non_empty() {
    let data = load("TRACE_resilience_midrun.json");
    let report = render_report(&data, 10);
    assert!(!report.trim().is_empty());
    assert!(
        report.contains("latency attribution report"),
        "missing header:\n{report}"
    );
}

#[test]
fn committed_npb_traces_attribute_and_diff_above_bar() {
    let a = load("TRACE_npb_cg_proposed_n128.json");
    let b = load("TRACE_npb_cg_dragonfly_n128.json");

    for (name, t) in [("proposed", &a), ("dragonfly", &b)] {
        assert!(!t.flows.is_empty(), "{name}: no flow.done records");
        let attr = attribute(t).expect("flows present");
        assert!(
            attr.residual.abs() <= 1e-6 * attr.makespan.max(1e-30),
            "{name}: residual {} vs makespan {}",
            attr.residual,
            attr.makespan
        );
        let report = render_report(t, 10);
        assert!(report.contains("attribution"), "{name}:\n{report}");
        assert!(report.contains("critical path"), "{name}:\n{report}");
    }

    let d = diff(&a, &b).expect("both traces have flows");
    assert!(
        d.coverage >= 0.95,
        "diff must attribute >= 95% of the makespan delta, got {:.4}",
        d.coverage
    );
    let rendered = render_diff("proposed", "dragonfly", &d);
    assert!(rendered.contains("makespan delta"), "{rendered}");
}

#[test]
fn metrics_stream_of_a_tempering_solve_still_renders() {
    let path = format!(
        "{}/tests/data/tempering_stream.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    for args in [&["report", &path][..], &["watch", &path, "--once"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_orp"))
            .args(args)
            .output()
            .expect("run orp");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        // the unlabelled best-so-far series still drives the headline
        assert!(stdout.contains("best h-ASPL"), "{args:?}:\n{stdout}");
    }
}
