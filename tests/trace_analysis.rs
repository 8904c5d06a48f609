//! Golden-trace smoke tests: the committed metrics streams under
//! `tests/data/` must keep decoding and producing non-empty reports, and
//! `diff` over the two committed NPB streams must keep attributing at
//! least 95% of the makespan delta. These run against checked-in
//! files, so a format drift in either the writer or the decoder fails
//! here before it reaches a user. The same holds for
//! `tests/data/tempering_stream.jsonl`, a version-1 stream from a build
//! that still had parallel tempering (`r{k}.`-labelled and `temper.*`
//! gauges): `orp report` and `orp watch --once` must still render it.
//! Only streams decode: `orp report` and `orp diff` refuse a Chrome
//! trace or a non-JSON file with an error naming the stream format.

use orp::obs::analyze::{attribute, diff, render_diff, render_report, TraceData};
use orp::obs::read_stream;
use std::process::{Command, Output};

fn load(name: &str) -> TraceData {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    read_stream(&path).unwrap_or_else(|e| panic!("committed stream {path} must decode: {e}"))
}

fn orp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_orp"))
        .args(args)
        .output()
        .expect("run orp")
}

#[test]
fn committed_anneal_trace_reports_non_empty() {
    let data = load("TRACE_anneal_n128.jsonl");
    let report = render_report(&data, 10);
    // anneal-only streams carry no flows; the report shows the search
    // sections and leaves the attribution out
    for needle in [
        "telemetry report",
        "best h-ASPL",
        "anneal.run",
        "anneal.best",
    ] {
        assert!(report.contains(needle), "missing {needle}:\n{report}");
    }
    assert!(!report.contains("makespan"), "{report}");
    assert_eq!(data.event_counts["anneal.best"], 92);
    assert_eq!(data.event_counts["anneal.phase"], 10);
}

#[test]
fn committed_resilience_trace_reports_non_empty() {
    // recorded before flows carried `flow.done` records: no attribution,
    // but the fault and reroute events still report
    let data = load("TRACE_resilience_midrun.jsonl");
    let report = render_report(&data, 10);
    for needle in [
        "telemetry report",
        "fault.link_down",
        "flow.rerouted",
        "sim.run",
    ] {
        assert!(report.contains(needle), "missing {needle}:\n{report}");
    }
}

#[test]
fn committed_npb_traces_attribute_and_diff_above_bar() {
    let a = load("TRACE_npb_cg_proposed_n128.jsonl");
    let b = load("TRACE_npb_cg_dragonfly_n128.jsonl");

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
    // the table the Chrome originals of these streams printed
    assert!(
        rendered.contains("Δ makespan (B − A): -7.0406 µs   critical-path flows: 36 vs 36"),
        "{rendered}"
    );
    assert!(rendered.contains("-7.4406 µs   105.7%"), "{rendered}");
    assert!(
        rendered.contains("named components explain 100.00%"),
        "{rendered}"
    );
}

#[test]
fn metrics_stream_of_a_tempering_solve_still_renders() {
    let path = format!(
        "{}/tests/data/tempering_stream.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    for args in [&["report", &path][..], &["watch", &path, "--once"]] {
        let out = orp(args);
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

#[test]
fn report_renders_chrome_and_folded_stacks_of_a_stream() {
    let path = format!(
        "{}/tests/data/TRACE_anneal_n128.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = orp(&["report", &path, "--chrome"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let Ok(serde_json::Value::Array(events)) = v.get_field("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    for ph in ["X", "i", "C"] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e.get_field("ph"), Ok(serde_json::Value::Str(p)) if p == ph)),
            "missing phase {ph}"
        );
    }
    let out = orp(&["report", &path, "--collapsed"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("anneal.run "));
    let both = orp(&["report", &path, "--collapsed", "--chrome"]);
    assert_eq!(both.status.code(), Some(1));
}

#[test]
fn report_and_diff_refuse_what_is_not_a_stream() {
    let dir = std::env::temp_dir().join(format!("orp-not-a-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chrome = dir.join("t.json");
    std::fs::write(
        &chrome,
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{\"ph\": \"i\", \"name\": \"x\", \"ts\": 1}\n]}\n",
    )
    .unwrap();
    let text = dir.join("notes.txt");
    std::fs::write(&text, "a plain text file\n").unwrap();
    let stream = format!(
        "{}/tests/data/TRACE_anneal_n128.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    for bad in [&chrome, &text] {
        let bad = bad.to_str().unwrap();
        for args in [
            &["report", bad][..],
            &["report", bad, "--chrome"],
            &["report", bad, "--collapsed"],
            &["diff", bad, &stream],
            &["diff", &stream, bad],
        ] {
            let out = orp(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("not a metrics stream"),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
