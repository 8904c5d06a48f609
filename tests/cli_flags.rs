//! The `orp` binary rejects `--` flags a subcommand does not know: the
//! run fails with a usage error naming the flag instead of ignoring it
//! or misreading it as a positional argument (a benchmark name, an
//! iteration count). Instances outside the paper's domain (fewer than
//! two hosts, radix below 3) and flag values no run can use (a
//! non-finite or negative `--watchdog`, a zero `--exchange-every`) fail
//! the same way instead of panicking, and so does a graph file
//! declaring more switches than its lines can describe. A `--workers`
//! count beyond the instance's switch count runs, clamped to one
//! evaluation worker per switch. `--mem-budget` is the distance
//! cache's only knob: `0` runs uncached to the same answer, and the
//! retired `--cache-mode` is an unknown flag.

use orp::core::construct::random_general;
use orp::core::io;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A small saved graph in a scratch directory unique to `tag`.
fn saved_graph(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orp-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("g.hsg");
    let g = random_general(16, 4, 8, 1).unwrap();
    std::fs::write(&path, io::to_string(&g)).unwrap();
    path
}

fn orp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_orp"))
        .args(args)
        .output()
        .expect("run orp")
}

/// Asserts `orp args…` exits non-zero with `flag` named on stderr.
fn assert_rejects(args: &[&str], flag: &str) {
    let out = orp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded");
    assert!(
        stderr.contains(&format!("unknown flag {flag}")),
        "{args:?}: stderr does not name {flag}: {stderr}"
    );
}

#[test]
fn simulate_rejects_unknown_and_retired_flags() {
    let path = saved_graph("simulate");
    let g = path.to_str().unwrap();
    assert_rejects(
        &["simulate", g, "--inject", "1000", "--bogus", "2"],
        "--bogus",
    );
    // without --inject a leftover flag would be read as the benchmark
    assert_rejects(&["simulate", g, "--workers", "2"], "--workers");
    // known flags alone still run
    let out = orp(&["simulate", g, "--inject", "50", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("sim-state:"));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn solve_cache_follows_the_memory_budget_alone() {
    let state = |args: &[&str]| {
        let out = orp(args);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{args:?}: {stdout}");
        let line = stdout.lines().find(|l| l.starts_with("solve-state:"));
        line.expect("solve-state line").to_owned()
    };
    let cached = state(&["solve", "64", "4", "200"]);
    assert_eq!(
        state(&["solve", "64", "4", "200", "--mem-budget", "0"]),
        cached
    );
    assert_rejects(
        &["solve", "64", "4", "200", "--cache-mode", "compressed"],
        "--cache-mode",
    );
}

#[test]
fn every_subcommand_rejects_unknown_flags() {
    let path = saved_graph("all");
    let g = path.to_str().unwrap();
    let cases: [&[&str]; 10] = [
        &["bounds", "16", "4"],
        &["solve", "16", "4", "10"],
        &["eval", g],
        &["compare", "16", "4"],
        &["simulate", g, "EP"],
        &["watch", "m.jsonl", "--once"],
        &["report", "t.json"],
        &["diff", "a.json", "b.json"],
        &["partition", g, "2"],
        &["layout", g],
    ];
    for case in cases {
        let mut args = case.to_vec();
        args.push("--frobnicate");
        assert_rejects(&args, "--frobnicate");
    }
    assert!(orp(&["bounds", "16", "4"]).status.success());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn degenerate_instances_fail_with_a_usage_error() {
    let cases: [&[&str]; 5] = [
        &["solve", "16", "2"],
        &["solve", "1", "4"],
        &["bounds", "1", "2"],
        &["bounds", "16", "2"],
        &["compare", "1", "4"],
    ];
    for args in cases {
        let out = orp(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            stderr.contains("invalid parameters") && stderr.contains("usage: orp"),
            "{args:?}: no usage error: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    assert!(orp(&["bounds", "2", "3"]).status.success());
}

#[test]
fn graph_files_declaring_impossible_sizes_fail_cleanly() {
    let path = saved_graph("sizes");
    // 4e9 switches: the reader used to allocate for them and abort
    std::fs::write(&path, "orp-hsg 1\nn 2\nm 4000000000\nr 4000000000\n").unwrap();
    let out = orp(&["eval", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bad header"), "{stderr}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn unusable_flag_values_fail_with_a_usage_error() {
    let path = saved_graph("values");
    let g = path.to_str().unwrap();
    let ck = path.with_file_name("ck.orp");
    let ck = ck.to_str().unwrap();
    let words = |cmd: &'static str| cmd.split(' ').collect::<Vec<_>>();
    let mut cases = Vec::new();
    for secs in ["nan", "-1", "inf", "1e300", "soon"] {
        let solve = [words("solve 64 8 100 --watchdog"), vec![secs]].concat();
        cases.push((solve, "--watchdog"));
        cases.push((vec!["simulate", g, "EP", "--watchdog", secs], "--watchdog"));
    }
    let tempering = words("solve 64 8 100 --replicas 2 --exchange-every 0");
    let checkpointed = [&tempering[..], &["--checkpoint", ck, "--every", "10"]].concat();
    cases.push((tempering, "--exchange-every"));
    cases.push((checkpointed, "--exchange-every"));
    for (args, flag) in cases {
        let out = orp(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("usage: orp"),
            "{args:?}: no usage error naming {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    // a finite watchdog, a positive exchange interval and a worker
    // count far beyond the switch count (it used to abort allocating
    // per-worker scratch) still run
    for args in [
        "solve 64 8 100 --replicas 2 --exchange-every 10 --watchdog 30",
        "solve 64 4 10 --workers 10000000000",
    ] {
        let ok = orp(&words(args));
        let stderr = String::from_utf8_lossy(&ok.stderr);
        assert!(ok.status.success(), "{args}: {stderr}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
