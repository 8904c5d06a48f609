//! The figure job's surface: bad input exits with code 2 and names the
//! valid choices, the topology oracles reject what they must, and a
//! smoke run writes an artifact stamped with its provenance.

use orp_bench::check_topology;
use orp_core::construct::random_general;
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::path_metrics;
use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run figures")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orp-figures-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn unknown_artifacts_and_budgets_exit_2_listing_the_valid_names() {
    let dir = scratch("usage");
    for args in [
        &["--budget", "smoke", "fig12"][..],
        &["--budget", "huge", "fig7"],
        &["--budget"],
        &["fig7"],
        &["--budget", "smoke"],
    ] {
        let out = figures(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        for name in ["smoke|recorded", "fig5", "latency_attrib", "trace_anneal"] {
            assert!(err.contains(name), "{args:?} must list {name}:\n{err}");
        }
    }
    assert!(!dir.join("results").exists(), "bad input wrote artifacts");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oracle_rejects_metrics_that_differ_from_the_rescore() {
    let g = random_general(32, 8, 10, 1).expect("constructible");
    let pm = path_metrics(&g).expect("connected");
    assert_eq!(check_topology(&g, &pm), Ok(()));
    let mut off = pm;
    off.haspl = f64::from_bits(pm.haspl.to_bits() + 1);
    let err = check_topology(&g, &off).expect_err("one ulp off");
    assert!(err.contains("re-score"), "{err}");
    let mut off = pm;
    off.diameter += 1;
    assert!(check_topology(&g, &off).is_err());
}

#[test]
fn oracle_rejects_a_graph_that_fails_validate() {
    // two switches with a host each and no link between them
    let mut g = HostSwitchGraph::new(2, 4).expect("valid parameters");
    g.attach_host(0).expect("free port");
    g.attach_host(1).expect("free port");
    assert!(g.validate().is_err());
    let reported =
        path_metrics(&random_general(32, 8, 10, 1).expect("constructible")).expect("connected");
    let err = check_topology(&g, &reported).expect_err("disconnected hosts");
    assert!(err.starts_with("invalid graph"), "{err}");
}

#[test]
fn smoke_fig7_writes_an_artifact_whose_provenance_names_the_budget() {
    let dir = scratch("fig7");
    let out = figures(&dir, &["--budget", "smoke", "fig7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("results/fig7_moore_bounds.json"))
        .expect("fig7 artifact written");
    let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let prov = v.get_field("provenance").expect("provenance");
    assert_eq!(
        prov.get_field("budget").ok(),
        Some(&serde::Value::Str("smoke".into()))
    );
    for field in ["rev", "dirty", "seed", "nproc", "wall_s"] {
        assert!(prov.get_field(field).is_ok(), "provenance lacks {field}");
    }
    let Ok(serde::Value::Array(rows)) = v.get_field("data") else {
        panic!("data must hold the Fig. 7 rows");
    };
    assert!(rows.len() > 400, "{} rows", rows.len());
    std::fs::remove_dir_all(&dir).ok();
}
