//! Quickstart: solve a small Order/Radix Problem instance end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Given an order (hosts) and a radix (ports per switch), the toolkit
//! predicts the optimal switch count from the continuous Moore bound,
//! anneals a host-switch graph with the 2-neighbor swing operation, and
//! reports how close the result lands to the theoretical lower bound.

use orp::core::anneal::SaConfig;
use orp::core::bounds::{diameter_lower_bound, haspl_lower_bound, optimal_switch_count};
use orp::core::metrics::path_metrics;
use orp::core::solver::Solver;

fn main() {
    let n = 256; // order: number of hosts
    let r = 12; // radix: ports per switch

    let (m_opt, bound) = optimal_switch_count(n as u64, r as u64);
    println!("ORP instance: n = {n} hosts, r = {r} ports/switch");
    println!("continuous Moore bound predicts m_opt = {m_opt} switches");
    println!("  predicted h-ASPL bound at m_opt: {bound:.4}");
    println!(
        "  Theorem-2 lower bound:           {:.4}",
        haspl_lower_bound(n as u64, r as u64)
    );
    println!(
        "  Theorem-1 diameter bound:        {}",
        diameter_lower_bound(n as u64, r as u64)
    );

    let cfg = SaConfig {
        iters: 5000,
        seed: 42,
        ..Default::default()
    };
    let report = Solver::builder(n, r)
        .config(cfg)
        .run()
        .expect("feasible instance");
    let (result, m) = (report.result, report.m);
    println!(
        "\nannealed with {} proposals ({} accepted):",
        result.proposed, result.accepted
    );
    println!("  switches used:   {m}");
    println!("  h-ASPL achieved: {:.4}", result.metrics.haspl);
    println!("  diameter:        {}", result.metrics.diameter);

    // hosts per switch are *not* uniform — the paper's key observation
    let hist = result.graph.host_distribution();
    println!("\nhost distribution (hosts -> #switches):");
    for (k, &c) in hist.iter().enumerate() {
        if c > 0 {
            println!("  {k:>2} hosts: {c:>3} switches");
        }
    }

    // everything stays verifiable
    result.graph.validate().expect("invariants hold");
    let check = path_metrics(&result.graph).expect("connected");
    assert_eq!(check.diameter, result.metrics.diameter);
    println!("\ngraph validated; metrics reproducible. Done.");
}
