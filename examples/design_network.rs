//! Design a deployable network for a given order and radix, and export
//! it in the textual edge-list format.
//!
//! ```text
//! cargo run --release --example design_network -- [n] [r] [sa_iters] [out.hsg]
//! ```
//!
//! Mirrors the paper's §5.3 recipe: `m = m_opt` from the continuous
//! Moore bound, 2-neighbor-swing annealing, DFS host numbering, then a
//! floorplan with power/cost estimates for the result.

use orp::core::anneal::SaConfig;
use orp::core::bounds::haspl_lower_bound;
use orp::core::io;
use orp::core::solver::Solver;
use orp::layout::{evaluate, Floorplan, HardwareModel};
use orp::topo::attach::relabel_hosts_dfs;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(512);
    let r: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8000);
    let out = args.next().unwrap_or_else(|| format!("orp_n{n}_r{r}.hsg"));

    println!("designing a network: n = {n}, r = {r} ({iters} SA proposals)");
    let cfg = SaConfig {
        iters,
        seed: 7,
        ..Default::default()
    };
    let report = Solver::builder(n, r)
        .config(cfg)
        .run()
        .expect("feasible instance");
    let (result, m) = (report.result, report.m);
    let graph = relabel_hosts_dfs(&result.graph, 0);
    graph.validate().expect("valid design");

    let lb = haspl_lower_bound(n as u64, r as u64);
    println!(
        "  m = {m} switches, h-ASPL = {:.4} (lower bound {lb:.4}, gap {:.1}%)",
        result.metrics.haspl,
        100.0 * (result.metrics.haspl / lb - 1.0)
    );
    println!("  diameter = {}", result.metrics.diameter);

    let fp = Floorplan::new(&graph, 1);
    let report = evaluate(&graph, &fp, &HardwareModel::default());
    println!("\ndeployment estimate ({} cabinets):", fp.num_cabinets());
    println!(
        "  cables: {} switch-switch ({} optical) + {} host",
        report.sw_cables, report.optical_cables, report.host_cables
    );
    println!("  total cable length: {:.0} m", report.cable_m);
    println!("  power: {:.1} kW", report.total_power() / 1e3);
    println!(
        "  cost:  ${:.0}k (switches ${:.0}k, cables ${:.0}k)",
        report.total_cost() / 1e3,
        report.switch_cost / 1e3,
        report.cable_cost / 1e3
    );

    orp::core::ckpt::atomic_write(std::path::Path::new(&out), io::to_string(&graph).as_bytes())
        .expect("write design");
    println!("\nwrote {out} (parse it back with orp_core::io::from_str)");
}
