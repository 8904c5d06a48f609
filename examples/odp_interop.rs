//! Graph Golf (Order/Degree Problem) interop: score a known-good plain
//! graph with the competition metrics, lift it into a host-switch graph,
//! and compare with a same-budget ORP solution.
//!
//! ```text
//! cargo run --release --example odp_interop
//! ```
//!
//! The demo fabric is the Slim Fly MMS graph for q = 5 — the
//! Hoffman–Singleton graph, which achieves the Moore bound exactly
//! (ASPL gap 0), the best possible ODP score at (50, 7).

use orp::core::anneal::SaConfig;
use orp::core::metrics::path_metrics;
use orp::core::odp;
use orp::core::solver::Solver;
use orp::topo::prelude::*;

fn main() {
    // 1. build a fabric and export it in Graph Golf format
    let sf = SlimFly { q: 5, radix: 7 };
    let fabric = sf.build_fabric().expect("valid parameters");
    let edge_list = odp::to_edge_list(&fabric);
    println!("exported {} edges of the q=5 MMS graph", fabric.num_links());

    // 2. score it with the ODP metrics
    let sc = odp::score(&fabric).expect("connected");
    println!(
        "ODP score: order={}, degree={}, diameter={}, ASPL={:.4}, gap={:.2e}",
        sc.order, sc.degree, sc.diameter, sc.aspl, sc.aspl_gap
    );
    assert!(
        sc.aspl_gap.abs() < 1e-12,
        "Hoffman–Singleton is a Moore graph"
    );

    // 3. reimport at a bigger radix and attach hosts → an ORP candidate
    let rehostable = odp::from_edge_list(&edge_list, 11).expect("parses");
    let n = 200;
    let candidate = odp::into_host_switch(rehostable, n).expect("4 free ports each");
    let pm = path_metrics(&candidate).expect("connected");
    println!(
        "\nas a host-switch graph (n={n}, m=50, r=11): h-ASPL={:.4}, D={}",
        pm.haspl, pm.diameter
    );

    // 4. what does the ORP solver do with the same budget?
    let cfg = SaConfig {
        iters: 6000,
        seed: 3,
        ..Default::default()
    };
    let report = Solver::builder(n, 11).config(cfg).run().expect("feasible");
    let (res, m_opt) = (report.result, report.m);
    println!(
        "ORP solver (free m): m_opt={m_opt}, h-ASPL={:.4}, D={}",
        res.metrics.haspl, res.metrics.diameter
    );
    println!(
        "\nA diameter-2 Moore fabric is hard to beat at its own (n, r) — the\n\
         solver's advantage is picking m freely when (n, r) don't align."
    );
}
