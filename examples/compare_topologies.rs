//! Compare the proposed ORP topology against the three conventional
//! topologies of the paper (§6) on structural metrics and deployment
//! figures — a fast, table-form miniature of Figs. 9–11.
//!
//! ```text
//! cargo run --release --example compare_topologies
//! ```

use orp::core::anneal::SaConfig;
use orp::core::metrics::path_metrics;
use orp::core::solver::Solver;
use orp::core::HostSwitchGraph;
use orp::layout::evaluate_default;
use orp::topo::prelude::*;

fn row(name: &str, g: &HostSwitchGraph) {
    let m = path_metrics(g).expect("connected");
    let lay = evaluate_default(g);
    println!(
        "{:<26} {:>5} {:>5} {:>4} {:>8.4} {:>3} {:>9.1} {:>9.0}",
        name,
        g.num_hosts(),
        g.num_switches(),
        g.radix(),
        m.haspl,
        m.diameter,
        lay.total_power() / 1e3,
        lay.total_cost() / 1e3,
    );
}

fn main() {
    let n = 1024;
    println!(
        "{:<26} {:>5} {:>5} {:>4} {:>8} {:>3} {:>9} {:>9}",
        "topology", "n", "m", "r", "h-ASPL", "D", "power/kW", "cost/$k"
    );

    // the three conventional topologies at their paper configurations
    let torus = Torus::paper_5d()
        .build_with_hosts(n, AttachOrder::Sequential)
        .unwrap();
    row(&Torus::paper_5d().name(), &torus);
    let df = Dragonfly::paper_a8()
        .build_with_hosts(n, AttachOrder::Sequential)
        .unwrap();
    row(&Dragonfly::paper_a8().name(), &df);
    let ft = FatTree::paper_16ary()
        .build_with_hosts(n, AttachOrder::Sequential)
        .unwrap();
    row(&FatTree::paper_16ary().name(), &ft);

    // the proposed topology at both radixes the paper uses
    for r in [15u32, 16] {
        let cfg = SaConfig {
            iters: 4000,
            seed: 7,
            ..Default::default()
        };
        let report = Solver::builder(n, r).config(cfg).run().expect("feasible");
        let (res, m_opt) = (report.result, report.m);
        row(&format!("proposed ORP (r={r}, m={m_opt})"), &res.graph);
    }

    println!("\nThe proposed rows should show the lowest h-ASPL and the fewest");
    println!("switches at matching radix — the paper's Table-free headline.");
}
