//! Run the NAS Parallel Benchmark skeletons on a topology of your choice
//! under the flow-level simulator.
//!
//! ```text
//! cargo run --release --example npb_simulation -- [topology] [ranks]
//! topology: torus | dragonfly | fattree | orp      (default: orp)
//! ranks:    power of four up to the topology size  (default: 256)
//! ```

use orp::core::anneal::SaConfig;
use orp::core::solver::Solver;
use orp::core::HostSwitchGraph;
use orp::netsim::network::Network;
use orp::netsim::npb::Benchmark;
use orp::netsim::report::run_suite;
use orp::topo::attach::relabel_hosts_dfs;
use orp::topo::prelude::*;

fn build(topology: &str, ranks: u32) -> (String, HostSwitchGraph) {
    match topology {
        "torus" => {
            let t = Torus {
                dim: 3,
                base: 4,
                radix: 10,
            }; // 64 switches, ≤256 hosts
            (
                t.name(),
                t.build_with_hosts(ranks, AttachOrder::Sequential)
                    .expect("fits"),
            )
        }
        "dragonfly" => {
            let d = Dragonfly { a: 6 }; // 114 switches, ≤342 hosts
            (
                d.name(),
                d.build_with_hosts(ranks, AttachOrder::Sequential)
                    .expect("fits"),
            )
        }
        "fattree" => {
            let f = FatTree { k: 10 }; // 125 switches, 250 hosts
            (
                f.name(),
                f.build_with_hosts(ranks, AttachOrder::Sequential)
                    .expect("fits"),
            )
        }
        _ => {
            let cfg = SaConfig {
                iters: 3000,
                seed: 7,
                ..Default::default()
            };
            let report = Solver::builder(ranks, 10)
                .config(cfg)
                .run()
                .expect("feasible");
            let (res, m) = (report.result, report.m);
            (
                format!("proposed ORP (m={m}, r=10)"),
                relabel_hosts_dfs(&res.graph, 0),
            )
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let topology = args.next().unwrap_or_else(|| "orp".into());
    let ranks: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    let (name, g) = build(&topology, ranks);
    println!("simulating NPB on {name} with {ranks} MPI ranks\n");
    let net = Network::builder(&g).build();
    let results = run_suite(&net, &Benchmark::all(), ranks, 2).expect("fault-free suite simulates");
    println!(
        "{:<5} {:>12} {:>14} {:>10} {:>14}",
        "bench", "sim time/s", "Mop/s", "flows", "bytes moved"
    );
    for r in &results {
        println!(
            "{:<5} {:>12.6} {:>14.0} {:>10} {:>14.3e}",
            r.name, r.time, r.mops, r.flows, r.bytes
        );
    }
    println!("\n(compare topologies by re-running with torus | dragonfly | fattree | orp)");
}
