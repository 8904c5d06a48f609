//! Integration tests of the network simulator against physical
//! intuition: latency ordering across topologies, contention behaviour,
//! and NPB end-to-end runs on every topology family.

use orp::core::construct::{clique, random_general, star};
use orp::netsim::mpi::ProgramBuilder;
use orp::netsim::network::Network;
use orp::netsim::npb::Benchmark;
use orp::netsim::report::run_suite;
use orp::netsim::Simulator;
use orp::topo::prelude::*;

fn alltoall_time(g: &orp::core::HostSwitchGraph, ranks: u32, bytes: f64) -> f64 {
    let net = Network::builder(g).build();
    let progs = ProgramBuilder::build(ranks, |b| b.alltoall(bytes));
    Simulator::builder(&net).programs(progs).run().unwrap().time
}

#[test]
fn shorter_topologies_finish_alltoall_faster() {
    // star (everything 2 hops) < clique fabric < sparse random fabric,
    // for a latency-bound alltoall
    let n = 64;
    let star_g = star(n, 64).unwrap();
    let clique_g = clique(n, 24).unwrap();
    let sparse_g = random_general(n, 16, 8, 3).unwrap();
    let t_star = alltoall_time(&star_g, n, 64.0);
    let t_clique = alltoall_time(&clique_g, n, 64.0);
    let t_sparse = alltoall_time(&sparse_g, n, 64.0);
    assert!(t_star < t_clique, "star {t_star} vs clique {t_clique}");
    assert!(
        t_clique < t_sparse,
        "clique {t_clique} vs sparse {t_sparse}"
    );
}

#[test]
fn more_bandwidth_hungry_alltoall_separates_topologies_less_by_latency() {
    // with large messages, the clique's extra hops matter less: ratio
    // (sparse/clique) should shrink relative to the tiny-message case
    let n = 64;
    let clique_g = clique(n, 24).unwrap();
    let sparse_g = random_general(n, 16, 8, 3).unwrap();
    let small_ratio = alltoall_time(&sparse_g, n, 64.0) / alltoall_time(&clique_g, n, 64.0);
    let large_ratio = alltoall_time(&sparse_g, n, 1e6) / alltoall_time(&clique_g, n, 1e6);
    assert!(
        large_ratio < small_ratio,
        "large {large_ratio} should be < small {small_ratio}"
    );
}

#[test]
fn npb_runs_on_all_topology_families() {
    let ranks = 64u32;
    let graphs: Vec<(&str, orp::core::HostSwitchGraph)> = vec![
        (
            "torus",
            Torus {
                dim: 3,
                base: 4,
                radix: 8,
            }
            .build_with_hosts(ranks, AttachOrder::Sequential)
            .unwrap(),
        ),
        (
            "dragonfly",
            Dragonfly { a: 4 }
                .build_with_hosts(ranks, AttachOrder::Sequential)
                .unwrap(),
        ),
        (
            "fattree",
            FatTree { k: 8 }
                .build_with_hosts(ranks, AttachOrder::Sequential)
                .unwrap(),
        ),
        ("random", random_general(ranks, 16, 8, 3).unwrap()),
    ];
    for (name, g) in graphs {
        let net = Network::builder(&g).build();
        let results = run_suite(&net, &Benchmark::all(), ranks, 1).unwrap();
        for r in &results {
            assert!(r.time > 0.0, "{name}/{}", r.name);
            assert!(
                r.time < 60.0,
                "{name}/{} absurd simulated time {}",
                r.name,
                r.time
            );
            assert!(r.mops.is_finite() && r.mops > 0.0, "{name}/{}", r.name);
        }
        // EP must be topology-insensitive: its time is dominated by the
        // fixed compute, so all topologies land within a few percent
        let ep = results.iter().find(|r| r.name == "EP").unwrap();
        let ep_compute = 2f64.powi(30) * 25.0 / ranks as f64 / 100e9;
        assert!(
            (ep.time - ep_compute) / ep_compute < 0.05,
            "{name}: EP {} vs pure compute {ep_compute}",
            ep.time
        );
    }
}

#[test]
fn identical_flops_across_topologies() {
    // the Mop/s comparison is only fair if the flop count is invariant
    let ranks = 64u32;
    let a = random_general(ranks, 16, 8, 3).unwrap();
    let b = FatTree { k: 8 }
        .build_with_hosts(ranks, AttachOrder::Sequential)
        .unwrap();
    for bench in Benchmark::all() {
        let net_a = Network::builder(&a).build();
        let net_b = Network::builder(&b).build();
        let ra = run_suite(&net_a, &[bench], ranks, 1).unwrap();
        let rb = run_suite(&net_b, &[bench], ranks, 1).unwrap();
        assert_eq!(ra[0].flops, rb[0].flops, "{}", bench.name());
        assert_eq!(ra[0].flows, rb[0].flows, "{}", bench.name());
    }
}

#[test]
fn contention_slows_shared_links() {
    // two hosts on one switch, two on another, single inter-switch link:
    // four crossing flows share it and take ~4× one flow's time
    let mut g = orp::core::HostSwitchGraph::new(2, 6).unwrap();
    g.add_link(0, 1).unwrap();
    for s in [0u32, 0, 1, 1] {
        g.attach_host(s).unwrap();
    }
    let net = Network::builder(&g).build();
    let bytes = 10e6;
    // hosts 0,1 on switch 0; hosts 2,3 on switch 1
    let progs = ProgramBuilder::build(4, |pb| {
        pb.raw(0, orp::netsim::Op::Send { to: 2, bytes });
        pb.raw(1, orp::netsim::Op::Send { to: 3, bytes });
        pb.raw(
            2,
            orp::netsim::Op::SendRecv {
                to: 0,
                bytes,
                from: 0,
            },
        );
        pb.raw(
            3,
            orp::netsim::Op::SendRecv {
                to: 1,
                bytes,
                from: 1,
            },
        );
        pb.raw(0, orp::netsim::Op::Recv { from: 2 });
        pb.raw(1, orp::netsim::Op::Recv { from: 3 });
    });
    let rep = Simulator::builder(&net).programs(progs).run().unwrap();
    let cfg = net.config();
    let one_flow = bytes / cfg.bandwidth;
    // 2 flows per direction share each unidirectional link: 2× serialization
    assert!(
        rep.time > 2.0 * one_flow,
        "no contention visible: {}",
        rep.time
    );
    assert!(rep.time < 3.0 * one_flow, "too much: {}", rep.time);
}
