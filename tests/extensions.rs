//! Integration tests of the beyond-the-paper extensions: exact-solver
//! certification, ODP interop, Slim Fly as an ORP baseline, and
//! placement optimisation.

use orp::core::anneal::SaConfig;
use orp::core::bounds::haspl_lower_bound;
use orp::core::exact::solve_exact;
use orp::core::metrics::path_metrics;
use orp::core::odp;
use orp::core::random_graphs::erdos_renyi;
use orp::core::solver::Solver;
use orp::layout::{evaluate, optimized_floorplan, Floorplan, HardwareModel};
use orp::netsim::network::{NetConfig, Network, RouteMode};
use orp::netsim::packet::{packet_simulate, FlowDemand, DEFAULT_MTU};
use orp::netsim::patterns::Pattern;
use orp::netsim::Simulator;
use orp::topo::prelude::*;

#[test]
fn exact_certifies_theorem2_and_annealer() {
    let (n, r) = (9u32, 5u32);
    let exact = solve_exact(n, r, 4).expect("solvable");
    let lb = haspl_lower_bound(n as u64, r as u64);
    assert!(exact.metrics.haspl >= lb - 1e-9);
    let cfg = SaConfig {
        iters: 3000,
        seed: 1,
        ..Default::default()
    };
    let sa = Solver::builder(n, r)
        .config(cfg)
        .run()
        .expect("feasible")
        .result;
    assert!(
        sa.metrics.haspl >= exact.metrics.haspl - 1e-9,
        "SA beat exhaustive search?!"
    );
}

#[test]
fn annealed_solution_scores_well_on_odp_metrics() {
    let cfg = SaConfig {
        iters: 3000,
        seed: 2,
        ..Default::default()
    };
    let res = Solver::builder(256, 12)
        .config(cfg)
        .run()
        .expect("feasible")
        .result;
    let sc = odp::score(&res.graph).expect("connected fabric");
    // the switch fabric of a good ORP solution has a modest ASPL gap
    assert!(sc.aspl_gap >= 0.0);
    assert!(sc.aspl_gap < 0.6, "gap {} looks unconverged", sc.aspl_gap);
    assert!(sc.degree <= 12);
}

#[test]
fn odp_edge_list_reimports_into_orp_pipeline() {
    let cfg = SaConfig {
        iters: 800,
        seed: 3,
        ..Default::default()
    };
    let res = Solver::builder(64, 10)
        .config(cfg)
        .run()
        .expect("feasible")
        .result;
    let fabric_text = odp::to_edge_list(&res.graph);
    let fabric = odp::from_edge_list(&fabric_text, 10).expect("parses");
    let rehosted = odp::into_host_switch(fabric, 64).expect("fits");
    let pm = path_metrics(&rehosted).expect("connected");
    assert!(pm.haspl >= haspl_lower_bound(64, 10) - 1e-9);
}

#[test]
fn slim_fly_is_a_strong_conventional_baseline() {
    // at matched (n, r): slim fly q=5 balanced (r=11) vs annealed ORP
    let sf = SlimFly::balanced(5);
    let n = 128;
    let g = sf
        .build_with_hosts(n, AttachOrder::RoundRobin)
        .expect("fits");
    let h_sf = path_metrics(&g).unwrap().haspl;
    let cfg = SaConfig {
        iters: 4000,
        seed: 5,
        ..Default::default()
    };
    let res = Solver::builder(n, sf.radix)
        .config(cfg)
        .run()
        .expect("feasible")
        .result;
    // ORP with free m should at least match a diameter-2 MMS fabric with
    // its host count — and slim fly itself must beat a same-budget ER
    let h_orp = res.metrics.haspl;
    assert!(h_orp <= h_sf + 0.15, "ORP {h_orp} vs slim fly {h_sf}");
    let er = erdos_renyi(n, sf.num_switches(), sf.radix, 5).expect("constructible");
    let h_er = path_metrics(&er).unwrap().haspl;
    assert!(h_sf <= h_er + 0.05, "slim fly {h_sf} vs ER {h_er}");
}

#[test]
fn ecmp_never_slower_than_single_path_on_fat_tree_alltoall() {
    let ft = FatTree { k: 8 }
        .build_with_hosts(128, AttachOrder::Sequential)
        .unwrap();
    let mk = |mode| {
        let net = Network::builder(&ft)
            .config(NetConfig {
                route_mode: mode,
                ..Default::default()
            })
            .build();
        let mut b = orp::netsim::mpi::ProgramBuilder::new(128);
        b.alltoall(64.0 * 1024.0);
        Simulator::builder(&net)
            .programs(b.build())
            .run()
            .unwrap()
            .time
    };
    let single = mk(RouteMode::SinglePath);
    let ecmp = mk(RouteMode::Ecmp);
    assert!(ecmp <= single * 1.02, "ecmp {ecmp} vs single {single}");
}

#[test]
fn packet_model_confirms_fluid_contention_factor() {
    // dumbbell with 4+4 hosts: 4 crossing flows share one link; both
    // models must report ≈4× a single flow's bandwidth term
    let mut g = orp::core::HostSwitchGraph::new(2, 6).unwrap();
    g.add_link(0, 1).unwrap();
    for s in [0u32, 0, 1, 1] {
        g.attach_host(s).unwrap();
    }
    let net = Network::builder(&g).build();
    let bytes = 256.0 * DEFAULT_MTU;
    let demands: Vec<FlowDemand> = vec![
        FlowDemand {
            src: 0,
            dst: 2,
            bytes,
        },
        FlowDemand {
            src: 1,
            dst: 3,
            bytes,
        },
    ];
    let pkt = packet_simulate(&net, &demands, DEFAULT_MTU).unwrap();
    let one = bytes / net.config().bandwidth;
    assert!(
        pkt.makespan > 2.0 * one && pkt.makespan < 2.3 * one,
        "{}",
        pkt.makespan
    );
}

#[test]
fn placement_reduces_cost_for_the_annealed_topology() {
    let cfg = SaConfig {
        iters: 2000,
        seed: 7,
        ..Default::default()
    };
    let res = Solver::builder(256, 12)
        .config(cfg)
        .run()
        .expect("feasible")
        .result;
    let hw = HardwareModel::default();
    let naive = evaluate(&res.graph, &Floorplan::new(&res.graph, 4), &hw);
    let opt = evaluate(&res.graph, &optimized_floorplan(&res.graph, 4, 1), &hw);
    assert!(opt.cable_cost <= naive.cable_cost * 1.01);
    assert_eq!(opt.switches, naive.switches);
}

#[test]
fn patterns_expose_topology_differences() {
    // transpose should hit a torus harder than a slim fly of similar size
    let torus = Torus {
        dim: 2,
        base: 8,
        radix: 8,
    }
    .build_with_hosts(64, AttachOrder::Sequential)
    .unwrap();
    let sf = SlimFly { q: 5, radix: 9 }
        .build_with_hosts(64, AttachOrder::RoundRobin)
        .unwrap();
    let run = |g: &orp::core::HostSwitchGraph| {
        let net = Network::builder(g).build();
        Simulator::builder(&net)
            .programs(Pattern::Transpose.programs(64, 32.0 * 1024.0, 1, 3))
            .run()
            .unwrap()
            .time
    };
    assert!(run(&sf) < run(&torus), "slim fly should win transpose");
}
