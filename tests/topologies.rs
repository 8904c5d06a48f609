//! Cross-crate checks of the conventional topologies: the paper's §6.1
//! parameter formulae, metric sanity, partitioner bandwidth, and layout
//! figures.

use orp::core::metrics::path_metrics;
use orp::layout::evaluate_default;
use orp::partition::{partition, PartitionConfig};
use orp::topo::prelude::*;
use orp_bench::{bandwidth_series, to_cut_graph};

#[test]
fn paper_parameter_table() {
    // §6.3.1: 5-D torus N=3 r=15 → m=243, n ≤ 1215
    let t = Torus::paper_5d();
    assert_eq!(
        (t.num_switches(), t.max_hosts(), t.radix()),
        (243, 1215, 15)
    );
    // §6.3.2: dragonfly a=8 → m=264, r=15, n ≤ 1056
    let d = Dragonfly::paper_a8();
    assert_eq!(
        (d.num_switches(), d.max_hosts(), d.radix()),
        (264, 1056, 15)
    );
    // §6.3.3: 16-ary fat-tree → m=320, r=16, n=1024
    let f = FatTree::paper_16ary();
    assert_eq!(
        (f.num_switches(), f.max_hosts(), f.radix()),
        (320, 1024, 16)
    );
}

#[test]
fn paper_instances_build_and_validate() {
    for (name, g) in [
        (
            "torus",
            Torus::paper_5d()
                .build_with_hosts(1024, AttachOrder::Sequential)
                .unwrap(),
        ),
        (
            "dragonfly",
            Dragonfly::paper_a8()
                .build_with_hosts(1024, AttachOrder::Sequential)
                .unwrap(),
        ),
        (
            "fattree",
            FatTree::paper_16ary()
                .build_with_hosts(1024, AttachOrder::Sequential)
                .unwrap(),
        ),
    ] {
        g.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(g.num_hosts(), 1024, "{name}");
        let m = path_metrics(&g).unwrap();
        assert!(m.haspl > 2.0 && m.haspl < 8.0, "{name}: {}", m.haspl);
    }
}

#[test]
fn topology_haspl_ordering() {
    // at 1024 hosts: dragonfly (diameter 3 fabric) < fat-tree ≈ torus
    let torus = Torus::paper_5d()
        .build_with_hosts(1024, AttachOrder::Sequential)
        .unwrap();
    let df = Dragonfly::paper_a8()
        .build_with_hosts(1024, AttachOrder::Sequential)
        .unwrap();
    let ft = FatTree::paper_16ary()
        .build_with_hosts(1024, AttachOrder::Sequential)
        .unwrap();
    let (ht, hd, hf) = (
        path_metrics(&torus).unwrap().haspl,
        path_metrics(&df).unwrap().haspl,
        path_metrics(&ft).unwrap().haspl,
    );
    assert!(hd < ht, "dragonfly {hd} should beat torus {ht}");
    assert!(hd < hf, "dragonfly {hd} should beat fat-tree {hf}");
}

#[test]
fn fat_tree_has_highest_bisection() {
    // §6.3.3: the fat-tree is built for full bisection bandwidth
    let ft = FatTree { k: 8 }
        .build_with_hosts(128, AttachOrder::Sequential)
        .unwrap();
    let torus = Torus {
        dim: 3,
        base: 4,
        radix: 8,
    }
    .build_with_hosts(128, AttachOrder::Sequential)
    .unwrap();
    let cut_ft = partition(&to_cut_graph(&ft), 2, &PartitionConfig::default()).cut;
    let cut_torus = partition(&to_cut_graph(&torus), 2, &PartitionConfig::default()).cut;
    assert!(
        cut_ft > cut_torus,
        "fat-tree bisection {cut_ft} should exceed torus {cut_torus}"
    );
}

#[test]
fn bandwidth_series_covers_p2_to_16() {
    let g = Dragonfly { a: 4 }
        .build_with_hosts(64, AttachOrder::Sequential)
        .unwrap();
    let s = bandwidth_series(&g, 1);
    assert_eq!(s.first().unwrap().parts, 2);
    assert_eq!(s.last().unwrap().parts, 16);
    assert!(s.iter().all(|c| c.cut > 0 && c.max_part_ratio >= 1.0));
}

#[test]
fn layout_reports_track_switch_counts() {
    let torus = Torus::paper_5d()
        .build_with_hosts(1024, AttachOrder::Sequential)
        .unwrap();
    let df = Dragonfly::paper_a8()
        .build_with_hosts(1024, AttachOrder::Sequential)
        .unwrap();
    let rt = evaluate_default(&torus);
    let rd = evaluate_default(&df);
    assert_eq!(rt.switches, 243);
    assert_eq!(rd.switches, 264);
    // same radix, more switches → more switch cost
    assert!(rd.switch_cost > rt.switch_cost);
    // torus has 5 links/switch fabric (2K=10 ports): 1215 links;
    // dragonfly: 33·C(8,2) + C(33,2) = 924 + 528 = 1452
    assert_eq!(rt.sw_cables, 1215);
    assert_eq!(rd.sw_cables, 1452);
}

#[test]
fn attach_order_changes_placement_not_structure() {
    let t = Torus {
        dim: 2,
        base: 4,
        radix: 8,
    };
    let seq = t.build_with_hosts(40, AttachOrder::Sequential).unwrap();
    let rr = t.build_with_hosts(40, AttachOrder::RoundRobin).unwrap();
    assert_eq!(seq.num_links(), rr.num_links());
    assert_ne!(seq.host_counts(), rr.host_counts());
    // sequential packs: first switches full; round robin spreads
    assert_eq!(seq.host_counts()[0], 4);
    assert!(rr.host_counts().iter().all(|&k| k >= 2));
}
