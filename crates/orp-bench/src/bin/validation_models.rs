//! Model validation: the fluid (max-min fair) simulator versus the
//! packet-level store-and-forward simulator on synthetic permutation
//! traffic across the paper's topologies.
//!
//! The evaluation's conclusions only need the *ordering* of topologies
//! to be trustworthy; this binary reports, per traffic pattern, the
//! makespan of each topology under both models and whether the rankings
//! agree.

use orp_bench::{proposed_sketch, write_json, Effort};
use orp_core::graph::HostSwitchGraph;
use orp_netsim::network::Network;
use orp_netsim::packet::{packet_simulate_pattern, DEFAULT_MTU};
use orp_netsim::patterns::Pattern;
use orp_netsim::Simulator;
use orp_obs::{Recorder, StreamSink};
use orp_topo::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    topology: String,
    pattern: String,
    fluid_s: f64,
    packet_s: f64,
}

fn main() {
    let effort = Effort::from_env();
    let n = 256u32;
    let bytes = 32.0 * DEFAULT_MTU;
    let topos: Vec<(String, HostSwitchGraph)> = vec![
        (
            "torus 3D".into(),
            Torus {
                dim: 3,
                base: 4,
                radix: 10,
            }
            .build_with_hosts(n, AttachOrder::Sequential)
            .expect("fits"),
        ),
        (
            "dragonfly a=6".into(),
            Dragonfly { a: 6 }
                .build_with_hosts(n, AttachOrder::Sequential)
                .expect("fits"),
        ),
        (
            "fat-tree K=12".into(),
            FatTree { k: 12 }
                .build_with_hosts(n, AttachOrder::Sequential)
                .expect("fits"),
        ),
        (
            "proposed".into(),
            proposed_sketch(n, 11, effort.seed).expect("constructible"),
        ),
    ];
    let mut cells = Vec::new();
    let mut agreements = 0;
    let mut total = 0;
    for pattern in Pattern::all() {
        println!("\npattern: {}", pattern.name());
        println!(
            "{:<16} {:>12} {:>12}",
            "topology", "fluid (ms)", "packet (ms)"
        );
        let mut fluid_rank = Vec::new();
        let mut packet_rank = Vec::new();
        for (name, g) in &topos {
            let net = Network::builder(g).build();
            let fl = Simulator::builder(&net)
                .programs(pattern.programs(n, bytes, 1, effort.seed))
                .run()
                .unwrap()
                .time;
            let pk = packet_simulate_pattern(&net, pattern, bytes, effort.seed)
                .unwrap()
                .makespan;
            println!("{name:<16} {:>12.4} {:>12.4}", fl * 1e3, pk * 1e3);
            fluid_rank.push((name.clone(), fl));
            packet_rank.push((name.clone(), pk));
            cells.push(Cell {
                topology: name.clone(),
                pattern: pattern.name().into(),
                fluid_s: fl,
                packet_s: pk,
            });
        }
        fluid_rank.sort_by(|a, b| a.1.total_cmp(&b.1));
        packet_rank.sort_by(|a, b| a.1.total_cmp(&b.1));
        let same_winner = fluid_rank[0].0 == packet_rank[0].0;
        total += 1;
        if same_winner {
            agreements += 1;
        }
        println!(
            "winner: fluid = {}, packet = {} ({})",
            fluid_rank[0].0,
            packet_rank[0].0,
            if same_winner { "agree" } else { "DISAGREE" }
        );
    }
    println!("\nwinner agreement: {agreements}/{total} patterns");
    let path = write_json("validation_models", &cells);
    println!("wrote {}", path.display());

    // recorded fluid run of the first topology under uniform-permutation
    // traffic, exported as a metrics stream for inspection
    let rec = Recorder::enabled();
    let (_, g) = &topos[0];
    let traced = Network::builder(g).recorder(rec.clone()).build();
    Simulator::builder(&traced)
        .programs(Pattern::UniformPermutation.programs(n, bytes, 1, effort.seed))
        .run()
        .unwrap();
    let path = "results/TRACE_validation_uniform.jsonl";
    StreamSink::create(path)
        .expect("create trace")
        .finish(&rec, || ());
    eprintln!("wrote {path}");
}
