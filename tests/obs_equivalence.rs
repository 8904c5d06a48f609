//! Property tests of the observability layer's core contract: attaching
//! a recording [`Recorder`] never changes what the solver or simulator
//! computes, and the builder-style entry points are deterministic —
//! rebuilding a network or rerunning a simulation from the same inputs
//! reproduces every decision bit-for-bit.

use orp::core::anneal::{Anneal, MoveKind, SaConfig};
use orp::core::construct::random_general;
use orp::netsim::patterns::Pattern;
use orp::netsim::{FaultEvent, NetFault, Network, SharingMode, Simulator};
use orp::obs::Recorder;
use proptest::prelude::*;

/// Strategy: a feasible random (n, m, r, seed) instance.
fn instance() -> impl Strategy<Value = (u32, u32, u32, u64)> {
    (2u32..8, 6u32..14, any::<u64>()).prop_map(|(m, r, seed)| {
        let max_hosts = m * (r - 2);
        let n = (max_hosts / 2).max(2);
        (n, m, r, seed)
    })
}

fn sa_cfg(seed: u64) -> SaConfig {
    SaConfig::builder()
        .iters(400)
        .seed(seed)
        .eval_workers(1)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recording_anneal_is_bit_identical((n, m, r, seed) in instance()) {
        let start = random_general(n, m, r, seed).unwrap();
        let plain = Anneal::builder(start.clone())
            .config(sa_cfg(seed))
            .run()
            .unwrap();
        let rec = Recorder::enabled();
        let traced = Anneal::builder(start)
            .config(sa_cfg(seed))
            .recorder(rec.clone())
            .run()
            .unwrap();
        prop_assert_eq!(plain.graph, traced.graph);
        prop_assert_eq!(plain.metrics.haspl, traced.metrics.haspl);
        prop_assert_eq!(plain.proposed, traced.proposed);
        prop_assert_eq!(plain.accepted, traced.accepted);
        // and the recorder actually saw the run
        let snap = rec.snapshot().unwrap();
        prop_assert_eq!(snap.counter("anneal.proposed"), Some(traced.proposed as u64));
    }

    #[test]
    fn recording_simulation_is_bit_identical((n, m, r, seed) in instance()) {
        // the telemetry-never-perturbs contract must hold under every
        // throughput-sharing model, including the event-cancelling
        // approximate one
        for mode in [SharingMode::ExactMaxMin, SharingMode::ApproxFair] {
            let g = random_general(n, m, r, seed).unwrap();
            let programs = Pattern::NearestNeighbor.programs(n, 1e5, 1, seed);
            let plain_net = Network::builder(&g).build();
            let plain = Simulator::builder(&plain_net)
                .programs(programs.clone())
                .sharing(mode)
                .run()
                .unwrap();
            let rec = Recorder::enabled();
            let traced_net = Network::builder(&g).recorder(rec.clone()).build();
            let traced = Simulator::builder(&traced_net)
                .programs(programs)
                .sharing(mode)
                .run()
                .unwrap();
            prop_assert_eq!(plain.time, traced.time);
            prop_assert_eq!(plain.flows, traced.flows);
            prop_assert_eq!(plain.bytes, traced.bytes);
            prop_assert_eq!(plain.peak_flows, traced.peak_flows);
            prop_assert_eq!(plain.flops, traced.flops);
            // the event-queue core is part of the bit-identity surface
            prop_assert_eq!(plain.events, traced.events);
            prop_assert_eq!(plain.events_cancelled, traced.events_cancelled);
            prop_assert_eq!(plain.peak_queue_depth, traced.peak_queue_depth);
            let snap = rec.snapshot().unwrap();
            prop_assert_eq!(snap.counter("sim.flows"), Some(traced.flows));
            prop_assert_eq!(snap.counter("events.processed"), Some(traced.events));
            prop_assert_eq!(
                snap.counter("events.cancelled"),
                Some(traced.events_cancelled)
            );
            prop_assert!(snap.histogram("sim.event_queue_depth").is_some());
            // the analysis events cover the whole run: one completion record
            // per flow, one load record per used link, one end-of-run mark
            prop_assert_eq!(snap.event_count("flow.done") as u64, traced.flows);
            prop_assert_eq!(
                Some(snap.event_count("link.load") as u64),
                snap.counter("sim.links_used")
            );
            prop_assert_eq!(snap.event_count("sim.completed"), 1);
        }
    }

    #[test]
    fn network_builder_is_deterministic((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let a = Network::builder(&g).config(orp::netsim::NetConfig::default()).build();
        let b = Network::builder(&g).build();
        prop_assert_eq!(a.num_hosts(), b.num_hosts());
        prop_assert_eq!(a.num_links(), b.num_links());
        // identical routing decisions for every host pair
        for s in 0..n.min(6) {
            for d in 0..n.min(6) {
                if s == d { continue; }
                prop_assert_eq!(a.route(s, d, seed).ok(), b.route(s, d, seed).ok());
            }
        }
    }

    #[test]
    fn simulation_reruns_are_bit_identical((n, m, r, seed) in instance()) {
        let g = random_general(n, m, r, seed).unwrap();
        let net = Network::builder(&g).build();
        let programs = Pattern::NearestNeighbor.programs(n, 1e5, 1, seed);
        let run = || Simulator::builder(&net).programs(programs.clone()).run().unwrap();
        let (first, again) = (run(), run());
        prop_assert_eq!(first.time, again.time);
        prop_assert_eq!(first.flows, again.flows);
        prop_assert_eq!(first.bytes, again.bytes);
        prop_assert_eq!(first.events, again.events);

        // with a fault schedule: rerun must reproduce the same outcome,
        // success or failure
        let s = g.switch_of(0);
        let t = g.neighbors(s)[0];
        let fault = [FaultEvent {
            time: first.time / 2.0,
            fault: NetFault::Link(s, t),
        }];
        let faulted = || Simulator::builder(&net)
            .programs(programs.clone())
            .fault_schedule(&fault)
            .run();
        match (faulted(), faulted()) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.time, b.time);
                prop_assert_eq!(a.flows, b.flows);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn sa_config_builder_matches_struct_literal(iters in 1usize..5000, seed in any::<u64>()) {
        let built = SaConfig::builder().iters(iters).seed(seed).build();
        let literal = SaConfig { iters, seed, ..Default::default() };
        prop_assert_eq!(built, literal);
    }
}

/// The recorder also stays inert across move kinds (swap annealing uses
/// a different proposal path than the default 2-neighbor swing).
#[test]
fn recording_swap_anneal_is_identical() {
    // swap moves need a regular graph: n divisible by m
    let start = random_general(12, 4, 8, 9).unwrap();
    let cfg = SaConfig::builder()
        .iters(300)
        .seed(9)
        .eval_workers(1)
        .build();
    let plain = Anneal::builder(start.clone())
        .kind(MoveKind::Swap)
        .config(cfg.clone())
        .run()
        .unwrap();
    let traced = Anneal::builder(start)
        .kind(MoveKind::Swap)
        .config(cfg)
        .recorder(Recorder::enabled())
        .run()
        .unwrap();
    assert_eq!(plain.graph, traced.graph);
    assert_eq!(plain.accepted, traced.accepted);
}
