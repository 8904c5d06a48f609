//! Open-loop scale scenario for the event-queue simulation core, up to
//! one million concurrent flows under the approximate fair-sharing model
//! (the exact max-min model refills the connected flow groups a change
//! touches, which at this density is most of the network, and is
//! quadratic at this scale — the whole point of the pluggable model).
//!
//! Writes `results/BENCH_eventsim.json` with one row per flow count:
//! makespan, event-queue throughput (events/sec of wall time), peak
//! queue depth, compaction counters, the cancellation (tombstone)
//! ratio, and the process peak RSS. Knobs:
//!
//! * `ORP_EVENTSIM_FLOWS` — comma-separated injected flow counts
//!   (default `120000,1000000`).
//! * `ORP_EVENTSIM_HOSTS` — fabric size (default 256 hosts; switches
//!   and radix scale with it).
//! * `ORP_EVENTSIM_SEED` — workload RNG seed (default 42).
//! * `ORP_EVENTSIM_BUDGET_S` — wall-clock budget in seconds per row;
//!   the run fails if simulation exceeds it (default 300, CI smoke
//!   uses less).

use orp_bench::write_json;
use orp_core::construct::random_general;
use orp_netsim::network::Network;
use orp_netsim::{InjectedFlow, SharingMode, Simulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Row {
    injected_flows: usize,
    /// Peak simultaneously streaming flows (the scale acceptance bar).
    peak_concurrent_flows: usize,
    sim_time_s: f64,
    wall_time_s: f64,
    events_processed: u64,
    events_cancelled: u64,
    events_per_sec: f64,
    peak_queue_depth: usize,
    /// Heap keys reclaimed by queue + sharing-model compaction.
    events_compacted: u64,
    /// Cancelled share of all scheduled events — every cancellation is
    /// a lazy tombstone until compaction or a stale pop reclaims it.
    tombstone_ratio: f64,
    /// Process peak RSS (`VmHWM`) after this row, in bytes; 0 when the
    /// platform doesn't expose it. Monotone across rows — run the
    /// largest scenario last for a meaningful reading.
    peak_rss_bytes: u64,
}

#[derive(Debug, Serialize)]
struct EventSimBench {
    sharing: String,
    hosts: u32,
    switches: u32,
    seed: u64,
    rows: Vec<Row>,
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name}: bad entry {s:?}"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_bytes() -> u64 {
    0
}

fn main() {
    let flow_counts = env_list("ORP_EVENTSIM_FLOWS", &[120_000, 1_000_000]);
    let hosts: u32 = env_num("ORP_EVENTSIM_HOSTS", 256);
    let seed: u64 = env_num("ORP_EVENTSIM_SEED", 42);
    let budget_s: f64 = env_num("ORP_EVENTSIM_BUDGET_S", 300.0);

    // switch count and radix scale with the fabric so the topology
    // stays feasible at any ORP_EVENTSIM_HOSTS
    let switches = (hosts / 4).max(2);
    let radix = 8 + hosts / 32;
    let g = random_general(hosts, switches, radix, 7).expect("feasible fabric");
    let net = Network::builder(&g).build();

    let mut rows = Vec::new();
    for &n_flows in &flow_counts {
        // all flows released within 1 ms; a 1 MB flow needs ≥0.2 ms solo
        // and far longer under this contention, so nearly all stream at
        // once
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let flows: Vec<InjectedFlow> = (0..n_flows)
            .map(|_| {
                let src = rng.gen_range(0..hosts);
                let mut dst = rng.gen_range(0..hosts);
                while dst == src {
                    dst = rng.gen_range(0..hosts);
                }
                InjectedFlow {
                    at: rng.gen_range(0u32..1_000_000) as f64 * 1e-9,
                    src,
                    dst,
                    bytes: 1e6,
                }
            })
            .collect();

        let start = Instant::now();
        let rep = Simulator::builder(&net)
            .inject(&flows)
            .sharing(SharingMode::ApproxFair)
            .run()
            .expect("open-loop run completes");
        let wall = start.elapsed().as_secs_f64();
        let scheduled = rep.events + rep.events_cancelled;
        let row = Row {
            injected_flows: n_flows,
            peak_concurrent_flows: rep.peak_flows,
            sim_time_s: rep.time,
            wall_time_s: wall,
            events_processed: rep.events,
            events_cancelled: rep.events_cancelled,
            events_per_sec: rep.events as f64 / wall.max(1e-9),
            peak_queue_depth: rep.peak_queue_depth,
            events_compacted: rep.events_compacted + rep.model_compacted,
            tombstone_ratio: rep.events_cancelled as f64 / (scheduled as f64).max(1.0),
            peak_rss_bytes: peak_rss_bytes(),
        };
        println!(
            "eventsim: {} flows (peak {} concurrent) in {:.2}s wall — \
             {:.0} events/s, peak queue depth {}, {} compacted \
             (tombstone ratio {:.3}), peak RSS {} MiB, simulated {:.4}s",
            row.injected_flows,
            row.peak_concurrent_flows,
            row.wall_time_s,
            row.events_per_sec,
            row.peak_queue_depth,
            row.events_compacted,
            row.tombstone_ratio,
            row.peak_rss_bytes >> 20,
            row.sim_time_s
        );
        assert_eq!(rep.flows as usize, n_flows, "every injected flow ran");
        if n_flows >= 100_000 {
            assert!(
                row.peak_concurrent_flows >= 100_000,
                "scenario must reach 100k concurrent flows (peak {})",
                row.peak_concurrent_flows
            );
        }
        if n_flows >= 10_000 {
            // the workload is cancel-heavy by construction: lazy
            // tombstones must actually be reclaimed, not accumulated
            assert!(
                row.events_compacted > 0,
                "cancel-heavy run must compact ({} cancelled)",
                rep.events_cancelled
            );
        }
        assert!(
            wall <= budget_s,
            "wall-clock budget exceeded: {wall:.1}s > {budget_s}s"
        );
        rows.push(row);
    }

    let bench = EventSimBench {
        sharing: SharingMode::ApproxFair.name().into(),
        hosts,
        switches,
        seed,
        rows,
    };
    let path = write_json("BENCH_eventsim", &bench);
    println!("wrote {}", path.display());
}
