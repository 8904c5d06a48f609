//! # orp-bench — the figure job and the measurement bins
//!
//! The `figures` bin regenerates every figure of the paper's evaluation
//! (Figs. 5–11), the ablations, the baselines and the telemetry
//! artifacts in one run: `figures --budget smoke|recorded <artifact>...|all`.
//! A budget is one constant row (proposals, NPB iterations, seed, fault
//! grid); within a run each topology is solved once and each (fabric,
//! routing, kernel) simulated once, every reported topology passes
//! [`check_topology`] before an artifact is written, and every artifact
//! carries its provenance.
//!
//! This library holds what the bins and the tests share: the
//! partitioner view of a host-switch graph and the bandwidth series of
//! panels (b), the topology oracles, where a mid-run fault hurts a
//! recorded run, and the atomic artifact writer.
//!
//! Performance has one harness, the `perf_ledger` bin (its own
//! README). Two measurement bins cover what it does not run:
//! `ckpt_overhead` (checkpoint cost) and `eventsim_scale` (the
//! simulator at 120k and 1M concurrent open-loop flows).

#![warn(missing_docs)]

use orp_core::bounds::{diameter_lower_bound, haspl_lower_bound};
use orp_core::graph::HostSwitchGraph;
use orp_core::metrics::{path_metrics, PathMetrics};
use orp_netsim::NetFault;
use orp_obs::{Event, Snapshot};
use orp_partition::{partition, Graph as CutGraph, PartitionConfig};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// Converts a host-switch graph into the partitioner's format over
/// `V = H ∪ S` (hosts first), unit weights — the §6.2.2 setup.
pub fn to_cut_graph(g: &HostSwitchGraph) -> CutGraph {
    let n = g.num_hosts();
    let m = g.num_switches();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n as usize + g.num_links());
    for h in 0..n {
        edges.push((h, n + g.switch_of(h)));
    }
    for (a, b) in g.links() {
        edges.push((n + a, n + b));
    }
    CutGraph::from_edges((n + m) as usize, &edges)
}

/// One point of a panel (b) series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CutPoint {
    /// Number of parts `P`.
    pub parts: usize,
    /// Edge cut of the best of the attempts.
    pub cut: u64,
    /// That partition's heaviest part over the ideal weight total/P;
    /// the partitioner promises at most `1 + eps`.
    pub max_part_ratio: f64,
}

/// The bandwidth series of panels (b): edge cut for `P = 2..=16` parts.
///
/// The partitioner is a randomized heuristic and the cut is a
/// minimisation target, so each point takes the best of three seeds —
/// this is what stabilises the panel across runs (METIS does the same
/// internally via multiple initial partitions).
pub fn bandwidth_series(g: &HostSwitchGraph, seed: u64) -> Vec<CutPoint> {
    let cg = to_cut_graph(g);
    (2..=16usize)
        .map(|parts| {
            (0..3u64)
                .map(|i| {
                    let cfg = PartitionConfig {
                        seed: seed.wrapping_add(i.wrapping_mul(0x9e37)),
                        ..Default::default()
                    };
                    let p = partition(&cg, parts, &cfg);
                    let total: u64 = p.part_weights.iter().sum();
                    let heaviest = p.part_weights.iter().copied().max().unwrap_or(0);
                    CutPoint {
                        parts,
                        cut: p.cut,
                        max_part_ratio: heaviest as f64 * parts as f64 / total.max(1) as f64,
                    }
                })
                .min_by_key(|c| c.cut)
                .expect("three attempts")
        })
        .collect()
}

/// The independent oracles every topology an artifact reports must
/// pass: the graph invariants (`validate`), a from-scratch re-score
/// that reproduces `reported` bit for bit, and Theorems 1 and 2 at the
/// graph's own `(n, r)`.
pub fn check_topology(g: &HostSwitchGraph, reported: &PathMetrics) -> Result<(), String> {
    g.validate().map_err(|e| format!("invalid graph: {e}"))?;
    let rescore = path_metrics(g).ok_or("the graph is disconnected")?;
    if rescore.haspl.to_bits() != reported.haspl.to_bits()
        || rescore.diameter != reported.diameter
        || rescore.total_length != reported.total_length
    {
        return Err(format!("re-score {rescore:?} != reported {reported:?}"));
    }
    let (n, r) = (u64::from(g.num_hosts()), u64::from(g.radix()));
    if rescore.haspl < haspl_lower_bound(n, r) {
        return Err(format!(
            "h-ASPL {} below the Theorem 2 bound",
            rescore.haspl
        ));
    }
    if rescore.diameter < diameter_lower_bound(n, r) {
        return Err(format!(
            "diameter {} below the Theorem 1 bound",
            rescore.diameter
        ));
    }
    Ok(())
}

/// Where a fault hurts the run that `snap` recorded: midway through
/// the first longest-lasting stretch with the most flows crossing the
/// fabric in flight, the fabric link most of those flows cross and the
/// hostless switch most of them cross (when one is crossed), so that a
/// death re-routes much of the traffic without killing a rank. The
/// link comes first. `snap` must journal the whole run (every
/// `flow.done` and `flow.hop`).
pub fn fault_targets(g: &HostSwitchGraph, snap: &Snapshot) -> (f64, Vec<NetFault>) {
    assert_eq!(snap.dropped_events, 0, "the journal holds the whole run");
    let mut life = HashMap::new();
    let mut hops: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
    for e in &snap.events {
        match e.event {
            Event::FlowDone {
                id,
                created,
                completed,
                ..
            } => {
                life.insert(id, (created, completed));
            }
            Event::Hop { flow, from, to, .. } => hops.entry(flow).or_default().push((from, to)),
            _ => {}
        }
    }
    // sweep the lifetimes of the flows that cross the fabric, ends
    // before starts at equal times
    let mut edges: Vec<(f64, i32)> = hops
        .keys()
        .flat_map(|id| {
            let (c, d) = life[id];
            [(c, 1), (d, -1)]
        })
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut now, mut best, mut at) = (0, (0, 0.0), 0.0);
    for w in edges.windows(2) {
        now += w[0].1;
        let stretch = (now, w[1].0 - w[0].0);
        if stretch.0 > best.0 || (stretch.0 == best.0 && stretch.1 > best.1) {
            (best, at) = (stretch, (w[0].0 + w[1].0) / 2.0);
        }
    }
    let mut links: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let mut switches: BTreeMap<u32, u32> = BTreeMap::new();
    for (id, route) in &hops {
        let (c, d) = life[id];
        if !(c <= at && at < d) {
            continue;
        }
        for &(a, b) in route {
            *links.entry((a, b)).or_default() += 1;
            if g.host_count(b) == 0 {
                *switches.entry(b).or_default() += 1;
            }
        }
    }
    let mut faults = vec![];
    faults.extend(busiest(&links).map(|(a, b)| NetFault::Link(a, b)));
    faults.extend(busiest(&switches).map(NetFault::Switch));
    (at, faults)
}

/// The key crossed most often (the lowest such).
fn busiest<K: Copy + Ord>(uses: &BTreeMap<K, u32>) -> Option<K> {
    let (&k, _) = uses.iter().max_by_key(|(&k, &v)| (v, Reverse(k)))?;
    Some(k)
}

/// Writes a JSON artifact under `results/` (created on demand), and
/// returns the path. The write is atomic (sibling temp file + rename)
/// so a crash mid-write never leaves a truncated artifact behind.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    orp_core::ckpt::atomic_write(
        &path,
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
    .expect("write artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::construct::random_general;

    #[test]
    fn cut_graph_has_host_and_switch_edges() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let cg = to_cut_graph(&g);
        assert_eq!(cg.len(), 20);
        assert_eq!(cg.num_edges(), 16 + g.num_links());
    }

    #[test]
    fn bandwidth_series_is_monotone_ish() {
        let g = random_general(32, 8, 10, 1).unwrap();
        let s = bandwidth_series(&g, 1);
        assert_eq!(s.len(), 15);
        assert_eq!(s[0].parts, 2);
        assert!(s.last().unwrap().cut >= s[0].cut);
        assert!(s.iter().all(|c| c.max_part_ratio >= 1.0));
    }
}
