//! Host-to-host metrics: h-ASPL and diameter (Section 3.2).
//!
//! Every host hangs off exactly one switch, so for hosts `x`, `y` attached
//! to switches `a ≠ b`, `ℓ(x,y) = d(a,b) + 2` where `d` is the hop distance
//! in the switch graph, and `ℓ(x,y) = 2` when `a = b`. The h-ASPL is
//! therefore computable from a switch-level APSP weighted by the number of
//! hosts per switch — `O(m·(m + L))` with `L` switch links, independent of
//! `n`.

use crate::graph::HostSwitchGraph;

/// Compressed sparse row view of the switch graph, the workhorse for the
/// BFS sweeps. Rebuild after structural mutations.
#[derive(Debug, Clone)]
pub struct SwitchCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl SwitchCsr {
    /// Builds the CSR adjacency from a host-switch graph.
    pub fn from_graph(g: &HostSwitchGraph) -> Self {
        let m = g.num_switches() as usize;
        let mut offsets = Vec::with_capacity(m + 1);
        let mut targets = Vec::with_capacity(2 * g.num_links());
        offsets.push(0);
        for s in 0..m as u32 {
            targets.extend_from_slice(g.neighbors(s));
            offsets.push(targets.len() as u32);
        }
        Self { offsets, targets }
    }

    /// Number of switches.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no switches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours of switch `s`.
    #[inline]
    pub fn neighbors(&self, s: u32) -> &[u32] {
        &self.targets[self.offsets[s as usize] as usize..self.offsets[s as usize + 1] as usize]
    }

    /// Single-source BFS writing hop counts into `dist` (`u32::MAX` =
    /// unreachable). `queue` is caller-provided scratch; both are resized
    /// as needed.
    pub fn bfs(&self, src: u32, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
        let m = self.len();
        dist.clear();
        dist.resize(m, u32::MAX);
        queue.clear();
        dist[src as usize] = 0;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[u as usize];
            for &v in self.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push(v);
                }
            }
        }
    }
}

/// Result of a full h-ASPL / diameter evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMetrics {
    /// Host-to-host average shortest path length `A(G)`.
    pub haspl: f64,
    /// Host-to-host diameter `D(G)`.
    pub diameter: u32,
    /// Sum of `ℓ(h_i, h_j)` over unordered host pairs.
    pub total_length: u64,
}

/// Shared metric accounting for every evaluator (the source-at-a-time
/// oracle here and the batched/incremental engine in
/// [`crate::search::SearchState`]): halves the ordered inter-switch sum,
/// adds the intra-switch `k(k−1)/2` pairs at length 2, and divides by the
/// host-pair count.
pub(crate) fn finalize_metrics(
    n: u64,
    counts: &[u32],
    inter_ordered_sum: u64,
    max_inter_dist: u32,
    any_pair_seen: bool,
) -> PathMetrics {
    // Unordered inter-switch pairs were each counted twice.
    let mut total = inter_ordered_sum / 2;
    let mut diameter = if any_pair_seen { max_inter_dist + 2 } else { 0 };
    // Intra-switch pairs: both endpoints on the same switch, ℓ = 2.
    for &k in counts {
        let k = k as u64;
        if k >= 2 {
            total += k * (k - 1) / 2 * 2;
            diameter = diameter.max(2);
        }
    }
    let pairs = n * (n - 1) / 2;
    PathMetrics {
        haspl: total as f64 / pairs as f64,
        diameter,
        total_length: total,
    }
}

/// Computes h-ASPL and diameter; `None` if some host pair is unreachable
/// or `n < 2`.
pub fn path_metrics(g: &HostSwitchGraph) -> Option<PathMetrics> {
    let csr = SwitchCsr::from_graph(g);
    let counts = g.host_counts();
    path_metrics_with(&csr, &counts, g.num_hosts())
}

/// As [`path_metrics`] but reusing a prebuilt CSR and host counts.
///
/// Superseded as the annealer's hot path by
/// [`crate::search::SearchState::evaluate`], which keeps the CSR and
/// counts incrementally consistent and scores with a batched BFS; this
/// source-at-a-time version remains the reference implementation the
/// engine is equivalence-tested against.
pub fn path_metrics_with(csr: &SwitchCsr, counts: &[u32], n: u32) -> Option<PathMetrics> {
    if n < 2 {
        return None;
    }
    let mut dist = Vec::new();
    let mut queue = Vec::new();
    let mut ordered_sum = 0u64;
    let mut max_d = 0u32;
    let mut any = false;
    for a in 0..csr.len() as u32 {
        let ka = counts[a as usize] as u64;
        if ka == 0 {
            continue;
        }
        csr.bfs(a, &mut dist, &mut queue);
        for (b, (&d, &kb)) in dist.iter().zip(counts).enumerate() {
            if kb == 0 || b as u32 == a {
                continue;
            }
            if d == u32::MAX {
                return None;
            }
            ordered_sum += ka * kb as u64 * (d as u64 + 2);
            max_d = max_d.max(d);
            any = true;
        }
    }
    Some(finalize_metrics(n as u64, counts, ordered_sum, max_d, any))
}

/// h-ASPL of a regular host-switch graph from the ASPL of its switch
/// graph — Equation (1) of the paper:
/// `A(G) = A(G')·(mn − n)/(mn − m) + 2`.
pub fn haspl_from_switch_aspl(switch_aspl: f64, n: u32, m: u32) -> f64 {
    let (n, m) = (n as f64, m as f64);
    switch_aspl * (m * n - n) / (m * n - m) + 2.0
}

/// Average shortest path length of the *switch* graph alone (ignoring
/// hosts); `None` if disconnected or `m < 2`.
pub fn switch_aspl(g: &HostSwitchGraph) -> Option<f64> {
    let csr = SwitchCsr::from_graph(g);
    let m = csr.len();
    if m < 2 {
        return None;
    }
    let mut dist = Vec::new();
    let mut queue = Vec::new();
    let mut sum = 0u64;
    for a in 0..m as u32 {
        csr.bfs(a, &mut dist, &mut queue);
        for (b, &d) in dist.iter().enumerate() {
            if b as u32 == a {
                continue;
            }
            if d == u32::MAX {
                return None;
            }
            sum += d as u64;
        }
    }
    Some(sum as f64 / (m * (m - 1)) as f64)
}

/// Distances from one host to every other host (`ℓ(h_s, ·)`), mostly for
/// tests and single-source inspection. `u32::MAX` marks unreachable hosts.
pub fn host_distances(g: &HostSwitchGraph, from: u32) -> Vec<u32> {
    let src_sw = g.switch_of(from);
    let d = g.switch_distances(src_sw);
    (0..g.num_hosts())
        .map(|h| {
            if h == from {
                0
            } else {
                let sw = g.switch_of(h);
                if sw == src_sw {
                    2
                } else if d[sw as usize] == u32::MAX {
                    u32::MAX
                } else {
                    d[sw as usize] + 2
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HostSwitchGraph;

    fn ring4() -> HostSwitchGraph {
        // Fig. 1: 4 switches in a ring, 4 hosts each, radix 6.
        let mut g = HostSwitchGraph::new(4, 6).unwrap();
        for s in 0..4 {
            g.add_link(s, (s + 1) % 4).unwrap();
        }
        for s in 0..4 {
            for _ in 0..4 {
                g.attach_host(s).unwrap();
            }
        }
        g
    }

    #[test]
    fn fig1_haspl_by_hand() {
        // Switch ASPL of C4 = (1+2+1)/3 = 4/3. Eq (1):
        // A = (4/3)*(4*16-16)/(4*16-4) + 2 = (4/3)*(48/60) + 2 = 16/15 + 2.
        let g = ring4();
        let m = path_metrics(&g).unwrap();
        let expect = 16.0 / 15.0 + 2.0;
        assert!((m.haspl - expect).abs() < 1e-12, "{} vs {expect}", m.haspl);
        assert_eq!(m.diameter, 4); // opposite switches at distance 2 (+2)
    }

    #[test]
    fn eq1_matches_direct_computation() {
        let g = ring4();
        let sa = switch_aspl(&g).unwrap();
        let via_eq1 = haspl_from_switch_aspl(sa, g.num_hosts(), g.num_switches());
        let direct = path_metrics(&g).unwrap().haspl;
        assert!((via_eq1 - direct).abs() < 1e-12);
    }

    #[test]
    fn l_h0_h15_is_3_in_paper_example() {
        // The paper's Fig. 1 walk-through: ℓ(h0, h15) = 3 via (h0,s0,s3,h15).
        let g = ring4();
        // host 0 is on switch 0; host 15 on switch 3; d(s0,s3)=1 => ℓ=3.
        let d = host_distances(&g, 0);
        assert_eq!(d[15], 3);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 2); // same switch
    }

    #[test]
    fn single_switch_star() {
        let mut g = HostSwitchGraph::new(1, 8).unwrap();
        for _ in 0..5 {
            g.attach_host(0).unwrap();
        }
        let m = path_metrics(&g).unwrap();
        assert_eq!(m.haspl, 2.0);
        assert_eq!(m.diameter, 2);
        assert_eq!(m.total_length, 10 * 2);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut g = HostSwitchGraph::new(2, 4).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(1).unwrap();
        assert!(path_metrics(&g).is_none());
    }

    #[test]
    fn under_two_hosts_returns_none() {
        let mut g = HostSwitchGraph::new(1, 4).unwrap();
        assert!(path_metrics(&g).is_none());
        g.attach_host(0).unwrap();
        assert!(path_metrics(&g).is_none());
    }

    #[test]
    fn empty_switches_do_not_affect_haspl() {
        // A path s0 - s1 - s2 where s1 has no hosts.
        let mut g = HostSwitchGraph::new(3, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(1, 2).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(2).unwrap();
        let m = path_metrics(&g).unwrap();
        assert_eq!(m.haspl, 4.0); // d(s0,s2)=2, +2
        assert_eq!(m.diameter, 4);
    }

    #[test]
    fn two_hosts_same_switch_diameter_two() {
        let mut g = HostSwitchGraph::new(2, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(0).unwrap();
        let m = path_metrics(&g).unwrap();
        assert_eq!(m.diameter, 2);
        assert_eq!(m.haspl, 2.0);
    }

    #[test]
    fn csr_matches_graph_adjacency() {
        let g = ring4();
        let csr = SwitchCsr::from_graph(&g);
        assert_eq!(csr.len(), 4);
        for s in 0..4u32 {
            let mut a: Vec<u32> = csr.neighbors(s).to_vec();
            let mut b: Vec<u32> = g.neighbors(s).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn host_distances_unreachable_marked() {
        let mut g = HostSwitchGraph::new(2, 4).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(1).unwrap();
        let d = host_distances(&g, 0);
        assert_eq!(d[1], u32::MAX);
    }
}
