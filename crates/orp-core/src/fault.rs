//! Fault models and degraded-operation metrics.
//!
//! A deployed network loses switches and links; the paper's h-ASPL
//! advantage only matters if it survives that. This module models
//! failures as a [`FaultSet`] — failed switches, switch–switch links and
//! host–switch uplinks — that is *applied as a view* over an immutable
//! [`HostSwitchGraph`] ([`FaultView`]), so the same topology can be
//! evaluated under many fault draws without rebuilding anything.
//!
//! The degraded metrics mirror §3.2 under faults:
//!
//! * **reachable-pair fraction** — surviving host pairs that can still
//!   communicate, over all original pairs (1.0 = unhurt),
//! * **degraded h-ASPL / diameter** — path metrics over the pairs that
//!   remain reachable (fault-free h-ASPL when the fault set is empty),
//! * **path diversity** — edge-disjoint shortest-path counts between
//!   switch pairs, the headroom the network has before a cut isolates
//!   someone.
//!
//! Fault draws are deterministic: [`FaultSet::sample`] with a fixed seed
//! always fails the same elements.

use crate::graph::{Host, HostSwitchGraph, Switch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A set of failed network elements, independent of any particular graph
/// until applied through a [`FaultView`].
///
/// Switch failure subsumes the failure of every incident link and of the
/// uplinks of every host attached to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    /// Failed switches, sorted, deduplicated.
    switches: Vec<Switch>,
    /// Failed switch–switch links as `(min, max)` pairs, sorted.
    links: Vec<(Switch, Switch)>,
    /// Hosts whose uplink to their switch failed, sorted.
    host_links: Vec<Host>,
}

impl FaultSet {
    /// The empty fault set (fault-free operation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no element failed.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.links.is_empty() && self.host_links.is_empty()
    }

    /// Number of failed switches.
    pub fn num_failed_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of failed switch–switch links (excluding those implied by
    /// switch failures).
    pub fn num_failed_links(&self) -> usize {
        self.links.len()
    }

    /// The failed switches, sorted.
    pub fn failed_switches(&self) -> &[Switch] {
        &self.switches
    }

    /// The explicitly failed switch–switch links, sorted `(min, max)`.
    pub fn failed_links(&self) -> &[(Switch, Switch)] {
        &self.links
    }

    /// The explicitly failed host uplinks, sorted.
    pub fn failed_host_links(&self) -> &[Host] {
        &self.host_links
    }

    /// Marks switch `s` failed.
    pub fn fail_switch(&mut self, s: Switch) -> &mut Self {
        if let Err(pos) = self.switches.binary_search(&s) {
            self.switches.insert(pos, s);
        }
        self
    }

    /// Marks the switch–switch link `{a, b}` failed.
    pub fn fail_link(&mut self, a: Switch, b: Switch) -> &mut Self {
        let key = (a.min(b), a.max(b));
        if let Err(pos) = self.links.binary_search(&key) {
            self.links.insert(pos, key);
        }
        self
    }

    /// Marks the uplink of host `h` failed.
    pub fn fail_host_link(&mut self, h: Host) -> &mut Self {
        if let Err(pos) = self.host_links.binary_search(&h) {
            self.host_links.insert(pos, h);
        }
        self
    }

    /// Whether switch `s` is marked failed.
    pub fn switch_failed(&self, s: Switch) -> bool {
        self.switches.binary_search(&s).is_ok()
    }

    /// Whether link `{a, b}` is marked failed *explicitly* (switch
    /// failures are not consulted; see [`FaultView::link_alive`]).
    pub fn link_failed(&self, a: Switch, b: Switch) -> bool {
        self.links.binary_search(&(a.min(b), a.max(b))).is_ok()
    }

    /// Whether the uplink of host `h` is marked failed explicitly.
    pub fn host_link_failed(&self, h: Host) -> bool {
        self.host_links.binary_search(&h).is_ok()
    }

    /// Draws a random fault set over `g`: every switch fails
    /// independently with probability `switch_rate`, every switch–switch
    /// link with probability `link_rate`. Deterministic for a fixed
    /// `seed` (switches in id order, links in [`HostSwitchGraph::links`]
    /// order).
    pub fn sample(g: &HostSwitchGraph, switch_rate: f64, link_rate: f64, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut f = Self::new();
        for s in 0..g.num_switches() {
            if rng.gen::<f64>() < switch_rate {
                f.fail_switch(s);
            }
        }
        for (a, b) in g.links() {
            if rng.gen::<f64>() < link_rate {
                f.fail_link(a, b);
            }
        }
        f
    }
}

/// Degraded path metrics of a faulted network (the §3.2 metrics computed
/// over the pairs that survive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedMetrics {
    /// Hosts in the original graph.
    pub total_hosts: u32,
    /// Hosts that still have a live uplink to a live switch.
    pub alive_hosts: u32,
    /// Unordered host pairs in the original graph.
    pub total_pairs: u64,
    /// Surviving pairs that can still communicate.
    pub reachable_pairs: u64,
    /// `reachable_pairs / total_pairs` (1.0 when there are no pairs).
    pub reachable_fraction: f64,
    /// h-ASPL over the reachable pairs; `None` when no pair survives.
    pub haspl: Option<f64>,
    /// Host-to-host diameter over the reachable pairs (0 when none).
    pub diameter: u32,
    /// Whether every pair of *surviving* hosts is still connected.
    pub connected: bool,
}

/// Edge-disjoint shortest-path statistics over sampled host pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiversitySummary {
    /// Minimum edge-disjoint shortest-path count over the sample.
    pub min: u32,
    /// Mean edge-disjoint shortest-path count over the sample.
    pub mean: f64,
    /// Number of (reachable, distinct-switch) pairs sampled.
    pub pairs: usize,
}

/// A non-mutating degraded view: `graph` with `faults` subtracted.
#[derive(Debug, Clone, Copy)]
pub struct FaultView<'a> {
    graph: &'a HostSwitchGraph,
    faults: &'a FaultSet,
}

impl<'a> FaultView<'a> {
    /// Applies `faults` to `graph` as a view.
    pub fn new(graph: &'a HostSwitchGraph, faults: &'a FaultSet) -> Self {
        Self { graph, faults }
    }

    /// The underlying fault-free graph.
    pub fn graph(&self) -> &HostSwitchGraph {
        self.graph
    }

    /// The applied fault set.
    pub fn faults(&self) -> &FaultSet {
        self.faults
    }

    /// Whether switch `s` survives.
    pub fn switch_alive(&self, s: Switch) -> bool {
        !self.faults.switch_failed(s)
    }

    /// Whether the link `{a, b}` survives: both endpoints alive and the
    /// link itself not failed. (Does not check that the link exists.)
    pub fn link_alive(&self, a: Switch, b: Switch) -> bool {
        self.switch_alive(a) && self.switch_alive(b) && !self.faults.link_failed(a, b)
    }

    /// Whether host `h` survives: its uplink and its switch are alive.
    pub fn host_alive(&self, h: Host) -> bool {
        !self.faults.host_link_failed(h) && self.switch_alive(self.graph.switch_of(h))
    }

    /// Surviving switch-neighbours of `s` (empty when `s` is dead).
    pub fn surviving_neighbors(&self, s: Switch) -> impl Iterator<Item = Switch> + '_ {
        let dead = !self.switch_alive(s);
        self.graph
            .neighbors(s)
            .iter()
            .copied()
            .filter(move |&v| !dead && self.link_alive(s, v))
    }

    /// Surviving adjacency lists, indexed by switch id (dead switches get
    /// empty lists) — the input shape fault-aware routing builds from.
    pub fn surviving_adjacency(&self) -> Vec<Vec<Switch>> {
        (0..self.graph.num_switches())
            .map(|s| self.surviving_neighbors(s).collect())
            .collect()
    }

    /// Per-switch count of surviving hosts.
    pub fn surviving_host_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.graph.num_switches() as usize];
        for h in 0..self.graph.num_hosts() {
            if self.host_alive(h) {
                counts[self.graph.switch_of(h) as usize] += 1;
            }
        }
        counts
    }

    /// BFS hop counts over the *surviving* switch graph from `src`
    /// (`u32::MAX` = unreachable; everything unreachable when `src` is
    /// dead).
    pub fn switch_distances(&self, src: Switch) -> Vec<u32> {
        let m = self.graph.num_switches() as usize;
        let mut dist = vec![u32::MAX; m];
        if !self.switch_alive(src) {
            return dist;
        }
        let mut queue = std::collections::VecDeque::with_capacity(m);
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for v in self.surviving_neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Materialises the view as a physically pruned graph: same switch
    /// ids and radix, only surviving links, surviving hosts re-attached
    /// to their original switches (host *ids* are compacted). The
    /// reference the view-based metrics are equivalence-tested against.
    pub fn pruned_graph(&self) -> HostSwitchGraph {
        let g = self.graph;
        let mut p = HostSwitchGraph::new(g.num_switches(), g.radix())
            .expect("pruning preserves valid parameters");
        for (a, b) in g.links() {
            if self.link_alive(a, b) {
                p.add_link(a, b).expect("pruned link fits original ports");
            }
        }
        for h in 0..g.num_hosts() {
            if self.host_alive(h) {
                p.attach_host(g.switch_of(h))
                    .expect("pruned host fits original ports");
            }
        }
        p
    }

    /// Computes the degraded path metrics of the view — one BFS per
    /// host-bearing surviving switch, like [`crate::metrics`] but
    /// tolerating (and accounting) unreachable pairs instead of bailing.
    pub fn degraded_metrics(&self) -> DegradedMetrics {
        let g = self.graph;
        let n_total = g.num_hosts() as u64;
        let total_pairs = n_total * n_total.saturating_sub(1) / 2;
        let counts = self.surviving_host_counts();
        let alive: u64 = counts.iter().map(|&k| k as u64).sum();
        let alive_pairs = alive * alive.saturating_sub(1) / 2;

        let mut ordered_pairs = 0u64;
        let mut ordered_sum = 0u64;
        let mut max_inter = 0u32;
        let mut any_inter = false;
        for a in 0..g.num_switches() {
            let ka = counts[a as usize] as u64;
            if ka == 0 {
                continue;
            }
            let dist = self.switch_distances(a);
            for (b, (&d, &kb)) in dist.iter().zip(&counts).enumerate() {
                if kb == 0 || b as u32 == a || d == u32::MAX {
                    continue;
                }
                ordered_pairs += ka * kb as u64;
                ordered_sum += ka * kb as u64 * (d as u64 + 2);
                max_inter = max_inter.max(d);
                any_inter = true;
            }
        }
        let mut reachable_pairs = ordered_pairs / 2;
        let mut total_length = ordered_sum / 2;
        let mut diameter = if any_inter { max_inter + 2 } else { 0 };
        for &k in &counts {
            let k = k as u64;
            if k >= 2 {
                reachable_pairs += k * (k - 1) / 2;
                total_length += k * (k - 1) / 2 * 2;
                diameter = diameter.max(2);
            }
        }
        DegradedMetrics {
            total_hosts: n_total as u32,
            alive_hosts: alive as u32,
            total_pairs,
            reachable_pairs,
            reachable_fraction: if total_pairs == 0 {
                1.0
            } else {
                reachable_pairs as f64 / total_pairs as f64
            },
            haspl: (reachable_pairs > 0).then(|| total_length as f64 / reachable_pairs as f64),
            diameter,
            connected: reachable_pairs == alive_pairs,
        }
    }

    /// The surviving hosts of the largest surviving connected component
    /// (by alive-host count, ties to the lower-id component root) —
    /// where a degraded run would place its MPI ranks.
    pub fn largest_component_hosts(&self) -> Vec<Host> {
        let g = self.graph;
        let m = g.num_switches() as usize;
        let counts = self.surviving_host_counts();
        let mut comp = vec![u32::MAX; m];
        let mut best_root = u32::MAX;
        let mut best_hosts = 0u64;
        for s in 0..m as u32 {
            if comp[s as usize] != u32::MAX || !self.switch_alive(s) {
                continue;
            }
            let mut stack = vec![s];
            comp[s as usize] = s;
            let mut hosts = 0u64;
            while let Some(u) = stack.pop() {
                hosts += counts[u as usize] as u64;
                for v in self.surviving_neighbors(u) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = s;
                        stack.push(v);
                    }
                }
            }
            if hosts > best_hosts {
                best_hosts = hosts;
                best_root = s;
            }
        }
        if best_root == u32::MAX {
            return Vec::new();
        }
        (0..g.num_hosts())
            .filter(|&h| self.host_alive(h) && comp[g.switch_of(h) as usize] == best_root)
            .collect()
    }

    /// Number of edge-disjoint shortest paths between surviving switches
    /// `a` and `b`: max flow over the shortest-path DAG with unit link
    /// capacities. 0 when unreachable (or either endpoint dead);
    /// `u32::MAX` is never returned — `a == b` yields 0 by convention.
    pub fn edge_disjoint_shortest_paths(&self, a: Switch, b: Switch) -> u32 {
        if a == b || !self.switch_alive(a) || !self.switch_alive(b) {
            return 0;
        }
        let da = self.switch_distances(a);
        if da[b as usize] == u32::MAX {
            return 0;
        }
        let db = self.switch_distances(b);
        let total = da[b as usize];
        // DAG arcs: surviving (u, v) on some shortest path, directed
        // toward b. Unit capacities; flow found by repeated DFS
        // augmentation on the residual (at most radix augmentations).
        let m = self.graph.num_switches() as usize;
        let mut arcs: Vec<Vec<u32>> = vec![Vec::new(); m]; // forward adjacency
        for u in 0..m as u32 {
            if da[u as usize] == u32::MAX || db[u as usize] == u32::MAX {
                continue;
            }
            for v in self.surviving_neighbors(u) {
                if db[v as usize] != u32::MAX && da[u as usize] + 1 + db[v as usize] == total {
                    arcs[u as usize].push(v);
                }
            }
        }
        let mut used: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut flow = 0u32;
        loop {
            // DFS for an augmenting path over residual arcs: forward arcs
            // not yet used, plus reversals of used arcs.
            let mut parent: Vec<Option<u32>> = vec![None; m];
            let mut stack = vec![a];
            let mut seen = vec![false; m];
            seen[a as usize] = true;
            while let Some(u) = stack.pop() {
                if u == b {
                    break;
                }
                for &v in &arcs[u as usize] {
                    if !seen[v as usize] && !used.contains(&(u, v)) {
                        seen[v as usize] = true;
                        parent[v as usize] = Some(u);
                        stack.push(v);
                    }
                }
                // residual back-arcs: v -> u exists if (v, u)… we need
                // arcs *into* u that carry flow; scan used arcs ending at u
                for w in 0..m as u32 {
                    if !seen[w as usize] && used.contains(&(w, u)) {
                        seen[w as usize] = true;
                        parent[w as usize] = Some(u);
                        stack.push(w);
                    }
                }
            }
            if !seen[b as usize] {
                break;
            }
            // walk back, toggling arcs
            let mut v = b;
            while v != a {
                let u = parent[v as usize].expect("path recorded");
                if !used.remove(&(v, u)) {
                    used.insert((u, v));
                }
                v = u;
            }
            flow += 1;
        }
        flow
    }

    /// Samples `pairs` random surviving host pairs on distinct switches
    /// and summarises their path diversity. `None` when fewer than one
    /// such reachable pair exists (or no two live hosts on distinct
    /// switches are found within the sampling budget).
    pub fn diversity_sample(&self, pairs: usize, seed: u64) -> Option<DiversitySummary> {
        let g = self.graph;
        let n = g.num_hosts();
        if n < 2 || pairs == 0 {
            return None;
        }
        let alive: Vec<Host> = (0..n).filter(|&h| self.host_alive(h)).collect();
        if alive.len() < 2 {
            return None;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut min = u32::MAX;
        let mut sum = 0u64;
        let mut counted = 0usize;
        for _ in 0..pairs.saturating_mul(4) {
            if counted == pairs {
                break;
            }
            let x = alive[rng.gen_range(0..alive.len())];
            let y = alive[rng.gen_range(0..alive.len())];
            let (sx, sy) = (g.switch_of(x), g.switch_of(y));
            if sx == sy {
                continue;
            }
            let d = self.edge_disjoint_shortest_paths(sx, sy);
            min = min.min(d);
            sum += d as u64;
            counted += 1;
        }
        (counted > 0).then(|| DiversitySummary {
            min,
            mean: sum as f64 / counted as f64,
            pairs: counted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::random_general;
    use crate::metrics::path_metrics;

    /// 4 switches in a ring, 2 hosts each, radix 6.
    fn ring4() -> HostSwitchGraph {
        let mut g = HostSwitchGraph::new(4, 6).unwrap();
        for s in 0..4 {
            g.add_link(s, (s + 1) % 4).unwrap();
        }
        for s in 0..4 {
            g.attach_host(s).unwrap();
            g.attach_host(s).unwrap();
        }
        g
    }

    #[test]
    fn empty_faults_reproduce_path_metrics() {
        let g = ring4();
        let f = FaultSet::new();
        let view = FaultView::new(&g, &f);
        let dm = view.degraded_metrics();
        let pm = path_metrics(&g).unwrap();
        assert_eq!(dm.alive_hosts, 8);
        assert_eq!(dm.reachable_pairs, dm.total_pairs);
        assert_eq!(dm.reachable_fraction, 1.0);
        assert!(dm.connected);
        assert!((dm.haspl.unwrap() - pm.haspl).abs() < 1e-12);
        assert_eq!(dm.diameter, pm.diameter);
    }

    #[test]
    fn switch_failure_kills_hosts_and_links() {
        let g = ring4();
        let mut f = FaultSet::new();
        f.fail_switch(1);
        let view = FaultView::new(&g, &f);
        assert!(!view.switch_alive(1));
        assert!(!view.link_alive(0, 1));
        assert!(view.link_alive(2, 3));
        // hosts 2,3 live on switch 1
        assert!(!view.host_alive(2));
        assert!(!view.host_alive(3));
        assert!(view.host_alive(0));
        let dm = view.degraded_metrics();
        assert_eq!(dm.alive_hosts, 6);
        // ring minus one switch = a path; all 6 survivors still connected
        assert!(dm.connected);
        assert!(dm.reachable_fraction < 1.0);
    }

    #[test]
    fn link_cut_disconnects_ring_only_with_two_cuts() {
        let g = ring4();
        let mut f = FaultSet::new();
        f.fail_link(0, 1);
        let view = FaultView::new(&g, &f);
        assert!(view.degraded_metrics().connected);
        f.fail_link(2, 3);
        let view = FaultView::new(&g, &f);
        let dm = view.degraded_metrics();
        assert!(!dm.connected);
        assert_eq!(dm.alive_hosts, 8);
        // components {0,3} and {1,2}: 4+4 hosts each side; cross pairs lost
        assert_eq!(dm.reachable_pairs, 2 * (4 * 3 / 2));
        assert!(dm.reachable_fraction < 0.5);
    }

    #[test]
    fn host_uplink_failure_is_isolated() {
        let g = ring4();
        let mut f = FaultSet::new();
        f.fail_host_link(5);
        let view = FaultView::new(&g, &f);
        assert!(!view.host_alive(5));
        assert!(view.switch_alive(g.switch_of(5)));
        let dm = view.degraded_metrics();
        assert_eq!(dm.alive_hosts, 7);
        assert!(dm.connected);
    }

    #[test]
    fn pruned_graph_matches_view_counts() {
        let g = random_general(24, 8, 8, 7).unwrap();
        let f = FaultSet::sample(&g, 0.2, 0.1, 3);
        let view = FaultView::new(&g, &f);
        let p = view.pruned_graph();
        assert_eq!(p.num_hosts(), view.degraded_metrics().alive_hosts);
        assert_eq!(p.host_counts(), view.surviving_host_counts());
        let live_links = g.links().filter(|&(a, b)| view.link_alive(a, b)).count();
        assert_eq!(p.num_links(), live_links);
    }

    #[test]
    fn sampling_is_deterministic_and_rate_sensitive() {
        let g = random_general(64, 16, 8, 1).unwrap();
        let a = FaultSet::sample(&g, 0.3, 0.3, 9);
        let b = FaultSet::sample(&g, 0.3, 0.3, 9);
        assert_eq!(a, b);
        let none = FaultSet::sample(&g, 0.0, 0.0, 9);
        assert!(none.is_empty());
        let all = FaultSet::sample(&g, 1.0, 1.0, 9);
        assert_eq!(all.num_failed_switches(), 16);
    }

    #[test]
    fn diversity_counts_disjoint_paths_on_ring() {
        let g = ring4();
        let f = FaultSet::new();
        let view = FaultView::new(&g, &f);
        // antipodal switches on a C4: two edge-disjoint shortest paths
        assert_eq!(view.edge_disjoint_shortest_paths(0, 2), 2);
        // adjacent: the single direct link is the only shortest path
        assert_eq!(view.edge_disjoint_shortest_paths(0, 1), 1);
        assert_eq!(view.edge_disjoint_shortest_paths(0, 0), 0);
    }

    #[test]
    fn diversity_drops_under_faults() {
        let g = ring4();
        let mut f = FaultSet::new();
        f.fail_link(1, 2);
        let view = FaultView::new(&g, &f);
        // 0→2 now only via 3
        assert_eq!(view.edge_disjoint_shortest_paths(0, 2), 1);
        f.fail_link(3, 0);
        let view = FaultView::new(&g, &f);
        assert_eq!(view.edge_disjoint_shortest_paths(0, 2), 0);
    }

    #[test]
    fn diversity_sample_summary() {
        let g = random_general(32, 8, 8, 2).unwrap();
        let f = FaultSet::new();
        let view = FaultView::new(&g, &f);
        let s = view.diversity_sample(16, 5).unwrap();
        assert!(s.pairs > 0);
        assert!(s.min >= 1, "connected graph must have diversity >= 1");
        assert!(s.mean >= s.min as f64);
        // deterministic
        assert_eq!(view.diversity_sample(16, 5), Some(s));
    }

    #[test]
    fn largest_component_tracks_partition() {
        let g = ring4();
        let f = FaultSet::new();
        let view = FaultView::new(&g, &f);
        assert_eq!(view.largest_component_hosts().len(), 8);
        // cut the ring into {0,1} and {2,3}; kill a host on the 2-3 side
        let mut f = FaultSet::new();
        f.fail_link(1, 2).fail_link(3, 0).fail_host_link(4);
        let view = FaultView::new(&g, &f);
        let block = view.largest_component_hosts();
        assert_eq!(block, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_switches_dead_yields_zero_everything() {
        let g = ring4();
        let f = FaultSet::sample(&g, 1.0, 0.0, 1);
        let view = FaultView::new(&g, &f);
        let dm = view.degraded_metrics();
        assert_eq!(dm.alive_hosts, 0);
        assert_eq!(dm.reachable_pairs, 0);
        assert_eq!(dm.haspl, None);
        assert_eq!(dm.diameter, 0);
        assert!(dm.connected, "vacuously connected");
    }
}
