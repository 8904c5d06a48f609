//! The host-switch graph model (Section 3.1 of the paper).
//!
//! A host-switch graph `G = (H, S, E)` has `n` *host* vertices of degree
//! exactly 1, `m` *switch* vertices of degree at most `r` (the *radix*), and
//! edges that are either switch–switch or host–switch. `n` is called the
//! *order* of the graph.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Identifier of a switch vertex (`0..m`).
pub type Switch = u32;
/// Identifier of a host vertex (`0..n`).
pub type Host = u32;

/// A host-switch graph: `n` degree-1 hosts, `m` radix-`r` switches.
///
/// Invariants maintained by every public mutator:
/// * every host is attached to exactly one switch;
/// * `deg(s) = #switch-neighbors + #hosts ≤ r` for every switch `s`;
/// * no self loops, no parallel switch–switch edges.
///
/// Connectivity is *not* an invariant of the type (local-search moves
/// transiently break it); use [`HostSwitchGraph::is_connected`] or
/// [`HostSwitchGraph::validate`] to check it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSwitchGraph {
    radix: u32,
    /// host -> the switch it is attached to
    host_sw: Vec<Switch>,
    /// switch -> neighbouring switches (unsorted, no duplicates)
    sw_adj: Vec<Vec<Switch>>,
    /// switch -> hosts attached to it (unsorted)
    sw_hosts: Vec<Vec<Host>>,
}

impl HostSwitchGraph {
    /// Creates a graph with `num_switches` isolated switches, no hosts.
    ///
    /// The radix must be at least 3 (smaller radixes cannot form a
    /// connected network with more hosts than one switch can hold).
    pub fn new(num_switches: u32, radix: u32) -> Result<Self, GraphError> {
        if radix < 3 {
            return Err(GraphError::InvalidParameters(format!(
                "radix must be >= 3, got {radix}"
            )));
        }
        if num_switches == 0 {
            return Err(GraphError::InvalidParameters(
                "need at least one switch".into(),
            ));
        }
        Ok(Self {
            radix,
            host_sw: Vec::new(),
            sw_adj: vec![Vec::new(); num_switches as usize],
            sw_hosts: vec![Vec::new(); num_switches as usize],
        })
    }

    /// Number of hosts `n` (the *order*).
    #[inline]
    pub fn num_hosts(&self) -> u32 {
        self.host_sw.len() as u32
    }

    /// Number of switches `m`.
    #[inline]
    pub fn num_switches(&self) -> u32 {
        self.sw_adj.len() as u32
    }

    /// Ports per switch `r` (the *radix*).
    #[inline]
    pub fn radix(&self) -> u32 {
        self.radix
    }

    /// Total degree (used ports) of switch `s`.
    #[inline]
    pub fn switch_degree(&self, s: Switch) -> u32 {
        (self.sw_adj[s as usize].len() + self.sw_hosts[s as usize].len()) as u32
    }

    /// Unused ports of switch `s`.
    #[inline]
    pub fn free_ports(&self, s: Switch) -> u32 {
        self.radix - self.switch_degree(s)
    }

    /// Number of switch-to-switch links.
    pub fn num_links(&self) -> usize {
        self.sw_adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Switch neighbours of `s`.
    #[inline]
    pub fn neighbors(&self, s: Switch) -> &[Switch] {
        &self.sw_adj[s as usize]
    }

    /// Hosts attached to switch `s`.
    #[inline]
    pub fn hosts_of(&self, s: Switch) -> &[Host] {
        &self.sw_hosts[s as usize]
    }

    /// Number of hosts attached to switch `s` (the `k_s` of the paper).
    #[inline]
    pub fn host_count(&self, s: Switch) -> u32 {
        self.sw_hosts[s as usize].len() as u32
    }

    /// The switch host `h` is attached to.
    #[inline]
    pub fn switch_of(&self, h: Host) -> Switch {
        self.host_sw[h as usize]
    }

    /// `k_s` for every switch, indexed by switch id.
    pub fn host_counts(&self) -> Vec<u32> {
        self.sw_hosts.iter().map(|v| v.len() as u32).collect()
    }

    /// Histogram of the *host distribution* (Fig. 6/8 of the paper):
    /// `hist[k]` = number of switches with exactly `k` hosts.
    pub fn host_distribution(&self) -> Vec<u32> {
        let max = self.sw_hosts.iter().map(Vec::len).max().unwrap_or(0);
        let mut hist = vec![0u32; max + 1];
        for hs in &self.sw_hosts {
            hist[hs.len()] += 1;
        }
        hist
    }

    /// Whether switches `a` and `b` are directly linked.
    pub fn has_link(&self, a: Switch, b: Switch) -> bool {
        let (a, b) = if self.sw_adj[a as usize].len() <= self.sw_adj[b as usize].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.sw_adj[a as usize].contains(&b)
    }

    fn check_switch(&self, s: Switch) -> Result<(), GraphError> {
        if (s as usize) < self.sw_adj.len() {
            Ok(())
        } else {
            Err(GraphError::SwitchOutOfRange {
                switch: s,
                num_switches: self.num_switches(),
            })
        }
    }

    /// Adds the switch-to-switch link `{a, b}`.
    pub fn add_link(&mut self, a: Switch, b: Switch) -> Result<(), GraphError> {
        self.check_switch(a)?;
        self.check_switch(b)?;
        if a == b {
            return Err(GraphError::SelfLoop { switch: a });
        }
        if self.has_link(a, b) {
            return Err(GraphError::DuplicateEdge { a, b });
        }
        if self.free_ports(a) == 0 {
            return Err(GraphError::RadixExceeded {
                switch: a,
                radix: self.radix,
            });
        }
        if self.free_ports(b) == 0 {
            return Err(GraphError::RadixExceeded {
                switch: b,
                radix: self.radix,
            });
        }
        self.sw_adj[a as usize].push(b);
        self.sw_adj[b as usize].push(a);
        Ok(())
    }

    /// Removes the switch-to-switch link `{a, b}`.
    pub fn remove_link(&mut self, a: Switch, b: Switch) -> Result<(), GraphError> {
        self.check_switch(a)?;
        self.check_switch(b)?;
        let pa = self.sw_adj[a as usize].iter().position(|&x| x == b);
        let pb = self.sw_adj[b as usize].iter().position(|&x| x == a);
        match (pa, pb) {
            (Some(pa), Some(pb)) => {
                self.sw_adj[a as usize].swap_remove(pa);
                self.sw_adj[b as usize].swap_remove(pb);
                Ok(())
            }
            _ => Err(GraphError::MissingEdge { a, b }),
        }
    }

    /// Attaches a brand-new host to switch `s` and returns its id.
    pub fn attach_host(&mut self, s: Switch) -> Result<Host, GraphError> {
        self.check_switch(s)?;
        if self.free_ports(s) == 0 {
            return Err(GraphError::RadixExceeded {
                switch: s,
                radix: self.radix,
            });
        }
        let h = self.host_sw.len() as Host;
        self.host_sw.push(s);
        self.sw_hosts[s as usize].push(h);
        Ok(h)
    }

    /// Moves host `h` from its current switch to switch `to`.
    ///
    /// `to` may equal the current switch (a no-op).
    pub fn move_host(&mut self, h: Host, to: Switch) -> Result<(), GraphError> {
        if (h as usize) >= self.host_sw.len() {
            return Err(GraphError::HostOutOfRange {
                host: h,
                num_hosts: self.num_hosts(),
            });
        }
        self.check_switch(to)?;
        let from = self.host_sw[h as usize];
        if from == to {
            return Ok(());
        }
        if self.free_ports(to) == 0 {
            return Err(GraphError::RadixExceeded {
                switch: to,
                radix: self.radix,
            });
        }
        let pos = self.sw_hosts[from as usize]
            .iter()
            .position(|&x| x == h)
            .ok_or(GraphError::HostNotOnSwitch {
                host: h,
                switch: from,
            })?;
        self.sw_hosts[from as usize].swap_remove(pos);
        self.sw_hosts[to as usize].push(h);
        self.host_sw[h as usize] = to;
        Ok(())
    }

    /// Iterates over all switch-to-switch links as ordered pairs `(a, b)`
    /// with `a < b`.
    pub fn links(&self) -> impl Iterator<Item = (Switch, Switch)> + '_ {
        self.sw_adj.iter().enumerate().flat_map(|(a, nbrs)| {
            let a = a as Switch;
            nbrs.iter()
                .copied()
                .filter_map(move |b| (a < b).then_some((a, b)))
        })
    }

    /// BFS over the switch graph from `src`; returns per-switch hop counts
    /// (`u32::MAX` when unreachable). Scratch-free convenience wrapper around
    /// [`crate::metrics`]' internals; fine for one-off queries.
    pub fn switch_distances(&self, src: Switch) -> Vec<u32> {
        let m = self.sw_adj.len();
        let mut dist = vec![u32::MAX; m];
        let mut queue = std::collections::VecDeque::with_capacity(m);
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in &self.sw_adj[u as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether the switch graph is a single connected component.
    ///
    /// Hosts have degree exactly 1, so switch connectivity implies that all
    /// hosts can reach each other.
    pub fn is_connected(&self) -> bool {
        if self.sw_adj.is_empty() {
            return false;
        }
        let dist = self.switch_distances(0);
        dist.iter().all(|&d| d != u32::MAX)
    }

    /// Whether every pair of *hosts* can reach each other. Weaker than
    /// [`Self::is_connected`]: switches without hosts may live in separate
    /// components.
    pub fn hosts_connected(&self) -> bool {
        let Some(&s0) = self.host_sw.first() else {
            return true;
        };
        let dist = self.switch_distances(s0);
        self.host_sw.iter().all(|&s| dist[s as usize] != u32::MAX)
    }

    /// Full invariant check: port budgets, adjacency symmetry, no
    /// self-loops/duplicates, host cross-references, and host connectivity.
    pub fn validate(&self) -> Result<(), GraphError> {
        for s in 0..self.num_switches() {
            if self.switch_degree(s) > self.radix {
                return Err(GraphError::RadixExceeded {
                    switch: s,
                    radix: self.radix,
                });
            }
            let nbrs = &self.sw_adj[s as usize];
            for (i, &v) in nbrs.iter().enumerate() {
                if v == s {
                    return Err(GraphError::SelfLoop { switch: s });
                }
                if nbrs[..i].contains(&v) {
                    return Err(GraphError::DuplicateEdge { a: s, b: v });
                }
                if !self.sw_adj[v as usize].contains(&s) {
                    return Err(GraphError::MissingEdge { a: v, b: s });
                }
            }
            for &h in &self.sw_hosts[s as usize] {
                if self.host_sw.get(h as usize) != Some(&s) {
                    return Err(GraphError::HostNotOnSwitch { host: h, switch: s });
                }
            }
        }
        for (h, &s) in self.host_sw.iter().enumerate() {
            if !self.sw_hosts[s as usize].contains(&(h as Host)) {
                return Err(GraphError::HostNotOnSwitch {
                    host: h as Host,
                    switch: s,
                });
            }
        }
        if !self.hosts_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(())
    }

    /// Sorts adjacency and host lists so that two graphs with identical
    /// structure compare equal with `==` regardless of insertion order.
    pub fn canonicalize(&mut self) {
        for v in &mut self.sw_adj {
            v.sort_unstable();
        }
        for v in &mut self.sw_hosts {
            v.sort_unstable();
        }
    }

    /// Serializes the **exact internal representation** — adjacency and
    /// host lists in their current in-memory order — for checkpointing.
    ///
    /// This is deliberately different from [`crate::io::to_string`],
    /// which sorts links for a diff-friendly text format: the local
    /// search samples moves by indexing into these lists, so a resumed
    /// run is only bit-identical to the uninterrupted one if the stored
    /// order survives the round trip.
    pub fn encode_exact(&self, enc: &mut crate::ckpt::Encoder) {
        enc.put_u32(self.radix);
        enc.put_u32_slice(&self.host_sw);
        enc.put_u64(self.sw_adj.len() as u64);
        for (adj, hosts) in self.sw_adj.iter().zip(&self.sw_hosts) {
            enc.put_u32_slice(adj);
            enc.put_u32_slice(hosts);
        }
    }

    /// Reverses [`HostSwitchGraph::encode_exact`], re-validating every
    /// structural invariant (port budgets, symmetry, cross-references)
    /// so a corrupted-but-checksum-valid payload cannot smuggle in an
    /// inconsistent graph.
    pub fn decode_exact(
        dec: &mut crate::ckpt::Decoder<'_>,
    ) -> Result<Self, crate::ckpt::CkptError> {
        use crate::ckpt::CkptError;
        let radix = dec.get_u32()?;
        let host_sw = dec.get_u32_vec()?;
        let m = dec.get_u64()? as usize;
        let mut sw_adj = Vec::new();
        let mut sw_hosts = Vec::new();
        for _ in 0..m {
            sw_adj.push(dec.get_u32_vec()?);
            sw_hosts.push(dec.get_u32_vec()?);
        }
        let g = Self {
            radix,
            host_sw,
            sw_adj,
            sw_hosts,
        };
        if g.radix < 3 || g.sw_adj.is_empty() {
            return Err(CkptError::BadSection(
                "graph: bad radix or no switches".into(),
            ));
        }
        if g.host_sw.iter().any(|&s| s as usize >= m) {
            return Err(CkptError::BadSection(
                "graph: host switch out of range".into(),
            ));
        }
        if g.sw_adj.iter().flatten().any(|&s| s as usize >= m) {
            return Err(CkptError::BadSection("graph: neighbor out of range".into()));
        }
        g.validate()
            .map_err(|e| CkptError::BadSection(format!("graph: {e}")))?;
        Ok(g)
    }

    /// Whether the graph is *k-regular* in the paper's sense: every switch
    /// has the same number of switch-neighbours and the same number of
    /// hosts. Returns that `(k, hosts_per_switch)` if so.
    pub fn regularity(&self) -> Option<(u32, u32)> {
        let k = self.sw_adj.first()?.len();
        let p = self.sw_hosts.first()?.len();
        let ok = self
            .sw_adj
            .iter()
            .zip(&self.sw_hosts)
            .all(|(a, h)| a.len() == k && h.len() == p);
        ok.then_some((k as u32, p as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 16-host, 4-switch, radix-6 example of Fig. 1.
    pub(crate) fn fig1_example() -> HostSwitchGraph {
        let mut g = HostSwitchGraph::new(4, 6).unwrap();
        // Switches form a cycle 0-1-2-3 plus a diagonal 0-2, 1-3 would
        // exceed... Fig. 1 shows 4 switches each with 4 hosts and 2 links:
        // a ring. 4 hosts + 2 links = 6 ports.
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
    fn fig1_counts() {
        let g = fig1_example();
        assert_eq!(g.num_hosts(), 16);
        assert_eq!(g.num_switches(), 4);
        assert_eq!(g.radix(), 6);
        assert_eq!(g.num_links(), 4);
        g.validate().unwrap();
        assert_eq!(g.regularity(), Some((2, 4)));
    }

    #[test]
    fn radix_is_enforced() {
        let mut g = HostSwitchGraph::new(2, 3).unwrap();
        g.add_link(0, 1).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(0).unwrap();
        assert_eq!(g.free_ports(0), 0);
        assert_eq!(
            g.attach_host(0),
            Err(GraphError::RadixExceeded {
                switch: 0,
                radix: 3
            })
        );
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut g = HostSwitchGraph::new(3, 4).unwrap();
        assert_eq!(g.add_link(1, 1), Err(GraphError::SelfLoop { switch: 1 }));
        g.add_link(0, 1).unwrap();
        assert_eq!(
            g.add_link(1, 0),
            Err(GraphError::DuplicateEdge { a: 1, b: 0 })
        );
    }

    #[test]
    fn remove_missing_edge_fails() {
        let mut g = HostSwitchGraph::new(3, 4).unwrap();
        assert_eq!(
            g.remove_link(0, 1),
            Err(GraphError::MissingEdge { a: 0, b: 1 })
        );
    }

    #[test]
    fn move_host_roundtrip() {
        let mut g = HostSwitchGraph::new(2, 4).unwrap();
        g.add_link(0, 1).unwrap();
        let h = g.attach_host(0).unwrap();
        g.move_host(h, 1).unwrap();
        assert_eq!(g.switch_of(h), 1);
        assert_eq!(g.host_count(0), 0);
        assert_eq!(g.host_count(1), 1);
        g.move_host(h, 0).unwrap();
        g.validate().unwrap();
        assert_eq!(g.host_count(0), 1);
    }

    #[test]
    fn move_host_to_full_switch_fails() {
        let mut g = HostSwitchGraph::new(2, 3).unwrap();
        g.add_link(0, 1).unwrap();
        let h = g.attach_host(0).unwrap();
        g.attach_host(1).unwrap();
        g.attach_host(1).unwrap();
        assert!(matches!(
            g.move_host(h, 1),
            Err(GraphError::RadixExceeded { .. })
        ));
    }

    #[test]
    fn connectivity_detection() {
        let mut g = HostSwitchGraph::new(4, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(2, 3).unwrap();
        assert!(!g.is_connected());
        g.attach_host(0).unwrap();
        g.attach_host(3).unwrap();
        assert!(!g.hosts_connected());
        g.add_link(1, 2).unwrap();
        assert!(g.is_connected());
        assert!(g.hosts_connected());
        g.validate().unwrap();
    }

    #[test]
    fn hosts_connected_ignores_empty_components() {
        let mut g = HostSwitchGraph::new(3, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(1).unwrap();
        // switch 2 is isolated but holds no host
        assert!(!g.is_connected());
        assert!(g.hosts_connected());
    }

    #[test]
    fn links_iterator_yields_each_edge_once() {
        let g = fig1_example();
        let mut links: Vec<_> = g.links().collect();
        links.sort_unstable();
        assert_eq!(links, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn host_distribution_histogram() {
        let mut g = HostSwitchGraph::new(3, 8).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(1, 2).unwrap();
        for _ in 0..3 {
            g.attach_host(0).unwrap();
        }
        g.attach_host(2).unwrap();
        assert_eq!(g.host_distribution(), vec![1, 1, 0, 1]);
    }

    #[test]
    fn switch_distances_bfs() {
        let g = fig1_example();
        let d = g.switch_distances(0);
        assert_eq!(d, vec![0, 1, 2, 1]);
    }

    #[test]
    fn serde_roundtrip() {
        let g = fig1_example();
        let json = serde_json::to_string(&g).unwrap();
        let g2: HostSwitchGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_tiny_radix() {
        assert!(HostSwitchGraph::new(4, 2).is_err());
        assert!(HostSwitchGraph::new(0, 6).is_err());
    }
}
