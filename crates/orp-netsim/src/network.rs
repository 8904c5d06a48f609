//! The simulated network: directed capacitated links derived from a
//! host-switch graph plus per-flow route computation.
//!
//! Modelling choices mirror the paper's SimGrid setup (§6.2.1):
//! full-duplex links of equal bandwidth (InfiniBand FDR10-style 40 Gb/s),
//! a fixed per-hop latency, and static shortest-path routing (the
//! default; per-flow ECMP is available as an ablation via
//! [`RouteMode`]). Every host owns a dedicated up/down link pair to its
//! switch, so a host talking to many peers serialises on its own port —
//! exactly the property that makes the host distribution matter.

use orp_core::fault::{FaultSet, FaultView};
use orp_core::graph::{Host, HostSwitchGraph, Switch};
use orp_obs::{Event, FaultKind, Recorder};
use orp_route::{RouteError, RoutingTable};

/// Directed link identifier.
pub type LinkId = u32;

/// Routing policy for flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteMode {
    /// Static shortest-path routing: every `(src, dst)` pair always uses
    /// the same single path, like the SimGrid setup the paper evaluates
    /// with (no adaptive routing is mentioned in §6.2.1). The default.
    #[default]
    SinglePath,
    /// Per-flow ECMP: equal-cost paths chosen by flow hash — an ablation
    /// showing how much path diversity would change the comparison
    /// (it flatters the fat-tree, which is engineered for it).
    Ecmp,
}

/// Physical constants of the simulation.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Link bandwidth in bytes/second per direction
    /// (FDR10 ≈ 40 Gb/s ≈ 5 GB/s).
    pub bandwidth: f64,
    /// Latency per traversed link, seconds (switch traversal +
    /// serialisation + wire; ≈200 ns per FDR switch hop).
    pub hop_latency: f64,
    /// Fixed per-message software overhead, seconds (MPI stack; ≈300 ns
    /// for MVAPICH2-class stacks — end-to-end small-message latency then
    /// lands at the familiar 1–1.5 µs over 3–6 hops).
    pub sw_overhead: f64,
    /// Host compute speed, flop/s (the paper fixes 100 GFlops).
    pub flops: f64,
    /// Routing policy (static single path by default).
    pub route_mode: RouteMode,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            bandwidth: 5.0e9,
            hop_latency: 200e-9,
            sw_overhead: 300e-9,
            flops: 100.0e9,
            route_mode: RouteMode::SinglePath,
        }
    }
}

/// A host-switch graph compiled into directed links + routing.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    num_hosts: u32,
    host_sw: Vec<Switch>,
    table: RoutingTable,
    /// switch-switch directed link ids: CSR parallel to the graph
    /// adjacency (offsets per switch, one id per (switch, neighbor slot)).
    sw_offsets: Vec<u32>,
    sw_neighbors: Vec<Switch>,
    num_links: u32,
    /// Hosts cut off by static faults (empty uplink ⇒ cannot communicate).
    dead_host: Vec<bool>,
    /// Telemetry handle inherited by simulators built on this network.
    rec: Recorder,
}

/// Builder for [`Network`]; obtain via [`Network::builder`].
///
/// ```
/// use orp_netsim::{NetConfig, Network};
/// # let mut g = orp_core::graph::HostSwitchGraph::new(2, 3).unwrap();
/// # g.add_link(0, 1).unwrap();
/// # g.attach_host(0).unwrap();
/// # g.attach_host(1).unwrap();
/// let net = Network::builder(&g).config(NetConfig::default()).build();
/// assert_eq!(net.num_hosts(), 2);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder<'g> {
    graph: &'g HostSwitchGraph,
    cfg: NetConfig,
    faults: Option<&'g FaultSet>,
    rec: Recorder,
}

impl<'g> NetworkBuilder<'g> {
    /// Physical constants (defaults to [`NetConfig::default`]).
    pub fn config(mut self, cfg: NetConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Compiles the network operating degraded under `faults`: the
    /// routing table avoids failed elements and hosts killed by the
    /// faults refuse to route ([`RouteError::DeadEndpoint`]).
    ///
    /// The link-id space still covers the *full* fabric so that route
    /// ids stay comparable with the fault-free network; dead links
    /// simply never appear in any route.
    pub fn faults(mut self, faults: &'g FaultSet) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a telemetry recorder (defaults to the no-op recorder).
    /// Simulators built on the network inherit it.
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Compiles the network (one BFS per switch for the routing table).
    pub fn build(self) -> Network {
        let g = self.graph;
        let span = self.rec.span("net.compile");
        let (table, dead_host) = match self.faults {
            None => (RoutingTable::build(g), vec![false; g.num_hosts() as usize]),
            Some(faults) => {
                if self.rec.is_enabled() {
                    for &s in faults.failed_switches() {
                        self.rec.emit(Event::Fault {
                            kind: FaultKind::SwitchDown,
                            a: s,
                            b: 0,
                        });
                    }
                    for &(a, b) in faults.failed_links() {
                        self.rec.emit(Event::Fault {
                            kind: FaultKind::LinkDown,
                            a,
                            b,
                        });
                    }
                }
                let view = FaultView::new(g, faults);
                let dead_host = (0..g.num_hosts()).map(|h| !view.host_alive(h)).collect();
                (RoutingTable::build_with_faults(g, faults), dead_host)
            }
        };
        let net = Network::compile(g, self.cfg, table, dead_host, self.rec.clone());
        drop(span);
        net
    }
}

impl Network {
    /// Starts a builder compiling `g` (fault-free, default config, no
    /// recording unless configured otherwise).
    pub fn builder(g: &HostSwitchGraph) -> NetworkBuilder<'_> {
        NetworkBuilder {
            graph: g,
            cfg: NetConfig::default(),
            faults: None,
            rec: Recorder::disabled(),
        }
    }

    fn compile(
        g: &HostSwitchGraph,
        cfg: NetConfig,
        table: RoutingTable,
        dead_host: Vec<bool>,
        rec: Recorder,
    ) -> Self {
        let n = g.num_hosts();
        let m = g.num_switches();
        let host_sw: Vec<Switch> = (0..n).map(|h| g.switch_of(h)).collect();
        let mut sw_offsets = Vec::with_capacity(m as usize + 1);
        let mut sw_neighbors = Vec::new();
        // link id layout: [0, n) host uplinks, [n, 2n) host downlinks,
        // [2n, 2n + 2L) directed switch links
        sw_offsets.push(2 * n);
        for s in 0..m {
            sw_neighbors.extend_from_slice(g.neighbors(s));
            sw_offsets.push(2 * n + sw_neighbors.len() as u32);
        }
        let num_links = 2 * n + sw_neighbors.len() as u32;
        Self {
            cfg,
            num_hosts: n,
            host_sw,
            table,
            sw_offsets,
            sw_neighbors,
            num_links,
            dead_host,
            rec,
        }
    }

    /// The simulation constants.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The telemetry recorder this network was built with (the no-op
    /// recorder unless one was attached via the builder).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.num_hosts
    }

    /// Total number of directed links (host up/down + switch links).
    pub fn num_links(&self) -> u32 {
        self.num_links
    }

    /// The switch a host hangs off.
    pub fn switch_of(&self, h: Host) -> Switch {
        self.host_sw[h as usize]
    }

    /// The shortest-path routing table.
    pub fn routing(&self) -> &RoutingTable {
        &self.table
    }

    /// Number of switches in the compiled fabric.
    pub fn num_switches(&self) -> u32 {
        self.sw_offsets.len() as u32 - 1
    }

    /// Whether a host was cut off by the static faults this network was
    /// compiled with (always `false` without [`NetworkBuilder::faults`]).
    pub fn host_dead(&self, h: Host) -> bool {
        self.dead_host[h as usize]
    }

    /// The directed switch links leaving `s`, as `(link id, neighbour)`.
    pub fn switch_links(&self, s: Switch) -> impl Iterator<Item = (LinkId, Switch)> + '_ {
        let lo = self.sw_offsets[s as usize];
        let hi = self.sw_offsets[s as usize + 1];
        let base = 2 * self.num_hosts;
        self.sw_neighbors[(lo - base) as usize..(hi - base) as usize]
            .iter()
            .enumerate()
            .map(move |(i, &v)| (lo + i as u32, v))
    }

    /// The directed link id `u → v`, when that fabric link exists.
    pub fn sw_link(&self, u: Switch, v: Switch) -> Option<LinkId> {
        self.switch_links(u)
            .find(|&(_, w)| w == v)
            .map(|(id, _)| id)
    }

    /// The fabric adjacency with dead directed links (indexed by
    /// [`LinkId`]) removed in both directions — input for rebuilding a
    /// routing table after mid-run faults.
    pub fn adjacency_excluding(&self, dead_link: &[bool]) -> Vec<Vec<Switch>> {
        (0..self.num_switches())
            .map(|s| {
                self.switch_links(s)
                    .filter(|&(id, v)| {
                        !dead_link[id as usize]
                            && self
                                .sw_link(v, s)
                                .is_none_or(|back| !dead_link[back as usize])
                    })
                    .map(|(_, v)| v)
                    .collect()
            })
            .collect()
    }

    /// The directed-link route for a flow `src → dst`, ECMP-resolved by
    /// `flow_hash`, through this network's own routing table.
    pub fn route(&self, src: Host, dst: Host, flow_hash: u64) -> Result<Vec<LinkId>, RouteError> {
        self.route_with(&self.table, src, dst, flow_hash)
    }

    /// Routes `src → dst` through an externally supplied table — how the
    /// simulator re-routes after mid-run faults without recompiling the
    /// network. Dead endpoints and cut-off pairs surface as errors.
    pub fn route_with(
        &self,
        table: &RoutingTable,
        src: Host,
        dst: Host,
        flow_hash: u64,
    ) -> Result<Vec<LinkId>, RouteError> {
        let mut links = Vec::new();
        self.route_with_into(table, src, dst, flow_hash, &mut links)?;
        Ok(links)
    }

    /// [`route_with`](Self::route_with) writing into a caller-owned
    /// buffer (cleared first) — lets per-flow callers reuse one
    /// allocation across millions of routes. Walks `next_hop` directly,
    /// skipping the intermediate switch-path Vec `try_path` would
    /// build, and reserves the exact hop count up front.
    pub fn route_with_into(
        &self,
        table: &RoutingTable,
        src: Host,
        dst: Host,
        flow_hash: u64,
        links: &mut Vec<LinkId>,
    ) -> Result<(), RouteError> {
        assert_ne!(src, dst, "self-messages never hit the network");
        let s = self.host_sw[src as usize];
        let d = self.host_sw[dst as usize];
        if self.dead_host[src as usize] {
            return Err(RouteError::DeadEndpoint { switch: s });
        }
        if self.dead_host[dst as usize] {
            return Err(RouteError::DeadEndpoint { switch: d });
        }
        let hash = match self.cfg.route_mode {
            RouteMode::SinglePath => 0,
            RouteMode::Ecmp => flow_hash,
        };
        let hops = if s == d {
            0
        } else {
            table
                .distance(s, d)
                .ok_or(RouteError::Unreachable { src: s, dst: d })? as usize
        };
        links.clear();
        links.reserve(hops + 2);
        links.push(src); // uplink
        let mut cur = s;
        while cur != d {
            let nxt = table
                .next_hop(cur, d, hash)
                .ok_or(RouteError::Unreachable { src: s, dst: d })?;
            links.push(
                self.sw_link(cur, nxt)
                    .expect("routing tables only use fabric links"),
            );
            cur = nxt;
        }
        links.push(self.num_hosts + dst); // downlink
        Ok(())
    }

    /// Message latency component: software overhead plus per-hop wire and
    /// switch delay for a route of `hops` links.
    pub fn message_delay(&self, hops: usize) -> f64 {
        self.cfg.sw_overhead + hops as f64 * self.cfg.hop_latency
    }

    /// Classifies a directed link id as `(kind, a, b)`: kind 0 is a host
    /// uplink (`a` = host, `b` = its switch), kind 1 a host downlink
    /// (`a` = switch, `b` = host), kind 2 a switch→switch fabric link
    /// (`a` → `b`). Inverse of the link-id layout of [`Network::route`].
    ///
    /// # Panics
    /// Panics when `id >= num_links()`.
    pub fn link_endpoints(&self, id: LinkId) -> (u8, u32, u32) {
        let n = self.num_hosts;
        assert!(id < self.num_links, "link id out of range");
        if id < n {
            return (0, id, self.host_sw[id as usize]);
        }
        if id < 2 * n {
            let h = id - n;
            return (1, self.host_sw[h as usize], h);
        }
        // sw_offsets is sorted (with duplicates for fabric-less switches);
        // the owner is the last switch whose first slot is <= id
        let s = self.sw_offsets.partition_point(|&o| o <= id) - 1;
        let v = self.sw_neighbors[(id - 2 * n) as usize];
        (2, s as u32, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> (HostSwitchGraph, Network) {
        // h0 - s0 - s1 - s2 - h1 ; plus h2 on s0
        let mut g = HostSwitchGraph::new(3, 4).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(1, 2).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(2).unwrap();
        g.attach_host(0).unwrap();
        let net = Network::builder(&g).build();
        (g, net)
    }

    #[test]
    fn route_crosses_expected_links() {
        let (_, net) = line();
        let r = net.route(0, 1, 0).unwrap();
        // uplink + 2 switch links + downlink
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], 0); // host 0 uplink
        assert_eq!(*r.last().unwrap(), net.num_hosts() + 1);
    }

    #[test]
    fn same_switch_route_is_two_links() {
        let (_, net) = line();
        let r = net.route(0, 2, 0).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r, vec![0, 3 + 2]);
    }

    #[test]
    fn degraded_network_reports_cut_pairs() {
        use orp_core::fault::FaultSet;
        use orp_route::RouteError;
        // h0 - s0 - s1 - s2 - h1: killing link (1,2) cuts 0 from 1
        let (g, _) = line();
        let mut f = FaultSet::new();
        f.fail_link(1, 2);
        let net = Network::builder(&g).faults(&f).build();
        assert_eq!(
            net.route(0, 1, 0),
            Err(RouteError::Unreachable { src: 0, dst: 2 })
        );
        // same-switch pair is unaffected
        assert!(net.route(0, 2, 0).is_ok());
        // a dead switch kills its hosts outright
        let mut f = FaultSet::new();
        f.fail_switch(2);
        let net = Network::builder(&g).faults(&f).build();
        assert!(net.host_dead(1));
        assert_eq!(
            net.route(0, 1, 0),
            Err(RouteError::DeadEndpoint { switch: 2 })
        );
    }

    #[test]
    fn adjacency_excluding_drops_both_directions() {
        let (_, net) = line();
        let mut dead = vec![false; net.num_links() as usize];
        // kill s0→s1 only; exclusion must drop s1→s0 too
        let id = net.sw_link(0, 1).unwrap();
        dead[id as usize] = true;
        let adj = net.adjacency_excluding(&dead);
        assert!(adj[0].is_empty());
        assert_eq!(adj[1], vec![2]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn link_count_accounts_directions() {
        let (_, net) = line();
        // 3 hosts × 2 + 2 undirected switch links × 2
        assert_eq!(net.num_links(), 10);
    }

    #[test]
    fn message_delay_scales_with_hops() {
        let (_, net) = line();
        let d2 = net.message_delay(2);
        let d4 = net.message_delay(4);
        let cfg = net.config();
        assert!((d4 - d2 - 2.0 * cfg.hop_latency).abs() < 1e-15);
        assert!(d2 > cfg.sw_overhead);
    }

    #[test]
    fn link_endpoints_invert_the_id_layout() {
        let (g, net) = line();
        let n = g.num_hosts();
        // uplinks and downlinks
        for h in 0..n {
            assert_eq!(net.link_endpoints(h), (0, h, g.switch_of(h)));
            assert_eq!(net.link_endpoints(n + h), (1, g.switch_of(h), h));
        }
        // every fabric link round-trips through sw_link
        for s in 0..net.num_switches() {
            for (id, v) in net.switch_links(s) {
                assert_eq!(net.link_endpoints(id), (2, s, v));
            }
        }
        // the links of an actual route classify sensibly
        let r = net.route(0, 1, 0).unwrap();
        assert_eq!(net.link_endpoints(r[0]).0, 0);
        assert_eq!(net.link_endpoints(*r.last().unwrap()).0, 1);
        for &l in &r[1..r.len() - 1] {
            assert_eq!(net.link_endpoints(l).0, 2);
        }
    }

    #[test]
    #[should_panic(expected = "self-messages")]
    fn self_route_panics() {
        let (_, net) = line();
        let _ = net.route(1, 1, 0);
    }

    #[test]
    fn builder_records_static_faults() {
        let (g, _) = line();
        let mut f = FaultSet::new();
        f.fail_link(1, 2);
        f.fail_switch(2);
        let rec = Recorder::enabled();
        let net = Network::builder(&g)
            .faults(&f)
            .recorder(rec.clone())
            .build();
        assert!(net.recorder().is_enabled());
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.event_count("fault.link_down"), 1);
        assert_eq!(snap.event_count("fault.switch_down"), 1);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "net.compile");
    }

    #[test]
    fn configured_and_degraded_builders_route_consistently() {
        let (g, _) = line();
        let cfg_built = Network::builder(&g).config(NetConfig::default()).build();
        let built = Network::builder(&g).build();
        assert_eq!(cfg_built.num_links(), built.num_links());
        assert_eq!(cfg_built.route(0, 1, 0), built.route(0, 1, 0));
        let mut f = FaultSet::new();
        f.fail_link(1, 2);
        let degraded = Network::builder(&g)
            .config(NetConfig::default())
            .faults(&f)
            .build();
        let built = Network::builder(&g).faults(&f).build();
        assert_eq!(degraded.route(0, 1, 0), built.route(0, 1, 0));
        assert_eq!(degraded.route(0, 2, 0), built.route(0, 2, 0));
    }
}
