//! Order/Degree Problem (ODP) interop — the Graph Golf competition the
//! paper cites as [4].
//!
//! ODP works on plain graphs (the paper's predecessor problem): given
//! order and degree, minimise diameter then ASPL. This module exports a
//! host-switch graph's *switch fabric* in the competition's edge-list
//! format, parses such files, and scores them with the competition
//! metrics (diameter/ASPL gaps against the Moore bound).

use crate::bounds::moore_aspl;
use crate::error::{GraphError, ParseError};
use crate::graph::HostSwitchGraph;
use crate::metrics::switch_aspl;

/// Graph Golf scoring of a plain (switch) graph.
#[derive(Debug, Clone, PartialEq)]
pub struct OdpScore {
    /// Number of vertices.
    pub order: u64,
    /// Maximum degree.
    pub degree: u32,
    /// Measured diameter.
    pub diameter: u32,
    /// Measured ASPL.
    pub aspl: f64,
    /// Moore lower bound on the ASPL at this order/degree.
    pub aspl_lower_bound: f64,
    /// The competition's figure of merit: `(ASPL − bound)/bound`.
    pub aspl_gap: f64,
}

/// Scores the switch fabric of `g` with the ODP metrics; `None` if the
/// fabric is disconnected or trivial.
pub fn score(g: &HostSwitchGraph) -> Option<OdpScore> {
    let m = g.num_switches() as u64;
    if m < 2 {
        return None;
    }
    let aspl = switch_aspl(g)?;
    let degree = (0..g.num_switches())
        .map(|s| g.neighbors(s).len() as u32)
        .max()
        .unwrap_or(0);
    let mut diameter = 0;
    for s in 0..g.num_switches() {
        let ecc = g.switch_distances(s).into_iter().max().unwrap();
        if ecc == u32::MAX {
            return None;
        }
        diameter = diameter.max(ecc);
    }
    let bound = moore_aspl(m, degree as u64)?;
    Some(OdpScore {
        order: m,
        degree,
        diameter,
        aspl,
        aspl_lower_bound: bound,
        aspl_gap: (aspl - bound) / bound,
    })
}

/// Serializes the switch fabric as a Graph Golf edge list: one
/// `u v` pair per line.
pub fn to_edge_list(g: &HostSwitchGraph) -> String {
    let mut links: Vec<_> = g.links().collect();
    links.sort_unstable();
    let mut out = String::new();
    for (a, b) in links {
        out.push_str(&format!("{a} {b}\n"));
    }
    out
}

/// Parses a Graph Golf edge list into a host-less host-switch graph with
/// the given radix (must cover the maximum degree).
pub fn from_edge_list(text: &str, radix: u32) -> Result<HostSwitchGraph, ParseError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_v = 0u32;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = || ParseError::BadLine {
            line_no: idx + 1,
            content: raw.to_string(),
        };
        let mut it = line.split_whitespace();
        let a: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let b: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        max_v = max_v.max(a).max(b);
        edges.push((a, b));
    }
    if edges.is_empty() {
        return Err(ParseError::BadHeader("empty edge list".into()));
    }
    // vertices are named only by edges, so E lines name at most 2E of
    // them; check before allocating (and before `max_v + 1` can wrap)
    if u64::from(max_v) >= 2 * edges.len() as u64 {
        return Err(ParseError::BadHeader(format!(
            "vertex id {max_v} but {} edges name at most {} vertices",
            edges.len(),
            2 * edges.len()
        )));
    }
    let mut g = HostSwitchGraph::new(max_v + 1, radix).map_err(ParseError::Graph)?;
    for (a, b) in edges {
        g.add_link(a, b).map_err(ParseError::Graph)?;
    }
    Ok(g)
}

/// Converts an ODP solution into an ORP candidate: spreads `n` hosts
/// over the fabric as evenly as the free ports allow.
pub fn into_host_switch(mut g: HostSwitchGraph, n: u32) -> Result<HostSwitchGraph, GraphError> {
    let m = g.num_switches();
    let capacity: u32 = (0..m).map(|s| g.free_ports(s)).sum();
    if n > capacity {
        return Err(GraphError::InvalidParameters(format!(
            "fabric has {capacity} free ports, asked for {n} hosts"
        )));
    }
    let mut left = n;
    while left > 0 {
        let mut placed = false;
        for s in 0..m {
            if left == 0 {
                break;
            }
            if g.free_ports(s) > 0 {
                g.attach_host(s)?;
                left -= 1;
                placed = true;
            }
        }
        debug_assert!(placed);
        if !placed {
            break;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::random_regular_fabric;

    #[test]
    fn scoring_a_ring() {
        let mut g = HostSwitchGraph::new(6, 3).unwrap();
        for s in 0..6 {
            g.add_link(s, (s + 1) % 6).unwrap();
        }
        let sc = score(&g).unwrap();
        assert_eq!(sc.order, 6);
        assert_eq!(sc.degree, 2);
        assert_eq!(sc.diameter, 3);
        assert!((sc.aspl - 1.8).abs() < 1e-12);
        // a ring IS the Moore bound graph for degree 2
        assert!(sc.aspl_gap.abs() < 1e-12);
    }

    #[test]
    fn random_fabric_has_positive_gap() {
        let g = random_regular_fabric(40, 4, 7).unwrap();
        let sc = score(&g).unwrap();
        assert!(sc.aspl_gap >= 0.0);
        assert!(sc.aspl >= sc.aspl_lower_bound);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = random_regular_fabric(20, 4, 3).unwrap();
        let text = to_edge_list(&g);
        let g2 = from_edge_list(&text, 4).unwrap();
        assert_eq!(g2.num_switches(), 20);
        assert_eq!(g2.num_links(), g.num_links());
        assert_eq!(score(&g), score(&g2));
    }

    #[test]
    fn bad_edge_lists_rejected() {
        assert!(from_edge_list("", 4).is_err());
        assert!(matches!(
            from_edge_list("0 x\n", 4),
            Err(ParseError::BadLine { line_no: 1, .. })
        ));
        // duplicate edge
        assert!(from_edge_list("0 1\n1 0\n", 4).is_err());
        // vertex ids one edge cannot name: `max_v + 1` would wrap, or
        // allocate ~190 GB of switch tables
        for text in ["0 4294967295\n", "0 4000000000\n", "0 1\n1 4\n"] {
            assert!(
                matches!(from_edge_list(text, 4), Err(ParseError::BadHeader(_))),
                "{text:?}"
            );
        }
        assert_eq!(from_edge_list("0 1\n2 3\n", 4).unwrap().num_switches(), 4);
    }

    #[test]
    fn odp_to_orp_conversion() {
        // re-parse the degree-4 fabric at radix 8 so 4 ports per switch
        // stay free for hosts
        let fabric = random_regular_fabric(20, 4, 8).unwrap();
        let g = from_edge_list(&to_edge_list(&fabric), 8).unwrap();
        let hs = into_host_switch(g, 60).unwrap();
        assert_eq!(hs.num_hosts(), 60);
        hs.validate().unwrap();
        // capacity exceeded: only 80 free ports exist
        let g = from_edge_list(&to_edge_list(&fabric), 8).unwrap();
        assert!(into_host_switch(g, 1000).is_err());
    }

    #[test]
    fn disconnected_scores_none() {
        let mut g = HostSwitchGraph::new(4, 3).unwrap();
        g.add_link(0, 1).unwrap();
        g.add_link(2, 3).unwrap();
        assert!(score(&g).is_none());
    }
}
