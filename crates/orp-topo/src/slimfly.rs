//! The Slim Fly (Besta & Hoefler, SC'14) — the paper's reference \[2\] and
//! the strongest low-diameter conventional design: a diameter-2
//! McKay–Miller–Širáň (MMS) graph used as the switch fabric.
//!
//! Construction (for prime `q ≡ 1 (mod 4)`): two groups of `q²` switches,
//! `(0, x, y)` and `(1, m, c)` with coordinates in `F_q`.
//!
//! * `(0, x, y) ~ (0, x, y')` iff `y − y'` is a nonzero quadratic
//!   residue,
//! * `(1, m, c) ~ (1, m, c')` iff `c − c'` is a non-residue,
//! * `(0, x, y) ~ (1, m, c)` iff `y = m·x + c`.
//!
//! Network radix `k = (3q − 1)/2`, `2q²` switches, diameter 2. With
//! `q = 5` this is the Hoffman–Singleton graph — a Moore graph, which
//! our tests exploit.

use crate::spec::Topology;
use orp_core::error::GraphError;
use orp_core::graph::{HostSwitchGraph, Switch};

/// A Slim Fly over the prime field `F_q` (`q` prime, `q ≡ 1 mod 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlimFly {
    /// The field size (5, 13, 17, 29, …).
    pub q: u32,
    /// Switch radix; must be at least the network degree `(3q − 1)/2`.
    pub radix: u32,
}

impl SlimFly {
    /// The MMS network degree `(3q − 1)/2`.
    pub fn network_degree(&self) -> u32 {
        (3 * self.q - 1) / 2
    }

    /// A Slim Fly with the Besta–Hoefler balanced host count: ⌈k/2⌉
    /// extra ports per switch for hosts.
    pub fn balanced(q: u32) -> Self {
        let k = (3 * q - 1) / 2;
        Self {
            q,
            radix: k + k.div_ceil(2),
        }
    }

    fn check(&self) -> Result<(), GraphError> {
        let q = self.q;
        if q < 5 || q % 4 != 1 || !is_prime(q) {
            return Err(GraphError::InvalidParameters(format!(
                "Slim Fly needs a prime q ≡ 1 (mod 4), got {q}"
            )));
        }
        if self.radix < self.network_degree() {
            return Err(GraphError::InvalidParameters(format!(
                "radix {} below the MMS degree {}",
                self.radix,
                self.network_degree()
            )));
        }
        Ok(())
    }

    /// Switch id of `(group, a, b)`.
    fn switch(&self, group: u32, a: u32, b: u32) -> Switch {
        group * self.q * self.q + a * self.q + b
    }
}

fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u32;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl Topology for SlimFly {
    fn name(&self) -> String {
        format!("slim fly (q={}, r={})", self.q, self.radix)
    }

    fn radix(&self) -> u32 {
        self.radix
    }

    fn num_switches(&self) -> u32 {
        2 * self.q * self.q
    }

    fn max_hosts(&self) -> u32 {
        (self.radix - self.network_degree()) * self.num_switches()
    }

    fn build_fabric(&self) -> Result<HostSwitchGraph, GraphError> {
        self.check()?;
        let q = self.q;
        let mut g = HostSwitchGraph::new(self.num_switches(), self.radix)?;
        // nonzero quadratic residues of F_q
        let mut residue = vec![false; q as usize];
        for v in 1..q {
            residue[((v * v) % q) as usize] = true;
        }
        // intra-group edges
        for x in 0..q {
            for y in 0..q {
                for y2 in (y + 1)..q {
                    let diff = ((y2 + q - y) % q) as usize;
                    // group 0 connects on residues, group 1 on non-residues
                    if residue[diff] {
                        g.add_link(self.switch(0, x, y), self.switch(0, x, y2))?;
                    } else {
                        g.add_link(self.switch(1, x, y), self.switch(1, x, y2))?;
                    }
                }
            }
        }
        // bipartite edges: y = m·x + c
        for x in 0..q {
            for y in 0..q {
                for m in 0..q {
                    let c = (y + q * q - (m * x) % q) % q;
                    g.add_link(self.switch(0, x, y), self.switch(1, m, c))?;
                }
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attach::AttachOrder;
    use orp_core::metrics::path_metrics;

    #[test]
    fn q5_is_the_hoffman_singleton_graph() {
        // 50 vertices, 7-regular, diameter 2, girth 5 — the unique Moore
        // graph of degree 7.
        let sf = SlimFly { q: 5, radix: 7 };
        let g = sf.build_fabric().unwrap();
        assert_eq!(g.num_switches(), 50);
        assert!((0..50).all(|s| g.neighbors(s).len() == 7));
        assert_eq!(g.num_links(), 50 * 7 / 2);
        for s in 0..50 {
            let d = g.switch_distances(s);
            assert_eq!(d.iter().copied().max().unwrap(), 2, "ecc from {s}");
            // Moore graph: exactly 7 at distance 1, 42 at distance 2
            assert_eq!(d.iter().filter(|&&x| x == 1).count(), 7);
            assert_eq!(d.iter().filter(|&&x| x == 2).count(), 42);
        }
    }

    #[test]
    fn q13_diameter_two() {
        let sf = SlimFly { q: 13, radix: 19 };
        let g = sf.build_fabric().unwrap();
        assert_eq!(g.num_switches(), 338);
        assert_eq!(sf.network_degree(), 19);
        assert!((0..338).all(|s| g.neighbors(s).len() == 19));
        let d = g.switch_distances(0);
        assert_eq!(d.iter().copied().max().unwrap(), 2);
    }

    #[test]
    fn balanced_instance_hosts() {
        let sf = SlimFly::balanced(5);
        // k = 7, hosts per switch = 4, radix 11
        assert_eq!(sf.radix, 11);
        assert_eq!(sf.max_hosts(), 200);
        let g = sf.build_with_hosts(100, AttachOrder::RoundRobin).unwrap();
        let pm = path_metrics(&g).unwrap();
        assert_eq!(pm.diameter, 4); // 2 switch hops + 2
        assert!(pm.haspl < 4.0);
    }

    #[test]
    fn rejects_bad_fields() {
        assert!(SlimFly { q: 7, radix: 20 }.build_fabric().is_err()); // 7 ≡ 3 mod 4
        assert!(SlimFly { q: 9, radix: 20 }.build_fabric().is_err()); // not prime
        assert!(SlimFly { q: 5, radix: 6 }.build_fabric().is_err()); // radix too small
    }

    #[test]
    fn slim_fly_beats_dragonfly_haspl_at_similar_size() {
        // q=13: 338 switches r=29 balanced vs dragonfly a=8: 264 switches
        let sf = SlimFly::balanced(13);
        let g = sf.build_with_hosts(1024, AttachOrder::RoundRobin).unwrap();
        let h_sf = path_metrics(&g).unwrap().haspl;
        let df = crate::dragonfly::Dragonfly::paper_a8()
            .build_with_hosts(1024, AttachOrder::Sequential)
            .unwrap();
        let h_df = path_metrics(&df).unwrap().haspl;
        assert!(h_sf < h_df, "slim fly {h_sf} vs dragonfly {h_df}");
    }
}
