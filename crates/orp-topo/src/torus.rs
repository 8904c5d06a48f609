//! The K-ary N-torus of §6.1.1: all switches form a `K`-dimensional torus
//! with `N` switches per dimension; each switch spends `2K` ports on the
//! torus (or `K` ports when `N = 2`) and can host up to `r − 2K` hosts.
//!
//! Formulae (3): `m = N^K`, `n ≤ (r − 2K)·N^K`, `r > 2K`.

use crate::spec::Topology;
use orp_core::error::GraphError;
use orp_core::graph::{HostSwitchGraph, Switch};

/// A `dim`-dimensional torus with `base` switches per dimension
/// (the paper's `K`-ary `N`-torus with `K = dim`, `N = base`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    /// Number of dimensions (the paper's `K`).
    pub dim: u32,
    /// Switches per dimension (the paper's `N`).
    pub base: u32,
    /// Switch radix `r`; must exceed `2·dim`.
    pub radix: u32,
}

impl Torus {
    /// The 5-D torus used for the Fig. 9 comparison: `K = 5`, `N = 3`,
    /// `r = 15` (Sequoia-like; `m = 243`, `n ≤ 1215`).
    pub fn paper_5d() -> Self {
        Self {
            dim: 5,
            base: 3,
            radix: 15,
        }
    }

    /// Switch address → id (`Σ aᵢ·Nⁱ`).
    fn index(&self, addr: &[u32]) -> Switch {
        let mut id = 0u64;
        for &a in addr.iter().rev() {
            id = id * self.base as u64 + a as u64;
        }
        id as Switch
    }

    /// Validates the parameters (3c): `r > 2K`, `N ≥ 2`, `K ≥ 1`.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.dim == 0 || self.base < 2 {
            return Err(GraphError::InvalidParameters(format!(
                "torus needs dim >= 1 and base >= 2, got K={} N={}",
                self.dim, self.base
            )));
        }
        let ports = self.torus_ports();
        if self.radix <= ports {
            return Err(GraphError::InvalidParameters(format!(
                "radix {} must exceed the {ports} torus ports",
                self.radix
            )));
        }
        if (self.base as u64).pow(self.dim) > u32::MAX as u64 {
            return Err(GraphError::InvalidParameters("torus too large".into()));
        }
        Ok(())
    }

    /// Ports each switch spends on torus links: `2K`, except `K` when
    /// `N = 2` (both ring directions reach the same switch).
    pub fn torus_ports(&self) -> u32 {
        if self.base == 2 {
            self.dim
        } else {
            2 * self.dim
        }
    }
}

impl Topology for Torus {
    fn name(&self) -> String {
        format!("{}-D {}-ary torus (r={})", self.dim, self.base, self.radix)
    }

    fn radix(&self) -> u32 {
        self.radix
    }

    fn num_switches(&self) -> u32 {
        (self.base as u64).pow(self.dim) as u32
    }

    fn max_hosts(&self) -> u32 {
        (self.radix - self.torus_ports()) * self.num_switches()
    }

    fn build_fabric(&self) -> Result<HostSwitchGraph, GraphError> {
        self.validate()?;
        let m = self.num_switches();
        let mut g = HostSwitchGraph::new(m, self.radix)?;
        let mut addr = vec![0u32; self.dim as usize];
        for s in 0..m {
            // decode address of s
            let mut rest = s;
            for a in addr.iter_mut() {
                *a = rest % self.base;
                rest /= self.base;
            }
            for d in 0..self.dim as usize {
                let orig = addr[d];
                let up = (orig + 1) % self.base;
                addr[d] = up;
                let t = self.index(&addr);
                addr[d] = orig;
                // add each undirected edge once
                if !g.has_link(s, t) {
                    g.add_link(s, t)?;
                }
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::metrics::path_metrics;

    #[test]
    fn paper_5d_parameters() {
        let t = Torus::paper_5d();
        assert_eq!(t.num_switches(), 243);
        assert_eq!(t.max_hosts(), 1215);
        assert_eq!(t.radix(), 15);
    }

    #[test]
    fn fabric_is_2k_regular() {
        let t = Torus {
            dim: 3,
            base: 4,
            radix: 8,
        };
        let g = t.build_fabric().unwrap();
        assert_eq!(g.num_switches(), 64);
        assert!((0..64).all(|s| g.neighbors(s).len() == 6));
        assert_eq!(g.num_links(), 64 * 6 / 2);
        assert!(g.is_connected());
    }

    #[test]
    fn base_two_collapses_to_hypercube() {
        let t = Torus {
            dim: 4,
            base: 2,
            radix: 6,
        };
        let g = t.build_fabric().unwrap();
        assert_eq!(g.num_switches(), 16);
        // each switch has 4 distinct neighbours (±1 mod 2 coincide)
        assert!((0..16).all(|s| g.neighbors(s).len() == 4));
        assert!(g.is_connected());
    }

    #[test]
    fn ring_distances() {
        // 1-D 6-ary torus is a 6-ring.
        let t = Torus {
            dim: 1,
            base: 6,
            radix: 4,
        };
        let g = t.build_fabric().unwrap();
        let d = g.switch_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn torus_diameter_with_hosts() {
        // 2-D 3-ary torus, 1 host per switch: switch diameter = 2·⌊3/2⌋ = 2,
        // host diameter = 4.
        let t = Torus {
            dim: 2,
            base: 3,
            radix: 6,
        };
        let mut g = t.build_fabric().unwrap();
        for s in 0..9 {
            g.attach_host(s).unwrap();
        }
        let m = path_metrics(&g).unwrap();
        assert_eq!(m.diameter, 4);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Torus {
            dim: 5,
            base: 3,
            radix: 10
        }
        .build_fabric()
        .is_err());
        assert!(Torus {
            dim: 0,
            base: 3,
            radix: 10
        }
        .build_fabric()
        .is_err());
        assert!(Torus {
            dim: 2,
            base: 1,
            radix: 10
        }
        .build_fabric()
        .is_err());
    }
}
