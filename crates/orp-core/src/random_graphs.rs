//! Random-graph baselines from the related work the paper builds on
//! (§2.1): Erdős–Rényi, Watts–Strogatz small worlds, the
//! Bollobás–Chung "cycle plus random matching", and Barabási–Albert
//! scale-free graphs — each lifted to a host-switch graph so they can be
//! compared against ORP solutions under identical `(n, r)` budgets.
//!
//! The paper's §2.1 argument, reproducible with these generators: local
//! search beats naive random topologies, and scale-free degree
//! distributions are impractical under a fixed radix.

use crate::construct::fill_free_ports;
use crate::error::GraphError;
use crate::graph::{HostSwitchGraph, Switch};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Spreads `n` hosts over `m` switches as evenly as possible, requiring
/// `reserve` free ports on every switch afterwards.
fn attach_balanced(g: &mut HostSwitchGraph, n: u32, reserve: u32) -> Result<(), GraphError> {
    let m = g.num_switches();
    // round-robin, skipping switches whose remaining ports (beyond the
    // reservation) ran out — keeps the distribution as even as capacity
    // allows
    let mut left = n;
    while left > 0 {
        let mut placed = false;
        for s in 0..m {
            if left == 0 {
                break;
            }
            if g.free_ports(s) > reserve {
                g.attach_host(s)?;
                left -= 1;
                placed = true;
            }
        }
        if !placed {
            return Err(GraphError::InvalidParameters(format!(
                "cannot hold {n} hosts with {reserve} reserved ports per switch"
            )));
        }
    }
    Ok(())
}

/// Erdős–Rényi-flavoured host-switch graph: hosts spread evenly, then
/// random switch links inserted until every port is used (at most one
/// stray port remains) — i.e. `G(m, M)` conditioned on the radix budget.
/// Connectivity is *not* guaranteed for very sparse budgets; retries a
/// few seeds and errors if all attempts disconnect.
pub fn erdos_renyi(n: u32, m: u32, r: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    for attempt in 0..16u64 {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9e3779b97f4a7c15)));
        let mut g = HostSwitchGraph::new(m, r)?;
        attach_balanced(&mut g, n, 2)?;
        fill_free_ports(&mut g, &mut rng);
        if g.hosts_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::ConstructionFailed(
        "Erdős–Rényi fabric stayed disconnected".into(),
    ))
}

/// Bollobás–Chung: a Hamiltonian cycle over the switches plus a random
/// perfect matching (requires even `m`); the classic diameter-
/// `O(log m)` construction the paper cites as \[6\]. Remaining ports hold
/// hosts.
pub fn cycle_plus_matching(
    n: u32,
    m: u32,
    r: u32,
    seed: u64,
) -> Result<HostSwitchGraph, GraphError> {
    if m < 4 || !m.is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!(
            "cycle-plus-matching needs even m >= 4, got {m}"
        )));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    'attempt: for _ in 0..32 {
        let mut g = HostSwitchGraph::new(m, r)?;
        attach_balanced(&mut g, n, 3)?;
        for s in 0..m {
            g.add_link(s, (s + 1) % m)?;
        }
        // random perfect matching avoiding existing cycle edges
        let mut order: Vec<Switch> = (0..m).collect();
        order.shuffle(&mut rng);
        for pair in order.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if g.has_link(a, b) || g.add_link(a, b).is_err() {
                continue 'attempt; // resample the matching
            }
        }
        return Ok(g);
    }
    Err(GraphError::ConstructionFailed(
        "no valid matching found".into(),
    ))
}

/// Watts–Strogatz small world over the switches: a ring lattice where
/// each switch links to its `k/2` nearest neighbours per side, then each
/// lattice edge rewires with probability `beta` (0 = lattice,
/// 1 ≈ random). Hosts fill the remaining ports evenly.
pub fn watts_strogatz(
    n: u32,
    m: u32,
    k: u32,
    beta: f64,
    r: u32,
    seed: u64,
) -> Result<HostSwitchGraph, GraphError> {
    if !k.is_multiple_of(2) || k < 2 || k >= m {
        return Err(GraphError::InvalidParameters(format!(
            "Watts–Strogatz needs even 2 <= k < m, got k={k} m={m}"
        )));
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(GraphError::InvalidParameters(format!(
            "beta={beta} not in [0,1]"
        )));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = HostSwitchGraph::new(m, r)?;
    // lattice
    for s in 0..m {
        for d in 1..=(k / 2) {
            let t = (s + d) % m;
            if !g.has_link(s, t) {
                g.add_link(s, t)?;
            }
        }
    }
    // rewire
    for s in 0..m {
        for d in 1..=(k / 2) {
            let t = (s + d) % m;
            if rng.gen::<f64>() < beta && g.has_link(s, t) {
                // pick a fresh endpoint with a free port
                for _ in 0..64 {
                    let u = rng.gen_range(0..m);
                    if u != s && !g.has_link(s, u) && g.free_ports(u) > 0 {
                        g.remove_link(s, t)?;
                        g.add_link(s, u)?;
                        break;
                    }
                }
            }
        }
    }
    attach_balanced(&mut g, n, 0)?;
    if !g.hosts_connected() {
        return Err(GraphError::ConstructionFailed(
            "rewiring disconnected hosts".into(),
        ));
    }
    Ok(g)
}

/// Barabási–Albert preferential attachment over the switches (`k` links
/// per arriving switch), host ports filled afterwards where the radix
/// allows. Produces the power-law-ish degree profile of §2.1's
/// scale-free discussion — note how the radix cap truncates the tail,
/// which is exactly the paper's practicality objection.
pub fn barabasi_albert(
    n: u32,
    m: u32,
    k: u32,
    r: u32,
    seed: u64,
) -> Result<HostSwitchGraph, GraphError> {
    if k < 1 || k >= m || k >= r {
        return Err(GraphError::InvalidParameters(format!(
            "Barabási–Albert needs 1 <= k < min(m, r), got k={k}"
        )));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = HostSwitchGraph::new(m, r)?;
    // seed clique of k+1 switches
    let seed_sz = k + 1;
    for a in 0..seed_sz {
        for b in (a + 1)..seed_sz {
            g.add_link(a, b)?;
        }
    }
    // endpoint pool: one entry per incident edge (preferential weights)
    let mut pool: Vec<Switch> = Vec::new();
    for s in 0..seed_sz {
        for _ in 0..g.neighbors(s).len() {
            pool.push(s);
        }
    }
    for s in seed_sz..m {
        let mut added = 0;
        let mut guard = 0;
        while added < k && guard < 1000 {
            guard += 1;
            let t = pool[rng.gen_range(0..pool.len())];
            if t != s && !g.has_link(s, t) && g.free_ports(t) > 0 && g.free_ports(s) > 0 {
                g.add_link(s, t)?;
                pool.push(s);
                pool.push(t);
                added += 1;
            }
        }
        if added == 0 {
            return Err(GraphError::ConstructionFailed(format!(
                "switch {s} found no attachment targets"
            )));
        }
    }
    // hosts go wherever ports remain, round robin
    let mut left = n;
    let mut guard = 0;
    while left > 0 {
        let mut progressed = false;
        for s in 0..m {
            if left == 0 {
                break;
            }
            if g.free_ports(s) > 0 {
                g.attach_host(s)?;
                left -= 1;
                progressed = true;
            }
        }
        guard += 1;
        if !progressed || guard > r {
            return Err(GraphError::InvalidParameters(format!(
                "only {} of {n} hosts fit the scale-free fabric",
                n - left
            )));
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::path_metrics;

    #[test]
    fn erdos_renyi_uses_all_ports() {
        let g = erdos_renyi(128, 32, 12, 5).unwrap();
        g.validate().unwrap();
        let free: u32 = (0..32).map(|s| g.free_ports(s)).sum();
        assert!(free <= 1);
        assert!(path_metrics(&g).unwrap().haspl > 2.0);
    }

    #[test]
    fn cycle_plus_matching_degree_profile() {
        let g = cycle_plus_matching(64, 32, 8, 5).unwrap();
        g.validate().unwrap();
        // every switch: 2 cycle + 1 matching links
        assert!((0..32).all(|s| g.neighbors(s).len() == 3));
        assert!(g.is_connected());
    }

    #[test]
    fn cycle_plus_matching_needs_even_m() {
        assert!(cycle_plus_matching(10, 5, 8, 0).is_err());
    }

    #[test]
    fn watts_strogatz_extremes() {
        // beta=0: pure lattice — ring distances
        let g0 = watts_strogatz(32, 16, 4, 0.0, 8, 5).unwrap();
        g0.validate().unwrap();
        assert!((0..16).all(|s| g0.neighbors(s).len() == 4));
        // beta=1: heavily rewired but still valid
        let g1 = watts_strogatz(32, 16, 4, 1.0, 8, 5).unwrap();
        g1.validate().unwrap();
        // rewiring should shrink the ASPL vs the lattice (whp)
        let a0 = path_metrics(&g0).unwrap().haspl;
        let a1 = path_metrics(&g1).unwrap().haspl;
        assert!(a1 <= a0 + 0.2, "lattice {a0} vs rewired {a1}");
    }

    #[test]
    fn watts_strogatz_rejects_bad_k() {
        assert!(watts_strogatz(32, 16, 3, 0.5, 8, 0).is_err());
        assert!(watts_strogatz(32, 16, 16, 0.5, 8, 0).is_err());
    }

    #[test]
    fn barabasi_albert_has_skewed_degrees() {
        let g = barabasi_albert(60, 60, 2, 20, 5).unwrap();
        g.validate().unwrap();
        let degs: Vec<usize> = (0..60).map(|s| g.neighbors(s).len()).collect();
        let max = *degs.iter().max().unwrap();
        let min = *degs.iter().min().unwrap();
        assert!(max >= 3 * min, "expected a heavy tail, got {min}..{max}");
    }

    #[test]
    fn barabasi_albert_radix_caps_the_tail() {
        let g = barabasi_albert(0, 80, 2, 6, 5).unwrap();
        assert!((0..80).all(|s| g.switch_degree(s) <= 6));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            erdos_renyi(64, 16, 10, 3).unwrap(),
            erdos_renyi(64, 16, 10, 3).unwrap()
        );
        assert_eq!(
            watts_strogatz(32, 16, 4, 0.3, 8, 3).unwrap(),
            watts_strogatz(32, 16, 4, 0.3, 8, 3).unwrap()
        );
    }
}
