//! Constructions of host-switch graphs: the trivial optima of Section 3.2,
//! the clique graphs of the Appendix, and randomized initial solutions for
//! the annealer.

use crate::error::GraphError;
use crate::graph::{HostSwitchGraph, Switch};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The `n ≤ r` optimum: a single switch holding every host (h-ASPL = 2).
pub fn star(n: u32, r: u32) -> Result<HostSwitchGraph, GraphError> {
    if n > r {
        return Err(GraphError::InvalidParameters(format!(
            "star needs n <= r, got n={n} r={r}"
        )));
    }
    let mut g = HostSwitchGraph::new(1, r)?;
    for _ in 0..n {
        g.attach_host(0)?;
    }
    Ok(g)
}

/// A *clique host-switch graph* (Appendix): the minimum number of switches
/// forming a complete graph, hosts spread as evenly as possible. Optimal
/// whenever `r < n ≤ m(r − m + 1)` for some `m` (Theorem 3).
pub fn clique(n: u32, r: u32) -> Result<HostSwitchGraph, GraphError> {
    let m = crate::bounds::min_clique_switches(n as u64, r as u64).ok_or_else(|| {
        GraphError::InvalidParameters(format!(
            "no clique of radix-{r} switches can hold {n} hosts"
        ))
    })? as u32;
    clique_with_switches(n, m, r)
}

/// A clique host-switch graph with exactly `m` switches.
pub fn clique_with_switches(n: u32, m: u32, r: u32) -> Result<HostSwitchGraph, GraphError> {
    if m >= 1 && n as u64 > crate::bounds::clique_capacity(m as u64, r as u64) {
        return Err(GraphError::InvalidParameters(format!(
            "clique with m={m} r={r} holds at most {} hosts, asked {n}",
            crate::bounds::clique_capacity(m as u64, r as u64)
        )));
    }
    let mut g = HostSwitchGraph::new(m, r)?;
    for a in 0..m {
        for b in (a + 1)..m {
            g.add_link(a, b)?;
        }
    }
    for h in 0..n {
        g.attach_host(h % m)?;
    }
    Ok(g)
}

/// A random connected `k`-regular switch fabric with `n` hosts spread
/// `n/m` per switch (the paper's *regular host-switch graph*): requires
/// `m | n` and `k = r − n/m ≥ 2`.
///
/// Strategy: a Hamiltonian ring guarantees connectivity and 2 of the `k`
/// switch ports; the rest are filled by a configuration-model style random
/// matching repaired with edge swaps.
pub fn random_regular(n: u32, m: u32, r: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    if m == 0 || !n.is_multiple_of(m) {
        return Err(GraphError::InvalidParameters(format!(
            "m={m} must divide n={n}"
        )));
    }
    let per = n / m;
    if per > r {
        return Err(GraphError::InvalidParameters(format!(
            "n/m = {per} hosts exceed radix {r}"
        )));
    }
    let k = r - per;
    if m > 1 && k < 2 {
        return Err(GraphError::InvalidParameters(format!(
            "switch degree k = r - n/m = {k} cannot form a connected regular graph"
        )));
    }
    if m == 1 {
        return star(n, r);
    }
    if !(m as u64 * k as u64).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!(
            "m·k = {m}·{k} must be even for a k-regular graph"
        )));
    }
    if k as u64 >= m as u64 {
        // complete graph is the only (m-1)-regular graph; larger k impossible
        if k == m - 1 {
            return clique_with_switches(n, m, r);
        }
        return Err(GraphError::InvalidParameters(format!(
            "k = {k} regular graph on m = {m} vertices does not exist"
        )));
    }
    // The greedy filler can rarely strand ports; retry with derived seeds.
    for attempt in 0..32u64 {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9e3779b97f4a7c15)));
        let mut g = HostSwitchGraph::new(m, r)?;
        for h in 0..n {
            g.attach_host(h % m)?;
        }
        random_fill_ring_first(&mut g, &mut rng)?;
        if g.regularity() == Some((k, per)) && g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::ConstructionFailed(format!(
        "could not realise a connected {k}-regular fabric on m={m} (n={n}, r={r})"
    )))
}

/// A random connected host-switch graph with `m` switches where hosts are
/// spread as evenly as the port budget allows and every remaining port is
/// used for switch links (at most one port in the whole graph stays free,
/// for parity). This is the annealer's initial solution for the swing
/// search.
///
/// The connecting backbone is a random Hamiltonian ring when every
/// switch can spare two ports; tight instances fall back to a path and
/// then a star so that anything the radix budget permits is realisable.
///
/// Most of the cost is [`fill_free_ports`]: one shuffle of the switches
/// with a free port per added link, quadratic in `m` (5.4 billion rng
/// draws at n = 65536, m = 32768, r = 16), and the keystream behind
/// those draws is most of the shuffle's time. A faster pairing would
/// change every seeded graph, so the quadratic fill stays.
pub fn random_general(n: u32, m: u32, r: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    if m == 0 {
        return Err(GraphError::InvalidParameters("m must be positive".into()));
    }
    if n as u64 > m as u64 * r as u64 {
        return Err(GraphError::InvalidParameters(format!(
            "{m} radix-{r} switches hold at most {} hosts, asked {n}",
            m as u64 * r as u64
        )));
    }
    if m == 1 {
        return star(n, r);
    }
    // the graph's own radix check, before the ring capacity subtracts
    // the two ring ports from `r`
    let mut g = HostSwitchGraph::new(m, r)?;
    let ring_cap = m as u64 * (r as u64 - 2);
    let path_cap = ring_cap + 2;
    let star_ok = m - 1 <= r;
    let star_cap = if star_ok {
        (r - (m - 1)) as u64 + (m - 1) as u64 * (r - 1) as u64
    } else {
        0
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<Switch> = (0..m).collect();
    order.shuffle(&mut rng);
    if m == 2 {
        g.add_link(0, 1)?;
    } else if (n as u64) <= ring_cap {
        for i in 0..m as usize {
            g.add_link(order[i], order[(i + 1) % m as usize])?;
        }
    } else if (n as u64) <= path_cap {
        for w in order.windows(2) {
            g.add_link(w[0], w[1])?;
        }
    } else if star_ok && (n as u64) <= star_cap {
        for &leaf in &order[1..] {
            g.add_link(order[0], leaf)?;
        }
    } else {
        return Err(GraphError::InvalidParameters(format!(
            "no connected backbone on m={m} radix-{r} switches leaves room for {n} hosts"
        )));
    }
    // hosts: round-robin over the shuffled order, skipping full switches
    let mut left = n;
    while left > 0 {
        let mut placed = false;
        for &s in &order {
            if left == 0 {
                break;
            }
            if g.free_ports(s) > 0 {
                g.attach_host(s)?;
                left -= 1;
                placed = true;
            }
        }
        debug_assert!(placed, "capacity verified above");
        if !placed {
            return Err(GraphError::ConstructionFailed(
                "host placement stalled".into(),
            ));
        }
    }
    fill_free_ports(&mut g, &mut rng);
    Ok(g)
}

/// Connects all switches in a random Hamiltonian ring, then fills the
/// remaining free ports with random simple edges. At most one odd port may
/// remain unused. Assumes every switch currently has ≥ 2 free ports.
fn random_fill_ring_first<R: Rng>(g: &mut HostSwitchGraph, rng: &mut R) -> Result<(), GraphError> {
    let m = g.num_switches();
    if m == 2 {
        g.add_link(0, 1)?;
        return Ok(());
    }
    let mut ring: Vec<Switch> = (0..m).collect();
    ring.shuffle(rng);
    for i in 0..m as usize {
        g.add_link(ring[i], ring[(i + 1) % m as usize])?;
    }
    fill_free_ports(g, rng);
    Ok(())
}

/// Greedily pairs free ports with random simple edges until no valid pair
/// remains. Uses a bounded number of repair swaps when the remaining free
/// ports are concentrated on adjacent switches.
///
/// Each added link costs one shuffle of the switches that still have a
/// free port, so the fill is quadratic in the switch count: 110.8M
/// bounded draws at n = 16384, m = 6177, r = 12, nearly all of them in
/// the shuffles (the first pair of a shuffled order almost always
/// links). Each draw takes one `u64` of ChaCha8 keystream, which costs
/// about 2.5 ns when the generator refills in AVX2 lanes and about
/// 5 ns through SSE2 (2-core Xeon), so making keystream is most of the
/// fill's time. A cheaper pairing would change every seeded graph, so
/// the shuffle stays; the ascending free-port list it shuffles, and the
/// free-port total, carry over from link to link.
pub fn fill_free_ports<R: Rng>(g: &mut HostSwitchGraph, rng: &mut R) {
    let m = g.num_switches();
    let mut free: Vec<Switch> = (0..m).filter(|&s| g.free_ports(s) > 0).collect();
    let mut total_free: u32 = free.iter().map(|&s| g.free_ports(s)).sum();
    let mut order: Vec<Switch> = Vec::with_capacity(free.len());
    let drop_if_full = |free: &mut Vec<Switch>, g: &HostSwitchGraph, s: Switch| {
        if g.free_ports(s) == 0 {
            let at = free
                .binary_search(&s)
                .expect("free-port switches are listed");
            free.remove(at);
        }
    };
    // Each loop iteration either adds an edge or performs one repair
    // rewire; bound the total to rule out pathological oscillation.
    let budget = 4 * (m as u64 * g.radix() as u64 / 2 + 64);
    for _ in 0..budget {
        if total_free <= 1 {
            return; // at most the parity port remains
        }
        order.clear();
        order.extend_from_slice(&free);
        order.shuffle(rng);
        let mut added = None;
        // try all unordered pairs of port-bearing switches, front-to-back
        'outer: for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (a, b) = (order[i], order[j]);
                if !g.has_link(a, b) && g.add_link(a, b).is_ok() {
                    added = Some((a, b));
                    break 'outer;
                }
            }
        }
        if let Some((a, b)) = added {
            total_free -= 2;
            drop_if_full(&mut free, g, a);
            drop_if_full(&mut free, g, b);
        } else {
            // Remaining free-port switches are pairwise adjacent (or a
            // single switch has >1 free port). Repair: pick a free-port
            // switch a and a random edge {c,d} not touching a, rewire
            // {c,d} → {a,c} + retry; equivalent of one swap step.
            let a = order[0];
            let candidates: Vec<(Switch, Switch)> = g
                .links()
                .filter(|&(c, d)| c != a && d != a && (!g.has_link(a, c) || !g.has_link(a, d)))
                .collect();
            let Some(&(c, d)) = candidates.as_slice().choose(rng) else {
                return;
            };
            let (other, freed) = if !g.has_link(a, c) { (c, d) } else { (d, c) };
            g.remove_link(c, d).expect("edge came from links()");
            g.add_link(a, other)
                .expect("checked not adjacent with free port");
            // a gave one port to `freed`; the total is unchanged
            drop_if_full(&mut free, g, a);
            if let Err(at) = free.binary_search(&freed) {
                free.insert(at, freed);
            }
        }
    }
}

/// A random connected `k`-regular plain graph on `m` vertices embedded as
/// a host-less host-switch fabric (radix `k`, `k ≥ 3`); useful for tests
/// and as a baseline generator.
pub fn random_regular_fabric(m: u32, k: u32, seed: u64) -> Result<HostSwitchGraph, GraphError> {
    if m < 2 || k < 3 || k >= m || !(m as u64 * k as u64).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters(format!(
            "no connected {k}-regular (k >= 3) graph on {m} vertices"
        )));
    }
    for attempt in 0..32u64 {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt.wrapping_mul(0x9e3779b97f4a7c15)));
        let mut g = HostSwitchGraph::new(m, k)?;
        random_fill_ring_first(&mut g, &mut rng)?;
        if g.regularity() == Some((k, 0)) && g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::ConstructionFailed(format!(
        "could not realise a connected {k}-regular fabric on {m} vertices"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::path_metrics;

    #[test]
    fn star_is_haspl_two() {
        let g = star(24, 24).unwrap();
        g.validate().unwrap();
        assert_eq!(path_metrics(&g).unwrap().haspl, 2.0);
        assert!(star(25, 24).is_err());
    }

    #[test]
    fn clique_picks_min_switches() {
        // n=128, r=24 → m=8 per the paper (8·17 = 136 ≥ 128).
        let g = clique(128, 24).unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_switches(), 8);
        let m = path_metrics(&g).unwrap();
        assert!(m.haspl < 3.0, "clique h-ASPL {}", m.haspl);
        assert_eq!(m.diameter, 3);
    }

    #[test]
    fn clique_respects_capacity() {
        assert!(clique_with_switches(200, 8, 24).is_err());
        assert!(clique(157, 24).is_err());
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        for seed in 0..5 {
            let g = random_regular(128, 16, 12, seed).unwrap();
            g.validate().unwrap();
            // per = 8, k = 4
            assert_eq!(g.regularity(), Some((4, 8)));
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_regular_rejects_bad_params() {
        assert!(random_regular(100, 7, 12, 0).is_err()); // 7 ∤ 100
        assert!(random_regular(128, 16, 9, 0).is_err()); // k = 1
                                                         // odd m·k: m=5, per=2, r=5 → k=3, 5·3 odd
        assert!(random_regular(10, 5, 5, 0).is_err());
    }

    #[test]
    fn random_regular_clique_edge_case() {
        // k = m-1 → complete switch graph
        let g = random_regular(8, 4, 5, 1).unwrap(); // per=2, k=3=m-1
        g.validate().unwrap();
        assert_eq!(g.num_links(), 6);
    }

    #[test]
    fn random_general_balances_hosts() {
        let g = random_general(1024, 194, 15, 7).unwrap();
        g.validate().unwrap();
        assert!(g.is_connected());
        let counts = g.host_counts();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*mx - *mn <= 1, "hosts unbalanced: {mn}..{mx}");
        assert_eq!(counts.iter().sum::<u32>(), 1024);
        // all but at most one port used
        let free: u32 = (0..194).map(|s| g.free_ports(s)).sum();
        assert!(free <= 1, "{free} ports left free");
    }

    #[test]
    fn random_general_rejects_overfull() {
        assert!(random_general(1000, 10, 24, 0).is_err());
        // 43 switches × radix 24 could hold the hosts, but not with
        // 2 ring ports per switch
        assert!(random_general(1024, 44, 24, 0).is_err());
        // radix 0 and 1 leave no ring ports to subtract
        for (n, m, r) in [(2, 2, 1), (1, 3, 1), (0, 2, 0)] {
            assert!(
                matches!(
                    random_general(n, m, r, 0),
                    Err(GraphError::InvalidParameters(_))
                ),
                "n={n} m={m} r={r}"
            );
        }
    }

    #[test]
    fn random_general_two_switches() {
        let g = random_general(8, 2, 6, 0).unwrap();
        g.validate().unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = random_general(256, 64, 12, 99).unwrap();
        let b = random_general(256, 64, 12, 99).unwrap();
        assert_eq!(a, b);
        let c = random_general(256, 64, 12, 100).unwrap();
        assert_ne!(a, c);
    }

    /// FNV-1a over every switch's host count and sorted neighbours: a
    /// fingerprint that ignores adjacency-list order.
    fn fingerprint(g: &HostSwitchGraph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u32| {
            for byte in x.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for s in 0..g.num_switches() {
            let mut nbrs = g.neighbors(s).to_vec();
            nbrs.sort_unstable();
            eat(g.host_count(s));
            eat(nbrs.len() as u32);
            nbrs.into_iter().for_each(&mut eat);
        }
        h
    }

    /// Seeded start graphs feed the committed figures, the NPB suite and
    /// the simulator's bit-identity gates, so every seeded stream and
    /// construction must stay exactly as recorded here.
    #[test]
    fn seeded_constructions_match_golden_fingerprints() {
        use crate::random_graphs::erdos_renyi;
        let cases = [
            // the NPB suite's instances; seed 1 takes a repair rewire
            (random_general(1024, 195, 15, 1), 0x2c82_e45e_9c0f_1da6),
            (random_general(1024, 195, 15, 2), 0x6683_1824_8df5_2bc0),
            (random_general(1024, 195, 15, 3), 0x1347_61a0_45d5_1fbb),
            // the open-loop simulation's fabric
            (random_general(256, 64, 16, 7), 0x16a5_1914_78a8_d745),
            (random_regular(128, 16, 12, 0), 0x7419_4a39_ecf2_7cc5),
            (random_regular_fabric(50, 4, 3), 0xaea3_cf75_7c67_5165),
            // takes a repair rewire
            (erdos_renyi(128, 32, 12, 5), 0x0508_ece4_5f3a_d925),
        ];
        for (i, (g, want)) in cases.into_iter().enumerate() {
            assert_eq!(fingerprint(&g.unwrap()), want, "case {i}");
        }
    }

    /// The reference for [`fill_free_ports`]: the same fill with nothing
    /// carried between iterations, each one rebuilding the free-port list
    /// and total from all switches. Returns the repair rewires, and how
    /// many of them gave a port to a switch that had none.
    fn fill_free_ports_rebuilding<R: Rng>(g: &mut HostSwitchGraph, rng: &mut R) -> (u32, u32) {
        let (mut repairs, mut refilled) = (0, 0);
        let m = g.num_switches();
        let budget = 4 * (m as u64 * g.radix() as u64 / 2 + 64);
        for _ in 0..budget {
            let mut free: Vec<Switch> = (0..m).filter(|&s| g.free_ports(s) > 0).collect();
            let total_free: u32 = free.iter().map(|&s| g.free_ports(s)).sum();
            if total_free <= 1 {
                break;
            }
            free.shuffle(rng);
            let mut progressed = false;
            'outer: for i in 0..free.len() {
                for j in (i + 1)..free.len() {
                    let (a, b) = (free[i], free[j]);
                    if g.free_ports(a) == 0 || g.free_ports(b) == 0 {
                        continue;
                    }
                    if !g.has_link(a, b) && g.add_link(a, b).is_ok() {
                        progressed = true;
                        break 'outer;
                    }
                }
            }
            if !progressed {
                let a = free[0];
                let candidates: Vec<(Switch, Switch)> = g
                    .links()
                    .filter(|&(c, d)| c != a && d != a && (!g.has_link(a, c) || !g.has_link(a, d)))
                    .collect();
                let Some(&(c, d)) = candidates.as_slice().choose(rng) else {
                    break;
                };
                let (other, freed) = if !g.has_link(a, c) { (c, d) } else { (d, c) };
                repairs += 1;
                refilled += u32::from(g.free_ports(freed) == 0);
                g.remove_link(c, d).unwrap();
                g.add_link(a, other).unwrap();
            }
        }
        (repairs, refilled)
    }

    #[test]
    fn incremental_free_list_matches_rebuilding_fill() {
        let mut params = ChaCha8Rng::seed_from_u64(2024);
        let (mut repairs, mut refilled) = (0, 0);
        for case in 0..500u64 {
            let m = params.gen_range(2..40u32);
            let r = params.gen_range(3..12u32);
            let mut start = HostSwitchGraph::new(m, r).unwrap();
            for h in 0..params.gen_range(0..=m * r / 2) {
                start.attach_host(h % m).unwrap();
            }
            let (mut fast, mut reference) = (start.clone(), start);
            let mut fast_rng = ChaCha8Rng::seed_from_u64(case);
            let mut reference_rng = fast_rng.clone();
            fill_free_ports(&mut fast, &mut fast_rng);
            let (r, f) = fill_free_ports_rebuilding(&mut reference, &mut reference_rng);
            (repairs, refilled) = (repairs + r, refilled + f);
            assert_eq!(fast, reference, "case {case}: m={m} r={r}");
            assert_eq!(
                fast_rng.state_words(),
                reference_rng.state_words(),
                "case {case}"
            );
        }
        assert!(
            repairs > 0 && refilled > 0,
            "{repairs} repairs, {refilled} refilled a full switch"
        );
    }

    #[test]
    fn fabric_generator() {
        let g = random_regular_fabric(50, 4, 3).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.num_links(), 100);
        assert!((0..50).all(|s| g.neighbors(s).len() == 4));
    }
}
