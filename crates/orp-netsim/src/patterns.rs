//! Synthetic traffic patterns — the classic interconnection-network
//! workloads (uniform random, transpose, bit-reversal, bit-complement,
//! nearest neighbour, hotspot) as rank programs, complementing the NPB
//! skeletons for microbenchmark-style topology studies.

use crate::engine::Program;
use crate::mpi::ProgramBuilder;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A synthetic point-to-point traffic pattern: a permutation or
/// demand-map over ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every rank sends to one uniformly random partner (a random
    /// permutation, seeded).
    UniformPermutation,
    /// Rank `(i, j)` on the implicit √n×√n grid sends to `(j, i)`.
    Transpose,
    /// Rank `b_{k-1}…b_0` sends to the bit-reversed rank `b_0…b_{k-1}`
    /// (requires power-of-two ranks).
    BitReversal,
    /// Rank `x` sends to `!x` (bit complement; requires power of two).
    BitComplement,
    /// Rank `x` sends to `x + 1 (mod n)` — the friendliest pattern.
    NearestNeighbor,
    /// Every rank sends to rank 0 — worst-case endpoint contention.
    Hotspot,
}

impl Pattern {
    /// All patterns, for sweeps.
    pub fn all() -> [Pattern; 6] {
        [
            Pattern::UniformPermutation,
            Pattern::Transpose,
            Pattern::BitReversal,
            Pattern::BitComplement,
            Pattern::NearestNeighbor,
            Pattern::Hotspot,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::UniformPermutation => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::BitReversal => "bit-reversal",
            Pattern::BitComplement => "bit-complement",
            Pattern::NearestNeighbor => "neighbor",
            Pattern::Hotspot => "hotspot",
        }
    }

    /// The destination of `rank` under this pattern (`None` = no send,
    /// e.g. the hotspot target itself).
    pub fn destination(&self, rank: u32, n: u32, seed: u64) -> Option<u32> {
        self.map(rank, n, &self.permutation(n, seed))
    }

    /// Every rank's [`destination`](Self::destination), drawing the
    /// uniform permutation once.
    fn destinations(&self, n: u32, seed: u64) -> Vec<Option<u32>> {
        let perm = self.permutation(n, seed);
        (0..n).map(|r| self.map(r, n, &perm)).collect()
    }

    /// The seeded permutation shared by all ranks under
    /// [`Pattern::UniformPermutation`]; empty for the other patterns.
    fn permutation(&self, n: u32, seed: u64) -> Vec<u32> {
        if *self != Pattern::UniformPermutation {
            return Vec::new();
        }
        let mut perm: Vec<u32> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        perm.shuffle(&mut rng);
        perm
    }

    /// The destination of `rank`, given [`Self::permutation`].
    fn map(&self, rank: u32, n: u32, perm: &[u32]) -> Option<u32> {
        let d = match self {
            Pattern::UniformPermutation => perm[rank as usize],
            Pattern::Transpose => {
                let side = (n as f64).sqrt() as u32;
                if side * side != n {
                    return None;
                }
                let (i, j) = (rank / side, rank % side);
                j * side + i
            }
            Pattern::BitReversal => {
                if !n.is_power_of_two() {
                    return None;
                }
                let bits = n.trailing_zeros();
                rank.reverse_bits() >> (32 - bits)
            }
            Pattern::BitComplement => {
                if !n.is_power_of_two() {
                    return None;
                }
                !rank & (n - 1)
            }
            Pattern::NearestNeighbor => (rank + 1) % n,
            Pattern::Hotspot => 0,
        };
        (d != rank).then_some(d)
    }

    /// Builds the programs: every rank sends `bytes` to its destination
    /// and receives whatever the pattern directs at it, in ascending
    /// source order, `repeats` times. The destination map and its
    /// inverse are computed once, so this is linear in `n` per repeat.
    pub fn programs(&self, n: u32, bytes: f64, repeats: usize, seed: u64) -> Vec<Program> {
        let dest = self.destinations(n, seed);
        let mut sources = vec![Vec::new(); n as usize];
        for (src, d) in (0..n).zip(&dest) {
            if let Some(d) = *d {
                sources[d as usize].push(src);
            }
        }
        ProgramBuilder::build(n, |b| {
            for _ in 0..repeats.max(1) {
                for (r, d) in (0..n).zip(&dest) {
                    if let Some(d) = *d {
                        b.send(r, d, bytes);
                    }
                }
                for (r, srcs) in (0..n).zip(&sources) {
                    for &src in srcs {
                        b.recv(r, src);
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Op, Simulator};
    use crate::network::Network;
    use orp_core::construct::random_general;

    /// The construction `programs` replaced: every (receiver, source)
    /// pair asks [`Pattern::destination`] afresh, O(n³) for the uniform
    /// permutation.
    fn reference_programs(
        p: Pattern,
        n: u32,
        bytes: f64,
        repeats: usize,
        seed: u64,
    ) -> Vec<Program> {
        let mut progs: Vec<Program> = vec![Vec::new(); n as usize];
        for _ in 0..repeats.max(1) {
            for r in 0..n {
                if let Some(d) = p.destination(r, n, seed) {
                    progs[r as usize].push(Op::Send { to: d, bytes });
                }
            }
            for r in 0..n {
                for src in 0..n {
                    if p.destination(src, n, seed) == Some(r) {
                        progs[r as usize].push(Op::Recv { from: src });
                    }
                }
            }
        }
        progs
    }

    #[test]
    fn programs_match_the_pairwise_reference() {
        // the reference costs O(n³) shuffles: one repeat at 256 ranks
        for (n, repeats) in [(12u32, 2), (16, 2), (64, 2), (256, 1)] {
            for seed in [7u64, 8] {
                for p in Pattern::all() {
                    let fast = p.programs(n, 1e4, repeats, seed);
                    assert_eq!(
                        fast,
                        reference_programs(p, n, 1e4, repeats, seed),
                        "{} at n = {n}, seed {seed}",
                        p.name()
                    );
                    assert_eq!(fast.capacity(), fast.len());
                    assert!(fast.iter().all(|q| q.capacity() == q.len()));
                }
            }
        }
    }

    #[test]
    fn destinations_agree_with_destination() {
        for p in Pattern::all() {
            let all = p.destinations(16, 3);
            for r in 0..16u32 {
                assert_eq!(all[r as usize], p.destination(r, 16, 3), "{}", p.name());
            }
        }
    }

    fn net16() -> Network {
        let g = random_general(16, 4, 8, 1).unwrap();
        Network::builder(&g).build()
    }

    #[test]
    fn destinations_are_permutations_where_claimed() {
        for p in [
            Pattern::UniformPermutation,
            Pattern::Transpose,
            Pattern::BitReversal,
            Pattern::BitComplement,
            Pattern::NearestNeighbor,
        ] {
            let mut seen = std::collections::HashSet::new();
            for r in 0..16u32 {
                if let Some(d) = p.destination(r, 16, 5) {
                    assert_ne!(d, r, "{}", p.name());
                    assert!(seen.insert(d), "{} duplicates {d}", p.name());
                }
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        for r in 0..16u32 {
            if let Some(d) = Pattern::Transpose.destination(r, 16, 0) {
                assert_eq!(Pattern::Transpose.destination(d, 16, 0), Some(r));
            }
        }
    }

    #[test]
    fn bit_patterns_need_power_of_two() {
        assert_eq!(Pattern::BitReversal.destination(1, 12, 0), None);
        assert_eq!(Pattern::BitComplement.destination(1, 12, 0), None);
        assert_eq!(Pattern::BitComplement.destination(0, 16, 0), Some(15));
    }

    #[test]
    fn all_patterns_simulate() {
        let net = net16();
        for p in Pattern::all() {
            let rep = Simulator::builder(&net)
                .programs(p.programs(16, 1e4, 2, 7))
                .run()
                .unwrap();
            assert!(rep.time > 0.0, "{}", p.name());
        }
    }

    #[test]
    fn hotspot_is_slowest_for_equal_bytes() {
        // all 15 senders serialise on rank 0's downlink
        let net = net16();
        let hot = Simulator::builder(&net)
            .programs(Pattern::Hotspot.programs(16, 1e6, 1, 7))
            .run()
            .unwrap()
            .time;
        let nn = Simulator::builder(&net)
            .programs(Pattern::NearestNeighbor.programs(16, 1e6, 1, 7))
            .run()
            .unwrap()
            .time;
        assert!(hot > nn * 3.0, "hotspot {hot} vs neighbor {nn}");
    }

    #[test]
    fn uniform_permutation_is_seed_deterministic() {
        let a = Pattern::UniformPermutation.destination(3, 16, 9);
        let b = Pattern::UniformPermutation.destination(3, 16, 9);
        assert_eq!(a, b);
        // different seed usually differs (check a few ranks)
        let moved = (0..16u32).any(|r| {
            Pattern::UniformPermutation.destination(r, 16, 9)
                != Pattern::UniformPermutation.destination(r, 16, 10)
        });
        assert!(moved);
    }
}
