//! IS — Integer Sort.
//!
//! Class A sorts `N = 2^23` keys (B: `2^25`) in `2^10` (A) / `2^21`-range
//! buckets over 10 iterations. Per iteration the real kernel does a local
//! histogram, an allreduce of the bucket counts, an **alltoallv**
//! redistribution of the keys (uniform keys → near-uniform pair sizes),
//! and a local ranking pass. The alltoallv is what makes IS
//! latency/bisection hungry — the paper calls out its "random memory
//! access" profile as a case where low h-ASPL wins.

use super::Class;
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// Flops charged per key per pass (bucket index + rank updates).
const FLOPS_PER_KEY: f64 = 8.0;

/// Builds the IS programs for `iters` simulated iterations.
pub fn program(n: u32, class: Class, iters: usize) -> Vec<Program> {
    let total_keys: f64 = match class {
        Class::A => (1u64 << 23) as f64,
        Class::B => (1u64 << 25) as f64,
    };
    let buckets: f64 = match class {
        Class::A => 1024.0,
        Class::B => 2048.0,
    };
    let keys_per_rank = total_keys / n as f64;
    // uniform keys: every rank sends ~keys/n to every other rank, 4 B each
    let pair_bytes = keys_per_rank / n as f64 * 4.0;
    ProgramBuilder::build(n, |b| {
        for _ in 0..iters.max(1) {
            b.compute_all(keys_per_rank * FLOPS_PER_KEY);
            b.allreduce(buckets * 4.0);
            b.alltoallv(|_, _| pair_bytes);
            b.compute_all(keys_per_rank * FLOPS_PER_KEY / 2.0);
            // partial verification
            b.allreduce(40.0);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::network::Network;
    use orp_core::construct::random_general;

    #[test]
    fn is_moves_the_whole_key_array_per_iteration() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A, 1))
            .run()
            .unwrap();
        let keys_bytes = (1u64 << 23) as f64 * 4.0;
        // alltoallv moves (n-1)/n of the array, plus the allreduces
        assert!(
            rep.bytes > keys_bytes * 0.9,
            "{} vs {keys_bytes}",
            rep.bytes
        );
        assert!(rep.bytes < keys_bytes * 1.6);
    }

    #[test]
    fn iterations_scale_linearly() {
        let p1 = program(16, Class::A, 1);
        let p3 = program(16, Class::A, 3);
        assert_eq!(p3[0].len(), 3 * p1[0].len());
    }
}
