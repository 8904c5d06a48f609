//! EP — Embarrassingly Parallel.
//!
//! Generates `2^M` Gaussian pairs (Class A: `M = 28`, B: `M = 30`) with
//! essentially no communication: the only network traffic is three small
//! allreduces of the partial sums and the per-annulus counts at the end.
//! Any topology should score nearly identically here — a useful control.

use super::Class;
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// Flops charged per generated pair (two randoms, log, sqrt ≈ 25 ops in
/// the NPB operation counting).
const FLOPS_PER_PAIR: f64 = 25.0;

/// Builds the EP programs (EP has no iteration structure to scale).
pub fn program(n: u32, class: Class) -> Vec<Program> {
    let m: u32 = match class {
        Class::A => 28,
        Class::B => 30,
    };
    let pairs = 2f64.powi(m as i32);
    ProgramBuilder::build(n, |b| {
        b.compute_all(pairs * FLOPS_PER_PAIR / n as f64);
        // sx, sy sums (2 doubles) and the 10 annulus counts
        b.allreduce(16.0);
        b.allreduce(80.0);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::network::Network;
    use orp_core::construct::random_general;

    #[test]
    fn ep_is_compute_dominated() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A))
            .run()
            .unwrap();
        let compute_time = 2f64.powi(28) * FLOPS_PER_PAIR / 16.0 / 100e9;
        assert!(rep.time >= compute_time);
        assert!(rep.time < compute_time * 1.1, "comm should be negligible");
    }

    #[test]
    fn class_b_is_4x_class_a() {
        let a = program(16, Class::A);
        let b = program(16, Class::B);
        // same op count, larger compute constants
        assert_eq!(a[0].len(), b[0].len());
    }
}
