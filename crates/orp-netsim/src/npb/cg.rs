//! CG — Conjugate Gradient.
//!
//! Class B runs 75 outer iterations (A: 15) of CG on an `NA = 75000`
//! (A: 14000) sparse system, on a 2-D process grid. Each inner CG step
//! does a distributed mat-vec: a reduction across the process *row*
//! (recursive halving of vector segments), an exchange with the
//! *transpose* partner, plus two scalar allreduces. The transpose
//! exchange is the "irregular" long-range traffic the paper highlights
//! when CG runs on topologies whose locality assumptions it violates.

use super::{grid2, rank2, Class};
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// Builds the CG programs for `iters` inner CG steps.
pub fn program(n: u32, class: Class, iters: usize) -> Vec<Program> {
    let (na, nonzer): (f64, f64) = match class {
        Class::A => (14000.0, 11.0),
        Class::B => (75000.0, 13.0),
    };
    let (rows, cols) = grid2(n);
    let seg = na / rows as f64; // vector segment per process row
    let seg_bytes = seg * 8.0;
    let nnz_per_rank = na * (nonzer + 1.0) * nonzer / n as f64;
    ProgramBuilder::build(n, |b| {
        for _ in 0..iters.max(1) {
            // local mat-vec
            b.compute_all(2.0 * nnz_per_rank);
            // sum partial results across each process row: recursive halving —
            // each stage exchanges half of the remaining piece (NPB CG's
            // reduce_exch/reduce_send loops), so sizes go seg/2, seg/4, …
            let mut span = cols;
            let mut chunk = seg_bytes / 2.0;
            while span > 1 {
                let half = span / 2;
                for i in 0..rows {
                    for j in 0..cols {
                        let r = rank2(i, j, cols);
                        let pos = j % span;
                        let partner_j = if pos < half { j + half } else { j - half };
                        let partner = rank2(i, partner_j, cols);
                        if r < partner {
                            b.exchange(r, partner, chunk);
                        }
                    }
                }
                span = half;
                chunk /= 2.0;
            }
            // transpose exchange: (i, j) swaps its fully reduced na/np piece
            // with (j, i) — small and long-distance in rank space, the
            // "irregular communication" the paper blames for fat-tree CG
            let piece = seg_bytes / cols as f64;
            if rows == cols {
                for i in 0..rows {
                    for j in 0..cols {
                        if i < j {
                            b.exchange(rank2(i, j, cols), rank2(j, i, cols), piece);
                        }
                    }
                }
            }
            // two dot products
            b.allreduce(8.0);
            b.allreduce(8.0);
            // axpy updates
            b.compute_all(4.0 * na / rows as f64);
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
    fn cg_completes_on_square_grid() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A, 2))
            .run()
            .unwrap();
        assert!(rep.time > 0.0);
        assert!(rep.flows > 0);
    }

    #[test]
    fn transpose_traffic_present_on_square_grids() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A, 1))
            .run()
            .unwrap();
        // transpose: C(4,2)·... at least the off-diagonal pairs exchange
        assert!(rep.flows >= 12);
    }

    #[test]
    fn class_b_has_bigger_segments() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let a = Simulator::builder(&net)
            .programs(program(16, Class::A, 1))
            .run()
            .unwrap();
        let b = Simulator::builder(&net)
            .programs(program(16, Class::B, 1))
            .run()
            .unwrap();
        assert!(b.bytes > a.bytes * 3.0);
    }
}
