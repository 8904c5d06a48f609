//! BT and SP — the multi-partition block-tridiagonal / scalar-
//! pentadiagonal solvers.
//!
//! Both decompose a 102³ (Class B; A: 64³) grid over a *square* process
//! grid using the multi-partition scheme: every ADI iteration performs
//! three directional line-solve sweeps (x, y, z); each sweep pipelines
//! cell boundary faces along a row (x), a column (y), or the wrapped
//! diagonal (z) of the process grid. BT moves 5×5 block faces, SP scalar
//! faces — BT's messages are ≈5× larger, its compute ≈2× heavier.

use super::{grid2, rank2, Class};
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// BT vs SP flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Block-tridiagonal: 5×5 block faces, heavier compute.
    Bt,
    /// Scalar-pentadiagonal: scalar faces, lighter compute.
    Sp,
}

/// Builds BT/SP programs for `iters` ADI iterations.
pub fn program(n: u32, class: Class, iters: usize, variant: Variant) -> Vec<Program> {
    let grid: f64 = match class {
        Class::A => 64.0,
        Class::B => 102.0,
    };
    let (rows, cols) = grid2(n);
    // multi-partition: each rank owns `rows` cells stacked diagonally;
    // the per-sweep face is (grid/√P)² values × variables
    let cell = grid / rows as f64;
    let (vars, face_vals, flops_per_point) = match variant {
        Variant::Bt => (5.0, 5.0 * 5.0, 220.0),
        Variant::Sp => (5.0, 5.0, 120.0),
    };
    let face_bytes = cell * cell * face_vals * 8.0;
    let sweep_flops = grid.powi(3) / n as f64 * flops_per_point / 3.0;
    ProgramBuilder::build(n, |b| {
        for _ in 0..iters.max(1) {
            // x-sweep: pipeline along process rows; `rows` cells per rank
            // means each rank forwards `rows` faces to its east neighbour
            for _cellstep in 0..rows {
                for i in 0..rows {
                    for j in 0..cols {
                        let r = rank2(i, j, cols);
                        let east = rank2(i, (j + 1) % cols, cols);
                        b.compute(r, sweep_flops / rows as f64);
                        b.exchange(r, east, face_bytes);
                    }
                }
            }
            // y-sweep: along columns
            for _cellstep in 0..rows {
                for i in 0..rows {
                    for j in 0..cols {
                        let r = rank2(i, j, cols);
                        let south = rank2((i + 1) % rows, j, cols);
                        b.compute(r, sweep_flops / rows as f64);
                        b.exchange(r, south, face_bytes);
                    }
                }
            }
            // z-sweep: along the wrapped diagonal of the process grid
            for _cellstep in 0..rows {
                for i in 0..rows {
                    for j in 0..cols {
                        let r = rank2(i, j, cols);
                        let diag = rank2((i + 1) % rows, (j + 1) % cols, cols);
                        b.compute(r, sweep_flops / rows as f64);
                        b.exchange(r, diag, face_bytes);
                    }
                }
            }
            // residual norm over the `vars` variables
            b.allreduce(vars * 8.0);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::network::Network;
    use orp_core::construct::random_general;

    fn sim(variant: Variant) -> crate::engine::SimReport {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        Simulator::builder(&net)
            .programs(program(16, Class::A, 1, variant))
            .run()
            .unwrap()
    }

    #[test]
    fn bt_and_sp_complete() {
        let bt = sim(Variant::Bt);
        let sp = sim(Variant::Sp);
        assert!(bt.time > 0.0 && sp.time > 0.0);
    }

    #[test]
    fn bt_moves_more_data_than_sp() {
        let bt = sim(Variant::Bt);
        let sp = sim(Variant::Sp);
        assert!(bt.bytes > sp.bytes * 3.0, "bt {} sp {}", bt.bytes, sp.bytes);
        assert!(bt.flops > sp.flops);
    }

    #[test]
    fn sweeps_touch_all_three_directions() {
        let rep = sim(Variant::Sp);
        // 3 sweeps × rows cellsteps × 16 ranks × 2 flows per exchange
        assert_eq!(rep.flows, (3 * 4 * 16 * 2) as u64 + 64);
    }
}
