//! LU — the SSOR wavefront solver.
//!
//! Class B factorises a 102³ grid (A: 64³) with 250 time steps. The ranks
//! tile the x–y plane in a 2-D grid; each SSOR sweep marches a *wavefront*
//! of z-planes from the north-west corner to the south-east (then back for
//! the upper triangle): a rank receives boundary rows from its north and
//! west neighbours, relaxes its block, and forwards south/east. Messages
//! are thin (one pencil of 5 variables), so LU measures pipeline latency
//! rather than bandwidth.
//!
//! Skeleton knob: successive z-planes are aggregated (`PLANE_AGG`) to
//! bound the event count; the pipeline depth in ranks is preserved.

use super::{coords2, grid2, rank2, Class};
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// z-planes aggregated into one pipeline stage.
const PLANE_AGG: u32 = 8;

/// Flops per grid point per SSOR sweep (block 5×5 solves ≈ 150 ops).
const FLOPS_PER_POINT: f64 = 150.0;

/// Builds the LU programs for `iters` time steps.
pub fn program(n: u32, class: Class, iters: usize) -> Vec<Program> {
    let grid: f64 = match class {
        Class::A => 64.0,
        Class::B => 102.0,
    };
    let (rows, cols) = grid2(n);
    let nz = grid as u32;
    let stages = (nz / PLANE_AGG).max(1);
    let local_x = grid / rows as f64;
    let local_y = grid / cols as f64;
    // pencil: 5 variables × 8 bytes × local edge × aggregated planes
    let msg_x = 5.0 * 8.0 * local_y * PLANE_AGG as f64;
    let msg_y = 5.0 * 8.0 * local_x * PLANE_AGG as f64;
    let stage_flops = local_x * local_y * PLANE_AGG as f64 * FLOPS_PER_POINT;
    ProgramBuilder::build(n, |b| {
        for _ in 0..iters.max(1) {
            // lower-triangular sweep: NW → SE
            for _ in 0..stages {
                for r in 0..n {
                    let (i, j) = coords2(r, cols);
                    if i > 0 {
                        b.recv(r, rank2(i - 1, j, cols));
                    }
                    if j > 0 {
                        b.recv(r, rank2(i, j - 1, cols));
                    }
                    b.compute(r, stage_flops);
                    if i + 1 < rows {
                        b.send(r, rank2(i + 1, j, cols), msg_x);
                    }
                    if j + 1 < cols {
                        b.send(r, rank2(i, j + 1, cols), msg_y);
                    }
                }
            }
            // upper-triangular sweep: SE → NW
            for _ in 0..stages {
                for r in 0..n {
                    let (i, j) = coords2(r, cols);
                    if i + 1 < rows {
                        b.recv(r, rank2(i + 1, j, cols));
                    }
                    if j + 1 < cols {
                        b.recv(r, rank2(i, j + 1, cols));
                    }
                    b.compute(r, stage_flops);
                    if i > 0 {
                        b.send(r, rank2(i - 1, j, cols), msg_x);
                    }
                    if j > 0 {
                        b.send(r, rank2(i, j - 1, cols), msg_y);
                    }
                }
            }
            // RHS + residual norm
            b.compute_all(local_x * local_y * grid * 20.0);
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
    fn lu_wavefront_completes() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A, 1))
            .run()
            .unwrap();
        assert!(rep.time > 0.0);
        // 4x4 grid, 8 stages per sweep, 2 sweeps: interior links carry
        // 2 messages per rank per stage on average
        assert!(rep.flows > 100);
    }

    #[test]
    fn pipeline_depth_shows_in_time() {
        // wavefront time ≈ (stages + pipeline depth) × stage time:
        // strictly more than the embarrassing lower bound of stage sums
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A, 1))
            .run()
            .unwrap();
        let stages = 64 / PLANE_AGG;
        let stage_flops = (64.0 / 4.0) * (64.0 / 4.0) * PLANE_AGG as f64 * FLOPS_PER_POINT;
        let sweep_min = 2.0 * stages as f64 * stage_flops / 100e9;
        assert!(rep.time > sweep_min, "{} vs {sweep_min}", rep.time);
    }
}
