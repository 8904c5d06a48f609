//! MG — Multi-Grid.
//!
//! Class B relaxes a 256³ grid with 20 V-cycles (A: 4). The ranks form a
//! 3-D process grid; every V-cycle exchanges ghost faces with the six
//! axis neighbours at *every* grid level — faces shrink 4× per level, so
//! coarse levels are pure latency. The restriction to coarse grids is
//! also the source of the paper's "long-distance communication" remark:
//! on a torus, coarse-level neighbours in the *problem* may sit many
//! switch hops apart. We keep the full process grid at coarse levels and
//! shrink the messages, which preserves the latency-bound character.

use super::{grid3, Class};
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// Flops per grid point per relaxation (27-point stencil ≈ 30 ops).
const FLOPS_PER_POINT: f64 = 30.0;

/// Builds the MG programs for `iters` V-cycles.
pub fn program(n: u32, class: Class, iters: usize) -> Vec<Program> {
    let grid: f64 = 256.0;
    let levels: u32 = match class {
        Class::A => 8,
        Class::B => 8,
    };
    let (px, py, pz) = grid3(n);
    let rank = |x: u32, y: u32, z: u32| (x * py + y) * pz + z;
    ProgramBuilder::build(n, |b| {
        for _ in 0..iters.max(1) {
            // one V-cycle: down the hierarchy and back up
            let mut level_list: Vec<u32> = (0..levels).collect();
            level_list.extend((0..levels.saturating_sub(1)).rev());
            for &l in &level_list {
                let pts = grid / 2f64.powi(l as i32);
                // Coarse levels have fewer points per dimension than the
                // process grid: only a strided subgrid of processes stays
                // active, and its neighbours sit `stride` ranks apart — the
                // paper's "long-distance communication" in MG.
                let qx = (px as f64).min(pts).max(1.0) as u32;
                let qy = (py as f64).min(pts).max(1.0) as u32;
                let qz = (pz as f64).min(pts).max(1.0) as u32;
                let (sx, sy, sz) = (px / qx, py / qy, pz / qz);
                let fx = (pts / qy as f64).max(1.0) * (pts / qz as f64).max(1.0);
                let fy = (pts / qx as f64).max(1.0) * (pts / qz as f64).max(1.0);
                let fz = (pts / qx as f64).max(1.0) * (pts / qy as f64).max(1.0);
                let local_pts = (pts / qx as f64).max(1.0)
                    * (pts / qy as f64).max(1.0)
                    * (pts / qz as f64).max(1.0);
                // only active ranks compute at this level
                for x in 0..qx {
                    for y in 0..qy {
                        for z in 0..qz {
                            b.compute(rank(x * sx, y * sy, z * sz), local_pts * FLOPS_PER_POINT);
                        }
                    }
                }
                // ghost-face exchange with the six periodic neighbours of the
                // active subgrid, one axis at a time (each pair appended once)
                for x in 0..qx {
                    for y in 0..qy {
                        for z in 0..qz {
                            let r = rank(x * sx, y * sy, z * sz);
                            if qx > 1 {
                                b.exchange(r, rank((x + 1) % qx * sx, y * sy, z * sz), fx * 8.0);
                            }
                            if qy > 1 {
                                b.exchange(r, rank(x * sx, (y + 1) % qy * sy, z * sz), fy * 8.0);
                            }
                            if qz > 1 {
                                b.exchange(r, rank(x * sx, y * sy, (z + 1) % qz * sz), fz * 8.0);
                            }
                        }
                    }
                }
            }
            // residual norm
            b.allreduce(8.0);
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
    fn mg_runs_a_v_cycle() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::B, 1))
            .run()
            .unwrap();
        assert!(rep.time > 0.0);
        // 15 levels traversed (8 down + 7 up), exchanges at each
        assert!(rep.flows > 15 * 16);
    }

    #[test]
    fn fine_levels_dominate_volume() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::B, 1))
            .run()
            .unwrap();
        // finest-level faces: 256²/(…) — volume should far exceed a
        // coarse-only estimate
        assert!(rep.bytes > 1e6);
    }
}
