//! FT — 3-D Fast Fourier Transform.
//!
//! Class A evolves a 256×256×128 complex grid for 6 iterations (B:
//! 512×256×256, 20). Each iteration performs a forward/inverse 3-D FFT
//! via 1-D FFT passes separated by a **global transpose — a full
//! alltoall** of the entire 16-byte-per-point array. FT is the paper's
//! canonical all-to-all workload; together with IS it is omitted from
//! Fig. 11a.

use super::Class;
use crate::engine::Program;
use crate::mpi::ProgramBuilder;

/// Builds the FT programs for `iters` simulated iterations.
pub fn program(n: u32, class: Class, iters: usize) -> Vec<Program> {
    let (nx, ny, nz) = match class {
        Class::A => (256.0, 256.0, 128.0),
        Class::B => (512.0, 256.0, 256.0),
    };
    let points: f64 = nx * ny * nz;
    let total_bytes = points * 16.0; // complex double
    let fft_flops = 5.0 * points * points.log2(); // classic 5 N log N
    ProgramBuilder::build(n, |b| {
        // initial forward FFT incl. transpose
        for _ in 0..iters.max(1) {
            // evolve + two local 1-D FFT passes
            b.compute_all((fft_flops * 2.0 / 3.0 + 6.0 * points) / n as f64);
            // the distributed transpose: every pair exchanges its block
            let pair_bytes = total_bytes / (n as f64 * n as f64);
            b.alltoall(pair_bytes);
            // remaining 1-D pass
            b.compute_all(fft_flops / 3.0 / n as f64);
            // checksum
            b.allreduce(16.0);
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
    fn ft_transposes_the_grid() {
        let g = random_general(16, 4, 8, 1).unwrap();
        let net = Network::builder(&g).build();
        let rep = Simulator::builder(&net)
            .programs(program(16, Class::A, 1))
            .run()
            .unwrap();
        let grid_bytes = 256.0 * 256.0 * 128.0 * 16.0;
        assert!(rep.bytes > grid_bytes * 0.9);
        assert!(rep.bytes < grid_bytes * 1.2);
        assert!(rep.flops > 0.0);
    }

    #[test]
    fn class_b_is_heavier() {
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
        assert!(b.time > a.time);
    }
}
