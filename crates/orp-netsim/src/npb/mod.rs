//! NAS Parallel Benchmark communication skeletons (§6.2.1).
//!
//! The paper runs NPB 3.3.1 (MPI) under SimGrid — Class A for IS and FT,
//! Class B for the others — on 1024 processes. We reproduce each
//! benchmark as a *communication skeleton*: the published communication
//! pattern and per-iteration message volumes of the real kernels,
//! interleaved with `Compute` phases sized from the kernels' operation
//! counts. On a fixed 100 GFlops host model this preserves exactly what
//! the evaluation measures — how topology changes communication time —
//! while replacing the numerical payload with calibrated flop counts.
//!
//! Skeleton fidelity notes (per benchmark) live in the submodules;
//! iteration counts are scaled down (`iters` knob) because NPB
//! performance is steady-state per iteration — documented in
//! EXPERIMENTS.md.

pub mod btsp;
pub mod cg;
pub mod ep;
pub mod ft;
pub mod is;
pub mod lu;
pub mod mg;

use crate::engine::Program;

/// NPB problem classes used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Class A (used for IS and FT).
    A,
    /// Class B (used for the other kernels).
    B,
}

/// The benchmarks of Figs. 9a/10a/11a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// Embarrassingly Parallel: random-number statistics, allreduce-only.
    Ep,
    /// Integer Sort: bucketed key histogram + alltoallv redistribution.
    Is,
    /// 3-D FFT: compute + full alltoall transposes.
    Ft,
    /// Multi-Grid: V-cycles of hierarchical halo exchanges.
    Mg,
    /// Conjugate Gradient: row/column reductions on a 2-D process grid.
    Cg,
    /// LU solver: 2-D wavefront pipeline (SSOR).
    Lu,
    /// Block-Tridiagonal solver: multi-partition directional sweeps.
    Bt,
    /// Scalar-Pentadiagonal solver: like BT with thinner faces.
    Sp,
}

impl Benchmark {
    /// All benchmarks in the paper's plotting order.
    pub fn all() -> [Benchmark; 8] {
        use Benchmark::*;
        [Bt, Cg, Ep, Ft, Is, Lu, Mg, Sp]
    }

    /// The benchmarks shown in the fat-tree comparison (Fig. 11a omits
    /// IS and FT "due to computational complexity").
    pub fn fig11_subset() -> [Benchmark; 6] {
        use Benchmark::*;
        [Bt, Cg, Ep, Lu, Mg, Sp]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Ep => "EP",
            Benchmark::Is => "IS",
            Benchmark::Ft => "FT",
            Benchmark::Mg => "MG",
            Benchmark::Cg => "CG",
            Benchmark::Lu => "LU",
            Benchmark::Bt => "BT",
            Benchmark::Sp => "SP",
        }
    }

    /// The class the paper uses for this benchmark.
    pub fn paper_class(&self) -> Class {
        match self {
            Benchmark::Is | Benchmark::Ft => Class::A,
            _ => Class::B,
        }
    }

    /// Builds the per-rank programs for `n` ranks and `iters` simulated
    /// iterations.
    ///
    /// # Panics
    /// Panics if `n` is not a power of four (the NPB requirement the
    /// paper cites) for benchmarks needing square/cubic grids.
    pub fn build(&self, n: u32, class: Class, iters: usize) -> Vec<Program> {
        match self {
            Benchmark::Ep => ep::program(n, class),
            Benchmark::Is => is::program(n, class, iters),
            Benchmark::Ft => ft::program(n, class, iters),
            Benchmark::Mg => mg::program(n, class, iters),
            Benchmark::Cg => cg::program(n, class, iters),
            Benchmark::Lu => lu::program(n, class, iters),
            Benchmark::Bt => btsp::program(n, class, iters, btsp::Variant::Bt),
            Benchmark::Sp => btsp::program(n, class, iters, btsp::Variant::Sp),
        }
    }
}

/// Splits `n` ranks into a near-square 2-D grid `(rows, cols)` with
/// `rows·cols = n` and `rows ≤ cols`.
pub fn grid2(n: u32) -> (u32, u32) {
    let mut rows = (n as f64).sqrt() as u32;
    while rows > 1 && !n.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), n / rows.max(1))
}

/// Splits `n` ranks into a near-cubic 3-D grid `(px, py, pz)`.
pub fn grid3(n: u32) -> (u32, u32, u32) {
    let mut px = (n as f64).cbrt().round() as u32;
    while px > 1 && !n.is_multiple_of(px) {
        px -= 1;
    }
    let px = px.max(1);
    let (py, pz) = grid2(n / px);
    (px, py, pz)
}

/// Rank of 2-D grid coordinates.
#[inline]
pub fn rank2(i: u32, j: u32, cols: u32) -> u32 {
    i * cols + j
}

/// 2-D grid coordinates of a rank.
#[inline]
pub fn coords2(r: u32, cols: u32) -> (u32, u32) {
    (r / cols, r % cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Op;

    #[test]
    fn grid2_factors() {
        assert_eq!(grid2(1024), (32, 32));
        assert_eq!(grid2(16), (4, 4));
        assert_eq!(grid2(12), (3, 4));
        assert_eq!(grid2(7), (1, 7));
    }

    #[test]
    fn grid3_factors() {
        let (a, b, c) = grid3(1024);
        assert_eq!(a * b * c, 1024);
        assert!(a >= 8 && b >= 8 && c >= 8, "{a}x{b}x{c}");
        let (a, b, c) = grid3(64);
        assert_eq!((a, b, c), (4, 4, 4));
    }

    #[test]
    fn coords_roundtrip() {
        let cols = 7;
        for r in 0..21 {
            let (i, j) = coords2(r, cols);
            assert_eq!(rank2(i, j, cols), r);
        }
    }

    #[test]
    fn paper_classes() {
        assert_eq!(Benchmark::Is.paper_class(), Class::A);
        assert_eq!(Benchmark::Ft.paper_class(), Class::A);
        assert_eq!(Benchmark::Mg.paper_class(), Class::B);
    }

    /// FNV-1a over every rank's op count and every op's tag and fields
    /// (floats as their bits), in rank and program order.
    fn fingerprint(progs: &[Program]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for p in progs {
            eat(&(p.len() as u64).to_le_bytes());
            for op in p {
                match *op {
                    Op::Compute(f) => {
                        eat(&[0]);
                        eat(&f.to_bits().to_le_bytes());
                    }
                    Op::Send { to, bytes } => {
                        eat(&[1]);
                        eat(&to.to_le_bytes());
                        eat(&bytes.to_bits().to_le_bytes());
                    }
                    Op::Recv { from } => {
                        eat(&[2]);
                        eat(&from.to_le_bytes());
                    }
                    Op::SendRecv { to, bytes, from } => {
                        eat(&[3]);
                        eat(&to.to_le_bytes());
                        eat(&bytes.to_bits().to_le_bytes());
                        eat(&from.to_le_bytes());
                    }
                }
            }
        }
        h
    }

    /// Every kernel's programs at 64 and 1,024 ranks (paper class, one
    /// iteration), pinned op for op: total op count and [`fingerprint`],
    /// recorded before the builder sized programs exactly. Every rank's
    /// buffer holds exactly its ops.
    #[test]
    fn kernel_programs_match_their_golden_fingerprints() {
        let golden = [
            ("BT", 64, 5_376, 0xc9ba_fc11_a1e1_c025),
            ("CG", 64, 1_912, 0x1137_d375_c169_5035),
            ("EP", 64, 1_600, 0x0bc3_01d0_e447_a7e5),
            ("FT", 64, 4_928, 0x4eb1_3b0c_1a6a_bb65),
            ("IS", 64, 5_696, 0xe9f0_d6d5_448e_4ba5),
            ("LU", 64, 7_744, 0x2f9f_f12a_dd67_de1d),
            ("MG", 64, 7_096, 0xb7e0_a63c_e8e2_093d),
            ("SP", 64, 5_376, 0x0f7a_4ea8_c5d3_99e5),
            ("BT", 1024, 315_392, 0x33f7_32aa_d332_4925),
            ("CG", 1024, 49_120, 0xeea9_ea59_6eee_c7b5),
            ("EP", 1024, 41_984, 0x148d_9017_139e_5525),
            ("FT", 1024, 1_070_080, 0xea57_3bd1_8524_2f25),
            ("IS", 1024, 1_090_560, 0xdb29_fda1_0881_c925),
            ("LU", 1024, 141_312, 0xbf01_b838_b9ae_eb05),
            ("MG", 1024, 100_280, 0x2f6f_1257_cd6e_55ad),
            ("SP", 1024, 315_392, 0xce17_a71a_db99_f925),
        ];
        for (name, n, ops, fnv) in golden {
            let b = Benchmark::all()
                .into_iter()
                .find(|b| b.name() == name)
                .unwrap();
            let progs = b.build(n, b.paper_class(), 1);
            let total: usize = progs.iter().map(Vec::len).sum();
            assert_eq!((total, fingerprint(&progs)), (ops, fnv), "{name} at {n}");
            assert_eq!(progs.capacity(), progs.len(), "{name} at {n}");
            for (r, p) in progs.iter().enumerate() {
                assert_eq!(p.capacity(), p.len(), "{name} at {n}: rank {r}");
            }
        }
    }

    #[test]
    fn all_benchmarks_build_small() {
        for b in Benchmark::all() {
            let progs = b.build(16, b.paper_class(), 1);
            assert_eq!(progs.len(), 16, "{}", b.name());
            assert!(progs.iter().any(|p| !p.is_empty()), "{}", b.name());
        }
    }
}
