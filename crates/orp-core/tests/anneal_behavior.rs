//! Behavioural tests of the annealer, mirroring the paper's §5.3
//! observations at miniature scale so they run in CI time.

use orp_core::anneal::{Anneal, MoveKind, SaConfig, SaResult};
use orp_core::bounds::{continuous_moore_haspl, optimal_switch_count};
use orp_core::construct::random_general;
use orp_core::metrics::path_metrics;
use orp_core::solver::Solver;
use orp_core::SaError;

fn cfg(iters: usize, seed: u64) -> SaConfig {
    SaConfig {
        iters,
        seed,
        ..Default::default()
    }
}

/// A solve of `(n, r)` at exactly `m` switches.
fn solve_at(n: u32, m: u32, r: u32, kind: MoveKind, cfg: SaConfig) -> Result<SaResult, SaError> {
    Solver::builder(n, r)
        .kind(kind)
        .switches(m)
        .config(cfg)
        .run()
        .map(|report| report.result)
}

/// §5.3 Case 1: when `m ≫ m_opt`, the swing annealer parks switches with
/// zero hosts (the Fig. 8 phenomenon).
#[test]
fn overprovisioned_m_creates_unused_switches() {
    let (n, r) = (96u32, 12u32);
    let (m_opt, _) = optimal_switch_count(n as u64, r as u64);
    let m = (3 * m_opt) as u32; // far beyond the optimum
    let res = solve_at(n, m, r, MoveKind::TwoNeighborSwing, cfg(4000, 3)).expect("constructible");
    let hist = res.graph.host_distribution();
    assert!(
        hist[0] > 0,
        "expected some host-less switches at m = {m} (m_opt = {m_opt}): {hist:?}"
    );
}

/// §5.3 Case 2: when `m < m_opt`, the non-regular annealer can undercut
/// the continuous Moore bound (tree-like graphs).
#[test]
fn below_m_opt_nonregular_can_beat_continuous_moore() {
    let (n, r) = (256u32, 24u32);
    let (m_opt, _) = optimal_switch_count(n as u64, r as u64);
    // below the optimum but still with room for the ring backbone
    let m = (m_opt * 3 / 5).max(2) as u32;
    let bound = continuous_moore_haspl(n as u64, m as u64, r as u64);
    let res = solve_at(n, m, r, MoveKind::TwoNeighborSwing, cfg(4000, 5)).expect("constructible");
    // the annealed non-regular graph should land below or near the
    // *regular* relaxation's bound
    assert!(
        res.metrics.haspl < bound + 0.05,
        "h-ASPL {} should approach/undercut the regular bound {bound}",
        res.metrics.haspl
    );
}

/// The curve over `m` has its empirical minimum near `m_opt` (the
/// paper's central observation, Fig. 5).
#[test]
fn empirical_minimum_tracks_m_opt() {
    let (n, r) = (128u32, 12u32);
    let (m_opt, _) = optimal_switch_count(n as u64, r as u64);
    let mut best = (0u32, f64::INFINITY);
    for factor in [5u32, 8, 10, 13, 18] {
        let m = (m_opt as u32 * factor / 10).max(2);
        if let Ok(res) = solve_at(n, m, r, MoveKind::TwoNeighborSwing, cfg(2500, 7)) {
            if res.metrics.haspl < best.1 {
                best = (m, res.metrics.haspl);
            }
        }
    }
    let lo = (m_opt as f64 * 0.65) as u32;
    let hi = (m_opt as f64 * 1.5) as u32;
    assert!(
        (lo..=hi).contains(&best.0),
        "best m {} (h-ASPL {:.4}) far from m_opt {m_opt}",
        best.0,
        best.1
    );
}

/// Swap annealing preserves regularity throughout; swing annealing
/// preserves the number of hosts and switches but not the distribution.
#[test]
fn invariants_of_each_move_kind() {
    let reg = solve_at(64, 16, 8, MoveKind::Swap, cfg(800, 9)).expect("constructible");
    assert_eq!(reg.graph.regularity(), Some((4, 4)));
    let gen = solve_at(64, 16, 8, MoveKind::TwoNeighborSwing, cfg(800, 9)).expect("constructible");
    assert_eq!(gen.graph.num_hosts(), 64);
    assert_eq!(gen.graph.num_switches(), 16);
    gen.graph.validate().expect("valid");
}

/// Acceptance bookkeeping is consistent: accepted ≤ proposed, and the
/// disconnected counter only counts rejections.
#[test]
fn counters_are_consistent() {
    let start = random_general(96, 24, 8, 11).unwrap();
    let res = Anneal::builder(start).config(cfg(1500, 11)).run().unwrap();
    assert!(res.accepted <= res.proposed);
    assert!(res.proposed <= 1500);
    // best-so-far is at least as good as a fresh evaluation of the graph
    let fresh = path_metrics(&res.graph).unwrap();
    assert!((fresh.haspl - res.metrics.haspl).abs() < 1e-12);
}

/// Higher temperature accepts more moves (on average).
#[test]
fn temperature_controls_acceptance() {
    let start = random_general(96, 24, 8, 13).unwrap();
    let cold = SaConfig {
        iters: 1000,
        t0: 1e-9,
        t_end: 1e-9,
        seed: 13,
        ..Default::default()
    };
    let hot = SaConfig {
        iters: 1000,
        t0: 0.5,
        t_end: 0.4,
        seed: 13,
        ..Default::default()
    };
    let rc = Anneal::builder(start.clone()).config(cold).run().unwrap();
    let rh = Anneal::builder(start).config(hot).run().unwrap();
    assert!(
        rh.accepted > rc.accepted,
        "hot {} should accept more than cold {}",
        rh.accepted,
        rc.accepted
    );
}

/// Parallel evaluation must not change the search trajectory.
#[test]
fn parallel_eval_is_bit_identical() {
    let mk = |workers| SaConfig {
        iters: 600,
        seed: 17,
        eval_workers: Some(workers),
        ..Default::default()
    };
    let a = solve_at(96, 24, 8, MoveKind::TwoNeighborSwing, mk(1)).unwrap();
    let b = solve_at(96, 24, 8, MoveKind::TwoNeighborSwing, mk(3)).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.metrics.total_length, b.metrics.total_length);
}
