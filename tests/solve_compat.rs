//! Pinned solver trajectories: the `solve-state` values of ten
//! `Solver` runs — h-ASPL bits, proposed, accepted and disconnected
//! moves, as `orp solve` prints them — against the values the recorded
//! commit produced.
//!
//! The kill-and-resume and figure smokes compare a build only with
//! itself; this file compares it with a fixed history. A change to the
//! cost of the search (the cache, the repair kernels, the worker pool)
//! must leave every row as it is. A row that moves means the search
//! itself changed: the 2-neighbor swing at (256, 12) and (1024, 15) on
//! one and two evaluation workers and uncached (memory budget 0, which
//! never early-rejects), a plain swing at m ≠ m_opt and a swap at
//! m | n.
//!
//! Regenerate the table only from the commit whose behaviour it
//! records: a failing run prints every row in source form.

use orp_core::anneal::{MoveKind, SaConfig};
use orp_core::bounds::optimal_switch_count;
use orp_core::search::SearchConfig;
use orp_core::solver::Solver;

/// One pinned run: seed 1, the CLI's schedule defaults.
struct Case {
    name: &'static str,
    n: u32,
    r: u32,
    kind: MoveKind,
    switches: Option<u32>,
    workers: usize,
    cached: bool,
    iters: usize,
    /// `(haspl bits, proposed, accepted, disconnected)`.
    expect: (u64, usize, usize, usize),
}

const fn swing2(
    name: &'static str,
    n: u32,
    r: u32,
    workers: usize,
    cached: bool,
    iters: usize,
    expect: (u64, usize, usize, usize),
) -> Case {
    Case {
        name,
        n,
        r,
        kind: MoveKind::TwoNeighborSwing,
        switches: None,
        workers,
        cached,
        iters,
        expect,
    }
}

const CASES: &[Case] = &[
    swing2(
        "256-12",
        256,
        12,
        1,
        true,
        2000,
        (0x4010124a4a4a4a4a, 2000, 567, 0),
    ),
    swing2(
        "256-12-w2",
        256,
        12,
        2,
        true,
        2000,
        (0x4010124a4a4a4a4a, 2000, 567, 0),
    ),
    swing2(
        "256-12-uncached",
        256,
        12,
        1,
        false,
        2000,
        (0x401015a5a5a5a5a6, 2000, 563, 0),
    ),
    swing2(
        "256-12-uncached-w2",
        256,
        12,
        2,
        false,
        2000,
        (0x401015a5a5a5a5a6, 2000, 563, 0),
    ),
    swing2(
        "1024-15",
        1024,
        15,
        1,
        true,
        1500,
        (0x401209a368da368e, 1500, 911, 0),
    ),
    swing2(
        "1024-15-w2",
        1024,
        15,
        2,
        true,
        1500,
        (0x401209a368da368e, 1500, 911, 0),
    ),
    swing2(
        "1024-15-uncached",
        1024,
        15,
        1,
        false,
        600,
        (0x40121db6edbb6edc, 600, 396, 0),
    ),
    swing2(
        "1024-15-uncached-w2",
        1024,
        15,
        2,
        false,
        600,
        (0x40121db6edbb6edc, 600, 396, 0),
    ),
    Case {
        name: "swing-m48",
        n: 256,
        r: 12,
        kind: MoveKind::Swing,
        switches: Some(48),
        workers: 1,
        cached: true,
        iters: 2000,
        expect: (0x40101c2424242424, 2000, 368, 0),
    },
    Case {
        name: "swap-m64",
        n: 256,
        r: 12,
        kind: MoveKind::Swap,
        switches: Some(64),
        workers: 1,
        cached: true,
        iters: 2000,
        expect: (0x4010272727272727, 2000, 476, 0),
    },
];

fn run(case: &Case) -> (u64, usize, usize, usize) {
    let cfg = SaConfig {
        iters: case.iters,
        seed: 1,
        eval_workers: Some(case.workers),
        search: if case.cached {
            SearchConfig::default()
        } else {
            SearchConfig::off()
        },
        ..SaConfig::default()
    };
    let mut solver = Solver::builder(case.n, case.r).kind(case.kind).config(cfg);
    if let Some(m) = case.switches {
        solver = solver.switches(m);
    }
    let res = solver
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", case.name))
        .result;
    (
        res.metrics.haspl.to_bits(),
        res.proposed,
        res.accepted,
        res.disconnected,
    )
}

#[test]
fn solver_trajectories_match_the_recorded_values() {
    // the fixed switch counts really are off m_opt and divide n
    let m_opt = optimal_switch_count(256, 12).0 as u32;
    assert_ne!(m_opt, 48);
    assert_eq!(256 % 64, 0);
    let mut moved = Vec::new();
    let mut table = String::new();
    for case in CASES {
        let got = run(case);
        table.push_str(&format!(
            "{}: ({:#018x}, {}, {}, {})\n",
            case.name, got.0, got.1, got.2, got.3
        ));
        if got != case.expect {
            moved.push(case.name);
        }
    }
    assert!(
        moved.is_empty(),
        "trajectories moved: {moved:?}\nthis build reads:\n{table}"
    );
}
