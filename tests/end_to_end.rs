//! End-to-end integration: the full §5.3 pipeline (m_opt prediction →
//! annealing → relabelling → serialization) with bound checks at every
//! stage.

use orp::core::anneal::SaConfig;
use orp::core::bounds::{
    continuous_moore_haspl, diameter_lower_bound, haspl_lower_bound, optimal_switch_count,
};
use orp::core::io;
use orp::core::metrics::path_metrics;
use orp::core::search::{SearchConfig, SearchState};
use orp::core::solver::Solver;
use orp::topo::attach::relabel_hosts_dfs;

fn small_cfg() -> SaConfig {
    SaConfig {
        iters: 1500,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn solve_respects_all_lower_bounds() {
    for (n, r) in [(64u32, 8u32), (128, 12), (96, 10)] {
        let report = Solver::builder(n, r)
            .config(small_cfg())
            .run()
            .expect("feasible");
        let (res, m) = (report.result, report.m);
        let haspl_lb = haspl_lower_bound(n as u64, r as u64);
        let d_lb = diameter_lower_bound(n as u64, r as u64);
        assert!(
            res.metrics.haspl >= haspl_lb - 1e-9,
            "n={n} r={r}: {} < bound {haspl_lb}",
            res.metrics.haspl
        );
        assert!(res.metrics.diameter >= d_lb, "n={n} r={r}");
        // continuous Moore bound at the chosen m is also a lower bound
        // for the *regular* relaxation; the annealed non-regular graph
        // may beat it slightly only when m < m_opt (tree-like regime),
        // never at m = m_opt
        let cmb = continuous_moore_haspl(n as u64, m as u64, r as u64);
        assert!(
            res.metrics.haspl >= cmb - 0.25,
            "far below Moore? {}",
            res.metrics.haspl
        );
    }
}

#[test]
fn m_opt_is_finite_and_feasible_across_grid() {
    for n in [32u64, 100, 256, 1000, 1024] {
        for r in [6u64, 10, 16, 24] {
            let (m, a) = optimal_switch_count(n, r);
            assert!(m >= 1 && m <= n);
            assert!(a.is_finite(), "n={n} r={r}");
            assert!(a >= 2.0);
        }
    }
}

#[test]
fn relabelled_graph_has_identical_metrics() {
    let res = Solver::builder(96, 10)
        .config(small_cfg())
        .run()
        .expect("feasible")
        .result;
    let relabeled = relabel_hosts_dfs(&res.graph, 0);
    let a = path_metrics(&res.graph).unwrap();
    let b = path_metrics(&relabeled).unwrap();
    assert_eq!(a.total_length, b.total_length);
    assert_eq!(a.diameter, b.diameter);
    relabeled.validate().unwrap();
}

#[test]
fn solution_survives_serialization() {
    let res = Solver::builder(64, 8)
        .config(small_cfg())
        .run()
        .expect("feasible")
        .result;
    let text = io::to_string(&res.graph);
    let parsed = io::from_str(&text).expect("own output parses");
    let a = path_metrics(&res.graph).unwrap();
    let b = path_metrics(&parsed).unwrap();
    assert_eq!(a.total_length, b.total_length);
    assert_eq!(res.graph.host_counts(), parsed.host_counts());
}

/// The engine's full sweep on three workers scores a solution exactly
/// as the source-at-a-time reference does. At m_opt = 85 the solution
/// keeps more than 64 hostful switches, so the sweep runs on the pool
/// every solve uses.
#[test]
fn sequential_and_parallel_metrics_agree_on_solutions() {
    let res = Solver::builder(256, 8)
        .config(small_cfg())
        .run()
        .expect("feasible")
        .result;
    let s = path_metrics(&res.graph).unwrap();
    let mut st = SearchState::with_search(res.graph, 3, SearchConfig::off()).unwrap();
    let p = st.evaluate().unwrap();
    assert!(st.eval_stats().pool_jobs > 0, "the sweep ran inline");
    assert_eq!(s.haspl.to_bits(), p.haspl.to_bits());
    assert_eq!(s.total_length, p.total_length);
    assert_eq!(s.diameter, p.diameter);
}

#[test]
fn deeper_annealing_never_hurts_the_best() {
    let short = SaConfig {
        iters: 300,
        seed: 5,
        ..Default::default()
    };
    let long = SaConfig {
        iters: 3000,
        seed: 5,
        ..Default::default()
    };
    let a = Solver::builder(96, 10)
        .config(short)
        .run()
        .expect("feasible")
        .result;
    let b = Solver::builder(96, 10)
        .config(long)
        .run()
        .expect("feasible")
        .result;
    assert!(b.metrics.haspl <= a.metrics.haspl + 1e-12);
}
