//! Fig. 5 — h-ASPL versus the number of switches `m`.
//!
//! For each `(n, r)` the paper sweeps `m` and plots: SA with the swap
//! operation (regular graphs, only where `m | n`), SA with the 2-neighbor
//! swing operation (any `m`), the Theorem-2 lower bound (independent of
//! `m`), the Moore bound (Eq. 2, divisors of `n` only) and the continuous
//! Moore bound, with a dotted line at the continuous bound's minimiser
//! `m_opt`. The headline result: the empirical best `m` tracks `m_opt`.
//!
//! Default run: `(n, r) = (1024, 24)` and `(128, 24)`; `ORP_FULL=1`
//! sweeps all eight paper combinations (n ∈ {128, 256, 512, 1024},
//! r ∈ {12, 24}).

use orp_bench::{write_json, Effort};
use orp_core::anneal::MoveKind;
use orp_core::bounds::{
    continuous_moore_haspl, haspl_lower_bound, moore_haspl, optimal_switch_count,
};
use orp_core::solver::Solver;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    m: u32,
    continuous_moore: f64,
    moore: Option<f64>,
    sa_swap: Option<f64>,
    sa_swing: Option<f64>,
}

#[derive(Serialize)]
struct Series {
    n: u32,
    r: u32,
    m_opt: u32,
    theorem2_bound: f64,
    points: Vec<Point>,
}

/// The sweep grid: m_opt scaled by fractions, plus divisors of `n` near
/// the range so the regular/Moore series have points.
fn sweep_values(n: u32, m_opt: u32, full: bool) -> Vec<u32> {
    let fractions: &[f64] = if full {
        &[0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.45, 1.75, 2.1, 2.5, 3.0]
    } else {
        &[0.5, 0.7, 0.85, 1.0, 1.25, 1.6, 2.0]
    };
    let mut ms: Vec<u32> = fractions
        .iter()
        .map(|f| ((m_opt as f64 * f).round() as u32).max(2))
        .collect();
    // add divisors of n in range for the regular series
    let lo = *ms.first().unwrap();
    let hi = *ms.last().unwrap();
    for d in 2..=n {
        if n.is_multiple_of(d) && d >= lo && d <= hi {
            ms.push(d);
        }
    }
    ms.sort_unstable();
    ms.dedup();
    ms
}

fn main() {
    let effort = Effort::from_env();
    let combos: Vec<(u32, u32)> = if effort.full {
        vec![
            (128, 12),
            (128, 24),
            (256, 12),
            (256, 24),
            (512, 12),
            (512, 24),
            (1024, 12),
            (1024, 24),
        ]
    } else {
        vec![(128, 24), (1024, 24)]
    };
    let mut all = Vec::new();
    for (n, r) in combos {
        let (m_opt, _) = optimal_switch_count(n as u64, r as u64);
        let m_opt = m_opt as u32;
        let t2 = haspl_lower_bound(n as u64, r as u64);
        println!("\n== Fig 5: n={n} r={r}  (m_opt = {m_opt}, Theorem-2 bound = {t2:.4}) ==");
        println!(
            "{:>5} {:>12} {:>10} {:>10} {:>10}",
            "m", "cont.Moore", "Moore", "SA-swap", "SA-swing"
        );
        let mut points = Vec::new();
        for m in sweep_values(n, m_opt, effort.full) {
            let cmb = continuous_moore_haspl(n as u64, m as u64, r as u64);
            if !cmb.is_finite() {
                continue;
            }
            let moore = moore_haspl(n as u64, m as u64, r as u64);
            // eval_workers stays None: the engine auto-selects threading
            let mut cfg = effort.sa_config();
            // scale effort down for the biggest fabrics
            if m > 512 {
                cfg.iters = cfg.iters.min(3000);
            }
            // the swap starts from a regular graph, so it fails (and
            // prints "-") where m does not divide n
            let sa = |kind| {
                Solver::builder(n, r)
                    .kind(kind)
                    .switches(m)
                    .config(cfg.clone())
                    .run()
                    .ok()
                    .map(|rep| rep.result.metrics.haspl)
            };
            let sa_swap = sa(MoveKind::Swap);
            let sa_swing = sa(MoveKind::TwoNeighborSwing);
            let fmt = |o: Option<f64>| {
                o.map(|v| format!("{v:>10.4}"))
                    .unwrap_or_else(|| format!("{:>10}", "-"))
            };
            println!(
                "{:>5} {:>12.4} {} {} {}{}",
                m,
                cmb,
                fmt(moore),
                fmt(sa_swap),
                fmt(sa_swing),
                if m == m_opt { "   <- m_opt" } else { "" }
            );
            points.push(Point {
                m,
                continuous_moore: cmb,
                moore,
                sa_swap,
                sa_swing,
            });
        }
        // sanity: empirical best should be near m_opt
        if let Some(best) = points
            .iter()
            .filter(|p| p.sa_swing.is_some())
            .min_by(|a, b| a.sa_swing.unwrap().total_cmp(&b.sa_swing.unwrap()))
        {
            println!(
                "empirical best m (swing SA): {} vs predicted m_opt {m_opt}",
                best.m
            );
        }
        all.push(Series {
            n,
            r,
            m_opt,
            theorem2_bound: t2,
            points,
        });
    }
    let path = write_json("fig5_aspl_vs_m", &all);
    println!("\nwrote {}", path.display());
}
