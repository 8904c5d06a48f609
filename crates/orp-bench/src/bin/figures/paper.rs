//! Figs. 5–11 of the paper and the headline summary.

use crate::{sketch, Job, TopoSummary};
use orp_bench::CutPoint;
use orp_core::anneal::MoveKind;
use orp_core::bounds::{
    continuous_moore_haspl, haspl_lower_bound, moore_haspl, optimal_switch_count,
};
use orp_core::graph::HostSwitchGraph;
use orp_layout::{evaluate, Floorplan, HardwareModel};
use orp_netsim::npb::Benchmark;
use orp_netsim::report::BenchResult;
use orp_netsim::RouteMode;
use orp_topo::prelude::*;
use serde::Serialize;
use std::rc::Rc;

fn histogram_rows(hist: &[u32]) {
    println!("{:>6} {:>9}", "hosts", "switches");
    for (k, &cnt) in hist.iter().enumerate().filter(|(_, &c)| c > 0) {
        println!("{k:>6} {cnt:>9}  {}", "#".repeat((cnt as usize).min(60)));
    }
}

#[derive(Serialize)]
struct Fig5Point {
    m: u32,
    continuous_moore: f64,
    moore: Option<f64>,
    sa_swap: Option<f64>,
    sa_swing: Option<f64>,
}

#[derive(Serialize)]
struct Fig5Series {
    n: u32,
    r: u32,
    m_opt: u32,
    theorem2_bound: f64,
    points: Vec<Fig5Point>,
}

/// The Fig. 5 grid: m_opt scaled by fractions, plus divisors of `n` in
/// that range so the regular/Moore series have points.
fn sweep_values(n: u32, m_opt: u32) -> Vec<u32> {
    let fractions = [0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.45, 1.75, 2.1, 2.5, 3.0];
    let mut ms: Vec<u32> = fractions
        .iter()
        .map(|f| ((m_opt as f64 * f).round() as u32).max(2))
        .collect();
    let (lo, hi) = (ms[0], ms[ms.len() - 1]);
    ms.extend((lo.max(2)..=hi.min(n)).filter(|d| n.is_multiple_of(*d)));
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Fig. 5 — h-ASPL versus the number of switches `m` for all eight
/// `(n, r)` the paper plots: SA with the swap (regular graphs, only
/// where `m | n`) and with the 2-neighbor swing, the Theorem-2 bound,
/// the Moore bound (divisors of `n` only) and the continuous Moore
/// bound, whose minimiser `m_opt` the empirical best `m` should track.
pub fn fig5(job: &mut Job) {
    let mut all = Vec::new();
    for (n, r) in [128, 256, 512, 1024]
        .into_iter()
        .flat_map(|n| [(n, 12), (n, 24)])
    {
        let m_opt = optimal_switch_count(n.into(), r.into()).0 as u32;
        let t2 = haspl_lower_bound(n.into(), r.into());
        println!("\n== Fig 5: n={n} r={r}  (m_opt = {m_opt}, Theorem-2 bound = {t2:.4}) ==");
        println!(
            "{:>5} {:>12} {:>10} {:>10} {:>10}",
            "m", "cont.Moore", "Moore", "SA-swap", "SA-swing"
        );
        let mut points = Vec::new();
        for m in sweep_values(n, m_opt) {
            let cmb = continuous_moore_haspl(n.into(), m.into(), r.into());
            if !cmb.is_finite() {
                continue;
            }
            // m > 512 evaluations are the costliest; they get fewer proposals
            let iters = if m > 512 {
                job.budget.proposals.min(3000)
            } else {
                job.budget.proposals
            };
            let mut sa = |kind| {
                job.solve((n, r), Some(m), kind, iters)
                    .map(|res| res.metrics.haspl)
            };
            let point = Fig5Point {
                m,
                continuous_moore: cmb,
                moore: moore_haspl(n.into(), m.into(), r.into()),
                sa_swap: sa(MoveKind::Swap),
                sa_swing: sa(MoveKind::TwoNeighborSwing),
            };
            let fmt = |o: Option<f64>| o.map_or(format!("{:>10}", "-"), |v| format!("{v:>10.4}"));
            println!(
                "{m:>5} {cmb:>12.4} {} {} {}{}",
                fmt(point.moore),
                fmt(point.sa_swap),
                fmt(point.sa_swing),
                if m == m_opt { "   <- m_opt" } else { "" }
            );
            points.push(point);
        }
        if let Some(best) = points
            .iter()
            .filter_map(|p| Some((p.m, p.sa_swing?)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            println!(
                "empirical best m (swing SA): {} vs predicted m_opt {m_opt}",
                best.0
            );
        }
        all.push(Fig5Series {
            n,
            r,
            m_opt,
            theorem2_bound: t2,
            points,
        });
    }
    job.write("fig5_aspl_vs_m", &all);
}

#[derive(Serialize)]
struct HostDistribution {
    n: u32,
    r: u32,
    m_opt: u32,
    haspl: f64,
    lower_bound: f64,
    /// `histogram[k]` = switches with exactly `k` hosts.
    histogram: Vec<u32>,
}

/// Fig. 6 — the hosts-per-switch histogram at `m = m_opt`: the solver
/// converges to switches holding different numbers of hosts, neither a
/// direct nor an indirect network.
pub fn fig6(job: &mut Job) {
    let mut out = Vec::new();
    for (n, r) in [(128u32, 24u32), (1024, 12), (1024, 24)] {
        let res = job
            .solve(
                (n, r),
                None,
                MoveKind::TwoNeighborSwing,
                job.budget.proposals,
            )
            .expect("feasible");
        let hist = res.graph.host_distribution();
        let lb = haspl_lower_bound(n.into(), r.into());
        let m_opt = res.graph.num_switches();
        println!(
            "\n== Fig 6: n={n} r={r}  m_opt={m_opt}  h-ASPL={:.4} (bound {lb:.4}) ==",
            res.metrics.haspl
        );
        histogram_rows(&hist);
        let distinct = hist.iter().filter(|&&c| c > 0).count();
        println!("distinct host counts: {distinct} (the paper's graphs are non-regular)");
        out.push(HostDistribution {
            n,
            r,
            m_opt,
            haspl: res.metrics.haspl,
            lower_bound: lb,
            histogram: hist,
        });
    }
    job.write("fig6_host_distribution", &out);
}

#[derive(Serialize)]
struct Fig7Row {
    m: u32,
    continuous: f64,
    discrete: Option<f64>,
}

/// Fig. 7 — the Moore bound (defined only where `m | n`) against its
/// continuous extension for `n = 1024`, `r = 24`; the two agree at
/// every divisor.
pub fn fig7(job: &mut Job) {
    let (n, r) = (1024u64, 24u64);
    let (m_opt, a_opt) = optimal_switch_count(n, r);
    println!("== Fig 7: Moore vs continuous Moore bound (n={n}, r={r}) ==");
    println!("m_opt = {m_opt}, minimum continuous bound = {a_opt:.4}\n");
    println!("{:>6} {:>14} {:>14}", "m", "continuous", "Moore (m|n)");
    let mut rows = Vec::new();
    for m in 44..=512u32 {
        let c = continuous_moore_haspl(n, m.into(), r);
        if !c.is_finite() {
            continue;
        }
        let d = moore_haspl(n, m.into(), r);
        if let Some(d) = d {
            assert!((d - c).abs() < 1e-9, "bounds disagree at m={m}");
        }
        if d.is_some() || m % 16 == 0 || u64::from(m) == m_opt {
            println!(
                "{m:>6} {c:>14.4} {:>14}{}",
                d.map_or("-".into(), |v| format!("{v:.4}")),
                if u64::from(m) == m_opt {
                    "   <- m_opt"
                } else {
                    ""
                }
            );
        }
        rows.push(Fig7Row {
            m,
            continuous: c,
            discrete: d,
        });
    }
    job.write("fig7_moore_bounds", &rows);
}

#[derive(Serialize)]
struct Fig8 {
    n: u32,
    m: u32,
    r: u32,
    m_opt: u32,
    haspl: f64,
    unused_switches: u32,
    unused_fraction: f64,
    histogram: Vec<u32>,
    sa_iters: usize,
}

/// Fig. 8 — host distribution at `(n, m, r) = (1024, 1024, 24)`, far
/// above `m_opt`: the swing parks switches with no host (the paper's
/// converged run leaves over 70 % unused; the fraction keeps growing
/// with the budget).
pub fn fig8(job: &mut Job) {
    let (n, m, r) = (1024u32, 1024u32, 24u32);
    let m_opt = optimal_switch_count(n.into(), r.into()).0 as u32;
    let iters = job.budget.proposals;
    let res = job
        .solve((n, r), Some(m), MoveKind::TwoNeighborSwing, iters)
        .expect("constructible");
    let hist = res.graph.host_distribution();
    let unused = hist[0];
    println!("== Fig 8: (n, m, r) = ({n}, {m}, {r}), m_opt would be {m_opt} ==");
    println!("h-ASPL after {iters} proposals: {:.4}", res.metrics.haspl);
    histogram_rows(&hist);
    println!(
        "\nunused switches (0 hosts): {unused} / {m} = {:.0}% (paper: >70% at convergence)",
        100.0 * unused as f64 / m as f64
    );
    job.write(
        "fig8_unused_switches",
        &Fig8 {
            n,
            m,
            r,
            m_opt,
            haspl: res.metrics.haspl,
            unused_switches: unused,
            unused_fraction: unused as f64 / m as f64,
            histogram: hist,
            sa_iters: iters,
        },
    );
}

/// One point of the power/cost sweep of panels (c) and (d).
#[derive(Serialize)]
struct SweepPoint {
    hosts: u32,
    power_proposed: f64,
    power_baseline: f64,
    sw_cost_proposed: f64,
    cable_cost_proposed: f64,
    sw_cost_baseline: f64,
    cable_cost_baseline: f64,
}

/// Power/cost of `hosts` connectable hosts on a deployed baseline and
/// on the proposed sketch at radix `r` (`None` where no sketch exists).
fn sweep_point(seed: u64, hosts: u32, baseline: &HostSwitchGraph, r: u32) -> Option<SweepPoint> {
    let proposed = sketch(hosts, r, seed)?;
    let layout =
        |g: &HostSwitchGraph| evaluate(g, &Floorplan::new(g, 1), &HardwareModel::default());
    let (rb, rp) = (layout(baseline), layout(&proposed));
    Some(SweepPoint {
        hosts,
        power_proposed: rp.total_power(),
        power_baseline: rb.total_power(),
        sw_cost_proposed: rp.switch_cost,
        cable_cost_proposed: rp.cable_cost,
        sw_cost_baseline: rb.switch_cost,
        cable_cost_baseline: rb.cable_cost,
    })
}

/// One four-panel comparison (Figs. 9–11).
#[derive(Serialize)]
struct Comparison {
    baseline_name: String,
    proposed: TopoSummary,
    baseline: TopoSummary,
    perf_proposed: Vec<BenchResult>,
    perf_baseline: Vec<BenchResult>,
    bw_proposed: Vec<CutPoint>,
    bw_baseline: Vec<CutPoint>,
    sweep: Vec<SweepPoint>,
}

/// Geometric-mean speedup of `a` over `b` across matched benchmarks —
/// how the paper summarises "outperforms by X% on average".
fn mean_speedup(a: &[BenchResult], b: &[BenchResult]) -> f64 {
    assert_eq!(a.len(), b.len());
    let log_sum: f64 = a.iter().zip(b).map(|(x, y)| (x.mops / y.mops).ln()).sum();
    (log_sum / a.len() as f64).exp()
}

/// Panels (a) NPB performance and (b) partition bandwidth of the
/// baseline fabric `key` against the proposed topology at `(1024, r)`,
/// with the (c)/(d) sweep; printed, then written as `artifact`.
fn comparison(
    job: &mut Job,
    artifact: &str,
    (key, baseline): (String, Rc<HostSwitchGraph>),
    r: u32,
    benches: &[Benchmark],
    sweep: Vec<SweepPoint>,
) {
    let (pkey, proposed) = job.proposed(1024, r);
    let c = Comparison {
        baseline_name: key.clone(),
        proposed: TopoSummary::of("proposed (ORP)", &proposed),
        baseline: TopoSummary::of(&key, &baseline),
        perf_proposed: job.suite(&pkey, RouteMode::SinglePath, benches),
        perf_baseline: job.suite(&key, RouteMode::SinglePath, benches),
        bw_proposed: job.cuts(&pkey),
        bw_baseline: job.cuts(&key),
        sweep,
    };
    println!("== {} vs proposed ==", c.baseline_name);
    for t in [&c.baseline, &c.proposed] {
        println!(
            "{:<22} n={:<5} m={:<4} r={:<3} h-ASPL={:<7.4} D={}",
            t.name, t.n, t.m, t.r, t.haspl, t.diameter
        );
    }
    let dm = 100.0 * (1.0 - c.proposed.m as f64 / c.baseline.m as f64);
    println!("switch reduction: {dm:.0}%");
    println!("\n(a) performance (Mop/s total):");
    println!(
        "{:<6} {:>14} {:>14} {:>8}",
        "bench", "baseline", "proposed", "ratio"
    );
    for (b, p) in c.perf_baseline.iter().zip(&c.perf_proposed) {
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>8.3}",
            b.name,
            b.mops,
            p.mops,
            p.mops / b.mops
        );
    }
    println!(
        "average speedup: {:.1}%",
        (mean_speedup(&c.perf_proposed, &c.perf_baseline) - 1.0) * 100.0
    );
    println!("\n(b) bandwidth (edge cut, P parts; heaviest part / ideal):");
    println!(
        "{:<4} {:>10} {:>7} {:>10} {:>7}",
        "P", "baseline", "", "proposed", ""
    );
    for (b, p) in c.bw_baseline.iter().zip(&c.bw_proposed) {
        println!(
            "{:<4} {:>10} {:>7.3} {:>10} {:>7.3}",
            b.parts, b.cut, b.max_part_ratio, p.cut, p.max_part_ratio
        );
    }
    let bis = c.bw_proposed[0].cut as f64 / c.bw_baseline[0].cut as f64;
    println!("bisection change: {:+.0}%", 100.0 * (bis - 1.0));
    println!("\n(c)/(d) power [W] and cost [$] vs connectable hosts:");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "hosts", "P_base", "P_prop", "swc_base", "swc_prop", "cbl_base", "cbl_prop"
    );
    for s in &c.sweep {
        println!(
            "{:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            s.hosts,
            s.power_baseline,
            s.power_proposed,
            s.sw_cost_baseline,
            s.sw_cost_proposed,
            s.cable_cost_baseline,
            s.cable_cost_proposed
        );
    }
    job.write(artifact, &c);
}

/// Fig. 9 — the proposed topology (`r = 15`, `m_opt = 195`) against the
/// Sequoia-like 5-D torus (`m = 243`, up to 1215 hosts). The torus
/// fabric is fixed, so sweep points beyond 1215 hosts clamp it at full
/// capacity while the proposed topology keeps re-sizing `m_opt(n)`.
pub fn fig9(job: &mut Job) {
    let torus = Torus::paper_5d();
    let baseline = conventional(job, &torus, AttachOrder::Sequential);
    let cap = torus.max_hosts();
    let mut sweep: Vec<SweepPoint> = (128..=1664u32)
        .step_by(128)
        .chain([cap])
        .filter_map(|hosts| {
            let b = torus
                .build_with_hosts(hosts.min(cap), AttachOrder::Sequential)
                .expect("within capacity");
            sweep_point(job.budget.seed, hosts, &b, 15)
        })
        .collect();
    sweep.sort_by_key(|s| s.hosts);
    comparison(job, "fig9_torus", baseline, 15, &Benchmark::all(), sweep);
}

/// Fig. 10 — against the Cori-like dragonfly (`a = 8`, `m = 264`). Its
/// radix grows with size (`r = 2a − 1`), so each sweep point re-derives
/// the proposed sketch at that radix.
pub fn fig10(job: &mut Job) {
    let baseline = conventional(job, &Dragonfly::paper_a8(), AttachOrder::Sequential);
    let sweep = [4u32, 6, 8, 10, 12]
        .into_iter()
        .filter_map(|a| {
            let d = Dragonfly { a };
            let b = d
                .build_with_hosts(d.max_hosts(), AttachOrder::Sequential)
                .expect("full dragonfly");
            sweep_point(job.budget.seed, d.max_hosts(), &b, d.radix())
        })
        .collect();
    comparison(
        job,
        "fig10_dragonfly",
        baseline,
        15,
        &Benchmark::all(),
        sweep,
    );
}

/// Fig. 11 — against the Tianhe-2-like 16-ary fat-tree (`m = 320`,
/// `r = 16`) on the Fig. 11 subset (IS and FT omitted, as in the paper).
pub fn fig11(job: &mut Job) {
    let baseline = conventional(job, &FatTree::paper_16ary(), AttachOrder::Sequential);
    let sweep = [8u32, 12, 16, 20]
        .into_iter()
        .filter_map(|k| {
            let f = FatTree { k };
            let b = f
                .build_with_hosts(f.max_hosts(), AttachOrder::Sequential)
                .expect("full fat-tree");
            sweep_point(job.budget.seed, f.max_hosts(), &b, f.radix())
        })
        .collect();
    comparison(
        job,
        "fig11_fattree",
        baseline,
        16,
        &Benchmark::fig11_subset(),
        sweep,
    );
}

/// A conventional fabric of §6.3 at 1024 hosts, registered under its
/// name (suffixed by a non-sequential attachment order).
pub fn conventional(
    job: &mut Job,
    t: &impl Topology,
    order: AttachOrder,
) -> (String, Rc<HostSwitchGraph>) {
    let key = match order {
        AttachOrder::Sequential => t.name(),
        _ => format!("{} {order:?}", t.name()),
    };
    let g = job.fabric(&key, || t.build_with_hosts(1024, order).expect("fits"));
    (key, g)
}

#[derive(Serialize)]
struct Summary {
    m_opt_r15: u64,
    m_opt_r16: u64,
    reductions: Vec<(String, f64)>,
}

/// The abstract in one table: `m_opt` predictions, the four topologies
/// at `n = 1024`, and the switch reductions (paper: 20 % / 27 % / 43 %).
pub fn summary(job: &mut Job) {
    println!("== m_opt predictions (continuous Moore bound) ==");
    for (n, r, paper) in [(1024u64, 15u64, 194u64), (1024, 16, 183), (128, 24, 8)] {
        let (m, a) = optimal_switch_count(n, r);
        println!(
            "n={n:<5} r={r:<3} -> m_opt = {m:<4} (paper: {paper}), bound {a:.4}, Thm-2 {:.4}",
            haspl_lower_bound(n, r)
        );
    }
    println!("\n== topologies at n = 1024 ==");
    println!(
        "{:<30} {:>5} {:>4} {:>8} {:>3}",
        "topology", "m", "r", "h-ASPL", "D"
    );
    let mut rows = vec![
        conventional(job, &Torus::paper_5d(), AttachOrder::Sequential),
        conventional(job, &Dragonfly::paper_a8(), AttachOrder::Sequential),
        conventional(job, &FatTree::paper_16ary(), AttachOrder::Sequential),
    ];
    let (_, p15) = job.proposed(1024, 15);
    let (_, p16) = job.proposed(1024, 16);
    let (m15, m16) = (p15.num_switches(), p16.num_switches());
    rows.push((format!("proposed r=15 (m_opt={m15})"), p15));
    rows.push((format!("proposed r=16 (m_opt={m16})"), p16));
    for (name, g) in &rows {
        let t = TopoSummary::of(name, g);
        println!(
            "{:<30} {:>5} {:>4} {:>8.4} {:>3}",
            t.name, t.m, t.r, t.haspl, t.diameter
        );
    }
    println!("\n== switch reductions (paper: 20% / 27% / 43%) ==");
    let mut reductions = Vec::new();
    for (name, conv_m, prop_m) in [
        ("vs torus", 243u32, m15),
        ("vs dragonfly", 264, m15),
        ("vs fat-tree", 320, m16),
    ] {
        let red = 100.0 * (1.0 - prop_m as f64 / conv_m as f64);
        println!("{name:<14} {conv_m} -> {prop_m} switches ({red:.0}% fewer)");
        reductions.push((name.to_string(), red));
    }
    job.write(
        "summary",
        &Summary {
            m_opt_r15: optimal_switch_count(1024, 15).0,
            m_opt_r16: optimal_switch_count(1024, 16).0,
            reductions,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_speedup_of_a_suite_over_itself_is_one() {
        let r = |mops| BenchResult {
            name: "CG".into(),
            time: 1.0,
            flops: 1.0,
            mops,
            flows: 1,
            bytes: 1.0,
        };
        let a = [r(2.0), r(8.0)];
        assert!((mean_speedup(&a, &a) - 1.0).abs() < 1e-12);
        assert!((mean_speedup(&a, &[r(1.0), r(2.0)]) - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fig5_grid_keeps_the_divisors_in_range() {
        let ms = sweep_values(128, 8);
        assert!(ms.contains(&8) && ms.contains(&16) && ms.windows(2).all(|w| w[0] < w[1]));
    }
}
