//! Fig. 6 — host distribution (hosts-per-switch histogram) of the
//! optimized host-switch graph at `m = m_opt`.
//!
//! The paper's observation: the solver converges to switches holding
//! *different* numbers of hosts — neither a direct nor an indirect
//! network. Subfigures: (a) n=128 r=24 (the clique regime, h-ASPL < 3),
//! (b) n=1024 r=12, (c) n=1024 r=24.

use orp_bench::{write_json, Effort};
use orp_core::bounds::haspl_lower_bound;
use orp_core::solver::Solver;
use serde::Serialize;

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

fn main() {
    let effort = Effort::from_env();
    let combos = [(128u32, 24u32), (1024, 12), (1024, 24)];
    let mut out = Vec::new();
    for (n, r) in combos {
        // eval_workers stays None: the engine auto-selects threading
        let cfg = effort.sa_config();
        let report = Solver::builder(n, r).config(cfg).run().expect("feasible");
        let (res, m_opt) = (report.result, report.m);
        let hist = res.graph.host_distribution();
        let lb = haspl_lower_bound(n as u64, r as u64);
        println!(
            "\n== Fig 6: n={n} r={r}  m_opt={m_opt}  h-ASPL={:.4} (bound {lb:.4}) ==",
            res.metrics.haspl
        );
        println!("{:>6} {:>9}", "hosts", "switches");
        for (k, &cnt) in hist.iter().enumerate() {
            if cnt > 0 {
                println!("{k:>6} {cnt:>9}  {}", "#".repeat((cnt as usize).min(60)));
            }
        }
        let distinct = hist.iter().filter(|&&c| c > 0).count();
        println!(
            "distinct host counts: {distinct} -> {}",
            if distinct > 1 {
                "NON-regular (matches the paper)"
            } else {
                "regular"
            }
        );
        out.push(HostDistribution {
            n,
            r,
            m_opt,
            haspl: res.metrics.haspl,
            lower_bound: lb,
            histogram: hist,
        });
    }
    let path = write_json("fig6_host_distribution", &out);
    println!("\nwrote {}", path.display());
}
