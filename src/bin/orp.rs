//! `orp` — command-line front end to the Order/Radix Problem toolkit.
//!
//! ```text
//! orp bounds  <n> <r>                  lower bounds and m_opt prediction
//! orp solve   <n> <r> [iters] [out] [--trace t.json] [--metrics m.jsonl]
//!             [--checkpoint ck.orp] [--every N] [--resume] [--watchdog secs]
//!             [--mem-budget bytes] [--replicas k] [--exchange-every N]
//!             [--workers w]
//!                                      anneal a topology, optionally save it;
//!                                      --trace writes a Chrome trace of the run;
//!                                      --metrics streams live JSONL telemetry
//!                                      you can tail with `orp watch` mid-run;
//!                                      --checkpoint saves crash-safe snapshots
//!                                      (resumable with --resume, bit-identical);
//!                                      --mem-budget caps the distance cache
//!                                      (0 turns it off; the 8 GiB default
//!                                      reaches n = 65536); --replicas >= 2
//!                                      runs parallel tempering over a
//!                                      geometric ladder;
//!                                      --workers pins the evaluation pool
//! orp eval    <file.hsg>               metrics of a saved host-switch graph
//! orp compare <n> <r>                  ORP vs torus/dragonfly/fat-tree table
//! orp simulate <file.hsg> [bench] [iters] [--trace t.json] [--metrics m.jsonl]
//!             [--checkpoint ck.orp] [--resume] [--watchdog secs]
//!             [--sharing exact|approx] [--inject flows] [--seed s]
//!                                      run an NPB kernel on a saved graph;
//!                                      --trace records flow/hop telemetry;
//!                                      --metrics streams live progress gauges;
//!                                      --checkpoint/--resume work as for solve;
//!                                      --inject N replaces the kernel with an
//!                                      open-loop random workload of N flows
//! orp watch   <m.jsonl> [--once] [--interval ms]
//!                                      live terminal dashboard over a metrics
//!                                      stream (refreshes until the run's done
//!                                      record lands; --once renders one frame)
//! orp report  <trace.json|m.jsonl> [--top k] [--collapsed]
//!                                      latency attribution of a recorded trace;
//!                                      metrics streams get a progress report
//! orp diff    <a.json> <b.json>        attribute the makespan delta of two runs
//! orp partition <file.hsg> [k]         bandwidth (edge cut) for P = 2..k
//! orp layout  <file.hsg> [per_cab]     floorplan power/cost (naive + optimized)
//! ```
//!
//! Every subcommand rejects a `--` flag it does not know with a usage
//! error instead of ignoring it.

use orp::core::anneal::{Anneal, SaConfig, SaResult};
use orp::core::bounds::{
    check_instance, diameter_lower_bound, haspl_lower_bound, optimal_switch_count,
};
use orp::core::io;
use orp::core::metrics::path_metrics;
use orp::core::search::SearchConfig;
use orp::core::solver::Solver;
use orp::core::temper::Temper;
use orp::core::HostSwitchGraph;
use orp::layout::{evaluate, optimized_floorplan, Floorplan, HardwareModel};
use orp::netsim::network::Network;
use orp::netsim::npb::Benchmark;
use orp::netsim::report::run_benchmark_configured;
use orp::netsim::{InjectedFlow, SharingMode, Simulator};
use orp::obs::analyze::{
    aggregate_spans, collapsed_stacks, diff, render_diff, render_report, TraceData,
};
use orp::obs::{
    is_stream, parse_stream, read_stream, render_dashboard, render_stream_report, ChromeTrace,
    ObsConfig, Recorder, StreamFollower, StreamSink, StreamState,
};
use orp::partition::{partition, Graph as CutGraph, PartitionConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::process::ExitCode;
use std::time::Duration;

fn load(path: &str) -> Result<HostSwitchGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    io::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn arg_num<T: std::str::FromStr>(args: &[String], i: usize, default: T) -> T {
    args.get(i).and_then(|a| a.parse().ok()).unwrap_or(default)
}

/// Splits `--flag <value>` out of `args`, returning the value and the
/// remaining positional arguments.
fn split_value_flag(args: &[String], flag: &str) -> Result<(Option<String>, Vec<String>), String> {
    let mut value = None;
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            value = Some(
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value, e.g. {flag} results/out.json"))?
                    .clone(),
            );
        } else {
            pos.push(a.clone());
        }
    }
    Ok((value, pos))
}

/// Fails with a usage error naming the first `--` argument left once a
/// subcommand has split off every flag it knows, so a misspelt or
/// retired flag is never ignored or misread as a positional argument.
fn reject_unknown_flags(pos: &[String], usage: &str) -> Result<(), String> {
    match pos.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(format!("unknown flag {flag}\n{usage}")),
        None => Ok(()),
    }
}

/// Rejects an `(n, r)` the bounds and the solver are not defined for
/// (fewer than two hosts, radix below 3) with a usage error.
fn instance(n: u64, r: u64, usage: &str) -> Result<(), String> {
    check_instance(n, r)
        .map_err(orp::Error::from)
        .map_err(|e| format!("{e}\n{usage}"))
}

/// Parses a `--watchdog` stall timeout: a finite, non-negative number
/// of seconds that fits a `Duration`.
fn watchdog_timeout(secs: Option<String>, usage: &str) -> Result<Option<Duration>, String> {
    secs.map(|s| {
        s.parse()
            .ok()
            .and_then(|x| Duration::try_from_secs_f64(x).ok())
            .ok_or_else(|| {
                format!(
                    "--watchdog needs a finite, non-negative number of seconds, got {s}\n{usage}"
                )
            })
    })
    .transpose()
}

/// A recorder sized for full-fidelity trace export: NPB runs at n=128
/// emit hundreds of thousands of flow/hop events, far past the default
/// journal ring.
fn trace_recorder() -> Recorder {
    Recorder::with_config(ObsConfig {
        journal_capacity: 1 << 21,
        ..ObsConfig::default()
    })
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp bounds <n> <r>";
    reject_unknown_flags(args, usage)?;
    let n: u64 = args.first().and_then(|a| a.parse().ok()).ok_or(usage)?;
    let r: u64 = args.get(1).and_then(|a| a.parse().ok()).ok_or(usage)?;
    instance(n, r, usage)?;
    let (m_opt, a_opt) = optimal_switch_count(n, r);
    println!("order n = {n}, radix r = {r}");
    println!(
        "diameter lower bound (Thm 1):  {}",
        diameter_lower_bound(n, r)
    );
    println!(
        "h-ASPL lower bound (Thm 2):    {:.4}",
        haspl_lower_bound(n, r)
    );
    println!("predicted m_opt:               {m_opt}");
    println!("continuous Moore bound there:  {a_opt:.4}");
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp solve <n> <r> [iters] [out.hsg] [--trace t.json] \
                 [--metrics m.jsonl] [--checkpoint ck.orp] [--every N] [--resume] \
                 [--watchdog secs] [--mem-budget bytes] [--replicas k] \
                 [--exchange-every N] [--workers w]";
    let (trace, pos) = split_value_flag(args, "--trace")?;
    let (metrics, pos) = split_value_flag(&pos, "--metrics")?;
    let (workers, pos) = split_value_flag(&pos, "--workers")?;
    let (ckpt, pos) = split_value_flag(&pos, "--checkpoint")?;
    let (every, pos) = split_value_flag(&pos, "--every")?;
    let (watchdog, pos) = split_value_flag(&pos, "--watchdog")?;
    let (mem_budget, pos) = split_value_flag(&pos, "--mem-budget")?;
    let (replicas, pos) = split_value_flag(&pos, "--replicas")?;
    let (exchange_every, pos) = split_value_flag(&pos, "--exchange-every")?;
    let resume = pos.iter().any(|a| a == "--resume");
    let pos: Vec<String> = pos.into_iter().filter(|a| a != "--resume").collect();
    reject_unknown_flags(&pos, usage)?;
    if resume && ckpt.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    let n: u32 = pos.first().and_then(|a| a.parse().ok()).ok_or(usage)?;
    let r: u32 = pos.get(1).and_then(|a| a.parse().ok()).ok_or(usage)?;
    instance(n.into(), r.into(), usage)?;
    let iters: usize = arg_num(&pos, 2, 8000);
    let mut search = SearchConfig::default();
    if let Some(b) = mem_budget {
        search.memory_budget_bytes = b
            .parse()
            .map_err(|_| "--mem-budget needs a byte count, e.g. 8589934592")?;
    }
    let replicas: usize = match replicas {
        Some(k) => k.parse().map_err(|_| "--replicas needs a replica count")?,
        None => 1,
    };
    let exchange_every: usize = match exchange_every {
        Some(e) => e.parse().ok().filter(|&k| k > 0).ok_or(format!(
            "--exchange-every needs a positive iteration count\n{usage}"
        ))?,
        None => 1000,
    };
    // eval_workers defaults to None: the engine auto-selects threading
    // from the switch count and available CPUs. --workers pins the pool
    // to an exact thread count, clamped to the switch count (results
    // are bit-identical either way).
    let mut cfg = SaConfig {
        iters,
        seed: 1,
        search,
        ..Default::default()
    };
    if let Some(w) = workers {
        cfg.eval_workers = Some(w.parse().map_err(|_| "--workers needs a thread count")?);
    }
    let rec = if trace.is_some() || metrics.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    // --metrics opens the JSONL stream before the run starts so `orp
    // watch` can follow it from the first flush
    let sink = match &metrics {
        Some(p) => {
            let s = StreamSink::create(p).map_err(|e| format!("{p}: {e}"))?;
            s.meta(
                &[("cmd", "solve")],
                &[
                    ("n", f64::from(n)),
                    ("r", f64::from(r)),
                    ("iters", iters as f64),
                    ("replicas", replicas as f64),
                ],
            );
            Some(s)
        }
        None => None,
    };
    // the same pipeline as `Solver`, with the recorder attached and the
    // checkpoint written to the exact --checkpoint path
    let (m, _) = orp::core::bounds::optimal_switch_count(n as u64, r as u64);
    let m = m as u32;
    let start =
        orp::core::construct::random_general(n, m, r, cfg.seed).map_err(|e| e.to_string())?;
    let every: Option<usize> = match every {
        Some(e) => Some(e.parse().map_err(|_| "--every needs an iteration count")?),
        None => None,
    };
    let watchdog = watchdog_timeout(watchdog, usage)?;
    let res: SaResult = if replicas >= 2 {
        // parallel tempering over a geometric temperature ladder
        let mut builder = Temper::builder(start)
            .config(cfg.clone())
            .ladder(orp::core::temper::geometric_ladder(
                cfg.t0,
                cfg.t_end.max(1e-12),
                replicas,
            ))
            .exchange_every(exchange_every)
            .recorder(rec.clone());
        if let Some(s) = &sink {
            builder = builder.stream(s.clone());
        }
        if let Some(ck) = &ckpt {
            builder = builder.checkpoint(ck);
            if resume && std::path::Path::new(ck).exists() {
                builder = builder.resume_from(ck);
                eprintln!("resuming from {ck}");
            }
        }
        if let Some(e) = every {
            builder = builder.checkpoint_every_rounds(e.div_ceil(exchange_every).max(1));
        }
        if let Some(timeout) = watchdog {
            builder = builder.watchdog(timeout);
        }
        let tr = builder.run().map_err(|e| e.to_string())?;
        println!(
            "tempering: replicas = {replicas}, exchanges accepted {} / {}",
            tr.exchanges.accepted, tr.exchanges.attempted
        );
        let best = tr.best;
        tr.results.into_iter().nth(best).expect("best in range")
    } else {
        let mut builder = Anneal::builder(start).config(cfg).recorder(rec.clone());
        if let Some(s) = &sink {
            builder = builder.stream(s.clone());
        }
        if let Some(ck) = &ckpt {
            builder = builder.checkpoint(ck);
            if resume && std::path::Path::new(ck).exists() {
                builder = builder.resume_from(ck);
                eprintln!("resuming from {ck}");
            }
        }
        if let Some(e) = every {
            builder = builder.checkpoint_every(e);
        }
        if let Some(timeout) = watchdog {
            // the CLI opts into hard process exit: a loop too wedged to
            // reach its own iteration boundary must not hang the terminal
            builder = builder.watchdog(timeout).watchdog_hard_exit(true);
        }
        builder.run().map_err(|e| e.to_string())?
    };
    println!(
        "m = {m}, h-ASPL = {:.4} (bound {:.4}), diameter = {}",
        res.metrics.haspl,
        haspl_lower_bound(n as u64, r as u64),
        res.metrics.diameter
    );
    // machine-readable state line: the kill-and-resume smoke test
    // compares this across interrupted and uninterrupted runs
    println!(
        "solve-state: haspl_bits={:#018x} proposed={} accepted={} disconnected={}",
        res.metrics.haspl.to_bits(),
        res.proposed,
        res.accepted,
        res.disconnected
    );
    if let Some(out) = pos.get(3) {
        orp::core::ckpt::atomic_write(
            std::path::Path::new(out),
            io::to_string(&res.graph).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    if let Some(path) = trace {
        rec.export_to(&ChromeTrace, &path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path} (open in chrome://tracing or Perfetto)");
    }
    if let Some(s) = &sink {
        // the engine already published its final batch; this appends the
        // `done` record so followers know the run completed
        s.finish(&rec, || ());
        println!(
            "wrote {} (inspect with `orp watch --once` or `orp report`)",
            s.path().display()
        );
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp eval <file.hsg>";
    reject_unknown_flags(args, usage)?;
    let g = load(args.first().ok_or(usage)?)?;
    g.validate().map_err(|e| e.to_string())?;
    instance(g.num_hosts().into(), g.radix().into(), usage)?;
    let pm = path_metrics(&g).ok_or("graph is disconnected")?;
    println!(
        "n = {}, m = {}, r = {}",
        g.num_hosts(),
        g.num_switches(),
        g.radix()
    );
    println!("links = {}", g.num_links());
    println!("h-ASPL = {:.4}", pm.haspl);
    println!("diameter = {}", pm.diameter);
    println!(
        "bounds: h-ASPL >= {:.4}, diameter >= {}",
        haspl_lower_bound(g.num_hosts() as u64, g.radix() as u64),
        diameter_lower_bound(g.num_hosts() as u64, g.radix() as u64)
    );
    let hist = g.host_distribution();
    println!(
        "host distribution (hosts: switches): {:?}",
        hist.iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    use orp::topo::prelude::*;
    let usage = "usage: orp compare [n] [r]";
    reject_unknown_flags(args, usage)?;
    let n: u32 = arg_num(args, 0, 1024);
    let r: u32 = arg_num(args, 1, 16);
    instance(n.into(), r.into(), usage)?;
    println!(
        "{:<28} {:>5} {:>4} {:>8} {:>3}",
        "topology", "m", "r", "h-ASPL", "D"
    );
    let row = |name: String, g: &HostSwitchGraph| {
        let pm = path_metrics(g).expect("connected");
        println!(
            "{:<28} {:>5} {:>4} {:>8.4} {:>3}",
            name,
            g.num_switches(),
            g.radix(),
            pm.haspl,
            pm.diameter
        );
    };
    let torus = Torus::paper_5d();
    if n <= torus.max_hosts() {
        row(
            torus.name(),
            &torus
                .build_with_hosts(n, AttachOrder::Sequential)
                .map_err(|e| e.to_string())?,
        );
    }
    let df = Dragonfly::paper_a8();
    if n <= df.max_hosts() {
        row(
            df.name(),
            &df.build_with_hosts(n, AttachOrder::Sequential)
                .map_err(|e| e.to_string())?,
        );
    }
    let ft = FatTree::paper_16ary();
    if n <= ft.max_hosts() {
        row(
            ft.name(),
            &ft.build_with_hosts(n, AttachOrder::Sequential)
                .map_err(|e| e.to_string())?,
        );
    }
    let cfg = SaConfig {
        iters: 5000,
        seed: 1,
        ..Default::default()
    };
    let report = Solver::builder(n, r)
        .config(cfg)
        .run()
        .map_err(|e| e.to_string())?;
    row(
        format!("proposed ORP (m_opt={})", report.m_opt),
        &report.result.graph,
    );
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp simulate <file.hsg> [bench] [iters] [--trace t.json] \
                 [--metrics m.jsonl] [--checkpoint ck.orp] [--resume] [--watchdog secs] \
                 [--sharing exact|approx] [--inject flows] [--seed s]";
    let (trace, pos) = split_value_flag(args, "--trace")?;
    let (metrics, pos) = split_value_flag(&pos, "--metrics")?;
    let (ckpt, pos) = split_value_flag(&pos, "--checkpoint")?;
    let (watchdog, pos) = split_value_flag(&pos, "--watchdog")?;
    let (sharing, pos) = split_value_flag(&pos, "--sharing")?;
    let (inject, pos) = split_value_flag(&pos, "--inject")?;
    let (seed, pos) = split_value_flag(&pos, "--seed")?;
    let resume = pos.iter().any(|a| a == "--resume");
    let pos: Vec<String> = pos.into_iter().filter(|a| a != "--resume").collect();
    reject_unknown_flags(&pos, usage)?;
    if resume && ckpt.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    let sharing = match sharing.as_deref() {
        None | Some("exact") => SharingMode::ExactMaxMin,
        Some("approx") => SharingMode::ApproxFair,
        Some(other) => return Err(format!("unknown sharing mode {other}; exact or approx")),
    };
    let inject: Option<usize> = match inject {
        Some(n) => Some(n.parse().map_err(|_| "--inject needs a flow count")?),
        None => None,
    };
    let seed: u64 = match seed {
        Some(s) => s.parse().map_err(|_| "--seed needs an integer")?,
        None => 42,
    };
    let g = load(pos.first().ok_or(usage)?)?;
    if let Some(flows) = inject {
        return simulate_injection(&g, flows, seed, sharing, metrics.as_deref());
    }
    let name = pos.get(1).map(String::as_str).unwrap_or("MG");
    let bench = Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark {name}; one of BT CG EP FT IS LU MG SP"))?;
    let iters: usize = arg_num(&pos, 2, 1);
    let ranks = g.num_hosts();
    let rec = if trace.is_some() || metrics.is_some() {
        trace_recorder()
    } else {
        Recorder::disabled()
    };
    let watchdog = watchdog_timeout(watchdog, usage)?;
    let sink = match &metrics {
        Some(p) => {
            let s = StreamSink::create(p).map_err(|e| format!("{p}: {e}"))?;
            s.meta(
                &[("cmd", "simulate"), ("bench", bench.name())],
                &[("ranks", ranks as f64), ("iters", iters as f64)],
            );
            Some(s)
        }
        None => None,
    };
    // the simulator inherits the network's recorder
    let net = Network::builder(&g).recorder(rec.clone()).build();
    let res = run_benchmark_configured(
        &net,
        bench,
        ranks,
        bench.paper_class(),
        iters,
        sharing,
        |mut b| {
            if let Some(s) = &sink {
                b = b.stream(s.clone());
            }
            if let Some(ck) = &ckpt {
                b = b.checkpoint(ck);
                if resume && std::path::Path::new(ck).exists() {
                    b = b.resume_from(ck);
                    eprintln!("resuming from {ck}");
                }
            }
            if let Some(timeout) = watchdog {
                b = b.watchdog(timeout);
            }
            b
        },
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    println!(
        "{} on {} ranks: sim time {:.6} s, {:.0} Mop/s, {} flows, {:.3e} bytes",
        res.name, ranks, res.time, res.mops, res.flows, res.bytes
    );
    // machine-readable state line for kill-and-resume comparisons
    println!(
        "sim-state: time_bits={:#018x} flows={} bytes_bits={:#018x}",
        res.time.to_bits(),
        res.flows,
        res.bytes.to_bits()
    );
    if let Some(path) = trace {
        rec.export_to(&ChromeTrace, &path)
            .map_err(|e| e.to_string())?;
        println!("wrote {path} (open in chrome://tracing, or run `orp report {path}`)");
    }
    if let Some(s) = &sink {
        s.finish(&rec, || ());
        println!(
            "wrote {} (inspect with `orp watch --once` or `orp report`)",
            s.path().display()
        );
    }
    Ok(())
}

/// `orp simulate --inject N`: an open-loop injection workload instead of
/// an NPB kernel — N random flows (deterministic in `seed`) released
/// within 1 ms so they stream concurrently — the workload class the
/// injection cursor and the slab event queue exist for.
fn simulate_injection(
    g: &HostSwitchGraph,
    n_flows: usize,
    seed: u64,
    sharing: SharingMode,
    metrics: Option<&str>,
) -> Result<(), String> {
    let hosts = g.num_hosts();
    if hosts < 2 {
        return Err("--inject needs a graph with at least 2 hosts".into());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let flows: Vec<InjectedFlow> = (0..n_flows)
        .map(|_| {
            let src = rng.gen_range(0..hosts);
            let mut dst = rng.gen_range(0..hosts);
            while dst == src {
                dst = rng.gen_range(0..hosts);
            }
            InjectedFlow {
                at: rng.gen_range(0u32..1_000_000) as f64 * 1e-9,
                src,
                dst,
                bytes: 1e6,
            }
        })
        .collect();
    let sink = match metrics {
        Some(p) => {
            let s = StreamSink::create(p).map_err(|e| format!("{p}: {e}"))?;
            s.meta(
                &[("cmd", "simulate"), ("bench", "inject")],
                &[("flows", n_flows as f64), ("seed", seed as f64)],
            );
            Some(s)
        }
        None => None,
    };
    let rec = if sink.is_some() {
        trace_recorder()
    } else {
        Recorder::disabled()
    };
    let net = Network::builder(g).recorder(rec.clone()).build();
    let start = std::time::Instant::now();
    let mut b = Simulator::builder(&net).inject(&flows).sharing(sharing);
    if let Some(s) = &sink {
        b = b.stream(s.clone());
    }
    let rep = b.run().map_err(|e| format!("simulation failed: {e}"))?;
    let wall = start.elapsed().as_secs_f64();
    println!(
        "injected {} flows ({} sharing): sim time {:.6} s, \
         {:.0} events/s wall, peak {} flows, {} compacted",
        rep.flows,
        sharing.name(),
        rep.time,
        rep.events as f64 / wall.max(1e-9),
        rep.peak_flows,
        rep.events_compacted + rep.model_compacted,
    );
    // machine-readable state line for bit-identity comparisons
    println!(
        "sim-state: time_bits={:#018x} flows={} bytes_bits={:#018x}",
        rep.time.to_bits(),
        rep.flows,
        rep.bytes.to_bits()
    );
    if let Some(s) = &sink {
        s.finish(&rec, || ());
        println!(
            "wrote {} (inspect with `orp watch --once` or `orp report`)",
            s.path().display()
        );
    }
    Ok(())
}

fn load_trace(path: &str) -> Result<TraceData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TraceData::parse_chrome(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp report <trace.json|metrics.jsonl> [--top k] [--collapsed]";
    let (top, pos) = split_value_flag(args, "--top")?;
    let collapsed = pos.iter().any(|a| a == "--collapsed");
    let pos: Vec<String> = pos.into_iter().filter(|a| a != "--collapsed").collect();
    reject_unknown_flags(&pos, usage)?;
    let top: usize = top.and_then(|t| t.parse().ok()).unwrap_or(10);
    let path = pos.first().ok_or(usage)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if is_stream(&text) {
        // a live-telemetry stream, not a Chrome trace: summarize the
        // final state instead of attributing spans
        if collapsed {
            return Err("--collapsed needs a Chrome trace, not a metrics stream".into());
        }
        let state = parse_stream(&text).map_err(|e| format!("{path}: {e}"))?;
        print!("{}", render_stream_report(&state));
        return Ok(());
    }
    let data = TraceData::parse_chrome(&text).map_err(|e| format!("{path}: {e}"))?;
    if collapsed {
        // folded stacks for flamegraph tooling instead of the report
        print!("{}", collapsed_stacks(&aggregate_spans(&data.spans)));
    } else {
        print!("{}", render_report(&data, top));
    }
    Ok(())
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp watch <metrics.jsonl> [--once] [--interval ms]";
    let (interval, pos) = split_value_flag(args, "--interval")?;
    let once = pos.iter().any(|a| a == "--once");
    let pos: Vec<String> = pos.into_iter().filter(|a| a != "--once").collect();
    reject_unknown_flags(&pos, usage)?;
    let path = pos.first().ok_or(usage)?;
    let interval = std::time::Duration::from_millis(match interval {
        Some(ms) => ms.parse().map_err(|_| "--interval needs milliseconds")?,
        None => 500,
    });
    if once {
        // single frame, no screen clearing: scriptable / CI-friendly
        let state = read_stream(path)?;
        print!("{}", render_dashboard(&state, None));
        return Ok(());
    }
    use std::io::Write as _;
    let mut follower = StreamFollower::new(path);
    let mut prev: Option<StreamState> = None;
    loop {
        let advanced = follower.poll().map_err(|e| format!("{path}: {e}"))?;
        if advanced || prev.is_none() {
            // redraw in place, like watch(1): clear screen, cursor home
            let mut out = std::io::stdout().lock();
            write!(
                out,
                "\x1b[2J\x1b[H{}",
                render_dashboard(&follower.state, prev.as_ref())
            )
            .map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            prev = Some(follower.state.clone());
        }
        if follower.state.done {
            println!("run finished.");
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp diff <a.json> <b.json>";
    reject_unknown_flags(args, usage)?;
    let a_path = args.first().ok_or(usage)?;
    let b_path = args.get(1).ok_or(usage)?;
    let a = load_trace(a_path)?;
    let b = load_trace(b_path)?;
    let d = diff(&a, &b)?;
    print!("{}", render_diff(a_path, b_path, &d));
    Ok(())
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp partition <file.hsg> [max_k]";
    reject_unknown_flags(args, usage)?;
    let g = load(args.first().ok_or(usage)?)?;
    let max_k: usize = arg_num(args, 1, 16);
    let n = g.num_hosts();
    let mut edges: Vec<(u32, u32)> = (0..n).map(|h| (h, n + g.switch_of(h))).collect();
    edges.extend(g.links().map(|(a, b)| (n + a, n + b)));
    let cg = CutGraph::from_edges((n + g.num_switches()) as usize, &edges);
    println!("{:<4} {:>10}", "P", "edge cut");
    for k in 2..=max_k.max(2) {
        let p = partition(&cg, k, &PartitionConfig::default());
        println!("{k:<4} {:>10}", p.cut);
    }
    Ok(())
}

fn cmd_layout(args: &[String]) -> Result<(), String> {
    let usage = "usage: orp layout <file.hsg> [switches_per_cabinet]";
    reject_unknown_flags(args, usage)?;
    let g = load(args.first().ok_or(usage)?)?;
    let per: u32 = arg_num(args, 1, 1);
    let hw = HardwareModel::default();
    let naive = evaluate(&g, &Floorplan::new(&g, per), &hw);
    let opt = evaluate(&g, &optimized_floorplan(&g, per, 1), &hw);
    println!("{:<26} {:>12} {:>12}", "", "id-order", "optimized");
    println!(
        "{:<26} {:>12.0} {:>12.0}",
        "cable length (m)", naive.cable_m, opt.cable_m
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "optical cables", naive.optical_cables, opt.optical_cables
    );
    println!(
        "{:<26} {:>12.0} {:>12.0}",
        "power (W)",
        naive.total_power(),
        opt.total_power()
    );
    println!(
        "{:<26} {:>12.0} {:>12.0}",
        "cable cost ($)", naive.cable_cost, opt.cable_cost
    );
    println!(
        "{:<26} {:>12.0} {:>12.0}",
        "total cost ($)",
        naive.total_cost(),
        opt.total_cost()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: orp <bounds|solve|eval|compare|simulate|watch|report|diff|partition|layout> ..."
        );
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "bounds" => cmd_bounds(rest),
        "solve" => cmd_solve(rest),
        "eval" => cmd_eval(rest),
        "compare" => cmd_compare(rest),
        "simulate" => cmd_simulate(rest),
        "watch" => cmd_watch(rest),
        "report" => cmd_report(rest),
        "diff" => cmd_diff(rest),
        "partition" => cmd_partition(rest),
        "layout" => cmd_layout(rest),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
