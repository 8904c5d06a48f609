//! # orp-core — host-switch graphs and the Order/Radix Problem
//!
//! Reference implementation of *"Order/Radix Problem: Towards Low
//! End-to-End Latency Interconnection Networks"* (Yasudo et al.,
//! ICPP 2017).
//!
//! A [`HostSwitchGraph`] models an interconnection network with `n`
//! single-port **hosts** and `m` radix-`r` **switches**. The *Order/Radix
//! Problem* (ORP) asks: given `n` and `r` — with `m` free — find the
//! host-switch graph minimising the host-to-host average shortest path
//! length (**h-ASPL**), which is the ideal all-to-all latency of the
//! network.
//!
//! The crate provides:
//!
//! * the graph model and invariant enforcement ([`graph`]),
//! * exact h-ASPL / diameter computation via switch-level APSP
//!   ([`metrics`]),
//! * all lower bounds of the paper — Theorems 1 and 2, the Moore bound,
//!   and the continuous Moore bound that predicts the optimal switch
//!   count `m_opt` ([`bounds`]),
//! * the swap / swing / 2-neighbor-swing local-search operations
//!   ([`ops`]), the transactional, allocation-free evaluation engine
//!   behind the annealer ([`search`]), the simulated-annealing engine
//!   ([`anneal`]), and the one end-to-end (n, r) → topology entry point
//!   over it ([`solver`]),
//! * constructions for the analytically optimal regimes ([`construct`])
//!   and a textual interchange format ([`io`]).
//!
//! ## Quickstart
//!
//! ```
//! use orp_core::solver::Solver;
//! use orp_core::anneal::SaConfig;
//! use orp_core::bounds::haspl_lower_bound;
//!
//! let cfg = SaConfig { iters: 500, seed: 42, ..Default::default() };
//! let report = Solver::builder(64, 10).config(cfg).run().unwrap();
//! assert_eq!(report.result.graph.num_switches(), report.m);
//! assert!(report.result.metrics.haspl >= haspl_lower_bound(64, 10));
//! ```

#![warn(missing_docs)]

pub mod anneal;
pub mod bounds;
pub mod ckpt;
pub mod construct;
pub mod error;
pub mod exact;
pub mod fault;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod odp;
pub mod ops;
pub mod random_graphs;
pub mod search;
pub mod solver;
pub mod watchdog;

pub use anneal::{Anneal, MoveKind, SaConfig, SaConfigBuilder, SaResult};
pub use ckpt::{Checkpointable, CkptError};
pub use error::{GraphError, SaError};
pub use fault::{DegradedMetrics, FaultSet, FaultView};
pub use graph::{Host, HostSwitchGraph, Switch};
pub use metrics::{path_metrics, PathMetrics};
pub use search::{PoolWorkerStats, SearchConfig, SearchState};
pub use solver::{SolveReport, Solver};
pub use watchdog::{WatchSource, Watchdog, WatchdogConfig};
