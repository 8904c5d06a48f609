//! # orp — the Order/Radix Problem toolkit
//!
//! Umbrella crate re-exporting the whole workspace: a reproduction of
//! *"Order/Radix Problem: Towards Low End-to-End Latency Interconnection
//! Networks"* (Yasudo et al., ICPP 2017) plus the substrates its
//! evaluation needs (network simulator, graph partitioner, floorplanner)
//! and a set of extensions (exact solver, Slim Fly, packet-level
//! validation, placement optimisation).
//!
//! ## Map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `orp-core` | host-switch graphs, h-ASPL metrics, bounds, the transactional search engine, SA solver |
//! | [`topo`] | `orp-topo` | torus, dragonfly, fat-tree, Slim Fly |
//! | [`route`] | `orp-route` | shortest-path/ECMP, up*/down* |
//! | [`netsim`] | `orp-netsim` | fluid + packet simulators, MPI, NPB skeletons |
//! | [`partition`] | `orp-partition` | multilevel k-way partitioner, max-flow |
//! | [`layout`] | `orp-layout` | floorplans, cables, power/cost, placement |
//! | [`obs`] | `orp-obs` | zero-cost-when-off telemetry: spans, counters, histograms, the JSONL metrics stream and its readers |
//!
//! ## The 30-second tour
//!
//! ```
//! use orp::core::anneal::SaConfig;
//! use orp::core::bounds::optimal_switch_count;
//! use orp::core::solver::Solver;
//!
//! // The paper's design recipe: m_opt from the continuous Moore bound…
//! let (m_opt, bound) = optimal_switch_count(256, 12);
//! // …then 2-neighbor-swing simulated annealing at that switch count.
//! let cfg = SaConfig { iters: 2_000, seed: 42, ..Default::default() };
//! let report = Solver::builder(256, 12).config(cfg).run().unwrap();
//! assert_eq!(report.m as u64, m_opt);
//! assert!(report.result.metrics.haspl >= bound * 0.95); // sanity, not tightness
//! ```
//!
//! ## Builders and telemetry
//!
//! The solver and simulator are driven through builders that optionally
//! carry an [`obs::Recorder`]; a disabled recorder (the default) costs
//! one branch per probe, so the same code path serves production runs
//! and instrumented ones. A [`obs::StreamSink`] writes what the run
//! recorded to the toolkit's one telemetry format, which
//! [`obs::read_stream`] decodes for analysis:
//!
//! ```
//! use orp::prelude::*;
//!
//! let rec = Recorder::enabled();
//! let result = Anneal::builder(orp::core::construct::random_general(16, 4, 8, 1).unwrap())
//!     .config(SaConfig::builder().iters(200).seed(7).build())
//!     .recorder(rec.clone())
//!     .run()
//!     .unwrap();
//! assert!(result.metrics.haspl > 0.0);
//! let path = std::env::temp_dir().join("orp-tour-anneal.jsonl");
//! StreamSink::create(&path)?.finish(&rec, || ());
//! let run = read_stream(&path)?;
//! assert_eq!(run.state.counter("anneal.proposed"), Some(result.proposed as u64));
//! assert!(run.spans.iter().any(|s| s.name == "anneal.run"));
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use orp_core as core;
pub use orp_layout as layout;
pub use orp_netsim as netsim;
pub use orp_obs as obs;
pub use orp_partition as partition;
pub use orp_route as route;
pub use orp_topo as topo;

/// Any error the toolkit's fallible entry points can produce, unified so
/// applications can `?` across crate boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Graph construction or solver failure ([`core::GraphError`]).
    Graph(core::GraphError),
    /// Routing failure ([`route::RouteError`]).
    Route(route::RouteError),
    /// Simulation failure ([`netsim::SimError`]).
    Sim(netsim::SimError),
    /// Annealing failure — stall, invariant breach, or a checkpoint
    /// problem ([`core::SaError`]).
    Sa(core::SaError),
    /// Checkpoint save/load failure outside a solve or simulation
    /// ([`core::CkptError`]).
    Ckpt(core::CkptError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "graph: {e}"),
            Self::Route(e) => write!(f, "route: {e}"),
            Self::Sim(e) => write!(f, "simulation: {e}"),
            Self::Sa(e) => write!(f, "solve: {e}"),
            Self::Ckpt(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Graph(e) => Some(e),
            Self::Route(e) => Some(e),
            Self::Sim(e) => Some(e),
            Self::Sa(e) => Some(e),
            Self::Ckpt(e) => Some(e),
        }
    }
}

impl From<core::GraphError> for Error {
    fn from(e: core::GraphError) -> Self {
        Self::Graph(e)
    }
}

impl From<route::RouteError> for Error {
    fn from(e: route::RouteError) -> Self {
        Self::Route(e)
    }
}

impl From<netsim::SimError> for Error {
    fn from(e: netsim::SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<core::SaError> for Error {
    fn from(e: core::SaError) -> Self {
        Self::Sa(e)
    }
}

impl From<core::CkptError> for Error {
    fn from(e: core::CkptError) -> Self {
        Self::Ckpt(e)
    }
}

/// One-stop imports for the builder-style API:
/// `use orp::prelude::*;`.
pub mod prelude {
    pub use crate::core::anneal::{Anneal, MoveKind, SaConfig, SaResult};
    pub use crate::core::ckpt::{Checkpointable, CkptError};
    pub use crate::core::error::SaError;
    pub use crate::core::graph::HostSwitchGraph;
    pub use crate::core::search::SearchConfig;
    pub use crate::core::solver::{SolveReport, Solver};
    pub use crate::core::watchdog::{WatchSource, Watchdog, WatchdogConfig};
    pub use crate::netsim::{
        BlockedRank, FaultEvent, InjectedFlow, NetConfig, NetFault, Network, NetworkBuilder, Op,
        Program, SharingMode, SimCheckpoint, SimError, SimReport, Simulator, SimulatorBuilder,
        WaitReason,
    };
    pub use crate::obs::{read_stream, Recorder, StreamSink};
    pub use crate::Error;
}
