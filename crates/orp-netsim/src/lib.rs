//! # orp-netsim — a flow-level MPI network simulator
//!
//! The SimGrid substitute for the paper's performance evaluation
//! (§6.2.1): hosts compute at 100 GFlops; messages become fluid *flows*
//! over shortest-path routes with max-min fair bandwidth sharing (the
//! same model family as SimGrid's SMPI); MPI collectives follow the
//! MVAPICH2-style algorithms; and the NAS Parallel Benchmarks are
//! reproduced as communication skeletons with calibrated compute phases.
//!
//! Layering:
//!
//! * [`network`] — links, routes, and physical constants,
//! * [`queue`] / [`event`] / [`context`] — the explicit event-queue
//!   core: timestamped events addressed to components, with O(1)
//!   cancellation,
//! * [`sharing`] — pluggable throughput-sharing models (exact max-min
//!   and approximate per-link fair sharing),
//! * [`engine`] — the discrete-event simulator orchestrating ranks,
//!   faults, and open-loop injection over the queue, executing per-rank
//!   [`engine::Op`] programs,
//! * [`mpi`] — collective algorithms building those programs,
//! * [`npb`] — the eight NPB kernels (EP, IS, FT, MG, CG, LU, BT, SP),
//! * [`report`] — Mop/s accounting as plotted in Figs. 9a/10a/11a.
//!
//! ```
//! use orp_core::construct::random_general;
//! use orp_netsim::network::Network;
//! use orp_netsim::npb::{Benchmark, Class};
//! use orp_netsim::report::run_benchmark;
//!
//! let g = random_general(16, 4, 8, 1).unwrap();
//! let net = Network::builder(&g).build();
//! let res = run_benchmark(&net, Benchmark::Ep, 16, Class::A, 1).unwrap();
//! assert!(res.mops > 0.0);
//! ```
//!
//! The stack operates degraded instead of panicking: simulation returns
//! `Result` ([`engine::SimError`] carries deadlock/partition
//! diagnostics), networks can be compiled against an
//! [`orp_core::fault::FaultSet`]
//! ([`network::NetworkBuilder::faults`]), and mid-run element deaths
//! ([`engine::NetFault`]) tear down and re-route the affected flows.
//!
//! Long runs are crash-safe: [`engine::SimulatorBuilder::checkpoint`]
//! periodically snapshots the complete simulator state (event queue,
//! rank contexts, flows, sharing-model internals) to an atomic,
//! checksummed file; [`engine::SimulatorBuilder::resume_from`]
//! continues a killed run bit-identically; and
//! [`engine::SimulatorBuilder::watchdog`] turns a wall-clock hang into
//! a force-checkpointed, resumable [`engine::SimError::Wedged`].
//!
//! Both builders accept an [`orp_obs::Recorder`] for zero-cost-when-off
//! telemetry: flow lifecycle events, per-link utilization and
//! queue-depth histograms, and fault/reroute records (see the `orp-obs`
//! crate docs for the sinks).

#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod event;
pub mod mpi;
pub mod network;
pub mod npb;
pub mod packet;
pub mod patterns;
pub mod queue;
mod rank;
pub mod report;
pub mod sharing;

pub use context::SimContext;
pub use engine::{
    FaultEvent, InjectedFlow, NetFault, Op, Program, SimCheckpoint, SimError, SimReport, Simulator,
    SimulatorBuilder, SIM_CKPT_EVERY_DEFAULT,
};
pub use event::EventId;
pub use network::{NetConfig, Network, NetworkBuilder, RouteMode};
pub use queue::EventQueue;
pub use rank::{BlockedRank, WaitReason};
pub use report::{
    run_benchmark, run_benchmark_configured, run_benchmark_with, run_suite, BenchResult,
};
pub use sharing::{SharingMode, ThroughputSharingModel};
