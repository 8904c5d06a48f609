//! # orp-route — routing for host-switch graphs
//!
//! Routing-table construction for arbitrary host-switch topologies, used
//! by the network simulator:
//!
//! * [`table::RoutingTable`] — all-pairs shortest paths with
//!   deterministic per-flow ECMP (the simulator's default, matching the
//!   shortest-path routing the paper's SimGrid setup uses);
//! * [`updown::UpDownRouting`] — Autonet-style up*/down* deadlock-free
//!   deterministic routing (the topology-agnostic scheme of the paper's
//!   reference \[14\]), useful for ablations on routing restrictions.
//!
//! ```
//! use orp_core::HostSwitchGraph;
//! use orp_route::RoutingTable;
//!
//! let mut g = HostSwitchGraph::new(3, 4).unwrap();
//! g.add_link(0, 1).unwrap();
//! g.add_link(1, 2).unwrap();
//! let t = RoutingTable::build(&g);
//! assert_eq!(t.path(0, 2, 0).unwrap(), vec![0, 1, 2]);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod table;
pub mod updown;
pub mod valiant;

pub use error::RouteError;
pub use table::RoutingTable;
pub use updown::UpDownRouting;
pub use valiant::ValiantRouting;
