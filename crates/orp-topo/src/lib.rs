//! # orp-topo — conventional interconnection topologies
//!
//! The three Top500-representative topologies the ORP paper compares
//! against (§6.1), each expressed as a host-switch graph:
//!
//! * [`torus::Torus`] — the `K`-ary `N`-torus (Titan, Sequoia),
//! * [`dragonfly::Dragonfly`] — the balanced dragonfly (Cori, Piz Daint),
//! * [`fattree::FatTree`] — the three-layer `K`-ary fat-tree (Tianhe-2),
//!
//! plus the host-attachment strategies of §6.2.1 ([`attach`]) and the
//! common [`spec::Topology`] trait.
//!
//! ```
//! use orp_topo::prelude::*;
//!
//! let torus = Torus::paper_5d();
//! let g = torus.build_with_hosts(1024, AttachOrder::Sequential).unwrap();
//! assert_eq!(g.num_switches(), 243);
//! ```

#![warn(missing_docs)]

pub mod attach;
pub mod dragonfly;
pub mod fattree;
pub mod slimfly;
pub mod spec;
pub mod torus;

/// Glob-import convenience: the trait plus all topology types.
pub mod prelude {
    pub use crate::attach::{attach_hosts, relabel_hosts_dfs, AttachOrder};
    pub use crate::dragonfly::Dragonfly;
    pub use crate::fattree::FatTree;
    pub use crate::slimfly::SlimFly;
    pub use crate::spec::Topology;
    pub use crate::torus::Torus;
}

pub use attach::AttachOrder;
pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use slimfly::SlimFly;
pub use spec::Topology;
pub use torus::Torus;
