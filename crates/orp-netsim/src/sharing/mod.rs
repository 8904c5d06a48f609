//! Pluggable throughput-sharing models.
//!
//! The simulation core in [`crate::engine`] owns flows, ranks, and the
//! event queue; *how bandwidth is divided among concurrently streaming
//! flows* is delegated to a [`ThroughputSharingModel`]. Two models ship:
//!
//! * [`maxmin::MaxMinFair`] — exact max-min fairness by progressive
//!   filling. Rates stay bit-identical to filling every streaming flow
//!   after every change (the original engine's model and reports), but
//!   only the flow groups a change touches — unions of link-connected
//!   components, merged on shared links and near-tied shares — are
//!   refilled.
//! * [`fair::ApproxFairSharing`] — approximate fair sharing that only
//!   touches the links a flow change actually crosses, with completion
//!   times kept lazily correct by cancelling and reinserting per-link
//!   events. O(route length × log flows) per flow change, which is what
//!   makes ≥100k concurrent flows tractable.
//!
//! Select a model with [`SharingMode`] via
//! `Simulator::builder(net).sharing(mode)`.

pub mod fair;
pub mod maxmin;
mod table;

pub use table::FlowTable;

use crate::context::SimContext;
use crate::network::LinkId;
use orp_core::ckpt::{CkptError, Decoder, Encoder};
use orp_obs::Recorder;

/// Which throughput-sharing model a simulation runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingMode {
    /// Exact max-min fairness (progressive filling); the default and the
    /// reference model — bit-compatible with the pre-event-queue engine.
    #[default]
    ExactMaxMin,
    /// Approximate per-link fair sharing with lazy completion-time
    /// recomputation; use for very large concurrent-flow counts, where
    /// the exact model's refills of large connected flow groups are
    /// quadratic.
    ApproxFair,
}

impl SharingMode {
    /// Human-readable model name (used in reports and benchmarks).
    pub fn name(self) -> &'static str {
        match self {
            Self::ExactMaxMin => "exact max-min",
            Self::ApproxFair => "approx fair",
        }
    }
}

/// Route storage for a [`Flow`]: routes of up to [`RouteBuf::INLINE`]
/// links live in place, longer ones spill to a box.
///
/// On low-diameter fabrics almost every route is `uplink → a hop or
/// two → downlink`, so the inline arm makes flow creation and teardown
/// allocation-free and keeps the route on the flow's own cache line —
/// at a million flows the boxed representation costs a malloc/free pair
/// per flow plus a dependent load on every model route access, and the
/// burst of a million tiny frees at teardown sends the allocator into a
/// long consolidation walk.
#[derive(Debug)]
pub(crate) enum RouteBuf {
    /// `links[..len]` is the route.
    Inline {
        len: u8,
        links: [LinkId; RouteBuf::INLINE],
    },
    /// Route longer than the inline arm holds.
    Boxed(Box<[LinkId]>),
}

impl RouteBuf {
    /// Longest route stored without a heap allocation.
    pub(crate) const INLINE: usize = 4;

    /// The empty route (what finished flows hold).
    pub(crate) const EMPTY: Self = Self::Inline {
        len: 0,
        links: [0; Self::INLINE],
    };

    pub(crate) fn from_slice(route: &[LinkId]) -> Self {
        if route.len() <= Self::INLINE {
            let mut links = [0; Self::INLINE];
            links[..route.len()].copy_from_slice(route);
            Self::Inline {
                len: route.len() as u8,
                links,
            }
        } else {
            Self::Boxed(route.into())
        }
    }
}

impl std::ops::Deref for RouteBuf {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        match self {
            Self::Inline { len, links } => &links[..*len as usize],
            Self::Boxed(b) => b,
        }
    }
}

/// A network flow as the sharing models see it. Owned by the engine;
/// models mutate `remaining`/`rate` and read the route.
///
/// Kept to 64 bytes (one cache line) so a million concurrent flows cost
/// 64 MB of flow table: the four timing fields the latency decomposition
/// needs — and nothing on the simulation path reads — live in
/// `FlowAux` beside the telemetry vectors, allocated only while a
/// recorder is attached. Short routes live inline in the flow record
/// (`RouteBuf`); the rare boxed route is freed when the flow finishes,
/// so heap route memory is bounded by the *concurrent* flow count, not
/// the total.
#[derive(Debug)]
pub struct Flow {
    pub(crate) route: RouteBuf,
    pub(crate) remaining: f64,
    pub(crate) rate: f64,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    /// ECMP hash the flow was routed with; re-used when faults force a
    /// re-route so repeated runs stay deterministic. Flow sequence
    /// numbers fit in `u32` (flow ids are `u32`), so the narrow field
    /// widens back losslessly.
    pub(crate) hash: u32,
    pub(crate) active: bool,
    pub(crate) finished: bool,
    /// Original payload size (for the completion-time decomposition).
    pub(crate) bytes: f64,
    /// Open-loop injected flow: host-addressed, no rank delivery.
    pub(crate) injected: bool,
}

/// Telemetry-only timing state of one flow, stored beside its record in
/// the [`FlowTable`]. Only the latency decomposition reads these, so
/// they live off the simulation hot path and are maintained (and
/// allocated) only while a recorder is attached.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowAux {
    /// Simulated creation time.
    pub(crate) created: f64,
    /// First-route activation delay (the propagation component).
    pub(crate) prop: f64,
    /// Accumulated streaming time (the decomposition's serialization +
    /// queueing share).
    pub(crate) active_time: f64,
    /// Time the flow last started streaming (set at model insert).
    pub(crate) activated: f64,
}

/// Per-link telemetry shared between the engine and the sharing models.
///
/// All vectors are allocated only while a recording [`Recorder`] is
/// attached; with the no-op recorder they stay empty and every model
/// hook that would touch them is skipped, so telemetry can never perturb
/// the simulation.
#[derive(Debug)]
pub struct LinkStats {
    pub(crate) rec: Recorder,
    /// Per-link bytes moved.
    pub(crate) link_bytes: Vec<f64>,
    /// Per-link time-integral of flow multiplicity (seconds of flow
    /// presence).
    pub(crate) link_busy: Vec<f64>,
    /// Per-link peak flow multiplicity.
    pub(crate) link_peak: Vec<u32>,
}

impl LinkStats {
    pub(crate) fn new(rec: Recorder, num_links: usize) -> Self {
        let (link_bytes, link_busy, link_peak) = if rec.is_enabled() {
            (
                vec![0.0; num_links],
                vec![0.0; num_links],
                vec![0u32; num_links],
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        Self {
            rec,
            link_bytes,
            link_busy,
            link_peak,
        }
    }

    /// True while a recording recorder is attached (the vectors are
    /// allocated and should be maintained).
    pub(crate) fn tracking(&self) -> bool {
        !self.link_bytes.is_empty()
    }
}

/// How concurrently streaming flows divide link bandwidth.
///
/// The engine calls these hooks at fixed points of its event loop; a
/// model may keep completion times either *intrinsically* (report the
/// next one from [`next_completion_in`] and drain flows in
/// [`collect_finished`], like the exact model) or *extrinsically*
/// (schedule per-link events through the [`SimContext`] and finish flows
/// in [`on_event`], like the approximate model). Both mechanisms may be
/// mixed. See DESIGN.md §5 for the full contract.
///
/// [`next_completion_in`]: ThroughputSharingModel::next_completion_in
/// [`collect_finished`]: ThroughputSharingModel::collect_finished
/// [`on_event`]: ThroughputSharingModel::on_event
pub trait ThroughputSharingModel: std::fmt::Debug {
    /// Flow `fid` starts streaming (its activation delay elapsed). The
    /// engine has already set `flows[fid].active`.
    fn insert(
        &mut self,
        fid: u32,
        flows: &mut FlowTable,
        ctx: &mut SimContext<'_>,
        tel: &mut LinkStats,
    );

    /// Flow `fid` is torn down while streaming (a fault re-routes it).
    /// The model must leave `flows[fid].remaining` at the not-yet-
    /// delivered byte count and stop tracking the flow.
    fn remove(
        &mut self,
        fid: u32,
        flows: &mut FlowTable,
        ctx: &mut SimContext<'_>,
        tel: &mut LinkStats,
    );

    /// Re-solves the allocation if flow membership changed since the
    /// last solve (called before the engine asks for completion times).
    fn settle(&mut self, flows: &mut FlowTable, tel: &mut LinkStats);

    /// Late settle after the engine drained its event batch; models that
    /// solve on settle refresh here so rates are current for the next
    /// advance (the exact model skips it when nothing streams).
    fn settle_tail(&mut self, flows: &mut FlowTable, tel: &mut LinkStats);

    /// Time from now to the model's next intrinsic flow completion, or
    /// `f64::INFINITY` if it has none (or schedules them as events).
    fn next_completion_in(&self, flows: &FlowTable) -> f64;

    /// Advances simulated time by `dt`, streaming whatever the model
    /// tracks intrinsically.
    fn advance(&mut self, flows: &mut FlowTable, dt: f64, tel: &mut LinkStats);

    /// Appends flows that have intrinsically drained (remaining ≈ 0) to
    /// `out`; the engine completes them in append order.
    fn collect_finished(&mut self, flows: &mut FlowTable, out: &mut Vec<u32>);

    /// Delivers a model event previously scheduled through
    /// [`SimContext::schedule_model_event`]; flows the event completed
    /// are appended to `finished` with `remaining` zeroed.
    fn on_event(
        &mut self,
        token: u32,
        flows: &mut FlowTable,
        ctx: &mut SimContext<'_>,
        tel: &mut LinkStats,
        finished: &mut Vec<u32>,
    );

    /// The flow table retired every id below `base` (all finished):
    /// per-flow state the model keeps for those ids can go. A retired id
    /// must read as finished from then on.
    fn retire(&mut self, _base: u32) {}

    /// Number of flows currently streaming under this model.
    fn active_count(&self) -> usize;

    /// Tombstoned bookkeeping entries the model has reclaimed by
    /// compaction (advisory telemetry; models without internal heaps
    /// report zero).
    fn compacted(&self) -> u64 {
        0
    }

    /// Serializes the model's complete mutable state for a simulator
    /// checkpoint. Everything a future [`insert`]/[`advance`]/
    /// [`on_event`] depends on must be captured bit-exactly (floats as
    /// raw bits); pure scratch buffers whose contents are recomputed
    /// before being read may be skipped, and so may per-flow state of
    /// flows older than `flows`' oldest unfinished one.
    ///
    /// [`insert`]: ThroughputSharingModel::insert
    /// [`advance`]: ThroughputSharingModel::advance
    /// [`on_event`]: ThroughputSharingModel::on_event
    fn encode_state(&self, enc: &mut Encoder, flows: &FlowTable);

    /// Restores state written by [`encode_state`] into a freshly
    /// constructed model of the same mode/size, validating flow ids
    /// against the decoded flow table `flows` (and rebuilding whatever
    /// the model derives from their routes) and structural parameters
    /// against the construction arguments.
    ///
    /// [`encode_state`]: ThroughputSharingModel::encode_state
    fn decode_state(&mut self, dec: &mut Decoder<'_>, flows: &FlowTable) -> Result<(), CkptError>;
}

/// Constructs the model for `mode` on a fabric of `num_links` links with
/// per-direction `bandwidth`.
pub(crate) fn make_model(
    mode: SharingMode,
    num_links: usize,
    bandwidth: f64,
) -> Box<dyn ThroughputSharingModel> {
    match mode {
        SharingMode::ExactMaxMin => Box::new(maxmin::MaxMinFair::new(num_links, bandwidth)),
        SharingMode::ApproxFair => Box::new(fair::ApproxFairSharing::new(num_links, bandwidth)),
    }
}
