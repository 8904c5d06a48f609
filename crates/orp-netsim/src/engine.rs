//! The discrete-event simulation core.
//!
//! The engine orchestrates three kinds of components over one explicit
//! [`EventQueue`]: the MPI ranks (`Ranks` — sequential programs of
//! [`Op`]s that block on sends/receives), the fault injector (a
//! [`FaultEvent`] schedule is just another event source), and an
//! open-loop traffic source ([`InjectedFlow`]s addressed to hosts,
//! bypassing rank matching).
//!
//! *How* concurrently streaming flows divide link bandwidth is delegated
//! to a pluggable [`ThroughputSharingModel`](crate::sharing): exact
//! max-min fairness (the default — the same model family as SimGrid's
//! SMPI, which the paper's evaluation uses) or an approximate per-link
//! fair sharing whose event cancellation/reinsertion keeps very large
//! flow counts tractable. Select with [`SimulatorBuilder::sharing`].
//!
//! Message latency (software overhead + per-hop delay) is modelled as an
//! activation delay before a flow starts streaming.

use crate::context::SimContext;
use crate::event::{time_sort_bits, Event, TimeKey};
use crate::network::{LinkId, Network};
use crate::queue::EventQueue;
use crate::rank::{BlockedRank, Ranks, Step};
use crate::sharing::{
    make_model, Flow, FlowAux, FlowTable, LinkStats, RouteBuf, SharingMode, ThroughputSharingModel,
};
use orp_core::ckpt::{self, Checkpointable, CkptError, Decoder, Encoder};
use orp_core::graph::Host;
use orp_core::watchdog::{WatchSource, Watchdog, WatchdogConfig};
use orp_obs::{Event as ObsEvent, FaultKind, FlowStage, Recorder, StreamSink};
use orp_route::RoutingTable;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Blocked ranks with no pending events or flows and **no faults
    /// applied**: the program itself is ill-formed (e.g. a receive whose
    /// send never happens).
    Deadlock {
        /// Simulated time at which progress stopped.
        time: f64,
        /// Ranks that had not finished, each with its waiting reason.
        blocked_ranks: Vec<BlockedRank>,
        /// Flows still active (streaming but unable to unblock anyone).
        active_flows: usize,
    },
    /// Blocked ranks after one or more faults struck: the program was
    /// well-formed but degraded operation starved it (distinct from
    /// [`SimError::Deadlock`] — the blockage is environmental, not a
    /// program bug).
    Stalled {
        /// Simulated time at which progress stopped.
        time: f64,
        /// Ranks that had not finished, each with its waiting reason.
        blocked_ranks: Vec<BlockedRank>,
        /// Flows still active when progress stopped.
        active_flows: usize,
        /// Faults that had been applied before the stall.
        faults_applied: usize,
    },
    /// Faults cut communicating ranks off from each other (or killed the
    /// host a rank was running on).
    Partitioned {
        /// Simulated time of the cut.
        time: f64,
        /// The ranks that can no longer make progress (for injected
        /// open-loop flows: the unroutable hosts).
        ranks: Vec<u32>,
    },
    /// The stall watchdog declared the run wedged: no event was
    /// processed for a full wall-clock window. Unlike
    /// [`SimError::Stalled`] (no *simulated* progress possible — an
    /// exact, final verdict), this is a wall-clock judgement about the
    /// host process; the run was force-checkpointed at the last clean
    /// boundary and can be resumed.
    Wedged {
        /// Simulated time at the last loop boundary.
        time: f64,
        /// The watchdog window that elapsed without progress.
        window_secs: f64,
        /// Where the force-checkpoint was written (`None` when the run
        /// had no checkpoint path configured).
        checkpoint: Option<PathBuf>,
    },
    /// Checkpoint save or resume failed: I/O error, corrupted or
    /// wrong-kind file, or a configuration echo mismatch (resuming a
    /// checkpoint under different programs/placement/faults/net).
    Ckpt(CkptError),
    /// A program names a peer outside `0..ranks`: op `op` of `rank`'s
    /// program sends to or receives from `peer`. Reported before any
    /// event runs.
    UnknownPeer {
        /// The rank whose program names the peer.
        rank: u32,
        /// Index of the offending op in that program.
        op: usize,
        /// The peer rank it names.
        peer: u32,
        /// Ranks in the run.
        ranks: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadlock {
                time,
                blocked_ranks,
                active_flows,
            } => write!(
                f,
                "deadlock at t={time}: {} ranks blocked, {active_flows} active flows",
                blocked_ranks.len()
            ),
            Self::Stalled {
                time,
                blocked_ranks,
                active_flows,
                faults_applied,
            } => write!(
                f,
                "stalled at t={time} after {faults_applied} faults: {} ranks blocked, \
                 {active_flows} active flows",
                blocked_ranks.len()
            ),
            Self::Partitioned { time, ranks } => write!(
                f,
                "network partitioned at t={time}: ranks {ranks:?} cut off"
            ),
            Self::Wedged {
                time,
                window_secs,
                checkpoint,
            } => {
                write!(
                    f,
                    "simulation wedged at t={time}: no event processed for {window_secs} s"
                )?;
                match checkpoint {
                    Some(p) => write!(f, " (checkpoint saved to {})", p.display()),
                    None => write!(f, " (no checkpoint path configured)"),
                }
            }
            Self::Ckpt(e) => write!(f, "simulation checkpoint error: {e}"),
            Self::UnknownPeer {
                rank,
                op,
                peer,
                ranks,
            } => write!(
                f,
                "op {op} of rank {rank} names rank {peer}, but the run has {ranks} ranks"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CkptError> for SimError {
    fn from(e: CkptError) -> Self {
        Self::Ckpt(e)
    }
}

/// A network element dying mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Switch `s` fails: every incident link (and every host on it) dies.
    Switch(u32),
    /// The undirected switch–switch link `{a, b}` fails (both directions).
    Link(u32, u32),
}

/// A scheduled mid-run fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the element dies.
    pub time: f64,
    /// What dies.
    pub fault: NetFault,
}

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Local computation of this many floating-point operations.
    Compute(f64),
    /// Blocking send: the rank resumes once the message is delivered.
    Send {
        /// Destination rank.
        to: u32,
        /// Payload size in bytes.
        bytes: f64,
    },
    /// Blocking receive of the next matching message from `from`.
    Recv {
        /// Source rank.
        from: u32,
    },
    /// Simultaneous send + receive (MPI_Sendrecv), the workhorse of the
    /// collective algorithms.
    SendRecv {
        /// Destination rank of the outgoing message.
        to: u32,
        /// Outgoing payload in bytes.
        bytes: f64,
        /// Source rank of the awaited incoming message.
        from: u32,
    },
}

/// A complete per-rank program.
pub type Program = Vec<Op>;

/// An open-loop flow released at an absolute time, addressed to hosts
/// (not ranks): it skips message matching entirely and just streams.
/// The workload generator for scale scenarios beyond what blocking rank
/// programs can express.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFlow {
    /// Simulated release time (seconds).
    pub at: f64,
    /// Source host.
    pub src: Host,
    /// Destination host.
    pub dst: Host,
    /// Payload bytes.
    pub bytes: f64,
}

/// Simulation outcome.
#[derive(Debug, Clone, Copy)]
pub struct SimReport {
    /// Wall-clock seconds of simulated time until every rank finished.
    pub time: f64,
    /// Number of network flows simulated.
    pub flows: u64,
    /// Total bytes moved across the network.
    pub bytes: f64,
    /// Peak number of simultaneously active flows.
    pub peak_flows: usize,
    /// Total flops executed across ranks.
    pub flops: f64,
    /// Events the queue delivered over the run.
    pub events: u64,
    /// Events cancelled before delivery (the approximate sharing
    /// model's lazy completion-time recomputation shows up here).
    pub events_cancelled: u64,
    /// Peak number of pending events in the queue.
    pub peak_queue_depth: usize,
    /// Tombstoned heap keys the event queue reclaimed by compaction.
    ///
    /// Advisory: the count depends on where a run was resumed from a
    /// checkpoint even when the simulation outcome is bit-identical, so
    /// it is excluded from bit-identity comparisons.
    pub events_compacted: u64,
    /// Tombstoned per-link heap entries the sharing model reclaimed by
    /// compaction (advisory, like [`events_compacted`]).
    ///
    /// [`events_compacted`]: SimReport::events_compacted
    pub model_compacted: u64,
}

/// Sentinel for "this rank has no recorded parent flow yet".
const NO_FLOW: u64 = u64::MAX;

/// The simulator. Construct with [`Simulator::builder`], then call
/// [`SimulatorBuilder::run`].
pub struct Simulator<'a> {
    net: &'a Network,
    ranks: Ranks,
    /// Every flow by global id; stores the in-flight window only.
    flows: FlowTable,
    model: Box<dyn ThroughputSharingModel>,
    queue: EventQueue<Event>,
    now: f64,
    // stats
    total_flows: u64,
    total_bytes: f64,
    total_flops: f64,
    peak_flows: usize,
    flow_seq: u64,
    // degraded operation
    placement: Vec<Host>,
    fault_events: Vec<FaultEvent>,
    faults_struck: usize,
    dead_link: Vec<bool>,
    dead_host: Vec<bool>,
    fault_table: Option<RoutingTable>,
    // open-loop injection cursor: injections never enter the event
    // heap — they are released from this sorted cursor, merged with the
    // queue by `(time, seq)`, which keeps the heap cache-hot at
    // million-flow scale (see DESIGN.md §9)
    injections: Vec<InjectedFlow>,
    /// Injection indices stably sorted by release time — the cursor's
    /// iteration order (for equal times, input order, which is also
    /// sequence order).
    inj_order: Vec<u32>,
    /// Cursor position: next entry of `inj_order` to release.
    inj_next: usize,
    /// First of the sequence numbers reserved from the queue for the
    /// injection list (injection `i` carries seq `inj_seq_base + i`).
    inj_seq_base: u64,
    injected_live: usize,
    // telemetry (no-op recorder unless attached; never feeds back into
    // the simulation, so recording cannot change results)
    rec: Recorder,
    tel: LinkStats,
    /// Per-rank id of the flow whose delivery last unblocked the rank —
    /// the parent of flows it subsequently issues (`flow.dep` edges).
    /// Only maintained while a recorder is attached; never read by the
    /// simulation itself.
    dep_parent: Vec<u64>,
    /// Scratch for completion batches (reused across loop iterations).
    finished_scratch: Vec<u32>,
    /// Scratch route buffer every route walk reuses (so creating or
    /// rerouting a flow allocates nothing beyond its route record).
    route_scratch: Vec<LinkId>,
    /// The sharing model's kind (part of the checkpoint fingerprint).
    sharing: SharingMode,
    // crash safety
    /// CRC over the full immutable configuration (programs, placement,
    /// injections, sharing mode, network parameters); echoed into every
    /// checkpoint so a snapshot can never silently resume under a
    /// different setup. Computed on first use (see [`Simulator::cfg_crc`]).
    cfg_crc: OnceCell<u32>,
    ckpt_path: Option<PathBuf>,
    ckpt_every: u64,
    last_ckpt_events: u64,
    resume_from: Option<PathBuf>,
    watchdog: Option<Duration>,
    /// Test hook: force-checkpoint and return [`SimError::Wedged`] once
    /// this many events were processed — the same exit the watchdog
    /// takes, made deterministic for resume tests.
    stop_after_events: Option<u64>,
    /// Live telemetry stream: the event loop publishes progress gauges
    /// and appends a delta batch on the sink's wall-clock cadence
    /// (checked every [`STREAM_CHECK_PASSES`] loop passes).
    stream: Option<StreamSink>,
}

/// Builder for [`Simulator`]; obtain via [`Simulator::builder`].
///
/// ```
/// use orp_netsim::{Network, Op, Simulator};
/// # let mut g = orp_core::graph::HostSwitchGraph::new(2, 3).unwrap();
/// # g.add_link(0, 1).unwrap();
/// # g.attach_host(0).unwrap();
/// # g.attach_host(1).unwrap();
/// let net = Network::builder(&g).build();
/// let report = Simulator::builder(&net)
///     .programs(vec![
///         vec![Op::Send { to: 1, bytes: 1e6 }],
///         vec![Op::Recv { from: 0 }],
///     ])
///     .run()
///     .unwrap();
/// assert_eq!(report.flows, 1);
/// ```
pub struct SimulatorBuilder<'a> {
    net: &'a Network,
    programs: Vec<Program>,
    placement: Option<Vec<Host>>,
    faults: Vec<FaultEvent>,
    injections: Vec<InjectedFlow>,
    sharing: SharingMode,
    rec: Option<Recorder>,
    ckpt: Option<PathBuf>,
    ckpt_every: u64,
    resume_from: Option<PathBuf>,
    watchdog: Option<Duration>,
    stream: Option<StreamSink>,
}

/// Event-loop passes between `StreamSink::due` checks. The check is one
/// mutex lock plus a clock read; amortizing it over this many passes
/// keeps the streaming overhead unmeasurable at the engine's ~10⁶
/// events/s while still hitting a 500 ms cadence within ~1 ms.
const STREAM_CHECK_PASSES: u64 = 1024;

/// Default checkpoint stride: processed events between periodic saves.
/// Sized so the ~1–2 ms per-save cost stays well under 2% of wall time
/// at the engine's typical ~10⁶ events/s (see the `ckpt_overhead`
/// bench); a crash loses at most a fraction of a second of progress.
pub const SIM_CKPT_EVERY_DEFAULT: u64 = 500_000;

impl<'a> SimulatorBuilder<'a> {
    /// The per-rank programs (defaults to none).
    pub fn programs(mut self, programs: Vec<Program>) -> Self {
        self.programs = programs;
        self
    }

    /// Places rank `r` on host `placement[r]` — how a degraded run packs
    /// its ranks onto the surviving hosts. Two ranks may share a host
    /// (their messages become loopback deliveries). Defaults to rank `r`
    /// on host `r`.
    pub fn placement(mut self, placement: Vec<Host>) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Schedules network elements to die mid-run (appended to any
    /// already-scheduled faults).
    pub fn fault_schedule(mut self, faults: &[FaultEvent]) -> Self {
        self.faults.extend_from_slice(faults);
        self
    }

    /// Adds open-loop flows released at absolute times (appended to any
    /// already-added injections). Injected flows are host-addressed and
    /// bypass rank message matching; the run ends once every rank
    /// finished **and** every injected flow delivered.
    pub fn inject(mut self, flows: &[InjectedFlow]) -> Self {
        self.injections.extend_from_slice(flows);
        self
    }

    /// Selects the throughput-sharing model (defaults to
    /// [`SharingMode::ExactMaxMin`]).
    pub fn sharing(mut self, mode: SharingMode) -> Self {
        self.sharing = mode;
        self
    }

    /// Attaches a telemetry recorder. Defaults to the recorder the
    /// network was built with (the no-op recorder unless one was
    /// attached there).
    pub fn recorder(mut self, rec: Recorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Enables crash-safe checkpointing to `path`: the run saves an
    /// atomic, checksummed snapshot every
    /// [`checkpoint_every`](Self::checkpoint_every) processed events,
    /// on a watchdog stall, and once more when the run completes. A run
    /// killed at any point and resumed from the latest snapshot
    /// produces the bit-identical final report of the uninterrupted
    /// run.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.ckpt = Some(path.into());
        self
    }

    /// Sets the periodic-save stride in processed events (defaults to
    /// [`SIM_CKPT_EVERY_DEFAULT`]). `0` disables periodic saves — only
    /// stall and completion snapshots are written.
    pub fn checkpoint_every(mut self, events: u64) -> Self {
        self.ckpt_every = events;
        self
    }

    /// Resumes from a checkpoint written by a previous run of the
    /// **same** configuration (programs, placement, fault schedule,
    /// injections, sharing model, and network parameters must all be
    /// identical; [`Simulator::run`] fails with [`SimError::Ckpt`]
    /// otherwise). The resumed run continues bit-identically.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Arms a stall watchdog: if no event is processed for `window` of
    /// wall-clock time, the run force-checkpoints (when a
    /// [`checkpoint`](Self::checkpoint) path is set), emits a
    /// structured `watchdog.stalled` diagnostic, and returns
    /// [`SimError::Wedged`].
    pub fn watchdog(mut self, window: Duration) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Attaches a live metrics stream: the event loop publishes
    /// progress gauges (simulated clock, processed events, queue depth,
    /// delivered flows/bytes) and appends one self-describing JSONL
    /// batch on the sink's wall-clock cadence, so `orp watch` can tail
    /// a long simulation mid-run. No-op unless a recorder is attached.
    pub fn stream(mut self, sink: StreamSink) -> Self {
        self.stream = Some(sink);
        self
    }

    /// Finishes the builder without running (for callers that still
    /// need [`Simulator::schedule_fault`]).
    ///
    /// # Panics
    /// Panics if the placement is not one valid host per rank.
    pub fn build(self) -> Simulator<'a> {
        let net = self.net;
        let placement = self
            .placement
            .unwrap_or_else(|| (0..self.programs.len() as u32).collect());
        let rec = self.rec.unwrap_or_else(|| net.recorder().clone());
        let mut sim = Simulator::prepare(
            net,
            self.programs,
            placement,
            self.sharing,
            self.injections,
            rec,
        );
        for fe in &self.faults {
            sim.schedule_fault(fe.time, fe.fault);
        }
        sim.ckpt_path = self.ckpt;
        sim.ckpt_every = self.ckpt_every;
        sim.resume_from = self.resume_from;
        sim.watchdog = self.watchdog;
        sim.stream = self.stream;
        sim
    }

    /// Builds the simulator and executes the programs to completion.
    ///
    /// # Errors
    /// See [`Simulator::run`].
    pub fn run(self) -> Result<SimReport, SimError> {
        self.build().run()
    }
}

impl<'a> Simulator<'a> {
    /// Starts a builder simulating on `net`.
    pub fn builder(net: &'a Network) -> SimulatorBuilder<'a> {
        SimulatorBuilder {
            net,
            programs: Vec::new(),
            placement: None,
            faults: Vec::new(),
            injections: Vec::new(),
            sharing: SharingMode::default(),
            rec: None,
            ckpt: None,
            ckpt_every: SIM_CKPT_EVERY_DEFAULT,
            resume_from: None,
            watchdog: None,
            stream: None,
        }
    }

    fn prepare(
        net: &'a Network,
        programs: Vec<Program>,
        placement: Vec<Host>,
        sharing: SharingMode,
        injections: Vec<InjectedFlow>,
        rec: Recorder,
    ) -> Self {
        assert_eq!(
            placement.len(),
            programs.len(),
            "placement must name one host per rank"
        );
        assert!(
            placement.iter().all(|&h| h < net.num_hosts()),
            "placement host out of range"
        );
        let nl = net.num_links() as usize;
        let num_ranks = programs.len();
        let dead_host = (0..net.num_hosts()).map(|h| net.host_dead(h)).collect();
        let dep_parent = if rec.is_enabled() {
            vec![NO_FLOW; num_ranks]
        } else {
            Vec::new()
        };
        Self {
            net,
            ranks: Ranks::new(programs),
            flows: FlowTable::new(rec.is_enabled()),
            model: make_model(sharing, nl, net.config().bandwidth),
            queue: EventQueue::new(),
            now: 0.0,
            total_flows: 0,
            total_bytes: 0.0,
            total_flops: 0.0,
            peak_flows: 0,
            flow_seq: 0,
            placement,
            fault_events: Vec::new(),
            faults_struck: 0,
            dead_link: vec![false; nl],
            dead_host,
            fault_table: None,
            injections,
            inj_order: Vec::new(),
            inj_next: 0,
            inj_seq_base: 0,
            injected_live: 0,
            tel: LinkStats::new(rec.clone(), nl),
            rec,
            dep_parent,
            finished_scratch: Vec::new(),
            route_scratch: Vec::new(),
            sharing,
            cfg_crc: OnceCell::new(),
            ckpt_path: None,
            ckpt_every: SIM_CKPT_EVERY_DEFAULT,
            last_ckpt_events: 0,
            resume_from: None,
            watchdog: None,
            stop_after_events: None,
            stream: None,
        }
    }

    /// Schedules a network element to die at simulated time `at`.
    pub fn schedule_fault(&mut self, at: f64, fault: NetFault) {
        assert!(at >= 0.0 && at.is_finite(), "fault time must be finite");
        self.fault_events.push(FaultEvent { time: at, fault });
    }

    /// Wraps `ranks` into the partition error at the current time — the
    /// single construction site for [`SimError::Partitioned`].
    fn partitioned(&self, ranks: Vec<u32>) -> SimError {
        SimError::Partitioned {
            time: self.now,
            ranks,
        }
    }

    /// Routes host `hs → hd` through the current table — the
    /// fault-rebuilt one once any fault has struck — and returns the
    /// flow's route record. The walk goes into the reused
    /// `route_scratch`, so routing allocates nothing per flow (short
    /// routes land in the record's inline arm). `parties` names the two
    /// endpoints (rank ids, or host ids for injected flows) blamed in
    /// the [`SimError::Partitioned`] error.
    fn route_hosts_into(
        &mut self,
        hs: Host,
        hd: Host,
        hash: u64,
        parties: [u32; 2],
    ) -> Result<RouteBuf, SimError> {
        if self.dead_host[hs as usize] || self.dead_host[hd as usize] {
            return Err(self.partitioned(parties.to_vec()));
        }
        let table = self
            .fault_table
            .as_ref()
            .unwrap_or_else(|| self.net.routing());
        self.net
            .route_with_into(table, hs, hd, hash, &mut self.route_scratch)
            .map_err(|_| self.partitioned(parties.to_vec()))?;
        Ok(RouteBuf::from_slice(&self.route_scratch))
    }

    /// Creates the flow record, emits its creation telemetry, and
    /// schedules its activation after the message delay.
    fn create_flow(
        &mut self,
        route: RouteBuf,
        src: u32,
        dst: u32,
        bytes: f64,
        hash: u64,
        injected: bool,
    ) {
        let delay = self.net.message_delay(route.len());
        debug_assert!(hash <= u32::MAX as u64, "flow sequence outgrew u32");
        let id = self.flows.push(
            Flow {
                route,
                remaining: bytes.max(0.0),
                rate: 0.0,
                src,
                dst,
                hash: hash as u32,
                active: false,
                finished: false,
                bytes: bytes.max(0.0),
                injected,
            },
            FlowAux {
                created: self.now,
                prop: delay,
                active_time: 0.0,
                activated: self.now,
            },
        );
        self.total_flows += 1;
        self.total_bytes += bytes.max(0.0);
        if self.rec.is_enabled() {
            self.rec.emit(ObsEvent::Flow {
                stage: FlowStage::Created,
                id: id as u64,
                src,
                dst,
                bytes: bytes.max(0.0),
            });
            if !injected {
                let parent = self.dep_parent[src as usize];
                if parent != NO_FLOW {
                    self.rec.emit(ObsEvent::FlowDep {
                        flow: id as u64,
                        parent,
                    });
                }
            }
        }
        self.queue.schedule(self.now + delay, Event::Activate(id));
    }

    fn start_flow(&mut self, src: u32, dst: u32, bytes: f64) -> Result<(), SimError> {
        if self.placement[src as usize] == self.placement[dst as usize] {
            // same host (or same rank): loopback, deliver immediately
            self.rec.incr("sim.loopback_msgs", 1);
            // loopback carries no flow id: it breaks the dependency chain
            self.deliver(src, dst, None);
            return Ok(());
        }
        self.flow_seq += 1;
        let hash = self.flow_seq;
        let (hs, hd) = (self.placement[src as usize], self.placement[dst as usize]);
        let route = self.route_hosts_into(hs, hd, hash, [src, dst])?;
        self.create_flow(route, src, dst, bytes, hash, false);
        Ok(())
    }

    /// Releases the open-loop injection at cursor position `pos` (its
    /// release time has come up in the `(time, seq)` merge with the
    /// event queue).
    fn release_injection(&mut self, pos: usize) -> Result<(), SimError> {
        let idx = self.inj_order[pos];
        self.queue.note_external_processed();
        if self.rec.is_enabled() {
            self.rec
                .record("sim.event_queue_depth", self.queue.len() as u64);
        }
        let inj = self.injections[idx as usize];
        if inj.src == inj.dst {
            // degenerate same-host demand: delivered by definition,
            // consumes no flow sequence number
            self.injected_live -= 1;
            return Ok(());
        }
        self.flow_seq += 1;
        let hash = self.flow_seq;
        let route = self.route_hosts_into(inj.src, inj.dst, hash, [inj.src, inj.dst])?;
        self.create_flow(route, inj.src, inj.dst, inj.bytes, hash, true);
        Ok(())
    }

    /// Marks one message from `src` delivered at `dst`, waking the blocked
    /// sender and/or receiver. `flow` is the completed flow that carried
    /// the message (`None` for loopback), recorded as the dependency
    /// parent of whatever the unblocked ranks do next.
    fn deliver(&mut self, src: u32, dst: u32, flow: Option<u64>) {
        if let Some(fid) = flow {
            if self.rec.is_enabled() {
                // blocking semantics: anything src or dst does after this
                // instant happens-after this delivery
                self.dep_parent[src as usize] = fid;
                self.dep_parent[dst as usize] = fid;
            }
        }
        self.ranks.deliver(src, dst);
    }

    /// Runs rank `r` until it blocks or finishes.
    fn run_rank(&mut self, r: u32) -> Result<(), SimError> {
        loop {
            match self.ranks.step(r) {
                Step::Idle => return Ok(()),
                Step::Compute { flops } => {
                    self.total_flops += flops;
                    let dt = flops.max(0.0) / self.net.config().flops;
                    self.queue.schedule(self.now + dt, Event::ComputeDone(r));
                }
                Step::Send { to, bytes } => {
                    self.start_flow(r, to, bytes)?;
                }
                Step::SendRecv { to, bytes, from } => {
                    self.start_flow(r, to, bytes)?;
                    self.ranks.try_recv(r, from);
                }
            }
        }
    }

    /// A flow's activation delay elapsed: hand it to the sharing model
    /// (or complete it immediately if it carries no bytes).
    fn activate(&mut self, fid: u32) {
        // a stale event for a flow re-issued by a fault finds it
        // streaming or finished (a retired id reads as finished)
        let Some(f) = self.flows.get(fid).filter(|f| !f.finished && !f.active) else {
            return;
        };
        if f.remaining <= 0.0 {
            self.finish_flow(fid);
        } else {
            let (src, dst, remaining) = (f.src, f.dst, f.remaining);
            self.flows[fid].active = true;
            if self.tel.tracking() {
                self.flows.aux_mut(fid).activated = self.now;
            }
            {
                let mut ctx = SimContext::new(self.now, &mut self.queue);
                self.model
                    .insert(fid, &mut self.flows, &mut ctx, &mut self.tel);
            }
            self.peak_flows = self.peak_flows.max(self.model.active_count());
            if self.rec.is_enabled() {
                self.rec.emit(ObsEvent::Flow {
                    stage: FlowStage::Activated,
                    id: fid as u64,
                    src,
                    dst,
                    bytes: remaining,
                });
            }
        }
    }

    /// Finishes flow `fid` at the current time: marks it done, emits its
    /// completion records (lifecycle event, latency decomposition, and
    /// per-fabric-hop enqueue/drain times), and delivers its message
    /// (injected flows have no receiver to wake). The sharing model has
    /// already dropped the flow when this is called.
    fn finish_flow(&mut self, fid: u32) {
        let f = &mut self.flows[fid];
        f.active = false;
        f.finished = true;
        let (src, dst, injected) = (f.src, f.dst, f.injected);
        if self.rec.is_enabled() {
            let f = &self.flows[fid];
            let bytes = f.bytes;
            let FlowAux {
                created,
                prop,
                active_time,
                ..
            } = *self.flows.aux(fid);
            let route: Vec<LinkId> = f.route.to_vec();
            let cfg = *self.net.config();
            self.rec.emit(ObsEvent::Flow {
                stage: FlowStage::Completed,
                id: fid as u64,
                src,
                dst,
                bytes: 0.0,
            });
            // exact by construction: the four components telescope to
            // completed - created (what the analyze engine relies on)
            let serialization = bytes / cfg.bandwidth;
            let queueing = active_time - serialization;
            let stall = (self.now - created) - active_time - prop;
            self.rec.emit(ObsEvent::FlowDone {
                id: fid as u64,
                src,
                dst,
                bytes,
                hops: route.len() as u32,
                created,
                completed: self.now,
                propagation: prop,
                serialization,
                queueing,
                stall,
            });
            // fabric hops: head arrival is pipelined off the creation
            // time, tail departure counts back from the completion time
            let hops = route.len();
            for (i, &l) in route.iter().enumerate() {
                let (kind, from, to) = self.net.link_endpoints(l);
                if kind != 2 {
                    continue;
                }
                let enqueue = created + cfg.sw_overhead + i as f64 * cfg.hop_latency;
                let drain = (self.now - (hops - 1 - i) as f64 * cfg.hop_latency).max(enqueue);
                self.rec.emit(ObsEvent::Hop {
                    flow: fid as u64,
                    index: i as u32,
                    from,
                    to,
                    enqueue,
                    drain,
                });
            }
        }
        // the route is never read again (the fault-reroute scan skips
        // finished flows): free it now rather than at the record's
        // retirement
        self.flows[fid].route = RouteBuf::EMPTY;
        if injected {
            self.injected_live -= 1;
        } else {
            self.deliver(src, dst, Some(fid as u64));
        }
    }

    /// Kills a network element at the current time: marks its directed
    /// links dead, rebuilds the routing table around the wreckage, and
    /// re-routes every unfinished flow whose path crossed a dead link.
    /// Active flows are torn down (the sharing model returns their
    /// undelivered bytes) and re-issued after a fresh message delay;
    /// pending flows just swap routes.
    fn apply_fault(&mut self, fault: NetFault) -> Result<(), SimError> {
        self.faults_struck += 1;
        if self.rec.is_enabled() {
            self.rec.incr("sim.faults", 1);
            self.rec.emit(match fault {
                NetFault::Switch(s) => ObsEvent::Fault {
                    kind: FaultKind::SwitchDown,
                    a: s,
                    b: 0,
                },
                NetFault::Link(a, b) => ObsEvent::Fault {
                    kind: FaultKind::LinkDown,
                    a,
                    b,
                },
            });
        }
        let n = self.net.num_hosts();
        match fault {
            NetFault::Link(a, b) => {
                for (u, v) in [(a, b), (b, a)] {
                    if let Some(id) = self.net.sw_link(u, v) {
                        self.dead_link[id as usize] = true;
                    }
                }
            }
            NetFault::Switch(s) => {
                for (id, v) in self.net.switch_links(s) {
                    self.dead_link[id as usize] = true;
                    if let Some(back) = self.net.sw_link(v, s) {
                        self.dead_link[back as usize] = true;
                    }
                }
                // hosts on the dead switch lose their up/down links
                let mut casualties = Vec::new();
                for h in 0..n {
                    if self.net.switch_of(h) == s && !self.dead_host[h as usize] {
                        self.dead_host[h as usize] = true;
                        self.dead_link[h as usize] = true;
                        self.dead_link[(n + h) as usize] = true;
                        casualties.push(h);
                    }
                }
                // ranks running on those hosts are gone
                let lost: Vec<u32> = (0..self.ranks.len() as u32)
                    .filter(|&r| {
                        !self.ranks.is_done(r) && casualties.contains(&self.placement[r as usize])
                    })
                    .collect();
                if !lost.is_empty() {
                    return Err(self.partitioned(lost));
                }
            }
        }
        self.fault_table = Some(RoutingTable::build_adj(
            &self.net.adjacency_excluding(&self.dead_link),
        ));
        // re-route unfinished flows that crossed a now-dead link (every
        // retired flow is finished)
        let mut rerouted = 0u64;
        for fid in self.flows.ids() {
            let f = &self.flows[fid];
            if f.finished || !f.route.iter().any(|&l| self.dead_link[l as usize]) {
                continue;
            }
            let (src, dst, hash, was_active, injected) =
                (f.src, f.dst, f.hash as u64, f.active, f.injected);
            let (hs, hd) = if injected {
                (src, dst)
            } else {
                (self.placement[src as usize], self.placement[dst as usize])
            };
            let new_route = self.route_hosts_into(hs, hd, hash, [src, dst])?;
            rerouted += 1;
            if self.rec.is_enabled() {
                self.rec.emit(ObsEvent::Flow {
                    stage: FlowStage::Rerouted,
                    id: fid as u64,
                    src,
                    dst,
                    bytes: self.flows[fid].remaining,
                });
            }
            let delay = self.net.message_delay(new_route.len());
            if was_active {
                // tear down and re-issue: the in-flight bytes already
                // delivered stay delivered, the rest re-enters after a
                // fresh message latency on the detour. The model must see
                // the old route while detaching.
                let mut ctx = SimContext::new(self.now, &mut self.queue);
                self.model
                    .remove(fid, &mut self.flows, &mut ctx, &mut self.tel);
                self.flows[fid].active = false;
            }
            self.flows[fid].route = new_route;
            if was_active {
                self.queue.schedule(self.now + delay, Event::Activate(fid));
            }
            // pending flows keep their original activation event and
            // simply stream over the new route when it fires
        }
        if self.rec.is_enabled() {
            self.rec.incr("sim.reroutes", rerouted);
            self.rec.emit(ObsEvent::Reroute { flows: rerouted });
        }
        Ok(())
    }

    /// Builds the no-progress error: [`SimError::Deadlock`] for a
    /// fault-free run (the program itself is stuck), [`SimError::Stalled`]
    /// once faults have been applied.
    fn no_progress_error(&self) -> SimError {
        let blocked_ranks = self.ranks.blocked();
        let active_flows = self.model.active_count();
        if self.faults_struck > 0 {
            SimError::Stalled {
                time: self.now,
                blocked_ranks,
                active_flows,
                faults_applied: self.faults_struck,
            }
        } else {
            SimError::Deadlock {
                time: self.now,
                blocked_ranks,
                active_flows,
            }
        }
    }

    /// The configuration fingerprint, computed once per simulator when a
    /// save or a resume first needs it: encoding every op of every
    /// program and every injection costs more than the rest of a
    /// million-flow build, and a run without checkpoints never reads it.
    fn cfg_crc(&self) -> u32 {
        *self.cfg_crc.get_or_init(|| {
            config_fingerprint(
                self.net,
                self.ranks.programs(),
                &self.placement,
                &self.injections,
                self.sharing,
            )
        })
    }

    /// Snapshots the complete mutable simulation state. Only valid at
    /// the top of the event loop (the quiescent boundary `run` saves
    /// at): every in-flight state transition is then either fully in
    /// the queue/ranks/model or not started.
    fn to_checkpoint(&self) -> SimCheckpoint {
        let mut faults = Encoder::new();
        encode_faults(&self.fault_events, &mut faults);
        let mut ranks = Encoder::new();
        self.ranks.encode_state(&mut ranks);
        let mut flows = Encoder::new();
        self.flows.encode(&mut flows);
        let mut queue = Encoder::new();
        encode_queue(&self.queue, &mut queue);
        let mut model = Encoder::new();
        self.model.encode_state(&mut model, &self.flows);
        SimCheckpoint {
            cfg_crc: self.cfg_crc(),
            num_ranks: self.ranks.len() as u32,
            faults: faults.into_bytes(),
            now: self.now,
            total_flows: self.total_flows,
            total_bytes: self.total_bytes,
            total_flops: self.total_flops,
            peak_flows: self.peak_flows as u64,
            flow_seq: self.flow_seq,
            faults_struck: self.faults_struck as u64,
            injected_live: self.injected_live as u64,
            inj_next: self.inj_next as u64,
            inj_seq_base: self.inj_seq_base,
            dead_link: self.dead_link.clone(),
            dead_host: self.dead_host.clone(),
            ranks: ranks.into_bytes(),
            flows: flows.into_bytes(),
            queue: queue.into_bytes(),
            model: model.into_bytes(),
            dep_parent: self.dep_parent.clone(),
        }
    }

    /// Restores a freshly built simulator to the snapshotted state,
    /// validating the snapshot against this simulator's configuration
    /// (it must have been built with identical programs, placement,
    /// faults, injections, sharing mode, and network).
    fn restore(&mut self, ck: SimCheckpoint) -> Result<(), CkptError> {
        let bad = |what: &str| CkptError::BadSection(format!("simulator: {what}"));
        if ck.cfg_crc != self.cfg_crc() {
            return Err(bad(
                "configuration does not match the checkpoint (programs/placement/\
                 injections/sharing/network must be identical)",
            ));
        }
        if ck.num_ranks as usize != self.ranks.len() {
            return Err(bad("rank count does not match"));
        }
        let mut faults = Encoder::new();
        encode_faults(&self.fault_events, &mut faults);
        if ck.faults != faults.into_bytes() {
            return Err(bad("fault schedule does not match the checkpoint"));
        }
        if !ck.now.is_finite() || ck.now < 0.0 {
            return Err(bad("non-finite simulated time"));
        }
        let nl = self.net.num_links() as usize;
        let nh = self.net.num_hosts() as usize;
        if ck.dead_link.len() != nl || ck.dead_host.len() != nh {
            return Err(bad("dead link/host map size does not match the network"));
        }
        let mut rdec = Decoder::new(&ck.ranks);
        self.ranks.decode_state(&mut rdec)?;
        // what this configuration can produce bounds every table the
        // file sizes: one flow per network send or injection (a fault
        // re-issue keeps the flow's id), and one queue slot per event
        // that can be live at once (an activation per flow, a compute
        // timer per rank, each fault, a model event per link)
        let max_flows = self.ranks.sends() + self.injections.len();
        let max_events = max_flows + self.ranks.len() + self.fault_events.len() + nl;
        let mut fdec = Decoder::new(&ck.flows);
        let flows = FlowTable::decode(
            &mut fdec,
            self.net.num_links(),
            max_flows,
            self.rec.is_enabled(),
        )?;
        // delivery indexes the rank table by a finished flow's endpoints
        let ends = |f: &Flow| if f.injected { nh } else { self.ranks.len() };
        if flows
            .iter()
            .any(|(_, f)| !f.finished && f.src.max(f.dst) as usize >= ends(f))
        {
            return Err(bad("live flow names an endpoint outside the configuration"));
        }
        let mut qdec = Decoder::new(&ck.queue);
        let queue = decode_queue(&mut qdec, max_events)?;
        for (_, _, _, _, ev) in queue.live_entries() {
            let ok = match *ev {
                Event::Activate(fid) => fid < flows.next_id(),
                Event::ComputeDone(r) => (r as usize) < self.ranks.len(),
                Event::Fault(i) => (i as usize) < self.fault_events.len(),
                Event::Model(token) => (token as usize) < nl,
            };
            if !ok {
                return Err(bad("queued event addresses a component out of range"));
            }
        }
        // each injection is pending on the cursor, in flight, or done
        let unreleased = (self.injections.len() as u64).checked_sub(ck.inj_next);
        let in_flight = flows.iter().filter(|(_, f)| !f.finished && f.injected);
        if unreleased.map(|u| u + in_flight.count() as u64) != Some(ck.injected_live) {
            return Err(bad(
                "injections in flight disagree with the injection cursor",
            ));
        }
        let mut mdec = Decoder::new(&ck.model);
        self.model.decode_state(&mut mdec, &flows)?;
        self.flows = flows;
        self.queue = queue;
        self.now = ck.now;
        self.total_flows = ck.total_flows;
        self.total_bytes = ck.total_bytes;
        self.total_flops = ck.total_flops;
        self.peak_flows = ck.peak_flows as usize;
        self.flow_seq = ck.flow_seq;
        self.faults_struck = ck.faults_struck as usize;
        self.injected_live = ck.injected_live as usize;
        self.inj_next = ck.inj_next as usize;
        self.inj_seq_base = ck.inj_seq_base;
        self.dead_link = ck.dead_link;
        self.dead_host = ck.dead_host;
        if self.faults_struck > 0 {
            // the table is derived state; rebuild it around the restored
            // wreckage instead of serializing it
            self.fault_table = Some(RoutingTable::build_adj(
                &self.net.adjacency_excluding(&self.dead_link),
            ));
        }
        if self.rec.is_enabled() && ck.dep_parent.len() == self.ranks.len() {
            // dependency parents only exist if the *saving* run also
            // recorded; otherwise keep the fresh NO_FLOW map — telemetry
            // never feeds back into the simulation
            self.dep_parent = ck.dep_parent;
        }
        Ok(())
    }

    /// Atomically writes the current state to `path`.
    fn save_checkpoint(&self, path: &Path) -> Result<(), CkptError> {
        let span = self.rec.span("sim.checkpoint");
        let r = self.to_checkpoint().save(path);
        drop(span);
        if r.is_ok() {
            self.rec.incr("sim.checkpoints", 1);
        }
        r
    }

    /// Publishes the live gauge set the streaming dashboard renders for
    /// a simulation: the simulated clock, event-queue progress, and the
    /// delivered flow/byte totals. Gauges are absolute
    /// (last-write-wins), so a flush at any loop boundary shows the
    /// up-to-date run without double counting.
    fn publish_live(&self) {
        if !self.rec.is_enabled() {
            return;
        }
        self.rec.gauge("sim.now", self.now);
        self.rec
            .gauge("sim.events_processed", self.queue.processed() as f64);
        self.rec
            .gauge("sim.event_queue_depth", self.queue.len() as f64);
        self.rec.gauge(
            "sim.injections_pending",
            self.inj_order.len().saturating_sub(self.inj_next) as f64,
        );
        self.rec.gauge("sim.flows_done", self.total_flows as f64);
        self.rec.gauge("sim.bytes", self.total_bytes);
        self.rec.gauge("sim.peak_flows", self.peak_flows as f64);
        self.rec
            .gauge("sim.faults_struck", self.faults_struck as f64);
        // queue health: dead heap keys awaiting reclamation, their
        // share of the heap, and what compaction already reclaimed
        let tombs = self.queue.tombstones();
        let heap = tombs + self.queue.len();
        self.rec.gauge("sim.queue_tombstones", tombs as f64);
        self.rec.gauge(
            "sim.queue_tombstone_ratio",
            if heap > 0 {
                tombs as f64 / heap as f64
            } else {
                0.0
            },
        );
        self.rec
            .gauge("sim.events_compacted", self.queue.compacted() as f64);
    }

    /// Executes the programs (and injected flows) to completion.
    ///
    /// # Errors
    /// [`SimError::Deadlock`] when blocked ranks have no pending events
    /// or flows (an ill-formed program); [`SimError::Stalled`] for the
    /// same condition after faults struck; [`SimError::Partitioned`]
    /// when scheduled faults cut communicating ranks off;
    /// [`SimError::Wedged`] when an armed [`SimulatorBuilder::watchdog`]
    /// saw no progress for its window; [`SimError::Ckpt`] when a
    /// checkpoint save or [`SimulatorBuilder::resume_from`] failed;
    /// [`SimError::UnknownPeer`] when a program names a rank outside
    /// the run.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.run_in_place()
    }

    /// [`Simulator::run`], leaving the simulator's state behind for
    /// inspection.
    fn run_in_place(&mut self) -> Result<SimReport, SimError> {
        if let Some((rank, op, peer)) = self.ranks.first_unknown_peer() {
            return Err(SimError::UnknownPeer {
                rank,
                op,
                peer,
                ranks: self.ranks.len(),
            });
        }
        let _span = self.rec.span("sim.run");
        if let Some(p) = self.resume_from.take() {
            let ck = SimCheckpoint::load(&p)?;
            self.restore(ck)?;
        } else {
            for i in 0..self.fault_events.len() as u32 {
                self.queue
                    .schedule(self.fault_events[i as usize].time, Event::Fault(i));
            }
            // injections never enter the heap: reserve their sequence
            // numbers (so they order against queued events exactly as
            // if scheduled here) and release them from the sorted
            // cursor instead — a million-flow open-loop scenario costs
            // one sort, not a million heap entries
            self.inj_seq_base = self.queue.reserve_seqs(self.injections.len() as u64);
            self.injected_live += self.injections.len();
            self.flows.reserve(self.injections.len());
            self.ranks.enqueue_all();
        }
        // the cursor's iteration order is derived state, rebuilt
        // identically on fresh runs and resumes: sorted by release
        // time with equal times in input (= sequence) order. Sorting
        // (integer time key, index) pairs keeps the comparator free of
        // random `injections` lookups — at a million entries that is
        // several times faster than an index sort with a deref key —
        // and the index tie-break makes the key total, so the unstable
        // sort gives exactly the stable-sort order.
        let mut keyed: Vec<(u64, u32)> = self
            .injections
            .iter()
            .enumerate()
            .map(|(i, inj)| (time_sort_bits(inj.at), i as u32))
            .collect();
        keyed.sort_unstable();
        self.inj_order = keyed.into_iter().map(|(_, i)| i).collect();
        let watchdog = self.watchdog.map(|window| {
            Watchdog::spawn(
                WatchdogConfig::new(window).source(WatchSource::Sim),
                self.rec.clone(),
            )
        });
        let watch = watchdog.as_ref().map(Watchdog::handle);
        self.last_ckpt_events = self.queue.processed();
        let mut passes: u64 = 0;
        loop {
            // Live streaming, amortized: the clock/lock of `due()` runs
            // once per STREAM_CHECK_PASSES loop passes, the snapshot
            // work only when the wall-clock cadence actually elapsed.
            passes = passes.wrapping_add(1);
            if passes.is_multiple_of(STREAM_CHECK_PASSES) {
                if let Some(sink) = &self.stream {
                    if sink.due() {
                        let rec = self.rec.clone();
                        sink.maybe_flush(&rec, || self.publish_live());
                    }
                }
            }
            // crash-safety boundary: every in-flight transition is fully
            // in the queue/ranks/model here, so this is where periodic
            // saves happen, where a stall verdict is converted into a
            // resumable error, and where finished flows leave the table
            if let Some(base) = self.flows.retire() {
                self.model.retire(base);
            }
            let stalled = watch.as_ref().is_some_and(|h| h.is_stalled());
            if stalled
                || self
                    .stop_after_events
                    .is_some_and(|n| self.queue.processed() >= n)
            {
                if let Some(h) = &watch {
                    h.acknowledge_stall();
                }
                let checkpoint = match &self.ckpt_path {
                    Some(p) => {
                        self.save_checkpoint(p)?;
                        Some(p.clone())
                    }
                    None => None,
                };
                return Err(SimError::Wedged {
                    time: self.now,
                    window_secs: self.watchdog.map_or(0.0, |w| w.as_secs_f64()),
                    checkpoint,
                });
            }
            if let Some(p) = &self.ckpt_path {
                if self.ckpt_every > 0
                    && self.queue.processed() - self.last_ckpt_events >= self.ckpt_every
                {
                    self.save_checkpoint(p)?;
                    self.last_ckpt_events = self.queue.processed();
                }
            }
            // 1. drain runnable ranks (may create flows/events)
            while let Some(r) = self.ranks.pop_runnable() {
                self.run_rank(r)?;
            }
            if self.ranks.all_done() && self.injected_live == 0 {
                break;
            }
            self.model.settle(&mut self.flows, &mut self.tel);
            // 2. next completion the model tracks intrinsically
            let flow_dt = self.model.next_completion_in(&self.flows);
            let flow_t = self.now + flow_dt;
            // 3. next queued event or injection release
            let mut next_t = match self.queue.peek_time() {
                Some(et) => et.min(flow_t),
                None => flow_t,
            };
            if let Some(&i) = self.inj_order.get(self.inj_next) {
                next_t = next_t.min(self.injections[i as usize].at);
            }
            if !next_t.is_finite() {
                return Err(self.no_progress_error());
            }
            self.model
                .advance(&mut self.flows, next_t - self.now, &mut self.tel);
            self.now = next_t;
            // 4a. complete flows that drained (cluster completions)
            let mut finished = std::mem::take(&mut self.finished_scratch);
            finished.clear();
            self.model.collect_finished(&mut self.flows, &mut finished);
            if finished.is_empty() && flow_t <= self.now && flow_dt > 0.0 {
                // the clock cannot resolve the next completion (past
                // ~8,192 s of simulated time it is coarser than the
                // model's 1e-12 s completion slack): stream it out
                // without moving the clock, or every later pass would
                // find the same state and the loop would spin forever
                self.model.advance(&mut self.flows, flow_dt, &mut self.tel);
                self.model.collect_finished(&mut self.flows, &mut finished);
            }
            for &fid in &finished {
                self.finish_flow(fid);
            }
            // 4b. pop due events, merging queued events with cursor
            // releases by their total (time, seq) order — exactly the
            // order the heap would deliver if the injections were in it
            loop {
                let deadline = self.now + 1e-15;
                let inj_key = self
                    .inj_order
                    .get(self.inj_next)
                    .map(|&i| (self.injections[i as usize].at, self.inj_seq_base + i as u64))
                    .filter(|&(t, _)| t <= deadline);
                let take_inj = match (inj_key, self.queue.peek_key()) {
                    (Some((it, iseq)), Some((qt, qseq))) => {
                        (TimeKey(it), iseq) < (TimeKey(qt), qseq)
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if take_inj {
                    let pos = self.inj_next;
                    self.inj_next += 1;
                    self.release_injection(pos)?;
                    continue;
                }
                let Some((_, ev)) = self.queue.pop_due(deadline) else {
                    break;
                };
                if self.rec.is_enabled() {
                    self.rec
                        .record("sim.event_queue_depth", self.queue.len() as u64);
                }
                match ev {
                    Event::Activate(fid) => self.activate(fid),
                    Event::ComputeDone(r) => self.ranks.compute_done(r),
                    Event::Fault(i) => {
                        let fault = self.fault_events[i as usize].fault;
                        self.apply_fault(fault)?;
                    }
                    Event::Model(token) => {
                        finished.clear();
                        {
                            let mut ctx = SimContext::new(self.now, &mut self.queue);
                            self.model.on_event(
                                token,
                                &mut self.flows,
                                &mut ctx,
                                &mut self.tel,
                                &mut finished,
                            );
                        }
                        for &fid in &finished {
                            self.finish_flow(fid);
                        }
                    }
                }
            }
            self.finished_scratch = finished;
            self.model.settle_tail(&mut self.flows, &mut self.tel);
            if let Some(h) = &watch {
                h.tick();
            }
        }
        drop(watchdog);
        if let Some(p) = &self.ckpt_path {
            // completion snapshot: resuming a finished run re-produces
            // the same report without redoing any work
            self.save_checkpoint(p)?;
        }
        if self.rec.is_enabled() {
            self.rec.incr("sim.flows", self.total_flows);
            self.rec.incr("sim.bytes", self.total_bytes as u64);
            self.rec.incr("events.processed", self.queue.processed());
            self.rec.incr("events.cancelled", self.queue.cancelled());
            self.rec.incr("events.compacted", self.queue.compacted());
            self.rec
                .incr("events.model_compacted", self.model.compacted());
            // per-link load profile over the whole run: byte volume and
            // utilization (parts-per-million of link capacity × runtime)
            let capacity = self.net.config().bandwidth * self.now;
            let mut links_used = 0u64;
            for l in 0..self.tel.link_bytes.len() {
                let b = self.tel.link_bytes[l];
                if b > 0.0 {
                    links_used += 1;
                    self.rec.record("sim.link_bytes", b as u64);
                    let util_ppm = if capacity > 0.0 {
                        b / capacity * 1e6
                    } else {
                        0.0
                    };
                    if capacity > 0.0 {
                        self.rec.record("sim.link_util_ppm", util_ppm as u64);
                    }
                    let (kind, a, bb) = self.net.link_endpoints(l as u32);
                    self.rec.emit(ObsEvent::LinkLoad {
                        link: l as u32,
                        a,
                        b: bb,
                        kind: kind as u32,
                        bytes: b,
                        util_ppm,
                        avg_flows: if self.now > 0.0 {
                            self.tel.link_busy[l] / self.now
                        } else {
                            0.0
                        },
                        peak_flows: self.tel.link_peak[l],
                    });
                }
            }
            self.rec.incr("sim.links_used", links_used);
            self.rec.emit(ObsEvent::Mark {
                name: "sim.completed",
                value: self.now,
            });
        }
        // Final stream flush with the closing gauges and counters; the
        // `done` record itself is written by the stream's owner.
        if let Some(sink) = &self.stream {
            let rec = self.rec.clone();
            sink.flush_now(&rec, || self.publish_live());
        }
        Ok(SimReport {
            time: self.now,
            flows: self.total_flows,
            bytes: self.total_bytes,
            peak_flows: self.peak_flows,
            flops: self.total_flops,
            events: self.queue.processed(),
            events_cancelled: self.queue.cancelled(),
            peak_queue_depth: self.queue.peak_depth(),
            events_compacted: self.queue.compacted(),
            model_compacted: self.model.compacted(),
        })
    }
}

/// A crash-consistent snapshot of a running [`Simulator`], taken at a
/// quiescent event-loop boundary.
///
/// The snapshot holds the complete mutable state — event queue contents
/// (with original sequence numbers, so cancellation handles stay
/// valid), rank contexts and channels, every flow record, the sharing
/// model's internal state, and all report counters — plus a CRC echo of
/// the immutable configuration it was taken under. Restoring it into a
/// simulator built with the identical configuration continues the run
/// bit-identically; restoring under any other configuration fails with
/// [`CkptError::BadSection`]. Saved to and loaded from disk through the
/// [`Checkpointable`] container (atomic write, checksummed,
/// kind-tagged `KIND_SIM`).
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    cfg_crc: u32,
    num_ranks: u32,
    /// Canonical encoding of the fault schedule (compared, not just
    /// hashed: schedules are small and the mismatch message is better).
    faults: Vec<u8>,
    now: f64,
    total_flows: u64,
    total_bytes: f64,
    total_flops: f64,
    peak_flows: u64,
    flow_seq: u64,
    faults_struck: u64,
    injected_live: u64,
    /// Injection-cursor position: entries of the time-sorted injection
    /// order already released.
    inj_next: u64,
    /// First sequence number of the block reserved for injections.
    inj_seq_base: u64,
    dead_link: Vec<bool>,
    dead_host: Vec<bool>,
    /// [`Ranks`] state blob: rank contexts, pending (delivered, not yet
    /// received) messages per channel, posted receives and the runnable
    /// queue.
    ranks: Vec<u8>,
    /// Flow-record blob (routes, remaining bytes, lifecycle flags).
    flows: Vec<u8>,
    /// Event-queue blob (live entries with original sequence numbers
    /// plus lifetime counters).
    queue: Vec<u8>,
    /// Sharing-model state blob (model-specific).
    model: Vec<u8>,
    /// Per-rank dependency parents (empty when saved without a
    /// recorder).
    dep_parent: Vec<u64>,
}

impl Checkpointable for SimCheckpoint {
    const KIND: u32 = ckpt::KIND_SIM;

    fn encode_ckpt(&self, enc: &mut Encoder) {
        enc.put_u32(self.cfg_crc);
        enc.put_u32(self.num_ranks);
        enc.put_bytes(&self.faults);
        enc.put_f64(self.now);
        enc.put_u64(self.total_flows);
        enc.put_f64(self.total_bytes);
        enc.put_f64(self.total_flops);
        enc.put_u64(self.peak_flows);
        enc.put_u64(self.flow_seq);
        enc.put_u64(self.faults_struck);
        enc.put_u64(self.injected_live);
        enc.put_u64(self.inj_next);
        enc.put_u64(self.inj_seq_base);
        put_bools(enc, &self.dead_link);
        put_bools(enc, &self.dead_host);
        enc.put_bytes(&self.ranks);
        enc.put_bytes(&self.flows);
        enc.put_bytes(&self.queue);
        enc.put_bytes(&self.model);
        enc.put_u64(self.dep_parent.len() as u64);
        for &p in &self.dep_parent {
            enc.put_u64(p);
        }
    }

    fn decode_ckpt(dec: &mut Decoder<'_>) -> Result<Self, CkptError> {
        let cfg_crc = dec.get_u32()?;
        let num_ranks = dec.get_u32()?;
        let faults = dec.get_bytes()?.to_vec();
        let now = dec.get_f64()?;
        let total_flows = dec.get_u64()?;
        let total_bytes = dec.get_f64()?;
        let total_flops = dec.get_f64()?;
        let peak_flows = dec.get_u64()?;
        let flow_seq = dec.get_u64()?;
        let faults_struck = dec.get_u64()?;
        let injected_live = dec.get_u64()?;
        let inj_next = dec.get_u64()?;
        let inj_seq_base = dec.get_u64()?;
        let dead_link = get_bools(dec)?;
        let dead_host = get_bools(dec)?;
        let ranks = dec.get_bytes()?.to_vec();
        let flows = dec.get_bytes()?.to_vec();
        let queue = dec.get_bytes()?.to_vec();
        let model = dec.get_bytes()?.to_vec();
        let nd = dec.get_u64()? as usize;
        let mut dep_parent = Vec::new();
        for _ in 0..nd {
            dep_parent.push(dec.get_u64()?);
        }
        Ok(Self {
            cfg_crc,
            num_ranks,
            faults,
            now,
            total_flows,
            total_bytes,
            total_flops,
            peak_flows,
            flow_seq,
            faults_struck,
            injected_live,
            inj_next,
            inj_seq_base,
            dead_link,
            dead_host,
            ranks,
            flows,
            queue,
            model,
            dep_parent,
        })
    }
}

fn put_bools(enc: &mut Encoder, v: &[bool]) {
    let bytes: Vec<u8> = v.iter().map(|&b| b as u8).collect();
    enc.put_bytes(&bytes);
}

fn get_bools(dec: &mut Decoder<'_>) -> Result<Vec<bool>, CkptError> {
    let bytes = dec.get_bytes()?;
    bytes
        .iter()
        .map(|&b| match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::BadSection("non-boolean byte in flag map".into())),
        })
        .collect()
}

/// CRC-32 fingerprint of everything that must be identical between the
/// saving and the resuming run for bit-identical continuation: network
/// shape and timing parameters, sharing mode, programs, placement, and
/// the injection list. (The fault schedule is compared in full instead
/// — see [`SimCheckpoint::faults`].)
fn config_fingerprint(
    net: &Network,
    programs: &[Program],
    placement: &[Host],
    injections: &[InjectedFlow],
    sharing: SharingMode,
) -> u32 {
    let mut enc = Encoder::new();
    enc.put_u32(net.num_hosts());
    enc.put_u32(net.num_links());
    let cfg = net.config();
    enc.put_f64(cfg.bandwidth);
    enc.put_f64(cfg.hop_latency);
    enc.put_f64(cfg.sw_overhead);
    enc.put_f64(cfg.flops);
    enc.put_u8(match sharing {
        SharingMode::ExactMaxMin => 0,
        SharingMode::ApproxFair => 1,
    });
    enc.put_u64(programs.len() as u64);
    for p in programs {
        enc.put_u64(p.len() as u64);
        for &op in p {
            match op {
                Op::Compute(f) => {
                    enc.put_u8(0);
                    enc.put_f64(f);
                }
                Op::Send { to, bytes } => {
                    enc.put_u8(1);
                    enc.put_u32(to);
                    enc.put_f64(bytes);
                }
                Op::Recv { from } => {
                    enc.put_u8(2);
                    enc.put_u32(from);
                }
                Op::SendRecv { to, bytes, from } => {
                    enc.put_u8(3);
                    enc.put_u32(to);
                    enc.put_f64(bytes);
                    enc.put_u32(from);
                }
            }
        }
    }
    enc.put_u32_slice(placement);
    enc.put_u64(injections.len() as u64);
    for i in injections {
        enc.put_f64(i.at);
        enc.put_u32(i.src);
        enc.put_u32(i.dst);
        enc.put_f64(i.bytes);
    }
    ckpt::crc32(&enc.into_bytes())
}

/// Canonical encoding of the fault schedule (for the checkpoint's
/// configuration echo).
fn encode_faults(faults: &[FaultEvent], enc: &mut Encoder) {
    enc.put_u64(faults.len() as u64);
    for fe in faults {
        enc.put_f64(fe.time);
        match fe.fault {
            NetFault::Switch(s) => {
                enc.put_u8(0);
                enc.put_u32(s);
                enc.put_u32(0);
            }
            NetFault::Link(a, b) => {
                enc.put_u8(1);
                enc.put_u32(a);
                enc.put_u32(b);
            }
        }
    }
}

/// Queue snapshot format version: bumped when the slab arena replaced
/// the hashed payload map (entries now carry slot + generation so
/// cancellation handles held by the sharing model survive a resume).
const QUEUE_FORMAT: u8 = 2;

/// Serializes the event queue: lifetime counters plus every live entry
/// with its original sequence number, slot, and generation (preserving
/// cancellation-handle validity and the exact delivery order).
fn encode_queue(q: &EventQueue<Event>, enc: &mut Encoder) {
    enc.put_u8(QUEUE_FORMAT);
    enc.put_u64(q.next_seq());
    enc.put_u64(q.scheduled());
    enc.put_u64(q.processed());
    enc.put_u64(q.cancelled());
    enc.put_u64(q.compacted());
    enc.put_u64(q.compactions());
    enc.put_u64(q.peak_depth() as u64);
    let live = q.live_entries();
    enc.put_u64(live.len() as u64);
    for (t, seq, slot, gen, ev) in live {
        enc.put_f64(t);
        enc.put_u64(seq);
        enc.put_u32(slot);
        enc.put_u32(gen);
        ev.encode(enc);
    }
}

/// Inverse of [`encode_queue`]. Slots must lie below `max_events`, the
/// most events the configuration can hold live at once: the slab never
/// outgrows its peak of live events.
fn decode_queue(dec: &mut Decoder<'_>, max_events: usize) -> Result<EventQueue<Event>, CkptError> {
    let format = dec.get_u8()?;
    if format != QUEUE_FORMAT {
        return Err(CkptError::BadSection(format!(
            "unsupported event queue format {format} (expected {QUEUE_FORMAT})"
        )));
    }
    let next_seq = dec.get_u64()?;
    let scheduled = dec.get_u64()?;
    let processed = dec.get_u64()?;
    let cancelled = dec.get_u64()?;
    let compacted = dec.get_u64()?;
    let compactions = dec.get_u64()?;
    let peak_depth = dec.get_u64()? as usize;
    let n = dec.get_u64()? as usize;
    // every event counted was scheduled first, every compaction reclaims
    // a cancelled event's key, and no run schedules 2^62 events: a file
    // that says otherwise would overflow the counters
    let consistent = next_seq == scheduled
        && scheduled < 1 << 62
        && [processed, cancelled, n as u64]
            .into_iter()
            .try_fold(0u64, u64::checked_add)
            .is_some_and(|counted| counted <= scheduled)
        && compactions <= compacted
        && compacted <= cancelled;
    if !consistent {
        return Err(CkptError::BadSection(
            "event queue counters disagree with each other".into(),
        ));
    }
    let mut entries = Vec::new();
    let mut slots_seen = std::collections::HashSet::new();
    for _ in 0..n {
        let t = dec.get_f64()?;
        if !t.is_finite() {
            return Err(CkptError::BadSection(
                "queued event at non-finite time".into(),
            ));
        }
        let seq = dec.get_u64()?;
        if seq >= next_seq {
            return Err(CkptError::BadSection(
                "event sequence number ahead of the counter".into(),
            ));
        }
        let slot = dec.get_u32()?;
        if slot as usize >= max_events {
            return Err(CkptError::BadSection(
                "event slot beyond the events the configuration can hold".into(),
            ));
        }
        if !slots_seen.insert(slot) {
            return Err(CkptError::BadSection(
                "two queued events share a slab slot".into(),
            ));
        }
        let gen = dec.get_u32()?;
        entries.push((t, seq, slot, gen, Event::decode(dec)?));
    }
    Ok(EventQueue::restore(
        entries,
        next_seq,
        scheduled,
        processed,
        cancelled,
        compacted,
        compactions,
        peak_depth,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::WaitReason;
    use orp_core::graph::HostSwitchGraph;

    /// Two switches, `per` hosts each, one inter-switch link.
    fn dumbbell(per: u32) -> Network {
        let mut g = HostSwitchGraph::new(2, (per + 1).max(3)).unwrap();
        g.add_link(0, 1).unwrap();
        for s in [0u32, 1] {
            for _ in 0..per {
                g.attach_host(s).unwrap();
            }
        }
        // hosts 0..per on switch 0? attach order: alternating per loop above
        Network::builder(&g).build()
    }

    /// Unwraps the common no-fault case.
    fn sim(net: &Network, programs: Vec<Program>) -> SimReport {
        Simulator::builder(net).programs(programs).run().unwrap()
    }

    /// Runs with a mid-run fault schedule.
    fn sim_faults(
        net: &Network,
        programs: Vec<Program>,
        faults: &[FaultEvent],
    ) -> Result<SimReport, SimError> {
        Simulator::builder(net)
            .programs(programs)
            .fault_schedule(faults)
            .run()
    }

    #[test]
    fn empty_programs_finish_instantly() {
        let net = dumbbell(2);
        let rep = sim(&net, vec![vec![], vec![]]);
        assert_eq!(rep.time, 0.0);
        assert_eq!(rep.flows, 0);
    }

    #[test]
    fn compute_takes_flops_over_rate() {
        let net = dumbbell(1);
        let rep = sim(&net, vec![vec![Op::Compute(1e9)]]);
        assert!((rep.time - 1e9 / 100e9).abs() < 1e-12);
        assert_eq!(rep.flops, 1e9);
    }

    #[test]
    fn single_transfer_time_is_latency_plus_bytes_over_bw() {
        let net = dumbbell(2); // hosts 0,1 on sw0; 2,3 on sw1
        let bytes = 50e6;
        let rep = sim(
            &net,
            vec![
                vec![Op::Send { to: 2, bytes }],
                vec![],
                vec![Op::Recv { from: 0 }],
            ],
        );
        let cfg = net.config();
        // route: uplink + 1 switch link + downlink = 3 links
        let expect = cfg.sw_overhead + 3.0 * cfg.hop_latency + bytes / cfg.bandwidth;
        assert!(
            (rep.time - expect).abs() < expect * 1e-9,
            "{} vs {expect}",
            rep.time
        );
        assert_eq!(rep.flows, 1);
        assert!(rep.events > 0, "event core counts deliveries");
        assert_eq!(rep.events_cancelled, 0, "exact model cancels nothing");
        assert!(rep.peak_queue_depth >= 1);
    }

    #[test]
    fn shared_bottleneck_halves_throughput() {
        // hosts 0,1 (sw0) both send to hosts 2,3 (sw1): the single
        // inter-switch link is shared → twice the single-flow time.
        let net = dumbbell(2);
        let bytes = 50e6;
        let rep = sim(
            &net,
            vec![
                vec![Op::Send { to: 2, bytes }],
                vec![Op::Send { to: 3, bytes }],
                vec![Op::Recv { from: 0 }],
                vec![Op::Recv { from: 1 }],
            ],
        );
        let cfg = net.config();
        let expect = cfg.sw_overhead + 3.0 * cfg.hop_latency + 2.0 * bytes / cfg.bandwidth;
        assert!(
            (rep.time - expect).abs() < expect * 1e-6,
            "{} vs {expect}",
            rep.time
        );
        assert_eq!(rep.peak_flows, 2);
    }

    #[test]
    fn disjoint_flows_run_at_full_rate() {
        // 0→1 stays on sw0 (up+down only), 2→3 on sw1: no shared link.
        let net = dumbbell(2);
        let bytes = 50e6;
        let rep = sim(
            &net,
            vec![
                vec![Op::Send { to: 1, bytes }],
                vec![Op::Recv { from: 0 }],
                vec![Op::Send { to: 3, bytes }],
                vec![Op::Recv { from: 2 }],
            ],
        );
        let cfg = net.config();
        let expect = cfg.sw_overhead + 2.0 * cfg.hop_latency + bytes / cfg.bandwidth;
        assert!(
            (rep.time - expect).abs() < expect * 1e-6,
            "{} vs {expect}",
            rep.time
        );
    }

    #[test]
    fn sendrecv_exchanges_in_one_round() {
        let net = dumbbell(1); // host 0 on sw0, host 1 on sw1
        let bytes = 10e6;
        let rep = sim(
            &net,
            vec![
                vec![Op::SendRecv {
                    to: 1,
                    bytes,
                    from: 1,
                }],
                vec![Op::SendRecv {
                    to: 0,
                    bytes,
                    from: 0,
                }],
            ],
        );
        let cfg = net.config();
        // full duplex: both directions in parallel
        let expect = cfg.sw_overhead + 3.0 * cfg.hop_latency + bytes / cfg.bandwidth;
        assert!(
            (rep.time - expect).abs() < expect * 1e-6,
            "{} vs {expect}",
            rep.time
        );
        assert_eq!(rep.flows, 2);
    }

    #[test]
    fn messages_match_in_fifo_order() {
        let net = dumbbell(1);
        let rep = sim(
            &net,
            vec![
                vec![
                    Op::Send { to: 1, bytes: 1e6 },
                    Op::Send { to: 1, bytes: 2e6 },
                ],
                vec![Op::Recv { from: 0 }, Op::Recv { from: 0 }],
            ],
        );
        assert_eq!(rep.flows, 2);
        assert!(rep.time > 0.0);
    }

    /// Runs `bad` as op 1 of rank 1 among two ranks: a program naming a
    /// rank outside the run must fail before any event runs, with the
    /// rank, the op index and the peer.
    fn assert_unknown_peer(bad: Op, peer: u32) {
        let net = dumbbell(1);
        let err = Simulator::builder(&net)
            .programs(vec![vec![], vec![Op::Compute(1e3), bad]])
            .run()
            .unwrap_err();
        let expected = SimError::UnknownPeer {
            rank: 1,
            op: 1,
            peer,
            ranks: 2,
        };
        assert_eq!(err, expected, "{bad:?}");
        assert!(err.to_string().contains("op 1 of rank 1 names rank"));
    }

    #[test]
    fn send_to_an_unknown_rank_is_rejected() {
        assert_unknown_peer(Op::Send { to: 9, bytes: 1e6 }, 9);
    }

    #[test]
    fn recv_from_an_unknown_rank_is_rejected() {
        assert_unknown_peer(Op::Recv { from: 9 }, 9);
    }

    #[test]
    fn sendrecv_with_an_unknown_source_is_rejected() {
        let bad = Op::SendRecv {
            to: 0,
            bytes: 1e6,
            from: 7,
        };
        assert_unknown_peer(bad, 7);
    }

    #[test]
    fn recv_without_send_deadlocks() {
        let net = dumbbell(1);
        let err = Simulator::builder(&net)
            .programs(vec![vec![Op::Recv { from: 1 }], vec![]])
            .run()
            .unwrap_err();
        match err {
            SimError::Deadlock {
                time,
                blocked_ranks,
                active_flows,
            } => {
                assert_eq!(time, 0.0);
                assert_eq!(blocked_ranks.len(), 1);
                assert_eq!(blocked_ranks[0].rank, 0);
                assert_eq!(blocked_ranks[0].reason, WaitReason::Recv { from: 1 });
                assert_eq!(active_flows, 0);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn blocked_after_fault_is_stalled_not_deadlock() {
        // same ill-formed receive, but a (harmless) fault struck first:
        // the error must say Stalled — the blockage may be environmental
        let net = ring_net();
        let err = Simulator::builder(&net)
            .programs(vec![
                vec![Op::Compute(1e9), Op::Recv { from: 1 }],
                vec![],
                vec![],
                vec![],
            ])
            .fault_schedule(&[FaultEvent {
                time: 1e-6,
                fault: NetFault::Link(2, 3),
            }])
            .run()
            .unwrap_err();
        match err {
            SimError::Stalled {
                blocked_ranks,
                faults_applied,
                ..
            } => {
                assert_eq!(faults_applied, 1);
                assert_eq!(blocked_ranks.len(), 1);
                assert_eq!(blocked_ranks[0].reason, WaitReason::Recv { from: 1 });
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn partitioned_helper_stamps_time_and_ranks() {
        let net = ring_net();
        let mut simulator = Simulator::builder(&net).programs(vec![vec![]]).build();
        simulator.now = 0.25;
        let err = simulator.partitioned(vec![3, 1]);
        assert_eq!(
            err,
            SimError::Partitioned {
                time: 0.25,
                ranks: vec![3, 1]
            }
        );
        // both route error paths produce exactly this shape
        assert!(matches!(err, SimError::Partitioned { .. }));
    }

    #[test]
    fn zero_byte_message_is_pure_latency() {
        let net = dumbbell(1);
        let rep = sim(
            &net,
            vec![
                vec![Op::Send { to: 1, bytes: 0.0 }],
                vec![Op::Recv { from: 0 }],
            ],
        );
        let cfg = net.config();
        let expect = cfg.sw_overhead + 3.0 * cfg.hop_latency;
        assert!(
            (rep.time - expect).abs() < 1e-12,
            "{} vs {expect}",
            rep.time
        );
    }

    #[test]
    fn loopback_send_is_instant() {
        let net = dumbbell(1);
        let rep = sim(
            &net,
            vec![vec![Op::Send { to: 0, bytes: 1e6 }, Op::Recv { from: 0 }]],
        );
        assert_eq!(rep.time, 0.0);
    }

    /// 4 switches in a ring, one host each, radix 4.
    fn ring_net() -> Network {
        let mut g = HostSwitchGraph::new(4, 4).unwrap();
        for s in 0..4 {
            g.add_link(s, (s + 1) % 4).unwrap();
        }
        for s in 0..4 {
            g.attach_host(s).unwrap();
        }
        Network::builder(&g).build()
    }

    #[test]
    fn midrun_link_death_reroutes_and_delivers() {
        // host 0 → host 1 over the direct s0–s1 link; the link dies while
        // the flow streams, so it must finish over s0–s3–s2–s1.
        let net = ring_net();
        let bytes = 100e6; // 20 ms fault-free: plenty of time to kill it
        let programs = vec![
            vec![Op::Send { to: 1, bytes }],
            vec![Op::Recv { from: 0 }],
            vec![],
            vec![],
        ];
        let fault_free = sim(&net, programs.clone()).time;
        let rep = sim_faults(
            &net,
            programs,
            &[FaultEvent {
                time: fault_free / 2.0,
                fault: NetFault::Link(0, 1),
            }],
        )
        .unwrap();
        // delivered, later than fault-free (half re-streamed the long way)
        assert!(rep.time > fault_free, "{} vs {fault_free}", rep.time);
        assert!(rep.time < 2.0 * fault_free);
    }

    #[test]
    fn midrun_partition_is_structured_error() {
        // killing both ring cuts between the communicating pair leaves no
        // surviving route: the run must end with Partitioned, not hang.
        let net = ring_net();
        let bytes = 100e6;
        let t_cut = net.config().sw_overhead * 10.0;
        let err = sim_faults(
            &net,
            vec![
                vec![Op::Send { to: 2, bytes }],
                vec![],
                vec![Op::Recv { from: 0 }],
                vec![],
            ],
            &[
                FaultEvent {
                    time: t_cut,
                    fault: NetFault::Link(0, 1),
                },
                FaultEvent {
                    time: t_cut,
                    fault: NetFault::Link(2, 3),
                },
                FaultEvent {
                    time: t_cut,
                    fault: NetFault::Link(0, 3),
                },
            ],
        )
        .unwrap_err();
        match err {
            SimError::Partitioned { time, ranks } => {
                assert!((time - t_cut).abs() < 1e-12);
                assert_eq!(ranks, vec![0, 2]);
            }
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn midrun_switch_death_kills_its_ranks() {
        let net = ring_net();
        let err = sim_faults(
            &net,
            vec![
                vec![Op::Send {
                    to: 1,
                    bytes: 100e6,
                }],
                vec![Op::Recv { from: 0 }],
                vec![],
                vec![],
            ],
            &[FaultEvent {
                time: 1e-3,
                fault: NetFault::Switch(1),
            }],
        )
        .unwrap_err();
        match err {
            SimError::Partitioned { ranks, .. } => assert_eq!(ranks, vec![1]),
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn midrun_fault_runs_are_deterministic() {
        let net = ring_net();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: 50e6 }, Op::Recv { from: 1 }],
            vec![Op::Recv { from: 0 }, Op::Send { to: 0, bytes: 25e6 }],
            vec![Op::Send { to: 3, bytes: 10e6 }],
            vec![Op::Recv { from: 2 }],
        ];
        let faults = [FaultEvent {
            time: 5e-3,
            fault: NetFault::Link(0, 1),
        }];
        let a = sim_faults(&net, programs.clone(), &faults).unwrap();
        let b = sim_faults(&net, programs, &faults).unwrap();
        assert_eq!(a.time, b.time);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn fault_after_completion_changes_nothing() {
        let net = ring_net();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: 1e6 }],
            vec![Op::Recv { from: 0 }],
            vec![],
            vec![],
        ];
        let plain = sim(&net, programs.clone()).time;
        let rep = sim_faults(
            &net,
            programs,
            &[FaultEvent {
                time: plain * 10.0,
                fault: NetFault::Link(0, 1),
            }],
        )
        .unwrap();
        assert_eq!(rep.time, plain);
    }

    #[test]
    fn placement_routes_between_assigned_hosts() {
        // ranks 0,1 placed on hosts 0,2 (opposite ring corners): the
        // message crosses two switch hops instead of one.
        let net = ring_net();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: 0.0 }],
            vec![Op::Recv { from: 0 }],
        ];
        let near = Simulator::builder(&net)
            .programs(programs.clone())
            .placement(vec![0, 1])
            .run()
            .unwrap();
        let far = Simulator::builder(&net)
            .programs(programs.clone())
            .placement(vec![0, 2])
            .run()
            .unwrap();
        let cfg = net.config();
        assert!((far.time - near.time - cfg.hop_latency).abs() < 1e-12);
        // co-located ranks communicate by loopback
        let co = Simulator::builder(&net)
            .programs(programs)
            .placement(vec![2, 2])
            .run()
            .unwrap();
        assert_eq!(co.time, 0.0);
        assert_eq!(co.flows, 0);
    }

    #[test]
    fn recorded_run_is_identical_and_tracks_flow_lifecycle() {
        let net = ring_net();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: 50e6 }, Op::Recv { from: 1 }],
            vec![Op::Recv { from: 0 }, Op::Send { to: 0, bytes: 25e6 }],
            vec![Op::Send { to: 3, bytes: 10e6 }],
            vec![Op::Recv { from: 2 }],
        ];
        let faults = [FaultEvent {
            time: 5e-3,
            fault: NetFault::Link(0, 1),
        }];
        let plain = sim_faults(&net, programs.clone(), &faults).unwrap();
        let rec = Recorder::enabled();
        let traced = Simulator::builder(&net)
            .programs(programs)
            .fault_schedule(&faults)
            .recorder(rec.clone())
            .run()
            .unwrap();
        // recording must not perturb the simulation
        assert_eq!(plain.time, traced.time);
        assert_eq!(plain.flows, traced.flows);
        assert_eq!(plain.events, traced.events);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counter("sim.flows"), Some(traced.flows));
        assert_eq!(snap.counter("events.processed"), Some(traced.events));
        assert_eq!(
            snap.counter("events.cancelled"),
            Some(traced.events_cancelled)
        );
        assert!(snap.histogram("sim.event_queue_depth").unwrap().count > 0);
        assert_eq!(snap.event_count("flow.created"), traced.flows as usize);
        assert_eq!(snap.event_count("flow.completed"), traced.flows as usize);
        assert_eq!(snap.event_count("fault.link_down"), 1);
        assert_eq!(snap.event_count("fault.reroute"), 1);
        assert!(snap.event_count("flow.rerouted") >= 1);
        assert!(snap.histogram("sim.queue_depth").unwrap().count > 0);
        assert!(snap.histogram("sim.link_bytes").unwrap().count > 0);
        assert!(snap.counter("sim.links_used").unwrap_or(0) > 0);
        assert!(snap.spans.iter().any(|s| s.name == "sim.run"));
        // analysis-layer records: one decomposition per flow, a load
        // rollup per used link, hop timings, and the completion mark
        assert_eq!(snap.event_count("flow.done"), traced.flows as usize);
        assert_eq!(
            snap.event_count("link.load") as u64,
            snap.counter("sim.links_used").unwrap()
        );
        assert!(snap.event_count("flow.hop") > 0);
        assert!(snap.event_count("flow.dep") > 0);
        assert_eq!(snap.event_count("sim.completed"), 1);
        let done_mark = snap.events.iter().find_map(|e| match e.event {
            ObsEvent::Mark {
                name: "sim.completed",
                value,
            } => Some(value),
            _ => None,
        });
        assert_eq!(done_mark, Some(traced.time));
    }

    #[test]
    fn flow_done_components_sum_to_end_to_end_latency() {
        let net = ring_net();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: 50e6 }, Op::Recv { from: 1 }],
            vec![Op::Recv { from: 0 }, Op::Send { to: 0, bytes: 25e6 }],
            vec![Op::Send { to: 3, bytes: 10e6 }],
            vec![Op::Recv { from: 2 }],
        ];
        let faults = [FaultEvent {
            time: 5e-3,
            fault: NetFault::Link(0, 1),
        }];
        let rec = Recorder::enabled();
        Simulator::builder(&net)
            .programs(programs)
            .fault_schedule(&faults)
            .recorder(rec.clone())
            .run()
            .unwrap();
        let snap = rec.snapshot().unwrap();
        let mut seen = 0;
        for e in &snap.events {
            if let ObsEvent::FlowDone {
                created,
                completed,
                propagation,
                serialization,
                queueing,
                stall,
                bytes,
                hops,
                ..
            } = e.event
            {
                seen += 1;
                let total = completed - created;
                let sum = propagation + serialization + queueing + stall;
                assert!(
                    (total - sum).abs() <= 1e-9 * total.max(1.0),
                    "decomposition must telescope: total={total} sum={sum}"
                );
                assert!(bytes > 0.0 && hops >= 2);
                assert!(propagation > 0.0 && serialization > 0.0);
            }
        }
        assert!(seen >= 3, "expected every non-loopback flow decomposed");
        // hop timings are ordered and bounded by the flow lifetime
        for e in &snap.events {
            if let ObsEvent::Hop { enqueue, drain, .. } = e.event {
                assert!(drain >= enqueue);
            }
        }
        // dependency edges never point forward in time
        for e in &snap.events {
            if let ObsEvent::FlowDep { flow, parent } = e.event {
                assert!(parent < flow, "parent flow must be created earlier");
            }
        }
    }

    #[test]
    fn simulator_inherits_network_recorder() {
        let mut g = HostSwitchGraph::new(2, 3).unwrap();
        g.add_link(0, 1).unwrap();
        g.attach_host(0).unwrap();
        g.attach_host(1).unwrap();
        let rec = Recorder::enabled();
        let net = Network::builder(&g).recorder(rec.clone()).build();
        Simulator::builder(&net)
            .programs(vec![
                vec![Op::Send { to: 1, bytes: 1e6 }],
                vec![Op::Recv { from: 0 }],
            ])
            .run()
            .unwrap();
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counter("sim.flows"), Some(1));
        assert!(snap.spans.iter().any(|s| s.name == "net.compile"));
        assert!(snap.spans.iter().any(|s| s.name == "sim.run"));
    }

    #[test]
    fn builder_entry_points_are_equivalent() {
        let net = dumbbell(2);
        let programs: Vec<Program> = vec![
            vec![Op::Send { to: 2, bytes: 5e6 }],
            vec![Op::Send { to: 3, bytes: 5e6 }],
            vec![Op::Recv { from: 0 }],
            vec![Op::Recv { from: 1 }],
        ];
        let built = Simulator::builder(&net)
            .programs(programs.clone())
            .run()
            .unwrap();
        let staged = Simulator::builder(&net)
            .programs(programs.clone())
            .build()
            .run()
            .unwrap();
        assert_eq!(staged.time, built.time);
        assert_eq!(staged.flows, built.flows);
        let placed = Simulator::builder(&net)
            .programs(programs.clone())
            .placement(vec![0, 1, 2, 3])
            .run()
            .unwrap();
        assert_eq!(placed.time, built.time);
        let faults = [FaultEvent {
            time: 1e-3,
            fault: NetFault::Link(0, 1),
        }];
        let a = Simulator::builder(&net)
            .programs(programs.clone())
            .fault_schedule(&faults)
            .run();
        let b = sim_faults(&net, programs, &faults);
        assert_eq!(a.is_ok(), b.is_ok());
    }

    // ---- approximate sharing model ----

    fn sim_approx(net: &Network, programs: Vec<Program>) -> SimReport {
        Simulator::builder(net)
            .programs(programs)
            .sharing(SharingMode::ApproxFair)
            .run()
            .unwrap()
    }

    #[test]
    fn approx_single_transfer_matches_exact() {
        // one flow: no contention, both models must agree to FP noise
        let net = dumbbell(2);
        let bytes = 50e6;
        let programs = vec![
            vec![Op::Send { to: 2, bytes }],
            vec![],
            vec![Op::Recv { from: 0 }],
        ];
        let exact = sim(&net, programs.clone());
        let approx = sim_approx(&net, programs);
        assert!(
            (approx.time - exact.time).abs() < exact.time * 1e-9,
            "{} vs {}",
            approx.time,
            exact.time
        );
        assert_eq!(approx.flows, exact.flows);
    }

    #[test]
    fn approx_shared_bottleneck_shows_bounded_contention() {
        // two flows share the inter-switch link. Exact max-min doubles
        // both completion times; the approximate model is only bound to
        // land within a factor α = 2 (see sharing::fair docs): here the
        // first flow queues before the contention exists, so it streams
        // at full rate and the makespan lands between 1× and 2× solo.
        let net = dumbbell(2);
        let bytes = 50e6;
        let rep = sim_approx(
            &net,
            vec![
                vec![Op::Send { to: 2, bytes }],
                vec![Op::Send { to: 3, bytes }],
                vec![Op::Recv { from: 0 }],
                vec![Op::Recv { from: 1 }],
            ],
        );
        let cfg = net.config();
        let fixed = cfg.sw_overhead + 3.0 * cfg.hop_latency;
        let solo = fixed + bytes / cfg.bandwidth;
        let exact = fixed + 2.0 * bytes / cfg.bandwidth;
        assert!(
            rep.time > solo * 1.2,
            "contention must be visible: {} vs solo {solo}",
            rep.time
        );
        assert!(
            rep.time <= exact * (1.0 + 1e-9),
            "approx can only under-serialize here: {} vs exact {exact}",
            rep.time
        );
        assert_eq!(rep.peak_flows, 2);
        assert!(rep.events_cancelled > 0, "lazy recomputation cancels");
    }

    #[test]
    fn approx_model_reroutes_after_fault() {
        let net = ring_net();
        let bytes = 100e6;
        let programs = vec![
            vec![Op::Send { to: 1, bytes }],
            vec![Op::Recv { from: 0 }],
            vec![],
            vec![],
        ];
        let fault_free = sim_approx(&net, programs.clone()).time;
        let rep = Simulator::builder(&net)
            .programs(programs)
            .sharing(SharingMode::ApproxFair)
            .fault_schedule(&[FaultEvent {
                time: fault_free / 2.0,
                fault: NetFault::Link(0, 1),
            }])
            .run()
            .unwrap();
        assert!(rep.time > fault_free, "{} vs {fault_free}", rep.time);
        assert!(rep.time < 2.0 * fault_free);
    }

    #[test]
    fn approx_recorded_run_is_identical() {
        let net = ring_net();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: 50e6 }, Op::Recv { from: 1 }],
            vec![Op::Recv { from: 0 }, Op::Send { to: 0, bytes: 25e6 }],
            vec![Op::Send { to: 3, bytes: 10e6 }],
            vec![Op::Recv { from: 2 }],
        ];
        let plain = sim_approx(&net, programs.clone());
        let rec = Recorder::enabled();
        let traced = Simulator::builder(&net)
            .programs(programs)
            .sharing(SharingMode::ApproxFair)
            .recorder(rec.clone())
            .run()
            .unwrap();
        assert_eq!(plain.time, traced.time);
        assert_eq!(plain.flows, traced.flows);
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.events_cancelled, traced.events_cancelled);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.event_count("flow.done"), traced.flows as usize);
        assert_eq!(snap.event_count("sim.completed"), 1);
    }

    // ---- open-loop injection ----

    #[test]
    fn injected_flow_streams_host_to_host() {
        let net = dumbbell(2);
        let bytes = 50e6;
        let rep = Simulator::builder(&net)
            .inject(&[InjectedFlow {
                at: 1e-3,
                src: 0,
                dst: 2,
                bytes,
            }])
            .run()
            .unwrap();
        let cfg = net.config();
        let expect = 1e-3 + cfg.sw_overhead + 3.0 * cfg.hop_latency + bytes / cfg.bandwidth;
        assert!(
            (rep.time - expect).abs() < expect * 1e-9,
            "{} vs {expect}",
            rep.time
        );
        assert_eq!(rep.flows, 1);
        assert_eq!(rep.bytes, bytes);
    }

    #[test]
    fn injected_flows_contend_with_rank_traffic() {
        // rank flow 0→2 and injected flow 1→3 share the switch link
        let net = dumbbell(2);
        let bytes = 50e6;
        let rep = Simulator::builder(&net)
            .programs(vec![
                vec![Op::Send { to: 2, bytes }],
                vec![],
                vec![Op::Recv { from: 0 }],
                vec![],
            ])
            .inject(&[InjectedFlow {
                at: 0.0,
                src: 1,
                dst: 3,
                bytes,
            }])
            .run()
            .unwrap();
        let cfg = net.config();
        let solo = cfg.sw_overhead + 3.0 * cfg.hop_latency + bytes / cfg.bandwidth;
        assert!(rep.time > solo * 1.8, "no contention visible: {}", rep.time);
        assert_eq!(rep.flows, 2);
    }

    // ---- checkpoint / resume ----

    /// Fresh per-test scratch dir under the system temp dir.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("orp-netsim-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn assert_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
        assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}: time");
        assert_eq!(a.flows, b.flows, "{what}: flows");
        assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "{what}: bytes");
        assert_eq!(a.peak_flows, b.peak_flows, "{what}: peak_flows");
        assert_eq!(a.flops.to_bits(), b.flops.to_bits(), "{what}: flops");
        assert_eq!(a.events, b.events, "{what}: events");
        assert_eq!(
            a.events_cancelled, b.events_cancelled,
            "{what}: events_cancelled"
        );
        assert_eq!(
            a.peak_queue_depth, b.peak_queue_depth,
            "{what}: peak_queue_depth"
        );
    }

    /// A run that exercises every checkpointed subsystem: rank programs
    /// with compute/sendrecv, a mid-run fault (dead links + rebuilt
    /// routing table + reroutes), and open-loop injections.
    fn busy_builder(net: &Network, mode: SharingMode) -> SimulatorBuilder<'_> {
        let programs = vec![
            vec![
                Op::Compute(5e8),
                Op::Send { to: 1, bytes: 50e6 },
                Op::Recv { from: 1 },
            ],
            vec![
                Op::Recv { from: 0 },
                Op::Compute(2e8),
                Op::Send { to: 0, bytes: 25e6 },
            ],
            vec![Op::SendRecv {
                to: 3,
                bytes: 10e6,
                from: 3,
            }],
            vec![Op::SendRecv {
                to: 2,
                bytes: 10e6,
                from: 2,
            }],
        ];
        let inj: Vec<InjectedFlow> = (0..8)
            .map(|i| InjectedFlow {
                at: 1e-3 + i as f64 * 2e-3,
                src: i % 4,
                dst: (i + 2) % 4,
                bytes: 5e6,
            })
            .collect();
        Simulator::builder(net)
            .programs(programs)
            .sharing(mode)
            .fault_schedule(&[FaultEvent {
                time: 4e-3,
                fault: NetFault::Link(0, 1),
            }])
            .inject(&inj)
    }

    /// Open-loop bursts: runs of injections 0–49 ns apart (well inside
    /// one message delay) broken by gaps of tens of microseconds, with
    /// some degenerate `src == dst` demands, which consume no flow
    /// sequence number, mixed in.
    fn burst_workload(seed: u64, n: usize, hosts: u32) -> Vec<InjectedFlow> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                if rng.gen_range(0u32..3) > 0 {
                    t += rng.gen_range(0u32..50) as f64 * 1e-9;
                } else {
                    t += rng.gen_range(1u32..20) as f64 * 1e-5;
                }
                InjectedFlow {
                    at: t,
                    src: rng.gen_range(0..hosts),
                    dst: rng.gen_range(0..hosts),
                    bytes: rng.gen_range(1u32..2000) as f64 * 1e3,
                }
            })
            .collect()
    }

    /// Kills the run `make` builds after `cut` processed events
    /// (force-checkpointing through the watchdog's exit path), resumes
    /// from the file, and requires the final report to be bit-identical
    /// to `reference`. Returns the checkpoint the cut left behind.
    fn cut_and_resume<'n>(
        make: impl Fn() -> SimulatorBuilder<'n>,
        tag: &str,
        cut: u64,
        reference: &SimReport,
    ) -> SimCheckpoint {
        let dir = temp_dir("resume");
        let path = dir.join(format!("sim-{}-{cut}.orp", tag.replace(' ', "-")));
        let mut sim = make().checkpoint(&path).build();
        sim.stop_after_events = Some(cut);
        match sim.run() {
            Err(SimError::Wedged {
                checkpoint: Some(p),
                ..
            }) => assert_eq!(p, path),
            other => panic!("expected Wedged with checkpoint, got {other:?}"),
        }
        let ck = SimCheckpoint::load(&path).unwrap();
        let resumed = make().checkpoint(&path).resume_from(&path).run().unwrap();
        assert_reports_identical(reference, &resumed, &format!("{tag} cut@{cut}"));
        std::fs::remove_file(&path).unwrap();
        ck
    }

    #[test]
    fn interrupted_resume_is_bit_identical_for_both_models() {
        let net = ring_net();
        let g = orp_core::construct::random_general(16, 4, 8, 3).unwrap();
        let burst_net = Network::builder(&g).build();
        let inj = burst_workload(5, 120, burst_net.num_hosts());
        assert!(inj.iter().any(|f| f.src == f.dst), "no degenerate demand");
        // the released prefix of the time-sorted workload ends inside a
        // burst when the next injection is due within one message delay
        let mut order: Vec<usize> = (0..inj.len()).collect();
        order.sort_by(|&a, &b| inj[a].at.total_cmp(&inj[b].at));
        let window = burst_net.message_delay(1);
        let mid_burst = |ck: &SimCheckpoint| {
            let k = ck.inj_next as usize;
            k > 0 && k < order.len() && inj[order[k]].at - inj[order[k - 1]].at < window
        };
        for mode in [SharingMode::ExactMaxMin, SharingMode::ApproxFair] {
            let busy = || busy_builder(&net, mode);
            let reference = busy().run().unwrap();
            assert!(
                reference.events > 8,
                "scenario too small to cut meaningfully ({} events)",
                reference.events
            );
            let mut cuts = vec![1, reference.events / 3, reference.events / 2];
            cuts.push(reference.events - 1);
            cuts.dedup();
            for cut in cuts {
                cut_and_resume(busy, mode.name(), cut, &reference);
            }
            let bursts = || Simulator::builder(&burst_net).inject(&inj).sharing(mode);
            let reference = bursts().run().unwrap();
            let tag = format!("bursts {}", mode.name());
            let mut mid_burst_after_degenerate = 0;
            for cut in (1..reference.events).step_by(7) {
                let ck = cut_and_resume(bursts, &tag, cut, &reference);
                // flow_seq lags the cursor once a degenerate demand was
                // released (no rank traffic here)
                if mid_burst(&ck) && ck.flow_seq < ck.inj_next {
                    mid_burst_after_degenerate += 1;
                }
            }
            assert!(
                mid_burst_after_degenerate > 0,
                "{tag}: no cut landed mid-burst after a degenerate demand"
            );
        }
    }

    /// The exact model's streaming-flow list inside a checkpoint.
    fn exact_model_active(ck: &SimCheckpoint) -> Vec<u32> {
        let mut dec = Decoder::new(&ck.model);
        dec.get_f64().unwrap();
        dec.get_u32_vec().unwrap()
    }

    #[test]
    fn exact_resume_mid_alltoall_is_bit_identical() {
        // IS is all-to-all bound: in each pairwise-exchange step every
        // rank streams to a partner, so a cut lands with tens of flows
        // spread over merged link groups, some rates set by earlier
        // fills and some dirty
        let g = orp_core::construct::random_general(64, 16, 8, 3).unwrap();
        let net = Network::builder(&g).build();
        let bench = crate::npb::Benchmark::Is;
        let programs = bench.build(64, bench.paper_class(), 1);
        let make = || Simulator::builder(&net).programs(programs.clone());
        let reference = make().run().unwrap();
        let every = (reference.events / 40).max(1) as usize;
        let mut mid_alltoall = 0;
        for cut in (1..reference.events).step_by(every) {
            let ck = cut_and_resume(make, "is exact", cut, &reference);
            // at least half the ranks streaming: an exchange is in flight
            if exact_model_active(&ck).len() >= 32 {
                mid_alltoall += 1;
            }
        }
        assert!(
            mid_alltoall >= 10,
            "{mid_alltoall} cuts landed mid-alltoall"
        );
    }

    /// Cuts `make`'s run after `cut` events and returns its checkpoint.
    fn cut_at<'n>(make: impl Fn() -> SimulatorBuilder<'n>, path: &Path, cut: u64) -> SimCheckpoint {
        let mut sim = make().checkpoint(path).build();
        sim.stop_after_events = Some(cut);
        sim.run().unwrap_err();
        SimCheckpoint::load(path).unwrap()
    }

    /// Resumes `make`'s run from `ck` with a section edited. The file
    /// carries a valid container CRC, so only the section decoders stand
    /// between a hostile section and the simulator.
    fn resume_edited<'n>(
        make: impl Fn() -> SimulatorBuilder<'n>,
        ck: &SimCheckpoint,
        path: &Path,
        edit: impl FnOnce(&mut SimCheckpoint),
    ) -> Result<SimReport, SimError> {
        let mut bad = ck.clone();
        edit(&mut bad);
        bad.save(path).unwrap();
        make().resume_from(path).run()
    }

    #[test]
    fn exact_resume_rejects_duplicate_and_idle_flow_ids() {
        let net = ring_net();
        let dir = temp_dir("crafted");
        let path = dir.join("sim-crafted.orp");
        let make = || busy_builder(&net, SharingMode::ExactMaxMin);
        let reference = make().run().unwrap();
        // a cut with two flows streaming and an idle id below them
        let (ck, active, idle) = (1..reference.events)
            .find_map(|cut| {
                let ck = cut_at(make, &path, cut);
                let active = exact_model_active(&ck);
                let top = *active.iter().max()?;
                let idle = (0..top).find(|f| !active.contains(f))?;
                (active.len() >= 2).then_some((ck, active, idle))
            })
            .expect("some cut has two streaming flows above an idle one");
        let crafted = |list: Vec<u32>| {
            resume_edited(make, &ck, &path, |c| {
                let mut enc = Encoder::new();
                enc.put_f64(net.config().bandwidth);
                enc.put_u32_slice(&list);
                enc.put_bool(true);
                c.model = enc.into_bytes();
            })
        };
        // the untouched list resumes (the crafting itself is sound)
        let resumed = crafted(active.clone()).unwrap();
        assert_reports_identical(&reference, &resumed, "re-encoded model");
        let mut twice = active.clone();
        twice.push(active[0]);
        let mut with_idle = active.clone();
        with_idle.push(idle);
        // a fault would tear down the streaming flow the list misses
        let missing = active[1..].to_vec();
        for (what, list) in [
            ("duplicate", twice),
            ("idle", with_idle),
            ("missing", missing),
        ] {
            match crafted(list) {
                Err(SimError::Ckpt(CkptError::BadSection(msg))) => {
                    assert!(msg.contains("max-min model"), "{what}: {msg}")
                }
                other => panic!("{what} id: expected BadSection, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_bounds_and_checks_the_rank_section() {
        let net = ring_net();
        let path = temp_dir("crafted").join("sim-ranks.orp");
        // after the first event rank 0 has a receive posted on rank 1,
        // which finished computing and waits in the runnable queue
        let make = || {
            Simulator::builder(&net).programs(vec![
                vec![Op::Recv { from: 1 }],
                vec![Op::Compute(1e8), Op::Send { to: 0, bytes: 1e6 }],
            ])
        };
        let ck = cut_at(make, &path, 1);
        // the context count and two 15-byte contexts, then the channel,
        // posted-receive and runnable lists
        let contexts = &ck.ranks[..8 + 2 * 15];
        let with_lists = |lists: &dyn Fn(&mut Encoder)| {
            let mut enc = Encoder::new();
            lists(&mut enc);
            [contexts, &enc.into_bytes()].concat()
        };
        let resume = |ranks: Vec<u8>| resume_edited(make, &ck, &path, |c| c.ranks = ranks);
        let huge = with_lists(&|e| e.put_u64(1 << 40));
        match resume(huge) {
            Err(SimError::Ckpt(CkptError::Truncated)) => {}
            other => panic!("2^40 channels: expected Truncated, got {other:?}"),
        }
        let lists = |chans: &[[u32; 4]], rx: &[[u32; 3]]| {
            with_lists(&|e| {
                e.put_u64(chans.len() as u64);
                chans.iter().flatten().for_each(|&v| e.put_u32(v));
                e.put_u64(rx.len() as u64);
                rx.iter().flatten().for_each(|&v| e.put_u32(v));
                e.put_u32_slice(&[1]);
            })
        };
        // no channel is pending at the cut, so none is written
        assert_eq!(ck.ranks, lists(&[], &[[1, 0, 0]]), "state at the cut");
        for (what, ranks) in [
            (
                "channel to rank 2 of 2",
                lists(&[[1, 2, 1, 0]], &[[1, 0, 0]]),
            ),
            ("posted receive missing", lists(&[], &[])),
            ("posted receive from rank 0", lists(&[], &[[0, 0, 0]])),
        ] {
            match resume(ranks) {
                Err(SimError::Ckpt(CkptError::BadSection(msg))) => {
                    assert!(msg.starts_with("ranks:"), "{what}: {msg}")
                }
                other => panic!("{what}: expected BadSection, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_bounds_the_flow_table_by_the_configuration() {
        let net = ring_net();
        let path = temp_dir("crafted").join("sim-flows.orp");
        let make = || busy_builder(&net, SharingMode::ExactMaxMin);
        let ck = cut_at(make, &path, 5);
        // `n` flows, the first live ones from `(src, injected)` to 0 over
        // `route`
        let table = |n: u64, live: &[(u32, bool)], route: &[u32]| {
            let mut enc = Encoder::new();
            enc.put_u64(n);
            enc.put_u64(live.len() as u64);
            enc.put_bool(false);
            for (fid, &(src, injected)) in (0u64..).zip(live) {
                enc.put_u64(fid);
                enc.put_u32_slice(route);
                enc.put_f64(1.0);
                enc.put_f64(0.0);
                enc.put_u32(src);
                enc.put_u32(0);
                enc.put_u64(0);
                enc.put_bool(false);
                enc.put_f64(1.0);
                enc.put_bool(injected);
            }
            enc.into_bytes()
        };
        // four ranks on four hosts; four network sends and eight
        // injections issue at most 12 flows
        for (what, flows, expect) in [
            ("2^40 flows", table(1 << 40, &[], &[0]), "more flows than"),
            ("13 flows", table(13, &[], &[0]), "more flows than"),
            ("from rank 4", table(1, &[(4, false)], &[0]), "endpoint"),
            ("from host 4", table(1, &[(4, true)], &[0]), "endpoint"),
            ("no route", table(1, &[(0, false)], &[]), "route empty"),
        ] {
            match resume_edited(make, &ck, &path, |c| c.flows = flows) {
                Err(SimError::Ckpt(CkptError::BadSection(msg))) => {
                    assert!(msg.contains(expect), "{what}: {msg}")
                }
                other => panic!("{what}: expected BadSection, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_bounds_event_slots_by_the_configuration() {
        let net = ring_net();
        let path = temp_dir("crafted").join("sim-queue.orp");
        let make = || busy_builder(&net, SharingMode::ExactMaxMin);
        let ck = cut_at(make, &path, 5);
        // the first live entry's slot follows the format byte, seven
        // counters, the entry count, its time and its sequence number
        let at = 1 + 7 * 8 + 8 + 8 + 8;
        assert!(ck.queue.len() > at + 4, "no live event at the cut");
        let err = resume_edited(make, &ck, &path, |c| {
            c.queue[at..at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes())
        });
        match err {
            Err(SimError::Ckpt(CkptError::BadSection(msg))) => {
                assert!(msg.contains("event slot"), "{msg}")
            }
            other => panic!("expected BadSection, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_bounds_approx_fair_link_heaps_by_the_bytes_left() {
        let net = ring_net();
        let path = temp_dir("crafted").join("sim-heaps.orp");
        let make = || busy_builder(&net, SharingMode::ApproxFair);
        let ck = cut_at(make, &path, 5);
        let err = resume_edited(make, &ck, &path, |c| {
            // bandwidth and link count kept; link 0 then declares 2^40
            // heap entries of 16 bytes each
            let mut enc = Encoder::new();
            enc.put_u32(0);
            enc.put_f64(0.0);
            enc.put_f64(0.0);
            enc.put_u64(1 << 40);
            c.model = [&c.model[..16], &enc.into_bytes()].concat();
        });
        match err {
            Err(SimError::Ckpt(CkptError::Truncated)) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_after_completion_reproduces_the_report() {
        // the completion snapshot makes resuming a finished run a no-op
        // that returns the same report
        let net = ring_net();
        let dir = temp_dir("done");
        let path = dir.join("sim-done.orp");
        let full = busy_builder(&net, SharingMode::ExactMaxMin)
            .checkpoint(&path)
            .run()
            .unwrap();
        let again = busy_builder(&net, SharingMode::ExactMaxMin)
            .resume_from(&path)
            .run()
            .unwrap();
        assert_reports_identical(&full, &again, "completion snapshot");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resumed_run_with_recorder_matches_plain_resume() {
        // a recorder on the resuming run must not change the result,
        // even when the checkpoint was saved without one
        let net = ring_net();
        let dir = temp_dir("rec");
        let path = dir.join("sim-rec.orp");
        let make = || busy_builder(&net, SharingMode::ExactMaxMin);
        let reference = make().run().unwrap();
        cut_at(make, &path, reference.events / 3);
        let rec = Recorder::enabled();
        let resumed = busy_builder(&net, SharingMode::ExactMaxMin)
            .resume_from(&path)
            .recorder(rec.clone())
            .run()
            .unwrap();
        assert_reports_identical(&reference, &resumed, "recorded resume");
        let snap = rec.snapshot().unwrap();
        // telemetry covers the post-resume segment only
        assert!(snap.event_count("sim.completed") == 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_config_and_kinds() {
        let net = ring_net();
        let dir = temp_dir("reject");
        let path = dir.join("sim-reject.orp");
        cut_at(|| busy_builder(&net, SharingMode::ExactMaxMin), &path, 5);
        // different program → config echo mismatch
        let err = Simulator::builder(&net)
            .programs(vec![vec![Op::Compute(1.0)]])
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Ckpt(CkptError::BadSection(_))),
            "got {err:?}"
        );
        // different sharing model → same rejection
        let err = busy_builder(&net, SharingMode::ApproxFair)
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Ckpt(CkptError::BadSection(_))));
        // different fault schedule → same rejection
        let err = busy_builder(&net, SharingMode::ExactMaxMin)
            .fault_schedule(&[FaultEvent {
                time: 9.0,
                fault: NetFault::Switch(2),
            }])
            .resume_from(&path)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Ckpt(CkptError::BadSection(_))));
        // missing file → I/O error
        let err = busy_builder(&net, SharingMode::ExactMaxMin)
            .resume_from(dir.join("no-such.orp"))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Ckpt(CkptError::Io(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_truncated_and_corrupted_files() {
        let net = ring_net();
        let dir = temp_dir("corrupt");
        let path = dir.join("sim-corrupt.orp");
        cut_at(|| busy_builder(&net, SharingMode::ExactMaxMin), &path, 5);
        let good = std::fs::read(&path).unwrap();
        // truncated mid-payload
        let cut = dir.join("truncated.orp");
        std::fs::write(&cut, &good[..good.len() / 2]).unwrap();
        let err = busy_builder(&net, SharingMode::ExactMaxMin)
            .resume_from(&cut)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Ckpt(CkptError::Truncated)),
            "got {err:?}"
        );
        // single flipped bit in the payload
        let mut bad = good.clone();
        let mid = bad.len() - 9;
        bad[mid] ^= 0x10;
        let flip = dir.join("flipped.orp");
        std::fs::write(&flip, &bad).unwrap();
        let err = busy_builder(&net, SharingMode::ExactMaxMin)
            .resume_from(&flip)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Ckpt(CkptError::ChecksumMismatch)),
            "got {err:?}"
        );
        for p in [path, cut, flip] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn watchdog_on_healthy_run_changes_nothing() {
        let net = ring_net();
        let plain = busy_builder(&net, SharingMode::ExactMaxMin).run().unwrap();
        let watched = busy_builder(&net, SharingMode::ExactMaxMin)
            .watchdog(Duration::from_secs(3600))
            .run()
            .unwrap();
        assert_reports_identical(&plain, &watched, "watchdog armed");
    }

    #[test]
    fn periodic_checkpoints_do_not_change_the_result() {
        let net = ring_net();
        let dir = temp_dir("stride");
        let path = dir.join("sim-stride.orp");
        let plain = busy_builder(&net, SharingMode::ApproxFair).run().unwrap();
        let saved = busy_builder(&net, SharingMode::ApproxFair)
            .checkpoint(&path)
            .checkpoint_every(10)
            .run()
            .unwrap();
        assert_reports_identical(&plain, &saved, "periodic saves");
        assert!(path.exists(), "completion snapshot written");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injection_works_under_both_sharing_models() {
        let net = dumbbell(2);
        let inj: Vec<InjectedFlow> = (0..20)
            .map(|i| InjectedFlow {
                at: i as f64 * 1e-5,
                src: i % 2,
                dst: 2 + (i % 2),
                bytes: 1e6,
            })
            .collect();
        let exact = Simulator::builder(&net).inject(&inj).run().unwrap();
        let approx = Simulator::builder(&net)
            .inject(&inj)
            .sharing(SharingMode::ApproxFair)
            .run()
            .unwrap();
        assert_eq!(exact.flows, 20);
        assert_eq!(approx.flows, 20);
        // both models must land in the same ballpark (factor-α bound)
        let ratio = approx.time / exact.time;
        assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn long_simulated_horizons_terminate_under_both_models() {
        // the first message ends at 2e15 s, where the clock's resolution
        // (0.25 s) is coarser than the second message's 0.2 ms
        let net = dumbbell(1);
        let programs = vec![
            vec![
                Op::Send { to: 1, bytes: 1e25 },
                Op::Send { to: 1, bytes: 1e6 },
            ],
            vec![Op::Recv { from: 0 }, Op::Recv { from: 0 }],
        ];
        for mode in [SharingMode::ExactMaxMin, SharingMode::ApproxFair] {
            let rep = Simulator::builder(&net)
                .programs(programs.clone())
                .sharing(mode)
                .run()
                .unwrap();
            assert_eq!(rep.flows, 2, "{}", mode.name());
            assert!(rep.time >= 1e25 / net.config().bandwidth, "{}", mode.name());
        }
    }

    // ---- the flow window ----

    /// IS at 64 ranks on a 16-switch random fabric: 4,800 flows, a few
    /// all-to-all exchanges deep.
    fn is64() -> (Network, Vec<Program>) {
        let g = orp_core::construct::random_general(64, 16, 8, 3).unwrap();
        let bench = crate::npb::Benchmark::Is;
        (
            Network::builder(&g).build(),
            bench.build(64, bench.paper_class(), 1),
        )
    }

    /// The table stores at most 2 × the span from the oldest unfinished
    /// flow to the newest: IS at 64 ranks never stored more than 200
    /// records at once (197 under the approximate model) of its 4,800.
    #[test]
    fn flow_table_stores_a_bounded_window_through_is() {
        let (net, programs) = is64();
        for mode in [SharingMode::ExactMaxMin, SharingMode::ApproxFair] {
            let mut sim = Simulator::builder(&net)
                .programs(programs.clone())
                .sharing(mode)
                .build();
            let rep = sim.run_in_place().unwrap();
            assert_eq!(rep.flows, 4800, "{}", mode.name());
            assert_eq!(
                u64::from(sim.flows.next_id()),
                rep.flows,
                "every id issued once"
            );
            assert!(
                sim.flows.peak <= 256,
                "{}: {} records stored at once",
                mode.name(),
                sim.flows.peak
            );
        }
    }

    /// The flow windows of the eight kernels on the ledger's npb-suite
    /// instance (seed 1): flows issued, the most records stored at once
    /// and the longest span from the oldest unfinished flow to the
    /// newest. `cargo test --release -p orp-netsim --lib
    /// npb_flow_windows -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn npb_flow_windows_at_1024_ranks() {
        let g = orp_core::construct::random_general(1024, 195, 15, 1).unwrap();
        let net = Network::builder(&g).build();
        for bench in crate::npb::Benchmark::all() {
            let mut sim = Simulator::builder(&net)
                .programs(bench.build(1024, bench.paper_class(), 1))
                .build();
            let rep = sim.run_in_place().unwrap();
            println!(
                "{}: {} flows issued, {} records stored at most, span {}",
                bench.name(),
                rep.flows,
                sim.flows.peak,
                sim.flows.peak_span
            );
        }
    }

    #[test]
    fn resume_after_retirement_is_bit_identical_for_both_models() {
        let (net, programs) = is64();
        let dir = temp_dir("window");
        for mode in [SharingMode::ExactMaxMin, SharingMode::ApproxFair] {
            let make = || {
                Simulator::builder(&net)
                    .programs(programs.clone())
                    .sharing(mode)
            };
            let reference = make().run().unwrap();
            let path = dir.join(format!("sim-{}.orp", mode.name().replace(' ', "-")));
            for cut in [1, 2, 3].map(|q| reference.events * q / 4) {
                let mut sim = make().checkpoint(&path).build();
                sim.stop_after_events = Some(cut);
                let cut_run = sim.run_in_place();
                assert!(
                    matches!(cut_run, Err(SimError::Wedged { .. })),
                    "{cut_run:?}"
                );
                assert!(
                    sim.flows.base() > 0,
                    "{} cut@{cut}: nothing retired",
                    mode.name()
                );
                let resumed = make().checkpoint(&path).resume_from(&path).run().unwrap();
                assert_reports_identical(
                    &reference,
                    &resumed,
                    &format!("{} cut@{cut}", mode.name()),
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// Checkpoints written before the flow table kept only in-flight
    /// flows (commit 6c3bd8c): IS at 16 ranks on `random_general(16, 4,
    /// 8, 3)`, cut after half of its events, one per sharing model. The
    /// approximate model's section lists a slot for every id from 0.
    #[test]
    fn checkpoints_from_before_the_window_resume_bit_identically() {
        let g = orp_core::construct::random_general(16, 4, 8, 3).unwrap();
        let net = Network::builder(&g).build();
        let bench = crate::npb::Benchmark::Is;
        let programs = bench.build(16, bench.paper_class(), 1);
        let files: [(SharingMode, &[u8]); 2] = [
            (
                SharingMode::ExactMaxMin,
                include_bytes!("../tests/data/pre_window_is16_exact.orp"),
            ),
            (
                SharingMode::ApproxFair,
                include_bytes!("../tests/data/pre_window_is16_approx.orp"),
            ),
        ];
        let dir = temp_dir("pre-window");
        for (mode, bytes) in files {
            let path = dir.join(format!("{}.orp", mode.name().replace(' ', "-")));
            std::fs::write(&path, bytes).unwrap();
            let make = || {
                Simulator::builder(&net)
                    .programs(programs.clone())
                    .sharing(mode)
            };
            let reference = make().run().unwrap();
            let ck = SimCheckpoint::load(&path).unwrap();
            let table = FlowTable::decode(
                &mut Decoder::new(&ck.flows),
                net.num_links(),
                1 << 20,
                false,
            )
            .unwrap();
            assert!(
                table.base() > 0,
                "{}: the file's oldest live flow is id 0",
                mode.name()
            );
            let resumed = make().resume_from(&path).run().unwrap();
            assert_reports_identical(&reference, &resumed, mode.name());
            std::fs::remove_file(&path).unwrap();
        }
    }
}
