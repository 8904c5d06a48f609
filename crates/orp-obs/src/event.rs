//! The typed event taxonomy recorded into the [`crate::Journal`].
//!
//! Events are small `Copy` records — the journal is a ring buffer in the
//! hot path of the simulator, so an event must never allocate. Each
//! event renders to a dotted name (stable across PRs; sinks and tests
//! key on it) plus a list of numeric arguments.

/// Lifecycle stage of a simulated network flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStage {
    /// The flow was created by a send (route resolved, latency pending).
    Created,
    /// The flow started streaming after its activation delay.
    Activated,
    /// The flow drained and its message was delivered.
    Completed,
    /// A mid-run fault forced the flow onto a new route.
    Rerouted,
}

impl FlowStage {
    fn name(self) -> &'static str {
        match self {
            Self::Created => "flow.created",
            Self::Activated => "flow.activated",
            Self::Completed => "flow.completed",
            Self::Rerouted => "flow.rerouted",
        }
    }
}

/// Which network element a fault event killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A switch died (with every incident link and attached host).
    SwitchDown,
    /// An undirected switch–switch link died (both directions).
    LinkDown,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            Self::SwitchDown => "fault.switch_down",
            Self::LinkDown => "fault.link_down",
        }
    }
}

/// One recorded occurrence. See DESIGN.md §4d for the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Annealer phase boundary: schedule position and phase-local stats.
    Phase {
        /// Phase index (0-based).
        index: u32,
        /// Temperature at the phase boundary.
        temperature: f64,
        /// Moves proposed within the phase.
        proposed: u64,
        /// Moves accepted within the phase.
        accepted: u64,
        /// Best h-ASPL so far.
        best: f64,
    },
    /// The annealer found a new global best.
    Best {
        /// Iteration at which it was found.
        iter: u64,
        /// The new best h-ASPL.
        value: f64,
    },
    /// A simulated flow changed lifecycle stage.
    Flow {
        /// Stage entered.
        stage: FlowStage,
        /// Flow id (per-simulation sequence number).
        id: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Payload size in bytes.
        bytes: f64,
    },
    /// A network element died (static or mid-run fault).
    Fault {
        /// What kind of element died.
        kind: FaultKind,
        /// The switch (for [`FaultKind::SwitchDown`]) or one endpoint.
        a: u32,
        /// The other link endpoint (0 for switch deaths).
        b: u32,
    },
    /// Routes were rebuilt after a fault.
    Reroute {
        /// Unfinished flows that were moved onto new routes.
        flows: u64,
    },
    /// Freeform named marker with one numeric payload.
    Mark {
        /// Marker name (dotted, like all taxonomy names).
        name: &'static str,
        /// Payload value.
        value: f64,
    },
    /// Per-flow latency decomposition, emitted once when a flow
    /// completes. All times are **simulated seconds** (deterministic,
    /// unlike the wall-clock journal timestamp), and the four
    /// components sum to exactly `completed - created` — the invariant
    /// the `orp_obs::analyze` attribution engine builds on.
    FlowDone {
        /// Flow id (per-simulation sequence number).
        id: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Payload size in bytes.
        bytes: f64,
        /// Links on the final route (host up/down links included).
        hops: u32,
        /// Simulated time the flow was created (send issued).
        created: f64,
        /// Simulated time the message was delivered.
        completed: f64,
        /// First-route activation delay (software overhead + per-hop
        /// wire/switch latency).
        propagation: f64,
        /// `bytes / bandwidth` — the time the payload would need on an
        /// uncontended link.
        serialization: f64,
        /// Streaming time beyond serialization: contention on shared
        /// links under max-min fair sharing.
        queueing: f64,
        /// Non-streaming time beyond the first activation delay —
        /// reroute/re-issue penalties after mid-run faults.
        stall: f64,
    },
    /// Flow-dependency edge: `flow`'s issuing rank was last unblocked
    /// by the delivery of `parent`. The edges span the DAG that
    /// critical-path extraction walks.
    FlowDep {
        /// The dependent (later) flow.
        flow: u64,
        /// The flow whose delivery gated it.
        parent: u64,
    },
    /// One fabric (switch→switch) hop of a completed flow's route, with
    /// the modelled head-arrival (enqueue) and tail-departure (drain)
    /// times in simulated seconds.
    Hop {
        /// The flow this hop belongs to.
        flow: u64,
        /// Position of the link on the route (0-based, counting host
        /// up/down links too).
        index: u32,
        /// Source switch of the directed link.
        from: u32,
        /// Destination switch of the directed link.
        to: u32,
        /// Simulated time the message head reached this link.
        enqueue: f64,
        /// Simulated time the message tail left this link.
        drain: f64,
    },
    /// A watchdog detected stalled progress: the monitored worker made
    /// no progress (no accepted move, no processed event) within its
    /// wall-clock window. Emitted just before the run force-checkpoints
    /// and exits with a resumable error.
    Stalled {
        /// What stalled: 0 = annealer, 1 = simulator.
        source: u32,
        /// Always 0: every watchdog supervises one loop. Kept so the
        /// event's fields stay those of existing traces.
        worker: u32,
        /// The watchdog window in wall-clock seconds.
        window_secs: f64,
        /// Progress ticks the worker had reported before stalling
        /// (iterations or processed events).
        progress: u64,
    },
    /// Whole-run load rollup for one directed link, emitted at the end
    /// of a simulation for every link that carried bytes.
    LinkLoad {
        /// Directed link id.
        link: u32,
        /// Source endpoint (host for uplinks, switch otherwise).
        a: u32,
        /// Destination endpoint (host for downlinks, switch otherwise).
        b: u32,
        /// 0 = host uplink, 1 = host downlink, 2 = switch→switch.
        kind: u32,
        /// Bytes moved over the link during the run.
        bytes: f64,
        /// Utilization in parts-per-million of `bandwidth × makespan`.
        util_ppm: f64,
        /// Time-averaged number of flows sharing the link.
        avg_flows: f64,
        /// Peak number of flows sharing the link.
        peak_flows: u32,
    },
}

impl Event {
    /// The event's stable dotted name (e.g. `"flow.created"`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Phase { .. } => "anneal.phase",
            Self::Best { .. } => "anneal.best",
            Self::Flow { stage, .. } => stage.name(),
            Self::Fault { kind, .. } => kind.name(),
            Self::Reroute { .. } => "fault.reroute",
            Self::Mark { name, .. } => name,
            Self::FlowDone { .. } => "flow.done",
            Self::FlowDep { .. } => "flow.dep",
            Self::Hop { .. } => "flow.hop",
            Self::Stalled { .. } => "watchdog.stalled",
            Self::LinkLoad { .. } => "link.load",
        }
    }

    /// The event's numeric arguments as `(key, value)` pairs, in a
    /// stable order — what the sinks serialize.
    pub fn args(&self) -> Vec<(&'static str, f64)> {
        match *self {
            Self::Phase {
                index,
                temperature,
                proposed,
                accepted,
                best,
            } => vec![
                ("index", index as f64),
                ("temperature", temperature),
                ("proposed", proposed as f64),
                ("accepted", accepted as f64),
                ("best", best),
            ],
            Self::Best { iter, value } => vec![("iter", iter as f64), ("value", value)],
            Self::Flow {
                id,
                src,
                dst,
                bytes,
                ..
            } => vec![
                ("id", id as f64),
                ("src", src as f64),
                ("dst", dst as f64),
                ("bytes", bytes),
            ],
            Self::Fault { a, b, .. } => vec![("a", a as f64), ("b", b as f64)],
            Self::Reroute { flows } => vec![("flows", flows as f64)],
            Self::Mark { value, .. } => vec![("value", value)],
            Self::FlowDone {
                id,
                src,
                dst,
                bytes,
                hops,
                created,
                completed,
                propagation,
                serialization,
                queueing,
                stall,
            } => vec![
                ("id", id as f64),
                ("src", src as f64),
                ("dst", dst as f64),
                ("bytes", bytes),
                ("hops", hops as f64),
                ("created", created),
                ("completed", completed),
                ("propagation", propagation),
                ("serialization", serialization),
                ("queueing", queueing),
                ("stall", stall),
            ],
            Self::FlowDep { flow, parent } => {
                vec![("flow", flow as f64), ("parent", parent as f64)]
            }
            Self::Hop {
                flow,
                index,
                from,
                to,
                enqueue,
                drain,
            } => vec![
                ("flow", flow as f64),
                ("index", index as f64),
                ("from", from as f64),
                ("to", to as f64),
                ("enqueue", enqueue),
                ("drain", drain),
            ],
            Self::Stalled {
                source,
                worker,
                window_secs,
                progress,
            } => vec![
                ("source", source as f64),
                ("worker", worker as f64),
                ("window_secs", window_secs),
                ("progress", progress as f64),
            ],
            Self::LinkLoad {
                link,
                a,
                b,
                kind,
                bytes,
                util_ppm,
                avg_flows,
                peak_flows,
            } => vec![
                ("link", link as f64),
                ("a", a as f64),
                ("b", b as f64),
                ("kind", kind as f64),
                ("bytes", bytes),
                ("util_ppm", util_ppm),
                ("avg_flows", avg_flows),
                ("peak_flows", peak_flows as f64),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_dotted_and_stable() {
        let e = Event::Flow {
            stage: FlowStage::Created,
            id: 1,
            src: 0,
            dst: 2,
            bytes: 10.0,
        };
        assert_eq!(e.name(), "flow.created");
        assert_eq!(
            Event::Fault {
                kind: FaultKind::LinkDown,
                a: 1,
                b: 2
            }
            .name(),
            "fault.link_down"
        );
        assert_eq!(
            Event::Mark {
                name: "custom.thing",
                value: 0.0
            }
            .name(),
            "custom.thing"
        );
    }

    #[test]
    fn analysis_event_names_and_args_are_stable() {
        let done = Event::FlowDone {
            id: 7,
            src: 1,
            dst: 2,
            bytes: 100.0,
            hops: 4,
            created: 0.5,
            completed: 1.5,
            propagation: 0.1,
            serialization: 0.2,
            queueing: 0.3,
            stall: 0.4,
        };
        assert_eq!(done.name(), "flow.done");
        let args = done.args();
        assert_eq!(args.len(), 11);
        assert_eq!(args[0], ("id", 7.0));
        assert_eq!(args[10], ("stall", 0.4));
        assert_eq!(Event::FlowDep { flow: 3, parent: 1 }.name(), "flow.dep");
        assert_eq!(
            Event::Hop {
                flow: 3,
                index: 1,
                from: 0,
                to: 5,
                enqueue: 0.0,
                drain: 1.0
            }
            .name(),
            "flow.hop"
        );
        assert_eq!(
            Event::LinkLoad {
                link: 9,
                a: 0,
                b: 1,
                kind: 2,
                bytes: 5.0,
                util_ppm: 100.0,
                avg_flows: 1.5,
                peak_flows: 3
            }
            .name(),
            "link.load"
        );
    }

    #[test]
    fn args_carry_the_payload() {
        let e = Event::Best {
            iter: 42,
            value: 3.5,
        };
        assert_eq!(e.args(), vec![("iter", 42.0), ("value", 3.5)]);
    }
}
