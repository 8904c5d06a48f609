//! Approximate fair sharing with per-link lazy completion times.
//!
//! The exact model refills every flow group a change touches (whole
//! connected components, often most of the network under all-to-all
//! load); this model touches **only the links the change crosses**,
//! following the `FairThroughputSharingModel` idiom: each link serves
//! the flows queued on it processor-sharing style in a *virtual-time*
//! domain, where a flow's finish tag is fixed at insertion and
//! population changes only rescale the clock rate — so a change is
//! O(route length × log flows): settle each touched link's virtual
//! clock, cancel its pending drain event, and reschedule from the
//! (unchanged) heap head.
//!
//! Approximation: a flow queues on its single most-contended link at
//! insertion time (its bottleneck); other links on the route count the
//! flow for contention but don't throttle it. Accuracy bound (asserted
//! by the `sharing_models` proptest): with `α` the peak concurrent-flow
//! multiplicity of any link during the run, every flow's instantaneous
//! rate in *both* models lies in `[bw/α, bw]` — exact max-min because
//! progressive filling's first (global-bottleneck) share is already
//! `≥ bw/α` and shares only grow, approximate because a link with `c ≤
//! α` flows serves each at `bw/c`. Hence per-flow streaming times agree
//! within a factor of `α` either way.

use super::{FlowTable, LinkStats, ThroughputSharingModel};
use crate::context::SimContext;
use crate::event::EventId;
use crate::network::LinkId;
use orp_core::ckpt::{CkptError, Decoder, Encoder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual-time heap key (f64 wrapped; never NaN).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
struct VKey(f64);
impl Eq for VKey {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for VKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other)
            .expect("virtual times are never NaN")
    }
}

/// Per-link processor-sharing queue in the virtual-work domain.
#[derive(Debug, Default)]
struct FairLink {
    /// Flows whose route crosses this link (throttled here or not).
    count: u32,
    /// Cumulative virtual work served per flow (bytes); advances at
    /// `bw/count` while any flow crosses the link.
    vtime: f64,
    /// Time of the last virtual-clock settlement.
    last: f64,
    /// Flows bottlenecked on this link, keyed by virtual finish tag.
    /// Entries are tombstoned lazily via slot generation checks.
    heap: BinaryHeap<HeapEntry>,
    /// Pending drain event for the heap head, if any.
    event: Option<EventId>,
    /// Tombstoned entries still in `heap` (flows torn down by
    /// [`ApproxFairSharing::remove`] whose tag has not surfaced yet);
    /// once they outnumber live entries the heap is compacted.
    dead: u32,
}

/// Per-flow queueing state, kept for the flow table's window (reserved
/// up to the table's capacity, retired with its finished prefix).
///
/// The bytes a queued flow had left when it queued are its record's
/// `remaining`: nothing writes that field between [`insert`] and the
/// flow's removal or completion under this model.
///
/// [`insert`]: ThroughputSharingModel::insert
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Link the flow is queued (throttled) on; [`NO_LINK`] once the
    /// flow finished or was torn down (its heap entries are stale).
    bottleneck: LinkId,
    /// Insert generation; heap entries from older generations are dead.
    gen: u32,
    /// Virtual finish tag on the bottleneck link.
    v_finish: f64,
}

/// A per-link heap entry: virtual finish tag, flow id, insert generation.
type HeapEntry = Reverse<(VKey, u32, u32)>;

const _: () = assert!(size_of::<Slot>() == 16 && size_of::<HeapEntry>() == 16);

const NO_LINK: LinkId = LinkId::MAX;

impl Slot {
    fn queued(&self) -> bool {
        self.bottleneck != NO_LINK
    }
}

/// Tag in front of the checkpointed slot window (older checkpoints
/// list every slot from id 0, under a count that cannot reach it).
const SLOT_WINDOW: u64 = u64::MAX;

/// True if heap entry `(fid, gen)` still refers to a queued flow, given
/// the slots of ids `base..`; a retired id reads as removed.
fn is_live(slots: &[Slot], base: u32, fid: u32, gen: u32) -> bool {
    slots
        .get(fid.wrapping_sub(base) as usize)
        .is_some_and(|s| s.queued() && s.gen == gen)
}

impl Default for Slot {
    fn default() -> Self {
        Self {
            bottleneck: NO_LINK,
            gen: 0,
            v_finish: 0.0,
        }
    }
}

/// The approximate per-link fair-sharing model.
#[derive(Debug)]
pub struct ApproxFairSharing {
    bw: f64,
    links: Vec<FairLink>,
    /// Slot of flow `slot_base + i` at `i`; ids below `slot_base` are
    /// retired and read as removed.
    slots: Vec<Slot>,
    slot_base: u32,
    n_active: usize,
    /// Scratch copy of the route being mutated (avoids aliasing flows).
    scratch: Vec<LinkId>,
    /// Tombstoned heap entries reclaimed by per-link compaction.
    compacted: u64,
}

/// Don't compact per-link heaps smaller than this.
const LINK_COMPACT_MIN: usize = 32;

impl ApproxFairSharing {
    /// Model over `num_links` directed links of `bandwidth` bytes/s each.
    pub fn new(num_links: usize, bandwidth: f64) -> Self {
        let mut links = Vec::with_capacity(num_links);
        links.resize_with(num_links, FairLink::default);
        Self {
            bw: bandwidth,
            links,
            slots: Vec::new(),
            slot_base: 0,
            n_active: 0,
            scratch: Vec::new(),
            compacted: 0,
        }
    }

    /// Advances link `l`'s virtual clock to wall time `t`.
    fn settle_link(&mut self, l: LinkId, t: f64, tel: &mut LinkStats) {
        let count = self.links[l as usize].count;
        let last = self.links[l as usize].last;
        if count > 0 && t > last {
            self.links[l as usize].vtime += (t - last) * (self.bw / count as f64);
            if tel.tracking() {
                tel.link_busy[l as usize] += (t - last) * count as f64;
            }
        }
        self.links[l as usize].last = t;
    }

    /// Index of flow `fid`'s slot (the flow must be in the window).
    fn slot_ix(&self, fid: u32) -> usize {
        (fid - self.slot_base) as usize
    }

    /// True if a heap entry no longer refers to a queued flow.
    fn is_tombstone(&self, fid: u32, gen: u32) -> bool {
        !is_live(&self.slots, self.slot_base, fid, gen)
    }

    /// Rebuilds link `l`'s heap keeping only live entries — O(live) —
    /// once tombstones outnumber them, so fault-heavy teardown churn
    /// can't grow a link heap without bound.
    fn maybe_compact_link(&mut self, l: LinkId) {
        let lk = &mut self.links[l as usize];
        if lk.heap.len() >= LINK_COMPACT_MIN && (lk.dead as usize) * 2 > lk.heap.len() {
            let before = lk.heap.len();
            let mut entries = std::mem::take(&mut lk.heap).into_vec();
            let (slots, base) = (&self.slots, self.slot_base);
            entries.retain(|&Reverse((_, fid, gen))| is_live(slots, base, fid, gen));
            self.compacted += (before - entries.len()) as u64;
            let lk = &mut self.links[l as usize];
            lk.heap = BinaryHeap::from(entries);
            lk.dead = 0;
        }
    }

    /// Re-arms link `l`'s drain event from its current head: cancel the
    /// stale event, drop tombstones, schedule at the head's finish time.
    fn reschedule(&mut self, l: LinkId, t: f64, ctx: &mut SimContext<'_>) {
        if let Some(id) = self.links[l as usize].event.take() {
            ctx.cancel(id);
        }
        self.maybe_compact_link(l);
        loop {
            let Some(&Reverse((VKey(v), fid, gen))) = self.links[l as usize].heap.peek() else {
                return;
            };
            if self.is_tombstone(fid, gen) {
                let lk = &mut self.links[l as usize];
                lk.heap.pop();
                lk.dead = lk.dead.saturating_sub(1);
                continue;
            }
            let lk = &self.links[l as usize];
            debug_assert!(lk.count > 0, "queued flow must be counted");
            let dt = (v - lk.vtime).max(0.0) * lk.count as f64 / self.bw;
            self.links[l as usize].event = Some(ctx.schedule_model_event(t + dt, l));
            return;
        }
    }

    /// Completes flow `fid` at time `t`: zeroes it, charges telemetry,
    /// and detaches it from every link on its route (heap entries stay
    /// behind as tombstones). Caller reschedules the touched links.
    fn complete_flow(&mut self, fid: u32, t: f64, flows: &mut FlowTable, tel: &mut LinkStats) {
        let i = self.slot_ix(fid);
        self.slots[i].bottleneck = NO_LINK;
        let f = &mut flows[fid];
        let served = f.remaining;
        f.remaining = 0.0;
        f.rate = 0.0;
        if tel.tracking() {
            for &l in f.route.iter() {
                tel.link_bytes[l as usize] += served;
            }
            let a = flows.aux_mut(fid);
            a.active_time += t - a.activated;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&flows[fid].route);
        for i in 0..self.scratch.len() {
            let l = self.scratch[i];
            self.settle_link(l, t, tel);
            self.links[l as usize].count -= 1;
        }
        self.n_active -= 1;
    }

    /// Virtual-time comparison slack: generous in absolute terms (a
    /// micro-byte) and relative terms; an undershoot only costs one
    /// extra tiny reschedule, an overshoot completes a flow marginally
    /// early in virtual work — both within the model's approximation.
    fn eps(v: f64) -> f64 {
        1e-6 + 1e-9 * v.abs()
    }
}

impl ThroughputSharingModel for ApproxFairSharing {
    fn insert(
        &mut self,
        fid: u32,
        flows: &mut FlowTable,
        ctx: &mut SimContext<'_>,
        tel: &mut LinkStats,
    ) {
        let t = ctx.now();
        let i = self.slot_ix(fid);
        if self.slots.len() <= i {
            // the slots mirror the flow table's window: one reservation
            // there sizes both
            let cap = flows.capacity().max(i + 1);
            self.slots.reserve_exact(cap - self.slots.len());
            self.slots.resize(i + 1, Slot::default());
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&flows[fid].route);
        // settle every crossed link at the old population, then join
        for i in 0..self.scratch.len() {
            let l = self.scratch[i];
            self.settle_link(l, t, tel);
            self.links[l as usize].count += 1;
        }
        if tel.rec.is_enabled() {
            for &l in &self.scratch {
                let c = self.links[l as usize].count;
                tel.rec.record("sim.queue_depth", c as u64);
                if c > tel.link_peak[l as usize] {
                    tel.link_peak[l as usize] = c;
                }
            }
        }
        // queue on the most contended link (first wins ties)
        let mut b = self.scratch[0];
        for &l in &self.scratch[1..] {
            if self.links[l as usize].count > self.links[b as usize].count {
                b = l;
            }
        }
        let s = &mut self.slots[i];
        s.bottleneck = b;
        s.v_finish = self.links[b as usize].vtime + flows[fid].remaining;
        s.gen = s.gen.wrapping_add(1);
        let tag = (VKey(s.v_finish), fid, s.gen);
        self.links[b as usize].heap.push(Reverse(tag));
        flows[fid].rate = self.bw / self.links[b as usize].count as f64;
        if tel.tracking() {
            flows.aux_mut(fid).activated = t;
        }
        self.n_active += 1;
        // Lazy re-arm: joining only rescales the crossed links' clock
        // rates, so every pending drain event now fires *early* — it
        // self-corrects in `on_event` (the head tag is not reached, and
        // the fall-through reschedule recomputes the drain time from
        // the settled clock). Cancelling and rescheduling each crossed
        // link here — the old behavior — cost two heap operations per
        // route hop per insert and dominated the event budget (the
        // 120k-flow bench cancelled more events than it delivered).
        // Only two cases need an event *now*, both on the bottleneck:
        // its heap was idle (no event to correct), or the new tag went
        // straight to the head (the pending event targets a later tag
        // and would fire late for this one).
        let eager = {
            let lk = &self.links[b as usize];
            lk.event.is_none() || lk.heap.peek() == Some(&Reverse(tag))
        };
        if eager {
            self.reschedule(b, t, ctx);
        }
    }

    fn remove(
        &mut self,
        fid: u32,
        flows: &mut FlowTable,
        ctx: &mut SimContext<'_>,
        tel: &mut LinkStats,
    ) {
        let t = ctx.now();
        let i = self.slot_ix(fid);
        debug_assert!(self.slots[i].queued(), "flow is queued");
        self.scratch.clear();
        self.scratch.extend_from_slice(&flows[fid].route);
        for i in 0..self.scratch.len() {
            let l = self.scratch[i];
            self.settle_link(l, t, tel);
        }
        // progress = virtual work served on the bottleneck since queueing
        let s = self.slots[i];
        let queued_rem = flows[fid].remaining;
        let rem_now = (s.v_finish - self.links[s.bottleneck as usize].vtime)
            .max(0.0)
            .min(queued_rem);
        let served = queued_rem - rem_now;
        self.slots[i].bottleneck = NO_LINK;
        // the flow's tag stays behind in the bottleneck heap as a
        // tombstone until it surfaces or compaction reclaims it
        self.links[s.bottleneck as usize].dead += 1;
        let f = &mut flows[fid];
        f.remaining = rem_now;
        f.rate = 0.0;
        if tel.tracking() {
            for &l in f.route.iter() {
                tel.link_bytes[l as usize] += served;
            }
            let a = flows.aux_mut(fid);
            a.active_time += t - a.activated;
        }
        for i in 0..self.scratch.len() {
            let l = self.scratch[i];
            self.links[l as usize].count -= 1;
        }
        self.n_active -= 1;
        for i in 0..self.scratch.len() {
            let l = self.scratch[i];
            self.reschedule(l, t, ctx);
        }
    }

    fn settle(&mut self, _flows: &mut FlowTable, _tel: &mut LinkStats) {}

    fn settle_tail(&mut self, _flows: &mut FlowTable, _tel: &mut LinkStats) {}

    fn next_completion_in(&self, _flows: &FlowTable) -> f64 {
        // completions arrive as scheduled drain events, never intrinsically
        f64::INFINITY
    }

    fn advance(&mut self, _flows: &mut FlowTable, _dt: f64, _tel: &mut LinkStats) {
        // per-link virtual clocks settle lazily when a change touches them
    }

    fn collect_finished(&mut self, _flows: &mut FlowTable, _out: &mut Vec<u32>) {}

    fn on_event(
        &mut self,
        token: u32,
        flows: &mut FlowTable,
        ctx: &mut SimContext<'_>,
        tel: &mut LinkStats,
        finished: &mut Vec<u32>,
    ) {
        let l = token as LinkId;
        let t = ctx.now();
        self.links[l as usize].event = None; // it just fired
        self.settle_link(l, t, tel);
        // drain every head whose finish tag the virtual clock has reached
        let mark = finished.len();
        while let Some(&Reverse((VKey(v), fid, gen))) = self.links[l as usize].heap.peek() {
            if self.is_tombstone(fid, gen) {
                let lk = &mut self.links[l as usize];
                lk.heap.pop();
                lk.dead = lk.dead.saturating_sub(1);
                continue;
            }
            let lk = &self.links[l as usize];
            // a head whose drain time the clock cannot resolve (never
            // below ~2 s of simulated time at 5 GB/s, where `eps` is the
            // coarser slack) is due now: waiting would re-fire this event
            // at `t` forever
            if v <= lk.vtime + Self::eps(v) || t + (v - lk.vtime) * lk.count as f64 / self.bw <= t {
                self.links[l as usize].heap.pop();
                self.complete_flow(fid, t, flows, tel);
                finished.push(fid);
            } else {
                break;
            }
        }
        // re-arm this link and every link the drained flows released
        self.reschedule(l, t, ctx);
        for &fid in &finished[mark..] {
            // `reschedule` never touches `flows`, so the route can be
            // read in place — no per-completion copy.
            for &l2 in flows[fid].route.iter() {
                if l2 != l {
                    self.reschedule(l2, t, ctx);
                }
            }
        }
    }

    fn retire(&mut self, base: u32) {
        let k = ((base - self.slot_base) as usize).min(self.slots.len());
        debug_assert!(self.slots[..k].iter().all(|s| !s.queued()));
        self.slots.drain(..k);
        self.slot_base = base;
    }

    fn active_count(&self) -> usize {
        self.n_active
    }

    fn encode_state(&self, enc: &mut Encoder, flows: &FlowTable) {
        enc.put_f64(self.bw);
        enc.put_u64(self.links.len() as u64);
        for l in &self.links {
            enc.put_u32(l.count);
            enc.put_f64(l.vtime);
            enc.put_f64(l.last);
            // Heap entries (including tombstones — they are skipped
            // lazily, so preserving the multiset preserves behavior),
            // sorted in pop order so identical states byte-match and
            // the rebuilt heap pops identically.
            let mut entries: Vec<(VKey, u32, u32)> = l.heap.iter().map(|&Reverse(e)| e).collect();
            entries.sort_unstable();
            enc.put_u64(entries.len() as u64);
            for (VKey(v), fid, gen) in entries {
                enc.put_f64(v);
                enc.put_u32(fid);
                enc.put_u32(gen);
            }
            match l.event {
                Some(id) => {
                    enc.put_bool(true);
                    enc.put_u64(id.0);
                }
                None => enc.put_bool(false),
            }
        }
        // slots of flows older than the oldest unfinished one are all
        // removed, and a retired id reads as removed: the window from
        // there on is the whole state. A slot's queued-bytes field is
        // its flow's bytes left, which nothing writes while it is queued
        let start = flows.first_live();
        let from = ((start - self.slot_base) as usize).min(self.slots.len());
        enc.put_u64(SLOT_WINDOW);
        enc.put_u64(u64::from(start));
        enc.put_u64((self.slots.len() - from) as u64);
        for (fid, s) in (start..).zip(&self.slots[from..]) {
            enc.put_u32(s.bottleneck);
            enc.put_f64(s.v_finish);
            enc.put_f64(flows[fid].remaining);
            enc.put_u32(s.gen);
            enc.put_bool(!s.queued());
        }
        enc.put_u64(self.n_active as u64);
        enc.put_u64(self.compacted);
        // scratch is rebuilt on every use and carries no state; per-link
        // `dead` counts are recomputed from the heaps at decode
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>, flows: &FlowTable) -> Result<(), CkptError> {
        let bad = |what: &str| CkptError::BadSection(format!("approx-fair model: {what}"));
        let bw = dec.get_f64()?;
        if bw.to_bits() != self.bw.to_bits() {
            return Err(bad("bandwidth does not match"));
        }
        let nl = dec.get_u64()? as usize;
        if nl != self.links.len() {
            return Err(bad("link count does not match"));
        }
        let mut links = Vec::with_capacity(nl);
        for _ in 0..nl {
            let count = dec.get_u32()?;
            let vtime = dec.get_f64()?;
            let last = dec.get_f64()?;
            if !(vtime.is_finite() && last.is_finite()) {
                return Err(bad("non-finite link clock"));
            }
            let ne = dec.get_len(16)?;
            let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(ne);
            for _ in 0..ne {
                let v = dec.get_f64()?;
                if v.is_nan() {
                    return Err(bad("NaN virtual finish tag"));
                }
                let fid = dec.get_u32()?;
                let gen = dec.get_u32()?;
                if fid >= flows.next_id() {
                    return Err(bad("heap entry names a flow never issued"));
                }
                heap.push(Reverse((VKey(v), fid, gen)));
            }
            let event = if dec.get_bool()? {
                Some(EventId(dec.get_u64()?))
            } else {
                None
            };
            links.push(FairLink {
                count,
                vtime,
                last,
                heap,
                event,
                dead: 0,
            });
        }
        // the slot window, or (older checkpoints) every slot from id 0;
        // slots below the flow table's window must all be removed
        let tag = dec.get_u64()?;
        let (start, ns) = if tag == SLOT_WINDOW {
            (dec.get_u64()?, dec.get_u64()?)
        } else {
            (0, tag)
        };
        let base = flows.base();
        if start > u64::from(base)
            || start
                .checked_add(ns)
                .is_none_or(|end| end > u64::from(flows.next_id()))
        {
            return Err(bad("slot window outside the flow table"));
        }
        let mut slots = Vec::with_capacity((start + ns).saturating_sub(u64::from(base)) as usize);
        for id in start..start + ns {
            let bottleneck = dec.get_u32()?;
            let v_finish = dec.get_f64()?;
            let queued_rem = dec.get_f64()?;
            let gen = dec.get_u32()?;
            let removed = dec.get_bool()?;
            if !removed {
                if bottleneck as usize >= nl {
                    return Err(bad("slot bottleneck out of range"));
                }
                if id < u64::from(base) {
                    return Err(bad("queued slot below the oldest unfinished flow"));
                }
                if flows[id as u32].remaining.to_bits() != queued_rem.to_bits() {
                    return Err(bad("queued bytes disagree with the flow's bytes left"));
                }
            }
            if id >= u64::from(base) {
                // a removed slot's queued bytes and bottleneck are stale
                slots.push(Slot {
                    bottleneck: if removed { NO_LINK } else { bottleneck },
                    gen,
                    v_finish,
                });
            }
        }
        let n_active = dec.get_u64()?;
        let compacted = dec.get_u64()?;
        // The state must be one the model can reach: exactly the
        // streaming flows are queued, each on a link of its route with
        // one live heap entry there, and every link counts the streaming
        // flows crossing it. Anything else would unbalance the counts
        // the model decrements.
        let slot = |fid: u32| slots.get(fid.wrapping_sub(base) as usize);
        let mut counts = vec![0u32; nl];
        let mut streaming = 0u64;
        for (fid, f) in flows.iter() {
            match (f.active, slot(fid).filter(|s| s.queued())) {
                (false, None) => continue,
                (true, Some(s)) if f.route.contains(&s.bottleneck) => {}
                _ => return Err(bad("queued slots disagree with the streaming flows")),
            }
            streaming += 1;
            for &l in f.route.iter() {
                counts[l as usize] += 1;
            }
        }
        if n_active != streaming || links.iter().zip(&counts).any(|(l, &c)| l.count != c) {
            return Err(bad("flow counts disagree with the streaming flows"));
        }
        let mut entered = vec![false; slots.len()];
        for (l, link) in links.iter_mut().enumerate() {
            for &Reverse((_, fid, gen)) in link.heap.iter() {
                let Some(s) = slot(fid) else {
                    link.dead += 1; // a retired flow's tombstone
                    continue;
                };
                if gen > s.gen {
                    return Err(bad("heap entry ahead of its flow's slot"));
                }
                if !s.queued() || gen != s.gen {
                    link.dead += 1;
                    continue;
                }
                let seen = &mut entered[(fid - base) as usize];
                if s.bottleneck as usize != l || *seen {
                    return Err(bad("queued flow without exactly one live heap entry"));
                }
                *seen = true;
            }
        }
        if entered.iter().filter(|&&e| e).count() as u64 != streaming {
            return Err(bad("queued flow without exactly one live heap entry"));
        }
        self.links = links;
        self.slots = slots;
        self.slot_base = base;
        self.n_active = n_active as usize;
        self.compacted = compacted;
        Ok(())
    }

    fn compacted(&self) -> u64 {
        self.compacted
    }
}
