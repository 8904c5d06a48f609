//! Slab-backed event queue with O(log n) scheduling, O(1) cancellation,
//! and tombstone compaction.
//!
//! The queue is the single source of time in the simulation core: every
//! future state change is an entry keyed by `(time, seq)` where `seq` is
//! the schedule-order sequence number, so delivery is a deterministic
//! total order even among simultaneous events.
//!
//! Payloads live in a **generational slab arena**: each entry occupies a
//! slot addressed by index (no hashing on the hot path), and an
//! [`EventId`] packs `(slot, generation)` so a handle stays O(1) to
//! check and can never resurrect a recycled slot — freeing a slot bumps
//! its generation, invalidating every outstanding handle to the old
//! occupant.
//!
//! Cancellation uses tombstones: [`EventQueue::cancel`] frees the slab
//! slot and leaves the heap key behind; [`pop`] and [`peek_time`] skip
//! keys whose slot no longer holds the matching sequence number. This
//! makes cancel O(1) — essential for the approximate sharing model,
//! which cancels and reschedules a link's completion event on population
//! changes — at the cost of dead heap keys. Those are reclaimed two
//! ways: lazily as they surface, and by **compaction** — whenever dead
//! keys outnumber live ones the heap is rebuilt in O(live), so memory
//! stays bounded by the live event count even under cancel-heavy
//! workloads (see [`compacted`]).
//!
//! [`pop`]: EventQueue::pop
//! [`peek_time`]: EventQueue::peek_time
//! [`compacted`]: EventQueue::compacted

use crate::event::{EventId, TimeKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Free-list terminator / "no slot" marker.
const NIL: u32 = u32::MAX;

/// Don't bother compacting heaps smaller than this — the rebuild has a
/// fixed cost and tiny queues reclaim themselves as keys surface.
const COMPACT_MIN: usize = 64;

/// One slab slot: either occupied by a scheduled event or on the free
/// list. `seq` doubles as the validity check for heap keys (globally
/// unique per schedule), `gen` as the validity check for [`EventId`]
/// handles (bumped every time the slot is freed).
#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    next_free: u32,
    seq: u64,
    t: f64,
    payload: Option<T>,
}

/// Time-ordered event queue over payloads of type `T`.
///
/// Tracks its own telemetry — events scheduled, processed, cancelled,
/// compacted, and the peak number of live (uncancelled, undelivered)
/// events — so the simulator can attribute its overhead through
/// `orp-obs` without the queue knowing anything about recorders.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Min-heap of `(time, seq, slot)`; `seq` decides order among
    /// simultaneous events, `slot` addresses the payload (never
    /// compared — seq is unique).
    heap: BinaryHeap<Reverse<(TimeKey, u64, u32)>>,
    slab: Vec<Slot<T>>,
    free_head: u32,
    live: usize,
    next_seq: u64,
    scheduled: u64,
    processed: u64,
    cancelled: u64,
    compacted: u64,
    compactions: u64,
    peak_depth: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free_head: NIL,
            live: 0,
            next_seq: 0,
            scheduled: 0,
            processed: 0,
            cancelled: 0,
            compacted: 0,
            compactions: 0,
            peak_depth: 0,
        }
    }

    /// Takes a slot off the free list (or grows the slab) and fills it.
    fn alloc(&mut self, t: f64, seq: u64, payload: T) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slab[slot as usize];
            self.free_head = s.next_free;
            s.seq = seq;
            s.t = t;
            s.payload = Some(payload);
            slot
        } else {
            let slot = self.slab.len() as u32;
            assert!(slot != NIL, "event slab full");
            self.slab.push(Slot {
                gen: 0,
                next_free: NIL,
                seq,
                t,
                payload: Some(payload),
            });
            slot
        }
    }

    /// Returns a freed slot to the free list, invalidating outstanding
    /// handles to its previous occupant.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slab[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.next_free = self.free_head;
        self.free_head = slot;
    }

    fn note_depth(&mut self) {
        if self.live > self.peak_depth {
            self.peak_depth = self.live;
        }
    }

    /// Rebuilds the heap keeping only keys whose slot still holds the
    /// matching occupant — O(live) — once dead keys outnumber live ones.
    fn maybe_compact(&mut self) {
        if self.heap.len() >= COMPACT_MIN && self.heap.len() > 2 * self.live {
            let before = self.heap.len();
            let mut keys = std::mem::take(&mut self.heap).into_vec();
            let slab = &self.slab;
            keys.retain(|&Reverse((_, seq, slot))| {
                let s = &slab[slot as usize];
                s.payload.is_some() && s.seq == seq
            });
            self.compacted += (before - keys.len()) as u64;
            self.compactions += 1;
            self.heap = BinaryHeap::from(keys);
        }
    }

    /// Schedules `payload` to fire at absolute time `t` and returns a
    /// handle that can cancel it. Events at equal times fire in
    /// schedule order.
    pub fn schedule(&mut self, t: f64, payload: T) -> EventId {
        debug_assert!(t.is_finite(), "scheduled event at non-finite time {t}");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc(t, seq, payload);
        self.heap.push(Reverse((TimeKey(t), seq, slot)));
        self.scheduled += 1;
        self.live += 1;
        self.note_depth();
        self.maybe_compact();
        EventId::pack(slot, self.slab[slot as usize].gen)
    }

    /// Cancels a scheduled event. Returns the payload if the event was
    /// still pending, `None` if it already fired or was already
    /// cancelled — cancellation is idempotent and never delivers stale
    /// events (a recycled slot carries a new generation, so a stale
    /// handle can never touch the new occupant).
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        let (slot, gen) = (id.slot(), id.generation());
        let s = self.slab.get_mut(slot as usize)?;
        if s.gen != gen || s.payload.is_none() {
            return None;
        }
        let p = s.payload.take();
        self.release(slot);
        self.cancelled += 1;
        self.live -= 1;
        self.maybe_compact();
        p
    }

    /// Time of the next live event, skipping tombstones of cancelled
    /// events (which are dropped as they surface).
    pub fn peek_time(&mut self) -> Option<f64> {
        self.peek_key().map(|(t, _)| t)
    }

    /// `(time, seq)` key of the next live event, skipping tombstones —
    /// what an external event source (the engine's injection cursor)
    /// merges its own `(time, seq)` keys against.
    pub(crate) fn peek_key(&mut self) -> Option<(f64, u64)> {
        while let Some(&Reverse((TimeKey(t), seq, slot))) = self.heap.peek() {
            let s = &self.slab[slot as usize];
            if s.seq == seq && s.payload.is_some() {
                return Some((t, seq));
            }
            self.heap.pop();
        }
        None
    }

    /// Pops the next live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        while let Some(Reverse((TimeKey(t), seq, slot))) = self.heap.pop() {
            let s = &mut self.slab[slot as usize];
            if s.seq == seq {
                if let Some(p) = s.payload.take() {
                    self.release(slot);
                    self.processed += 1;
                    self.live -= 1;
                    return Some((t, p));
                }
            }
        }
        None
    }

    /// Pops the next live event only if it fires at or before
    /// `deadline`; otherwise leaves the queue untouched.
    pub fn pop_due(&mut self, deadline: f64) -> Option<(f64, T)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of live (scheduled, not yet fired or cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dead heap keys currently awaiting reclamation (cancelled or
    /// rescheduled entries whose key has not surfaced or been compacted
    /// away). `tombstones / (len + tombstones)` is the queue's tombstone
    /// ratio; compaction keeps it below ½ for heaps past the compaction
    /// threshold.
    pub fn tombstones(&self) -> usize {
        self.heap.len().saturating_sub(self.live)
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events delivered over the queue's lifetime.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Total events cancelled before delivery.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Dead heap keys reclaimed by compaction rebuilds (not counting
    /// tombstones that surfaced naturally at the heap top).
    pub fn compacted(&self) -> u64 {
        self.compacted
    }

    /// Number of compaction rebuilds performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Peak number of live events ever pending at once.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Reserves a contiguous block of `n` sequence numbers for events
    /// delivered from outside the heap (the engine's open-loop
    /// injection cursor) and counts them as scheduled. Returns the
    /// first reserved number: reservation `base + i` orders against
    /// queued events exactly as if the `i`-th reserved event had been
    /// scheduled by this call.
    pub(crate) fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        self.scheduled += n;
        base
    }

    /// Counts one externally-delivered event (a reserved sequence
    /// number released by the engine's injection cursor) as processed.
    pub(crate) fn note_external_processed(&mut self) {
        self.processed += 1;
    }

    /// Sequence number the next scheduled event will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Snapshot of every live (scheduled, not fired or cancelled) event
    /// as `(time, seq, slot, gen, payload)`, sorted in delivery order.
    /// Tombstoned heap keys are dropped — they are unobservable — but
    /// slot and generation are preserved so [`EventId`] handles held
    /// elsewhere (e.g. by the approximate sharing model) survive a
    /// checkpoint round-trip.
    pub(crate) fn live_entries(&self) -> Vec<(f64, u64, u32, u32, &T)> {
        let mut out: Vec<(f64, u64, u32, u32, &T)> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.payload.as_ref().map(|p| (s.t, s.seq, i as u32, s.gen, p)))
            .collect();
        out.sort_unstable_by_key(|a| (TimeKey(a.0), a.1));
        out
    }

    /// Rebuilds a queue from a [`live_entries`](Self::live_entries)
    /// snapshot plus the lifetime counters, placing each event at its
    /// original slot with its original generation and sequence number —
    /// so [`EventId`] handles held elsewhere stay valid and the exact
    /// delivery order of the snapshotted queue is preserved. Slots that
    /// held tombstones rejoin the free list (their future handle values
    /// may differ from the uninterrupted run's, which is unobservable:
    /// delivery order is decided by `seq` and reports carry no ids).
    ///
    /// Callers must have validated that no two entries share a slot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        entries: Vec<(f64, u64, u32, u32, T)>,
        next_seq: u64,
        scheduled: u64,
        processed: u64,
        cancelled: u64,
        compacted: u64,
        compactions: u64,
        peak_depth: usize,
    ) -> Self {
        let cap = entries.iter().map(|e| e.2 as usize + 1).max().unwrap_or(0);
        let mut slab: Vec<Slot<T>> = Vec::with_capacity(cap);
        for _ in 0..cap {
            slab.push(Slot {
                gen: 0,
                next_free: NIL,
                seq: 0,
                t: 0.0,
                payload: None,
            });
        }
        let live = entries.len();
        let mut keys = Vec::with_capacity(live);
        for (t, seq, slot, gen, payload) in entries {
            let s = &mut slab[slot as usize];
            debug_assert!(s.payload.is_none(), "duplicate slot in snapshot");
            s.t = t;
            s.seq = seq;
            s.gen = gen;
            s.payload = Some(payload);
            keys.push(Reverse((TimeKey(t), seq, slot)));
        }
        // free-list over the unoccupied slots, lowest index first
        let mut free_head = NIL;
        for i in (0..cap).rev() {
            if slab[i].payload.is_none() {
                slab[i].next_free = free_head;
                free_head = i as u32;
            }
        }
        Self {
            heap: BinaryHeap::from(keys),
            slab,
            free_head,
            live,
            next_seq,
            scheduled,
            processed,
            cancelled,
            compacted,
            compactions,
            peak_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_deliver_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(1.0, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn cancelled_events_never_deliver() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(a), None, "cancel is idempotent");
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.cancelled(), 1);
        assert_eq!(q.processed(), 1);
    }

    #[test]
    fn recycled_slot_never_resurrects_a_cancelled_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, "a");
        assert_eq!(q.cancel(a), Some("a"));
        // the new occupant recycles slot 0 with a bumped generation
        let b = q.schedule(1.0, "b");
        assert_eq!(a.slot(), b.slot(), "slot is recycled");
        assert_ne!(a.generation(), b.generation(), "generation is bumped");
        assert_eq!(
            q.cancel(a),
            None,
            "stale handle cannot touch the new occupant"
        );
        assert_eq!(q.pop(), Some((1.0, "b")));
        assert_eq!(q.cancel(b), None, "handle to a fired event is dead");
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "later");
        assert_eq!(q.pop_due(4.0), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(5.0), Some((5.0, "later")));
    }

    #[test]
    fn depth_counts_live_events_only() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(i as f64, i)).collect();
        assert_eq!(q.len(), 10);
        assert_eq!(q.peak_depth(), 10);
        for id in &ids[..5] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peak_depth(), 10, "peak is a high-water mark");
    }

    #[test]
    fn cancel_heavy_workload_stays_bounded_by_compaction() {
        // schedule/cancel churn with a small live set: without
        // compaction the heap would grow with every reschedule; with it
        // the heap stays within 2× live + threshold.
        let mut q = EventQueue::new();
        let mut pending = Vec::new();
        for round in 0..10_000u32 {
            let id = q.schedule(round as f64, round);
            pending.push(id);
            if pending.len() > 8 {
                let victim = pending.remove(0);
                q.cancel(victim);
            }
            assert!(
                q.tombstones() <= q.len().max(COMPACT_MIN),
                "round {round}: {} tombstones for {} live",
                q.tombstones(),
                q.len()
            );
        }
        assert!(q.compacted() > 0, "compaction reclaimed tombstones");
        assert!(q.compactions() > 0);
        // everything still delivers in order
        let mut last = -1.0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
