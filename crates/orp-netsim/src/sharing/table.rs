//! The engine's flow table: global flow ids over a window of storage.
//!
//! Every flow gets the next id in creation order, and no id is ever
//! reused: ECMP hashes, telemetry `flow.*` records and checkpoints all
//! name flows by it. Storage covers only the window from the oldest
//! record the table still holds to the newest. At the engine loop's
//! crash-safety boundary, [`FlowTable::retire`] drops the finished prefix
//! of that window once it is at least as long as the rest, so a move of
//! the surviving records is paid for by the records it retires (O(1)
//! amortized per flow) and the table never stores more than twice the
//! span from the oldest unfinished flow to the newest. An id below the
//! window is *retired* and reads as finished.

use super::{Flow, FlowAux, RouteBuf};
use orp_core::ckpt::{CkptError, Decoder, Encoder};
use std::ops::{Index, IndexMut, Range};

/// Flow records addressed by global id, stored for the in-flight window
/// only, with the recorder's per-flow timings beside them.
#[derive(Debug)]
pub struct FlowTable {
    /// Global id of `flows[0]`; every id below it is retired.
    base: u32,
    flows: Vec<Flow>,
    /// Latency-decomposition timings, parallel to `flows` while a
    /// recorder is attached and empty otherwise.
    aux: Vec<FlowAux>,
    track_aux: bool,
    /// Retirement cursor: `flows[..done]` are known to be finished.
    done: usize,
    /// Most records stored at once.
    #[cfg(test)]
    pub(crate) peak: usize,
    /// Longest span from the oldest unfinished flow to the newest seen
    /// by [`FlowTable::retire`].
    #[cfg(test)]
    pub(crate) peak_span: usize,
}

/// What a finished flow's record holds once nothing reads it but its
/// `finished` flag.
const TOMBSTONE: Flow = Flow {
    route: RouteBuf::EMPTY,
    remaining: 0.0,
    rate: 0.0,
    src: 0,
    dst: 0,
    hash: 0,
    active: false,
    finished: true,
    bytes: 0.0,
    injected: false,
};

impl FlowTable {
    /// An empty table; `track_aux` keeps the per-flow timings.
    pub(crate) fn new(track_aux: bool) -> Self {
        Self {
            base: 0,
            flows: Vec::new(),
            aux: Vec::new(),
            track_aux,
            done: 0,
            #[cfg(test)]
            peak: 0,
            #[cfg(test)]
            peak_span: 0,
        }
    }

    /// The id the next flow gets: the number of flows ever issued.
    pub(crate) fn next_id(&self) -> u32 {
        self.base + self.flows.len() as u32
    }

    /// The lowest id still stored; every id below it is retired.
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// The stored ids, oldest first.
    pub(crate) fn ids(&self) -> Range<u32> {
        self.base..self.next_id()
    }

    /// Reserves room for `n` more records.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.flows.reserve(n);
        if self.track_aux {
            self.aux.reserve(n);
        }
    }

    /// Stores `flow` (with its timings, kept only while tracking) under
    /// the next id and returns that id.
    pub(crate) fn push(&mut self, flow: Flow, aux: FlowAux) -> u32 {
        let id = self.next_id();
        self.flows.push(flow);
        if self.track_aux {
            self.aux.push(aux);
        }
        #[cfg(test)]
        {
            self.peak = self.peak.max(self.flows.len());
        }
        id
    }

    /// Flow `id`'s record, or `None` when the id is retired or was never
    /// issued.
    pub(crate) fn get(&self, id: u32) -> Option<&Flow> {
        self.flows.get(id.wrapping_sub(self.base) as usize)
    }

    /// Flow `id`'s timings (only while a recorder is attached).
    pub(crate) fn aux(&self, id: u32) -> &FlowAux {
        &self.aux[id.wrapping_sub(self.base) as usize]
    }

    /// Mutable [`FlowTable::aux`].
    pub(crate) fn aux_mut(&mut self, id: u32) -> &mut FlowAux {
        &mut self.aux[id.wrapping_sub(self.base) as usize]
    }

    /// The stored records with their ids, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &Flow)> {
        self.ids().zip(&self.flows)
    }

    /// Drops the finished prefix of the window once it is at least as
    /// long as the rest, and returns the new base when it moved. Called
    /// at the crash-safety boundary, where no flow is mid-transition.
    pub(crate) fn retire(&mut self) -> Option<u32> {
        while self.flows.get(self.done).is_some_and(|f| f.finished) {
            self.done += 1;
        }
        #[cfg(test)]
        {
            self.peak_span = self.peak_span.max(self.flows.len() - self.done);
        }
        if self.done == 0 || self.done * 2 < self.flows.len() {
            return None;
        }
        self.flows.drain(..self.done);
        if self.track_aux {
            self.aux.drain(..self.done);
        }
        self.base += self.done as u32;
        self.done = 0;
        Some(self.base)
    }

    /// The oldest unfinished id ([`FlowTable::next_id`] when every flow
    /// finished).
    pub(crate) fn first_live(&self) -> u32 {
        let k = self.flows[self.done..].iter().position(|f| !f.finished);
        self.base + (self.done + k.unwrap_or(self.flows.len() - self.done)) as u32
    }

    /// Serializes the table bit-exactly (floats as raw bits): the count
    /// of issued ids, then every unfinished flow with its id. Finished
    /// and retired flows are not written, since the engine reads nothing
    /// of them but their `finished` flag.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(u64::from(self.next_id()));
        let live = self.flows.iter().filter(|f| !f.finished).count();
        enc.put_u64(live as u64);
        // a snapshot taken without a recorder stores no timings, and a
        // recorder-attached resume starts the decomposition from zeros
        // (the contract of the dependency-parent table)
        enc.put_bool(self.track_aux);
        for (fid, f) in self.iter().filter(|(_, f)| !f.finished) {
            enc.put_u64(u64::from(fid));
            enc.put_u32_slice(&f.route);
            enc.put_f64(f.remaining);
            enc.put_f64(f.rate);
            enc.put_u32(f.src);
            enc.put_u32(f.dst);
            enc.put_u64(u64::from(f.hash));
            enc.put_bool(f.active);
            enc.put_f64(f.bytes);
            enc.put_bool(f.injected);
            if self.track_aux {
                let a = self.aux(fid);
                enc.put_f64(a.created);
                enc.put_f64(a.prop);
                enc.put_f64(a.active_time);
                enc.put_f64(a.activated);
            }
        }
    }

    /// Inverse of [`FlowTable::encode`], validating routes against the
    /// network and the id count against `max_flows`, the most flows the
    /// configuration can issue. The restored window starts at the oldest
    /// unfinished flow, so it allocates the live span, not the run's
    /// history. `track_aux` is the resuming run's setting; timings a
    /// snapshot lacks restore as zeros.
    pub(crate) fn decode(
        dec: &mut Decoder<'_>,
        num_links: u32,
        max_flows: usize,
        track_aux: bool,
    ) -> Result<Self, CkptError> {
        let bad = |what: &str| CkptError::BadSection(format!("flow table: {what}"));
        let n = dec.get_u64()?;
        if n > max_flows as u64 || n > u64::from(u32::MAX) {
            return Err(bad("more flows than the programs and injections issue"));
        }
        let n = n as u32;
        let live = dec.get_u64()?;
        if live > u64::from(n) {
            return Err(bad("more live flows than flows"));
        }
        let has_aux = dec.get_bool()?;
        let mut table = Self::new(track_aux);
        table.base = n;
        for k in 0..live {
            let fid = dec.get_u64()?;
            if fid >= u64::from(n) {
                return Err(bad("live flow id out of range"));
            }
            let fid = fid as u32;
            if k == 0 {
                table.base = fid;
            } else if fid < table.next_id() {
                return Err(bad("live flow ids out of order"));
            }
            while table.next_id() < fid {
                table.push(TOMBSTONE, FlowAux::default());
            }
            let route = dec.get_u32_vec()?;
            if route.is_empty() || route.iter().any(|&l| l >= num_links) {
                return Err(bad("route empty or crossing a link outside the network"));
            }
            let flow = Flow {
                route: RouteBuf::from_slice(&route),
                remaining: dec.get_f64()?,
                rate: dec.get_f64()?,
                src: dec.get_u32()?,
                dst: dec.get_u32()?,
                hash: dec.get_u64()? as u32,
                active: dec.get_bool()?,
                finished: false,
                bytes: dec.get_f64()?,
                injected: dec.get_bool()?,
            };
            // the models divide by and order on these: never NaN or below 0
            if ![flow.remaining, flow.rate, flow.bytes]
                .iter()
                .all(|&x| x >= 0.0)
            {
                return Err(bad("negative or NaN byte count or rate"));
            }
            let aux = if has_aux {
                FlowAux {
                    created: dec.get_f64()?,
                    prop: dec.get_f64()?,
                    active_time: dec.get_f64()?,
                    activated: dec.get_f64()?,
                }
            } else {
                FlowAux::default()
            };
            table.push(flow, aux);
        }
        // ids past the newest live flow finished before the snapshot
        while table.next_id() < n {
            table.push(TOMBSTONE, FlowAux::default());
        }
        Ok(table)
    }
}

impl Index<u32> for FlowTable {
    type Output = Flow;

    /// Flow `id`'s record.
    ///
    /// # Panics
    /// Panics when `id` is retired or was never issued.
    fn index(&self, id: u32) -> &Flow {
        &self.flows[id.wrapping_sub(self.base) as usize]
    }
}

impl IndexMut<u32> for FlowTable {
    fn index_mut(&mut self, id: u32) -> &mut Flow {
        &mut self.flows[id.wrapping_sub(self.base) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> Flow {
        Flow {
            route: RouteBuf::from_slice(&[0]),
            finished: false,
            remaining: 1.0,
            bytes: 1.0,
            ..TOMBSTONE
        }
    }

    fn finish(t: &mut FlowTable, id: u32) {
        t[id].finished = true;
    }

    #[test]
    fn ids_survive_retirement_and_retired_ids_read_as_finished() {
        let mut t = FlowTable::new(false);
        let ids: Vec<u32> = (0..4).map(|_| t.push(flow(), FlowAux::default())).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        finish(&mut t, 0);
        // one finished record against three unfinished: kept
        assert_eq!(t.retire(), None);
        finish(&mut t, 1);
        assert_eq!(t.retire(), Some(2), "half the window finished");
        assert_eq!((t.base(), t.next_id()), (2, 4));
        assert!(t.get(1).is_none() && t.get(4).is_none());
        assert_eq!(t.first_live(), 2);
        assert_eq!(
            t.push(flow(), FlowAux::default()),
            4,
            "ids are never reused"
        );
        finish(&mut t, 3);
        // 2 unfinished before 3: the cursor stops at the oldest live id
        assert_eq!(t.retire(), None);
        assert_eq!(t.first_live(), 2);
        finish(&mut t, 2);
        finish(&mut t, 4);
        assert_eq!(t.retire(), Some(5));
        assert_eq!(t.ids(), 5..5);
        assert_eq!(t.first_live(), 5);
    }

    #[test]
    fn decode_allocates_the_live_span_only() {
        let mut t = FlowTable::new(true);
        for _ in 0..1000 {
            t.push(flow(), FlowAux::default());
        }
        for id in (0..1000).filter(|&id| id != 700 && id != 703) {
            finish(&mut t, id);
        }
        t.aux_mut(703).created = 2.5;
        let mut enc = Encoder::new();
        t.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = FlowTable::decode(&mut Decoder::new(&bytes), 1, 1000, true).unwrap();
        assert_eq!((back.base(), back.next_id()), (700, 1000));
        assert_eq!(back.flows.len(), 300);
        assert!(!back[700].finished && back[701].finished && !back[703].finished);
        assert_eq!(back.aux(703).created, 2.5);
        let mut again = Encoder::new();
        back.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes, "the live state round-trips");
    }
}
