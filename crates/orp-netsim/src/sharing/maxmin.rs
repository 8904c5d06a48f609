//! Exact max-min fair sharing by progressive filling, re-solved per
//! flow group.
//!
//! Progressive filling finds the bottleneck share (minimum
//! capacity/count over links carrying unfrozen flows), freezes every
//! flow crossing a link whose ratio is within `share · 1e-9` of it,
//! subtracts, and repeats. The model's rates must stay bit-identical to
//! running that loop over *every* streaming flow in activation order
//! after every membership change (the pre-event-queue engine's
//! allocation; `sim_compat` holds 40 NPB reports to it). Doing exactly
//! that costs O(active flows × links) per change, although a change
//! usually touches one of a dozen independent link components.
//!
//! So the streaming flows are partitioned into **groups**, each a union
//! of link-connected components (no link carries flows of two groups),
//! and a settle refills only the groups a change touched, with the same
//! loop restricted to the group's members in activation order. Four
//! rules keep every rate bit-identical to the whole-network fill:
//!
//! 1. **Merge, never split.** An inserted flow joins the groups of every
//!    flow sharing one of its links, merging them; a removed flow leaves
//!    its group (which is refilled) and a group dies with its last flow.
//!    Groups are never split back into components.
//! 2. **Near-ties merge.** Every group's round shares sit in an ordered
//!    index. When a share `a` of one group and `b` of another satisfy
//!    `a < b <= a + a·1e-9`, the whole near-tied closure is merged and
//!    refilled once (repeated until no near-tie is left).
//! 3. **Visit order.** A swap-remove moves the last flow into the hole;
//!    a group whose members no longer appear in the order of its last
//!    fill (checked against per-slot fill ranks) is refilled.
//! 4. **Numerical corner.** A fill with a round that freezes nothing
//!    merges every group into one and refills it — the whole-network
//!    fill, corner handling included.
//!
//! Why this is exact: each whole-network round's share `s` is the
//! minimum over the groups of their current bottleneck ratio, and each
//! group's current ratio is the share of its next stand-alone round (by
//! induction over rounds). A group whose ratio equals `s` performs
//! exactly its own round: the tight test reads only its own links, and
//! freezes in other groups never touch them. Every other group's ratio
//! lies above `s + s·1e-9` — rule 2 leaves no group pair with shares
//! inside that band — so the round freezes none of its flows. Within a
//! round, flows of different groups never interact, so only the relative
//! order of a group's own members matters (rule 3).

use super::{FlowTable, LinkStats, ThroughputSharingModel};
use crate::context::SimContext;
use crate::network::LinkId;
use orp_core::ckpt::{CkptError, Decoder, Encoder};

/// Per-slot state, parallel to [`MaxMinFair::active`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The flow's group.
    group: u32,
    /// The flow's index in its group's last fill (the visit order).
    rank: u32,
}

/// A union of link-connected components of streaming flows.
#[derive(Debug, Default)]
struct Group {
    /// Member flows (0 once dead).
    size: u32,
    /// Membership or member order changed since the last fill.
    dirty: bool,
    /// Share of each round of the last fill, in round order.
    shares: Vec<f64>,
    /// Closure / merge-set membership stamp (see `MaxMinFair::stamp`).
    mark: u32,
    /// Order-check stamp and the rank its next member must carry.
    seen: u32,
    next_rank: u32,
}

/// Scratch for one progressive fill.
#[derive(Debug)]
struct Filler {
    link_count: Vec<u32>,
    link_cap: Vec<f64>,
    touched: Vec<LinkId>,
    unfrozen: Vec<u32>,
    still: Vec<u32>,
}

impl Filler {
    /// Progressive filling over `members` (one group, in activation
    /// order) — the whole-network loop, restricted. Writes the members'
    /// rates and each round's share into `shares`; returns false if a
    /// round froze nothing (the numerical corner).
    fn fill(
        &mut self,
        bw: f64,
        members: &[u32],
        flows: &mut FlowTable,
        shares: &mut Vec<f64>,
    ) -> bool {
        shares.clear();
        for &fid in members {
            for &l in flows[fid].route.iter() {
                if self.link_count[l as usize] == 0 {
                    self.touched.push(l);
                    self.link_cap[l as usize] = bw;
                }
                self.link_count[l as usize] += 1;
            }
        }
        self.unfrozen.clear();
        self.unfrozen.extend_from_slice(members);
        let mut progressed = true;
        while !self.unfrozen.is_empty() {
            // bottleneck link = min cap/count among links carrying
            // flows; links whose flows are all frozen drop out for good
            let mut share = f64::INFINITY;
            let (count, cap) = (&self.link_count, &self.link_cap);
            self.touched.retain(|&l| {
                let c = count[l as usize];
                if c > 0 {
                    let s = cap[l as usize] / c as f64;
                    if s < share {
                        share = s;
                    }
                }
                c > 0
            });
            if !share.is_finite() {
                break;
            }
            shares.push(share);
            // freeze every unfrozen flow crossing a bottleneck-tight link
            self.still.clear();
            let eps = share * 1e-9;
            for &fid in &self.unfrozen {
                let tight = flows[fid].route.iter().any(|&l| {
                    let c = self.link_count[l as usize];
                    c > 0 && self.link_cap[l as usize] / c as f64 <= share + eps
                });
                if tight {
                    flows[fid].rate = share;
                    for &l in flows[fid].route.iter() {
                        self.link_cap[l as usize] -= share;
                        self.link_count[l as usize] -= 1;
                    }
                } else {
                    self.still.push(fid);
                }
            }
            debug_assert!(
                self.still.len() < self.unfrozen.len(),
                "filling must progress"
            );
            if self.still.len() == self.unfrozen.len() {
                // numerical corner: freeze everything at the current share
                for &fid in &self.still {
                    flows[fid].rate = share;
                }
                progressed = false;
                break;
            }
            std::mem::swap(&mut self.unfrozen, &mut self.still);
        }
        // links dropped above are back at zero already
        for &l in &self.touched {
            self.link_count[l as usize] = 0;
        }
        self.touched.clear();
        progressed
    }
}

/// Orders shares like their values (negative ones included) so that
/// share windows are key ranges.
fn share_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

fn key_share(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// A round at share `a` freezes a flow whose tightest link has ratio `b`
/// when `b <= a + a·1e-9` (the fill's own expression): `b` strictly
/// above `a` yet inside that band belongs to a different round only if
/// its group is filled alone.
fn near_tied(a: f64, b: f64) -> bool {
    (a < b && b <= a + a * 1e-9) || (b < a && a <= b + b * 1e-9)
}

/// Exact progressive-filling max-min model (the default).
#[derive(Debug)]
pub struct MaxMinFair {
    bw: f64,
    /// Streaming flow ids, in activation order (completion scans and
    /// fills iterate this order — part of the bit-compat surface).
    active: Vec<u32>,
    /// Group and fill rank of each `active` entry.
    slots: Vec<Slot>,
    /// Membership changed since the last solve.
    dirty: bool,
    /// A swap-remove moved a flow since the last solve.
    moved: bool,
    /// Per link: streaming flows crossing it.
    users: Vec<u32>,
    /// Per link: the group of those flows (valid while `users > 0`).
    owner: Vec<u32>,
    /// Links with `users > 0`, and each one's index in it.
    busy: Vec<LinkId>,
    busy_pos: Vec<u32>,
    groups: Vec<Group>,
    free_groups: Vec<u32>,
    /// `(share_key, group)` for every round share of every live group,
    /// sorted: the near-tie index.
    index: Vec<(u64, u32)>,
    /// Stamp for `Group::mark` / `Group::seen` (bumped per use).
    stamp: u32,
    filler: Filler,
    // per-solve scratch
    /// `group << 32 | slot` of every member of a dirty group.
    gather: Vec<u64>,
    /// Activation slots of the group being refilled, in order.
    work: Vec<u32>,
    members: Vec<u32>,
    old_shares: Vec<f64>,
    pending: Vec<u32>,
    closure: Vec<u32>,
}

impl MaxMinFair {
    /// Model over `num_links` directed links of `bandwidth` bytes/s each.
    pub fn new(num_links: usize, bandwidth: f64) -> Self {
        Self {
            bw: bandwidth,
            active: Vec::new(),
            slots: Vec::new(),
            dirty: false,
            moved: false,
            users: vec![0; num_links],
            owner: vec![0; num_links],
            busy: Vec::new(),
            busy_pos: vec![0; num_links],
            groups: Vec::new(),
            free_groups: Vec::new(),
            index: Vec::new(),
            stamp: 0,
            filler: Filler {
                link_count: vec![0; num_links],
                link_cap: vec![0.0; num_links],
                touched: Vec::new(),
                unfrozen: Vec::new(),
                still: Vec::new(),
            },
            gather: Vec::new(),
            work: Vec::new(),
            members: Vec::new(),
            old_shares: Vec::new(),
            pending: Vec::new(),
            closure: Vec::new(),
        }
    }

    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        self.stamp
    }

    fn new_group(&mut self) -> u32 {
        let g = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(Group::default());
            self.groups.len() as u32 - 1
        });
        let gr = &mut self.groups[g as usize];
        gr.size = 0;
        gr.dirty = true;
        gr.shares.clear();
        g
    }

    /// Retires group `g` (dead or merged away).
    fn drop_group(&mut self, g: u32) {
        let gr = &mut self.groups[g as usize];
        unindex(&mut self.index, g, &gr.shares);
        gr.size = 0;
        gr.dirty = false;
        gr.shares.clear();
        self.free_groups.push(g);
    }

    /// Merges the groups listed in `closure` (all stamped `mark`) into
    /// `target`, relabelling their slots and links, and leaves the
    /// merged group's slots in `work`, in activation order.
    fn merge_closure(&mut self, mark: u32, target: u32, flows: &FlowTable) {
        let mut size = 0;
        for k in 0..self.closure.len() {
            let g = self.closure[k];
            size += self.groups[g as usize].size;
            if g != target {
                self.drop_group(g);
            }
        }
        self.work.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if self.groups[s.group as usize].mark == mark {
                if s.group != target {
                    s.group = target;
                    for &l in flows[self.active[i]].route.iter() {
                        self.owner[l as usize] = target;
                    }
                }
                self.work.push(i as u32);
            }
        }
        let gr = &mut self.groups[target as usize];
        gr.size = size;
        gr.dirty = true;
    }

    /// Adds flow `fid` at the end of the activation order: its links
    /// are counted, and the groups of every flow sharing one of them
    /// merge into the flow's group (rule 1).
    fn attach(&mut self, fid: u32, flows: &FlowTable) {
        let route = &flows[fid].route;
        let mark = self.next_stamp();
        self.closure.clear();
        for &l in route.iter() {
            if self.users[l as usize] > 0 {
                let o = self.owner[l as usize];
                let gr = &mut self.groups[o as usize];
                if gr.mark != mark {
                    gr.mark = mark;
                    self.closure.push(o);
                }
            }
        }
        let target = match self.closure.len() {
            0 => self.new_group(),
            1 => self.closure[0],
            _ => {
                let target = self.closure[0];
                self.merge_closure(mark, target, flows);
                target
            }
        };
        for &l in route.iter() {
            let u = &mut self.users[l as usize];
            if *u == 0 {
                self.busy_pos[l as usize] = self.busy.len() as u32;
                self.busy.push(l);
            }
            *u += 1;
            self.owner[l as usize] = target;
        }
        let gr = &mut self.groups[target as usize];
        gr.size += 1;
        gr.dirty = true;
        self.active.push(fid);
        self.slots.push(Slot {
            group: target,
            rank: u32::MAX,
        });
        self.dirty = true;
    }

    /// Drops the flow in activation slot `i` (swap-remove: the last
    /// flow moves into the hole).
    fn detach(&mut self, i: usize, flows: &FlowTable) {
        let fid = self.active.swap_remove(i);
        let g = self.slots.swap_remove(i).group;
        for &l in flows[fid].route.iter() {
            let u = &mut self.users[l as usize];
            *u -= 1;
            if *u == 0 {
                let p = self.busy_pos[l as usize] as usize;
                self.busy.swap_remove(p);
                if let Some(&moved) = self.busy.get(p) {
                    self.busy_pos[moved as usize] = p as u32;
                }
            }
        }
        let gr = &mut self.groups[g as usize];
        gr.size -= 1;
        gr.dirty = true;
        if gr.size == 0 {
            self.drop_group(g);
        }
        self.moved |= i < self.active.len();
        self.dirty = true;
    }

    /// Refills group `g` over the activation slots in `work` (its
    /// members, in order) and re-indexes its shares if they changed.
    /// Returns whether they changed, and whether the fill progressed
    /// (false on the numerical corner).
    fn refill(&mut self, g: u32, flows: &mut FlowTable) -> (bool, bool) {
        self.members.clear();
        for (k, &i) in self.work.iter().enumerate() {
            self.slots[i as usize].rank = k as u32;
            self.members.push(self.active[i as usize]);
        }
        let gr = &mut self.groups[g as usize];
        gr.dirty = false;
        std::mem::swap(&mut gr.shares, &mut self.old_shares);
        let progressed = self
            .filler
            .fill(self.bw, &self.members, flows, &mut gr.shares);
        let same = gr.shares.len() == self.old_shares.len()
            && gr
                .shares
                .iter()
                .zip(&self.old_shares)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            unindex(&mut self.index, g, &self.old_shares);
            for &s in &gr.shares {
                if let Err(p) = self.index.binary_search(&(share_key(s), g)) {
                    self.index.insert(p, (share_key(s), g));
                }
            }
        }
        (!same, progressed)
    }

    /// Collects into `closure`, stamped `mark`, every group near-tied to
    /// `g`, transitively (rule 2); `g` comes first.
    fn near_tie_closure(&mut self, g: u32, mark: u32) {
        self.closure.clear();
        self.closure.push(g);
        self.groups[g as usize].mark = mark;
        let mut next = 0;
        while next < self.closure.len() {
            let h = self.closure[next] as usize;
            next += 1;
            for j in 0..self.groups[h].shares.len() {
                let a = self.groups[h].shares[j];
                if !(a > 0.0 && a.is_finite()) {
                    // no share is near-tied to a non-positive one
                    continue;
                }
                let lo = share_key(a - a * 2e-9);
                let hi = share_key(a + a * 1e-9);
                let mut p = self.index.partition_point(|&(k, _)| k < lo);
                while let Some(&(k, o)) = self.index.get(p).filter(|e| e.0 <= hi) {
                    p += 1;
                    let other = &mut self.groups[o as usize];
                    if other.mark != mark && near_tied(a, key_share(k)) {
                        other.mark = mark;
                        self.closure.push(o);
                    }
                }
            }
        }
    }

    /// Rule 4: merges every group into one and fills it whole — the
    /// whole-network fill, corner handling included.
    fn fill_everything(&mut self, flows: &mut FlowTable) {
        let mark = self.next_stamp();
        self.closure.clear();
        for g in 0..self.groups.len() as u32 {
            let gr = &mut self.groups[g as usize];
            if gr.size > 0 {
                gr.mark = mark;
                self.closure.push(g);
            }
        }
        let target = self.closure[0];
        self.merge_closure(mark, target, flows);
        self.refill(target, flows);
    }

    /// Re-solves every group the changes since the last solve touched.
    fn solve(&mut self, flows: &mut FlowTable) {
        // members of the dirty groups, by group, each in activation
        // order; after a swap-remove, rule 3 first: a clean group's
        // members must still appear with ranks 0, 1, 2, … (the order of
        // its last fill)
        let check = std::mem::take(&mut self.moved);
        let seen = self.next_stamp();
        let mut reordered = false;
        self.gather.clear();
        for (i, s) in self.slots.iter().enumerate() {
            let gr = &mut self.groups[s.group as usize];
            if check && !gr.dirty {
                if gr.seen != seen {
                    gr.seen = seen;
                    gr.next_rank = 0;
                }
                if s.rank == gr.next_rank {
                    gr.next_rank += 1;
                    continue;
                }
                gr.dirty = true;
                reordered = true;
            }
            if gr.dirty {
                self.gather.push(u64::from(s.group) << 32 | i as u64);
            }
        }
        if reordered {
            // the reordered groups' earlier members were passed over
            self.gather.clear();
            for (i, s) in self.slots.iter().enumerate() {
                if self.groups[s.group as usize].dirty {
                    self.gather.push(u64::from(s.group) << 32 | i as u64);
                }
            }
        }
        self.gather.sort_unstable();
        self.pending.clear();
        let mut at = 0;
        while at < self.gather.len() {
            let g = (self.gather[at] >> 32) as u32;
            self.work.clear();
            while let Some(&w) = self.gather.get(at).filter(|&&w| (w >> 32) as u32 == g) {
                self.work.push(w as u32);
                at += 1;
            }
            match self.refill(g, flows) {
                (_, false) => return self.fill_everything(flows),
                (true, true) => self.pending.push(g),
                (false, true) => {}
            }
        }
        // rule 2: merge near-tied closures until none is left
        while let Some(g) = self.pending.pop() {
            if self.groups[g as usize].size == 0 {
                continue; // merged away meanwhile
            }
            let mark = self.next_stamp();
            self.near_tie_closure(g, mark);
            if self.closure.len() > 1 {
                self.merge_closure(mark, g, flows);
                if !self.refill(g, flows).1 {
                    return self.fill_everything(flows);
                }
                self.pending.push(g);
            }
        }
    }

    /// Samples per-link flow multiplicity at this reallocation — the
    /// contention ("queue depth") histogram and per-link peaks — from
    /// the link index.
    fn sample_links(&self, tel: &mut LinkStats) {
        if tel.rec.is_enabled() {
            for &l in &self.busy {
                let c = self.users[l as usize];
                tel.rec.record("sim.queue_depth", c as u64);
                if c > tel.link_peak[l as usize] {
                    tel.link_peak[l as usize] = c;
                }
            }
        }
    }

    fn resolve(&mut self, flows: &mut FlowTable, tel: &mut LinkStats) {
        self.sample_links(tel);
        self.solve(flows);
        self.dirty = false;
    }
}

/// Removes group `g`'s `shares` from the near-tie index.
fn unindex(index: &mut Vec<(u64, u32)>, g: u32, shares: &[f64]) {
    for &s in shares {
        if let Ok(p) = index.binary_search(&(share_key(s), g)) {
            index.remove(p);
        }
    }
}

impl ThroughputSharingModel for MaxMinFair {
    fn insert(
        &mut self,
        fid: u32,
        flows: &mut FlowTable,
        _ctx: &mut SimContext<'_>,
        _tel: &mut LinkStats,
    ) {
        self.attach(fid, flows);
    }

    fn remove(
        &mut self,
        fid: u32,
        flows: &mut FlowTable,
        _ctx: &mut SimContext<'_>,
        _tel: &mut LinkStats,
    ) {
        flows[fid].rate = 0.0;
        let pos = self
            .active
            .iter()
            .position(|&x| x == fid)
            .expect("active flow is listed");
        self.detach(pos, flows);
    }

    fn settle(&mut self, flows: &mut FlowTable, tel: &mut LinkStats) {
        if self.dirty {
            self.resolve(flows, tel);
        }
    }

    fn settle_tail(&mut self, flows: &mut FlowTable, tel: &mut LinkStats) {
        if self.dirty && !self.active.is_empty() {
            self.resolve(flows, tel);
        }
    }

    fn next_completion_in(&self, flows: &FlowTable) -> f64 {
        let mut flow_dt = f64::INFINITY;
        for &fid in &self.active {
            let f = &flows[fid];
            let dt = if f.rate > 0.0 {
                f.remaining / f.rate
            } else {
                f64::INFINITY
            };
            if dt < flow_dt {
                flow_dt = dt;
            }
        }
        flow_dt
    }

    fn advance(&mut self, flows: &mut FlowTable, dt: f64, tel: &mut LinkStats) {
        if dt > 0.0 {
            let track = tel.tracking();
            for &fid in &self.active {
                let f = &mut flows[fid];
                let moved = (f.rate * dt).min(f.remaining);
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
                if track {
                    flows.aux_mut(fid).active_time += dt;
                    for &l in flows[fid].route.iter() {
                        tel.link_bytes[l as usize] += moved;
                        // flow-seconds; divided by the makespan at the end
                        // of the run this is the time-averaged sharing
                        tel.link_busy[l as usize] += dt;
                    }
                }
            }
        }
    }

    fn collect_finished(&mut self, flows: &mut FlowTable, out: &mut Vec<u32>) {
        let mut i = 0;
        while i < self.active.len() {
            let fid = self.active[i];
            let f = &flows[fid];
            let left_t = if f.rate > 0.0 {
                f.remaining / f.rate
            } else {
                f64::INFINITY
            };
            if f.remaining <= 1e-9 || left_t <= 1e-12 {
                self.detach(i, flows);
                out.push(fid);
            } else {
                i += 1;
            }
        }
    }

    fn on_event(
        &mut self,
        _token: u32,
        _flows: &mut FlowTable,
        _ctx: &mut SimContext<'_>,
        _tel: &mut LinkStats,
        _finished: &mut Vec<u32>,
    ) {
        debug_assert!(false, "exact max-min schedules no model events");
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn encode_state(&self, enc: &mut Encoder, _flows: &FlowTable) {
        enc.put_f64(self.bw);
        enc.put_u32_slice(&self.active);
        enc.put_bool(self.dirty);
        // everything else is derived: the link index and the groups are
        // rebuilt from `active` and the flow table on decode, and the
        // fill scratch is all-zero between fills.
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>, flows: &FlowTable) -> Result<(), CkptError> {
        let bad = |what: &str| CkptError::BadSection(format!("max-min model: {what}"));
        let bw = dec.get_f64()?;
        if bw.to_bits() != self.bw.to_bits() {
            return Err(bad("bandwidth does not match"));
        }
        let active = dec.get_u32_vec()?;
        let dirty = dec.get_bool()?;
        if active.iter().any(|&f| f >= flows.next_id()) {
            return Err(bad("active flow out of range"));
        }
        if active
            .iter()
            .any(|&f| flows.get(f).is_none_or(|f| !f.active || f.finished))
        {
            return Err(bad("listed flow is not streaming"));
        }
        let mut ids = active.clone();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("flow listed twice"));
        }
        // a fault tears down every streaming flow through the list
        if flows.iter().filter(|(_, f)| f.active).count() != active.len() {
            return Err(bad("streaming flow missing from the list"));
        }
        // rebuild the link index and the groups as if every flow had
        // just been inserted in order: every group is dirty, so the next
        // solve refills all of them. Until then the snapshot's rates
        // stand, exactly as they would in the uninterrupted run.
        let mut fresh = Self::new(self.users.len(), self.bw);
        for fid in active {
            fresh.attach(fid, flows);
        }
        fresh.dirty = dirty;
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::queue::EventQueue;
    use crate::sharing::{Flow, FlowAux, RouteBuf};
    use orp_obs::Recorder;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The whole-network progressive filling the model replaced,
    /// operation for operation: every streaming flow, activation order.
    /// Returns each flow's rate keyed by activation slot (flows the loop
    /// never freezes keep their current rate, as in the original).
    fn whole_set_rates(bw: f64, num_links: usize, active: &[u32], flows: &FlowTable) -> Vec<f64> {
        let mut rate: Vec<f64> = active.iter().map(|&f| flows[f].rate).collect();
        let mut link_count = vec![0u32; num_links];
        let mut link_cap = vec![0.0f64; num_links];
        let mut touched_links: Vec<LinkId> = Vec::new();
        for &fid in active {
            for &l in flows[fid].route.iter() {
                if link_count[l as usize] == 0 {
                    touched_links.push(l);
                    link_cap[l as usize] = bw;
                }
                link_count[l as usize] += 1;
            }
        }
        let mut unfrozen: Vec<usize> = (0..active.len()).collect();
        while !unfrozen.is_empty() {
            let mut share = f64::INFINITY;
            for &l in &touched_links {
                let c = link_count[l as usize];
                if c > 0 {
                    let s = link_cap[l as usize] / c as f64;
                    if s < share {
                        share = s;
                    }
                }
            }
            if !share.is_finite() {
                break;
            }
            let mut still = Vec::with_capacity(unfrozen.len());
            let eps = share * 1e-9;
            for &slot in &unfrozen {
                let route = &flows[active[slot]].route;
                let tight = route.iter().any(|&l| {
                    let c = link_count[l as usize];
                    c > 0 && link_cap[l as usize] / c as f64 <= share + eps
                });
                if tight {
                    rate[slot] = share;
                    for &l in route.iter() {
                        link_cap[l as usize] -= share;
                        link_count[l as usize] -= 1;
                    }
                } else {
                    still.push(slot);
                }
            }
            if still.len() == unfrozen.len() {
                for &slot in &still {
                    rate[slot] = share;
                }
                break;
            }
            unfrozen = still;
        }
        rate
    }

    fn flow(route: &[LinkId]) -> Flow {
        Flow {
            route: RouteBuf::from_slice(route),
            remaining: 1e6,
            rate: 0.0,
            src: 0,
            dst: 0,
            hash: 0,
            active: false,
            finished: false,
            injected: true,
        }
    }

    /// Drives one model directly and checks it against the reference
    /// after every settle.
    struct Harness {
        model: MaxMinFair,
        flows: FlowTable,
        queue: EventQueue<Event>,
        tel: LinkStats,
        num_links: usize,
        bw: f64,
        solves: usize,
    }

    impl Harness {
        fn new(num_links: usize, bw: f64) -> Self {
            Self {
                model: MaxMinFair::new(num_links, bw),
                flows: FlowTable::new(false),
                queue: EventQueue::new(),
                tel: LinkStats::new(Recorder::disabled(), num_links),
                num_links,
                bw,
                solves: 0,
            }
        }

        fn insert(&mut self, route: &[LinkId]) -> u32 {
            let mut f = flow(route);
            f.active = true;
            let fid = self.flows.push(f, FlowAux::default());
            let mut ctx = SimContext::new(0.0, &mut self.queue);
            self.model
                .insert(fid, &mut self.flows, &mut ctx, &mut self.tel);
            fid
        }

        fn remove(&mut self, fid: u32) {
            let mut ctx = SimContext::new(0.0, &mut self.queue);
            self.model
                .remove(fid, &mut self.flows, &mut ctx, &mut self.tel);
            self.flows[fid].active = false;
        }

        /// Drains `fids` through `collect_finished` (its swap-removes).
        fn finish(&mut self, fids: &[u32]) -> Vec<u32> {
            for &f in fids {
                self.flows[f].remaining = 0.0;
            }
            let mut out = Vec::new();
            self.model.collect_finished(&mut self.flows, &mut out);
            for &f in &out {
                let fl = &mut self.flows[f];
                fl.active = false;
                fl.finished = true;
            }
            if let Some(base) = self.flows.retire() {
                self.model.retire(base);
            }
            out
        }

        /// Encodes the model and decodes it into a fresh one against
        /// the flow table, as a simulator checkpoint/resume does.
        fn roundtrip(&mut self) {
            let mut enc = Encoder::new();
            self.model.encode_state(&mut enc, &self.flows);
            let bytes = enc.into_bytes();
            let mut fresh = MaxMinFair::new(self.num_links, self.bw);
            fresh
                .decode_state(&mut Decoder::new(&bytes), &self.flows)
                .expect("a model's own state decodes");
            self.model = fresh;
        }

        /// Settles and compares every streaming flow's rate bits with
        /// the whole-network fill.
        fn settle_and_check(&mut self) -> Result<(), String> {
            let expect = whole_set_rates(self.bw, self.num_links, &self.model.active, &self.flows);
            self.model.settle(&mut self.flows, &mut self.tel);
            self.solves += 1;
            for (slot, &fid) in self.model.active.iter().enumerate() {
                let got = self.flows[fid].rate;
                if got.to_bits() != expect[slot].to_bits() {
                    return Err(format!(
                        "solve {}: flow {fid} (slot {slot}) rate {got:e} != whole-set {:e}",
                        self.solves, expect[slot]
                    ));
                }
            }
            self.check_index()
        }

        /// The link index and group sizes agree with the active set.
        fn check_index(&self) -> Result<(), String> {
            let m = &self.model;
            let mut users = vec![0u32; self.num_links];
            let mut sizes = vec![0u32; m.groups.len()];
            for (i, &fid) in m.active.iter().enumerate() {
                let g = m.slots[i].group;
                sizes[g as usize] += 1;
                for &l in self.flows[fid].route.iter() {
                    users[l as usize] += 1;
                    if m.owner[l as usize] != g {
                        return Err(format!("link {l} owned by {} not {g}", m.owner[l as usize]));
                    }
                }
            }
            if users != m.users {
                return Err("link user counts drifted".into());
            }
            let mut busy = m.busy.clone();
            busy.sort_unstable();
            let expect: Vec<LinkId> = (0..self.num_links as LinkId)
                .filter(|&l| users[l as usize] > 0)
                .collect();
            if busy != expect {
                return Err("busy-link list drifted".into());
            }
            for (g, gr) in m.groups.iter().enumerate() {
                if gr.size != sizes[g] {
                    return Err(format!("group {g} size {} != {}", gr.size, sizes[g]));
                }
            }
            Ok(())
        }
    }

    #[test]
    fn near_tied_disjoint_link_takes_the_other_groups_second_round() {
        // link A (0) carries six flows, two of which also cross link B
        // (1), which carries four; disjoint link C (2) carries three.
        let bw = 5e9;
        let mut h = Harness::new(3, bw);
        for _ in 0..4 {
            h.insert(&[0]);
        }
        h.insert(&[0, 1]);
        h.insert(&[0, 1]);
        h.insert(&[1]);
        h.insert(&[1]);
        h.settle_and_check().unwrap();
        let c: Vec<u32> = (0..3).map(|_| h.insert(&[2])).collect();
        h.settle_and_check().unwrap();
        // round 1 freezes A's flows at bw/6; B's remaining two share
        // (bw − bw/6 − bw/6)/2, which lies within 1e-9 above bw/3
        let second = (bw - bw / 6.0 - bw / 6.0) / 2.0;
        assert_eq!(second, 1666666666.6666665);
        assert_eq!(bw / 3.0, 1666666666.6666667);
        for &f in &c {
            assert_eq!(h.flows[f].rate.to_bits(), second.to_bits());
        }
        assert_eq!(
            h.model.groups.iter().filter(|g| g.size > 0).count(),
            1,
            "the near-tied groups merged"
        );
        // dropping one of C's flows changes C alone; the merged group
        // refills as one and still matches
        h.finish(&c[..1]);
        h.settle_and_check().unwrap();
    }

    /// A small random fabric: `links` links, each flow crosses 1–3 of
    /// them, biased toward a few hot links so that groups merge and
    /// near-ties arise.
    fn random_route(rng: &mut ChaCha8Rng, links: u32) -> Vec<LinkId> {
        let len = rng.gen_range(1usize..=3);
        let mut route: Vec<LinkId> = Vec::new();
        while route.len() < len {
            let l = if rng.gen_range(0u32..3) == 0 {
                rng.gen_range(0..links.min(3))
            } else {
                rng.gen_range(0..links)
            };
            if !route.contains(&l) {
                route.push(l);
            }
        }
        route
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_settle_matches_the_whole_network_fill(
            (seed, links, steps) in (any::<u64>(), 3u32..14, 20usize..160),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Real bandwidths give near-ties at the rounding level only
            // (e.g. bw/3 against (bw − bw/6 − bw/6)/2 at 5e9). On the
            // coarse subnormal grid a rounding step is about the width of
            // the 1e-9 tie band itself, so small fabrics also produce
            // ties near the band's edge, where a round's frozen set
            // depends on visit order — the regime real fabrics reach
            // only with thousands of flows per link.
            let bw = [5e9, 1e10, 12.5e9, 7e-315, 2e-314, 5e-314][rng.gen_range(0usize..6)];
            let mut h = Harness::new(links as usize, bw);
            let mut live: Vec<u32> = Vec::new();
            for _ in 0..steps {
                if rng.gen_range(0u32..16) == 0 {
                    // resume from a checkpoint taken after the settle
                    h.roundtrip();
                }
                let batch = rng.gen_range(1usize..4);
                for _ in 0..batch {
                    match rng.gen_range(0u32..10) {
                        0..=4 => {
                            let route = random_route(&mut rng, links);
                            live.push(h.insert(&route));
                        }
                        5 if !live.is_empty() => {
                            // fault teardown path
                            let k = rng.gen_range(0..live.len());
                            h.remove(live.swap_remove(k));
                        }
                        _ if !live.is_empty() => {
                            // completions: any subset, swap-removed in
                            // `collect_finished` order
                            let n = rng.gen_range(1..=live.len().min(3));
                            let done: Vec<u32> = (0..n)
                                .map(|_| live[rng.gen_range(0..live.len())])
                                .collect();
                            let out = h.finish(&done);
                            live.retain(|f| !out.contains(f));
                        }
                        _ => {}
                    }
                }
                if rng.gen_range(0u32..16) == 0 {
                    // resume from a checkpoint taken before the settle
                    h.roundtrip();
                }
                if let Err(e) = h.settle_and_check() {
                    prop_assert!(false, "seed {seed}: {e}");
                }
            }
        }
    }
}
