//! MPI ranks as an event-driven simulation component.
//!
//! Each rank runs its [`Program`](crate::engine::Program) as a little
//! state machine: [`Ranks::step`] advances a rank until it either needs
//! the engine (start a compute timer, issue a flow) or blocks (send
//! awaiting delivery, receive awaiting a message). Message completion
//! re-enters through [`Ranks::deliver`]; compute timers through
//! [`Ranks::compute_done`]. Wake-ups go onto an internal FIFO the engine
//! drains — FIFO order is part of the deterministic-results contract
//! (flow ids, and with them ECMP hashes, are assigned in wake order).
//!
//! Matching holds only messages in flight: a delivered message goes
//! straight to a receive posted on its source (the receiver's
//! `waiting_recv_from`, the only record of a posted receive), or else
//! adds to the receiver's `(src, count)` pending list, which receives
//! drain. A drained channel keeps no state, and nothing is hashed; a
//! message costs a scan of its receiver's list, which fan-in patterns
//! lengthen (DESIGN.md §5b).

use crate::engine::{Op, Program};
use orp_core::ckpt::{CkptError, Decoder, Encoder};
use std::collections::VecDeque;

/// What a blocked rank is waiting for — carried by
/// [`SimError::Deadlock`](crate::engine::SimError::Deadlock) and
/// [`SimError::Stalled`](crate::engine::SimError::Stalled) so the error
/// itself says *why* each rank cannot make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// Blocked in a receive with no matching message from `from`.
    Recv {
        /// Rank the receive is posted against.
        from: u32,
    },
    /// Blocked in a send whose message to `to` was never delivered.
    SendDelivery {
        /// Destination rank of the undelivered send.
        to: u32,
    },
    /// Blocked in a sendrecv: the outgoing message to `to` undelivered
    /// *and* no matching message from `from`.
    SendRecv {
        /// Destination rank of the undelivered send.
        to: u32,
        /// Rank the receive half is posted against.
        from: u32,
    },
    /// Mid-compute (cannot occur in a deadlock report — a compute phase
    /// always has a pending completion event — but a snapshot taken
    /// mid-run can observe it).
    Compute,
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Recv { from } => write!(f, "recv from {from}"),
            Self::SendDelivery { to } => write!(f, "send to {to} undelivered"),
            Self::SendRecv { to, from } => {
                write!(f, "sendrecv (to {to} undelivered, recv from {from})")
            }
            Self::Compute => write!(f, "computing"),
        }
    }
}

/// A rank that had not finished its program when progress stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedRank {
    /// The rank id.
    pub rank: u32,
    /// What it was waiting for.
    pub reason: WaitReason,
}

/// What [`Ranks::step`] needs the engine to do before the rank can
/// continue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Rank is blocked, computing, or done — nothing to do.
    Idle,
    /// Start a compute timer of `flops` floating-point operations.
    Compute {
        /// Work to burn before [`Ranks::compute_done`].
        flops: f64,
    },
    /// Issue a message flow (the rank now blocks on its delivery).
    Send {
        /// Destination rank.
        to: u32,
        /// Payload bytes.
        bytes: f64,
    },
    /// Issue a flow *and* post a receive (MPI_Sendrecv).
    SendRecv {
        /// Destination rank of the outgoing message.
        to: u32,
        /// Outgoing payload bytes.
        bytes: f64,
        /// Source rank of the awaited incoming message.
        from: u32,
    },
}

#[derive(Debug, Default, Clone, Copy)]
struct RankCtx {
    pc: u32,
    waiting_send: bool,
    /// Destination of the blocking send (diagnostics only).
    send_to: u32,
    waiting_recv_from: u32, // u32::MAX = none
    computing: bool,
    done: bool,
}

const NO_RECV: u32 = u32::MAX;

/// All ranks of a simulation plus their message-matching state.
#[derive(Debug)]
pub(crate) struct Ranks {
    programs: Vec<Program>,
    ctx: Vec<RankCtx>,
    /// Per receiver: `(src, count)` of messages delivered but not yet
    /// received; counts are never zero.
    pending: Vec<Vec<(u32, u32)>>,
    runnable: VecDeque<u32>,
    /// Ranks whose program ended (those with `done` set).
    finished: usize,
}

impl Ranks {
    pub(crate) fn new(programs: Vec<Program>) -> Self {
        let n = programs.len();
        Self {
            programs,
            ctx: vec![
                RankCtx {
                    waiting_recv_from: NO_RECV,
                    ..Default::default()
                };
                n
            ],
            pending: vec![Vec::new(); n],
            runnable: VecDeque::new(),
            finished: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ctx.len()
    }

    pub(crate) fn all_done(&self) -> bool {
        self.finished == self.ctx.len()
    }

    pub(crate) fn is_done(&self, r: u32) -> bool {
        self.ctx[r as usize].done
    }

    /// Enqueues every rank for its initial run (FIFO, rank order).
    pub(crate) fn enqueue_all(&mut self) {
        for r in 0..self.ctx.len() as u32 {
            self.runnable.push_back(r);
        }
    }

    pub(crate) fn pop_runnable(&mut self) -> Option<u32> {
        self.runnable.pop_front()
    }

    fn runnable(&self, r: u32) -> bool {
        let c = &self.ctx[r as usize];
        !c.done && !c.computing && !c.waiting_send && c.waiting_recv_from == NO_RECV
    }

    /// Advances rank `r` to its next engine-visible action. Receives are
    /// resolved internally (consuming a pending message or blocking);
    /// everything else is returned for the engine to perform.
    pub(crate) fn step(&mut self, r: u32) -> Step {
        loop {
            if !self.runnable(r) {
                return Step::Idle;
            }
            let pc = self.ctx[r as usize].pc as usize;
            let Some(&op) = self.programs[r as usize].get(pc) else {
                self.ctx[r as usize].done = true;
                self.finished += 1;
                return Step::Idle;
            };
            self.ctx[r as usize].pc += 1;
            match op {
                Op::Compute(flops) => {
                    self.ctx[r as usize].computing = true;
                    return Step::Compute { flops };
                }
                Op::Send { to, bytes } => {
                    let c = &mut self.ctx[r as usize];
                    c.waiting_send = true;
                    c.send_to = to;
                    return Step::Send { to, bytes };
                }
                Op::Recv { from } => {
                    self.try_recv(r, from);
                }
                Op::SendRecv { to, bytes, from } => {
                    let c = &mut self.ctx[r as usize];
                    c.waiting_send = true;
                    c.send_to = to;
                    return Step::SendRecv { to, bytes, from };
                }
            }
        }
    }

    /// Consumes a pending message `from → me`; posts the receive (and so
    /// blocks the rank) when none is pending.
    pub(crate) fn try_recv(&mut self, me: u32, from: u32) {
        let pending = &mut self.pending[me as usize];
        match pending.iter().position(|&(src, _)| src == from) {
            Some(i) if pending[i].1 > 1 => pending[i].1 -= 1,
            Some(i) => {
                pending.swap_remove(i);
            }
            None => self.ctx[me as usize].waiting_recv_from = from,
        }
    }

    /// Marks one message from `src` delivered at `dst`: wakes the blocked
    /// sender, then hands the message to a receive posted on `src` (waking
    /// the receiver) or adds it to `dst`'s pending count. Sender first —
    /// wake order feeds the FIFO and is part of the determinism contract.
    pub(crate) fn deliver(&mut self, src: u32, dst: u32) {
        let c = &mut self.ctx[src as usize];
        if c.waiting_send {
            c.waiting_send = false;
            if self.runnable(src) {
                self.runnable.push_back(src);
            }
        }
        let c = &mut self.ctx[dst as usize];
        if c.waiting_recv_from == src {
            c.waiting_recv_from = NO_RECV;
            if self.runnable(dst) {
                self.runnable.push_back(dst);
            }
        } else if let Some(e) = self.pending[dst as usize].iter_mut().find(|e| e.0 == src) {
            e.1 += 1;
        } else {
            self.pending[dst as usize].push((src, 1));
        }
    }

    /// A compute timer elapsed for rank `r`.
    pub(crate) fn compute_done(&mut self, r: u32) {
        self.ctx[r as usize].computing = false;
        if self.runnable(r) {
            self.runnable.push_back(r);
        }
    }

    /// The first op, in rank then program order, naming a peer outside
    /// `0..n`: `(rank, op index, peer)`.
    pub(crate) fn first_unknown_peer(&self) -> Option<(u32, usize, u32)> {
        let known = |p: &u32| (*p as usize) < self.programs.len();
        self.programs.iter().enumerate().find_map(|(r, prog)| {
            prog.iter().enumerate().find_map(|(i, op)| {
                let peers = match *op {
                    Op::Compute(_) => [None, None],
                    Op::Send { to, .. } => [Some(to), None],
                    Op::Recv { from } => [Some(from), None],
                    Op::SendRecv { to, from, .. } => [Some(to), Some(from)],
                };
                let peer = peers.into_iter().flatten().find(|p| !known(p))?;
                Some((r as u32, i, peer))
            })
        })
    }

    /// The rank programs, as given (execution never edits them).
    pub(crate) fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Network sends in the programs: the most flows they can issue.
    pub(crate) fn sends(&self) -> usize {
        let is_send = |op: &&Op| matches!(op, Op::Send { .. } | Op::SendRecv { .. });
        self.programs.iter().flatten().filter(is_send).count()
    }

    /// Serializes the rank contexts, the pending channels as key-sorted
    /// `(src, dst, delivered = pending, consumed = 0)`, the posted
    /// receives as key-sorted `(src, dst, dst)` and the runnable FIFO in
    /// order: the layout hashed matching wrote, so old files still load.
    /// Programs are configuration, echoed by the engine as a checksum.
    pub(crate) fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.ctx.len() as u64);
        for c in &self.ctx {
            enc.put_u32(c.pc);
            enc.put_bool(c.waiting_send);
            enc.put_u32(c.send_to);
            enc.put_u32(c.waiting_recv_from);
            enc.put_bool(c.computing);
            enc.put_bool(c.done);
        }
        let mut chans: Vec<[u32; 4]> = (0..)
            .zip(&self.pending)
            .flat_map(|(dst, p)| p.iter().map(move |&(src, k)| [src, dst, k, 0]))
            .collect();
        chans.sort_unstable();
        enc.put_u64(chans.len() as u64);
        chans.iter().flatten().for_each(|&v| enc.put_u32(v));
        let posted = posted(&self.ctx);
        enc.put_u64(posted.len() as u64);
        for (src, dst) in posted {
            [src, dst, dst].into_iter().for_each(|v| enc.put_u32(v));
        }
        enc.put_u32_slice(&self.runnable.iter().copied().collect::<Vec<_>>());
    }

    /// Restores state written by [`Ranks::encode_state`] over the same
    /// programs (drained channels are skipped). Every rank must lie in
    /// `0..n`, and the posted receives must be those the contexts imply.
    pub(crate) fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CkptError> {
        let bad = |what: &str| Err(CkptError::BadSection(format!("ranks: {what}")));
        let n = self.ctx.len();
        let out = |r: u32| r as usize >= n;
        if dec.get_u64()? != n as u64 {
            return bad(&format!("context count is not {n}"));
        }
        let mut ctx = Vec::with_capacity(n);
        for r in 0..n {
            let c = RankCtx {
                pc: dec.get_u32()?,
                waiting_send: dec.get_bool()?,
                send_to: dec.get_u32()?,
                waiting_recv_from: dec.get_u32()?,
                computing: dec.get_bool()?,
                done: dec.get_bool()?,
            };
            if c.pc as usize > self.programs[r].len() || out(c.send_to) {
                return bad(&format!("rank {r}: pc or send destination out of range"));
            }
            ctx.push(c);
        }
        let mut pending = vec![Vec::new(); n];
        let mut last = None;
        for _ in 0..dec.get_len(16)? {
            let (src, dst) = (dec.get_u32()?, dec.get_u32()?);
            let (delivered, consumed) = (dec.get_u32()?, dec.get_u32()?);
            if out(src) || out(dst) || last >= Some((src, dst)) {
                return bad("channel out of range or out of order");
            }
            if consumed > delivered {
                return bad("channel consumed more than delivered");
            }
            last = Some((src, dst));
            if delivered > consumed {
                pending[dst as usize].push((src, delivered - consumed));
            }
        }
        let posted = posted(&ctx);
        if dec.get_u64()? != posted.len() as u64 {
            return bad("posted receives disagree with the contexts");
        }
        for (src, dst) in posted {
            if out(src) || (dec.get_u32()?, dec.get_u32()?, dec.get_u32()?) != (src, dst, dst) {
                return bad("posted receives disagree with the contexts");
            }
        }
        let runnable = VecDeque::from(dec.get_u32_vec()?);
        if runnable.iter().any(|&r| out(r)) {
            return bad("runnable rank out of range");
        }
        self.finished = ctx.iter().filter(|c| c.done).count();
        self.ctx = ctx;
        self.pending = pending;
        self.runnable = runnable;
        Ok(())
    }

    /// Every unfinished rank with the reason it cannot progress, in
    /// rank order — the payload of the deadlock/stall errors.
    pub(crate) fn blocked(&self) -> Vec<BlockedRank> {
        (0..self.ctx.len() as u32)
            .filter(|&r| !self.ctx[r as usize].done)
            .map(|r| {
                let c = &self.ctx[r as usize];
                let reason = match (c.waiting_send, c.waiting_recv_from != NO_RECV) {
                    (true, true) => WaitReason::SendRecv {
                        to: c.send_to,
                        from: c.waiting_recv_from,
                    },
                    (true, false) => WaitReason::SendDelivery { to: c.send_to },
                    (false, true) => WaitReason::Recv {
                        from: c.waiting_recv_from,
                    },
                    (false, false) => WaitReason::Compute,
                };
                BlockedRank { rank: r, reason }
            })
            .collect()
    }
}

/// Posted receives as key-sorted `(src, dst)` pairs.
fn posted(ctx: &[RankCtx]) -> Vec<(u32, u32)> {
    let mut rx: Vec<(u32, u32)> = (0..)
        .zip(ctx)
        .filter(|(_, c)| c.waiting_recv_from != NO_RECV)
        .map(|(dst, c)| (c.waiting_recv_from, dst))
        .collect();
    rx.sort_unstable();
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: f64 = 1e3;

    /// Runs every runnable rank until it blocks, as the engine does (a
    /// `SendRecv` posts its receive right after issuing its send).
    fn drain(r: &mut Ranks) {
        while let Some(x) = r.pop_runnable() {
            loop {
                match r.step(x) {
                    Step::Idle => break,
                    Step::SendRecv { from, .. } => r.try_recv(x, from),
                    Step::Compute { .. } | Step::Send { .. } => {}
                }
            }
        }
    }

    fn started(programs: Vec<Program>) -> Ranks {
        let mut r = Ranks::new(programs);
        r.enqueue_all();
        drain(&mut r);
        r
    }

    fn reasons(r: &Ranks) -> Vec<(u32, WaitReason)> {
        r.blocked().iter().map(|b| (b.rank, b.reason)).collect()
    }

    #[test]
    fn message_delivered_before_its_receive_is_posted_waits_as_pending() {
        let mut r = started(vec![
            vec![Op::Send { to: 1, bytes: B }],
            vec![Op::Compute(1.0), Op::Recv { from: 0 }],
        ]);
        r.deliver(0, 1);
        assert_eq!(r.pending[1], [(0, 1)], "no receive posted yet");
        drain(&mut r);
        assert!(r.is_done(0), "the sender resumed on delivery");
        r.compute_done(1);
        drain(&mut r);
        assert!(r.all_done(), "the receive consumed the pending message");
        assert!(
            r.pending.iter().all(Vec::is_empty),
            "drained channels keep no state"
        );
    }

    #[test]
    fn two_messages_pend_on_one_channel_as_a_count() {
        let mut r = started(vec![
            vec![Op::Send { to: 1, bytes: B }, Op::Send { to: 1, bytes: B }],
            vec![
                Op::Compute(1.0),
                Op::Recv { from: 0 },
                Op::Recv { from: 0 },
                Op::Recv { from: 0 },
            ],
        ]);
        r.deliver(0, 1);
        drain(&mut r);
        r.deliver(0, 1);
        drain(&mut r);
        assert_eq!(r.pending[1], [(0, 2)]);
        r.compute_done(1);
        drain(&mut r);
        // both pending messages received, the third receive is posted
        assert_eq!(reasons(&r), [(1, WaitReason::Recv { from: 0 })]);
        assert!(r.pending[1].is_empty());
        r.deliver(0, 1);
        assert_eq!(r.pop_runnable(), Some(1));
    }

    #[test]
    fn sendrecv_consumes_a_receive_half_delivered_earlier() {
        let mut r = started(vec![
            vec![
                Op::Compute(1.0),
                Op::SendRecv {
                    to: 1,
                    bytes: B,
                    from: 1,
                },
            ],
            vec![Op::Send { to: 0, bytes: B }, Op::Recv { from: 0 }],
        ]);
        r.deliver(1, 0);
        assert_eq!(r.pending[0], [(1, 1)]);
        drain(&mut r);
        r.compute_done(0);
        drain(&mut r);
        assert!(r.pending[0].is_empty(), "the receive half took the message");
        assert_eq!(
            reasons(&r),
            [
                (0, WaitReason::SendDelivery { to: 1 }),
                (1, WaitReason::Recv { from: 0 })
            ]
        );
        r.deliver(0, 1);
        drain(&mut r);
        assert!(r.all_done());
    }

    #[test]
    fn delivery_wakes_the_sender_before_the_receiver() {
        for (src, dst) in [(0, 1), (1, 0)] {
            let mut programs = vec![Vec::new(), Vec::new()];
            programs[src as usize] = vec![Op::Send { to: dst, bytes: B }];
            programs[dst as usize] = vec![Op::Recv { from: src }];
            let mut r = started(programs);
            r.deliver(src, dst);
            assert_eq!(r.pop_runnable(), Some(src), "sender first");
            assert_eq!(r.pop_runnable(), Some(dst));
            assert_eq!(r.pop_runnable(), None);
        }
    }

    #[test]
    fn finished_count_matches_the_scan_after_a_resume() {
        let scan = |r: &Ranks| r.ctx.iter().filter(|c| c.done).count();
        let programs = vec![
            vec![Op::Send { to: 1, bytes: B }],
            vec![Op::Recv { from: 0 }, Op::Recv { from: 2 }],
            vec![],
            vec![Op::Compute(1.0)],
        ];
        let mut r = started(programs.clone());
        r.deliver(0, 1);
        drain(&mut r);
        // ranks 0 and 2 ended, 1 waits on 2's message, 3 computes
        assert_eq!((r.finished, scan(&r)), (2, 2));
        let mut enc = Encoder::new();
        r.encode_state(&mut enc);
        let mut resumed = Ranks::new(programs);
        resumed
            .decode_state(&mut Decoder::new(&enc.into_bytes()))
            .unwrap();
        assert_eq!((resumed.finished, scan(&resumed)), (2, 2));
        assert!(!resumed.all_done());
        resumed.deliver(2, 1);
        resumed.compute_done(3);
        drain(&mut resumed);
        assert_eq!((resumed.finished, scan(&resumed)), (4, 4));
        assert!(resumed.all_done());
    }

    /// A rank section in the checkpoint layout, written out by hand.
    fn section(ctx: &[RankCtx], chans: &[[u32; 4]], rx: &[[u32; 3]], runnable: &[u32]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(ctx.len() as u64);
        for c in ctx {
            enc.put_u32(c.pc);
            enc.put_bool(c.waiting_send);
            enc.put_u32(c.send_to);
            enc.put_u32(c.waiting_recv_from);
            enc.put_bool(c.computing);
            enc.put_bool(c.done);
        }
        enc.put_u64(chans.len() as u64);
        chans.iter().flatten().for_each(|&v| enc.put_u32(v));
        enc.put_u64(rx.len() as u64);
        rx.iter().flatten().for_each(|&v| enc.put_u32(v));
        enc.put_u32_slice(runnable);
        enc.into_bytes()
    }

    #[test]
    fn hashed_matcher_sections_decode_to_their_pending_state() {
        let programs = vec![
            vec![
                Op::Send { to: 1, bytes: B },
                Op::Send { to: 2, bytes: B },
                Op::Send { to: 2, bytes: B },
            ],
            vec![Op::Recv { from: 0 }, Op::Recv { from: 2 }],
            vec![
                Op::Compute(1.0),
                Op::Recv { from: 0 },
                Op::Recv { from: 0 },
                Op::Send { to: 1, bytes: B },
            ],
        ];
        let ctx = |pc, waiting_recv_from, computing, done| RankCtx {
            pc,
            waiting_recv_from,
            computing,
            done,
            ..Default::default()
        };
        // rank 0 done, rank 1 posted on 2, rank 2 computing with both of
        // rank 0's messages pending
        let ctxs = [
            ctx(3, NO_RECV, false, true),
            ctx(2, 2, false, false),
            ctx(1, NO_RECV, true, false),
        ];
        // the hashed matcher listed every channel it had ever touched
        let old = section(
            &ctxs,
            &[[0, 1, 1, 1], [0, 2, 3, 1], [2, 1, 0, 0]],
            &[[2, 1, 1]],
            &[],
        );
        let mut r = Ranks::new(programs.clone());
        r.decode_state(&mut Decoder::new(&old)).unwrap();
        assert_eq!(r.pending, [vec![], vec![], vec![(0, 2)]]);
        let mut enc = Encoder::new();
        r.encode_state(&mut enc);
        let new = section(&ctxs, &[[0, 2, 2, 0]], &[[2, 1, 1]], &[]);
        assert_eq!(enc.into_bytes(), new, "only the pending channel remains");
        r.compute_done(2);
        drain(&mut r);
        assert_eq!(
            reasons(&r),
            [
                (1, WaitReason::Recv { from: 2 }),
                (2, WaitReason::SendDelivery { to: 1 })
            ]
        );
        r.deliver(2, 1);
        drain(&mut r);
        assert!(r.all_done());

        let rejects = |chans: &[[u32; 4]], rx: &[[u32; 3]], runnable: &[u32]| {
            let bytes = section(&ctxs, chans, rx, runnable);
            let mut r = Ranks::new(programs.clone());
            match r.decode_state(&mut Decoder::new(&bytes)) {
                Err(CkptError::BadSection(msg)) => msg,
                other => panic!("expected BadSection, got {other:?}"),
            }
        };
        let rx = [[2, 1, 1]];
        let msg = rejects(&[[0, 3, 1, 0]], &rx, &[]);
        assert!(msg.contains("out of range"), "{msg}");
        let msg = rejects(&[[0, 2, 1, 0], [0, 2, 1, 0]], &rx, &[]);
        assert!(msg.contains("out of order"), "{msg}");
        let msg = rejects(&[[0, 2, 0, 1]], &rx, &[]);
        assert!(msg.contains("consumed more"), "{msg}");
        for rx in [&[][..], &[[0, 1, 1]], &[[2, 1, 0]], &[[2, 1, 1], [2, 1, 1]]] {
            let msg = rejects(&[], rx, &[]);
            assert!(msg.contains("posted receives"), "{msg}");
        }
        let msg = rejects(&[], &rx, &[3]);
        assert!(msg.contains("runnable"), "{msg}");
    }
}
