//! Double-buffered per-node mailboxes, the per-round broadcast arena,
//! and the sender-sorted [`Inbox`] view protocols read from.
//!
//! **Direct messages** committed in round `r` are routed straight into
//! the destination's **back** mailbox; because the commit fold visits
//! senders in ascending id order (each sender's sends in call order),
//! every mailbox is born sorted by sender and needs no per-inbox sort.
//!
//! **Broadcasts** are the flood fabric: one `Context::send_all` /
//! `send_all_except` call commits a **single** [`BcastRec`] into the
//! round's broadcast arena — one payload copy per broadcasting op, no
//! matter the sender's degree — and *activates* each addressed neighbor
//! with a counter bump. The payload is never copied again: receivers
//! read it by reference through the [`Inbox`] view, which lazily merges
//! the node's direct buffer with the arena records addressed to it
//! (arena records from sender `s` address exactly `s`'s neighbors minus
//! the record's `skip`). Flood routing therefore costs `O(#broadcasts)`
//! payload moves per round instead of `O(Σ deg)`.
//!
//! At the end of the round [`Mailboxes::seal`] flips the buffers: the
//! consumed front mailboxes, arena, ranges, and counters are cleared
//! (keeping capacity), front and back swap, and the touched-destination
//! list becomes the next round's message-driven active set — ascending,
//! duplicate-free, and built without any scan over all `n` inboxes.
//!
//! Every direct message is moved exactly once (sender effects →
//! destination mailbox), every broadcast payload exactly once (sender
//! effects → arena), and all buffers are arena-style: allocated once,
//! reused every round, capacity-stable after warm-up.

use crate::{NodeId, Payload, SimError};

/// One adversary-delayed message parked in virtual time until its due
/// round (see [`Mailboxes::stage_delayed`]).
#[derive(Debug)]
struct DelayedMsg<M> {
    /// Round at whose start the message is re-injected.
    due: usize,
    /// Sender.
    from: NodeId,
    /// The sender's op sequence number at send time.
    seq: u32,
    /// Recipient.
    to: NodeId,
    /// The payload.
    msg: M,
}

/// One staged broadcast: a single payload copy addressed to every
/// neighbor of the sender except `skip`.
#[derive(Debug)]
pub(crate) struct BcastRec<M> {
    /// The sender's op sequence number (interleaves with direct sends).
    pub(crate) seq: u32,
    /// Excluded neighbor, if any (`Context::send_all_except`).
    pub(crate) skip: Option<NodeId>,
    /// The payload — stored once, read by reference by every receiver.
    pub(crate) msg: M,
}

/// The engine's mailboxes; see the module docs.
#[derive(Debug)]
pub(crate) struct Mailboxes<M> {
    /// Front buffers: the current round's direct inboxes,
    /// `(sender, op seq, message)` sorted by `(sender, seq)`. Only
    /// indices listed in `ready` are non-empty.
    front: Vec<Vec<(NodeId, u32, M)>>,
    /// Back buffers: next round's direct inboxes, filled by
    /// [`stage`](Self::stage).
    back: Vec<Vec<(NodeId, u32, M)>>,
    /// Current round's broadcast arena, sender-contiguous in ascending
    /// sender order (the commit fold's order).
    recs_front: Vec<BcastRec<M>>,
    /// Next round's broadcast arena.
    recs_back: Vec<BcastRec<M>>,
    /// Per-sender `(start, len)` into `recs_front`.
    ranges_front: Vec<(u32, u32)>,
    /// Per-sender `(start, len)` into `recs_back`.
    ranges_back: Vec<(u32, u32)>,
    /// Senders with a non-empty front range (for O(#senders) clearing).
    senders_front: Vec<NodeId>,
    /// Senders with a non-empty back range.
    senders_back: Vec<NodeId>,
    /// Per-receiver count of front-arena records addressed to it.
    bcount_front: Vec<u32>,
    /// Per-receiver count of back-arena records addressed to it.
    bcount_back: Vec<u32>,
    /// Destinations staged this round (unsorted, duplicate-free).
    touched: Vec<NodeId>,
    /// Sealed `(node, delivered count)` list, ascending by node id — the
    /// message-driven active set of the current round. The count covers
    /// direct messages **and** addressed broadcast records.
    ready: Vec<(NodeId, usize)>,
    /// Adversary-delayed messages waiting for their due round
    /// (insertion order = the commit order of the rounds that delayed
    /// them, which keeps re-injection deterministic).
    delayed: Vec<DelayedMsg<M>>,
}

impl<M: Payload> Mailboxes<M> {
    /// Empty mailboxes for an `n`-node network.
    pub(crate) fn new(n: usize) -> Self {
        Mailboxes {
            front: (0..n).map(|_| Vec::new()).collect(),
            back: (0..n).map(|_| Vec::new()).collect(),
            recs_front: Vec::new(),
            recs_back: Vec::new(),
            ranges_front: vec![(0, 0); n],
            ranges_back: vec![(0, 0); n],
            senders_front: Vec::new(),
            senders_back: Vec::new(),
            bcount_front: vec![0; n],
            bcount_back: vec![0; n],
            touched: Vec::new(),
            ready: Vec::new(),
            delayed: Vec::new(),
        }
    }

    /// Readies recycled mailboxes for a fresh `n`-node network.
    ///
    /// Every buffer is cleared — the previous run may have errored
    /// mid-round with staged state — and the per-node arrays are resized
    /// to `n`, keeping all surviving allocation capacity. This is the
    /// engine-level half of [`crate::EngineScratch`]: a phase that runs
    /// many same-message-type networks back to back (the `√n` Phase 1
    /// classes, DHC2's merge levels) pays the mailbox allocations once
    /// instead of once per network.
    pub(crate) fn recycle(&mut self, n: usize) {
        for b in &mut self.front {
            b.clear();
        }
        for b in &mut self.back {
            b.clear();
        }
        self.front.resize_with(n, Vec::new);
        self.back.resize_with(n, Vec::new);
        self.recs_front.clear();
        self.recs_back.clear();
        self.ranges_front.clear();
        self.ranges_front.resize(n, (0, 0));
        self.ranges_back.clear();
        self.ranges_back.resize(n, (0, 0));
        self.senders_front.clear();
        self.senders_back.clear();
        self.bcount_front.clear();
        self.bcount_front.resize(n, 0);
        self.bcount_back.clear();
        self.bcount_back.resize(n, 0);
        self.touched.clear();
        self.ready.clear();
        self.delayed.clear();
    }

    /// Allocated footprint of every buffer, in bytes: both inbox banks
    /// (outer spine + per-node capacity), both broadcast arenas, the
    /// range/counter arrays, and the scheduling lists. Capacities only
    /// grow during a run, so a finish-time sample *is* the run's peak.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let slot = size_of::<Vec<(NodeId, u32, M)>>();
        let entry = size_of::<(NodeId, u32, M)>();
        let inboxes = (self.front.capacity() + self.back.capacity()) * slot
            + self.front.iter().chain(&self.back).map(|b| b.capacity() * entry).sum::<usize>();
        let arena =
            (self.recs_front.capacity() + self.recs_back.capacity()) * size_of::<BcastRec<M>>();
        let per_node = (self.ranges_front.capacity() + self.ranges_back.capacity())
            * size_of::<(u32, u32)>()
            + (self.bcount_front.capacity() + self.bcount_back.capacity()) * size_of::<u32>();
        let sched = (self.senders_front.capacity()
            + self.senders_back.capacity()
            + self.touched.capacity())
            * size_of::<NodeId>()
            + self.ready.capacity() * size_of::<(NodeId, usize)>()
            + self.delayed.capacity() * size_of::<DelayedMsg<M>>();
        inboxes + arena + per_node + sched
    }

    /// Records `to` as activated next round, if it was not already.
    fn note_touch(&mut self, to: NodeId) {
        if self.back[(to) as usize].is_empty() && self.bcount_back[(to) as usize] == 0 {
            self.touched.push(to);
        }
    }

    /// Stages one direct message for delivery next round. Called by the
    /// commit fold in deterministic order (senders ascending, each
    /// sender's ops by ascending `seq`), so each mailbox ends up sorted
    /// by `(sender, seq)`.
    pub(crate) fn stage(&mut self, from: NodeId, seq: u32, to: NodeId, msg: M) {
        self.note_touch(to);
        self.back[(to) as usize].push((from, seq, msg));
    }

    /// Stages one broadcast record (a single payload copy). The caller —
    /// the commit fold — must pair this with one
    /// [`deliver`](Self::deliver) per addressed neighbor; the fold
    /// commits each sender's broadcasts contiguously, so the per-sender
    /// arena range stays contiguous.
    pub(crate) fn stage_broadcast(&mut self, from: NodeId, seq: u32, skip: Option<NodeId>, msg: M) {
        let idx = self.recs_back.len() as u32;
        let (start, len) = &mut self.ranges_back[(from) as usize];
        if *len == 0 {
            *start = idx;
            self.senders_back.push(from);
        }
        *len += 1;
        self.recs_back.push(BcastRec { seq, skip, msg });
    }

    /// Activates `to` as the receiver of one staged broadcast record —
    /// a counter bump, no payload copy.
    pub(crate) fn deliver(&mut self, to: NodeId) {
        self.note_touch(to);
        self.bcount_back[(to) as usize] += 1;
    }

    /// Flips the buffers: clears the consumed front inboxes and arena
    /// (keeping capacity), promotes the staged back buffers to front,
    /// and rebuilds the ready list for the next round.
    pub(crate) fn seal(&mut self) {
        for &(v, _) in &self.ready {
            self.front[(v) as usize].clear();
            self.bcount_front[(v) as usize] = 0;
        }
        self.recs_front.clear();
        for &s in &self.senders_front {
            self.ranges_front[(s) as usize] = (0, 0);
        }
        self.senders_front.clear();
        std::mem::swap(&mut self.front, &mut self.back);
        std::mem::swap(&mut self.recs_front, &mut self.recs_back);
        std::mem::swap(&mut self.ranges_front, &mut self.ranges_back);
        std::mem::swap(&mut self.senders_front, &mut self.senders_back);
        std::mem::swap(&mut self.bcount_front, &mut self.bcount_back);
        self.touched.sort_unstable();
        self.ready.clear();
        self.ready.extend(self.touched.iter().map(|&d| {
            (d, self.front[(d) as usize].len() + self.bcount_front[(d) as usize] as usize)
        }));
        self.touched.clear();
    }

    /// The sealed `(node, delivered count)` list: every node with mail
    /// or addressed broadcasts this round, ascending.
    pub(crate) fn ready(&self) -> &[(NodeId, usize)] {
        &self.ready
    }

    /// Parks one adversary-delayed message until the start of round
    /// `due`. Called by the commit fold in deterministic order.
    pub(crate) fn stage_delayed(&mut self, due: usize, from: NodeId, seq: u32, to: NodeId, msg: M) {
        self.delayed.push(DelayedMsg { due, from, seq, to, msg });
    }

    /// Earliest due round among parked messages, if any — a wake source
    /// for the engine's quiescent fast-forward.
    pub(crate) fn next_due(&self) -> Option<usize> {
        self.delayed.iter().map(|d| d.due).min()
    }

    /// Re-injects every parked message due at or before `round` into the
    /// **front** (current-round) inboxes, charging each against the
    /// arrival round's per-edge budget.
    ///
    /// Everything arriving on a directed edge in one round — freshly
    /// delivered messages plus re-injected delayed ones — must fit the
    /// edge budget; a violation surfaces as the ordinary
    /// [`SimError::BandwidthExceeded`], never a silent queue. (Under an
    /// active adversary broadcasts are committed as per-destination
    /// direct messages, so the front buffers are the complete arrival
    /// set and this check is exhaustive.)
    pub(crate) fn inject_due(&mut self, round: usize, budget: usize) -> Result<(), SimError> {
        if self.delayed.iter().all(|d| d.due > round) {
            return Ok(());
        }
        let mut rest = Vec::with_capacity(self.delayed.len());
        let mut due = Vec::new();
        for d in self.delayed.drain(..) {
            if d.due <= round {
                due.push(d);
            } else {
                rest.push(d);
            }
        }
        self.delayed = rest;

        // Per-edge arrival charge: base = fresh same-sender words already
        // in the destination's front buffer, then each injected copy adds
        // its own words. Checked in injection order, which is itself
        // commit order — deterministic first violation.
        let mut charged: Vec<(NodeId, NodeId, usize)> = Vec::new();
        for d in &due {
            let w = d.msg.words().max(1);
            let acc = match charged.iter_mut().find(|e| (e.0, e.1) == (d.from, d.to)) {
                Some(e) => {
                    e.2 += w;
                    e.2
                }
                None => {
                    let base: usize = self.front[(d.to) as usize]
                        .iter()
                        .filter(|&&(f, _, _)| f == d.from)
                        .map(|(_, _, m)| m.words().max(1))
                        .sum();
                    charged.push((d.from, d.to, base + w));
                    base + w
                }
            };
            if acc > budget {
                return Err(SimError::BandwidthExceeded {
                    from: d.from,
                    to: d.to,
                    round,
                    attempted_words: acc,
                    budget_words: budget,
                });
            }
        }

        let mut hit: Vec<NodeId> = Vec::new();
        for d in due {
            if !hit.contains(&d.to) {
                hit.push(d.to);
            }
            self.front[(d.to) as usize].push((d.from, d.seq, d.msg));
        }
        for to in hit {
            // Stable sort: on `(sender, seq)` ties the fresh message
            // (staged first) keeps priority over the late one.
            self.front[(to) as usize].sort_by_key(|&(f, s, _)| (f, s));
            let count = self.front[(to) as usize].len() + self.bcount_front[(to) as usize] as usize;
            // Keep `ready` consistent so the engine activates `to` and
            // the next `seal` clears the injected buffer.
            match self.ready.binary_search_by_key(&to, |&(v, _)| v) {
                Ok(i) => self.ready[i].1 = count,
                Err(i) => self.ready.insert(i, (to, count)),
            }
        }
        Ok(())
    }

    /// One node's merged inbox view for the current round. `nbrs` must
    /// be the node's sorted neighbor slice — it is how the view resolves
    /// which arena records address the node.
    pub(crate) fn inbox<'a>(&'a self, v: NodeId, nbrs: &'a [NodeId]) -> Inbox<'a, M> {
        let bcount = self.bcount_front[(v) as usize] as usize;
        Inbox {
            direct: &self.front[(v) as usize],
            recs: &self.recs_front,
            ranges: &self.ranges_front,
            // With no addressed broadcasts the merge degenerates to the
            // direct buffer; dropping the neighbor slice makes iteration
            // skip the arena probe entirely.
            nbrs: if bcount == 0 { &[] } else { nbrs },
            me: v,
            len: self.front[(v) as usize].len() + bcount,
        }
    }
}

/// One round's delivered messages for one node: a lightweight
/// sender-sorted view merging the node's direct-message buffer with the
/// broadcast-arena records addressed to it.
///
/// Handed to [`Protocol::round`](crate::Protocol::round). Messages are
/// ordered by `(sender id, sender's call order)` — exactly the order a
/// per-neighbor unicast expansion of every broadcast would have produced
/// — and broadcast payloads are read **by reference** from the arena,
/// never re-copied per receiver.
///
/// The view is `Copy`; iterate it any number of times with
/// [`iter`](Inbox::iter) (or `for (from, msg) in &inbox`).
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a, M: Payload> {
    /// Direct messages `(sender, op seq, message)`, `(sender, seq)`-sorted.
    direct: &'a [(NodeId, u32, M)],
    /// The round's broadcast arena (all senders).
    recs: &'a [BcastRec<M>],
    /// Per-sender `(start, len)` into `recs`.
    ranges: &'a [(u32, u32)],
    /// This node's sorted neighbor slice (empty when no broadcast
    /// addresses the node).
    nbrs: &'a [NodeId],
    /// This node's id (to honor per-record `skip`).
    me: NodeId,
    /// Total delivered messages (direct + addressed broadcasts).
    len: usize,
}

impl<'a, M: Payload> Inbox<'a, M> {
    /// Number of messages delivered this round.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no message was delivered (wake-up-only activation).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the messages as `(sender, &message)`, sorted by sender
    /// id (ties between one sender's messages keep that sender's call
    /// order).
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            direct: self.direct,
            di: 0,
            recs: self.recs,
            ranges: self.ranges,
            nbrs: self.nbrs,
            ni: 0,
            cur_sender: 0,
            cur: 0,
            cur_end: 0,
            me: self.me,
        }
    }
}

impl<'a, M: Payload> IntoIterator for &Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

impl<'a, M: Payload> IntoIterator for Inbox<'a, M> {
    type Item = (NodeId, &'a M);
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]: a two-pointer merge of the direct buffer
/// and the addressed broadcast records, both `(sender, seq)`-ascending.
#[derive(Debug)]
pub struct InboxIter<'a, M: Payload> {
    direct: &'a [(NodeId, u32, M)],
    di: usize,
    recs: &'a [BcastRec<M>],
    ranges: &'a [(u32, u32)],
    nbrs: &'a [NodeId],
    ni: usize,
    cur_sender: NodeId,
    cur: u32,
    cur_end: u32,
    me: NodeId,
}

impl<M: Payload> InboxIter<'_, M> {
    /// Positions the broadcast cursor on the next record addressed to
    /// this node, returning its `(sender, seq)` without consuming it.
    fn peek_bcast(&mut self) -> Option<(NodeId, u32)> {
        loop {
            while self.cur < self.cur_end {
                let rec = &self.recs[self.cur as usize];
                if rec.skip == Some(self.me) {
                    self.cur += 1;
                } else {
                    return Some((self.cur_sender, rec.seq));
                }
            }
            loop {
                let &s = self.nbrs.get(self.ni)?;
                self.ni += 1;
                let (start, len) = self.ranges[(s) as usize];
                if len > 0 {
                    self.cur_sender = s;
                    self.cur = start;
                    self.cur_end = start + len;
                    break;
                }
            }
        }
    }
}

impl<'a, M: Payload> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        let bcast = self.peek_bcast();
        match (self.direct.get(self.di), bcast) {
            (Some(&(from, seq, ref msg)), Some((bfrom, bseq))) => {
                if (from, seq) <= (bfrom, bseq) {
                    self.di += 1;
                    Some((from, msg))
                } else {
                    let rec = &self.recs[self.cur as usize];
                    self.cur += 1;
                    Some((bfrom, &rec.msg))
                }
            }
            (Some(&(from, _, ref msg)), None) => {
                self.di += 1;
                Some((from, msg))
            }
            (None, Some((bfrom, _))) => {
                let rec = &self.recs[self.cur as usize];
                self.cur += 1;
                Some((bfrom, &rec.msg))
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(inbox: Inbox<'_, u64>) -> Vec<(NodeId, u64)> {
        inbox.iter().map(|(from, &m)| (from, m)).collect()
    }

    #[test]
    fn seal_groups_by_destination_with_senders_in_commit_order() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(5);
        // Commit order: sender 0 then sender 2 then sender 4.
        mb.stage(0, 0, 3, 10);
        mb.stage(0, 1, 1, 11);
        mb.stage(2, 0, 3, 12);
        mb.stage(4, 0, 1, 13);
        mb.stage(4, 1, 1, 14);
        mb.seal();
        assert_eq!(mb.ready(), &[(1, 3), (3, 2)]);
        assert_eq!(collect(mb.inbox(1, &[0, 4])), vec![(0, 11), (4, 13), (4, 14)]);
        assert_eq!(collect(mb.inbox(3, &[0, 2])), vec![(0, 10), (2, 12)]);
    }

    #[test]
    fn seal_twice_clears_previous_round() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(3);
        mb.stage(0, 0, 1, 1);
        mb.seal();
        assert_eq!(mb.ready().len(), 1);
        mb.seal();
        assert!(mb.ready().is_empty());
        assert!(mb.inbox(1, &[0, 2]).is_empty());
        mb.stage(1, 0, 2, 9);
        mb.seal();
        assert_eq!(mb.ready(), &[(2, 1)]);
        assert_eq!(collect(mb.inbox(2, &[1])), vec![(1, 9)]);
    }

    #[test]
    fn buffers_are_reused_across_rounds() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        for round in 0..4 {
            mb.stage(0, 0, 1, round);
            mb.seal();
            assert_eq!(collect(mb.inbox(1, &[0])), vec![(0, round)]);
        }
        // After the first two rounds both buffers are warm; capacity is
        // retained through clear + swap.
        assert!(mb.front[1].capacity() >= 1 && mb.back[1].capacity() >= 1);
    }

    /// Broadcast staging: one record, counter-bump activations, payload
    /// visible to every addressed neighbor through the inbox view.
    #[test]
    fn broadcast_is_stored_once_and_merged_per_receiver() {
        // Path 0-1-2-3; node 1 broadcasts, node 3 unicasts to 2.
        let mut mb: Mailboxes<u64> = Mailboxes::new(4);
        mb.stage_broadcast(1, 0, None, 77);
        mb.deliver(0);
        mb.deliver(2);
        mb.stage(3, 0, 2, 88);
        mb.seal();
        assert_eq!(mb.recs_front.len(), 1, "one payload copy for the broadcast");
        assert_eq!(mb.ready(), &[(0, 1), (2, 2)]);
        assert_eq!(collect(mb.inbox(0, &[1])), vec![(1, 77)]);
        assert_eq!(collect(mb.inbox(2, &[1, 3])), vec![(1, 77), (3, 88)]);
    }

    /// A record's `skip` hides it from exactly that receiver, and the
    /// per-sender op sequence interleaves broadcasts with direct sends.
    #[test]
    fn skip_and_seq_interleaving() {
        // Triangle 0-1-2. Node 0's ops: send(1, a); send_all_except(2, b);
        // send(1, c)  => node 1 sees a, b, c; node 2 sees nothing from
        // the broadcast.
        let mut mb: Mailboxes<u64> = Mailboxes::new(3);
        mb.stage(0, 0, 1, 100);
        mb.stage_broadcast(0, 1, Some(2), 200);
        mb.deliver(1);
        mb.stage(0, 2, 1, 300);
        mb.seal();
        assert_eq!(collect(mb.inbox(1, &[0, 2])), vec![(0, 100), (0, 200), (0, 300)]);
        assert_eq!(mb.ready(), &[(1, 3)]);
    }

    #[test]
    fn delayed_messages_wait_for_their_round_and_merge_in_order() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(3);
        mb.stage_delayed(3, 0, 0, 2, 50);
        assert_eq!(mb.next_due(), Some(3));
        // Round 2: nothing due yet.
        mb.stage(1, 0, 2, 40);
        mb.seal();
        mb.inject_due(2, 4).unwrap();
        assert_eq!(collect(mb.inbox(2, &[0, 1])), vec![(1, 40)]);
        assert_eq!(mb.next_due(), Some(3));
        // Round 3: the delayed message lands and sorts before the fresh
        // one (sender 0 < sender 1), and `ready` picks up node 2.
        mb.stage(1, 0, 2, 41);
        mb.seal();
        mb.inject_due(3, 4).unwrap();
        assert_eq!(mb.next_due(), None);
        assert_eq!(mb.ready(), &[(2, 2)]);
        assert_eq!(collect(mb.inbox(2, &[0, 1])), vec![(0, 50), (1, 41)]);
        // Round 4: the injected buffer was cleared by the next seal.
        mb.seal();
        assert!(mb.ready().is_empty());
        assert!(mb.inbox(2, &[0, 1]).is_empty());
    }

    #[test]
    fn injection_activates_an_otherwise_idle_destination() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        mb.stage_delayed(1, 0, 0, 1, 7);
        mb.seal();
        assert!(mb.ready().is_empty());
        mb.inject_due(1, 1).unwrap();
        assert_eq!(mb.ready(), &[(1, 1)]);
        assert_eq!(collect(mb.inbox(1, &[0])), vec![(0, 7)]);
    }

    #[test]
    fn injection_respects_the_arrival_round_budget() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        // A fresh word on edge 0→1 plus a delayed one: fits budget 2,
        // not budget 1.
        mb.stage_delayed(1, 0, 0, 1, 7);
        mb.stage(0, 1, 1, 8);
        mb.seal();
        let err = {
            let mut tight = Mailboxes::<u64>::new(2);
            tight.stage_delayed(1, 0, 0, 1, 7);
            tight.stage(0, 1, 1, 8);
            tight.seal();
            tight.inject_due(1, 1).unwrap_err()
        };
        assert!(
            matches!(
                err,
                SimError::BandwidthExceeded {
                    from: 0,
                    to: 1,
                    round: 1,
                    attempted_words: 2,
                    budget_words: 1
                }
            ),
            "{err:?}"
        );
        mb.inject_due(1, 2).unwrap();
        assert_eq!(collect(mb.inbox(1, &[0])), vec![(0, 7), (0, 8)]);
    }

    #[test]
    fn broadcast_arena_cleared_on_seal() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        mb.stage_broadcast(0, 0, None, 5);
        mb.deliver(1);
        mb.seal();
        assert_eq!(mb.ready(), &[(1, 1)]);
        mb.seal();
        assert!(mb.ready().is_empty());
        assert!(mb.recs_front.is_empty() && mb.recs_back.is_empty());
        assert_eq!(mb.ranges_front[0], (0, 0));
        assert_eq!(mb.bcount_front, vec![0, 0]);
    }
}
