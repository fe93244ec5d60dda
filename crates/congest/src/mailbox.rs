//! The per-round payload arena, the per-node index lists over it, and
//! the sender-sorted [`Inbox`] view protocols read from.
//!
//! One round's messages live in one **payload arena** of [`Rec`]s
//! `(sender, op seq, message)`, and each node has one **index list**
//! naming the arena records delivered to it. A unicast gets a record of
//! its own. A broadcast (`Context::send_all` / `send_all_except`) gets
//! **one** shared record, whatever the sender's degree, and the commit
//! fold pushes that record's index onto the list of every addressed
//! neighbor: a 4-byte index per delivery instead of a payload copy.
//! Under an adversary, [`Mailboxes::route`] applies each copy's fate to
//! the same record: the index once, twice, not at all, or a clone of
//! the payload parked in the delay queue.
//! Receivers read payloads by reference through the [`Inbox`] view, a
//! plain walk over the node's list.
//!
//! The commit fold visits senders in ascending id order and each
//! sender's ops in call (`seq`) order, so every list is born sorted by
//! `(sender, seq)` and needs no per-inbox sort or merge.
//!
//! The buffers are **single-buffered**. One round cycles through them in
//! three steps:
//!
//! 1. the compute phase reads the inboxes on the sealed ready list;
//! 2. [`Mailboxes::consume`] clears those lists and the arena, since
//!    every inbox has been read by then;
//! 3. the commit fold refills the same buffers, and [`Mailboxes::seal`]
//!    sorts the receivers it touched into the next round's ready list:
//!    ascending, duplicate-free, and built without any scan over all `n`
//!    lists.
//!
//! Every payload is moved exactly once (sender effects → arena), and
//! only a delayed copy is cloned out of it. All buffers are allocated
//! once, reused every round, and capacity-stable after warm-up.

use crate::adversary::Fate;
use crate::{NodeId, Payload, SimError};

/// One adversary-delayed message parked in virtual time until its due
/// round (see [`Mailboxes::route`]).
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

/// One staged payload in the round's arena: a unicast's own copy, or the
/// single copy every receiver of a broadcast shares.
#[derive(Debug)]
pub(crate) struct Rec<M> {
    /// Sender.
    from: NodeId,
    /// The sender's op sequence number (interleaves unicasts with
    /// broadcasts).
    seq: u32,
    /// The payload, read by reference by every receiver.
    msg: M,
}

/// The engine's mailboxes; see the module docs.
#[derive(Debug)]
pub(crate) struct Mailboxes<M> {
    /// This round's payload arena, in commit order.
    recs: Vec<Rec<M>>,
    /// Per-node indices into `recs`, sorted by `(sender, seq)`. Only the
    /// nodes on `ready` (or, during the fold, `touched`) are non-empty.
    lists: Vec<Vec<u32>>,
    /// Receivers staged this round (unsorted, duplicate-free).
    touched: Vec<NodeId>,
    /// Sealed `(node, delivered count)` list, ascending by node id — the
    /// message-driven active set of the current round.
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
            recs: Vec::new(),
            lists: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            ready: Vec::new(),
            delayed: Vec::new(),
        }
    }

    /// Readies recycled mailboxes for a fresh `n`-node network.
    ///
    /// Every buffer is cleared — the previous run may have errored
    /// mid-round with staged state — and the per-node lists are resized
    /// to `n`, keeping all surviving allocation capacity. This is the
    /// engine-level half of [`crate::EngineScratch`]: a phase that runs
    /// many same-message-type networks back to back (the `√n` Phase 1
    /// classes, DHC2's merge levels) pays the mailbox allocations once
    /// instead of once per network.
    pub(crate) fn recycle(&mut self, n: usize) {
        for list in &mut self.lists {
            list.clear();
        }
        self.lists.resize_with(n, Vec::new);
        self.recs.clear();
        self.touched.clear();
        self.ready.clear();
        self.delayed.clear();
    }

    /// Allocated footprint of every buffer, in bytes: the payload arena,
    /// the index lists (outer spine + per-node capacity), and the
    /// scheduling lists. Capacities only grow during a run, so a
    /// finish-time sample *is* the run's peak.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let arena = self.recs.capacity() * size_of::<Rec<M>>();
        let lists = self.lists.capacity() * size_of::<Vec<u32>>()
            + self.lists.iter().map(|l| l.capacity() * size_of::<u32>()).sum::<usize>();
        let sched = self.touched.capacity() * size_of::<NodeId>()
            + self.ready.capacity() * size_of::<(NodeId, usize)>()
            + self.delayed.capacity() * size_of::<DelayedMsg<M>>();
        arena + lists + sched
    }

    /// Clears the inboxes the compute phase has just read, and the arena
    /// behind them (keeping capacity), so the commit fold refills the
    /// same buffers.
    pub(crate) fn consume(&mut self) {
        for &(v, _) in &self.ready {
            self.lists[v as usize].clear();
        }
        self.ready.clear();
        self.recs.clear();
    }

    /// Appends one payload to the arena and returns its record index,
    /// which reaches receivers through [`route`](Self::route): once for
    /// a unicast, once per addressed neighbor for a broadcast.
    pub(crate) fn record(&mut self, from: NodeId, seq: u32, msg: M) -> u32 {
        let rec = u32::try_from(self.recs.len()).expect("a round stages under 2^32 records");
        self.recs.push(Rec { from, seq, msg });
        rec
    }

    /// Routes one copy of arena record `rec` to `to` by its fate:
    /// `Deliver` pushes the index onto `to`'s list for next round,
    /// `Duplicate` pushes it twice, `Drop` not at all, and `Delay(d)`
    /// parks a clone of the payload until the start of round
    /// `round + 1 + d`. Called by the commit fold in deterministic order
    /// (senders ascending, each sender's ops by ascending `seq`), so
    /// each list ends up sorted by `(sender, seq)` and the delay queue
    /// in commit order.
    ///
    /// Always inlined: on clean runs the fold passes the constant
    /// `Deliver`, so the call folds into one index push. An out-of-line
    /// call per delivery made perfbench's dhc1-dense about 30% slower.
    #[inline(always)]
    pub(crate) fn route(&mut self, rec: u32, to: NodeId, fate: Fate, round: usize) {
        match fate {
            Fate::Deliver => self.deliver(to, rec),
            Fate::Duplicate => {
                self.deliver(to, rec);
                self.deliver(to, rec);
            }
            Fate::Drop => {}
            Fate::Delay(d) => {
                let Rec { from, seq, ref msg } = self.recs[rec as usize];
                let msg = msg.clone();
                self.delayed.push(DelayedMsg { due: round + 1 + d, from, seq, to, msg });
            }
        }
    }

    /// Delivers arena record `rec` to `to` next round: one index pushed
    /// onto `to`'s list, no payload copy.
    fn deliver(&mut self, to: NodeId, rec: u32) {
        let list = &mut self.lists[to as usize];
        if list.is_empty() {
            self.touched.push(to);
        }
        list.push(rec);
    }

    /// Sorts the receivers staged since the last [`consume`](Self::consume)
    /// into the ready list for the next round.
    pub(crate) fn seal(&mut self) {
        debug_assert!(self.ready.is_empty(), "seal without consume");
        self.touched.sort_unstable();
        self.ready.extend(self.touched.iter().map(|&d| (d, self.lists[d as usize].len())));
        self.touched.clear();
    }

    /// The sealed `(node, delivered count)` list: every node with mail
    /// this round, ascending.
    pub(crate) fn ready(&self) -> &[(NodeId, usize)] {
        &self.ready
    }

    /// Earliest due round among parked messages, if any — a wake source
    /// for the engine's quiescent fast-forward.
    pub(crate) fn next_due(&self) -> Option<usize> {
        self.delayed.iter().map(|d| d.due).min()
    }

    /// Re-injects every parked message due at or before `round` into the
    /// current round's inboxes, charging each against the arrival
    /// round's per-edge budget.
    ///
    /// Everything arriving on a directed edge in one round — freshly
    /// delivered messages plus re-injected delayed ones — must fit the
    /// edge budget; a violation surfaces as the ordinary
    /// [`SimError::BandwidthExceeded`], never a silent queue. (The
    /// receiver's list names every fresh arrival, broadcasts included,
    /// so this check is exhaustive.)
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
        // in the receiver's list, then each injected copy adds its own
        // words. Checked in injection order, which is itself commit
        // order — deterministic first violation.
        let mut charged: Vec<(NodeId, NodeId, usize)> = Vec::new();
        for d in &due {
            let w = d.msg.words().max(1);
            let acc = match charged.iter_mut().find(|e| (e.0, e.1) == (d.from, d.to)) {
                Some(e) => {
                    e.2 += w;
                    e.2
                }
                None => {
                    let base: usize = self.lists[d.to as usize]
                        .iter()
                        .map(|&i| &self.recs[i as usize])
                        .filter(|r| r.from == d.from)
                        .map(|r| r.msg.words().max(1))
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
            let rec = self.record(d.from, d.seq, d.msg);
            self.lists[d.to as usize].push(rec);
        }
        let Mailboxes { recs, lists, ready, .. } = self;
        for to in hit {
            // Stable sort: on `(sender, seq)` ties the fresh message
            // (listed first) keeps priority over the late one.
            let list = &mut lists[to as usize];
            list.sort_by_key(|&i| {
                let r = &recs[i as usize];
                (r.from, r.seq)
            });
            // Keep `ready` consistent so the engine activates `to` and
            // the next `consume` clears the injected list.
            match ready.binary_search_by_key(&to, |&(v, _)| v) {
                Ok(i) => ready[i].1 = list.len(),
                Err(i) => ready.insert(i, (to, list.len())),
            }
        }
        Ok(())
    }

    /// One node's inbox view for the current round.
    pub(crate) fn inbox(&self, v: NodeId) -> Inbox<'_, M> {
        Inbox { idx: &self.lists[v as usize], recs: &self.recs }
    }
}

/// One round's delivered messages for one node: a lightweight
/// sender-sorted view over the node's index list into the round's
/// payload arena.
///
/// Handed to [`Protocol::round`](crate::Protocol::round). Messages are
/// ordered by `(sender id, sender's call order)` — exactly the order a
/// per-neighbor unicast expansion of every broadcast would have produced
/// — and payloads are read **by reference** from the arena, never
/// re-copied per receiver.
///
/// The view is `Copy`; iterate it any number of times with
/// [`iter`](Inbox::iter) (or `for (from, msg) in &inbox`).
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a, M: Payload> {
    /// Indices into `recs` of this node's messages, `(sender, seq)`-sorted.
    idx: &'a [u32],
    /// The round's payload arena (all senders).
    recs: &'a [Rec<M>],
}

impl<'a, M: Payload> Inbox<'a, M> {
    /// Number of messages delivered this round.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether no message was delivered (wake-up-only activation).
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Iterates the messages as `(sender, &message)`, sorted by sender
    /// id (ties between one sender's messages keep that sender's call
    /// order).
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter { idx: self.idx.iter(), recs: self.recs }
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

/// Iterator over an [`Inbox`]: a walk over the node's index list,
/// resolving each index in the payload arena.
#[derive(Debug)]
pub struct InboxIter<'a, M: Payload> {
    idx: std::slice::Iter<'a, u32>,
    recs: &'a [Rec<M>],
}

impl<'a, M: Payload> Iterator for InboxIter<'a, M> {
    type Item = (NodeId, &'a M);

    fn next(&mut self) -> Option<(NodeId, &'a M)> {
        let rec = &self.recs[*self.idx.next()? as usize];
        Some((rec.from, &rec.msg))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.idx.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(inbox: Inbox<'_, u64>) -> Vec<(NodeId, u64)> {
        inbox.iter().map(|(from, &m)| (from, m)).collect()
    }

    /// Stages one unicast for next round: a record of its own, delivered.
    fn stage(mb: &mut Mailboxes<u64>, from: NodeId, seq: u32, to: NodeId, msg: u64) {
        let rec = mb.record(from, seq, msg);
        mb.route(rec, to, Fate::Deliver, 0);
    }

    /// Parks one message until the start of round `due`.
    fn park(mb: &mut Mailboxes<u64>, due: usize, from: NodeId, seq: u32, to: NodeId, msg: u64) {
        mb.delayed.push(DelayedMsg { due, from, seq, to, msg });
    }

    #[test]
    fn seal_groups_by_destination_with_senders_in_commit_order() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(5);
        // Commit order: sender 0 then sender 2 then sender 4.
        mb.consume();
        stage(&mut mb, 0, 0, 3, 10);
        stage(&mut mb, 0, 1, 1, 11);
        stage(&mut mb, 2, 0, 3, 12);
        stage(&mut mb, 4, 0, 1, 13);
        stage(&mut mb, 4, 1, 1, 14);
        mb.seal();
        assert_eq!(mb.ready(), &[(1, 3), (3, 2)]);
        assert_eq!(collect(mb.inbox(1)), vec![(0, 11), (4, 13), (4, 14)]);
        assert_eq!(collect(mb.inbox(3)), vec![(0, 10), (2, 12)]);
    }

    /// A round with no fresh mail (consume, then seal with nothing
    /// staged) leaves no trace of the round before it.
    #[test]
    fn seal_twice_clears_previous_round() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(3);
        stage(&mut mb, 0, 0, 1, 1);
        mb.seal();
        assert_eq!(mb.ready().len(), 1);
        mb.consume();
        mb.seal();
        assert!(mb.ready().is_empty());
        assert!(mb.inbox(1).is_empty());
        mb.consume();
        stage(&mut mb, 1, 0, 2, 9);
        mb.seal();
        assert_eq!(mb.ready(), &[(2, 1)]);
        assert_eq!(collect(mb.inbox(2)), vec![(1, 9)]);
    }

    #[test]
    fn buffers_are_reused_across_rounds() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        for round in 0..4 {
            mb.consume();
            stage(&mut mb, 0, 0, 1, round);
            mb.seal();
            assert_eq!(collect(mb.inbox(1)), vec![(0, round)]);
        }
        // Consuming empties the list and the arena but keeps their
        // capacity for the fold that refills them.
        mb.consume();
        assert!(mb.lists[1].is_empty() && mb.recs.is_empty());
        assert!(mb.lists[1].capacity() >= 1 && mb.recs.capacity() >= 1);
    }

    /// Broadcast staging: one record, index-only deliveries, payload
    /// visible to every addressed neighbor through the inbox view.
    #[test]
    fn broadcast_is_stored_once_and_merged_per_receiver() {
        // Path 0-1-2-3; node 1 broadcasts, node 3 unicasts to 2.
        let mut mb: Mailboxes<u64> = Mailboxes::new(4);
        let b = mb.record(1, 0, 77);
        mb.deliver(0, b);
        mb.deliver(2, b);
        stage(&mut mb, 3, 0, 2, 88);
        mb.seal();
        assert_eq!(mb.recs.len(), 2, "one payload for the broadcast, one for the unicast");
        assert_eq!(mb.ready(), &[(0, 1), (2, 2)]);
        assert_eq!(collect(mb.inbox(0)), vec![(1, 77)]);
        assert_eq!(collect(mb.inbox(2)), vec![(1, 77), (3, 88)]);
    }

    /// The per-sender op sequence interleaves broadcasts with direct
    /// sends. (The fold applies a broadcast's `skip` by not delivering
    /// to it; the mailbox never sees the excluded neighbor.)
    #[test]
    fn seq_interleaves_unicasts_and_broadcasts() {
        // Triangle 0-1-2. Node 0's ops: send(1, a); send_all_except(2, b);
        // send(1, c)  => node 1 sees a, b, c; node 2 sees nothing.
        let mut mb: Mailboxes<u64> = Mailboxes::new(3);
        stage(&mut mb, 0, 0, 1, 100);
        let b = mb.record(0, 1, 200);
        mb.deliver(1, b);
        stage(&mut mb, 0, 2, 1, 300);
        mb.seal();
        assert_eq!(collect(mb.inbox(1)), vec![(0, 100), (0, 200), (0, 300)]);
        assert_eq!(mb.ready(), &[(1, 3)]);
        assert!(mb.inbox(2).is_empty());
    }

    /// Each fate routes a shared broadcast record its own way: one index,
    /// two, none, or a parked clone that lands on its due round.
    #[test]
    fn route_applies_each_fate_to_one_shared_record() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(4);
        let b = mb.record(0, 2, 9);
        mb.route(b, 0, Fate::Deliver, 5);
        mb.route(b, 1, Fate::Duplicate, 5);
        mb.route(b, 2, Fate::Drop, 5);
        mb.route(b, 3, Fate::Delay(2), 5);
        mb.seal();
        assert_eq!(mb.recs.len(), 1, "every copy shares the one record");
        assert_eq!(mb.ready(), &[(0, 1), (1, 2)]);
        assert_eq!(collect(mb.inbox(1)), vec![(0, 9), (0, 9)]);
        assert_eq!(mb.next_due(), Some(8));
        mb.consume();
        mb.seal();
        mb.inject_due(8, 1).unwrap();
        assert_eq!(mb.ready(), &[(3, 1)]);
        assert_eq!(collect(mb.inbox(3)), vec![(0, 9)]);
    }

    #[test]
    fn delayed_messages_wait_for_their_round_and_merge_in_order() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(3);
        park(&mut mb, 3, 0, 0, 2, 50);
        assert_eq!(mb.next_due(), Some(3));
        // Round 2: nothing due yet.
        mb.consume();
        stage(&mut mb, 1, 0, 2, 40);
        mb.seal();
        mb.inject_due(2, 4).unwrap();
        assert_eq!(collect(mb.inbox(2)), vec![(1, 40)]);
        assert_eq!(mb.next_due(), Some(3));
        // Round 3: the delayed message lands and sorts before the fresh
        // one (sender 0 < sender 1), and `ready` picks up node 2.
        mb.consume();
        stage(&mut mb, 1, 0, 2, 41);
        mb.seal();
        mb.inject_due(3, 4).unwrap();
        assert_eq!(mb.next_due(), None);
        assert_eq!(mb.ready(), &[(2, 2)]);
        assert_eq!(collect(mb.inbox(2)), vec![(0, 50), (1, 41)]);
        // Round 4: the injected list was cleared by the next consume.
        mb.consume();
        mb.seal();
        assert!(mb.ready().is_empty());
        assert!(mb.inbox(2).is_empty());
    }

    #[test]
    fn injection_activates_an_otherwise_idle_destination() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        park(&mut mb, 1, 0, 0, 1, 7);
        mb.seal();
        assert!(mb.ready().is_empty());
        mb.inject_due(1, 1).unwrap();
        assert_eq!(mb.ready(), &[(1, 1)]);
        assert_eq!(collect(mb.inbox(1)), vec![(0, 7)]);
    }

    #[test]
    fn injection_respects_the_arrival_round_budget() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        // A fresh word on edge 0→1 plus a delayed one: fits budget 2,
        // not budget 1.
        park(&mut mb, 1, 0, 0, 1, 7);
        stage(&mut mb, 0, 1, 1, 8);
        mb.seal();
        let err = {
            let mut tight = Mailboxes::<u64>::new(2);
            park(&mut tight, 1, 0, 0, 1, 7);
            stage(&mut tight, 0, 1, 1, 8);
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
        assert_eq!(collect(mb.inbox(1)), vec![(0, 7), (0, 8)]);
    }

    /// A delayed unicast joins a list that already names a broadcast from
    /// a lower sender and a unicast from a higher one: the stable re-sort
    /// places it between the two.
    #[test]
    fn delayed_unicast_lands_between_lower_broadcast_and_higher_unicast() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(5);
        park(&mut mb, 1, 2, 0, 4, 20);
        let b = mb.record(1, 0, 10);
        mb.deliver(0, b);
        mb.deliver(4, b);
        stage(&mut mb, 3, 0, 4, 30);
        mb.seal();
        mb.inject_due(1, 1).unwrap();
        assert_eq!(mb.ready(), &[(0, 1), (4, 3)]);
        assert_eq!(collect(mb.inbox(4)), vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(collect(mb.inbox(0)), vec![(1, 10)]);
    }

    #[test]
    fn arena_and_lists_cleared_on_consume() {
        let mut mb: Mailboxes<u64> = Mailboxes::new(2);
        let b = mb.record(0, 0, 5);
        mb.deliver(1, b);
        mb.seal();
        assert_eq!(mb.ready(), &[(1, 1)]);
        mb.consume();
        assert!(mb.ready().is_empty() && mb.recs.is_empty());
        assert!(mb.lists.iter().all(Vec::is_empty));
        mb.seal();
        assert!(mb.ready().is_empty());
    }
}
