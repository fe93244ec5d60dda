//! Per-node effect scratch for the two-phase round engine.
//!
//! During a round's **compute phase** every active node runs against an
//! immutable view of the network and records everything it wants to do —
//! unicast sends, broadcasts, a halt, a wake-up request, compute charges,
//! faults — into its own [`Effects`] value. No shared state is mutated,
//! so every callback of the round reads the same inboxes. The engine's
//! **commit fold** then applies the effects in ascending node-id order,
//! which fixes the observable outcome (metrics, trace, message delivery
//! order).
//!
//! Unicast sends and broadcasts share one per-node **op list**: every
//! successful `Context::send` / `send_all` / `send_all_except` call
//! pushes one [`Op`], and an op's index in the list is its **sequence
//! number**. The fold commits the list in index order, so every
//! receiver's [`Inbox`](crate::Inbox) list gets the ops in the exact
//! call-order interleaving a per-neighbor unicast expansion would have
//! produced. The number also travels with each arena record, so the
//! adversary's fates are keyed on it and its delayed messages can be
//! re-sorted into place.
//!
//! Each push also takes the payload's word count (during the compute
//! phase, so the fold never calls into payload code) and updates the node's
//! round totals: directed deliveries, delivered words, the broadcast
//! base load, and the counts of unicast and skip ops. From these the
//! fold charges the sender's metrics once per node and answers the
//! common bandwidth shapes with one comparison (see
//! [`Effects::check_bandwidth`]). Under an active adversary the fold
//! adds one send and one extra unicast load per duplicated copy, which
//! the check folds into its sorted walk.
//!
//! `Effects` values live in a pool owned by the
//! [`Network`](crate::Network) and are reused across rounds: the op list
//! keeps its capacity, so a warmed-up engine allocates nothing per round.

use crate::{NodeId, Payload, SimError};

/// Where one [`Op`] goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dest {
    /// One neighbor ([`Context::send`](crate::Context::send)).
    To(NodeId),
    /// Every neighbor ([`Context::send_all`](crate::Context::send_all)).
    All,
    /// Every neighbor but this one
    /// ([`Context::send_all_except`](crate::Context::send_all_except)).
    AllBut(NodeId),
}

impl Dest {
    /// The addressed nodes, given the sender's sorted neighbor slice:
    /// ascending for a broadcast.
    pub(crate) fn targets<'a>(&'a self, nbrs: &'a [NodeId]) -> impl Iterator<Item = NodeId> + 'a {
        let (list, skip) = match self {
            Dest::To(to) => (std::slice::from_ref(to), None),
            Dest::All => (nbrs, None),
            Dest::AllBut(s) => (nbrs, Some(*s)),
        };
        list.iter().copied().filter(move |&u| Some(u) != skip)
    }
}

/// One send op: a unicast, or a broadcast whose **one** payload copy
/// serves every addressed neighbor.
#[derive(Debug)]
pub(crate) struct Op<M> {
    pub(crate) dest: Dest,
    /// `msg.words().max(1)`, taken at push time.
    pub(crate) words: usize,
    pub(crate) msg: M,
}

/// Everything one node's callback did in one round, staged for the
/// commit fold.
#[derive(Debug)]
pub(crate) struct Effects<M: Payload> {
    /// Send ops in call order; an op's index is its sequence number.
    /// Appended only by [`push`](Self::push), which keeps the totals
    /// below in step; the fold drains it.
    pub(crate) ops: Vec<Op<M>>,
    /// Directed deliveries of `ops` (a broadcast counts once per
    /// addressed neighbor) — the sender's message count this round.
    deliveries: usize,
    /// Words of those deliveries.
    delivered_words: u64,
    /// Summed words of every broadcast op: the load of a neighbor that
    /// no unicast targets and no skip op excludes.
    base_words: usize,
    /// Number of [`Dest::To`] ops.
    unicasts: usize,
    /// Number of [`Dest::AllBut`] ops.
    skips: usize,
    /// The node called [`Context::halt`](crate::Context::halt).
    pub(crate) halted: bool,
    /// Requested wake-up round (already minimized across `wake_in` calls).
    pub(crate) wake: Option<usize>,
    /// Compute units charged via
    /// [`Context::charge_compute`](crate::Context::charge_compute).
    pub(crate) compute: u64,
    /// First fault raised by the callback (e.g. a non-neighbor send).
    pub(crate) fault: Option<SimError>,
    /// `Protocol::memory_words` sampled after the callback.
    pub(crate) memory: usize,
}

impl<M: Payload> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            ops: Vec::new(),
            deliveries: 0,
            delivered_words: 0,
            base_words: 0,
            unicasts: 0,
            skips: 0,
            halted: false,
            wake: None,
            compute: 0,
            fault: None,
            memory: 0,
        }
    }
}

impl<M: Payload> Effects<M> {
    /// Clears the scratch for reuse, keeping the op list's capacity.
    pub(crate) fn reset(&mut self) {
        self.ops.clear();
        self.deliveries = 0;
        self.delivered_words = 0;
        self.base_words = 0;
        self.unicasts = 0;
        self.skips = 0;
        self.halted = false;
        self.wake = None;
        self.compute = 0;
        self.fault = None;
        self.memory = 0;
    }

    /// Directed deliveries of the pushed ops.
    pub(crate) fn deliveries(&self) -> usize {
        self.deliveries
    }

    /// Words of the pushed ops' deliveries.
    pub(crate) fn delivered_words(&self) -> u64 {
        self.delivered_words
    }

    /// Number of pushed unicast ops.
    pub(crate) fn unicasts(&self) -> usize {
        self.unicasts
    }

    /// Allocated footprint of the op list, in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<Op<M>>()
    }

    /// Appends one op from a sender of degree `degree` (≥ 1, and a
    /// `To`/`AllBut` node already checked to be a neighbor) and adds it
    /// to the round totals.
    pub(crate) fn push(&mut self, dest: Dest, degree: usize, msg: M) {
        let words = msg.words().max(1);
        let count = match dest {
            Dest::To(_) => {
                self.unicasts += 1;
                1
            }
            Dest::All => {
                self.base_words += words;
                degree
            }
            Dest::AllBut(_) => {
                self.base_words += words;
                self.skips += 1;
                degree - 1
            }
        };
        self.deliveries += count;
        self.delivered_words += words as u64 * count as u64;
        self.ops.push(Op { dest, words, msg });
    }

    /// Per-destination bandwidth check for a sender with neighbor slice
    /// `nbrs`, updating `max_edge` as it goes (including the partial
    /// updates before a violation). Returns the first violating
    /// `(destination, attempted words)` in ascending destination order.
    ///
    /// `loads` arrives holding the round's **extra** unicast loads: under
    /// an active adversary, one `(destination, words)` entry per
    /// duplicated copy, since the copy is one more send over its edge.
    /// It is empty on clean runs, and the check leaves it dirty.
    ///
    /// Without extra loads, two shapes take one comparison: a lone
    /// unicast, and broadcasts alone when fewer skip ops than neighbors
    /// leave some neighbor carrying the whole base load, which no edge
    /// exceeds. Every other shape, and a broadcast shape over budget,
    /// sorts its unicast and skip loads into `loads` and walks them.
    pub(crate) fn check_bandwidth(
        &self,
        nbrs: &[NodeId],
        budget: usize,
        max_edge: &mut usize,
        loads: &mut Vec<(NodeId, usize)>,
    ) -> Result<(), (NodeId, usize)> {
        if loads.is_empty() {
            if self.unicasts == 0 && self.skips < nbrs.len() && self.base_words <= budget {
                *max_edge = (*max_edge).max(self.base_words);
                return Ok(());
            }
            if let [Op { dest: Dest::To(to), words, .. }] = self.ops[..] {
                if words > budget {
                    return Err((to, words));
                }
                *max_edge = (*max_edge).max(words);
                return Ok(());
            }
        }
        loads.extend(self.ops.iter().filter_map(|op| match op.dest {
            Dest::To(to) => Some((to, op.words)),
            _ => None,
        }));
        let n_uni = loads.len();
        loads.extend(self.ops.iter().filter_map(|op| match op.dest {
            Dest::AllBut(s) => Some((s, op.words)),
            _ => None,
        }));
        // Only the per-destination sums matter, so unstable sorts are
        // fine, and deterministic for a fixed input either way.
        let (uni, skips) = loads.split_at_mut(n_uni);
        uni.sort_unstable();
        skips.sort_unstable();
        if self.base_words == 0 {
            return check_edge_loads(uni, budget, max_edge);
        }
        // Every neighbor carries the broadcast base minus its skips,
        // plus its unicasts — walked in ascending destination order,
        // exactly the per-edge totals (and first-violation destination)
        // of the expanded unicast equivalent. Every unicast and skip
        // names a neighbor (`Context` checks), so both cursors keep pace.
        let (mut a, mut b) = (0, 0);
        for &to in nbrs {
            let mut words = self.base_words;
            while a < uni.len() && uni[a].0 == to {
                words += uni[a].1;
                a += 1;
            }
            while b < skips.len() && skips[b].0 == to {
                words -= skips[b].1;
                b += 1;
            }
            if words > budget {
                return Err((to, words));
            }
            *max_edge = (*max_edge).max(words);
        }
        Ok(())
    }
}

/// Sums sorted `(destination, words)` entries per destination and
/// checks the sums against `budget` in ascending destination order,
/// raising `max_edge` up to the first violation, which it returns.
fn check_edge_loads(
    loads: &[(NodeId, usize)],
    budget: usize,
    max_edge: &mut usize,
) -> Result<(), (NodeId, usize)> {
    let mut a = 0;
    while a < loads.len() {
        let to = loads[a].0;
        let mut words = 0usize;
        while a < loads.len() && loads[a].0 == to {
            words += loads[a].1;
            a += 1;
        }
        if words > budget {
            return Err((to, words));
        }
        *max_edge = (*max_edge).max(words);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;

    /// A payload of a chosen word count.
    #[derive(Clone, Debug)]
    struct W(usize);
    impl Payload for W {
        fn words(&self) -> usize {
            self.0
        }
    }

    /// Runs `f` as node `node` with neighbors `nbrs`, recording into `fx`.
    fn with_ctx(
        fx: &mut Effects<W>,
        node: NodeId,
        nbrs: &[NodeId],
        f: impl FnOnce(&mut Context<'_, W>),
    ) {
        let mut ctx = Context { node, round: 3, n: 16, nbrs, fx };
        f(&mut ctx);
    }

    fn dests(fx: &Effects<W>) -> Vec<Dest> {
        fx.ops.iter().map(|op| op.dest).collect()
    }

    #[test]
    fn op_index_is_the_sequence_number() {
        let mut fx = Effects::default();
        with_ctx(&mut fx, 2, &[1, 3, 4], |ctx| {
            ctx.send(3, W(1));
            ctx.send_all(W(1));
            ctx.send(9, W(1)); // not a neighbor: a fault, no op
            ctx.send_all_except(4, W(1));
            ctx.send_all_except(9, W(1)); // not a neighbor: plain send_all
            ctx.flood_except(Some(1), W(1));
            ctx.send(1, W(1));
        });
        assert_eq!(
            dests(&fx),
            [Dest::To(3), Dest::All, Dest::AllBut(4), Dest::All, Dest::AllBut(1), Dest::To(1)]
        );
        assert_eq!(fx.fault, Some(SimError::NotANeighbor { from: 2, to: 9, round: 3 }));
        let addressed = dests(&fx).iter().map(|d| d.targets(&[1, 3, 4]).count()).sum::<usize>();
        assert_eq!((addressed, fx.deliveries), (12, 12));
    }

    #[test]
    fn first_fault_of_a_callback_wins() {
        let mut fx = Effects::default();
        with_ctx(&mut fx, 2, &[1, 3], |ctx| {
            ctx.violation("first");
            ctx.send(9, W(1));
            ctx.violation("second");
        });
        assert_eq!(
            fx.fault,
            Some(SimError::ProtocolViolation { node: 2, round: 3, what: "first" })
        );
    }

    #[test]
    fn each_push_method_updates_the_round_totals() {
        let nbrs: &[NodeId] = &[1, 3, 4];
        let totals = |fx: &Effects<W>| {
            (fx.deliveries, fx.delivered_words, fx.base_words, fx.unicasts, fx.skips)
        };
        let mut fx = Effects::default();
        with_ctx(&mut fx, 2, nbrs, |ctx| ctx.send(3, W(2)));
        assert_eq!(totals(&fx), (1, 2, 0, 1, 0));
        with_ctx(&mut fx, 2, nbrs, |ctx| ctx.send_all(W(3)));
        assert_eq!(totals(&fx), (4, 2 + 9, 3, 1, 0));
        with_ctx(&mut fx, 2, nbrs, |ctx| ctx.send_all_except(4, W(5)));
        assert_eq!(totals(&fx), (6, 11 + 10, 8, 1, 1));
        // An empty payload is charged one word.
        with_ctx(&mut fx, 2, nbrs, |ctx| ctx.flood_except(None, W(0)));
        assert_eq!(totals(&fx), (9, 21 + 3, 9, 1, 1));
        assert_eq!(fx.ops.iter().map(|op| op.words).collect::<Vec<_>>(), [2, 3, 5, 1]);
        // Rejected sends add nothing.
        with_ctx(&mut fx, 2, nbrs, |ctx| ctx.send(2, W(7)));
        with_ctx(&mut fx, 2, &[], |ctx| ctx.send_all(W(7)));
        assert_eq!((totals(&fx), fx.ops.len()), ((9, 24, 9, 1, 1), 4));
    }

    #[test]
    fn degree_one_send_all_except_addresses_nobody_but_takes_a_sequence_number() {
        let mut fx = Effects::default();
        with_ctx(&mut fx, 0, &[5], |ctx| {
            ctx.send_all_except(5, W(2));
            ctx.send(5, W(1));
        });
        assert_eq!(dests(&fx), [Dest::AllBut(5), Dest::To(5)]);
        assert_eq!(Dest::AllBut(5).targets(&[5]).count(), 0);
        assert_eq!((fx.deliveries, fx.delivered_words, fx.base_words, fx.skips), (1, 1, 2, 1));
        // The edge carries only the unicast.
        let mut max_edge = 0;
        assert_eq!(fx.check_bandwidth(&[5], 1, &mut max_edge, &mut Vec::new()), Ok(()));
        assert_eq!(max_edge, 1);
    }

    /// The reference: every op expanded per addressed neighbor, plus
    /// the extra loads, summed per destination and walked in ascending
    /// order.
    fn expanded_check(
        fx: &Effects<W>,
        extra: &[(NodeId, usize)],
        nbrs: &[NodeId],
        budget: usize,
        max_edge: &mut usize,
    ) -> Result<(), (NodeId, usize)> {
        let mut load = std::collections::BTreeMap::new();
        for op in &fx.ops {
            for to in op.dest.targets(nbrs) {
                *load.entry(to).or_insert(0) += op.words;
            }
        }
        for &(to, words) in extra {
            *load.entry(to).or_insert(0) += words;
        }
        for (to, words) in load {
            if words > budget {
                return Err((to, words));
            }
            *max_edge = (*max_edge).max(words);
        }
        Ok(())
    }

    #[test]
    fn bandwidth_check_matches_the_unicast_expansion() {
        let nbrs: &[NodeId] = &[1, 2, 4, 7];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as usize
        };
        let mut loads = Vec::new();
        for case in 0..4000 {
            let deg = 1 + case % nbrs.len();
            let nbrs = &nbrs[..deg];
            let mut fx = Effects::default();
            with_ctx(&mut fx, 0, nbrs, |ctx| {
                for _ in 0..next(5) {
                    let (to, words) = (nbrs[next(deg as u64)], 1 + next(3));
                    match next(3) {
                        0 => ctx.send(to, W(words)),
                        1 => ctx.send_all(W(words)),
                        _ => ctx.send_all_except(to, W(words)),
                    }
                }
            });
            // Some cases carry extra unicast loads, as duplicated copies
            // do under an adversary.
            let extra: Vec<(NodeId, usize)> =
                (0..next(2) * next(4)).map(|_| (nbrs[next(deg as u64)], 1 + next(3))).collect();
            let budget = 1 + next(8);
            let start = next(4);
            let (mut got_max, mut want_max) = (start, start);
            loads.clear();
            loads.extend_from_slice(&extra);
            let got = fx.check_bandwidth(nbrs, budget, &mut got_max, &mut loads);
            let want = expanded_check(&fx, &extra, nbrs, budget, &mut want_max);
            assert_eq!((got, got_max), (want, want_max), "case {case}: {:?} {extra:?}", dests(&fx));
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut fx = Effects::default();
        with_ctx(&mut fx, 0, &[1, 2], |ctx| {
            ctx.send(1, W(1));
            ctx.send_all_except(2, W(2));
            ctx.send(5, W(1));
            ctx.halt();
            ctx.wake_in(9);
            ctx.charge_compute(4);
        });
        fx.memory = 7;
        fx.reset();
        assert!(fx.ops.is_empty() && fx.ops.capacity() >= 2);
        assert_eq!(
            (fx.deliveries, fx.delivered_words, fx.base_words, fx.unicasts, fx.skips),
            (0, 0, 0, 0, 0)
        );
        assert!(!fx.halted && fx.wake.is_none() && fx.compute == 0 && fx.fault.is_none());
        assert_eq!(fx.memory, 0);
    }
}
