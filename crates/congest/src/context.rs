//! Per-callback node context: the API a protocol uses to interact with
//! the network.

use crate::effects::{Dest, Effects};
use crate::{NodeId, Payload, SimError};

/// Handle given to [`Protocol`](crate::Protocol) callbacks.
///
/// Deliberately exposes only what a CONGEST node may know: its own id, `n`,
/// its neighbor list, and the current round number — not the global
/// topology. The context carries the node's neighbor **slice** (plus `n`)
/// rather than a graph reference.
///
/// Internally the context is a thin wrapper over the node's private
/// effects scratch: every mutation a callback performs (sends, halts,
/// wake-ups, compute charges, faults) is recorded there, never applied to
/// shared engine state, so every callback of a round reads the same
/// inboxes and the engine commits the effects afterwards, in ascending
/// node-id order. Each successful send call appends one op to the node's
/// op list, in call order, and adds its deliveries and words to the
/// node's round totals; the payload's [`words`](Payload::words) is read
/// here, so the commit never calls into payload code.
#[derive(Debug)]
pub struct Context<'a, M: Payload> {
    pub(crate) node: NodeId,
    pub(crate) round: usize,
    pub(crate) n: usize,
    /// This node's sorted neighbor slice (a [`Graph`](dhc_graph::Graph)
    /// row is ascending, which `is_neighbor` relies on).
    pub(crate) nbrs: &'a [NodeId],
    pub(crate) fx: &'a mut Effects<M>,
}

impl<M: Payload> Context<'_, M> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Total number of nodes `n` (a global the paper's model provides).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number (0 during `init`).
    pub fn round_number(&self) -> usize {
        self.round
    }

    /// This node's sorted neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        self.nbrs
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.nbrs.len()
    }

    /// Whether `v` is a neighbor of this node. `O(log deg)`.
    pub fn is_neighbor(&self, v: NodeId) -> bool {
        self.nbrs.binary_search(&v).is_ok()
    }

    /// Queues `msg` for delivery to neighbor `to` at the start of the next
    /// round.
    ///
    /// Sending to a non-neighbor records a fault that aborts the
    /// simulation during this round's commit fold, at this node's entry:
    /// every active node's callback still runs this round (they compute
    /// in parallel), effects of lower-id nodes are already committed,
    /// and this node's effects — including this message — plus those of
    /// higher-id nodes are dropped. Bandwidth is likewise enforced per
    /// directed edge at commit time.
    pub fn send(&mut self, to: NodeId, msg: M) {
        if to == self.node || !self.is_neighbor(to) {
            if self.fx.fault.is_none() {
                self.fx.fault =
                    Some(SimError::NotANeighbor { from: self.node, to, round: self.round });
            }
            return;
        }
        self.fx.push(Dest::To(to), self.nbrs.len(), msg);
    }

    /// Sends `msg` to every neighbor (one copy per incident edge, as the
    /// CONGEST model allows).
    ///
    /// Lowered onto the engine's **broadcast fabric**: the payload is
    /// stored once in the round's payload arena — `O(1)` work here,
    /// independent of the degree — the commit fold pushes its index onto
    /// every neighbor's inbox list, and every neighbor reads it by
    /// reference next round. Simulated quantities (delivery order,
    /// bandwidth, `Metrics`, `Trace`) are bit-identical to calling
    /// [`send`](Context::send) once per neighbor in ascending order.
    pub fn send_all(&mut self, msg: M) {
        if self.nbrs.is_empty() {
            return;
        }
        self.fx.push(Dest::All, self.nbrs.len(), msg);
    }

    /// Sends `msg` to every neighbor **except** `skip` — the skip-one
    /// flood relay every broadcast-with-echo protocol uses ("forward to
    /// everyone but the neighbor it came from"). Same broadcast-fabric
    /// lowering and same equivalence guarantee as
    /// [`send_all`](Context::send_all); if `skip` is not a neighbor
    /// (or is this node), the call degenerates to `send_all`.
    pub fn send_all_except(&mut self, skip: NodeId, msg: M) {
        if self.nbrs.is_empty() {
            return;
        }
        let dest = if skip != self.node && self.is_neighbor(skip) {
            Dest::AllBut(skip)
        } else {
            Dest::All
        };
        self.fx.push(dest, self.nbrs.len(), msg);
    }

    /// [`send_all`](Context::send_all) /
    /// [`send_all_except`](Context::send_all_except) with an *optional*
    /// exclusion — the flood shape protocols actually carry around
    /// ("relay to everyone except where this came from, if anywhere").
    pub fn flood_except(&mut self, skip: Option<NodeId>, msg: M) {
        match skip {
            Some(s) => self.send_all_except(s, msg),
            None => self.send_all(msg),
        }
    }

    /// Records that a delivered message broke an invariant of this
    /// node's protocol, as [`SimError::ProtocolViolation`]. Like a send to
    /// a non-neighbor, it aborts the simulation during this round's
    /// commit fold, at this node's entry; the first fault of a callback
    /// wins.
    pub fn violation(&mut self, what: &'static str) {
        if self.fx.fault.is_none() {
            self.fx.fault =
                Some(SimError::ProtocolViolation { node: self.node, round: self.round, what });
        }
    }

    /// Marks this node as terminated. It will not be invoked again and
    /// messages addressed to it are dropped.
    pub fn halt(&mut self) {
        self.fx.halted = true;
    }

    /// Requests a wake-up `delta ≥ 1` rounds from now even if no message
    /// arrives (used for spontaneous actions and timers).
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn wake_in(&mut self, delta: usize) {
        assert!(delta >= 1, "wake_in requires delta >= 1");
        let target = self.round + delta;
        self.fx.wake = Some(match self.fx.wake {
            Some(existing) => existing.min(target),
            None => target,
        });
    }

    /// Shorthand for `wake_in(1)`.
    pub fn stay_awake(&mut self) {
        self.wake_in(1);
    }

    /// Charges `units` of local computation to this node (for the
    /// load-balance metrics; delivered messages already cost one unit each).
    pub fn charge_compute(&mut self, units: u64) {
        self.fx.compute += units;
    }
}
