//! Per-node effect scratch for the two-phase round engine.
//!
//! During a round's **compute phase** every active node runs against an
//! immutable view of the network and records everything it wants to do —
//! unicast sends, broadcasts, a halt, a wake-up request, compute charges,
//! faults — into its own [`Effects`] value. No shared state is mutated,
//! which is what makes the compute phase safe to run on any number of
//! worker threads. The engine's sequential **commit fold** then applies
//! the effects in ascending node-id order, so the observable outcome
//! (metrics, trace, message delivery order) is bit-identical at every
//! thread count.
//!
//! Unicast sends and broadcasts share one per-node **op sequence**: every
//! `Context::send` / `send_all` / `send_all_except` call consumes the next
//! sequence number. The fold commits each node's ops in that order, so
//! every receiver's [`Inbox`](crate::Inbox) list gets them in the exact
//! call-order interleaving a per-neighbor unicast expansion would have
//! produced. The number also travels with each arena record, so the
//! adversary's delayed messages can be re-sorted into place.
//!
//! `Effects` values live in a pool owned by the
//! [`Network`](crate::Network) and are reused across rounds: the vectors
//! keep their capacity, so a warmed-up engine allocates nothing per round.

use crate::{NodeId, Payload, SimError};

/// Everything one node's callback did in one round, staged for the
/// commit fold.
#[derive(Debug)]
pub(crate) struct Effects<M: Payload> {
    /// Queued unicast sends as `(op seq, destination, message)`, in call
    /// order.
    pub(crate) sends: Vec<(u32, NodeId, M)>,
    /// Queued broadcasts as `(op seq, excluded neighbor, message)`, in
    /// call order. One entry per `send_all`/`send_all_except` call —
    /// **one** payload copy regardless of the sender's degree.
    pub(crate) bcasts: Vec<(u32, Option<NodeId>, M)>,
    /// Next op sequence number (shared by sends and broadcasts).
    pub(crate) seq: u32,
    /// `sends[i].2.words().max(1)`, precomputed on the worker thread so
    /// the fold never calls into payload code.
    pub(crate) send_words: Vec<usize>,
    /// `bcasts[i].2.words().max(1)`, likewise.
    pub(crate) bcast_words: Vec<usize>,
    /// Sum of `bcast_words`: the broadcast word load every non-excluded
    /// neighbor receives this round.
    pub(crate) bcast_total_words: usize,
    /// `(destination, words)` of the **unicast** sends, sorted by
    /// destination — one input of the fold's per-directed-edge bandwidth
    /// check.
    pub(crate) edge_words: Vec<(NodeId, usize)>,
    /// `(excluded neighbor, words)` per broadcast that excludes one,
    /// sorted — the fold subtracts these from the broadcast base load.
    pub(crate) skip_words: Vec<(NodeId, usize)>,
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
            sends: Vec::new(),
            bcasts: Vec::new(),
            seq: 0,
            send_words: Vec::new(),
            bcast_words: Vec::new(),
            bcast_total_words: 0,
            edge_words: Vec::new(),
            skip_words: Vec::new(),
            halted: false,
            wake: None,
            compute: 0,
            fault: None,
            memory: 0,
        }
    }
}

impl<M: Payload> Effects<M> {
    /// Clears the scratch for reuse, keeping vector capacity.
    pub(crate) fn reset(&mut self) {
        self.sends.clear();
        self.bcasts.clear();
        self.seq = 0;
        self.send_words.clear();
        self.bcast_words.clear();
        self.bcast_total_words = 0;
        self.edge_words.clear();
        self.skip_words.clear();
        self.halted = false;
        self.wake = None;
        self.compute = 0;
        self.fault = None;
        self.memory = 0;
    }

    /// Allocated footprint of the staging vectors, in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sends.capacity() * size_of::<(u32, NodeId, M)>()
            + self.bcasts.capacity() * size_of::<(u32, Option<NodeId>, M)>()
            + (self.send_words.capacity() + self.bcast_words.capacity()) * size_of::<usize>()
            + (self.edge_words.capacity() + self.skip_words.capacity())
                * size_of::<(NodeId, usize)>()
    }

    /// Consumes the next op sequence number.
    pub(crate) fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Finishes the compute phase for this node: records the sampled
    /// memory and precomputes the word counts the fold consumes. Runs on
    /// the worker thread, in parallel across nodes.
    pub(crate) fn seal(&mut self, memory: usize) {
        self.memory = memory;
        self.send_words.clear();
        self.send_words.extend(self.sends.iter().map(|(_, _, m)| m.words().max(1)));
        self.edge_words.clear();
        self.edge_words
            .extend(self.sends.iter().zip(&self.send_words).map(|(&(_, to, _), &w)| (to, w)));
        // Only the per-destination sums matter, so an unstable sort is
        // fine — and it is deterministic for a fixed input either way.
        self.edge_words.sort_unstable();
        self.bcast_words.clear();
        self.bcast_words.extend(self.bcasts.iter().map(|(_, _, m)| m.words().max(1)));
        self.bcast_total_words = self.bcast_words.iter().sum();
        self.skip_words.clear();
        self.skip_words.extend(
            self.bcasts
                .iter()
                .zip(&self.bcast_words)
                .filter_map(|(&(_, skip, _), &w)| skip.map(|s| (s, w))),
        );
        self.skip_words.sort_unstable();
    }

    /// Total directed sends (broadcasts expanded per addressed
    /// neighbor) — the `max_node_sends_per_round` contribution.
    pub(crate) fn total_sends(&self, nbrs_len: usize) -> usize {
        self.sends.len()
            + self
                .bcasts
                .iter()
                .map(|(_, skip, _)| nbrs_len - usize::from(skip.is_some()))
                .sum::<usize>()
    }

    /// Per-destination bandwidth check for a clean sender with neighbor
    /// slice `nbrs`, updating `max_edge` as it walks (including the
    /// partial updates before a violation). Returns the first violating
    /// `(destination, attempted words)` in ascending destination order.
    pub(crate) fn check_bandwidth(
        &self,
        nbrs: &[NodeId],
        budget: usize,
        max_edge: &mut usize,
    ) -> Result<(), (NodeId, usize)> {
        if self.bcast_total_words == 0 {
            // Unicast-only: walk the sorted (destination, words) list.
            let ew = &self.edge_words;
            let mut a = 0;
            while a < ew.len() {
                let to = ew[a].0;
                let mut words = 0usize;
                let mut b = a;
                while b < ew.len() && ew[b].0 == to {
                    words += ew[b].1;
                    b += 1;
                }
                if words > budget {
                    return Err((to, words));
                }
                if words > *max_edge {
                    *max_edge = words;
                }
                a = b;
            }
        } else if self.edge_words.is_empty() && self.skip_words.is_empty() {
            // Uniform broadcast load: every neighbor carries exactly the
            // broadcast base — one check instead of a per-neighbor walk
            // (the common flood shape; a violation's first destination is
            // the first neighbor, like the full walk's).
            if !nbrs.is_empty() {
                let words = self.bcast_total_words;
                if words > budget {
                    return Err((nbrs[0], words));
                }
                if words > *max_edge {
                    *max_edge = words;
                }
            }
        } else {
            // Broadcasting sender with non-uniform load: every neighbor
            // carries the broadcast base minus per-record skips, plus any
            // unicast words — walked in ascending destination order,
            // exactly the per-edge totals (and first-violation
            // destination) of the expanded unicast equivalent.
            let base = self.bcast_total_words;
            let (uni, skips) = (&self.edge_words, &self.skip_words);
            let (mut a, mut b) = (0, 0);
            for &to in nbrs {
                let mut words = base;
                while a < uni.len() && uni[a].0 < to {
                    a += 1;
                }
                while a < uni.len() && uni[a].0 == to {
                    words += uni[a].1;
                    a += 1;
                }
                while b < skips.len() && skips[b].0 < to {
                    b += 1;
                }
                while b < skips.len() && skips[b].0 == to {
                    words -= skips[b].1;
                    b += 1;
                }
                if words > budget {
                    return Err((to, words));
                }
                if words > *max_edge {
                    *max_edge = words;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_precomputes_sorted_edge_words() {
        let mut fx: Effects<u64> = Effects::default();
        fx.sends.push((0, 3, 7));
        fx.sends.push((1, 1, 8));
        fx.sends.push((2, 3, 9));
        fx.seal(5);
        assert_eq!(fx.send_words, vec![1, 1, 1]);
        assert_eq!(fx.edge_words, vec![(1, 1), (3, 1), (3, 1)]);
        assert_eq!(fx.memory, 5);
        assert_eq!(fx.bcast_total_words, 0);
    }

    #[test]
    fn seal_precomputes_broadcast_words_and_skips() {
        let mut fx: Effects<u64> = Effects::default();
        fx.bcasts.push((0, None, 7));
        fx.bcasts.push((1, Some(4), 8));
        fx.bcasts.push((2, Some(2), 9));
        fx.seal(0);
        assert_eq!(fx.bcast_words, vec![1, 1, 1]);
        assert_eq!(fx.bcast_total_words, 3);
        assert_eq!(fx.skip_words, vec![(2, 1), (4, 1)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut fx: Effects<u64> = Effects::default();
        let seq = fx.next_seq();
        fx.sends.push((seq, 0, 1));
        let seq = fx.next_seq();
        fx.bcasts.push((seq, None, 2));
        fx.halted = true;
        fx.wake = Some(9);
        fx.compute = 4;
        fx.seal(0);
        fx.reset();
        assert!(fx.sends.is_empty() && fx.send_words.is_empty() && fx.edge_words.is_empty());
        assert!(fx.bcasts.is_empty() && fx.bcast_words.is_empty() && fx.skip_words.is_empty());
        assert_eq!((fx.seq, fx.bcast_total_words), (0, 0));
        assert!(!fx.halted && fx.wake.is_none() && fx.compute == 0 && fx.fault.is_none());
    }
}
