//! Cross-network engine buffer recycling.
//!
//! A [`Network`](crate::Network) owns a family of arena-style buffers —
//! the payload arena and per-node inbox lists, the per-active-node effect
//! scratch, the scheduling scratch, and the commit fold's bandwidth-check
//! scratch. Within one network they are
//! allocated once and reused every round, but a *phase* that runs many
//! networks back to back — the `√n` Phase 1 color classes, DHC2's
//! `⌈log k⌉` merge levels — used to pay the full allocation cost once
//! per network.
//!
//! [`EngineScratch`] breaks that: construct with
//! [`Network::new_with_scratch`](crate::Network::new_with_scratch) and
//! tear down with
//! [`Network::finish_with_scratch`](crate::Network::finish_with_scratch),
//! and the buffers flow from one network to the next: the scratch holds
//! the last donor's whole buffer set, or nothing while cold. Recycling is
//! purely an allocation-level affair — every buffer is cleared and
//! resized for the new node count before use, so execution, metrics,
//! traces, and errors are bit-identical to fresh construction (pinned
//! by the `scratch_reuse` test suite).
//!
//! The scratch is typed by the **message type** `M`, not by the
//! protocol: any two protocols that exchange the same message type can
//! share one scratch.

use crate::effects::Effects;
use crate::mailbox::Mailboxes;
use crate::{NodeId, Payload};

/// Recycled allocations of finished [`Network`](crate::Network)s,
/// ready to seed the next network carrying the same message type.
///
/// Starts cold (no buffers); warms up on the first
/// [`finish_with_scratch`](crate::Network::finish_with_scratch). A
/// network constructed from a warm scratch reuses the donor's payload
/// arena and inbox lists, effect scratch, and scheduling scratch.
pub struct EngineScratch<M: Payload> {
    /// The last donor's buffers; `None` while cold.
    parts: Option<Parts<M>>,
}

/// The buffer set a [`Network`](crate::Network) is born with — taken
/// from a warm [`EngineScratch`] or freshly allocated.
pub(crate) struct Parts<M: Payload> {
    /// Single-buffered mailboxes (the payload arena, per-node index
    /// lists, touch and ready lists, delay queue).
    pub(crate) mail: Mailboxes<M>,
    /// Per-active-node effect scratch.
    pub(crate) effects: Vec<Effects<M>>,
    /// Per-round scheduling scratch: due wake-ups, merged active set,
    /// runnable list.
    pub(crate) woken: Vec<NodeId>,
    pub(crate) active: Vec<(NodeId, usize)>,
    pub(crate) work: Vec<NodeId>,
    /// Per-node bandwidth-check scratch of the commit fold.
    pub(crate) charged: Vec<(NodeId, usize)>,
}

impl<M: Payload> Parts<M> {
    /// Cold start: what [`Network::new`](crate::Network::new) allocates.
    pub(crate) fn fresh(n: usize) -> Self {
        Parts {
            mail: Mailboxes::new(n),
            effects: Vec::new(),
            woken: Vec::new(),
            active: Vec::new(),
            work: Vec::new(),
            charged: Vec::new(),
        }
    }
}

impl<M: Payload> EngineScratch<M> {
    /// An empty (cold) scratch. The first network built from it
    /// allocates normally; every later one recycles.
    pub fn new() -> Self {
        EngineScratch { parts: None }
    }

    /// Whether the scratch holds recycled buffers (i.e. at least one
    /// network has been finished into it).
    pub fn is_warm(&self) -> bool {
        self.parts.is_some()
    }

    /// Takes the buffer set for a new `n`-node network, readying the
    /// recycled mailboxes (a donor run may have errored mid-round). The
    /// effect, scheduling and bandwidth-check scratch need no clearing
    /// here — the engine clears each before use.
    pub(crate) fn take_parts(&mut self, n: usize) -> Parts<M> {
        let Some(mut parts) = self.parts.take() else { return Parts::fresh(n) };
        parts.mail.recycle(n);
        parts
    }

    /// Stores a finished network's buffers for the next taker,
    /// replacing whatever was held before.
    pub(crate) fn store(&mut self, parts: Parts<M>) {
        self.parts = Some(parts);
    }
}

impl<M: Payload> Default for EngineScratch<M> {
    fn default() -> Self {
        EngineScratch::new()
    }
}
