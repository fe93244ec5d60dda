//! Cross-network engine buffer recycling.
//!
//! A [`Network`](crate::Network) owns a family of arena-style buffers —
//! the payload arena and per-node inbox lists, the per-active-node effect
//! scratch, and the scheduling scratch. Within one network they are
//! allocated once and reused every round, but a *phase* that runs many
//! networks back to back — the `√n` Phase 1 color classes, DHC2's
//! `⌈log k⌉` merge levels — used to pay the full allocation cost once
//! per network.
//!
//! [`EngineScratch`] breaks that: construct with
//! [`Network::new_with_scratch`](crate::Network::new_with_scratch) and
//! tear down with
//! [`Network::finish_with_scratch`](crate::Network::finish_with_scratch),
//! and the buffers flow from one network to the next. Recycling is
//! purely an allocation-level affair — every buffer is cleared and
//! resized for the new node count before use, so execution, metrics,
//! traces, and errors are bit-identical to fresh construction (pinned
//! by the `scratch_reuse` test suite).
//!
//! The scratch is typed by the **message type** `M`, not by the
//! protocol: any two protocols that exchange the same message type can
//! share one scratch.

use crate::adversary::Fate;
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
    /// Recycled single-buffered mailboxes (the payload arena, per-node
    /// index lists, touch and ready lists, delay queue).
    pub(crate) mail: Option<Mailboxes<M>>,
    /// Recycled per-active-node effect scratch.
    pub(crate) effects: Vec<Effects<M>>,
    /// Recycled per-round scheduling scratch (due wake-ups).
    pub(crate) woken: Vec<NodeId>,
    /// Recycled per-round scheduling scratch (merged active set).
    pub(crate) active: Vec<(NodeId, usize)>,
    /// Recycled per-round scheduling scratch (runnable list).
    pub(crate) work: Vec<NodeId>,
    /// Recycled adversarial-commit fate scratch.
    pub(crate) fates: Vec<Fate>,
    /// Recycled bandwidth-check scratch (both commit folds).
    pub(crate) charged: Vec<(NodeId, usize)>,
}

/// The buffer set a [`Network`](crate::Network) is born with — taken
/// from a warm [`EngineScratch`] or freshly allocated.
pub(crate) struct Parts<M: Payload> {
    pub(crate) mail: Mailboxes<M>,
    pub(crate) effects: Vec<Effects<M>>,
    pub(crate) woken: Vec<NodeId>,
    pub(crate) active: Vec<(NodeId, usize)>,
    pub(crate) work: Vec<NodeId>,
    pub(crate) fates: Vec<Fate>,
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
            fates: Vec::new(),
            charged: Vec::new(),
        }
    }
}

impl<M: Payload> EngineScratch<M> {
    /// An empty (cold) scratch. The first network built from it
    /// allocates normally; every later one recycles.
    pub fn new() -> Self {
        EngineScratch {
            mail: None,
            effects: Vec::new(),
            woken: Vec::new(),
            active: Vec::new(),
            work: Vec::new(),
            fates: Vec::new(),
            charged: Vec::new(),
        }
    }

    /// Whether the scratch holds recycled buffers (i.e. at least one
    /// network has been finished into it).
    pub fn is_warm(&self) -> bool {
        self.mail.is_some()
    }

    /// Takes the buffer set for a new `n`-node network, readying every
    /// recycled buffer (a donor run may have errored mid-round). The
    /// effect scratch needs no clearing here — the engine resets each
    /// entry before use.
    pub(crate) fn take_parts(&mut self, n: usize) -> Parts<M> {
        let mut mail = match self.mail.take() {
            Some(m) => m,
            None => return Parts::fresh(n),
        };
        mail.recycle(n);
        self.woken.clear();
        self.active.clear();
        self.work.clear();
        self.fates.clear();
        self.charged.clear();
        Parts {
            mail,
            effects: std::mem::take(&mut self.effects),
            woken: std::mem::take(&mut self.woken),
            active: std::mem::take(&mut self.active),
            work: std::mem::take(&mut self.work),
            fates: std::mem::take(&mut self.fates),
            charged: std::mem::take(&mut self.charged),
        }
    }

    /// Stores a finished network's buffers for the next taker,
    /// replacing whatever was held before.
    pub(crate) fn store(&mut self, parts: Parts<M>) {
        self.mail = Some(parts.mail);
        self.effects = parts.effects;
        self.woken = parts.woken;
        self.active = parts.active;
        self.work = parts.work;
        self.fates = parts.fates;
        self.charged = parts.charged;
    }
}

impl<M: Payload> Default for EngineScratch<M> {
    fn default() -> Self {
        EngineScratch::new()
    }
}
