//! The flood shapes DRA, the DHC1 stitch and the DHC2 merge levels
//! share: [`flood_over`], one message to a subset of the neighbors, and
//! [`RotationFlood`], the rotation broadcast with echo of the paper's
//! Algorithm 1, which the stitch runs one level up, over hypernodes.

use dhc_congest::{Context, NodeId, Payload};

/// Identifier of one rotation flood: `(initiator, sequence)`.
pub type RotKey = (NodeId, u32);

/// Sends `msg` to every neighbor in `subset` but `skip`: as one broadcast
/// when `subset` is the whole neighborhood, else as one unicast per
/// member, in order. Receivers see the same messages either way.
#[inline]
pub(crate) fn flood_over<M: Payload + Copy>(
    ctx: &mut Context<'_, M>,
    subset: &[NodeId],
    skip: Option<NodeId>,
    msg: M,
) {
    if subset.len() == ctx.degree() {
        ctx.flood_except(skip, msg);
    } else {
        for &to in subset {
            if Some(to) != skip {
                ctx.send(to, msg);
            }
        }
    }
}

/// The two messages a rotation flood's echo sends.
pub(crate) trait RotationMsg: Payload {
    /// The initiator's go-ahead to the new head.
    const RESUME: Self;
    /// The echo of flood `key`, to the parent.
    fn ack(key: RotKey) -> Self;
}

/// What a node owes once every neighbor it flooded has answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Echo {
    /// Ack flood `key` to `parent`.
    Ack { parent: NodeId, key: RotKey },
    /// The initiator resumes at its saved target (`None` if it saved none).
    Resume(Option<NodeId>),
}

/// One node's share of a rotation flood with echo. The sender of the
/// first copy becomes the parent; the node relays the copy to every other
/// neighbor and completes once each of them has answered, with a copy or
/// an ack. It then acks its parent or, as the initiator, resumes the new
/// head. Key and parent stay after completion, so a late copy or ack of
/// the same flood is acked again. On a clean run none arrives: each
/// directed edge carries exactly one copy or one ack per flood.
#[derive(Debug, Default)]
pub(crate) struct RotationFlood {
    key: Option<RotKey>,
    parent: Option<NodeId>,
    /// Neighbors yet to answer. A `u32` like the node ids, which bound
    /// every degree; it keeps this struct at 40 bytes, so embedding it
    /// does not grow `DraNode`.
    pending: u32,
    initiator: bool,
    resume: Option<NodeId>,
    /// Floods this node has started.
    seq: u32,
}

impl RotationFlood {
    /// Starts a flood at `me` that waits for `fanout` answers, then
    /// resumes at `resume`. Returns the key its copies carry.
    #[inline]
    pub(crate) fn start(&mut self, me: NodeId, resume: Option<NodeId>, fanout: usize) -> RotKey {
        self.seq += 1;
        self.key = Some((me, self.seq));
        self.parent = None;
        self.pending = fanout as u32;
        self.initiator = true;
        self.resume = resume;
        (me, self.seq)
    }

    /// Takes a copy of flood `key` from `from`, at a node that floods to
    /// `fanout` neighbors. Returns `true` for the first copy, which the
    /// caller applies and relays to all but `from`; a repeat counts as
    /// `from`'s answer, as an ack would.
    #[inline]
    pub(crate) fn copy(&mut self, key: RotKey, from: NodeId, fanout: usize) -> bool {
        if self.ack(key) {
            return false;
        }
        self.key = Some(key);
        self.parent = Some(from);
        self.pending = fanout as u32 - 1;
        self.initiator = false;
        true
    }

    /// Takes an ack of flood `key`; returns whether it was this flood's,
    /// in which case the caller calls [`echo`](Self::echo).
    #[inline]
    pub(crate) fn ack(&mut self, key: RotKey) -> bool {
        let ours = self.key == Some(key);
        if ours {
            self.pending = self.pending.saturating_sub(1);
        }
        ours
    }

    /// What this node owes now: nothing while answers are pending, else
    /// an ack to its parent or the initiator's one resume.
    #[inline]
    pub(crate) fn complete(&mut self) -> Option<Echo> {
        let key = self.key?;
        if self.pending != 0 {
            return None;
        }
        if std::mem::take(&mut self.initiator) {
            return Some(Echo::Resume(self.resume));
        }
        self.parent.map(|parent| Echo::Ack { parent, key })
    }

    /// Sends what [`complete`](Self::complete) says this node owes. A
    /// missing resume target is a protocol violation.
    #[inline]
    pub(crate) fn echo<M: RotationMsg>(&mut self, ctx: &mut Context<'_, M>) {
        match self.complete() {
            Some(Echo::Ack { parent, key }) => ctx.send(parent, M::ack(key)),
            Some(Echo::Resume(Some(target))) => ctx.send(target, M::RESUME),
            Some(Echo::Resume(None)) => ctx.violation("rotation initiator has no resume target"),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initiator_resumes_once_every_neighbor_answered() {
        let mut f = RotationFlood::default();
        let key = f.start(4, Some(9), 3);
        assert_eq!(key, (4, 1));
        assert!(f.ack(key));
        assert!(!f.copy(key, 6, 5)); // a neighbor's own copy is its answer
        assert_eq!(f.complete(), None);
        assert!(!f.ack((4, 7))); // another flood's ack does not count
        assert!(f.ack(key));
        assert_eq!(f.complete(), Some(Echo::Resume(Some(9))));
        // The initiator resumes once, and a late copy owes nothing.
        assert!(!f.copy(key, 6, 5));
        assert_eq!(f.complete(), None);
        assert_eq!(f.start(4, Some(9), 1), (4, 2));
    }

    #[test]
    fn relay_acks_its_parent_after_its_neighbors_answer() {
        let mut f = RotationFlood::default();
        let key = (2, 5);
        assert!(f.copy(key, 7, 3));
        assert_eq!(f.complete(), None);
        assert!(!f.copy(key, 8, 3));
        assert!(f.ack(key));
        assert_eq!(f.complete(), Some(Echo::Ack { parent: 7, key }));
        // A leaf that floods to its parent only acks at once.
        let mut leaf = RotationFlood::default();
        assert!(leaf.copy(key, 7, 1));
        assert_eq!(leaf.complete(), Some(Echo::Ack { parent: 7, key }));
    }

    #[test]
    fn late_copy_of_a_completed_flood_is_acked_again() {
        let mut f = RotationFlood::default();
        let key = (2, 5);
        assert!(f.copy(key, 7, 2));
        assert!(f.ack(key));
        assert_eq!(f.complete(), Some(Echo::Ack { parent: 7, key }));
        assert!(!f.copy(key, 8, 2));
        assert_eq!(f.complete(), Some(Echo::Ack { parent: 7, key }));
        // A new flood replaces the old one.
        assert!(f.copy((3, 1), 8, 2));
        assert_eq!(f.complete(), None);
    }

    #[test]
    fn missing_resume_target_comes_back_as_none() {
        let mut f = RotationFlood::default();
        let key = f.start(0, None, 1);
        assert!(f.ack(key));
        assert_eq!(f.complete(), Some(Echo::Resume(None)));
    }
}
