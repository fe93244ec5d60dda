//! The **Distributed Rotation Algorithm** (the paper's Algorithm 1) as a
//! CONGEST protocol, generalized to run on every color class of a vertex
//! partition simultaneously (Phase 1 of DHC1/DHC2; a single class is plain
//! DRA).
//!
//! Per partition, the protocol proceeds in three stages, all message-driven:
//!
//! 1. **Color exchange** (1 round): every node learns which neighbors share
//!    its color; these are the only edges the partition may use.
//! 2. **Leader election + size count**: simultaneous min-id flood waves
//!    with echo. The winning wave's parents form a BFS tree; the echo
//!    convergecast counts the partition size at the leader. (The paper
//!    assumes an initial head and a known size; this stage constructs
//!    both, at the `O(D)` cost the analysis already budgets.)
//! 3. **Rotation path growth**: the leader starts the path (`cycindex 0`).
//!    The acting head draws a uniformly random unused same-color edge and
//!    sends `Progress(pos)`. A fresh receiver appends itself and becomes
//!    head (replying `FreshAck` so the old head learns its successor). An
//!    on-path receiver initiates a **rotation broadcast**: the renumbering
//!    parameters `(h, j, v_j, v_h)` are flooded through the partition with
//!    an echo acknowledgement; when the echo completes, the initiator sends
//!    `Resume` to the new head (its old successor). The flood's state and
//!    rules live in `flood::RotationFlood`, which DHC1's hypernode stitch
//!    shares; this module keeps the messages and the renumbering. When the
//!    head's draw hits the leader while the path spans the whole
//!    partition, the leader floods `Done(tail, head, size)` and the
//!    partition terminates.
//!
//! Failures (a partition smaller than 3, or a head running out of unused
//! edges — the paper's event `E2`) abort the partition via an `Abort`
//! flood, so the simulation always terminates with a typed outcome. Under
//! an adversary, a duplicated or delayed message can reach a node in a
//! state no clean run produces (a head that still awaits a reply, a
//! `Resume` nobody awaits, a rotation initiator without a resume target);
//! the node then ends the run with
//! [`SimError::ProtocolViolation`](dhc_congest::SimError::ProtocolViolation).

use crate::error::PartitionFailure;
use crate::flood::{flood_over, RotationFlood, RotationMsg};
use dhc_congest::{Context, Inbox, NodeId, Payload, Protocol};
use dhc_graph::rng::derive_seed;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

pub use crate::flood::RotKey;

/// Messages of the distributed rotation protocol.
///
/// Every variant carries a constant number of node ids / indices, i.e.
/// `O(log n)` bits — one CONGEST message. Positions, counts and sizes are
/// `u32` words, like the node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DraMsg {
    /// Announce own color (round 1).
    Color {
        /// The sender's partition color.
        color: u32,
    },
    /// Leader-election flood wave carrying the smallest id seen.
    Wave {
        /// Candidate leader id.
        root: NodeId,
    },
    /// Echo for [`Wave`](DraMsg::Wave): subtree size convergecast.
    WaveAck {
        /// The wave this ack belongs to.
        root: NodeId,
        /// Nodes in the acked subtree (including the sender).
        count: u32,
    },
    /// Head → drawn neighbor: "extend or rotate; I am at position `pos`".
    Progress {
        /// The head's path position (0-based `cycindex`).
        pos: u32,
    },
    /// Fresh receiver → old head: "I appended myself; I am your successor".
    FreshAck,
    /// Rotation broadcast: renumber positions in `(j, h]` via
    /// `i ← h + j + 1 − i` and swap successor/predecessor pointers.
    Rotation {
        /// Instance key.
        key: RotKey,
        /// Old head position.
        h: u32,
        /// Rotation pivot position (the initiator's position).
        j: u32,
        /// Id of the pivot node `v_j`.
        vj: NodeId,
        /// Id of the old head `v_h`.
        vh: NodeId,
    },
    /// Echo for [`Rotation`](DraMsg::Rotation).
    RotAck {
        /// Instance key.
        key: RotKey,
    },
    /// Initiator → new head after the rotation echo completes.
    Resume,
    /// Success flood: the cycle closed.
    Done {
        /// The path start (leader).
        tail: NodeId,
        /// The final head (whose closing edge reached the tail).
        head: NodeId,
        /// Partition size = cycle length.
        size: u32,
    },
    /// Failure flood.
    Abort {
        /// Encoded [`PartitionFailure`].
        reason: u8,
    },
}

impl Payload for DraMsg {
    fn words(&self) -> usize {
        match self {
            DraMsg::Color { .. } | DraMsg::Wave { .. } | DraMsg::Progress { .. } => 1,
            DraMsg::FreshAck | DraMsg::Resume => 1,
            DraMsg::WaveAck { .. } => 2,
            DraMsg::Rotation { .. } => 6,
            DraMsg::RotAck { .. } => 2,
            DraMsg::Done { .. } => 3,
            DraMsg::Abort { .. } => 1,
        }
    }
}

impl RotationMsg for DraMsg {
    const RESUME: Self = DraMsg::Resume;

    fn ack(key: RotKey) -> Self {
        DraMsg::RotAck { key }
    }
}

fn encode_failure(f: PartitionFailure) -> u8 {
    match f {
        PartitionFailure::TooSmall => 0,
        PartitionFailure::OutOfEdges => 1,
    }
}

fn decode_failure(b: u8) -> PartitionFailure {
    match b {
        0 => PartitionFailure::TooSmall,
        _ => PartitionFailure::OutOfEdges,
    }
}

/// Per-node state of the DRA protocol.
#[derive(Debug)]
pub struct DraNode {
    id: NodeId,
    /// Partition color of this node.
    pub color: u32,
    rng: SmallRng,
    /// Same-color neighbors (the partition-internal edges), which every
    /// partition flood covers: with one broadcast in the per-class runs,
    /// with unicasts in the whole-graph run `phase1_oracle.rs` pins.
    part_nbrs: Vec<NodeId>,
    colors_known: bool,

    // Leader election.
    best_root: NodeId,
    wave_parent: Option<NodeId>,
    wave_pending: usize,
    wave_acc: usize,
    is_leader: bool,

    // Rotation-path state.
    /// Shuffled unused same-color edges.
    unused: Vec<NodeId>,
    /// Path position (the paper's `cycindex`), once on the path.
    pub cycindex: Option<usize>,
    /// Successor on the (sub)cycle.
    pub succ: Option<NodeId>,
    /// Predecessor on the (sub)cycle.
    pub pred: Option<NodeId>,
    is_head: bool,
    awaiting_reply: bool,
    await_resume: bool,
    /// Partition size; known by the leader after election, by everyone
    /// after `Done`.
    pub cycle_size: Option<usize>,

    /// This node's share of the rotation broadcasts.
    rot: RotationFlood,

    /// Set when this node's partition completed its subcycle.
    pub done: bool,
    /// Set when this node's partition aborted.
    pub failed: Option<PartitionFailure>,
}

impl DraNode {
    /// Creates the protocol state for node `id` with partition color
    /// `color`; randomness is derived from `(seed, id)`.
    pub fn new(id: NodeId, color: u32, seed: u64) -> Self {
        Self::with_rng_stream(id, color, derive_seed(seed, id as u64))
    }

    /// Like [`new`](DraNode::new), but with the RNG stream seed given
    /// directly. The partition runner uses this to key each node's
    /// stream by its **global** id even when the node runs under a
    /// local id inside a per-partition subgraph simulation, so results
    /// are identical however partitions are scheduled.
    pub fn with_rng_stream(id: NodeId, color: u32, stream: u64) -> Self {
        DraNode {
            id,
            color,
            rng: SmallRng::seed_from_u64(stream),
            part_nbrs: Vec::new(),
            colors_known: false,
            best_root: id,
            wave_parent: None,
            wave_pending: 0,
            wave_acc: 0,
            is_leader: false,
            unused: Vec::new(),
            cycindex: None,
            succ: None,
            pred: None,
            is_head: false,
            awaiting_reply: false,
            await_resume: false,
            cycle_size: None,
            rot: RotationFlood::default(),
            done: false,
            failed: None,
        }
    }

    /// Whether this node ended as its partition's leader (path start).
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    fn fail_and_flood(&mut self, ctx: &mut Context<'_, DraMsg>, reason: PartitionFailure) {
        self.failed = Some(reason);
        flood_over(ctx, &self.part_nbrs, None, DraMsg::Abort { reason: encode_failure(reason) });
        ctx.halt();
    }

    /// The head draws the next unused edge and sends `Progress`.
    fn head_act(&mut self, ctx: &mut Context<'_, DraMsg>) {
        if !self.is_head || self.awaiting_reply || self.await_resume {
            ctx.violation("DRA node acted as head while not the idle head");
            return;
        }
        match self.unused.pop() {
            None => self.fail_and_flood(ctx, PartitionFailure::OutOfEdges),
            Some(u) => {
                // Every site that sets `is_head` has set `cycindex` first.
                let pos = self.cycindex.expect("head is on the path");
                ctx.send(u, DraMsg::Progress { pos: pos as u32 });
                self.awaiting_reply = true;
                ctx.charge_compute(1);
            }
        }
    }

    fn remove_unused(&mut self, v: NodeId) {
        if let Some(i) = self.unused.iter().position(|&x| x == v) {
            self.unused.swap_remove(i);
        }
    }

    fn wave_complete_check(&mut self, ctx: &mut Context<'_, DraMsg>) {
        if self.wave_pending != 0 {
            return;
        }
        match self.wave_parent {
            Some(p) => {
                let count = (1 + self.wave_acc) as u32;
                ctx.send(p, DraMsg::WaveAck { root: self.best_root, count });
            }
            None => {
                if self.best_root == self.id {
                    // Leader: knows the partition (component) size.
                    let size = 1 + self.wave_acc;
                    self.is_leader = true;
                    self.cycle_size = Some(size);
                    if size < 3 {
                        self.fail_and_flood(ctx, PartitionFailure::TooSmall);
                        return;
                    }
                    self.cycindex = Some(0);
                    self.is_head = true;
                    self.head_act(ctx);
                }
            }
        }
    }

    /// Applies the renumbering `i ← h + j + 1 − i` (plus pointer fixes) to
    /// this node for rotation `(h, j, vj, vh)`.
    fn apply_rotation(&mut self, h: usize, j: usize, vj: NodeId, vh: NodeId) {
        let Some(idx) = self.cycindex else { return };
        if self.id == vj {
            // The pivot's successor becomes the old head (set at initiation
            // for the initiator, but a pivot also receives the flood echoes
            // as duplicates, never re-applying thanks to the flood key).
            return;
        }
        if idx > j && idx <= h {
            let new_idx = h + j + 1 - idx;
            std::mem::swap(&mut self.succ, &mut self.pred);
            if idx == h {
                // Old head: new predecessor is the pivot.
                self.pred = Some(vj);
                if new_idx != h {
                    self.is_head = false;
                    self.awaiting_reply = false;
                }
            }
            if new_idx == h {
                // New head; waits for Resume before acting.
                self.succ = None;
                self.is_head = true;
                self.awaiting_reply = false;
                self.await_resume = true;
            }
            self.cycindex = Some(new_idx);
            let _ = vh; // vh is identified positionally (idx == h)
        }
    }

    fn on_progress(&mut self, ctx: &mut Context<'_, DraMsg>, s: NodeId, pos: usize) {
        self.remove_unused(s);
        match self.cycindex {
            None => {
                // Fresh node: append self, become head.
                self.cycindex = Some(pos + 1);
                self.pred = Some(s);
                self.is_head = true;
                ctx.send(s, DraMsg::FreshAck);
                self.head_act(ctx);
            }
            Some(0) if self.is_leader && self.cycle_size == Some(pos + 1) => {
                // Closing edge: the head at the last position reached the
                // path start. Flood success.
                self.pred = Some(s);
                self.done = true;
                // The match guard just compared `cycle_size` with `Some`.
                let size = self.cycle_size.expect("leader knows size") as u32;
                let tail = self.id;
                flood_over(ctx, &self.part_nbrs, None, DraMsg::Done { tail, head: s, size });
                ctx.halt();
            }
            Some(j) => {
                // Rotation: this node is the pivot v_j.
                let (h, j) = (pos as u32, j as u32);
                // At least the old head s is a partition neighbor, so the
                // flood waits for one answer or more.
                let key = self.rot.start(self.id, self.succ, self.part_nbrs.len());
                self.succ = Some(s);
                let msg = DraMsg::Rotation { key, h, j, vj: self.id, vh: s };
                flood_over(ctx, &self.part_nbrs, None, msg);
            }
        }
    }

    fn on_done(
        &mut self,
        ctx: &mut Context<'_, DraMsg>,
        s: NodeId,
        tail: NodeId,
        head: NodeId,
        size: u32,
    ) {
        if self.done || self.failed.is_some() {
            return;
        }
        self.done = true;
        self.cycle_size = Some(size as usize);
        if self.id == head {
            self.succ = Some(tail);
            self.awaiting_reply = false;
            self.is_head = false;
        }
        flood_over(ctx, &self.part_nbrs, Some(s), DraMsg::Done { tail, head, size });
        ctx.halt();
    }

    fn on_abort(&mut self, ctx: &mut Context<'_, DraMsg>, s: NodeId, reason: u8) {
        if self.done || self.failed.is_some() {
            return;
        }
        self.failed = Some(decode_failure(reason));
        flood_over(ctx, &self.part_nbrs, Some(s), DraMsg::Abort { reason });
        ctx.halt();
    }
}

impl Protocol for DraNode {
    type Msg = DraMsg;

    fn init(&mut self, ctx: &mut Context<'_, DraMsg>) {
        if ctx.degree() == 0 {
            // An isolated node can never participate (and would otherwise
            // never be invoked again): fail its 1-node partition component.
            self.failed = Some(PartitionFailure::TooSmall);
            ctx.halt();
            return;
        }
        ctx.send_all(DraMsg::Color { color: self.color });
    }

    fn round(&mut self, ctx: &mut Context<'_, DraMsg>, inbox: Inbox<'_, DraMsg>) {
        if !self.colors_known {
            // Round 1: all Color messages arrive together.
            for (from, msg) in inbox.iter() {
                if let DraMsg::Color { color } = *msg {
                    if color == self.color {
                        self.part_nbrs.push(from);
                    }
                }
            }
            self.colors_known = true;
            if self.part_nbrs.is_empty() {
                // Isolated within its partition: a 1-node component.
                self.failed = Some(PartitionFailure::TooSmall);
                ctx.halt();
                return;
            }
            self.unused = self.part_nbrs.clone();
            self.unused.shuffle(&mut self.rng);
            // Start leader election.
            self.best_root = self.id;
            self.wave_parent = None;
            self.wave_pending = self.part_nbrs.len();
            self.wave_acc = 0;
            flood_over(ctx, &self.part_nbrs, None, DraMsg::Wave { root: self.id });
            return;
        }
        for (from, msg) in inbox.iter() {
            if self.done || self.failed.is_some() {
                break;
            }
            match *msg {
                DraMsg::Color { .. } => {}
                DraMsg::Wave { root } => {
                    if root < self.best_root {
                        self.best_root = root;
                        self.wave_parent = Some(from);
                        self.wave_acc = 0;
                        self.wave_pending = self.part_nbrs.len() - 1;
                        flood_over(ctx, &self.part_nbrs, Some(from), DraMsg::Wave { root });
                        self.wave_complete_check(ctx);
                    } else if root == self.best_root {
                        self.wave_pending = self.wave_pending.saturating_sub(1);
                        self.wave_complete_check(ctx);
                    }
                    // root > best_root: stale wave, ignore.
                }
                DraMsg::WaveAck { root, count } => {
                    if root == self.best_root {
                        self.wave_acc += count as usize;
                        self.wave_pending = self.wave_pending.saturating_sub(1);
                        self.wave_complete_check(ctx);
                    }
                }
                DraMsg::Progress { pos } => self.on_progress(ctx, from, pos as usize),
                DraMsg::FreshAck => {
                    self.succ = Some(from);
                    self.awaiting_reply = false;
                    self.is_head = false;
                }
                DraMsg::Rotation { key, h, j, vj, vh } => {
                    if self.rot.copy(key, from, self.part_nbrs.len()) {
                        self.apply_rotation(h as usize, j as usize, vj, vh);
                        flood_over(ctx, &self.part_nbrs, Some(from), *msg);
                    }
                    self.rot.echo(ctx);
                }
                DraMsg::RotAck { key } => {
                    if self.rot.ack(key) {
                        self.rot.echo(ctx);
                    }
                }
                DraMsg::Resume => {
                    if !(self.is_head && self.await_resume) {
                        ctx.violation("Resume reached a DRA node that awaits none");
                        return;
                    }
                    self.await_resume = false;
                    self.head_act(ctx);
                }
                DraMsg::Done { tail, head, size } => self.on_done(ctx, from, tail, head, size),
                DraMsg::Abort { reason } => self.on_abort(ctx, from, reason),
            }
        }
    }

    fn memory_words(&self) -> usize {
        // Unused list + partition neighbor list + O(1) scalars.
        self.unused.len() + self.part_nbrs.len() + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_sizes_are_constant_words() {
        assert_eq!(DraMsg::Color { color: 1 }.words(), 1);
        assert_eq!(DraMsg::Rotation { key: (1, 2), h: 3, j: 4, vj: 5, vh: 6 }.words(), 6);
        assert_eq!(DraMsg::Done { tail: 0, head: 1, size: 2 }.words(), 3);
    }

    #[test]
    fn failure_codec_roundtrip() {
        for f in [PartitionFailure::TooSmall, PartitionFailure::OutOfEdges] {
            assert_eq!(decode_failure(encode_failure(f)), f);
        }
    }

    #[test]
    fn new_node_defaults() {
        let n: DraNode = DraNode::new(5, 2, 9);
        assert_eq!(n.color, 2);
        assert!(n.cycindex.is_none());
        assert!(!n.is_leader());
        assert!(n.failed.is_none());
    }
}
