//! **DHC1** (the paper's Algorithm 2, `p = c ln n / √n`): Phase-1 partition
//! DRA over `√n` color classes, then a **hypernode DRA** that stitches the
//! `√n` subcycles into one Hamiltonian cycle.
//!
//! A *hypernode* is one edge of a subcycle: the node at `cycindex` 0
//! (`u_i`) and its cycle predecessor (`v_i`). The final cycle will traverse
//! subcycle `C_i` as the path between its two **terminals** `u_i, v_i`
//! that avoids the edge `(v_i, u_i)` — a path that can be walked in either
//! direction, which is what makes segment reversals sound ("hypernode
//! orientation").
//!
//! The stitching is a rotation-path construction over hypernodes:
//!
//! * the **live terminal** (the exit of the head hypernode) draws a random
//!   unused edge to a terminal of another hypernode and sends
//!   `HypProgress(pos)`;
//! * a terminal of an off-path hypernode accepts (`HypFreshAck`), becomes
//!   that hypernode's entry, and promotes its partner to the new live exit
//!   (`BecomeHead`);
//! * the exit terminal of an on-path hypernode `f_j` triggers a rotation:
//!   the segment `(j, h]` of the hypernode path reverses, each reversed
//!   hypernode swapping entry/exit roles (always realizable, since the
//!   subcycle path between terminals is undirected). The rotation
//!   parameters are flooded over the whole graph with an echo, after which
//!   the initiator resumes the new head — exactly the DRA pattern, one
//!   level up;
//! * an entry terminal, or the free terminal of the first hypernode while
//!   the path is incomplete, rejects the draw (`HypReject`) — these draws
//!   are the price of the orientation-sound construction;
//! * when the head's draw hits the free terminal of hypernode 0 and the
//!   path spans all `k` hypernodes, the cycle closes (`HypDone` flood).
//!
//! The final edge set: every non-terminal keeps its Phase-1
//! `(pred, succ)`; each terminal replaces its partner-side subcycle edge
//! with its cross-edge `link`.

use crate::kmachine::KMachineProbe;
use crate::output::NodeCycleOutput;
use crate::runner::{
    compact_colors, draw_colors, run_phase1, Phase1Outcome, PhaseBreakdown, RunOutcome,
};
use crate::{cycle_from_incident_pairs, DhcConfig, DhcError};
use dhc_congest::{Context, Inbox, Network, NodeId, Payload, Protocol, SimError, Span};
use dhc_graph::rng::derive_seed;
use dhc_graph::Graph;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Identifier of one hypernode-rotation broadcast: `(initiator, sequence)`.
pub type RotKey = (NodeId, u32);

/// Messages of the hypernode-stitching phase. Positions are `u32` words,
/// like the node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypMsg {
    /// A terminal announces itself (and its color) to all neighbors.
    TermAnnounce {
        /// The sender's partition color.
        color: u32,
    },
    /// Live terminal → drawn terminal: extend or rotate.
    HypProgress {
        /// The head hypernode's path position.
        pos: u32,
    },
    /// Fresh hypernode accepted the extension.
    HypFreshAck,
    /// Entry terminal → its partner: you are the new live exit.
    BecomeHead {
        /// The accepting hypernode's new path position.
        pos: u32,
    },
    /// Target was not usable (entry terminal, or early closing attempt).
    HypReject,
    /// Rotation broadcast (flooded over all edges, echo-terminated):
    /// reverse hypernode-path segment `(j, h]`.
    HypRotation {
        /// Instance key.
        key: RotKey,
        /// Old head hypernode position.
        h: u32,
        /// Rotation pivot hypernode position.
        j: u32,
        /// The drawn terminal (the pivot's exit).
        y: NodeId,
        /// The drawing live terminal.
        x: NodeId,
    },
    /// Echo for [`HypRotation`](HypMsg::HypRotation).
    HypRotAck {
        /// Instance key.
        key: RotKey,
    },
    /// Rotation finished; the new live terminal may act.
    HypResume,
    /// Success flood: closing cross-edge `(x, y)` chosen.
    HypDone {
        /// The drawing live terminal.
        x: NodeId,
        /// The closing target (hypernode 0's free terminal).
        y: NodeId,
    },
    /// Failure flood: the live terminal ran out of unused edges.
    HypAbort,
}

impl Payload for HypMsg {
    fn words(&self) -> usize {
        match self {
            HypMsg::TermAnnounce { .. }
            | HypMsg::HypProgress { .. }
            | HypMsg::HypFreshAck
            | HypMsg::BecomeHead { .. }
            | HypMsg::HypReject
            | HypMsg::HypResume
            | HypMsg::HypAbort => 1,
            HypMsg::HypRotation { .. } => 6,
            HypMsg::HypRotAck { .. } => 2,
            HypMsg::HypDone { .. } => 2,
        }
    }
}

/// Role of a terminal on the hypernode path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermRole {
    /// Not carrying a cross edge (off-path hypernode, or the open start of
    /// the path at hypernode 0).
    Free,
    /// Carries the cross edge toward the previous hypernode.
    Entry,
    /// Carries the cross edge toward the next hypernode (the head's exit
    /// has no cross edge yet — it is the live end).
    Exit,
}

/// Per-node state of the stitching protocol.
#[derive(Debug)]
pub(crate) struct HypNode {
    id: NodeId,
    color: u32,
    idx: usize,
    succ: NodeId,
    pred: NodeId,
    k: usize,
    rng: SmallRng,

    is_terminal: bool,
    /// The other terminal of this node's hypernode (terminals only).
    partner: NodeId,
    role: TermRole,
    hypidx: Option<usize>,
    /// The cross-edge neighbor this terminal uses in the final cycle.
    pub link: Option<NodeId>,
    unused: Vec<(NodeId, u32)>,
    announces_seen: bool,
    live: bool,
    awaiting: bool,

    // Rotation flood relay state (over all edges).
    rot_key: Option<RotKey>,
    rot_parent: Option<NodeId>,
    rot_pending: usize,
    rot_initiator: bool,
    rot_resume_target: Option<NodeId>,
    rot_seq: u32,

    /// Set when the stitch completed.
    pub done: bool,
    /// Set when the stitch aborted.
    pub failed: bool,
}

impl HypNode {
    /// `state` is this node's Phase-1 result; `k` the number of subcycles.
    #[allow(clippy::too_many_arguments)] // mirrors the Phase-1 state tuple
    pub(crate) fn new(
        id: NodeId,
        color: u32,
        idx: usize,
        succ: NodeId,
        pred: NodeId,
        size: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        // Terminals: cycindex 0 (u_i) and cycindex size-1 (v_i = pred u_i).
        let is_terminal = idx == 0 || idx == size - 1;
        let partner = if idx == 0 { pred } else { succ };
        // Hypernode 0 starts on the path: its u-terminal is the live exit,
        // its v-terminal the free path start (the eventual closing point).
        let (role, hypidx, live) = if color == 0 && is_terminal {
            if idx == 0 {
                (TermRole::Exit, Some(0), true)
            } else {
                (TermRole::Free, Some(0), false)
            }
        } else {
            (TermRole::Free, None, false)
        };
        HypNode {
            id,
            color,
            idx,
            succ,
            pred,
            k,
            rng: SmallRng::seed_from_u64(derive_seed(seed, 0x6000 + id as u64)),
            is_terminal,
            partner,
            role,
            hypidx,
            link: None,
            unused: Vec::new(),
            announces_seen: false,
            live,
            awaiting: false,
            rot_key: None,
            rot_parent: None,
            rot_pending: 0,
            rot_initiator: false,
            rot_resume_target: None,
            rot_seq: 0,
            done: false,
            failed: false,
        }
    }

    fn abort_flood(&mut self, ctx: &mut Context<'_, HypMsg>, skip: Option<NodeId>) {
        if self.done || self.failed {
            return;
        }
        self.failed = true;
        ctx.flood_except(skip, HypMsg::HypAbort);
        ctx.halt();
    }

    fn done_flood(
        &mut self,
        ctx: &mut Context<'_, HypMsg>,
        x: NodeId,
        y: NodeId,
        skip: Option<NodeId>,
    ) {
        if self.done || self.failed {
            return;
        }
        self.done = true;
        if self.id == x {
            self.link = Some(y);
        }
        ctx.flood_except(skip, HypMsg::HypDone { x, y });
        ctx.halt();
    }

    /// The live terminal draws the next unused cross edge.
    fn head_act(&mut self, ctx: &mut Context<'_, HypMsg>) {
        debug_assert!(self.live && !self.awaiting);
        match self.unused.pop() {
            None => self.abort_flood(ctx, None),
            Some((t, _)) => {
                let pos = self.hypidx.expect("live terminal's hypernode is on the path");
                ctx.send(t, HypMsg::HypProgress { pos: pos as u32 });
                self.awaiting = true;
                ctx.charge_compute(1);
            }
        }
    }

    fn remove_unused(&mut self, t: NodeId) {
        if let Some(i) = self.unused.iter().position(|&(x, _)| x == t) {
            self.unused.swap_remove(i);
        }
    }

    fn on_progress(&mut self, ctx: &mut Context<'_, HypMsg>, x: NodeId, pos: usize) {
        self.remove_unused(x);
        match self.hypidx {
            None => {
                // Fresh hypernode: this terminal becomes the entry.
                self.role = TermRole::Entry;
                self.link = Some(x);
                self.hypidx = Some(pos + 1);
                ctx.send(self.partner, HypMsg::BecomeHead { pos: (pos + 1) as u32 });
                ctx.send(x, HypMsg::HypFreshAck);
            }
            Some(j) => {
                match self.role {
                    TermRole::Exit if self.link.is_some() => {
                        // Rotation pivot: f_j's exit re-links to x (the old
                        // head hypernode's exit, which becomes its entry).
                        self.rot_seq += 1;
                        let key = (self.id, self.rot_seq);
                        self.rot_resume_target = self.link;
                        self.link = Some(x);
                        self.rot_key = Some(key);
                        self.rot_parent = None;
                        self.rot_initiator = true;
                        self.rot_pending = ctx.degree();
                        ctx.send_all(HypMsg::HypRotation {
                            key,
                            h: pos as u32,
                            j: j as u32,
                            y: self.id,
                            x,
                        });
                    }
                    TermRole::Free => {
                        // Only hypernode 0's open start is Free-on-path.
                        if pos == self.k - 1 {
                            // Closing: the path spans all hypernodes.
                            self.role = TermRole::Entry;
                            self.link = Some(x);
                            self.done_flood(ctx, x, self.id, None);
                        } else {
                            ctx.send(x, HypMsg::HypReject);
                        }
                    }
                    _ => {
                        // Entry terminal (or live exit, unreachable):
                        // unusable in this orientation.
                        ctx.send(x, HypMsg::HypReject);
                    }
                }
            }
        }
    }

    /// Applies a hypernode rotation to this terminal.
    fn apply_rotation(&mut self, h: usize, j: usize, y: NodeId, x: NodeId) {
        if !self.is_terminal || self.id == y {
            return;
        }
        let Some(idx) = self.hypidx else { return };
        if idx > j && idx <= h {
            self.hypidx = Some(h + j + 1 - idx);
            match self.role {
                TermRole::Entry => {
                    self.role = TermRole::Exit;
                    if self.link == Some(y) && idx == j + 1 {
                        // This is z: the new live end.
                        self.link = None;
                        self.live = true;
                        self.awaiting = true; // act only on HypResume
                    }
                }
                TermRole::Exit => {
                    self.role = TermRole::Entry;
                    if self.id == x {
                        // The old live end now carries the new cross edge.
                        self.link = Some(y);
                        self.live = false;
                        self.awaiting = false;
                    }
                }
                TermRole::Free => {}
            }
        }
    }

    fn rot_complete_check(&mut self, ctx: &mut Context<'_, HypMsg>) {
        if self.rot_pending != 0 || self.rot_key.is_none() {
            return;
        }
        if self.rot_initiator {
            let target = self.rot_resume_target.expect("initiator saved old link");
            ctx.send(target, HypMsg::HypResume);
            self.rot_initiator = false;
        } else if let Some(p) = self.rot_parent {
            let key = self.rot_key.expect("checked above");
            ctx.send(p, HypMsg::HypRotAck { key });
            self.rot_parent = None;
        }
    }

    #[allow(clippy::too_many_arguments)] // one parameter per message field
    fn on_rotation(
        &mut self,
        ctx: &mut Context<'_, HypMsg>,
        from: NodeId,
        key: RotKey,
        h: u32,
        j: u32,
        y: NodeId,
        x: NodeId,
    ) {
        if self.rot_key == Some(key) {
            self.rot_pending = self.rot_pending.saturating_sub(1);
            self.rot_complete_check(ctx);
            return;
        }
        self.rot_key = Some(key);
        self.rot_parent = Some(from);
        self.rot_initiator = false;
        self.apply_rotation(h as usize, j as usize, y, x);
        self.rot_pending = ctx.degree() - 1;
        ctx.send_all_except(from, HypMsg::HypRotation { key, h, j, y, x });
        self.rot_complete_check(ctx);
    }

    /// This node's final two cycle neighbors.
    pub(crate) fn output(&self) -> Option<NodeCycleOutput> {
        if !self.is_terminal {
            return Some(NodeCycleOutput::new(self.pred, self.succ));
        }
        let link = self.link?;
        let inner = if self.idx == 0 { self.succ } else { self.pred };
        Some(NodeCycleOutput::new(inner, link))
    }
}

impl Protocol for HypNode {
    type Msg = HypMsg;

    fn init(&mut self, ctx: &mut Context<'_, HypMsg>) {
        if ctx.degree() == 0 {
            // Unreachable after a successful Phase 1, but keeps the engine
            // from stalling on degenerate inputs.
            self.failed = true;
            ctx.halt();
            return;
        }
        if self.is_terminal {
            ctx.send_all(HypMsg::TermAnnounce { color: self.color });
        }
        if self.live {
            // Ensure the initial head is invoked after the announce round
            // even if it has no terminal neighbors.
            ctx.wake_in(2);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, HypMsg>, inbox: Inbox<'_, HypMsg>) {
        if !self.announces_seen {
            self.announces_seen = true;
            if self.is_terminal {
                for (from, msg) in inbox.iter() {
                    if let HypMsg::TermAnnounce { color } = *msg {
                        if color != self.color {
                            self.unused.push((from, color));
                        }
                    }
                }
                self.unused.shuffle(&mut self.rng);
            }
            if self.live && !self.awaiting {
                self.head_act(ctx);
                return;
            }
        }
        for (from, msg) in inbox.iter() {
            if self.done || self.failed {
                break;
            }
            match *msg {
                HypMsg::TermAnnounce { .. } => {}
                HypMsg::HypProgress { pos } => self.on_progress(ctx, from, pos as usize),
                HypMsg::HypFreshAck => {
                    // Our drawn terminal accepted: the cross edge stands.
                    self.link = Some(from);
                    self.live = false;
                    self.awaiting = false;
                }
                HypMsg::BecomeHead { pos } => {
                    self.role = TermRole::Exit;
                    self.hypidx = Some(pos as usize);
                    self.link = None;
                    self.live = true;
                    self.awaiting = false;
                    self.head_act(ctx);
                }
                HypMsg::HypReject => {
                    // Draw wasted; try the next unused edge.
                    self.awaiting = false;
                    if self.live {
                        self.head_act(ctx);
                    }
                }
                HypMsg::HypRotation { key, h, j, y, x } => {
                    self.on_rotation(ctx, from, key, h, j, y, x)
                }
                HypMsg::HypRotAck { key } => {
                    if self.rot_key == Some(key) {
                        self.rot_pending = self.rot_pending.saturating_sub(1);
                        self.rot_complete_check(ctx);
                    }
                }
                HypMsg::HypResume => {
                    debug_assert!(self.live);
                    self.awaiting = false;
                    self.head_act(ctx);
                }
                HypMsg::HypDone { x, y } => self.done_flood(ctx, x, y, Some(from)),
                HypMsg::HypAbort => self.abort_flood(ctx, Some(from)),
            }
        }
    }

    fn memory_words(&self) -> usize {
        2 * self.unused.len() + 24
    }
}

/// Runs the full DHC1 algorithm, optionally instrumented with the
/// k-machine accounting probe (see [`crate::kmachine`]).
pub(crate) fn run(
    graph: &Graph,
    cfg: &DhcConfig,
    mut km: Option<&mut KMachineProbe>,
) -> Result<RunOutcome, DhcError> {
    let n = graph.node_count();
    cfg.validate_run(n)?;
    let (partition, _) = draw_colors(n, cfg);
    // Dense class ids, so hypernode indices are too.
    let compacted = compact_colors(&partition);
    let k = compacted.class_count();

    let mut run_span = Span::root(cfg.collector.as_ref(), "run", format!("dhc1 n={n} k={k}"));
    let phase1 = run_phase1(graph, &compacted, cfg, km.as_deref_mut(), &run_span)?;
    let outcome = stitch(graph, cfg, km, k, &phase1, &run_span)?;
    run_span.add(outcome.metrics.rounds as u64, outcome.metrics.messages, outcome.metrics.words);
    drop(run_span);
    if let Some(col) = &cfg.collector {
        col.flush();
    }
    Ok(outcome)
}

/// The hypernode stitch (Phase 2). Its messages differ from Phase 1's,
/// so its network allocates its own engine buffers.
fn stitch(
    graph: &Graph,
    cfg: &DhcConfig,
    km: Option<&mut KMachineProbe>,
    k: usize,
    phase1: &Phase1Outcome,
    parent: &Span,
) -> Result<RunOutcome, DhcError> {
    let mut metrics = phase1.metrics.clone();
    let mut phases = vec![PhaseBreakdown {
        name: "phase1".to_string(),
        rounds: phase1.metrics.rounds,
        messages: phase1.metrics.messages,
    }];

    if k == 1 {
        let pairs: Vec<NodeCycleOutput> =
            phase1.states.iter().map(|s| NodeCycleOutput::new(s.pred, s.succ)).collect();
        let cycle = cycle_from_incident_pairs(graph, &pairs)?;
        return Ok(RunOutcome { cycle, metrics, phases });
    }

    let mut phase_span = parent.child("phase", format!("hypernode-stitch k={k}"));
    let nodes: Vec<HypNode> = phase1
        .states
        .iter()
        .enumerate()
        .map(|(v, s)| {
            HypNode::new((v) as u32, s.color, s.cycindex, s.succ, s.pred, s.cycle_size, k, cfg.seed)
        })
        .collect();
    let mut net = match km.as_deref() {
        Some(p) => Network::new_with_machines(graph, cfg.sim_config(), nodes, p.global_map())?,
        None => Network::new(graph, cfg.sim_config(), nodes)?,
    };
    let run_result = net.run();
    let (report, nodes) = net.finish();
    let phase2_metrics = report.metrics;
    let phase2_machine_log = report.machine_log;
    let placed = nodes.iter().filter_map(|nd| nd.hypidx).max().map(|m| m + 1).unwrap_or(0);
    match run_result {
        Ok(_) => {}
        Err(SimError::Stalled { .. }) => return Err(DhcError::StitchFailed { placed, total: k }),
        Err(e) => return Err(e.into()),
    }
    if nodes.iter().any(|nd| nd.failed) {
        return Err(DhcError::StitchFailed { placed, total: k });
    }
    metrics.merge(&phase2_metrics);
    if let (Some(p), Some(log)) = (km, phase2_machine_log) {
        p.absorb_phase_log(log);
    }
    phase_span.add(phase2_metrics.rounds as u64, phase2_metrics.messages, phase2_metrics.words);
    drop(phase_span);
    phases.push(PhaseBreakdown {
        name: "hypernode-stitch".to_string(),
        rounds: phase2_metrics.rounds,
        messages: phase2_metrics.messages,
    });

    let pairs: Vec<NodeCycleOutput> = nodes
        .iter()
        .map(|nd| nd.output().ok_or(DhcError::StitchFailed { placed, total: k }))
        .collect::<Result<_, _>>()?;
    let cycle = cycle_from_incident_pairs(graph, &pairs)?;
    Ok(RunOutcome { cycle, metrics, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhc_graph::{generator, rng::rng_from_seed, thresholds};

    #[test]
    fn message_words_are_constant() {
        assert_eq!(HypMsg::TermAnnounce { color: 1 }.words(), 1);
        assert_eq!(HypMsg::HypRotation { key: (0, 1), h: 2, j: 3, y: 4, x: 5 }.words(), 6);
        assert_eq!(HypMsg::HypDone { x: 1, y: 2 }.words(), 2);
    }

    #[test]
    fn dhc1_end_to_end_at_paper_operating_point() {
        // p = c ln n / sqrt(n): the DHC1 regime. The guarantee is
        // probabilistic (success 1 - O(1/n)), so scan a small seed
        // window instead of betting on one stream.
        let n = 256;
        let p = thresholds::edge_probability(n, 0.5, 6.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(50)).unwrap();
        let out = (51..59)
            .filter_map(|seed| run(&g, &DhcConfig::new(seed).with_delta(0.5), None).ok())
            .next()
            .expect("DHC1 should succeed for at least one of 8 seeds");
        assert_eq!(out.cycle.len(), n);
        assert_eq!(out.phases.len(), 2);
        assert_eq!(out.phases[1].name, "hypernode-stitch");
    }

    #[test]
    fn dhc1_with_few_partitions_on_dense_graph() {
        // Few hypernodes need high cross-terminal density: with k
        // hypernodes a live terminal draws from only 2(k-1) foreign
        // terminals, so k = 8 at p = 0.8 keeps starvation unlikely.
        let n = 160;
        let g = generator::gnp(n, 0.8, &mut rng_from_seed(52)).unwrap();
        let out = run(&g, &DhcConfig::new(53).with_partitions(6), None).unwrap();
        assert_eq!(out.cycle.len(), n);
    }

    #[test]
    fn dhc1_single_partition_short_circuits() {
        let n = 64;
        let g = generator::gnp(n, 0.5, &mut rng_from_seed(54)).unwrap();
        let out = run(&g, &DhcConfig::new(55).with_delta(1.0), None).unwrap();
        assert_eq!(out.cycle.len(), n);
        assert_eq!(out.phases.len(), 1);
    }

    #[test]
    fn dhc1_is_deterministic() {
        let n = 128;
        let g = generator::gnp(n, 0.8, &mut rng_from_seed(56)).unwrap();
        // Any seed works for a determinism check; use the first in a
        // small window whose run succeeds on this dense instance.
        let cfg = (57..65)
            .map(|seed| DhcConfig::new(seed).with_partitions(8))
            .find(|cfg| run(&g, cfg, None).is_ok())
            .expect("DHC1 should succeed for at least one of 8 seeds");
        let a = run(&g, &cfg, None).unwrap();
        let b = run(&g, &cfg, None).unwrap();
        assert_eq!(a.cycle.order(), b.cycle.order());
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }

    #[test]
    fn dhc1_stitch_failure_on_cross_sparse_graph() {
        // Two cliques joined by a single edge, forced 2-coloring: Phase 1
        // succeeds per clique, but the hypernode graph has (almost surely)
        // no usable terminal-to-terminal edges: typed stitch failure.
        let mut edges = vec![(0, 8)];
        for u in 0..8 {
            for v in (u + 1)..8 {
                edges.push((u, v));
                edges.push((u + 8, v + 8));
            }
        }
        let g = Graph::from_edges(16, edges).unwrap();
        let cfg = DhcConfig::new(3).with_partitions(2);
        // Control the partition via the config's seed-derived coloring is
        // random; instead check that whatever happens is a typed outcome.
        match run(&g, &cfg, None) {
            Ok(out) => assert_eq!(out.cycle.len(), 16),
            Err(e) => assert!(
                matches!(e, DhcError::StitchFailed { .. } | DhcError::PartitionFailed { .. }),
                "{e:?}"
            ),
        }
    }
}
