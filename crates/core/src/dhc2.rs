//! **DHC2** (the paper's Algorithm 3): Phase-1 partition DRA followed by
//! `⌈log₂ k⌉` parallel **merge levels**.
//!
//! After Phase 1 there are `k = n^{1-δ}` vertex-disjoint subcycles, indexed
//! by color. At each level, cycles of colors `(2t, 2t+1)` form a pair; the
//! even ("active") cycle finds a **bridge** to its partner — a pair of
//! vertex-disjoint cross edges `(v, w)` and `(succ v, x)` with
//! `x ∈ {succ w, pred w}` — splices the two cycles by replacing one cycle
//! edge on each side with the cross edges, renumbers, and both cycles adopt
//! color `⌊color/2⌋`. A color left without a partner skips the level.
//!
//! ## Distributed realization (one CONGEST protocol per level)
//!
//! 1. **Color exchange** (1 round): neighbors learn each other's current
//!    colors.
//! 2. **Bridge discovery**: every passive node `w` sends
//!    `(succ w, pred w, idx w, size)` to its active-colored neighbors; every
//!    active node `u` pipelines its partner-colored neighbor ids to its
//!    cycle predecessor `v`. Node `v` then knows, for each partner neighbor
//!    `w`, whether `succ w` or `pred w` is adjacent to `u = succ v` — i.e.
//!    whether `((v,w),(u,x))` is a bridge. This realizes the paper's
//!    `verify`/`verified` exchange with explicit CONGEST-size messages.
//! 3. **Candidate selection**: the active cycle's coordinator (its
//!    `cycindex`-0 node) floods a collect request over the cycle's color
//!    class; the echo aggregates the minimum candidate (the paper's
//!    "smallest bridge" rule).
//! 4. **Decision broadcast**: the coordinator floods the chosen bridge and
//!    both cycle sizes over the union of the two color classes; every node
//!    locally recomputes its index, successor/predecessor, size, and new
//!    color (the paper's `Renumbering` + `color ← ⌈color/2⌉`).
//!
//! Levels are separated by a global barrier (one protocol execution per
//! level), which the paper's synchronous phase structure assumes.

use crate::kmachine::KMachineProbe;
use crate::output::pairs_from_links;
use crate::runner::{compact_colors, draw_colors, run_phase1, PhaseBreakdown, RunOutcome};
use crate::{cycle_from_incident_pairs, DhcConfig, DhcError};
use dhc_congest::{
    Context, EngineScratch, Inbox, Metrics, Network, NodeId, Payload, Protocol, SimError, Span,
};
use dhc_graph::{Graph, Partition};
use std::collections::HashSet;

/// Which of the partner's cycle edges the bridge replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Case {
    /// Replace `(w, succ w)`; cross edges `(v, w)` and `(succ v, succ w)`.
    /// The partner cycle is traversed reversed in the merged cycle.
    SuccSide,
    /// Replace `(pred w, w)`; cross edges `(v, w)` and `(succ v, pred w)`.
    /// The partner cycle keeps its orientation.
    PredSide,
}

/// A bridge candidate, generated at the active-side node `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    v_id: NodeId,
    w_id: NodeId,
    u_id: NodeId,
    x_id: NodeId,
    v_idx: u32,
    w_idx: u32,
    s2: u32,
    case: Case,
}

impl Candidate {
    /// Total order for the "smallest bridge" rule.
    fn key(&self) -> (NodeId, NodeId, u8) {
        (self.v_id, self.w_id, if self.case == Case::SuccSide { 0 } else { 1 })
    }
}

fn min_cand(a: Option<Candidate>, b: Option<Candidate>) -> Option<Candidate> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(if x.key() <= y.key() { x } else { y }),
    }
}

/// The chosen bridge plus everything needed for local renumbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    case: Case,
    v_idx: u32,
    w_idx: u32,
    s1: u32,
    s2: u32,
    v_id: NodeId,
    w_id: NodeId,
    u_id: NodeId,
    x_id: NodeId,
}

/// One node's cycle bookkeeping between levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CycleState {
    pub color: u32,
    pub idx: usize,
    pub succ: NodeId,
    pub pred: NodeId,
    pub size: usize,
}

/// Applies the splice to one node's state. `active_side` says whether the
/// node belongs to the even-colored (active) cycle.
pub(crate) fn apply_decision(st: &mut CycleState, d: &Decision, active_side: bool) {
    let (v_idx, w_idx) = (d.v_idx as usize, d.w_idx as usize);
    let (s1, s2) = (d.s1 as usize, d.s2 as usize);
    let u_idx = (v_idx + 1) % s1;
    if active_side {
        // Cycle 1 keeps orientation; reindex so u sits at 0 and v at s1-1.
        st.idx = (st.idx + s1 - u_idx) % s1;
        if st.idx == s1 - 1 {
            // This is v: its successor becomes w.
            st.succ = d.w_id;
        }
        if st.idx == 0 {
            // This is u: its predecessor becomes x.
            st.pred = d.x_id;
        }
    } else {
        match d.case {
            Case::SuccSide => {
                // Cycle 2 reversed: w at s1, then pred-direction.
                let old_idx = st.idx;
                st.idx = s1 + ((w_idx + s2 - old_idx) % s2);
                std::mem::swap(&mut st.succ, &mut st.pred);
                if old_idx == w_idx {
                    st.pred = d.v_id;
                }
                if old_idx == (w_idx + 1) % s2 {
                    // This is x = succ(w): its (post-swap) successor is u.
                    st.succ = d.u_id;
                }
            }
            Case::PredSide => {
                // Cycle 2 keeps orientation: w at s1, forward.
                let old_idx = st.idx;
                st.idx = s1 + ((old_idx + s2 - w_idx) % s2);
                if old_idx == w_idx {
                    st.pred = d.v_id;
                }
                if old_idx == (w_idx + s2 - 1) % s2 {
                    // This is x = pred(w): its successor is u.
                    st.succ = d.u_id;
                }
            }
        }
    }
    st.size = s1 + s2;
    st.color /= 2;
}

/// Messages of one merge level. Indices and sizes are `u32` words, like
/// the node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MergeMsg {
    /// Current color announcement (round 1).
    Color { color: u32 },
    /// Passive node → active neighbors: cycle bookkeeping needed to test
    /// bridges (the paper's `verified` reply, batched).
    SuccPred { succ: NodeId, pred: NodeId, idx: u32, size: u32 },
    /// Pipelined item: one partner-colored neighbor id of the sender
    /// (sent from `u` to its cycle predecessor `v`).
    NbrItem { x: NodeId },
    /// End of the pipelined neighbor list.
    NbrEnd,
    /// Collect-wave flood over the active color class.
    CollectReq,
    /// Collect-wave echo carrying the subtree's best candidate.
    CollectReply { best: Option<Candidate> },
    /// The chosen bridge, flooded over both color classes.
    Decision(Decision),
    /// No bridge exists for this pair: abort flood.
    NoBridge,
}

impl Payload for MergeMsg {
    fn words(&self) -> usize {
        match self {
            MergeMsg::Color { .. } | MergeMsg::NbrItem { .. } | MergeMsg::NbrEnd => 1,
            MergeMsg::CollectReq | MergeMsg::NoBridge => 1,
            MergeMsg::SuccPred { .. } => 4,
            MergeMsg::CollectReply { .. } => 9,
            MergeMsg::Decision(_) => 9,
        }
    }
}

/// Role of a node at this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Even color with an existing partner color: initiates the merge.
    Active,
    /// Odd color: answers queries, receives the decision.
    Passive,
    /// Even color without a partner this level: skips (color halves).
    Leftover,
}

/// Per-node protocol state for one merge level.
#[derive(Debug)]
pub(crate) struct MergeNode {
    id: NodeId,
    st: CycleState,
    role: Role,
    colors_known: bool,

    same_nbrs: Vec<NodeId>,
    partner_nbrs: Vec<NodeId>,
    relay_nbrs: Vec<NodeId>,
    /// Whether the relay set (both paired color classes) covers the whole
    /// neighborhood — always true at the last merge level — so the
    /// decision/abort floods can ride the O(1) broadcast fabric.
    relay_all: bool,

    /// As `u`: queue of partner-neighbor ids to pipeline to `pred`.
    send_queue: Vec<NodeId>,
    sent_end: bool,
    /// As `v`: the successor's partner-neighbor set.
    uset: HashSet<NodeId>,
    nbr_end_received: bool,
    /// As `v`: partner neighbors' bookkeeping: (w, succ, pred, idx, size).
    succpred: Vec<(NodeId, NodeId, NodeId, u32, u32)>,

    cand: Option<Candidate>,
    cand_ready: bool,

    // Collect wave (active color class only).
    collect_seen: bool,
    collect_parent: Option<NodeId>,
    collect_pending: usize,
    collect_replied: bool,
    best: Option<Candidate>,

    /// Set once this node applied the level's decision (or skipped).
    pub decided: bool,
    /// Set when the pair had no bridge.
    pub no_bridge: bool,
}

impl MergeNode {
    pub(crate) fn new(id: NodeId, st: CycleState, colors_remaining: usize) -> Self {
        let role = if st.color % 2 == 1 {
            Role::Passive
        } else if (st.color as usize + 1) < colors_remaining {
            Role::Active
        } else {
            Role::Leftover
        };
        MergeNode {
            id,
            st,
            role,
            colors_known: false,
            same_nbrs: Vec::new(),
            partner_nbrs: Vec::new(),
            relay_nbrs: Vec::new(),
            relay_all: false,
            send_queue: Vec::new(),
            sent_end: false,
            uset: HashSet::new(),
            nbr_end_received: false,
            succpred: Vec::new(),
            cand: None,
            cand_ready: false,
            collect_seen: false,
            collect_parent: None,
            collect_pending: 0,
            collect_replied: false,
            best: None,
            decided: false,
            no_bridge: false,
        }
    }

    /// Final state after the level (valid once `decided` or leftover).
    pub(crate) fn state(&self) -> CycleState {
        self.st
    }

    fn is_coordinator(&self) -> bool {
        self.role == Role::Active && self.st.idx == 0
    }

    /// Sends up to 4 queued neighbor-list items (+ terminator) per round.
    fn pump_pipeline(&mut self, ctx: &mut Context<'_, MergeMsg>) {
        if self.role != Role::Active || self.sent_end {
            return;
        }
        let to = self.st.pred;
        for _ in 0..4 {
            match self.send_queue.pop() {
                Some(x) => ctx.send(to, MergeMsg::NbrItem { x }),
                None => {
                    ctx.send(to, MergeMsg::NbrEnd);
                    self.sent_end = true;
                    return;
                }
            }
        }
        ctx.wake_in(1);
    }

    /// Computes this node's best local bridge candidate once all inputs
    /// arrived.
    fn finalize_candidate(&mut self, ctx: &mut Context<'_, MergeMsg>) {
        if self.role != Role::Active || self.cand_ready || !self.nbr_end_received {
            return;
        }
        let u_id = self.st.succ;
        let v_idx = self.st.idx as u32;
        for &(w, sw, pw, w_idx, s2) in &self.succpred {
            let cand = if self.uset.contains(&sw) {
                Some(Candidate {
                    v_id: self.id,
                    w_id: w,
                    u_id,
                    x_id: sw,
                    v_idx,
                    w_idx,
                    s2,
                    case: Case::SuccSide,
                })
            } else if self.uset.contains(&pw) {
                Some(Candidate {
                    v_id: self.id,
                    w_id: w,
                    u_id,
                    x_id: pw,
                    v_idx,
                    w_idx,
                    s2,
                    case: Case::PredSide,
                })
            } else {
                None
            };
            self.cand = min_cand(self.cand, cand);
        }
        ctx.charge_compute(self.succpred.len() as u64);
        self.cand_ready = true;
        self.best = min_cand(self.best, self.cand);
    }

    /// Collect-wave completion check (active color class).
    fn collect_check(&mut self, ctx: &mut Context<'_, MergeMsg>) {
        if self.role != Role::Active
            || !self.collect_seen
            || !self.cand_ready
            || self.collect_replied
            || self.collect_pending != 0
        {
            return;
        }
        self.collect_replied = true;
        match self.collect_parent {
            Some(p) => ctx.send(p, MergeMsg::CollectReply { best: self.best }),
            None => {
                // Coordinator: decide.
                debug_assert!(self.is_coordinator());
                match self.best {
                    None => {
                        self.no_bridge = true;
                        self.relay_flood(ctx, MergeMsg::NoBridge, None);
                        ctx.halt();
                    }
                    Some(c) => {
                        let d = Decision {
                            case: c.case,
                            v_idx: c.v_idx,
                            w_idx: c.w_idx,
                            s1: self.st.size as u32,
                            s2: c.s2,
                            v_id: c.v_id,
                            w_id: c.w_id,
                            u_id: c.u_id,
                            x_id: c.x_id,
                        };
                        apply_decision(&mut self.st, &d, true);
                        self.decided = true;
                        self.relay_flood(ctx, MergeMsg::Decision(d), None);
                        ctx.halt();
                    }
                }
            }
        }
    }

    /// Floods `msg` over the two paired color classes, optionally
    /// skipping the neighbor it arrived from. Broadcasts when the relay
    /// set is the whole neighborhood (observationally identical).
    fn relay_flood(&self, ctx: &mut Context<'_, MergeMsg>, msg: MergeMsg, skip: Option<NodeId>) {
        if self.relay_all {
            ctx.flood_except(skip, msg);
        } else {
            for &to in &self.relay_nbrs {
                if Some(to) != skip {
                    ctx.send(to, msg);
                }
            }
        }
    }

    fn on_decision(&mut self, ctx: &mut Context<'_, MergeMsg>, from: NodeId, d: Decision) {
        if self.decided || self.no_bridge {
            return;
        }
        apply_decision(&mut self.st, &d, self.role == Role::Active);
        self.decided = true;
        self.relay_flood(ctx, MergeMsg::Decision(d), Some(from));
        ctx.halt();
    }

    fn on_no_bridge(&mut self, ctx: &mut Context<'_, MergeMsg>, from: NodeId) {
        if self.decided || self.no_bridge {
            return;
        }
        self.no_bridge = true;
        self.relay_flood(ctx, MergeMsg::NoBridge, Some(from));
        ctx.halt();
    }
}

impl Protocol for MergeNode {
    type Msg = MergeMsg;

    fn init(&mut self, ctx: &mut Context<'_, MergeMsg>) {
        if ctx.degree() == 0 {
            // Unreachable after a successful Phase 1; guards degenerate use.
            self.no_bridge = true;
            ctx.halt();
            return;
        }
        ctx.send_all(MergeMsg::Color { color: self.st.color });
    }

    fn round(&mut self, ctx: &mut Context<'_, MergeMsg>, inbox: Inbox<'_, MergeMsg>) {
        if !self.colors_known {
            self.colors_known = true;
            let (active_c, partner_c) = match self.role {
                Role::Active => (self.st.color, self.st.color + 1),
                Role::Passive => (self.st.color - 1, self.st.color),
                Role::Leftover => {
                    // Skips the level entirely; its color halves.
                    self.st.color /= 2;
                    self.decided = true;
                    ctx.halt();
                    return;
                }
            };
            for (from, msg) in inbox.iter() {
                if let MergeMsg::Color { color } = *msg {
                    if color == self.st.color {
                        self.same_nbrs.push(from);
                    }
                    let other = if self.role == Role::Active { partner_c } else { active_c };
                    if color == other {
                        self.partner_nbrs.push(from);
                    }
                    if color == active_c || color == partner_c {
                        self.relay_nbrs.push(from);
                    }
                }
            }
            self.relay_all = self.relay_nbrs.len() == ctx.degree();
            match self.role {
                Role::Active => {
                    // As u: pipeline partner-neighbor ids to pred.
                    self.send_queue = self.partner_nbrs.clone();
                    self.pump_pipeline(ctx);
                    if self.is_coordinator() {
                        self.collect_seen = true;
                        self.collect_parent = None;
                        self.collect_pending = self.same_nbrs.len();
                        let nbrs = self.same_nbrs.clone();
                        for to in nbrs {
                            ctx.send(to, MergeMsg::CollectReq);
                        }
                        // A coordinator with no same-color neighbors would be
                        // a 1-node cycle, which Phase 1 excludes (size >= 3).
                    }
                }
                Role::Passive => {
                    // Answer with cycle bookkeeping (the `verified` data).
                    let msg = MergeMsg::SuccPred {
                        succ: self.st.succ,
                        pred: self.st.pred,
                        idx: self.st.idx as u32,
                        size: self.st.size as u32,
                    };
                    let nbrs = self.partner_nbrs.clone();
                    for to in nbrs {
                        ctx.send(to, msg);
                    }
                }
                Role::Leftover => unreachable!("handled above"),
            }
            return;
        }

        for (from, msg) in inbox.iter() {
            if self.decided || self.no_bridge {
                break;
            }
            match *msg {
                MergeMsg::Color { .. } => {}
                MergeMsg::SuccPred { succ, pred, idx, size } => {
                    self.succpred.push((from, succ, pred, idx, size));
                }
                MergeMsg::NbrItem { x } => {
                    self.uset.insert(x);
                }
                MergeMsg::NbrEnd => {
                    self.nbr_end_received = true;
                }
                MergeMsg::CollectReq => {
                    if self.collect_seen {
                        self.collect_pending = self.collect_pending.saturating_sub(1);
                    } else {
                        self.collect_seen = true;
                        self.collect_parent = Some(from);
                        self.collect_pending = self.same_nbrs.len() - 1;
                        let nbrs = self.same_nbrs.clone();
                        for to in nbrs {
                            if to != from {
                                ctx.send(to, MergeMsg::CollectReq);
                            }
                        }
                    }
                }
                MergeMsg::CollectReply { best } => {
                    self.best = min_cand(self.best, best);
                    self.collect_pending = self.collect_pending.saturating_sub(1);
                }
                MergeMsg::Decision(d) => {
                    self.on_decision(ctx, from, d);
                }
                MergeMsg::NoBridge => {
                    self.on_no_bridge(ctx, from);
                }
            }
        }
        if self.decided || self.no_bridge {
            return;
        }
        self.pump_pipeline(ctx);
        self.finalize_candidate(ctx);
        self.collect_check(ctx);
    }

    fn memory_words(&self) -> usize {
        self.same_nbrs.len()
            + self.partner_nbrs.len()
            + self.relay_nbrs.len()
            + self.send_queue.len()
            + self.uset.len()
            + 5 * self.succpred.len()
            + 32
    }
}

/// Runs the full DHC2 algorithm, optionally instrumented with the
/// k-machine accounting probe (see [`crate::kmachine`]).
pub(crate) fn run(
    graph: &Graph,
    cfg: &DhcConfig,
    km: Option<&mut KMachineProbe>,
) -> Result<RunOutcome, DhcError> {
    let n = graph.node_count();
    cfg.validate_run(n)?;
    let (partition, _) = draw_colors(n, cfg);
    run_with_colors(graph, cfg, &partition, km)
}

/// Runs DHC2 with an explicit Phase-1 partition (used by tests and
/// experiments that control the coloring).
pub(crate) fn run_with_colors(
    graph: &Graph,
    cfg: &DhcConfig,
    partition: &Partition,
    mut km: Option<&mut KMachineProbe>,
) -> Result<RunOutcome, DhcError> {
    let n = graph.node_count();
    // Dense class ids, so pairing works.
    let compacted = compact_colors(partition);
    let k = compacted.class_count();

    let mut run_span = Span::root(cfg.collector.as_ref(), "run", format!("dhc2 n={n} k={k}"));
    let phase1 = run_phase1(graph, &compacted, cfg, km.as_deref_mut(), &run_span)?;
    let mut metrics = phase1.metrics.clone();
    let mut phases = vec![PhaseBreakdown {
        name: "phase1".to_string(),
        rounds: phase1.metrics.rounds,
        messages: phase1.metrics.messages,
    }];

    let mut states: Vec<CycleState> = phase1
        .states
        .iter()
        .map(|s| CycleState {
            color: s.color,
            idx: s.cycindex,
            succ: s.succ,
            pred: s.pred,
            size: s.cycle_size,
        })
        .collect();

    let mut colors_remaining = k;
    let mut level = 0usize;
    // All levels speak `MergeMsg`, so one buffer set chains through every
    // level's whole-graph network.
    let mut merge_scratch: EngineScratch<MergeMsg> = EngineScratch::new();
    while colors_remaining > 1 {
        let mut level_span =
            run_span.child("merge-level", format!("merge-level-{level} cycles={colors_remaining}"));
        let nodes: Vec<MergeNode> =
            (0..n).map(|v| MergeNode::new((v) as u32, states[v], colors_remaining)).collect();
        let mut net = match km.as_deref() {
            Some(p) => Network::new_with_machines(graph, cfg.sim_config(), nodes, p.global_map())?,
            None => Network::new_with_scratch(graph, cfg.sim_config(), nodes, &mut merge_scratch)?,
        };
        let run_result = net.run();
        let (report, nodes) = net.finish_with_scratch(&mut merge_scratch);
        let level_metrics: Metrics = report.metrics;
        let level_machine_log = report.machine_log;
        match run_result {
            Ok(_) => {}
            Err(SimError::Stalled { .. }) => {
                // A pair with no cross edges at all cannot even deliver the
                // NoBridge flood; report the stuck pair.
                let color = nodes
                    .iter()
                    .find(|nd| !nd.decided && !nd.no_bridge)
                    .map(|nd| nd.state().color & !1)
                    .unwrap_or(0);
                return Err(DhcError::NoBridge { level, color });
            }
            Err(e) => return Err(e.into()),
        }
        if let Some(nd) = nodes.iter().find(|nd| nd.no_bridge) {
            return Err(DhcError::NoBridge { level, color: nd.state().color & !1 });
        }
        for (v, nd) in nodes.iter().enumerate() {
            states[v] = nd.state();
        }
        metrics.merge(&level_metrics);
        if let (Some(p), Some(log)) = (km.as_deref_mut(), level_machine_log) {
            p.absorb_phase_log(log);
        }
        level_span.add(level_metrics.rounds as u64, level_metrics.messages, level_metrics.words);
        drop(level_span);
        phases.push(PhaseBreakdown {
            name: format!("merge-level-{level}"),
            rounds: level_metrics.rounds,
            messages: level_metrics.messages,
        });
        colors_remaining = colors_remaining.div_ceil(2);
        level += 1;
    }

    let succ: Vec<Option<NodeId>> = states.iter().map(|s| Some(s.succ)).collect();
    let pred: Vec<Option<NodeId>> = states.iter().map(|s| Some(s.pred)).collect();
    let pairs = pairs_from_links(&succ, &pred)?;
    let cycle = cycle_from_incident_pairs(graph, &pairs)?;
    run_span.add(metrics.rounds as u64, metrics.messages, metrics.words);
    drop(run_span);
    if let Some(col) = &cfg.collector {
        col.flush();
    }
    Ok(RunOutcome { cycle, metrics, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhc_graph::{generator, rng::rng_from_seed, thresholds};

    #[test]
    fn apply_decision_succ_side_matches_manual_splice() {
        // Cycle 1 (color 0): nodes 0,1,2 with idx 0,1,2 (succ: 0->1->2->0).
        // Cycle 2 (color 1): nodes 3,4,5 with idx 0,1,2 (succ: 3->4->5->3).
        // Bridge: v = node 1 (idx 1), u = succ v = node 2 (idx 2);
        // w = node 4 (idx 1), x = succ w = node 5 (case SuccSide).
        // Cross edges (1,4) and (2,5). New cycle (order by new idx):
        // u=2 (0), 0 (1), v=1 (2), w=4 (3), 3 (4), x=5 (5); closing 5->2.
        let d = Decision {
            case: Case::SuccSide,
            v_idx: 1,
            w_idx: 1,
            s1: 3,
            s2: 3,
            v_id: 1,
            w_id: 4,
            u_id: 2,
            x_id: 5,
        };
        let mk = |color, idx, succ, pred| CycleState { color, idx, succ, pred, size: 3 };
        let mut sts = vec![
            mk(0, 0, 1, 2), // node 0
            mk(0, 1, 2, 0), // node 1 = v
            mk(0, 2, 0, 1), // node 2 = u
            mk(1, 0, 4, 5), // node 3
            mk(1, 1, 5, 3), // node 4 = w
            mk(1, 2, 3, 4), // node 5 = x
        ];
        for (i, st) in sts.iter_mut().enumerate() {
            apply_decision(st, &d, i < 3);
        }
        // New indices.
        assert_eq!(sts[2].idx, 0); // u
        assert_eq!(sts[0].idx, 1);
        assert_eq!(sts[1].idx, 2); // v
        assert_eq!(sts[4].idx, 3); // w
        assert_eq!(sts[3].idx, 4);
        assert_eq!(sts[5].idx, 5); // x
                                   // Pointers around the splice.
        assert_eq!(sts[1].succ, 4); // v -> w
        assert_eq!(sts[4].pred, 1); // w <- v
        assert_eq!(sts[5].succ, 2); // x -> u
        assert_eq!(sts[2].pred, 5); // u <- x
                                    // Cycle 2 interior reversed: node 3 (between w and x in new order).
        assert_eq!(sts[3].succ, 5);
        assert_eq!(sts[3].pred, 4);
        for st in &sts {
            assert_eq!(st.size, 6);
            assert_eq!(st.color, 0);
        }
        // Walk the successor map: must be one 6-cycle with consistent idx.
        let succ: Vec<u32> = sts.iter().map(|s| s.succ).collect();
        let mut seen = [false; 6];
        let mut cur = 0;
        for _ in 0..6 {
            assert!(!seen[cur]);
            seen[cur] = true;
            cur = succ[cur] as usize;
        }
        assert_eq!(cur, 0);
        for (i, st) in sts.iter().enumerate() {
            let next = sts[st.succ as usize].idx;
            assert_eq!(next, (st.idx + 1) % 6, "node {i}");
        }
    }

    #[test]
    fn apply_decision_pred_side_matches_manual_splice() {
        // Same two triangles; bridge with x = pred w = node 3.
        // v = 1, u = 2, w = 4, x = 3. Cross edges (1,4),(2,3).
        // New cycle: u=2(0), 0(1), v=1(2), w=4(3), 5(4), x=3(5); closing 3->2.
        let d = Decision {
            case: Case::PredSide,
            v_idx: 1,
            w_idx: 1,
            s1: 3,
            s2: 3,
            v_id: 1,
            w_id: 4,
            u_id: 2,
            x_id: 3,
        };
        let mk = |color, idx, succ, pred| CycleState { color, idx, succ, pred, size: 3 };
        let mut sts = vec![
            mk(0, 0, 1, 2),
            mk(0, 1, 2, 0),
            mk(0, 2, 0, 1),
            mk(1, 0, 4, 5), // node 3 = x (pred of w)
            mk(1, 1, 5, 3), // node 4 = w
            mk(1, 2, 3, 4), // node 5
        ];
        for (i, st) in sts.iter_mut().enumerate() {
            apply_decision(st, &d, i < 3);
        }
        assert_eq!(sts[4].idx, 3); // w right after v
        assert_eq!(sts[5].idx, 4);
        assert_eq!(sts[3].idx, 5); // x last
        assert_eq!(sts[1].succ, 4); // v -> w
        assert_eq!(sts[4].pred, 1);
        assert_eq!(sts[3].succ, 2); // x -> u
        assert_eq!(sts[2].pred, 3);
        let succ: Vec<u32> = sts.iter().map(|s| s.succ).collect();
        let mut cur = 0;
        let mut seen = [false; 6];
        for _ in 0..6 {
            assert!(!seen[cur]);
            seen[cur] = true;
            cur = succ[cur] as usize;
        }
        assert_eq!(cur, 0);
        for st in &sts {
            let next = sts[st.succ as usize].idx;
            assert_eq!(next, (st.idx + 1) % 6);
        }
    }

    #[test]
    fn candidate_ordering() {
        let c1 = Candidate {
            v_id: 1,
            w_id: 5,
            u_id: 2,
            x_id: 6,
            v_idx: 0,
            w_idx: 0,
            s2: 3,
            case: Case::SuccSide,
        };
        let c2 = Candidate { v_id: 2, ..c1 };
        assert_eq!(min_cand(Some(c1), Some(c2)), Some(c1));
        assert_eq!(min_cand(None, Some(c2)), Some(c2));
        assert_eq!(min_cand(None, None), None);
    }

    #[test]
    fn dhc2_end_to_end_on_dense_random_graph() {
        let n = 256;
        let delta = 0.5;
        let p = thresholds::edge_probability(n, delta, 6.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(20)).unwrap();
        let out = run(&g, &DhcConfig::new(21).with_delta(delta), None).unwrap();
        assert_eq!(out.cycle.len(), n);
        // Phase breakdown: phase1 + ceil(log2 k) levels.
        let k = DhcConfig::new(0).with_delta(delta).partition_count(n);
        let levels = (k as f64).log2().ceil() as usize;
        assert_eq!(out.phases.len(), 1 + levels);
    }

    #[test]
    fn dhc2_single_partition_reduces_to_dra() {
        let n = 96;
        let p = thresholds::edge_probability(n, 1.0, 12.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(22)).unwrap();
        let out = run(&g, &DhcConfig::new(23).with_delta(1.0), None).unwrap();
        assert_eq!(out.cycle.len(), n);
        assert_eq!(out.phases.len(), 1);
    }

    #[test]
    fn dhc2_three_partitions_with_leftover() {
        // k = 3 exercises the leftover path (colors (0,1) pair, 2 waits).
        let n = 192;
        let p = 0.35;
        let g = generator::gnp(n, p, &mut rng_from_seed(24)).unwrap();
        let out = run(&g, &DhcConfig::new(25).with_partitions(3), None).unwrap();
        assert_eq!(out.cycle.len(), n);
        // ceil(log2 3) = 2 levels.
        assert_eq!(out.phases.len(), 3);
    }

    #[test]
    fn dhc2_no_bridge_detected() {
        // Two disjoint cliques with a forced per-clique coloring: Phase 1
        // succeeds per clique, but no cross edges exist, so the merge level
        // cannot find (or even announce the lack of) a bridge.
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in (u + 1)..8 {
                edges.push((u, v));
                edges.push((u + 8, v + 8));
            }
        }
        let g = Graph::from_edges(16, edges).unwrap();
        let colors: Vec<u32> = (0..16).map(|v| if v < 8 { 0 } else { 1 }).collect();
        let partition = Partition::from_colors(colors, 2);
        let err = run_with_colors(&g, &DhcConfig::new(1), &partition, None).unwrap_err();
        assert!(matches!(err, DhcError::NoBridge { level: 0, color: 0 }), "{err:?}");
    }

    #[test]
    fn dhc2_is_deterministic() {
        let n = 128;
        let p = 0.6;
        let g = generator::gnp(n, p, &mut rng_from_seed(30)).unwrap();
        let cfg = DhcConfig::new(32).with_partitions(4);
        let a = run(&g, &cfg, None).unwrap();
        let b = run(&g, &cfg, None).unwrap();
        assert_eq!(a.cycle.order(), b.cycle.order());
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }
}
