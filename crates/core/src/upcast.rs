//! The **Upcast** algorithm (the paper's §III): a conceptually simple
//! *centralized* approach that still respects the CONGEST bandwidth limit
//! but gives up the fully-distributed memory restriction.
//!
//! 1. **Leader election + BFS tree** (`O(D)` rounds): simultaneous min-id
//!    flood waves with echo; the winning wave's parent pointers form a BFS
//!    tree, and the echo counts the nodes (the root verifies it reached all
//!    `n`). The root then broadcasts `Start` down the tree so upcasting
//!    begins only on a stable tree.
//! 2. **Sampling + upcast**: every node samples `⌈c′ ln n⌉` of its incident
//!    edges uniformly without replacement (or *all* of them in the trivial
//!    `O(m)` collect-everything baseline) and pipelines the records up the
//!    tree, a bounded number of words per tree edge per round. Each node
//!    remembers through which child it saw each record owner — the routing
//!    table for the downcast. Congestion is bounded by the largest
//!    root-child subtree load, which Lemma 18 shows is balanced in
//!    `G(n, p)`.
//! 3. **Local solve**: the root assembles the sampled subgraph and runs the
//!    sequential rotation algorithm ([`dhc_rotation::posa`]), retrying with
//!    fresh randomness a configured number of times.
//! 4. **Downcast**: the root sends each node its two incident cycle edges,
//!    routed along the tree (same pipelining, same congestion bound). Every
//!    node halts when it has its own record and has forwarded all of its
//!    descendants'.
//!
//! The root's routing table and record buffer are `Θ(n log n)` words — this
//! is exactly the paper's point that Upcast is *not* fully distributed; the
//! per-node memory metrics expose it (experiment E8).

use crate::kmachine::KMachineProbe;
use crate::output::NodeCycleOutput;
use crate::runner::{PhaseBreakdown, RunOutcome};
use crate::{cycle_from_incident_pairs, DhcConfig, DhcError};
use dhc_congest::{Context, Inbox, Network, NodeId, Payload, Protocol, Span};
use dhc_graph::rng::derive_seed;
use dhc_graph::{Graph, GraphBuilder};
use dhc_rotation::{posa_with_restarts, PosaConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Records forwarded per tree edge per round (each is ≤ 3 words, so 4 of
/// them fit the default 16-word budget).
const BATCH: usize = 4;

/// Messages of the Upcast protocol. The subtree count is a `u32` word,
/// like the node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpMsg {
    /// Leader-election flood (minimum id wins).
    Wave {
        /// Candidate leader id.
        root: NodeId,
    },
    /// Election echo: subtree size.
    WaveAck {
        /// The wave this ack belongs to.
        root: NodeId,
        /// Nodes in the acked subtree (including the sender).
        count: u32,
    },
    /// Root → tree: election finished, begin upcasting.
    Start,
    /// One sampled edge `(owner, other)`, traveling rootward.
    EdgeRec {
        /// The node that sampled the edge.
        owner: NodeId,
        /// The edge's other endpoint.
        other: NodeId,
    },
    /// A child finished its subtree's upcast stream.
    UpEnd,
    /// One downcast record: `target`'s two cycle neighbors.
    Down {
        /// The node this record is for.
        target: NodeId,
        /// One cycle neighbor.
        pa: NodeId,
        /// The other cycle neighbor.
        pb: NodeId,
    },
    /// Abort flood (root solve failed or graph disconnected).
    Abort,
}

impl Payload for UpMsg {
    fn words(&self) -> usize {
        match self {
            UpMsg::Wave { .. } | UpMsg::Start | UpMsg::UpEnd | UpMsg::Abort => 1,
            UpMsg::WaveAck { .. } | UpMsg::EdgeRec { .. } => 2,
            UpMsg::Down { .. } => 3,
        }
    }
}

/// Per-node state of the Upcast protocol.
#[derive(Debug)]
pub(crate) struct UpcastNode {
    id: NodeId,
    rng: SmallRng,
    /// `true` for the collect-everything baseline (sample = all edges).
    all_edges: bool,
    sample_factor: f64,
    sample_count: usize,
    root_retries: usize,
    seed: u64,

    // Election.
    best_root: NodeId,
    parent: Option<NodeId>,
    pending: usize,
    acc: usize,
    children: Vec<NodeId>,
    started: bool,

    // Upcast.
    upqueue: VecDeque<(NodeId, NodeId)>,
    /// Routing table: record owner → the child it arrived through.
    route: HashMap<NodeId, NodeId>,
    up_end_pending: usize,
    sent_up_end: bool,
    /// Root only: all collected records.
    records: Vec<(NodeId, NodeId)>,

    // Downcast. Keyed by child in ascending id, so `pump_down` issues a
    // round's sends in the same order on every run (each send's op index
    // keys its fate under an adversary).
    downqueues: BTreeMap<NodeId, VecDeque<(NodeId, NodeId, NodeId)>>,
    down_received: usize,
    solved: bool,

    /// This node's two cycle neighbors, once known.
    pub output: Option<NodeCycleOutput>,
    /// Set if the run aborted (root failure or disconnected graph).
    pub aborted: bool,
    /// Root only: number of distinct sampled edges it solved over.
    pub root_edge_count: usize,
    /// Size of the routing table (= descendants in the BFS tree); the
    /// Lemma 18 subtree-balance experiment reads this.
    pub subtree_descendants: usize,
}

impl UpcastNode {
    pub(crate) fn new(id: NodeId, cfg: &DhcConfig, all_edges: bool) -> Self {
        UpcastNode {
            id,
            rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, 0x5000 + id as u64)),
            all_edges,
            sample_factor: cfg.sample_factor,
            sample_count: 0,
            root_retries: cfg.root_solve_retries,
            seed: cfg.seed,
            best_root: id,
            parent: None,
            pending: 0,
            acc: 0,
            children: Vec::new(),
            started: false,
            upqueue: VecDeque::new(),
            route: HashMap::new(),
            up_end_pending: 0,
            sent_up_end: false,
            records: Vec::new(),
            downqueues: BTreeMap::new(),
            down_received: 0,
            solved: false,
            output: None,
            aborted: false,
            root_edge_count: 0,
            subtree_descendants: 0,
        }
    }

    fn is_root(&self) -> bool {
        self.parent.is_none() && self.best_root == self.id
    }

    fn wave_check(&mut self, ctx: &mut Context<'_, UpMsg>) {
        if self.pending != 0 {
            return;
        }
        match self.parent {
            Some(p) => {
                ctx.send(p, UpMsg::WaveAck { root: self.best_root, count: (1 + self.acc) as u32 });
            }
            None if self.best_root == self.id => {
                let count = 1 + self.acc;
                if count != ctx.n() {
                    // Disconnected graph: cannot collect everything.
                    self.abort(ctx, None);
                    return;
                }
                self.begin_upcast(ctx);
            }
            None => {}
        }
    }

    fn begin_upcast(&mut self, ctx: &mut Context<'_, UpMsg>) {
        self.started = true;
        self.up_end_pending = self.children.len();
        // Draw the samples.
        let mut nbrs: Vec<NodeId> = ctx.neighbors().to_vec();
        let k = if self.all_edges {
            nbrs.len()
        } else {
            let n = ctx.n().max(2) as f64;
            (self.sample_factor_ln(n)).min(nbrs.len())
        };
        nbrs.shuffle(&mut self.rng);
        nbrs.truncate(k);
        self.sample_count = k;
        ctx.charge_compute(k as u64);
        if self.is_root() {
            for other in nbrs {
                self.records.push((self.id, other));
            }
            self.root_finish_check(ctx);
        } else {
            for other in nbrs {
                self.upqueue.push_back((self.id, other));
            }
        }
        let children = self.children.clone();
        for c in children {
            ctx.send(c, UpMsg::Start);
        }
        // Pumping happens once, at the end of the round callback.
    }

    /// The paper's `c' log n` sample size.
    fn sample_factor_ln(&self, n: f64) -> usize {
        (self.sample_factor * n.ln()).ceil() as usize
    }

    fn pump_up(&mut self, ctx: &mut Context<'_, UpMsg>) {
        if !self.started || self.is_root() {
            return;
        }
        let Some(p) = self.parent else { return };
        let mut sent = 0;
        while sent < BATCH {
            match self.upqueue.pop_front() {
                Some((owner, other)) => {
                    ctx.send(p, UpMsg::EdgeRec { owner, other });
                    sent += 1;
                }
                None => break,
            }
        }
        if !self.upqueue.is_empty() {
            ctx.wake_in(1);
        } else if !self.sent_up_end && self.up_end_pending == 0 {
            ctx.send(p, UpMsg::UpEnd);
            self.sent_up_end = true;
        }
    }

    fn root_finish_check(&mut self, ctx: &mut Context<'_, UpMsg>) {
        if !self.is_root() || self.solved || self.up_end_pending != 0 || !self.started {
            return;
        }
        self.solved = true;
        self.subtree_descendants = self.route.len();
        // Build the sampled subgraph and solve locally.
        let n = ctx.n();
        let mut b = GraphBuilder::with_capacity(n, self.records.len());
        for &(a, c) in &self.records {
            // Records are validated edges of G by construction.
            let _ = b.add_edge(a, c);
        }
        let local = b.build();
        self.root_edge_count = local.edge_count();
        ctx.charge_compute(self.records.len() as u64);
        let mut rng = SmallRng::seed_from_u64(derive_seed(self.seed, 0x7A00));
        let cycle = match posa_with_restarts(
            &local,
            &PosaConfig::default(),
            self.root_retries.max(1),
            &mut rng,
        ) {
            Ok((cycle, stats)) => {
                ctx.charge_compute(stats.steps as u64);
                cycle
            }
            Err(_) => {
                self.abort(ctx, None);
                return;
            }
        };
        // Enqueue every node's two cycle neighbors.
        let succ = cycle.to_successors();
        let mut pred = vec![0usize; n];
        for (v, &s) in succ.iter().enumerate() {
            pred[(s) as usize] = v;
        }
        for t in 0..n as NodeId {
            if t == self.id {
                self.output =
                    Some(NodeCycleOutput::new(pred[t as usize] as NodeId, succ[t as usize]));
            } else if let Some(&child) = self.route.get(&t) {
                self.downqueues.entry(child).or_default().push_back((
                    t,
                    pred[t as usize] as NodeId,
                    succ[t as usize],
                ));
            }
        }
        // Pumping happens once, at the end of the round callback.
    }

    fn pump_down(&mut self, ctx: &mut Context<'_, UpMsg>) {
        let mut any_left = false;
        let children: Vec<NodeId> = self.downqueues.keys().copied().collect();
        for c in children {
            let q = self.downqueues.get_mut(&c).expect("key just listed");
            for _ in 0..BATCH {
                match q.pop_front() {
                    Some((target, pa, pb)) => ctx.send(c, UpMsg::Down { target, pa, pb }),
                    None => break,
                }
            }
            if !q.is_empty() {
                any_left = true;
            }
        }
        if any_left {
            ctx.wake_in(1);
        } else {
            self.halt_check(ctx);
        }
    }

    fn halt_check(&mut self, ctx: &mut Context<'_, UpMsg>) {
        let queues_empty = self.downqueues.values().all(VecDeque::is_empty);
        if !queues_empty || !self.solved {
            return;
        }
        if self.is_root() {
            ctx.halt();
            return;
        }
        if self.output.is_some() && self.down_received == self.route.len() + 1 {
            ctx.halt();
        }
    }

    fn abort(&mut self, ctx: &mut Context<'_, UpMsg>, skip: Option<NodeId>) {
        if self.aborted {
            return;
        }
        self.aborted = true;
        // Flood over all edges so even non-tree neighbors terminate.
        ctx.flood_except(skip, UpMsg::Abort);
        ctx.halt();
    }
}

impl Protocol for UpcastNode {
    type Msg = UpMsg;

    fn init(&mut self, ctx: &mut Context<'_, UpMsg>) {
        self.best_root = self.id;
        self.parent = None;
        self.pending = ctx.degree();
        if self.pending == 0 {
            // Isolated node: nothing can work.
            self.aborted = true;
            ctx.halt();
            return;
        }
        ctx.send_all(UpMsg::Wave { root: self.id });
    }

    fn round(&mut self, ctx: &mut Context<'_, UpMsg>, inbox: Inbox<'_, UpMsg>) {
        // Election waves are handled as a batch with a *randomized* parent
        // choice among the senders that delivered the best root this round.
        // (Deterministic tie-breaking would funnel whole BFS levels through
        // the lowest-id parent and destroy the subtree balance that Lemma 18
        // relies on for the pipelined congestion bound.)
        let wave_min = inbox
            .iter()
            .filter_map(|(_, m)| match *m {
                UpMsg::Wave { root } => Some(root),
                _ => None,
            })
            .min();
        if let Some(r) = wave_min {
            let senders: Vec<NodeId> = inbox
                .iter()
                .filter(|&(_, m)| matches!(*m, UpMsg::Wave { root } if root == r))
                .map(|(f, _)| f)
                .collect();
            if r < self.best_root {
                self.best_root = r;
                let parent = *senders.choose(&mut self.rng).expect("non-empty senders");
                self.parent = Some(parent);
                self.acc = 0;
                self.children.clear();
                // The co-senders of this wave already count as responses.
                self.pending = (ctx.degree() - 1).saturating_sub(senders.len() - 1);
                ctx.send_all_except(parent, UpMsg::Wave { root: r });
                self.wave_check(ctx);
            } else if r == self.best_root {
                self.pending = self.pending.saturating_sub(senders.len());
                self.wave_check(ctx);
            }
        }
        for (from, msg) in inbox.iter() {
            if self.aborted {
                return;
            }
            match *msg {
                UpMsg::Wave { .. } => {} // handled in the batch above
                UpMsg::WaveAck { root, count } => {
                    if root == self.best_root {
                        self.acc += count as usize;
                        self.children.push(from);
                        self.pending = self.pending.saturating_sub(1);
                        self.wave_check(ctx);
                    }
                }
                UpMsg::Start => {
                    if !self.started {
                        self.begin_upcast(ctx);
                    }
                }
                UpMsg::EdgeRec { owner, other } => {
                    self.route.entry(owner).or_insert(from);
                    if self.is_root() {
                        self.records.push((owner, other));
                    } else {
                        self.upqueue.push_back((owner, other));
                    }
                }
                UpMsg::UpEnd => {
                    self.up_end_pending = self.up_end_pending.saturating_sub(1);
                    if self.is_root() {
                        self.root_finish_check(ctx);
                    }
                }
                UpMsg::Down { target, pa, pb } => {
                    self.down_received += 1;
                    self.solved = true;
                    self.subtree_descendants = self.route.len();
                    if target == self.id {
                        self.output = Some(NodeCycleOutput::new(pa, pb));
                    } else if let Some(&child) = self.route.get(&target) {
                        self.downqueues.entry(child).or_default().push_back((target, pa, pb));
                    }
                }
                UpMsg::Abort => {
                    self.abort(ctx, Some(from));
                    return;
                }
            }
        }
        if self.aborted {
            return;
        }
        self.pump_up(ctx);
        if self.solved {
            self.pump_down(ctx);
        }
        self.halt_check(ctx);
    }

    fn memory_words(&self) -> usize {
        self.upqueue.len() * 2
            + self.route.len() * 2
            + self.records.len() * 2
            + self.downqueues.values().map(|q| q.len() * 3).sum::<usize>()
            + self.children.len()
            + 24
    }
}

/// Runs Upcast (or the collect-everything baseline when `all_edges`),
/// optionally instrumented with the k-machine accounting probe (see
/// [`crate::kmachine`]).
pub(crate) fn run(
    graph: &Graph,
    cfg: &DhcConfig,
    all_edges: bool,
    km: Option<&mut KMachineProbe>,
) -> Result<RunOutcome, DhcError> {
    let n = graph.node_count();
    cfg.validate_run(n)?;
    let algo = if all_edges { "collect-all" } else { "upcast" };
    let mut run_span = Span::root(cfg.collector.as_ref(), "run", format!("{algo} n={n}"));
    let mut phase_span = run_span.child("phase", algo);
    let nodes: Vec<UpcastNode> =
        (0..n).map(|v| UpcastNode::new((v) as u32, cfg, all_edges)).collect();
    let mut net = match km.as_deref() {
        Some(p) => Network::new_with_machines(graph, cfg.sim_config(), nodes, p.global_map())?,
        None => Network::new(graph, cfg.sim_config(), nodes)?,
    };
    net.run()?;
    let (report, nodes) = net.finish();
    if let (Some(p), Some(log)) = (km, report.machine_log) {
        p.absorb_phase_log(log);
    }
    if let Some(root) = nodes.iter().find(|nd| nd.aborted) {
        return Err(DhcError::RootSolveFailed { sampled_edges: root.root_edge_count });
    }
    let pairs: Vec<_> = nodes
        .iter()
        .map(|nd| nd.output.ok_or(DhcError::RootSolveFailed { sampled_edges: 0 }))
        .collect::<Result<_, _>>()?;
    let cycle = cycle_from_incident_pairs(graph, &pairs)?;
    let phases = vec![PhaseBreakdown {
        name: algo.to_string(),
        rounds: report.metrics.rounds,
        messages: report.metrics.messages,
    }];
    let m = &report.metrics;
    phase_span.add(m.rounds as u64, m.messages, m.words);
    drop(phase_span);
    run_span.add(m.rounds as u64, m.messages, m.words);
    drop(run_span);
    if let Some(col) = &cfg.collector {
        col.flush();
    }
    Ok(RunOutcome { cycle, metrics: report.metrics, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhc_graph::{generator, rng::rng_from_seed, thresholds};

    #[test]
    fn upcast_on_dense_random_graph() {
        let n = 200;
        let p = thresholds::edge_probability(n, 0.5, 2.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(40)).unwrap();
        let out = run(&g, &DhcConfig::new(41), false, None).unwrap();
        assert_eq!(out.cycle.len(), n);
        assert_eq!(out.phases[0].name, "upcast");
    }

    #[test]
    fn upcast_root_memory_is_large_but_leaves_small() {
        // The defining non-fully-distributed property: the root holds
        // Theta(n log n) words while typical nodes hold far less.
        let n = 200;
        let p = thresholds::edge_probability(n, 0.5, 2.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(42)).unwrap();
        let out = run(&g, &DhcConfig::new(43), false, None).unwrap();
        let mems = &out.metrics.peak_memory_per_node;
        let max = *mems.iter().max().unwrap();
        let median = {
            let mut s = mems.clone();
            s.sort_unstable();
            s[n / 2]
        };
        assert!(max > 2 * n, "root memory should be Omega(n): {max}");
        assert!(median < max / 4, "median {median} vs max {max}");
    }

    #[test]
    fn collect_all_baseline_works_and_costs_more() {
        let n = 150;
        let p = 0.3;
        let g = generator::gnp(n, p, &mut rng_from_seed(44)).unwrap();
        let up = run(&g, &DhcConfig::new(45), false, None).unwrap();
        let all = run(&g, &DhcConfig::new(45), true, None).unwrap();
        assert_eq!(up.cycle.len(), n);
        assert_eq!(all.cycle.len(), n);
        assert!(
            all.metrics.messages > up.metrics.messages,
            "collect-all {} should send more than upcast {}",
            all.metrics.messages,
            up.metrics.messages
        );
    }

    #[test]
    fn upcast_fails_cleanly_when_sample_too_sparse() {
        // With a tiny sampling factor on a sparse graph, the sampled
        // subgraph whp has no Hamiltonian cycle: typed failure.
        let n = 120;
        let p = thresholds::edge_probability(n, 1.0, 8.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(46)).unwrap();
        let cfg = DhcConfig::new(47).with_sample_factor(0.3);
        let err = run(&g, &cfg, false, None).unwrap_err();
        assert!(matches!(err, DhcError::RootSolveFailed { .. }), "{err:?}");
    }

    #[test]
    fn upcast_rejects_disconnected_graph() {
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
                edges.push((u + 6, v + 6));
            }
        }
        let g = Graph::from_edges(12, edges).unwrap();
        let err = run(&g, &DhcConfig::new(0), false, None).unwrap_err();
        assert!(matches!(err, DhcError::RootSolveFailed { .. }), "{err:?}");
    }

    #[test]
    fn upcast_is_deterministic() {
        let n = 100;
        let g = generator::gnp(n, 0.3, &mut rng_from_seed(48)).unwrap();
        let a = run(&g, &DhcConfig::new(49), false, None).unwrap();
        let b = run(&g, &DhcConfig::new(49), false, None).unwrap();
        assert_eq!(a.cycle.order(), b.cycle.order());
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }

    #[test]
    fn message_words() {
        assert_eq!(UpMsg::Wave { root: 1 }.words(), 1);
        assert_eq!(UpMsg::EdgeRec { owner: 1, other: 2 }.words(), 2);
        assert_eq!(UpMsg::Down { target: 1, pa: 2, pb: 3 }.words(), 3);
    }
}
