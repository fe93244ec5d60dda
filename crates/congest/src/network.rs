//! The synchronous round engine.
//!
//! Each round runs in two phases:
//!
//! 1. **Compute** — every active node executes its callback, in
//!    ascending node-id order, writing its sends / halt / wake-up /
//!    compute charges into a private [`Effects`] scratch. Nothing shared
//!    is mutated, so every callback of the round reads the inboxes
//!    exactly as the previous round's fold left them.
//! 2. **Commit fold** — one pass applies the effects in ascending
//!    node-id order: bandwidth checks, metrics, trace events, wake-up
//!    scheduling, halting, and routing of sends into the next round's
//!    [`Mailboxes`] all happen here. Each node is one walk over its op
//!    list: the sender's metrics are charged once from the totals its
//!    send calls kept, the bandwidth check takes one comparison for a
//!    lone unicast or a broadcast relay (and sorts only when a node
//!    mixes ops), and the ops are routed in call order.
//!    Broadcast ops (`send_all` / `send_all_except`) commit **one**
//!    payload copy into the round's payload arena and push its index
//!    onto each addressed neighbor's inbox list, while bandwidth,
//!    metrics, and trace are still charged per directed edge —
//!    observationally identical to the per-neighbor unicast expansion,
//!    at a fraction of the cost.
//!
//!    Faults plug into the same fold. It is one body instantiated twice,
//!    over whether an active [`Adversary`](crate::Adversary) is attached.
//!    Under faults each delivery meets the fate drawn from a pure hash
//!    of its identity, and a broadcast still keeps its one arena record
//!    (see [`crate::adversary`]). On clean runs each delivery meets the
//!    constant "deliver", which compiles away.
//!
//! The mailboxes are single-buffered: between the two phases the engine
//! clears the inboxes the compute phase has just read, and the fold
//! refills the same buffers for the next round.

use crate::adversary::{AdversaryState, Fate};
use crate::effects::{Dest, Effects, Op};
use crate::machine::{MachineLayer, MachineMap};
use crate::mailbox::Mailboxes;
use crate::scratch::{EngineScratch, Parts};
use crate::trace::{Trace, TraceEvent};
use crate::{Config, Context, Metrics, NodeId, Protocol, Report, SimError};
use dhc_graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A synchronous CONGEST network: a [`Graph`], one [`Protocol`] instance
/// per node, and the round scheduler. A Phase-1 class runs on its own
/// class subgraph ([`Graph::class_subgraphs`]).
///
/// Execution is deterministic: the compute phase writes only per-node
/// scratch, and all shared state is updated by the commit fold in
/// ascending node-id order. Inboxes are sorted by sender. Only nodes
/// with pending messages or scheduled wake-ups run in a given round.
pub struct Network<'g, P: Protocol> {
    graph: &'g Graph,
    config: Config,
    nodes: Vec<P>,
    halted: Vec<bool>,
    halted_count: usize,
    /// Single-buffered mailboxes; the sealed ready list is the
    /// message-driven active set of the upcoming round.
    mail: Mailboxes<P::Msg>,
    /// Reusable per-active-node effect scratch (compute-phase output).
    effects: Vec<Effects<P::Msg>>,
    /// Reusable per-round scheduling scratch (due wake-ups, merged
    /// active set, runnable list) — taken and restored each round so a
    /// warmed-up step allocates nothing for scheduling either.
    scratch_woken: Vec<NodeId>,
    scratch_active: Vec<(NodeId, usize)>,
    scratch_work: Vec<NodeId>,
    /// Scheduled wake-ups as (round, node).
    wakes: BinaryHeap<Reverse<(usize, NodeId)>>,
    round: usize,
    metrics: Metrics,
    trace: Trace,
    finished: bool,
    /// Optional k-machine accounting layer (see [`crate::machine`]):
    /// driven only by the commit fold, so it observes the run without
    /// influencing it.
    machines: Option<MachineLayer>,
    /// Optional seeded fault layer (see [`crate::adversary`]): attached
    /// like the machine layer but *influencing* delivery. `None` when no
    /// adversary — or a null one — is configured, so the clean engine
    /// paths run bit-for-bit unchanged. All fault draws happen in the
    /// commit fold (or the delay-queue injection), in a fixed order, so
    /// the realized schedule is a pure function of the fault seed.
    adversary: Option<AdversaryState>,
    /// Reusable per-node scratch for the bandwidth check: the
    /// `(destination, words)` loads of a faulty fold's duplicated copies,
    /// and the unicast and skip loads of a node that mixes ops.
    scratch_charged: Vec<(NodeId, usize)>,
    /// Optional telemetry collector (see [`dhc_obs`]), cloned out of the
    /// config once so emission needs no config borrow. Driven only from
    /// the post-fold bookkeeping, after the round is fully committed —
    /// pure observation, like the machine layer.
    obs: Option<dhc_obs::CollectorHandle>,
    /// Reusable telemetry scratch: this round's per-executed-node
    /// compute charges, filled by the fold as it commits (reading fields
    /// it touches anyway). Only filled when a collector is attached.
    obs_compute: Vec<u64>,
    /// This round's per-op telemetry tallies, accumulated alongside
    /// [`Network::obs_compute`] (see [`ObsPre`]).
    obs_scratch: ObsPre,
    /// This round's realized delivery fates `[dropped, duplicated,
    /// delayed]`, tallied by the fold's routing under faults.
    obs_fates: [u64; 3],
    /// This round's crash-schedule events `[crashes, restarts]`.
    obs_crash: [u64; 2],
}

/// Per-round telemetry tallies: per-op counts read off the effect
/// buffers by the fold before it drains them, plus the pre-fold
/// message/word totals so the emitted [`dhc_obs::RoundObs`] carries
/// this round's deltas.
#[derive(Clone, Copy, Default)]
struct ObsPre {
    unicast_ops: u64,
    broadcast_ops: u64,
    pre_messages: u64,
    pre_words: u64,
    wakes_scheduled: u64,
    halts: u64,
}

impl<'g, P: Protocol> Network<'g, P> {
    /// Creates the network and runs every node's `init` (round 0).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] if `protocols.len() != n`,
    /// [`SimError::InvalidConfig`] if an attached adversary delays
    /// messages with `max_delay == 0` or crashes a node outside the
    /// graph, or any fault raised by an `init` callback (e.g. sending to
    /// a non-neighbor).
    pub fn new(graph: &'g Graph, config: Config, protocols: Vec<P>) -> Result<Self, SimError> {
        Self::new_inner(graph, config, protocols, None, None)
    }

    /// Like [`new`](Network::new), but seeded from an [`EngineScratch`]:
    /// the network starts with the recycled mailbox buffers, payload
    /// arena, and effect and scheduling scratch of a previously finished
    /// network, instead of allocating its own. Pair with
    /// [`finish_with_scratch`](Network::finish_with_scratch) to keep the
    /// buffers flowing across a phase's many networks.
    ///
    /// Recycling is invisible to execution: every buffer is cleared and
    /// resized for this network before use, so outcomes, [`Metrics`],
    /// traces, and errors are bit-identical to [`new`](Network::new).
    ///
    /// # Errors
    ///
    /// As [`new`](Network::new).
    pub fn new_with_scratch(
        graph: &'g Graph,
        config: Config,
        protocols: Vec<P>,
        scratch: &mut EngineScratch<P::Msg>,
    ) -> Result<Self, SimError> {
        Self::new_inner(graph, config, protocols, None, Some(scratch))
    }

    /// Like [`new`](Network::new), but with the **k-machine accounting
    /// layer** attached: every committed message is additionally charged
    /// to the directed machine-pair link between its endpoints' machines
    /// (intra-machine traffic is free; a broadcast crosses each link
    /// once), and the per-round link loads are returned as
    /// [`Report::machine_log`] from [`finish`](Network::finish). The
    /// layer is pure observation — execution, outcomes, [`Metrics`], and
    /// traces are bit-identical to [`new`](Network::new).
    ///
    /// # Errors
    ///
    /// As [`new`](Network::new), and [`SimError::InvalidConfig`] if
    /// `machines` does not map exactly the graph's nodes.
    pub fn new_with_machines(
        graph: &'g Graph,
        config: Config,
        protocols: Vec<P>,
        machines: MachineMap,
    ) -> Result<Self, SimError> {
        if machines.len() != graph.node_count() {
            return Err(SimError::InvalidConfig {
                what: "machine map must cover exactly the graph's nodes",
            });
        }
        Self::new_inner(graph, config, protocols, Some(MachineLayer::new(machines)), None)
    }

    fn new_inner(
        graph: &'g Graph,
        config: Config,
        protocols: Vec<P>,
        machines: Option<MachineLayer>,
        scratch: Option<&mut EngineScratch<P::Msg>>,
    ) -> Result<Self, SimError> {
        if protocols.len() != graph.node_count() {
            return Err(SimError::NodeCountMismatch {
                graph_nodes: graph.node_count(),
                protocols: protocols.len(),
            });
        }
        let n = graph.node_count();
        // A null adversary (all knobs zero) is dropped here outright, so
        // attaching `Adversary::none()` provably cannot perturb the run:
        // the engine takes its unmodified clean code paths.
        let adversary = match &config.adversary {
            Some(adv) if !adv.is_null() => Some(AdversaryState::new(adv.clone(), n)?),
            _ => None,
        };
        let parts = match scratch {
            Some(s) => s.take_parts(n),
            None => Parts::fresh(n),
        };
        let trace_capacity = config.trace_capacity;
        let obs = config.collector.clone();
        let mut net = Network {
            graph,
            config,
            nodes: protocols,
            halted: vec![false; n],
            halted_count: 0,
            mail: parts.mail,
            effects: parts.effects,
            scratch_woken: parts.woken,
            scratch_active: parts.active,
            scratch_work: parts.work,
            wakes: BinaryHeap::new(),
            round: 0,
            metrics: Metrics::new(n),
            trace: Trace::with_capacity(trace_capacity),
            finished: false,
            machines,
            adversary,
            scratch_charged: parts.charged,
            obs,
            obs_compute: Vec::new(),
            obs_scratch: ObsPre::default(),
            obs_fates: [0; 3],
            obs_crash: [0; 2],
        };
        // Pre-schedule a wake at every restart round, so a restarted
        // node activates (with an empty inbox) even in an otherwise
        // quiescent network.
        {
            let Network { adversary, wakes, .. } = &mut net;
            if let Some(st) = adversary.as_ref() {
                for (r, v) in st.restart_wakes() {
                    wakes.push(Reverse((r, v)));
                }
            }
        }
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        net.run_phase(&all, CallKind::Init, &[], 0)?;
        net.mail.seal();
        Ok(net)
    }

    /// Runs rounds until every node halts.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; in particular [`SimError::Stalled`] when no node
    /// can ever run again and [`SimError::RoundLimitExceeded`] at the cap.
    pub fn run(&mut self) -> Result<(), SimError> {
        while !self.finished {
            self.step()?;
        }
        Ok(())
    }

    /// Samples the engine's buffer footprint in 8-byte machine words:
    /// the payload arena and per-node inbox lists, the per-active-node
    /// effect scratch, and the scheduling lists, wake heap included.
    /// Buffer capacities only grow during a run, so a sample after
    /// [`run`](Network::run) is the run's peak; both finish paths record
    /// it as
    /// [`Metrics::engine_memory_words`](crate::Metrics::engine_memory_words).
    pub fn engine_memory_words(&self) -> usize {
        use std::mem::size_of;
        let effects = self.effects.capacity() * size_of::<Effects<P::Msg>>()
            + self.effects.iter().map(Effects::memory_bytes).sum::<usize>();
        let sched = self.scratch_woken.capacity() * size_of::<NodeId>()
            + self.scratch_active.capacity() * size_of::<(NodeId, usize)>()
            + self.scratch_work.capacity() * size_of::<NodeId>()
            + self.wakes.capacity() * size_of::<Reverse<(usize, NodeId)>>()
            + self.scratch_charged.capacity() * size_of::<(NodeId, usize)>();
        let bytes = self.mail.memory_bytes() + effects + sched;
        bytes.div_ceil(size_of::<u64>())
    }

    /// Consumes the network, returning the final [`Report`] (by value, no
    /// metrics clone) and the per-node protocol states.
    pub fn finish(mut self) -> (Report, Vec<P>) {
        self.metrics.engine_memory_words = self.engine_memory_words() as u64;
        (
            Report {
                metrics: self.metrics,
                halted: self.halted_count,
                machine_log: self.machines.map(MachineLayer::into_log),
            },
            self.nodes,
        )
    }

    /// Like [`finish`](Network::finish), but donates the network's
    /// warmed-up buffers (mailboxes, payload arena, effect and
    /// scheduling scratch) to `scratch`, replacing whatever it held, so
    /// the next [`new_with_scratch`](Network::new_with_scratch) recycles
    /// them. Works regardless of how this network was constructed, and
    /// also after an errored [`run`](Network::run) — the taker re-clears
    /// everything.
    pub fn finish_with_scratch(mut self, scratch: &mut EngineScratch<P::Msg>) -> (Report, Vec<P>) {
        self.metrics.engine_memory_words = self.engine_memory_words() as u64;
        let Network {
            nodes,
            halted_count,
            mail,
            effects,
            scratch_woken,
            scratch_active,
            scratch_work,
            metrics,
            machines,
            scratch_charged,
            ..
        } = self;
        scratch.store(Parts {
            mail,
            effects,
            woken: scratch_woken,
            active: scratch_active,
            work: scratch_work,
            charged: scratch_charged,
        });
        (
            Report {
                metrics,
                halted: halted_count,
                machine_log: machines.map(MachineLayer::into_log),
            },
            nodes,
        )
    }

    /// Executes one round. Does nothing once the run has finished.
    ///
    /// # Errors
    ///
    /// See [`run`](Network::run).
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.finished {
            return Ok(());
        }
        if self.halted_count == self.nodes.len() {
            self.finished = true;
            return Ok(());
        }
        if self.round >= self.config.max_rounds {
            return Err(SimError::RoundLimitExceeded {
                max_rounds: self.config.max_rounds,
                unhalted: self.nodes.len() - self.halted_count,
            });
        }
        self.round += 1;

        if self.mail.ready().is_empty() {
            // Quiescent: fast-forward to the next scheduled wake-up or
            // delayed-message due round, if any (the skipped empty rounds
            // still count toward simulated time).
            let next_wake = self.wakes.peek().map(|&Reverse((r, _))| r);
            let next_due = self.mail.next_due();
            let next = match (next_wake, next_due) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            match next {
                Some(r) => {
                    if r > self.round {
                        self.round = r;
                    }
                    if self.round > self.config.max_rounds {
                        return Err(SimError::RoundLimitExceeded {
                            max_rounds: self.config.max_rounds,
                            unhalted: self.nodes.len() - self.halted_count,
                        });
                    }
                }
                None => {
                    if self.halted_count == self.nodes.len() {
                        self.finished = true;
                        return Ok(());
                    }
                    // Under an active adversary, a starved network (no
                    // mail, wakes, delayed messages, or pending restarts)
                    // is an *environmental* outcome — message loss, not a
                    // protocol deadlock — and no future round can make
                    // progress, so it terminates as the round-cap error
                    // instead of `Stalled`.
                    if self.adversary.is_some() {
                        return Err(SimError::RoundLimitExceeded {
                            max_rounds: self.config.max_rounds,
                            unhalted: self.nodes.len() - self.halted_count,
                        });
                    }
                    return Err(SimError::Stalled {
                        round: self.round,
                        unhalted: self.nodes.len() - self.halted_count,
                    });
                }
            }
        }

        if self.adversary.is_some() {
            // Re-inject delayed messages due this round (checking them
            // against the arrival round's edge budgets), then apply the
            // crash schedule so the suppression filter below sees this
            // round's up/down states.
            if let Err(e) = self.mail.inject_due(self.round, self.config.bandwidth_words) {
                // Consume and seal so a post-error `step` cannot
                // re-deliver this round's inboxes, mirroring the fold's
                // error path.
                self.mail.consume();
                self.mail.seal();
                return Err(e);
            }
            let round = self.round;
            let Network { adversary, trace, obs_crash, .. } = &mut *self;
            *obs_crash = [0; 2];
            if let Some(st) = adversary.as_mut() {
                st.advance(round, |node, went_down| {
                    obs_crash[usize::from(!went_down)] += 1;
                    trace.push(if went_down {
                        TraceEvent::Crashed { round, node }
                    } else {
                        TraceEvent::Restarted { round, node }
                    });
                });
            }
        }

        // Pop the due wake-ups (a wake for a node that also has mail is
        // simply consumed: the node activates either way).
        let mut woken = std::mem::take(&mut self.scratch_woken);
        woken.clear();
        while let Some(&Reverse((r, v))) = self.wakes.peek() {
            if r > self.round {
                break;
            }
            self.wakes.pop();
            woken.push(v);
        }
        woken.sort_unstable();
        woken.dedup();

        // Merge the message-driven active set (the sealed mailbox list,
        // ascending) with the woken nodes; wake-only activations get an
        // empty inbox.
        let mut active = std::mem::take(&mut self.scratch_active);
        active.clear();
        {
            let ready = self.mail.ready();
            let (mut i, mut j) = (0, 0);
            while i < ready.len() || j < woken.len() {
                let take_ready = match (ready.get(i), woken.get(j)) {
                    (Some(&(v, _)), Some(&w)) => {
                        if v == w {
                            j += 1; // wake consumed by the message activation
                        }
                        v <= w
                    }
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if take_ready {
                    active.push(ready[i]);
                    i += 1;
                } else {
                    let w = woken[j];
                    j += 1;
                    let down = self.adversary.as_ref().is_some_and(|st| st.is_down(w));
                    if !self.halted[(w) as usize] && !down && self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Woke { round: self.round, node: w });
                    }
                    active.push((w, 0));
                }
            }
        }

        // Unreachable in the current schedule — an empty ready list
        // either stalls/finishes above or fast-forwards onto a due wake,
        // and due wakes are merged even for since-halted nodes — but kept
        // as a defensive guard so an empty merge can never mis-run.
        debug_assert!(!active.is_empty(), "merged active set cannot be empty here");
        if active.is_empty() {
            self.scratch_woken = woken;
            self.scratch_active = active;
            if self.halted_count == self.nodes.len() {
                self.finished = true;
            }
            return Ok(());
        }

        // Delivery accounting; halted nodes consume (drop) their messages
        // without running, and so do crashed nodes — a down node's
        // receives are suppressed exactly like a halted node's (delivery
        // metrics included), but unlike halting it may run again after a
        // restart.
        let mut round_messages = 0u64;
        let mut work = std::mem::take(&mut self.scratch_work);
        work.clear();
        for &(v, len) in &active {
            round_messages += len as u64;
            self.metrics.received_per_node[(v) as usize] += len as u64;
            self.metrics.compute_per_node[(v) as usize] += len as u64;
            let down = self.adversary.as_ref().is_some_and(|st| st.is_down(v));
            if !self.halted[(v) as usize] && !down {
                work.push(v);
            }
        }
        self.metrics.round_traffic.push(round_messages);
        self.metrics.max_round_traffic = self.metrics.max_round_traffic.max(round_messages);

        let result = self.run_phase(&work, CallKind::Round, &active, round_messages);
        self.scratch_woken = woken;
        self.scratch_active = active;
        self.scratch_work = work;
        // Seal even when the fold faulted: the failed round's inboxes
        // were consumed before the fold, and the sends committed by
        // pre-fault nodes are delivered — a post-error `step` can never
        // re-run the same round.
        self.mail.seal();
        result
    }

    /// Runs one phase over the listed nodes (strictly ascending by node
    /// id): the compute phase, then the consumption of every inbox it
    /// read, then the commit fold, which refills the same mailbox
    /// buffers.
    ///
    /// `active` and `delivered` describe this round's delivery (the full
    /// activated set with inbox lengths, and the delivered message
    /// count); they are consumed only by the telemetry emission, which
    /// runs once per *successfully* committed round, after the fold.
    fn run_phase(
        &mut self,
        work: &[NodeId],
        kind: CallKind,
        active: &[(NodeId, usize)],
        delivered: u64,
    ) -> Result<(), SimError> {
        if self.effects.len() < work.len() {
            self.effects.resize_with(work.len(), Effects::default);
        }

        // --- Compute phase: per-node, no shared mutation. ---
        {
            let Network { graph, nodes, effects, mail, round, .. } = self;
            let (n, round) = (graph.node_count(), *round);
            // `work` ascends, so each node is split off the front of the
            // slice. Indexing `nodes[v]` instead measured 6% slower on
            // perfbench's upcast-gnp (and 3% faster on dhc1-dense).
            let mut rest = &mut nodes[..];
            let mut base = 0;
            for (fx, &v) in effects.iter_mut().zip(work) {
                let (node, tail) = std::mem::take(&mut rest)[(v - base) as usize..]
                    .split_first_mut()
                    .expect("active node id in range");
                rest = tail;
                base = v + 1;
                fx.reset();
                let mut ctx = Context { node: v, round, n, nbrs: graph.neighbors(v), fx };
                match kind {
                    CallKind::Init => node.init(&mut ctx),
                    CallKind::Round => node.round(&mut ctx, mail.inbox(v)),
                }
                fx.memory = node.memory_words();
            }
        }
        // Every inbox has been read: clear the lists and the arena so the
        // fold refills the same buffers.
        self.mail.consume();

        // --- Telemetry bookkeeping: the fold drains the effect buffers,
        // so it reads per-op counts and compute charges off them as it
        // commits. Skipped entirely without a collector. ---
        let obs_attached = self.obs.is_some();
        if obs_attached {
            self.obs_compute.clear();
            self.obs_fates = [0; 3];
            self.obs_scratch = ObsPre {
                pre_messages: self.metrics.messages,
                pre_words: self.metrics.words,
                ..ObsPre::default()
            };
        }

        // --- Commit fold: ascending node id. ---
        if self.adversary.is_some() {
            self.commit_sequential::<true>(work)?;
        } else {
            self.commit_sequential::<false>(work)?;
        }
        // Close the machine layer's round: every executed phase (init is
        // round 0) becomes one log entry, so the dilation accounting sees
        // exactly the executed schedule (fast-forwarded quiescent rounds
        // cost nothing).
        if let Some(ml) = self.machines.as_mut() {
            ml.end_round(self.round);
        }
        self.metrics.rounds = self.round;
        if obs_attached {
            self.emit_round_obs(work.len(), active, delivered);
        }
        Ok(())
    }

    /// Emits this committed round's [`dhc_obs::RoundObs`] to the
    /// attached collector. Runs strictly after the fold (and after the
    /// machine layer closed its round), reading engine state without
    /// mutating any of it — the collector observes the exact committed
    /// round and provably cannot perturb it.
    fn emit_round_obs(&mut self, executed: usize, active: &[(NodeId, usize)], delivered: u64) {
        let Some(obs) = self.obs.clone() else { return };
        let pre = self.obs_scratch;
        let ev = dhc_obs::RoundObs {
            round: self.round,
            executed,
            delivered,
            inbox: active,
            compute: &self.obs_compute,
            unicast_ops: pre.unicast_ops,
            broadcast_ops: pre.broadcast_ops,
            messages: self.metrics.messages - pre.pre_messages,
            words: self.metrics.words - pre.pre_words,
            wakes_scheduled: pre.wakes_scheduled,
            halts: pre.halts,
            faults: dhc_obs::FaultObs {
                dropped: self.obs_fates[0],
                duplicated: self.obs_fates[1],
                delayed: self.obs_fates[2],
                crashes: self.obs_crash[0],
                restarts: self.obs_crash[1],
            },
            machine_links: self.machines.as_ref().map_or(&[], MachineLayer::last_round_links),
        };
        obs.with(|c| c.on_round(&ev));
    }

    /// The commit fold: one pass over the effects in ascending node-id
    /// order, applying everything directly to shared state. A fault or
    /// bandwidth violation stops the fold at the first bad node, leaving
    /// every earlier node fully committed.
    ///
    /// Each node is one walk: its metrics are charged once from the
    /// push-time totals, its bandwidth checked (one comparison for the
    /// common shapes), and its op list routed in index order.
    ///
    /// `FAULTY` is set when an active adversary is attached. Each
    /// delivery then meets the [`Fate`] the adversary draws from a pure
    /// hash of `(fault seed, round, sender, op index, receiver)`; on clean
    /// runs it meets the constant [`Fate::Deliver`], which compiles away.
    /// Fates are drawn twice rather than stored. A pre-pass counts each
    /// duplicated copy as one more send and one more unicast load on its
    /// edge, so a duplicate that overfills an edge surfaces as the
    /// ordinary [`SimError::BandwidthExceeded`], never a silent queue.
    /// The routing walk then draws them again.
    fn commit_sequential<const FAULTY: bool>(&mut self, work: &[NodeId]) -> Result<(), SimError> {
        let Network {
            graph,
            config,
            effects,
            mail,
            metrics,
            trace,
            machines,
            adversary,
            wakes,
            halted,
            halted_count,
            round,
            scratch_charged: loads,
            obs,
            obs_compute,
            obs_scratch,
            obs_fates,
            ..
        } = self;
        let (graph, round, budget) = (*graph, *round, config.bandwidth_words);
        let adv = adversary.as_ref().map(|st| &st.adv);
        let fate = |v: NodeId, seq: u32, to: NodeId| match adv {
            Some(adv) if FAULTY => adv.fate(round, v, seq, to),
            _ => Fate::Deliver,
        };
        let trace_on = trace.is_enabled();
        // Telemetry tallies ride the fold's own walk (the effect fields
        // are in cache right here).
        let obs_attached = obs.is_some();
        for (fx, &v) in effects.iter_mut().zip(work) {
            if obs_attached {
                obs_scratch.unicast_ops += fx.unicasts() as u64;
                obs_scratch.broadcast_ops += (fx.ops.len() - fx.unicasts()) as u64;
                if fx.halted {
                    obs_scratch.halts += 1;
                } else if fx.wake.is_some() {
                    obs_scratch.wakes_scheduled += 1;
                }
                obs_compute.push(fx.compute);
            }
            if let Some(err) = fx.fault.take() {
                return Err(err);
            }
            let nbrs = graph.neighbors(v);
            metrics.compute_per_node[(v) as usize] += fx.compute;
            if fx.memory > metrics.peak_memory_per_node[(v) as usize] {
                metrics.peak_memory_per_node[(v) as usize] = fx.memory;
            }
            // Per-directed-edge accounting: every broadcast still counts
            // one message per addressed neighbor — only the payload
            // materialization is shared — and a duplicated copy counts
            // once more.
            let (mut sends, mut sent_words) = (fx.deliveries(), fx.delivered_words());
            loads.clear();
            if FAULTY {
                for (seq, op) in fx.ops.iter().enumerate() {
                    for to in op.dest.targets(nbrs) {
                        if fate(v, seq as u32, to) == Fate::Duplicate {
                            loads.push((to, op.words));
                            sends += 1;
                            sent_words += op.words as u64;
                        }
                    }
                }
            }
            if sends > metrics.max_node_sends_per_round {
                metrics.max_node_sends_per_round = sends;
            }
            if let Err((to, words)) =
                fx.check_bandwidth(nbrs, budget, &mut metrics.max_edge_words, loads)
            {
                return Err(SimError::BandwidthExceeded {
                    from: v,
                    to,
                    round,
                    attempted_words: words,
                    budget_words: budget,
                });
            }
            metrics.messages += sends as u64;
            metrics.words += sent_words;
            metrics.sent_per_node[(v) as usize] += sends as u64;
            // Route the ops in index (= call) order, so trace events and
            // per-receiver delivery order match the unicast expansion.
            for (seq, Op { dest, words, msg }) in fx.ops.drain(..).enumerate() {
                let seq = seq as u32;
                if let Dest::To(to) = dest {
                    let fate = fate(v, seq, to);
                    if trace_on {
                        trace.push(TraceEvent::Sent { round, from: v, to, words });
                    }
                    if FAULTY {
                        note_fault(trace, obs_fates, fate, round, v, to);
                    }
                    if let Some(ml) = machines.as_mut() {
                        ml.unicast(v, to, words);
                        if fate == Fate::Duplicate {
                            ml.unicast(v, to, words);
                        }
                    }
                    let rec = mail.record(v, seq, msg);
                    mail.route(rec, to, fate, round);
                    continue;
                }
                if dest.targets(nbrs).next().is_none() {
                    // A skip-one broadcast from a degree-1 node addresses
                    // nobody: nothing to stage.
                    continue;
                }
                if trace_on && !FAULTY {
                    for to in dest.targets(nbrs) {
                        trace.push(TraceEvent::Sent { round, from: v, to, words });
                    }
                }
                // One payload copy into the arena; every addressed
                // neighbor gets its index as its fate says. The machine
                // layer likewise charges the payload once per receiving
                // *machine*, not per receiving node, whatever the fates.
                let rec = mail.record(v, seq, msg);
                if let Some(ml) = machines.as_mut() {
                    ml.begin_broadcast(v, words);
                }
                for to in dest.targets(nbrs) {
                    let fate = fate(v, seq, to);
                    if FAULTY {
                        if trace_on {
                            trace.push(TraceEvent::Sent { round, from: v, to, words });
                        }
                        note_fault(trace, obs_fates, fate, round, v, to);
                    }
                    mail.route(rec, to, fate, round);
                    if let Some(ml) = machines.as_mut() {
                        ml.broadcast_dest(to);
                    }
                }
            }
            if let Some(target) = fx.wake {
                if !fx.halted {
                    wakes.push(Reverse((target, v)));
                    if trace_on {
                        trace.push(TraceEvent::WakeScheduled { round, node: v, target });
                    }
                }
            }
            if fx.halted && !halted[(v) as usize] {
                halted[(v) as usize] = true;
                *halted_count += 1;
                if trace_on {
                    trace.push(TraceEvent::Halted { round, node: v });
                }
            }
        }
        Ok(())
    }

    /// Number of rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// Whether every node has halted.
    pub fn is_finished(&self) -> bool {
        self.finished || self.halted_count == self.nodes.len()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace (empty unless `Config::trace_capacity > 0`).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Immutable access to the per-node protocol states (for extracting
    /// outputs after a run).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the network, returning the protocol states. Prefer
    /// [`finish`](Network::finish) when the final metrics are also needed.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

impl<P: Protocol> std::fmt::Debug for Network<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("n", &self.nodes.len())
            .field("round", &self.round)
            .field("halted", &self.halted_count)
            .field("finished", &self.finished)
            .finish()
    }
}

/// Which protocol callback [`Network::run_phase`] should run.
#[derive(Clone, Copy, Debug)]
enum CallKind {
    Init,
    Round,
}

/// Notes one delivery's fault: tallies a non-`Deliver` fate into
/// `tally` (`[dropped, duplicated, delayed]`, for the round's telemetry
/// event) and traces it right after the delivery's `Sent` event.
fn note_fault(
    trace: &mut Trace,
    tally: &mut [u64; 3],
    fate: Fate,
    round: usize,
    from: NodeId,
    to: NodeId,
) {
    let (slot, event) = match fate {
        Fate::Deliver => return,
        Fate::Drop => (0, TraceEvent::Dropped { round, from, to }),
        Fate::Duplicate => (1, TraceEvent::Duplicated { round, from, to }),
        Fate::Delay(d) => (2, TraceEvent::Delayed { round, from, to, until: round + 1 + d }),
    };
    tally[slot] += 1;
    trace.push(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Inbox, Payload};

    #[derive(Clone, Debug)]
    struct Token(#[allow(dead_code)] u64);
    impl Payload for Token {}

    /// Floods a token once from node 0; every node halts after forwarding.
    struct Flood {
        seen: bool,
    }
    impl Protocol for Flood {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                self.seen = true;
                ctx.send_all(Token(1));
                ctx.halt();
            }
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            if !inbox.is_empty() && !self.seen {
                self.seen = true;
                ctx.send_all(Token(1));
            }
            ctx.halt();
        }
        fn memory_words(&self) -> usize {
            2
        }
    }

    fn flood_nodes(n: usize) -> Vec<Flood> {
        (0..n).map(|_| Flood { seen: false }).collect()
    }

    #[test]
    fn flood_reaches_everyone_on_path() {
        let g = dhc_graph::generator::path_graph(5);
        let mut net = Network::new(&g, Config::default(), flood_nodes(5)).unwrap();
        net.run().unwrap();
        assert!(net.nodes().iter().all(|f| f.seen));
        let (report, _) = net.finish();
        assert_eq!(report.halted, 5);
        // Token crosses 4 hops; the last forward happens in round 4.
        assert_eq!(report.metrics.rounds, 4);
        // Sends: node 0 one, nodes 1-3 two each (send_all), node 4 one.
        assert_eq!(report.metrics.messages, 8);
    }

    #[test]
    fn metrics_count_messages_and_words() {
        let g = dhc_graph::generator::star(4);
        let mut net = Network::new(&g, Config::default(), flood_nodes(4)).unwrap();
        net.run().unwrap();
        let (report, _) = net.finish();
        // Node 0 sends 3; each leaf replies to the (halted) hub: 3 more sent.
        assert_eq!(report.metrics.messages, 6);
        assert_eq!(report.metrics.words, 6);
        assert_eq!(report.metrics.sent_per_node, vec![3, 1, 1, 1]);
        assert_eq!(report.metrics.max_edge_words, 1);
    }

    #[test]
    fn memory_peaks_sampled() {
        let g = dhc_graph::generator::path_graph(3);
        let mut net = Network::new(&g, Config::default(), flood_nodes(3)).unwrap();
        net.run().unwrap();
        assert!(net.metrics().peak_memory_per_node.iter().all(|&m| m == 2));
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let g = dhc_graph::generator::path_graph(3);
        assert!(matches!(
            Network::new(&g, Config::default(), flood_nodes(2)),
            Err(SimError::NodeCountMismatch { graph_nodes: 3, protocols: 2 })
        ));
    }

    /// Sends to a fixed non-neighbor in init.
    struct BadSender;
    impl Protocol for BadSender {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(2, Token(0));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn non_neighbor_send_is_error() {
        let g = dhc_graph::generator::path_graph(3); // 0-1-2: 0 and 2 not adjacent
        let err =
            Network::new(&g, Config::default(), vec![BadSender, BadSender, BadSender]).unwrap_err();
        assert!(matches!(err, SimError::NotANeighbor { from: 0, to: 2, .. }));
    }

    /// Sends two messages over one edge in one round.
    struct Chatty;
    impl Protocol for Chatty {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(1, Token(1));
                ctx.send(1, Token(2));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn bandwidth_violation_is_error() {
        let g = dhc_graph::generator::path_graph(2);
        let err = Network::new(&g, Config::default(), vec![Chatty, Chatty]).unwrap_err();
        assert!(matches!(
            err,
            SimError::BandwidthExceeded { from: 0, to: 1, attempted_words: 2, budget_words: 1, .. }
        ));
    }

    #[test]
    fn wider_bandwidth_allows_it() {
        let g = dhc_graph::generator::path_graph(2);
        let net = Network::new(&g, Config::default().with_bandwidth_words(2), vec![Chatty, Chatty]);
        assert!(net.is_ok());
    }

    /// Node 0 never halts and never acts: stall.
    struct Sleeper;
    impl Protocol for Sleeper {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() != 0 {
                ctx.halt();
            }
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn stall_detected() {
        let g = dhc_graph::generator::path_graph(2);
        let mut net = Network::new(&g, Config::default(), vec![Sleeper, Sleeper]).unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::Stalled { unhalted: 1, .. }));
    }

    /// Wakes itself `k` times, then halts.
    struct Timer {
        remaining: usize,
        fired_rounds: Vec<usize>,
    }
    impl Protocol for Timer {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.wake_in(3);
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, _: Inbox<'_, Token>) {
            self.fired_rounds.push(ctx.round_number());
            if self.remaining == 0 {
                ctx.halt();
            } else {
                self.remaining -= 1;
                ctx.wake_in(2);
            }
        }
    }

    #[test]
    fn wake_in_schedules_exact_rounds() {
        let g = dhc_graph::Graph::from_edges(1, []).unwrap();
        let mut net =
            Network::new(&g, Config::default(), vec![Timer { remaining: 2, fired_rounds: vec![] }])
                .unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[0].fired_rounds, vec![3, 5, 7]);
    }

    #[test]
    fn round_limit_enforced() {
        let g = dhc_graph::Graph::from_edges(1, []).unwrap();
        let mut net = Network::new(
            &g,
            Config::default().with_max_rounds(4),
            vec![Timer { remaining: 100, fired_rounds: vec![] }],
        )
        .unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { max_rounds: 4, unhalted: 1 }));
    }

    #[test]
    fn trace_records_sends_halts_and_wakes() {
        let g = dhc_graph::generator::path_graph(3);
        let cfg = Config::default().with_trace_capacity(100);
        let mut net = Network::new(&g, cfg, flood_nodes(3)).unwrap();
        net.run().unwrap();
        let trace = net.trace();
        let sends = trace.iter().filter(|e| matches!(e, crate::TraceEvent::Sent { .. })).count();
        let halts = trace.iter().filter(|e| matches!(e, crate::TraceEvent::Halted { .. })).count();
        assert_eq!(sends as u64, net.metrics().messages);
        assert_eq!(halts, 3);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn trace_records_wake_only_activations() {
        let g = dhc_graph::Graph::from_edges(1, []).unwrap();
        let cfg = Config::default().with_trace_capacity(100);
        let mut net =
            Network::new(&g, cfg, vec![Timer { remaining: 1, fired_rounds: vec![] }]).unwrap();
        net.run().unwrap();
        let woke: Vec<usize> = net
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Woke { round, node: 0 } => Some(*round),
                _ => None,
            })
            .collect();
        // Scheduled in init for round 3, then again for round 5.
        assert_eq!(woke, vec![3, 5]);
    }

    #[test]
    fn trace_disabled_by_default() {
        let g = dhc_graph::generator::path_graph(2);
        let mut net = Network::new(&g, Config::default(), flood_nodes(2)).unwrap();
        net.run().unwrap();
        assert!(net.trace().is_empty());
    }

    /// Node 1 answers its first delivery with two messages to node 0 in
    /// one round: a bandwidth violation in the round-2 commit fold.
    struct Replier {
        invocations: usize,
    }
    impl Protocol for Replier {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(1, Token(0));
            }
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            self.invocations += 1;
            if ctx.node() == 1 && !inbox.is_empty() {
                ctx.send(0, Token(1));
                ctx.send(0, Token(2));
            }
        }
    }

    #[test]
    fn step_after_error_does_not_rerun_the_round() {
        let g = dhc_graph::generator::path_graph(2);
        let mut net = Network::new(
            &g,
            Config::default(),
            vec![Replier { invocations: 0 }, Replier { invocations: 0 }],
        )
        .unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { from: 1, to: 0, .. }));
        assert_eq!(net.nodes()[1].invocations, 1);
        // The failed round's inboxes were consumed: another step cannot
        // re-deliver them and re-run the callbacks (it stalls instead,
        // exactly like the pre-refactor engine).
        let again = net.step().unwrap_err();
        assert!(matches!(again, SimError::Stalled { .. }), "{again:?}");
        assert_eq!(net.nodes()[1].invocations, 1);
    }

    /// Node 0 floods everyone but node 1 via `send_all_except`; node 2
    /// echoes with interleaved unicast + broadcast ops.
    struct Skipper {
        got: Vec<(NodeId, u64)>,
    }
    impl Protocol for Skipper {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send_all_except(1, Token(7));
            }
            // Everyone activates in round 1 (and halts there), even the
            // skipped neighbor.
            ctx.wake_in(1);
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            for (from, &Token(k)) in inbox.iter() {
                self.got.push((from, k));
            }
            if ctx.node() == 2 && ctx.round_number() == 1 {
                // Interleave: unicast, broadcast, unicast — receivers must
                // see this exact call order from sender 2.
                ctx.send(0, Token(10));
                ctx.send_all(Token(11));
                ctx.send(0, Token(12));
            }
            if ctx.node() == 0 && ctx.round_number() < 2 {
                // The hub stays up one extra round to observe node 2's
                // interleaved ops.
                ctx.stay_awake();
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn send_all_except_skips_exactly_one_neighbor() {
        let g = dhc_graph::generator::star(4); // hub 0, leaves 1..3
        let nodes = (0..4).map(|_| Skipper { got: Vec::new() }).collect();
        let cfg = Config::default().with_bandwidth_words(4).with_trace_capacity(100);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![], "skipped neighbor got the flood");
        assert_eq!(net.nodes()[2].got, vec![(0, 7)]);
        assert_eq!(net.nodes()[3].got, vec![(0, 7)]);
        // Init flood: 2 messages (leaves 2, 3). Round 1: node 2 sends
        // 2 unicasts + 1 broadcast to its single neighbor (the hub).
        assert_eq!(net.metrics().messages, 5);
        let sends =
            net.trace().iter().filter(|e| matches!(e, TraceEvent::Sent { .. })).count() as u64;
        assert_eq!(sends, net.metrics().messages);
    }

    #[test]
    fn interleaved_unicast_and_broadcast_arrive_in_call_order() {
        let g = dhc_graph::generator::star(4);
        let nodes = (0..4).map(|_| Skipper { got: Vec::new() }).collect();
        let cfg = Config::default().with_bandwidth_words(4);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.run().unwrap();
        // Node 2's round-1 ops arrive at the hub in call order: the
        // broadcast between the two unicasts, as in its op list.
        assert_eq!(net.nodes()[0].got, vec![(2, 10), (2, 11), (2, 12)]);
        assert_eq!(net.metrics().received_per_node[0], 3);
        assert_eq!(net.metrics().sent_per_node, vec![2, 0, 3, 0]);
    }

    /// Two broadcasts in one round exceed the 1-word default budget.
    struct DoubleFlood;
    impl Protocol for DoubleFlood {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send_all(Token(1));
                ctx.send_all(Token(2));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Token>, _: Inbox<'_, Token>) {}
    }

    #[test]
    fn broadcast_bandwidth_enforced_per_directed_edge() {
        let g = dhc_graph::generator::path_graph(3);
        let err = Network::new(&g, Config::default(), vec![DoubleFlood, DoubleFlood, DoubleFlood])
            .unwrap_err();
        // First violating destination in ascending order is neighbor 1.
        assert!(matches!(
            err,
            SimError::BandwidthExceeded { from: 0, to: 1, attempted_words: 2, budget_words: 1, .. }
        ));
        let g = dhc_graph::generator::path_graph(3);
        let net = Network::new(
            &g,
            Config::default().with_bandwidth_words(2),
            vec![DoubleFlood, DoubleFlood, DoubleFlood],
        )
        .unwrap();
        assert_eq!(net.metrics().max_edge_words, 2);
    }

    /// The payload arena holds one payload per flooding op, not per
    /// edge: the flood test above plus this pin the count.
    #[test]
    fn inbox_views_share_one_broadcast_payload() {
        let g = dhc_graph::generator::complete(6);
        let nodes = (0..6).map(|_| Skipper { got: Vec::new() }).collect();
        let cfg = Config::default().with_bandwidth_words(4);
        let mut net = Network::new(&g, cfg, nodes).unwrap();
        net.step().unwrap();
        // Every neighbor of 0 except 1 saw the one arena record.
        let seen: Vec<_> = net.nodes().iter().map(|nd| nd.got.len()).collect();
        assert_eq!(seen, vec![0, 0, 1, 1, 1, 1]);
    }

    /// Records the round of every delivery; node 0 pings node 1 once.
    struct Recorder {
        got: Vec<(usize, NodeId, u64)>,
    }
    impl Protocol for Recorder {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            if ctx.node() == 0 {
                ctx.send(1, Token(9));
            }
            ctx.wake_in(8); // stay reachable long enough to observe late arrivals
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, inbox: Inbox<'_, Token>) {
            for (from, &Token(k)) in inbox.iter() {
                self.got.push((ctx.round_number(), from, k));
            }
            if ctx.round_number() >= 8 {
                ctx.halt();
            }
        }
    }

    fn recorders(n: usize) -> Vec<Recorder> {
        (0..n).map(|_| Recorder { got: Vec::new() }).collect()
    }

    fn adversary_cfg(adv: crate::Adversary) -> Config {
        Config::default().with_bandwidth_words(4).with_trace_capacity(1000).with_adversary(adv)
    }

    #[test]
    fn certain_drop_loses_the_message_but_charges_the_sender() {
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_drop_ppm(crate::adversary::PPM);
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![], "dropped message was delivered");
        // Sender-side accounting is unchanged: the word crossed the edge.
        assert_eq!(net.metrics().messages, 1);
        assert_eq!(net.metrics().sent_per_node[0], 1);
        let drops = net
            .trace()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dropped { from: 0, to: 1, .. }))
            .count();
        assert_eq!(drops, 1);
    }

    #[test]
    fn certain_duplicate_delivers_two_copies() {
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_duplicate_ppm(crate::adversary::PPM);
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![(1, 0, 9), (1, 0, 9)]);
        assert_eq!(net.metrics().messages, 2, "both copies count");
    }

    #[test]
    fn duplicates_respect_the_edge_budget() {
        // Budget 1: the duplicated copy is one word too many.
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_duplicate_ppm(crate::adversary::PPM);
        let cfg = Config::default().with_adversary(adv);
        let err = Network::new(&g, cfg, recorders(2)).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::BandwidthExceeded {
                    from: 0,
                    to: 1,
                    attempted_words: 2,
                    budget_words: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn certain_delay_arrives_late() {
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(1).with_delay(crate::adversary::PPM, 1);
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        // Sent in init (round 0), delayed by exactly 1: arrives round 2
        // instead of round 1.
        assert_eq!(net.nodes()[1].got, vec![(2, 0, 9)]);
        assert!(net
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Delayed { from: 0, to: 1, until: 2, .. })));
    }

    #[test]
    fn crashed_node_is_suppressed_and_restart_resumes_with_state() {
        // Node 1 down for rounds 1..=3: the init ping vanishes into the
        // crash, the round-8 wake (scheduled in init, surviving the
        // crash) still fires after restart.
        let g = dhc_graph::generator::path_graph(2);
        let adv = crate::Adversary::seeded(0).with_crash(1, 1, Some(4));
        let mut net = Network::new(&g, adversary_cfg(adv), recorders(2)).unwrap();
        net.run().unwrap();
        assert_eq!(net.nodes()[1].got, vec![], "delivery while down must be suppressed");
        let ev = net.trace();
        assert!(ev.iter().any(|e| matches!(e, TraceEvent::Crashed { node: 1, .. })));
        assert!(ev.iter().any(|e| matches!(e, TraceEvent::Restarted { node: 1, round: 4 })));
        // The node ran again after restart: it halted at its round-8 wake.
        assert!(net.is_finished());
    }

    #[test]
    fn crash_forever_turns_quiescence_into_round_limit() {
        // Flood on a path: node 1 crashes before forwarding, the token
        // dies with it, and the run terminates with the typed round-cap
        // outcome instead of hanging or stalling.
        let g = dhc_graph::generator::path_graph(3);
        let adv = crate::Adversary::seeded(0).with_crash(1, 1, None);
        let cfg = Config::default().with_adversary(adv);
        let mut net = Network::new(&g, cfg, flood_nodes(3)).unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }), "{err:?}");
        assert!(!net.nodes()[2].seen);
    }

    #[test]
    fn total_drop_terminates_with_round_limit() {
        let g = dhc_graph::generator::grid(3, 3);
        let adv = crate::Adversary::seeded(2).with_drop_ppm(crate::adversary::PPM);
        let cfg = Config::default().with_adversary(adv);
        let mut net = Network::new(&g, cfg, flood_nodes(9)).unwrap();
        let err = net.run().unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }), "{err:?}");
    }

    #[test]
    fn invalid_adversaries_are_typed_errors() {
        // Node 0's init send is delayed for certain, so a missing delay
        // bound would be drawn from at once.
        let g = dhc_graph::generator::path_graph(3);
        let ppm = crate::adversary::PPM;
        let unbounded_delay = crate::Adversary { delay_ppm: ppm, ..crate::Adversary::seeded(1) };
        let crash_outside = crate::Adversary::seeded(1).with_crash(3, 1, None);
        for adv in [unbounded_delay, crash_outside] {
            let cfg = Config::default().with_adversary(adv);
            let err = Network::new(&g, cfg, flood_nodes(3)).err();
            assert!(matches!(err, Some(SimError::InvalidConfig { .. })), "{err:?}");
        }
    }

    #[test]
    fn machine_map_of_the_wrong_size_is_a_typed_error() {
        let g = dhc_graph::generator::path_graph(3);
        for machine_of in [vec![0, 1], vec![0, 1, 0, 1]] {
            let machines = MachineMap::new(machine_of, 2);
            let err = Network::new_with_machines(&g, Config::default(), flood_nodes(3), machines);
            assert!(matches!(err.err(), Some(SimError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn null_adversary_is_bit_identical_to_no_adversary() {
        let g = dhc_graph::generator::grid(4, 4);
        let run = |adv: Option<crate::Adversary>| {
            let mut cfg = Config::default().with_trace_capacity(10_000);
            if let Some(adv) = adv {
                cfg = cfg.with_adversary(adv);
            }
            let mut net = Network::new(&g, cfg, flood_nodes(16)).unwrap();
            net.run().unwrap();
            let trace = net.trace().events();
            let (report, _) = net.finish();
            (report.metrics, trace)
        };
        assert_eq!(run(None), run(Some(crate::Adversary::none())));
        assert_eq!(run(None), run(Some(crate::Adversary::seeded(77))));
    }

    #[test]
    fn determinism_same_run_twice() {
        let g = dhc_graph::generator::grid(3, 3);
        let run = || {
            let mut net = Network::new(&g, Config::default(), flood_nodes(9)).unwrap();
            net.run().unwrap();
            net.finish().0.metrics
        };
        assert_eq!(run(), run());
    }

    /// Builds a shared [`dhc_obs::RunObserver`] and a config carrying it.
    fn observed_cfg(
        cfg: Config,
    ) -> (Config, std::sync::Arc<std::sync::Mutex<dhc_obs::RunObserver>>) {
        let shared = std::sync::Arc::new(std::sync::Mutex::new(dhc_obs::RunObserver::new()));
        let cfg = cfg.with_collector(dhc_obs::CollectorHandle::new(shared.clone()));
        (cfg, shared)
    }

    #[test]
    fn collector_counts_match_metrics() {
        let g = dhc_graph::generator::grid(4, 4);
        let (cfg, shared) = observed_cfg(Config::default());
        let mut net = Network::new(&g, cfg, flood_nodes(16)).unwrap();
        net.run().unwrap();
        let (report, _) = net.finish();
        let obs = shared.lock().unwrap();
        let c = *obs.counters();
        assert_eq!(c.messages, report.metrics.messages);
        assert_eq!(c.max_round, report.metrics.rounds as u64);
        assert_eq!(c.halts, 16);
        // Flood uses send_all: broadcasts, no unicasts.
        assert!(c.broadcast_ops > 0);
        assert_eq!(c.unicast_ops, 0);
        // Deliveries lag sends by a round, so messages still in flight
        // when every node halts are committed but never delivered.
        assert!(c.delivered > 0 && c.delivered <= report.metrics.messages);
        // Round 1's traffic equals node 0's init broadcast degree.
        assert!(obs.round_traffic_hist().count() > 0);
        assert!(obs.inbox_hist().count() > 0);
        assert_eq!(obs.machine_link_hist().count(), 0, "no machine layer attached");
    }

    #[test]
    fn collector_attachment_is_pure_observation() {
        // Attached-vs-detached runs are bit-identical, clean and
        // adversarial.
        let g = dhc_graph::generator::grid(4, 4);
        let adv = crate::Adversary::seeded(5)
            .with_drop_ppm(200_000)
            .with_duplicate_ppm(150_000)
            .with_delay(200_000, 3)
            .with_crash(3, 2, Some(5));
        for adversary in [None, Some(adv)] {
            let base_cfg = || {
                let mut cfg = Config::default().with_bandwidth_words(4).with_trace_capacity(10_000);
                if let Some(adv) = &adversary {
                    cfg = cfg.with_adversary(adv.clone());
                }
                cfg
            };
            let run = |cfg: Config| {
                let mut net = Network::new(&g, cfg, recorders(16)).unwrap();
                let outcome = net.run().map_err(|e| format!("{e:?}"));
                let got: Vec<_> = net.nodes().iter().map(|r| r.got.clone()).collect();
                let trace = net.trace().events();
                let (report, _) = net.finish();
                (outcome, got, report.metrics, trace)
            };
            let (cfg, shared) = observed_cfg(base_cfg());
            assert_eq!(run(base_cfg()), run(cfg), "attached run diverged");
            assert!(shared.lock().unwrap().counters().rounds_observed > 0);
        }
    }

    /// Broadcasts every round until round 6, then halts — enough
    /// traffic that every configured fate is realized.
    struct Gossip;
    impl Protocol for Gossip {
        type Msg = Token;
        fn init(&mut self, ctx: &mut Context<'_, Token>) {
            ctx.send_all(Token(0));
        }
        fn round(&mut self, ctx: &mut Context<'_, Token>, _inbox: Inbox<'_, Token>) {
            if ctx.round_number() < 6 {
                ctx.send_all(Token(1));
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn collector_sees_fates_crashes_and_machine_links() {
        let g = dhc_graph::generator::grid(4, 4);
        let adv = crate::Adversary::seeded(5)
            .with_drop_ppm(200_000)
            .with_duplicate_ppm(150_000)
            .with_delay(200_000, 3)
            .with_crash(3, 2, Some(5));
        let (cfg, shared) =
            observed_cfg(Config::default().with_bandwidth_words(4).with_adversary(adv));
        let machines = MachineMap::new((0..16).map(|v| v % 4).collect(), 4);
        let nodes: Vec<Gossip> = (0..16).map(|_| Gossip).collect();
        let mut net = Network::new_with_machines(&g, cfg, nodes, machines).unwrap();
        let _ = net.run();
        let obs = shared.lock().unwrap();
        let c = obs.counters();
        assert!(c.dropped > 0, "drop adversary produced no observed drops");
        assert!(c.duplicated > 0);
        assert!(c.delayed > 0);
        assert_eq!(c.crashes, 1);
        assert_eq!(c.restarts, 1);
        assert!(obs.machine_link_hist().count() > 0, "machine layer produced no link loads");
    }
}
