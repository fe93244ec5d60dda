//! High-level entry points: run a whole algorithm on a graph and get back
//! a verified cycle plus metrics.

use crate::dra::{DraMsg, DraNode};
use crate::error::PartitionFailure;
use crate::kmachine::KMachineProbe;
use crate::output::pairs_from_links;
use crate::{cycle_from_incident_pairs, DhcConfig, DhcError};
use dhc_congest::machine::{MachineMap, MachineRoundLog};
use dhc_congest::{EngineScratch, Metrics, Network, Span};
use dhc_graph::rng::{derive_seed, rng_from_seed};
use dhc_graph::{Graph, HamiltonianCycle, NodeId, Partition};

/// Per-phase cost breakdown of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Phase name (e.g. `"phase1"`, `"merge-level-3"`).
    pub name: String,
    /// Rounds spent in this phase.
    pub rounds: usize,
    /// Messages sent in this phase.
    pub messages: u64,
}

/// Result of a successful distributed Hamiltonian-cycle run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The verified Hamiltonian cycle.
    pub cycle: HamiltonianCycle,
    /// Aggregated metrics over all phases (rounds add up).
    pub metrics: Metrics,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseBreakdown>,
}

/// One node's place on its subcycle: Phase 1's result, which the DHC1
/// stitch starts from and the DHC2 merge levels carry from level to
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CycleState {
    pub color: u32,
    /// Position on the cycle (the paper's `cycindex`).
    pub idx: usize,
    pub succ: NodeId,
    pub pred: NodeId,
    /// Cycle length.
    pub size: usize,
}

/// Outcome of Phase 1 across all partitions.
#[derive(Debug, Clone)]
pub(crate) struct Phase1Outcome {
    pub states: Vec<CycleState>,
    pub metrics: Metrics,
}

/// One node's raw Phase-1 protocol result, already mapped back to
/// global ids.
#[derive(Debug, Clone, Copy)]
struct RawPhase1 {
    color: u32,
    failed: Option<PartitionFailure>,
    done: bool,
    cycindex: Option<usize>,
    succ: Option<NodeId>,
    pred: Option<NodeId>,
    cycle_size: Option<usize>,
}

/// One partition's completed simulation: its member map (`local →
/// global`, borrowed from the partition's flat class storage), the
/// extracted protocol states, and the run's metrics.
struct PartitionRun<'a> {
    map: &'a [NodeId],
    raw: Vec<RawPhase1>,
    metrics: Metrics,
    /// Per-round cross-machine traffic when this class ran under the
    /// k-machine accounting layer.
    machine_log: Option<MachineRoundLog>,
}

/// Simulates one color class's DRA instance on its induced subgraph
/// `class_graph`, whose local ids index `map`, the class's ascending
/// member list (`local → global`), which the returned run borrows.
///
/// Each node's RNG stream stays keyed by its **global** id, so the
/// run is a pure function of `(class_graph, map, color, seed)` —
/// independent of how the other partitions are scheduled, and the same
/// run the paper's whole-graph Phase 1 makes for this class (pinned by
/// `crates/core/tests/phase1_oracle.rs`). Messages that crossed
/// partition boundaries in the whole-graph run carried only the round-1
/// color exchange, which [`account_cross_color_exchange`] charges
/// afterwards.
fn run_one_partition<'a>(
    class_graph: &Graph,
    map: &'a [NodeId],
    color: u32,
    cfg: &DhcConfig,
    seed_base: u64,
    machines: Option<MachineMap>,
    mut scratch: Option<&mut EngineScratch<DraMsg>>,
) -> Result<PartitionRun<'a>, DhcError> {
    let protocols: Vec<DraNode> = map
        .iter()
        .enumerate()
        .map(|(local, &global)| {
            DraNode::with_rng_stream((local) as u32, color, derive_seed(seed_base, global as u64))
        })
        .collect();
    // Per-class simulator config: a configured adversary is translated
    // to this class's local ids and its own fault stream.
    let sim = cfg.sim_config_for_class(color, map);
    let mut net = match machines {
        Some(m) => Network::new_with_machines(class_graph, sim, protocols, m)?,
        None => match scratch.as_deref_mut() {
            Some(s) => Network::new_with_scratch(class_graph, sim, protocols, s)?,
            None => Network::new(class_graph, sim, protocols)?,
        },
    };
    // Even on error, route teardown through the scratch so a failed
    // class donates its buffers to the next attempt.
    let run_result = net.run();
    let (report, nodes) = match scratch {
        Some(s) => net.finish_with_scratch(s),
        None => net.finish(),
    };
    run_result?;
    let raw = nodes
        .iter()
        .map(|node| RawPhase1 {
            color,
            failed: node.failed,
            done: node.done,
            cycindex: node.cycindex,
            succ: node.succ.map(|s| map[(s) as usize]),
            pred: node.pred.map(|p| map[(p) as usize]),
            cycle_size: node.cycle_size,
        })
        .collect();
    Ok(PartitionRun { map, raw, metrics: report.metrics, machine_log: report.machine_log })
}

/// Charges the round-1 `Color` announcements that cross partition
/// boundaries. The distributed algorithm pays one 1-word message per
/// directed edge in round 1 regardless of the receiver's color, but
/// the cross-color share does not exist inside the per-partition
/// subgraph simulations — without this correction the partitioned
/// runner would systematically under-report message/word totals and
/// per-node load relative to a whole-graph execution. `O(n)`: a node's
/// cross-color degree is its degree less its degree in its class
/// subgraph (`class_graphs[c]` is class `c`'s, as
/// [`Graph::class_subgraphs`] builds them).
///
/// `metrics.round_traffic` must hold the merged class logs; it is empty
/// only when no class ran a round.
fn account_cross_color_exchange(
    metrics: &mut Metrics,
    graph: &Graph,
    partition: &Partition,
    class_graphs: &[Graph],
) {
    let intra: usize = class_graphs.iter().map(Graph::edge_count).sum();
    let total = 2 * (graph.edge_count() - intra) as u64;
    if total == 0 {
        return;
    }
    metrics.messages += total;
    metrics.words += total;
    for (class, class_graph) in partition.classes().zip(class_graphs) {
        for (local, &v) in class.iter().enumerate() {
            let c = (graph.degree(v) - class_graph.degree(local as NodeId)) as u64;
            // Symmetric: each cross edge carries one announcement each
            // way, and the whole-graph engine charges one compute unit
            // per delivered message.
            let v = v as usize;
            metrics.sent_per_node[v] += c;
            metrics.received_per_node[v] += c;
            metrics.compute_per_node[v] += c;
        }
    }
    match metrics.round_traffic.first_mut() {
        Some(first) => *first += total,
        None => metrics.round_traffic.push(total),
    }
    metrics.max_round_traffic = metrics.max_round_traffic.max(metrics.round_traffic[0]);
    // In round 1 every node's outbox is its full degree, and each edge
    // carries at least the 1-word color announcement.
    metrics.max_node_sends_per_round = metrics.max_node_sends_per_round.max(graph.max_degree());
    metrics.max_edge_words = metrics.max_edge_words.max(1);
}

/// Runs the per-partition DRA (Phase 1 of DHC1/DHC2) for the given
/// partition and validates that every partition built a full subcycle.
///
/// The paper runs all classes at once in one synchronous network. Here
/// each color class is an **isolated** simulation on its own induced
/// subgraph, all of them split off in one `O(n + m)` pass
/// ([`Graph::class_subgraphs`]), and the cross-class round-1 color
/// exchange is charged afterwards. The result equals the whole-graph
/// run's except for the messages a class sends in the round its last
/// node halts, which the whole-graph run delivers to halted nodes
/// (pinned exactly by `crates/core/tests/phase1_oracle.rs`). The classes
/// execute concurrently on up to [`DhcConfig::effective_parallelism`]
/// worker threads. Outcomes are folded in ascending color order and
/// every per-node stream is keyed by the global node id, so the result
/// is identical for every parallelism level.
///
/// When the classes run sequentially, one [`EngineScratch`] chains
/// through all of them, so the `√n` per-class networks share a single
/// set of mailbox/effect/commit buffers instead of allocating `√n`
/// sets.
pub(crate) fn run_phase1(
    graph: &Graph,
    partition: &Partition,
    cfg: &DhcConfig,
    km: Option<&mut KMachineProbe>,
    parent: &Span,
) -> Result<Phase1Outcome, DhcError> {
    let n = graph.node_count();
    let seed_base = derive_seed(cfg.seed, 0x0001);
    let jobs: Vec<usize> =
        (0..partition.class_count()).filter(|&c| !partition.class(c).is_empty()).collect();
    let mut phase_span = parent.child("phase", format!("phase1 classes={}", jobs.len()));
    let class_graphs = graph.class_subgraphs(partition);

    // Immutable view of the machine assignment for the job closures; the
    // probe itself is only touched again after the jobs complete.
    let spec = km.as_deref();
    let threads = cfg.effective_parallelism(jobs.len());
    let run_job = |&class: &usize,
                   scratch: Option<&mut EngineScratch<DraMsg>>|
     -> Result<PartitionRun<'_>, DhcError> {
        let members = partition.class(class);
        let color = class as u32;
        let machines = spec.map(|p| p.class_map(members));
        let mut span = phase_span.child("class", format!("class {color} n={}", members.len()));
        let class_graph = &class_graphs[class];
        let result =
            run_one_partition(class_graph, members, color, cfg, seed_base, machines, scratch);
        if let Ok(run) = &result {
            span.add(run.metrics.rounds as u64, run.metrics.messages, run.metrics.words);
        }
        result
    };
    let results: Vec<Result<PartitionRun<'_>, DhcError>> = if threads <= 1 {
        // Sequential classes share one buffer set.
        let mut scratch = EngineScratch::new();
        jobs.iter().map(|class| run_job(class, Some(&mut scratch))).collect()
    } else {
        // Concurrent classes cannot share one scratch; each allocates
        // its own.
        let mut slots: Vec<(usize, Option<Result<PartitionRun<'_>, DhcError>>)> =
            jobs.iter().map(|&c| (c, None)).collect();
        dhc_pool::run_mut(threads, &mut slots, &|_, (class, slot)| {
            *slot = Some(run_job(class, None));
        });
        slots.into_iter().map(|(_, slot)| slot.expect("run_mut ran every job")).collect()
    };

    // Fold in partition (color) order: simulation faults surface for the
    // lowest failing color, metrics compose as one parallel phase, and
    // per-node states scatter back to global ids. The classes' machine
    // logs merge round-by-round — they execute concurrently in simulated
    // time, so their round-r messages share the machine links.
    let mut metrics = Metrics::empty(n);
    let mut phase_log = spec.map(|p| MachineRoundLog::empty(p.machine_count()));
    let mut raw_of: Vec<Option<RawPhase1>> = vec![None; n];
    for result in results {
        let run = result?;
        metrics.absorb_parallel(&run.metrics, run.map);
        if let (Some(pl), Some(log)) = (phase_log.as_mut(), run.machine_log.as_ref()) {
            pl.absorb_parallel(log);
        }
        for (local, &global) in run.map.iter().enumerate() {
            raw_of[(global) as usize] = Some(run.raw[local]);
        }
    }
    account_cross_color_exchange(&mut metrics, graph, partition, &class_graphs);
    phase_span.add(metrics.rounds as u64, metrics.messages, metrics.words);
    // The synthesized round-1 cross-partition color announcements cross
    // machine links too. Each announcement is one **broadcast** op
    // (`send_all(Color)` in init), so the machine layer's semantics
    // charge the payload once per (sender, receiving machine), no matter
    // how many neighbors the machine hosts. The per-class simulations
    // already charged every machine hosting a same-color neighbor of the
    // sender; the correction charges exactly the machines reached *only*
    // through cross-color neighbors, in the init slot (round 0, where
    // the class runs record their announcement sends) — so the merged
    // round-0 loads equal a whole-graph machine-instrumented execution's
    // (pinned by `phase1_round0_matches_whole_graph_broadcast_oracle`).
    if let (Some(pl), Some(p)) = (phase_log.as_mut(), spec) {
        let colors = partition.colors();
        let k = p.machine_count();
        // Per-sender epoch marks: which machines host a same-color /
        // cross-color neighbor of the current node.
        let mut same_epoch = vec![0u32; k];
        let mut cross_epoch = vec![0u32; k];
        let mut touched: Vec<usize> = Vec::with_capacity(k);
        for u in 0..n {
            let epoch = u as u32 + 1;
            touched.clear();
            for &v in graph.neighbors((u) as u32) {
                let m = p.machine_of(v);
                if same_epoch[m] != epoch && cross_epoch[m] != epoch {
                    touched.push(m);
                }
                if colors[u] == colors[(v) as usize] {
                    same_epoch[m] = epoch;
                } else {
                    cross_epoch[m] = epoch;
                }
            }
            let mu = p.machine_of((u) as u32);
            for &m in &touched {
                if cross_epoch[m] == epoch && same_epoch[m] != epoch {
                    pl.charge(0, mu, m, 1);
                }
            }
        }
    }
    if let (Some(probe), Some(pl)) = (km, phase_log) {
        probe.absorb_phase_log(pl);
    }

    // Validate in global node order (stable error selection): everyone
    // done, nobody failed.
    let raw_of: Vec<RawPhase1> = raw_of
        .into_iter()
        .collect::<Option<_>>()
        .expect("every node belongs to exactly one color class");
    for node in &raw_of {
        if let Some(reason) = node.failed {
            return Err(DhcError::PartitionFailed { color: node.color, reason });
        }
    }
    // Validate: per-color, the subcycle spans the whole class (guards
    // against internally disconnected partitions that each built a
    // component-local cycle).
    let mut class_size = std::collections::HashMap::new();
    for node in &raw_of {
        *class_size.entry(node.color).or_insert(0usize) += 1;
    }
    let mut states = Vec::with_capacity(n);
    for node in &raw_of {
        let expected = class_size[&node.color];
        let (Some(idx), Some(succ), Some(pred), Some(size), true) =
            (node.cycindex, node.succ, node.pred, node.cycle_size, node.done)
        else {
            return Err(DhcError::PartitionFailed {
                color: node.color,
                reason: PartitionFailure::OutOfEdges,
            });
        };
        if size != expected {
            // A component-local cycle: the partition was disconnected.
            return Err(DhcError::PartitionFailed {
                color: node.color,
                reason: PartitionFailure::TooSmall,
            });
        }
        states.push(CycleState { color: node.color, idx, succ, pred, size });
    }
    Ok(Phase1Outcome { states, metrics })
}

/// One partition's completed subcycle, as produced by
/// [`run_partition_cycles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subcycle {
    /// The partition color.
    pub color: u32,
    /// Member nodes in cycle order (global ids).
    pub order: Vec<NodeId>,
}

/// Runs only **Phase 1** (the per-partition distributed rotation) and
/// returns the verified subcycles — the building block both DHC1 and DHC2
/// start from, exposed for callers who want to drive the composition
/// themselves (or inspect the intermediate state).
///
/// # Errors
///
/// Returns a [`DhcError`] if any partition fails or the simulation
/// faults. The partition is caller input: [`DhcError::InvalidConfig`] if
/// it does not cover exactly the graph's nodes.
///
/// # Example
///
/// ```
/// use dhc_core::{run_partition_cycles, DhcConfig};
/// use dhc_graph::{generator, rng::rng_from_seed, Partition};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generator::gnp(120, 0.6, &mut rng_from_seed(1))?;
/// let partition = Partition::random(120, 3, &mut rng_from_seed(2));
/// let (cycles, metrics) = run_partition_cycles(&g, &partition, &DhcConfig::new(3))?;
/// assert_eq!(cycles.len(), 3);
/// assert_eq!(cycles.iter().map(|c| c.order.len()).sum::<usize>(), 120);
/// assert!(metrics.rounds > 0);
/// # Ok(())
/// # }
/// ```
pub fn run_partition_cycles(
    graph: &Graph,
    partition: &Partition,
    cfg: &DhcConfig,
) -> Result<(Vec<Subcycle>, Metrics), DhcError> {
    let n = graph.node_count();
    cfg.validate_run(n)?;
    if partition.node_count() != n {
        return Err(DhcError::InvalidConfig { what: "partition must hold one color per node" });
    }
    let mut run_span = Span::root(cfg.collector.as_ref(), "run", format!("partition-cycles n={n}"));
    let outcome = run_phase1(graph, partition, cfg, None, &run_span)?;
    run_span.add(outcome.metrics.rounds as u64, outcome.metrics.messages, outcome.metrics.words);
    drop(run_span);
    if let Some(col) = &cfg.collector {
        col.flush();
    }
    // Group nodes per color and order them by cycindex.
    let mut by_color: std::collections::BTreeMap<u32, Vec<(usize, NodeId)>> =
        std::collections::BTreeMap::new();
    for (v, st) in outcome.states.iter().enumerate() {
        by_color.entry(st.color).or_default().push((st.idx, (v) as u32));
    }
    let mut cycles = Vec::with_capacity(by_color.len());
    for (color, mut members) in by_color {
        members.sort_unstable();
        cycles.push(Subcycle { color, order: members.into_iter().map(|(_, v)| v).collect() });
    }
    Ok((cycles, outcome.metrics))
}

/// Runs the plain **Distributed Rotation Algorithm** on the whole graph
/// (a single partition; the paper's `δ = 1` case, `O~(n)` rounds).
///
/// # Errors
///
/// Returns a [`DhcError`] if the configuration is invalid, the graph is too
/// small, the rotation starves, or the simulation faults.
///
/// # Example
///
/// ```
/// use dhc_core::{run_dra, DhcConfig};
/// use dhc_graph::{generator, rng::rng_from_seed, thresholds};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n = 128;
/// let p = thresholds::edge_probability(n, 1.0, 10.0);
/// let g = generator::gnp(n, p, &mut rng_from_seed(5))?;
/// let outcome = run_dra(&g, &DhcConfig::new(1))?;
/// assert_eq!(outcome.cycle.len(), n);
/// # Ok(())
/// # }
/// ```
pub fn run_dra(graph: &Graph, cfg: &DhcConfig) -> Result<RunOutcome, DhcError> {
    run_dra_with(graph, cfg, None)
}

/// [`run_dra`], optionally instrumented with the k-machine accounting
/// probe (see [`crate::kmachine`]).
pub(crate) fn run_dra_with(
    graph: &Graph,
    cfg: &DhcConfig,
    km: Option<&mut KMachineProbe>,
) -> Result<RunOutcome, DhcError> {
    let n = graph.node_count();
    cfg.validate_run(n)?;
    let partition = Partition::from_colors(vec![0u32; n], 1);
    let mut run_span = Span::root(cfg.collector.as_ref(), "run", format!("dra n={n}"));
    let outcome = run_phase1(graph, &partition, cfg, km, &run_span)?;
    let succ: Vec<Option<NodeId>> = outcome.states.iter().map(|s| Some(s.succ)).collect();
    let pred: Vec<Option<NodeId>> = outcome.states.iter().map(|s| Some(s.pred)).collect();
    let pairs = pairs_from_links(&succ, &pred)?;
    let cycle = cycle_from_incident_pairs(graph, &pairs)?;
    let phases = vec![PhaseBreakdown {
        name: "dra".to_string(),
        rounds: outcome.metrics.rounds,
        messages: outcome.metrics.messages,
    }];
    run_span.add(outcome.metrics.rounds as u64, outcome.metrics.messages, outcome.metrics.words);
    drop(run_span);
    if let Some(col) = &cfg.collector {
        col.flush();
    }
    Ok(RunOutcome { cycle, metrics: outcome.metrics, phases })
}

/// Draws the Phase-1 coloring for `graph` under `cfg` (each node picks a
/// uniform color; the distributed algorithm does this locally — the runner
/// precomputes it so the partition is reproducible and inspectable).
pub(crate) fn draw_colors(n: usize, cfg: &DhcConfig) -> (Partition, usize) {
    let k = cfg.partition_count(n);
    let mut rng = rng_from_seed(derive_seed(cfg.seed, 0x00C0));
    (Partition::random(n, k, &mut rng), k)
}

/// Relabels the non-empty classes of `partition` to `0..k` in color
/// order and drops the empty ones, so class indices are dense (DHC1's
/// hypernode ids, DHC2's merge pairing). `k` is the result's class
/// count.
pub(crate) fn compact_colors(partition: &Partition) -> Partition {
    let mut relabel = vec![0u32; partition.class_count()];
    let mut next = 0u32;
    for (c, class) in partition.classes().enumerate() {
        if !class.is_empty() {
            relabel[c] = next;
            next += 1;
        }
    }
    let colors = partition.colors().iter().map(|&c| relabel[c as usize]).collect();
    Partition::from_colors(colors, next as usize)
}

/// Runs **DHC2** (the paper's Algorithm 3): Phase-1 partition DRA plus
/// `O(log n)` bridge-merge levels.
///
/// # Errors
///
/// Returns a [`DhcError`] on invalid configuration, partition failure,
/// missing bridges, or simulation faults.
pub fn run_dhc2(graph: &Graph, cfg: &DhcConfig) -> Result<RunOutcome, DhcError> {
    crate::dhc2::run(graph, cfg, None)
}

/// [`run_dhc2`] with an explicit Phase-1 coloring instead of the random
/// draw — the entry point for clustered operating points (see
/// [`dhc_graph::generator::clustered`]) where the graph's community
/// structure *is* the partition. `cfg.partitions` is ignored.
///
/// # Errors
///
/// Returns a [`DhcError`] on invalid configuration, partition failure,
/// missing bridges, or simulation faults. The coloring itself is caller
/// input: [`DhcError::InvalidConfig`] if `colors.len() !=
/// graph.node_count()` or any color is `>= num_colors` (so also when
/// `num_colors == 0`).
pub fn run_dhc2_with_colors(
    graph: &Graph,
    cfg: &DhcConfig,
    colors: &[u32],
    num_colors: usize,
) -> Result<RunOutcome, DhcError> {
    let n = graph.node_count();
    cfg.validate_run(n)?;
    if colors.len() != n {
        return Err(DhcError::InvalidConfig { what: "colors must hold one color per node" });
    }
    // Also rejects `num_colors == 0`: no color is below it.
    let top = colors.iter().copied().max().unwrap_or(0) as usize;
    if top >= num_colors {
        return Err(DhcError::InvalidConfig { what: "every color must be < num_colors" });
    }
    // Empty classes are compacted away, so sizing the partition by the
    // largest color used gives the same run without allocating
    // `num_colors` class slots.
    let partition = Partition::from_colors(colors.to_vec(), top + 1);
    crate::dhc2::run_with_colors(graph, cfg, &partition, None)
}

/// Runs **DHC1** (the paper's Algorithm 2): Phase-1 partition DRA plus the
/// hypernode-DRA stitching phase.
///
/// # Errors
///
/// Returns a [`DhcError`] on invalid configuration, partition failure,
/// stitch starvation, or simulation faults.
pub fn run_dhc1(graph: &Graph, cfg: &DhcConfig) -> Result<RunOutcome, DhcError> {
    crate::dhc1::run(graph, cfg, None)
}

/// Runs the **Upcast** algorithm (the paper's §III): BFS-tree sampling
/// upcast, local solve at the root, routed downcast.
///
/// # Errors
///
/// Returns a [`DhcError`] on root-solve failure or simulation faults.
pub fn run_upcast(graph: &Graph, cfg: &DhcConfig) -> Result<RunOutcome, DhcError> {
    crate::upcast::run(graph, cfg, false, None)
}

/// Runs the trivial `O(m)` baseline: like Upcast but every node upcasts
/// **all** of its incident edges, so the root sees the whole topology
/// (the "collect everything at one node" strawman from §I-A).
///
/// # Errors
///
/// Returns a [`DhcError`] on root-solve failure or simulation faults.
pub fn run_collect_all(graph: &Graph, cfg: &DhcConfig) -> Result<RunOutcome, DhcError> {
    crate::upcast::run(graph, cfg, true, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhc_graph::{generator, thresholds};

    #[test]
    fn dra_on_complete_graph() {
        let g = generator::complete(24);
        let out = run_dra(&g, &DhcConfig::new(3)).unwrap();
        assert_eq!(out.cycle.len(), 24);
        assert!(out.metrics.rounds > 0);
        assert_eq!(out.phases.len(), 1);
    }

    #[test]
    fn dra_on_random_graph_above_threshold() {
        let n = 200;
        let p = thresholds::edge_probability(n, 1.0, 12.0);
        let g = generator::gnp(n, p, &mut dhc_graph::rng::rng_from_seed(8)).unwrap();
        let out = run_dra(&g, &DhcConfig::new(4)).unwrap();
        assert_eq!(out.cycle.len(), n);
    }

    #[test]
    fn dra_rejects_tiny_graph() {
        let g = generator::complete(2);
        assert!(matches!(run_dra(&g, &DhcConfig::new(0)), Err(DhcError::GraphTooSmall { n: 2 })));
    }

    #[test]
    fn dra_fails_cleanly_on_disconnected_graph() {
        let g = dhc_graph::Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        let err = run_dra(&g, &DhcConfig::new(0)).unwrap_err();
        assert!(matches!(err, DhcError::PartitionFailed { .. }), "{err:?}");
    }

    #[test]
    fn dra_fails_cleanly_on_star() {
        let g = generator::star(8);
        let err = run_dra(&g, &DhcConfig::new(0)).unwrap_err();
        assert!(matches!(err, DhcError::PartitionFailed { .. }), "{err:?}");
    }

    #[test]
    fn dra_is_deterministic() {
        let g = generator::complete(16);
        let a = run_dra(&g, &DhcConfig::new(11)).unwrap();
        let b = run_dra(&g, &DhcConfig::new(11)).unwrap();
        assert_eq!(a.cycle.order(), b.cycle.order());
        assert_eq!(a.metrics.rounds, b.metrics.rounds);
    }

    #[test]
    fn dra_different_seeds_differ() {
        let g = generator::complete(16);
        let a = run_dra(&g, &DhcConfig::new(1)).unwrap();
        let b = run_dra(&g, &DhcConfig::new(2)).unwrap();
        // Cycles almost surely differ on K_16.
        assert_ne!(a.cycle.order(), b.cycle.order());
    }

    #[test]
    fn cross_color_exchange_accounting() {
        // Square 0-1-2-3 colored by parity: all 4 edges are cross-color,
        // so round 1 pays 8 directed 1-word announcements.
        let g = dhc_graph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let partition = Partition::from_colors(vec![0, 1, 0, 1], 2);
        let mut m = Metrics::empty(4);
        let classes = g.class_subgraphs(&partition);
        account_cross_color_exchange(&mut m, &g, &partition, &classes);
        assert_eq!(m.messages, 8);
        assert_eq!(m.words, 8);
        assert_eq!(m.sent_per_node, vec![2, 2, 2, 2]);
        assert_eq!(m.received_per_node, vec![2, 2, 2, 2]);
        assert_eq!(m.round_traffic, vec![8]);
        assert_eq!(m.max_round_traffic, 8);
        assert_eq!(m.max_node_sends_per_round, 2);

        // The announcements join the classes' own round-1 deliveries.
        let mut m = Metrics::empty(4);
        m.round_traffic = vec![5, 9];
        m.max_round_traffic = 9;
        account_cross_color_exchange(&mut m, &g, &partition, &classes);
        assert_eq!(m.round_traffic, vec![13, 9]);
        assert_eq!(m.max_round_traffic, 13);

        // Uniform coloring: nothing crosses, metrics untouched.
        let uniform = Partition::from_colors(vec![0; 4], 1);
        let mut m = Metrics::empty(4);
        account_cross_color_exchange(&mut m, &g, &uniform, &g.class_subgraphs(&uniform));
        assert_eq!(m, Metrics::empty(4));
    }

    #[test]
    fn compact_colors_drops_empty_classes_in_order() {
        let p = compact_colors(&Partition::from_colors(vec![3, 1, 3, 4, 1], 6));
        assert_eq!(p.colors(), &[1, 0, 1, 2, 0]);
        assert_eq!(p.class_count(), 3);
    }

    #[test]
    fn phase1_round0_matches_whole_graph_broadcast_oracle() {
        // Two triangles joined by cross edges, with explicit colors and
        // machine assignment. The init color announcement is one 1-word
        // broadcast per node, so a whole-graph machine-instrumented run
        // charges it once per (sender, receiving machine) — the merged
        // Phase-1 round-0 link loads (class-run broadcasts + synthesized
        // cross-color correction) must equal exactly that oracle.
        let g = Graph::from_edges(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (0, 4), (2, 4)],
        )
        .unwrap();
        let partition = Partition::from_colors(vec![0, 0, 0, 1, 1, 1], 2);
        let assignment = vec![0usize, 0, 1, 0, 1, 1];
        let k = 2;
        // DRA succeeds whp, not surely: take the first succeeding seed.
        let probe = (5..13)
            .find_map(|seed| {
                let mut probe = KMachineProbe::with_assignment(assignment.clone(), k, 4);
                run_phase1(
                    &g,
                    &partition,
                    &DhcConfig::new(seed),
                    Some(&mut probe),
                    &Span::disabled(),
                )
                .ok()
                .map(|_| probe)
            })
            .expect("Phase 1 on two triangles should succeed for at least one of 8 seeds");
        let round0 = &probe.logs()[0].rounds()[0];
        assert_eq!(round0.round, 0);
        let mut expected = vec![0u64; k * k];
        for u in 0..6 {
            let mut machines: Vec<usize> =
                g.neighbors(u).iter().map(|&v| assignment[v as usize]).collect();
            machines.sort_unstable();
            machines.dedup();
            for m in machines {
                if m != assignment[u as usize] {
                    expected[assignment[u as usize] * k + m] += 1;
                }
            }
        }
        let mut got = vec![0u64; k * k];
        for &(link, words) in &round0.links {
            got[link as usize] = words;
        }
        assert_eq!(got, expected, "round-0 link loads diverged from the broadcast oracle");
    }

    #[test]
    fn dra_memory_stays_local() {
        // Fully-distributed property: peak memory O(degree), not O(n).
        // DRA succeeds whp, not surely; take the first succeeding seed
        // in a small window.
        let n = 128;
        let p = 0.2;
        let g = generator::gnp(n, p, &mut dhc_graph::rng::rng_from_seed(1)).unwrap();
        let out = (5..13)
            .filter_map(|seed| run_dra(&g, &DhcConfig::new(seed)).ok())
            .next()
            .expect("DRA should succeed for at least one of 8 seeds");
        let max_mem = out.metrics.max_memory();
        assert!(max_mem <= 2 * g.max_degree() + 64, "max mem {max_mem}");
    }
}
