//! Pins Phase 1 to the paper's own Phase 1: every color class's DRA
//! instance running at once in **one** synchronous whole-graph network.
//!
//! The runner simulates each class as an isolated network on its own
//! class subgraph and charges the round-1 cross-color exchange
//! afterwards. Its subcycles and typed failures must equal the
//! whole-graph run's, and so must every [`Metrics`] field but one known
//! gap. A class network stops as soon as all its nodes halt, so the
//! messages a class sends in the round its last node halts are never
//! delivered; the whole-graph run delivers them, to halted nodes,
//! whenever another class is still running. Received and compute counts
//! and the round log differ by exactly those deliveries, which the
//! whole run's trace names.
//!
//! Machine logs are outside this oracle: in the whole-graph run the
//! mixed-color floods are unicast loops, which the machine layer charges
//! per destination.

use dhc_congest::{Config, Metrics, Network, NodeId, SimError, Trace, TraceEvent};
use dhc_core::dra::DraNode;
use dhc_core::{
    run_dhc1, run_dhc2, run_dra, run_partition_cycles, DhcConfig, DhcError, PartitionFailure,
    RunOutcome, Subcycle,
};
use dhc_graph::rng::{derive_seed, rng_from_seed};
use dhc_graph::{generator, Graph, Partition};

const PARALLELISM: [usize; 2] = [1, 2];

/// The whole-graph Phase 1 of `cfg` under `colors`, checked the way the
/// runner checks its classes.
struct Whole {
    outcome: Result<Vec<Subcycle>, DhcError>,
    /// Valid when the simulation itself ran to completion.
    metrics: Metrics,
    /// Per node: the deliveries the class runs never make.
    gap: Vec<u64>,
    /// Per node: the round its class's last node halted.
    last_halt: Vec<usize>,
}

fn whole_graph_phase1(graph: &Graph, colors: &[u32], cfg: &DhcConfig) -> Whole {
    let n = graph.node_count();
    let seed_base = derive_seed(cfg.seed, 0x0001);
    let nodes: Vec<DraNode> = (0..n)
        .map(|v| DraNode::with_rng_stream(v as NodeId, colors[v], derive_seed(seed_base, v as u64)))
        .collect();
    let sim = Config::default()
        .with_max_rounds(cfg.max_rounds)
        .with_bandwidth_words(cfg.bandwidth_words)
        .with_trace_capacity(usize::MAX);
    let mut net = Network::new(graph, sim, nodes).unwrap();
    let run = net.run();
    let trace = net.trace().clone();
    let (report, nodes) = net.finish();
    assert_eq!(trace.dropped(), 0, "the oracle needs the whole trace");
    let metrics = report.metrics;
    let (gap, last_halt) = halt_round_gap(&trace, colors, metrics.rounds);
    let outcome = run.map_err(DhcError::Simulation).and_then(|()| check_states(&nodes, colors));
    Whole { outcome, metrics, gap, last_halt }
}

/// Derives the gap from the trace. With `R_c` the last `Halted` round of
/// class `c`, node `v` gets the `Sent` events addressed to it in round
/// `R_{c(v)}` when `R_{c(v)} < rounds`, and nothing otherwise.
fn halt_round_gap(trace: &Trace, colors: &[u32], rounds: usize) -> (Vec<u64>, Vec<usize>) {
    let k = colors.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut class_halt = vec![0usize; k];
    for ev in trace.iter() {
        if let TraceEvent::Halted { round, node } = *ev {
            let c = colors[node as usize] as usize;
            class_halt[c] = class_halt[c].max(round);
        }
    }
    let last_halt: Vec<usize> = colors.iter().map(|&c| class_halt[c as usize]).collect();
    let mut gap = vec![0u64; colors.len()];
    for ev in trace.iter() {
        if let TraceEvent::Sent { round, to, .. } = *ev {
            if round == last_halt[to as usize] && round < rounds {
                gap[to as usize] += 1;
            }
        }
    }
    (gap, last_halt)
}

/// The runner's state check: the first failing node in global-id order
/// sets the error, and each class must end done and at full size.
fn check_states(nodes: &[DraNode], colors: &[u32]) -> Result<Vec<Subcycle>, DhcError> {
    if let Some(node) = nodes.iter().find(|node| node.failed.is_some()) {
        return Err(DhcError::PartitionFailed { color: node.color, reason: node.failed.unwrap() });
    }
    let k = colors.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut class_size = vec![0usize; k];
    for &c in colors {
        class_size[c as usize] += 1;
    }
    let mut by_color: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); k];
    for (v, node) in nodes.iter().enumerate() {
        let fail = |reason| DhcError::PartitionFailed { color: node.color, reason };
        let (Some(cycindex), Some(_), Some(_), Some(size), true) =
            (node.cycindex, node.succ, node.pred, node.cycle_size, node.done)
        else {
            return Err(fail(PartitionFailure::OutOfEdges));
        };
        if size != class_size[node.color as usize] {
            return Err(fail(PartitionFailure::TooSmall));
        }
        by_color[node.color as usize].push((cycindex, v as NodeId));
    }
    Ok(by_color
        .into_iter()
        .enumerate()
        .filter(|(_, members)| !members.is_empty())
        .map(|(color, mut members)| {
            members.sort_unstable();
            Subcycle { color: color as u32, order: members.into_iter().map(|(_, v)| v).collect() }
        })
        .collect())
}

/// Typed failures match: the same failing class and reason, or the same
/// simulation fault. `unhalted` is not compared: it counts one class on
/// one side and the whole graph on the other.
fn assert_same_failure(got: &DhcError, whole: &DhcError, what: &str) {
    match (got, whole) {
        (DhcError::Simulation(a), DhcError::Simulation(b)) => {
            assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b), "{what}: {a:?} {b:?}");
            if let (
                SimError::RoundLimitExceeded { max_rounds: a, .. },
                SimError::RoundLimitExceeded { max_rounds: b, .. },
            ) = (a, b)
            {
                assert_eq!(a, b, "{what}: round cap");
            }
        }
        _ => assert_eq!(got, whole, "{what}: failure diverged"),
    }
}

/// Every field but received, compute and the round log is equal; those
/// three differ by exactly the trace-derived gap.
fn assert_metrics_match(got: &Metrics, whole: &Whole, what: &str) {
    let w = &whole.metrics;
    assert_eq!(got.rounds, w.rounds, "{what}: rounds");
    assert_eq!(got.messages, w.messages, "{what}: messages");
    assert_eq!(got.words, w.words, "{what}: words");
    assert_eq!(got.sent_per_node, w.sent_per_node, "{what}: sent_per_node");
    assert_eq!(got.peak_memory_per_node, w.peak_memory_per_node, "{what}: peak memory");
    assert_eq!(got.max_round_traffic, w.max_round_traffic, "{what}: max_round_traffic");
    assert_eq!(got.max_edge_words, w.max_edge_words, "{what}: max_edge_words");
    assert_eq!(got.max_node_sends_per_round, w.max_node_sends_per_round, "{what}: max sends");
    for v in 0..w.sent_per_node.len() {
        let received = w.received_per_node[v] - got.received_per_node[v];
        let compute = w.compute_per_node[v] - got.compute_per_node[v];
        assert_eq!(received, whole.gap[v], "{what}: received gap at node {v}");
        assert_eq!(compute, whole.gap[v], "{what}: compute gap at node {v}");
    }
    // The gap of class c lands in round R_c + 1, log slot R_c.
    let mut expected = got.round_traffic.clone();
    assert_eq!(expected.len(), w.round_traffic.len(), "{what}: round log length");
    for (v, &g) in whole.gap.iter().enumerate() {
        if g > 0 {
            expected[whole.last_halt[v]] += g;
        }
    }
    assert_eq!(expected, w.round_traffic, "{what}: round log");
}

/// Every runner setting the oracle must hold at.
fn settings(base: &DhcConfig) -> impl Iterator<Item = (DhcConfig, String)> + '_ {
    PARALLELISM.into_iter().map(|parallelism| {
        (base.clone().with_parallelism(parallelism), format!("parallelism {parallelism}"))
    })
}

/// Pins `run_partition_cycles` on `partition` to the whole-graph run at
/// every setting, and returns the whole run.
fn pin_partition_cycles(graph: &Graph, partition: &Partition, base: &DhcConfig) -> Whole {
    let whole = whole_graph_phase1(graph, partition.colors(), base);
    for (cfg, setting) in settings(base) {
        let what = format!("seed {} ({setting})", base.seed);
        match (run_partition_cycles(graph, partition, &cfg), &whole.outcome) {
            (Ok((cycles, metrics)), Ok(expected)) => {
                assert_eq!(&cycles, expected, "{what}: subcycles diverged");
                assert_metrics_match(&metrics, &whole, &what);
            }
            (Err(got), Err(expected)) => assert_same_failure(&got, expected, &what),
            (got, expected) => panic!("{what}: runner {got:?}, whole graph {expected:?}"),
        }
    }
    whole
}

/// `G(20k, p)` split into `k` random classes of about `s = 20`, at
/// intra-class density `p = 5 ln s / (s − 1)`: dense enough that most
/// classes succeed, sparse enough that some run out of edges.
fn instance(k: usize, graph_seed: u64) -> (Graph, Partition) {
    let n = 20 * k;
    let s = 20.0f64;
    let p = 5.0 * s.ln() / (s - 1.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(graph_seed)).unwrap();
    (g, Partition::random(n, k, &mut rng_from_seed(graph_seed ^ 0xC0)))
}

#[test]
fn partition_cycles_match_whole_graph_run() {
    // (k, graph seed, config seed): every class builds its subcycle.
    for (k, graph_seed, seed) in [(3, 1, 2), (4, 1, 3), (5, 1, 1), (6, 1, 1), (7, 1, 2), (8, 1, 2)]
    {
        let (g, partition) = instance(k, graph_seed);
        let whole = pin_partition_cycles(&g, &partition, &DhcConfig::new(seed));
        let cycles = whole.outcome.as_ref().expect("a succeeding instance");
        assert_eq!(cycles.len(), k);
        assert!(whole.gap.iter().sum::<u64>() > 0, "k {k}: the gap is exercised");
    }
}

#[test]
fn partition_failures_match_whole_graph_run() {
    // (k, graph seed, config seed, failing color).
    for (k, graph_seed, seed, color) in [(4, 1, 1, 1), (8, 2, 1, 7)] {
        let (g, partition) = instance(k, graph_seed);
        let whole = pin_partition_cycles(&g, &partition, &DhcConfig::new(seed));
        let reason = PartitionFailure::OutOfEdges;
        assert_eq!(whole.outcome.err(), Some(DhcError::PartitionFailed { color, reason }));
    }
}

#[test]
fn round_cap_failures_match_whole_graph_run() {
    let (g, partition) = instance(3, 1);
    let whole = pin_partition_cycles(&g, &partition, &DhcConfig::new(2).with_max_rounds(40));
    let err = whole.outcome.err();
    assert!(
        matches!(err, Some(DhcError::Simulation(SimError::RoundLimitExceeded { .. }))),
        "{err:?}"
    );
}

#[test]
fn dra_on_a_disconnected_graph_fails_like_the_whole_graph_run() {
    // One class is the whole graph: the runner's network is the oracle's.
    let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
    let cfg = DhcConfig::new(0);
    let whole = whole_graph_phase1(&g, &[0; 6], &cfg);
    let err = run_dra(&g, &cfg).unwrap_err();
    assert_same_failure(&err, whole.outcome.as_ref().unwrap_err(), "dra");
    assert!(matches!(err, DhcError::PartitionFailed { .. }), "{err:?}");
}

/// The Phase-1 coloring DHC1 and DHC2 draw for `cfg` (the runner's
/// draw, which these instances leave without an empty class).
fn drawn_colors(n: usize, cfg: &DhcConfig) -> Vec<u32> {
    let k = cfg.partition_count(n);
    let p = Partition::random(n, k, &mut rng_from_seed(derive_seed(cfg.seed, 0x00C0)));
    assert!(p.classes().all(|c| !c.is_empty()), "compaction would relabel this draw");
    p.colors().to_vec()
}

/// Pins `run`'s Phase 1 (`phases[0]` rounds and messages, or its typed
/// failure) to the whole-graph run at every parallelism level.
fn pin_phase1_of(name: &str, run: fn(&Graph, &DhcConfig) -> Result<RunOutcome, DhcError>) {
    // (k, graph seed, config seed, failing color): the algorithm either
    // succeeds or fails in Phase 1.
    let cases = [
        (3, 1, 2, None),
        (4, 1, 3, None),
        (5, 1, 1, None),
        (6, 2, 3, None),
        (7, 1, 2, None),
        (8, 1, 2, None),
        (5, 2, 1, Some(1)),
        (6, 1, 2, Some(2)),
    ];
    for (k, graph_seed, seed, failing) in cases {
        let (g, _) = instance(k, graph_seed);
        let cfg = DhcConfig::new(seed).with_partitions(k);
        let whole = whole_graph_phase1(&g, &drawn_colors(g.node_count(), &cfg), &cfg);
        let reason = PartitionFailure::OutOfEdges;
        let expected = failing.map(|color| DhcError::PartitionFailed { color, reason });
        assert_eq!(whole.outcome.as_ref().err(), expected.as_ref(), "k {k}: whole-graph run");
        for (cfg, setting) in settings(&cfg) {
            let what = format!("{name}, k {k} ({setting})");
            match (run(&g, &cfg), &whole.outcome) {
                (Ok(out), Ok(_)) => {
                    let phase1 = &out.phases[0];
                    assert_eq!(phase1.rounds, whole.metrics.rounds, "{what}: rounds");
                    assert_eq!(phase1.messages, whole.metrics.messages, "{what}: messages");
                }
                (Err(got), Err(expected)) => assert_same_failure(&got, expected, &what),
                (got, expected) => panic!("{what}: {:?} vs whole graph {expected:?}", got.err()),
            }
        }
    }
}

#[test]
fn dhc1_phase1_matches_whole_graph_run() {
    pin_phase1_of("dhc1", run_dhc1);
}

#[test]
fn dhc2_phase1_matches_whole_graph_run() {
    pin_phase1_of("dhc2", run_dhc2);
}
