//! Property tests for the broadcast fabric: a protocol using the
//! `send_all` / `send_all_except` broadcast effects and its explicit
//! per-neighbor-unicast twin must be **observationally identical** — same
//! per-node inbox streams (contents *and* order), same `Metrics`, same
//! `Trace`, and under a tight budget the same `BandwidthExceeded` error.
//!
//! This is the contract that makes the shared-payload flood routing an
//! implementation detail: one arena record per flooding op, but per-edge
//! accounting, sender-sorted delivery, and call-order interleaving
//! exactly as if `deg(v)` copies had been sent.

use dhc_congest::{
    Config, Context, Inbox, Network, NodeId, Payload, Protocol, SimError, TraceEvent,
};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug, PartialEq, Eq)]
struct Num(u64);
impl Payload for Num {}

/// One scripted send op, executed during one activation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `send_all` (or its unicast expansion).
    All,
    /// `send_all_except(neighbors[i % deg])` (or its expansion).
    Except(usize),
    /// One unicast `send(neighbors[i % deg])`.
    Uni(usize),
}

/// Runs a per-node op script; `expand` selects the unicast twin.
#[derive(Debug)]
struct Scripted {
    script: VecDeque<Vec<Op>>,
    expand: bool,
    /// Monotone payload tag so receivers can check order.
    counter: u64,
    /// `(round, inbox contents)` per activation.
    log: Vec<(usize, Vec<(NodeId, u64)>)>,
}

impl Scripted {
    fn exec(&mut self, ctx: &mut Context<'_, Num>, op: Op) {
        let deg = ctx.degree();
        if deg == 0 {
            return;
        }
        let tag = self.counter;
        self.counter += 1;
        match op {
            Op::All => {
                if self.expand {
                    for i in 0..deg {
                        let to = ctx.neighbors()[i];
                        ctx.send(to, Num(tag));
                    }
                } else {
                    ctx.send_all(Num(tag));
                }
            }
            Op::Except(i) => {
                let skip = ctx.neighbors()[i % deg];
                if self.expand {
                    for j in 0..deg {
                        let to = ctx.neighbors()[j];
                        if to != skip {
                            ctx.send(to, Num(tag));
                        }
                    }
                } else {
                    ctx.send_all_except(skip, Num(tag));
                }
            }
            Op::Uni(i) => {
                let to = ctx.neighbors()[i % deg];
                ctx.send(to, Num(tag));
            }
        }
    }
}

impl Protocol for Scripted {
    type Msg = Num;

    fn init(&mut self, ctx: &mut Context<'_, Num>) {
        // Every node activates in every round until its script runs dry,
        // so scripts execute on a fixed schedule in both variants.
        if self.script.is_empty() {
            ctx.halt();
        } else {
            ctx.wake_in(1);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, Num>, inbox: Inbox<'_, Num>) {
        let got: Vec<(NodeId, u64)> = inbox.iter().map(|(from, &Num(x))| (from, x)).collect();
        assert_eq!(got.len(), inbox.len(), "Inbox::len must match its iteration");
        self.log.push((ctx.round_number(), got));
        match self.script.pop_front() {
            Some(ops) => {
                for op in ops {
                    self.exec(ctx, op);
                }
                ctx.wake_in(1);
            }
            None => ctx.halt(),
        }
    }
}

type NodeLog = Vec<(usize, Vec<(NodeId, u64)>)>;

/// What one run shows: its result, `Metrics`, `Trace` and inbox logs.
type Observed = (Result<(), SimError>, dhc_congest::Metrics, Vec<TraceEvent>, Vec<NodeLog>);

fn run_scripts(
    scripts: &[Vec<Vec<Op>>],
    edge_prob: f64,
    graph_seed: u64,
    expand: bool,
    budget: usize,
) -> Observed {
    let n = scripts.len();
    let g = dhc_graph::generator::gnp(n, edge_prob, &mut dhc_graph::rng::rng_from_seed(graph_seed))
        .expect("valid gnp");
    let nodes: Vec<Scripted> = scripts
        .iter()
        .map(|s| Scripted { script: s.clone().into(), expand, counter: 0, log: Vec::new() })
        .collect();
    let cfg = Config::default().with_bandwidth_words(budget).with_trace_capacity(1_000_000);
    let mut net = Network::new(&g, cfg, nodes).unwrap();
    let result = net.run();
    let trace = net.trace().events();
    let (report, nodes) = net.finish();
    (result, report.metrics, trace, nodes.into_iter().map(|nd| nd.log).collect())
}

/// Runs the broadcast script and its unicast twin, asserts both observe
/// the same, and returns the result.
fn assert_twins_agree(
    scripts: &[Vec<Vec<Op>>],
    edge_prob: f64,
    graph_seed: u64,
    budget: usize,
) -> Result<(), SimError> {
    let broadcast = run_scripts(scripts, edge_prob, graph_seed, false, budget);
    let twin = run_scripts(scripts, edge_prob, graph_seed, true, budget);
    assert_eq!(broadcast.0, twin.0, "result diverged");
    assert_eq!(broadcast.1, twin.1, "Metrics diverged");
    assert_eq!(broadcast.2, twin.2, "Trace diverged");
    assert_eq!(broadcast.3, twin.3, "inbox logs diverged");
    broadcast.0
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..3, 0usize..8).prop_map(|(kind, i)| match kind {
        0 => Op::All,
        1 => Op::Except(i),
        _ => Op::Uni(i),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Broadcast-based and unicast-expanded executions of the same random
    /// script are bit-identical in outcomes, `Metrics`, and `Trace`.
    #[test]
    fn broadcast_and_unicast_twin_are_bit_identical(
        scripts in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(op_strategy(), 0..4), 0..4),
            4..10,
        ),
        edge_pct in 20u64..90,
        graph_seed in 0u64..1_000,
    ) {
        // Up to 3 ops per activation, each at most 1 word per edge: a
        // budget of 4 never binds.
        let result = assert_twins_agree(&scripts, edge_pct as f64 / 100.0, graph_seed, 4);
        prop_assert_eq!(result, Ok(()));
    }

    /// Under budgets of 1–3 words with up to 5 ops per activation, most
    /// runs break the budget: the broadcast run and its unicast twin
    /// must fail at the same sender, destination and attempted load,
    /// with the same partial `Metrics`, `Trace` and inbox logs.
    #[test]
    fn bandwidth_violations_match_the_unicast_twin(
        scripts in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(op_strategy(), 0..6), 0..4),
            4..10,
        ),
        edge_pct in 20u64..90,
        graph_seed in 0u64..1_000,
        budget in 1usize..4,
    ) {
        assert_twins_agree(&scripts, edge_pct as f64 / 100.0, graph_seed, budget).ok();
    }
}

/// A fixed script whose mixed ops overload an edge on almost every
/// graph, so the twin comparison above provably covers violations,
/// under a 2-word budget. Round 1 loads every edge with exactly 2 words
/// (a skip broadcast, a unicast to the skipped neighbor, a flood); in
/// round 2 every node of degree at least 2 puts 3 words on the edge to
/// its second neighbor, after 1 or 2 on the edge to its first.
#[test]
fn fixed_mixed_script_violates_and_matches_the_unicast_twin() {
    let script =
        vec![vec![Op::Except(0), Op::Uni(0), Op::All], vec![Op::All, Op::Uni(1), Op::Except(2)]];
    let scripts = vec![script; 8];
    let violations = (0..40u64)
        .filter(|&seed| {
            let result = assert_twins_agree(&scripts, 0.5, seed, 2);
            matches!(result, Err(SimError::BandwidthExceeded { round: 2, attempted_words: 3, .. }))
        })
        .count();
    assert!(violations >= 30, "only {violations} of 40 graphs broke the budget");
}
