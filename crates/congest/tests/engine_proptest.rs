//! Property tests for the round engine's scheduling semantics: arbitrary
//! interleavings of `wake_in`, `halt`, unicast sends, and `send_all`
//! broadcasts must never lose a round, never run a halted node, and must
//! produce bit-identical results on a re-run.

use dhc_congest::{Config, Context, Inbox, Network, NodeId, Payload, Protocol, TraceEvent};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct Ping;
impl Payload for Ping {}

/// One scripted action: `(wake delta, send to left ring neighbor, send to
/// right ring neighbor, broadcast to both)`. A node consumes one action
/// per activation and halts once its script is exhausted.
type Step = (usize, bool, bool, bool);

#[derive(Debug)]
struct Scripted {
    id: NodeId,
    script: VecDeque<Step>,
    /// `(round, inbox len)` per activation.
    activations: Vec<(usize, usize)>,
    /// Every wake target this node requested.
    expected_wakes: Vec<usize>,
    halt_round: Option<usize>,
}

impl Scripted {
    fn new(id: NodeId, script: Vec<Step>) -> Self {
        Scripted {
            id,
            script: script.into(),
            activations: Vec::new(),
            expected_wakes: Vec::new(),
            halt_round: None,
        }
    }
}

impl Protocol for Scripted {
    type Msg = Ping;

    fn init(&mut self, ctx: &mut Context<'_, Ping>) {
        if self.script.is_empty() {
            self.halt_round = Some(0);
            ctx.halt();
        } else {
            let delta = 1 + self.id % 3;
            self.expected_wakes.push((delta) as usize);
            ctx.wake_in((delta) as usize);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Inbox<'_, Ping>) {
        assert!(self.halt_round.is_none(), "engine invoked a halted node");
        let r = ctx.round_number();
        self.activations.push((r, inbox.len()));
        match self.script.pop_front() {
            Some((delta, left, right, bcast)) => {
                let n = ctx.n();
                if left {
                    ctx.send((self.id + (n) as u32 - 1) % (n) as u32, Ping);
                }
                if right {
                    ctx.send((self.id + 1) % (n) as u32, Ping);
                }
                if bcast {
                    ctx.send_all(Ping);
                }
                self.expected_wakes.push(r + delta);
                ctx.wake_in(delta);
            }
            None => {
                self.halt_round = Some(r);
                ctx.halt();
            }
        }
    }
}

/// Per-node observable outcome, for re-run comparison.
type NodeLog = (Vec<(usize, usize)>, Vec<usize>, Option<usize>);

fn run_scripts(scripts: &[Vec<Step>]) -> (dhc_congest::Metrics, Vec<TraceEvent>, Vec<NodeLog>) {
    let n = scripts.len();
    let g = dhc_graph::generator::cycle_graph(n);
    let nodes: Vec<Scripted> =
        scripts.iter().enumerate().map(|(v, s)| Scripted::new((v) as u32, s.clone())).collect();
    // A broadcast plus a unicast put two words on one edge.
    let cfg = Config::default().with_bandwidth_words(2).with_trace_capacity(1_000_000);
    let mut net = Network::new(&g, cfg, nodes).unwrap();
    net.run().unwrap();
    assert!(net.is_finished());
    let trace = net.trace().events();
    let (report, nodes) = net.finish();
    let logs =
        nodes.into_iter().map(|nd| (nd.activations, nd.expected_wakes, nd.halt_round)).collect();
    (report.metrics, trace, logs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wake_halt_and_sends_are_deterministic_and_lossless(
        scripts in prop::collection::vec(
            prop::collection::vec(
                (1usize..5, any::<bool>(), any::<bool>(), any::<bool>()),
                0..6,
            ),
            3..9,
        ),
    ) {
        let (metrics, trace, logs) = run_scripts(&scripts);
        let (m2, t2, l2) = run_scripts(&scripts);
        prop_assert_eq!(&metrics, &m2, "metrics diverged on a re-run");
        prop_assert_eq!(&trace, &t2, "trace diverged on a re-run");
        prop_assert_eq!(&logs, &l2, "node logs diverged on a re-run");

        for (v, (activations, expected_wakes, halt_round)) in logs.iter().enumerate() {
            let halt = halt_round.expect("every scripted node halts");
            // A halted node is never run again.
            prop_assert!(
                activations.windows(2).all(|w| w[0].0 < w[1].0),
                "node {v}: activations not strictly increasing: {activations:?}"
            );
            prop_assert!(
                activations.iter().all(|&(r, _)| r <= halt),
                "node {v} ran after halting in round {halt}: {activations:?}"
            );
            // No wake-up is lost: every requested target the node lived to
            // see is an actual activation round (quiescent fast-forwarding
            // may skip rounds, but never a scheduled one).
            for &t in expected_wakes {
                if t <= halt {
                    prop_assert!(
                        activations.iter().any(|&(r, _)| r == t),
                        "node {v} lost its wake-up for round {t}: {activations:?}"
                    );
                }
            }
        }
        // Simulated time covers every activation.
        let last = logs.iter().flat_map(|(a, _, _)| a.iter().map(|&(r, _)| r)).max().unwrap_or(0);
        prop_assert!(metrics.rounds >= last);
    }
}
