//! Pins [`EngineScratch`] recycling to fresh-construction semantics.
//!
//! A network seeded from a warm scratch must behave **bit-identically**
//! to one built by `Network::new`: same metrics, same final node
//! states, same typed errors — across differently-sized graphs, and
//! even when the donor run errored mid-round and left staged state
//! behind.

use dhc_congest::{
    Config, Context, EngineScratch, Inbox, Metrics, Network, Payload, Protocol, SimError,
};
use dhc_graph::Graph;

#[derive(Clone, Debug, PartialEq, Eq)]
struct Num(u64);
impl Payload for Num {}

/// A little traffic generator: node 0 floods a hop-counted token;
/// every receiver acks it with a unicast and re-floods it once; every
/// node self-wakes each round and halts after a fixed count — touching
/// unicast, broadcast, wake-ups, and the halt path, with every node
/// guaranteed to halt.
#[derive(Debug)]
struct Gossip {
    rounds_left: u64,
    seen: bool,
    acked: u64,
}

impl Protocol for Gossip {
    type Msg = Num;

    fn init(&mut self, ctx: &mut Context<'_, Num>) {
        if ctx.node() == 0 {
            self.seen = true;
            ctx.send_all(Num(64));
        }
        ctx.wake_in(1);
    }

    fn round(&mut self, ctx: &mut Context<'_, Num>, inbox: Inbox<'_, Num>) {
        for (from, &Num(k)) in inbox.iter() {
            if k == 0 {
                self.acked += 1;
            } else {
                ctx.send(from, Num(0));
                if k > 1 && !self.seen {
                    self.seen = true;
                    ctx.send_all_except(from, Num(k - 1));
                }
            }
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left == 0 {
            ctx.halt();
        } else {
            ctx.wake_in(1);
        }
    }

    fn memory_words(&self) -> usize {
        3
    }
}

/// A sender that blows the per-edge budget in round 1, so the run dies
/// with a typed bandwidth error and staged state in flight.
#[derive(Debug)]
struct Blaster;

impl Protocol for Blaster {
    type Msg = Num;

    fn init(&mut self, ctx: &mut Context<'_, Num>) {
        if ctx.node() == 0 {
            ctx.send_all(Num(5));
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, Num>, inbox: Inbox<'_, Num>) {
        for (from, _) in inbox.iter() {
            for _ in 0..64 {
                ctx.send(from, Num(1));
            }
        }
        ctx.halt();
    }
}

/// Paths, stars, and a clique in assorted sizes — the scratch has to
/// grow and shrink across takes.
fn graphs() -> Vec<Graph> {
    let path = |n: u32| Graph::from_edges(n as usize, (1..n).map(|v| (v - 1, v))).unwrap();
    let star = |n: u32| Graph::from_edges(n as usize, (1..n).map(|v| (0, v))).unwrap();
    let clique = |n: u32| {
        Graph::from_edges(n as usize, (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)))).unwrap()
    };
    vec![path(12), clique(9), star(40), path(5), star(17), clique(6)]
}

fn nodes(g: &Graph, extra_rounds: u64) -> Vec<Gossip> {
    let rounds = g.node_count() as u64 + extra_rounds;
    (0..g.node_count()).map(|_| Gossip { rounds_left: rounds, seen: false, acked: 0 }).collect()
}

fn run_fresh(g: &Graph, cfg: Config, hops: u64) -> (Metrics, Vec<u64>) {
    let mut net = Network::new(g, cfg, nodes(g, hops)).unwrap();
    net.run().unwrap();
    let (report, states) = net.finish();
    (report.metrics, states.into_iter().map(|s| s.acked).collect())
}

fn run_recycled(
    g: &Graph,
    cfg: Config,
    hops: u64,
    scratch: &mut EngineScratch<Num>,
) -> (Metrics, Vec<u64>) {
    let mut net = Network::new_with_scratch(g, cfg, nodes(g, hops), scratch).unwrap();
    net.run().unwrap();
    let (report, states) = net.finish_with_scratch(scratch);
    (report.metrics, states.into_iter().map(|s| s.acked).collect())
}

#[test]
fn recycled_networks_match_fresh_across_sizes() {
    let mut scratch = EngineScratch::new();
    assert!(!scratch.is_warm());
    for (i, g) in graphs().iter().enumerate() {
        let fresh = run_fresh(g, Config::default(), 3);
        let lean = run_recycled(g, Config::default(), 3, &mut scratch);
        assert_eq!(fresh, lean, "graph #{i} diverged");
        assert!(scratch.is_warm());
    }
}

#[test]
fn scratch_poisoned_by_errored_run_stays_bit_identical() {
    let g = Graph::from_edges(8, (1..8).map(|v| (0, v))).unwrap();
    let mut scratch = EngineScratch::new();

    // Donor run dies mid-flight with staged sends and scheduled state.
    let blasters = (0..8).map(|_| Blaster).collect();
    let mut net = Network::new_with_scratch(&g, Config::default(), blasters, &mut scratch).unwrap();
    let err = net.run().unwrap_err();
    assert!(matches!(err, SimError::BandwidthExceeded { .. }), "unexpected error: {err:?}");
    let _ = net.finish_with_scratch(&mut scratch);
    assert!(scratch.is_warm());

    // The taker must scrub every recycled buffer.
    for g in graphs() {
        let fresh = run_fresh(&g, Config::default(), 2);
        let lean = run_recycled(&g, Config::default(), 2, &mut scratch);
        assert_eq!(fresh, lean, "post-error recycle diverged");
    }
}

#[test]
fn streaming_aggregates_match_the_round_log() {
    // The peak folded in round by round must equal the log's maximum,
    // and finish must sample the engine footprint.
    let g = graphs().remove(1);
    let metrics = run_fresh(&g, Config::default(), 3).0;
    assert!(!metrics.round_traffic.is_empty());
    assert_eq!(
        metrics.max_round_traffic,
        metrics.round_traffic.iter().copied().max().unwrap(),
        "streaming peak must match the log's maximum"
    );
    assert!(metrics.peak_memory_words() > 0, "finish must sample the engine footprint");
}

#[test]
fn ids_are_local_per_network() {
    // Reuse across graphs must not leak activations: a quiescent 2-node
    // network after a busy 40-node one would surface as phantom inboxes
    // (inflated message metrics) or a missed Stalled error.
    let mut scratch = EngineScratch::new();
    let big = graphs().remove(2);
    let _ = run_recycled(&big, Config::default(), 5, &mut scratch);
    let tiny = Graph::from_edges(2, [(0, 1)]).unwrap();
    let fresh = run_fresh(&tiny, Config::default(), 1);
    let lean = run_recycled(&tiny, Config::default(), 1, &mut scratch);
    assert_eq!(fresh, lean);
}
