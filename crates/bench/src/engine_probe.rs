//! Round-engine throughput probes used by experiment E13 to track
//! rounds/sec:
//!
//! * **flood-echo** — a microprotocol whose cost is almost pure engine
//!   overhead (mailbox routing, active-set bookkeeping, per-edge
//!   bandwidth checks): node 0 floods a wave over the whole graph; each
//!   node adopts the first sender as its parent, forwards the wave, and
//!   answers every wave it was sent with exactly one reply — immediately
//!   if it declined, or after its whole subtree completed if it adopted.
//!   Total traffic is `Θ(m)` messages over `Θ(diameter)` rounds, the
//!   same shape as the DRA/DHC inner loops.
//! * **broadcast storm** — every node floods all neighbors every round:
//!   the pure `send_all` hot path of the paper's color waves and
//!   rotation/abort/done floods.
//!
//! Both probes flood through the engine's **broadcast fabric**
//! (`send_all` / `send_all_except`, one shared payload per flooding
//! op).

use dhc_congest::{CollectorHandle, Config, Context, Inbox, Network, NodeId, Payload, Protocol};
use dhc_graph::Graph;

/// Flood-echo messages.
#[derive(Clone, Debug)]
pub enum ProbeMsg {
    /// The flood wave.
    Wave,
    /// The per-wave response: an immediate decline or a completed echo.
    Reply,
}

impl Payload for ProbeMsg {}

/// Per-node flood-echo state.
#[derive(Debug, Default)]
pub struct FloodEcho {
    seen: bool,
    parent: Option<NodeId>,
    /// Replies still outstanding for the waves this node sent.
    pending: usize,
    done: bool,
}

impl FloodEcho {
    fn completion_check(&mut self, ctx: &mut Context<'_, ProbeMsg>) {
        if !self.seen || self.done || self.pending != 0 {
            return;
        }
        self.done = true;
        if let Some(p) = self.parent {
            ctx.send(p, ProbeMsg::Reply);
        }
        ctx.halt();
    }
}

impl Protocol for FloodEcho {
    type Msg = ProbeMsg;

    fn init(&mut self, ctx: &mut Context<'_, ProbeMsg>) {
        if ctx.node() == 0 {
            self.seen = true;
            self.pending = ctx.degree();
            ctx.send_all(ProbeMsg::Wave);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, ProbeMsg>, inbox: Inbox<'_, ProbeMsg>) {
        for (from, msg) in inbox.iter() {
            match msg {
                ProbeMsg::Wave => {
                    if self.seen {
                        // Already adopted (possibly earlier this very
                        // round): decline so the sender's echo completes.
                        ctx.send(from, ProbeMsg::Reply);
                    } else {
                        self.seen = true;
                        self.parent = Some(from);
                        self.pending = ctx.degree() - 1;
                        ctx.send_all_except(from, ProbeMsg::Wave);
                    }
                }
                ProbeMsg::Reply => {
                    self.pending = self.pending.saturating_sub(1);
                }
            }
        }
        self.completion_check(ctx);
    }
}

/// One complete flood-echo run on `graph`; returns `(rounds, messages)`.
///
/// # Panics
///
/// Panics if the simulation faults — only possible on a disconnected
/// graph (the flood then stalls).
pub fn flood_echo(graph: &Graph) -> (usize, u64) {
    flood_echo_observed(graph, None)
}

/// [`flood_echo`] with an optional telemetry collector attached — the
/// probe E13 uses to measure collector overhead (attached vs detached
/// wall-clock on the same engine-bound workload; the simulated results
/// are bit-identical either way, pinned by
/// `crates/core/tests/obs_equivalence.rs`).
///
/// # Panics
///
/// Like [`flood_echo`].
pub fn flood_echo_observed(graph: &Graph, collector: Option<CollectorHandle>) -> (usize, u64) {
    let nodes: Vec<FloodEcho> = (0..graph.node_count()).map(|_| FloodEcho::default()).collect();
    // A node may forward the wave to a neighbor and decline that same
    // neighbor's wave in one round: two 1-word messages per edge.
    let mut cfg = Config::default().with_bandwidth_words(2);
    if let Some(col) = collector {
        cfg = cfg.with_collector(col);
    }
    let mut net = Network::new(graph, cfg, nodes).expect("probe network");
    net.run().expect("flood-echo completes on a connected graph");
    (net.metrics().rounds, net.metrics().messages)
}

/// The probe's standard topology: a connected sparse `G(n, p)` with
/// `p = 3 ln n / n` (seeded).
pub fn probe_graph(n: usize, seed: u64) -> Graph {
    let p = 3.0 * (n as f64).ln() / n as f64;
    dhc_graph::generator::gnp(n, p, &mut dhc_graph::rng::rng_from_seed(seed)).expect("valid gnp")
}

/// Storm depth (rounds of all-node broadcasting) of experiment E13.
pub const STORM_DEPTH: usize = 50;

/// Per-node state of the broadcast-storm probe.
#[derive(Debug)]
pub struct Storm {
    remaining: usize,
}

/// Storm payload: six words, the size of the paper's rotation-broadcast
/// messages (`DraMsg::Rotation` / `HypMsg::HypRotation`) — the dominant
/// flood payload of the DHC runs.
#[derive(Clone, Debug)]
pub struct StormMsg(pub [u64; 6]);

impl Payload for StormMsg {
    fn words(&self) -> usize {
        self.0.len()
    }
}

impl Protocol for Storm {
    type Msg = StormMsg;

    fn init(&mut self, ctx: &mut Context<'_, StormMsg>) {
        ctx.send_all(StormMsg([0; 6]));
    }

    fn round(&mut self, ctx: &mut Context<'_, StormMsg>, _inbox: Inbox<'_, StormMsg>) {
        if self.remaining == 0 {
            ctx.halt();
        } else {
            self.remaining -= 1;
            ctx.send_all(StormMsg([self.remaining as u64; 6]));
        }
    }
}

/// Broadcast-storm probe: **every** node floods a six-word
/// [`StormMsg`] (the paper's rotation-broadcast size) to all neighbors
/// in every round for `depth` rounds, then halts — `Θ(n)` broadcasts
/// and `Θ(m)` deliveries per round, the pure `send_all` hot path the
/// DRA color waves and rotation/abort/done floods exercise. Returns
/// `(rounds, messages)`.
///
/// # Panics
///
/// Panics if the simulation faults — only possible when the graph has an
/// isolated node (which never activates and stalls the run).
pub fn flood_storm(graph: &Graph, depth: usize) -> (usize, u64) {
    let nodes: Vec<Storm> = (0..graph.node_count()).map(|_| Storm { remaining: depth }).collect();
    let cfg = Config::default().with_bandwidth_words(StormMsg([0; 6]).words());
    let mut net = Network::new(graph, cfg, nodes).expect("probe network");
    net.run().expect("storm completes without isolated nodes");
    (net.metrics().rounds, net.metrics().messages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_storm_sends_two_m_per_round_and_matches_thread_counts() {
        let g = probe_graph(200, 9);
        let depth = 10;
        let (rounds, messages) = flood_storm(&g, depth);
        assert_eq!(rounds, depth + 1);
        assert_eq!(messages, 2 * g.edge_count() as u64 * (depth as u64 + 1));
    }

    #[test]
    fn flood_echo_completes_and_is_thread_count_independent() {
        // The engine runs every callback on the calling thread, so a
        // re-run is the whole check.
        let g = probe_graph(300, 8);
        let serial = flood_echo(&g);
        assert!(serial.0 > 0 && serial.1 > 0);
        assert_eq!(serial, flood_echo(&g));
    }

    #[test]
    fn flood_echo_traffic_is_theta_m() {
        let g = probe_graph(200, 9);
        let (_, messages) = flood_echo(&g);
        let m = g.edge_count() as u64;
        // Every edge carries between one wave and two waves + two replies.
        assert!(messages >= m && messages <= 4 * m, "messages {messages}, m {m}");
    }
}
