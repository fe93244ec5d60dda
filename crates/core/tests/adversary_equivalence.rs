//! Pins the **zero-adversary bit-identity oracle**: attaching a null
//! [`Adversary`] ([`Adversary::none`], or any adversary whose knobs are
//! all zero) must leave every algorithm's outcomes, [`Metrics`]
//! (`dhc_congest::Metrics`), and engine traces **bit-identical** to a
//! plain run with no adversary at all — for DRA/DHC1/DHC2/Upcast, with
//! DHC1's and DHC2's Phase 1 at `parallelism` {1, 2}, including
//! typed-failure cases. This is
//! what licenses the adversary layer to exist next to the repo's
//! determinism contract: zero-knob runs provably preserve the paper's
//! clean synchronous CONGEST model.

use dhc_congest::{Adversary, Config, Context, Inbox, Network, NodeId, Payload, Protocol, Trace};
use dhc_core::{run_dhc1, run_dhc2, run_dra, run_upcast, DhcConfig, RunOutcome};
use dhc_graph::rng::rng_from_seed;
use dhc_graph::{generator, thresholds, Graph, Topology};

/// Phase-1 worker threads for the algorithms that have a Phase 1.
const PARALLELISM: [usize; 2] = [1, 2];

/// Null adversaries to test: the canonical one and a seeded-but-idle
/// one (a bare fault seed influences nothing).
fn null_adversaries() -> [Adversary; 2] {
    [Adversary::none(), Adversary::seeded(123_456)]
}

fn assert_outcomes_identical(plain: &RunOutcome, adv: &RunOutcome, what: &str) {
    assert_eq!(plain.cycle.order(), adv.cycle.order(), "{what}: cycle diverged");
    assert_eq!(plain.metrics, adv.metrics, "{what}: metrics diverged");
    assert_eq!(plain.phases, adv.phases, "{what}: phase breakdown diverged");
}

#[test]
fn dra_bit_identical_with_null_adversary() {
    let n = 144;
    let g = generator::gnp(n, 0.5, &mut rng_from_seed(90)).unwrap();
    let cfg = DhcConfig::new(91);
    let plain = run_dra(&g, &cfg).unwrap();
    for null in null_adversaries() {
        let with = run_dra(&g, &cfg.clone().with_adversary(null)).unwrap();
        assert_outcomes_identical(&plain, &with, "dra");
    }
}

#[test]
fn dhc1_bit_identical_with_null_adversary() {
    let n = 196;
    let p = thresholds::edge_probability(n, 0.5, 6.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(70)).unwrap();
    // DHC1 succeeds whp, not surely: take the first succeeding seed.
    let base = (71..79)
        .map(|seed| DhcConfig::new(seed).with_partitions(8))
        .find(|cfg| run_dhc1(&g, cfg).is_ok())
        .expect("DHC1 should succeed for at least one of 8 seeds");
    for parallelism in PARALLELISM {
        let cfg = base.clone().with_parallelism(parallelism);
        let plain = run_dhc1(&g, &cfg).unwrap();
        let with = run_dhc1(&g, &cfg.with_adversary(Adversary::none())).unwrap();
        assert_outcomes_identical(&plain, &with, &format!("dhc1 @ parallelism {parallelism}"));
    }
}

#[test]
fn dhc2_bit_identical_with_null_adversary() {
    let n = 192;
    let p = thresholds::edge_probability(n, 0.5, 6.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(80)).unwrap();
    let base = (81..89)
        .map(|seed| DhcConfig::new(seed).with_partitions(6))
        .find(|cfg| run_dhc2(&g, cfg).is_ok())
        .expect("DHC2 should succeed for at least one of 8 seeds");
    for parallelism in PARALLELISM {
        let cfg = base.clone().with_parallelism(parallelism);
        let plain = run_dhc2(&g, &cfg).unwrap();
        let with = run_dhc2(&g, &cfg.with_adversary(Adversary::none())).unwrap();
        assert_outcomes_identical(&plain, &with, &format!("dhc2 @ parallelism {parallelism}"));
    }
}

#[test]
fn upcast_bit_identical_with_null_adversary() {
    let n = 160;
    let p = 10.0 * (n as f64).ln() / n as f64;
    let g = generator::gnp(n, p, &mut rng_from_seed(60)).unwrap();
    let base = (61..69)
        .map(DhcConfig::new)
        .find(|cfg| run_upcast(&g, cfg).is_ok())
        .expect("Upcast should succeed for at least one of 8 seeds");
    let plain = run_upcast(&g, &base).unwrap();
    let with = run_upcast(&g, &base.with_adversary(Adversary::none())).unwrap();
    assert_outcomes_identical(&plain, &with, "upcast");
}

#[test]
fn typed_failures_bit_identical_with_null_adversary() {
    // A disconnected graph makes Phase 1 fail; the typed error must not
    // depend on whether a null adversary is attached.
    let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
    let cfg = DhcConfig::new(0);
    let plain = run_dra(&g, &cfg).unwrap_err();
    for null in null_adversaries() {
        let with = run_dra(&g, &cfg.clone().with_adversary(null)).unwrap_err();
        assert_eq!(format!("{plain:?}"), format!("{with:?}"));
    }
    // Same for a round-cap failure.
    let g = generator::gnp(128, 0.5, &mut rng_from_seed(4)).unwrap();
    let cfg = DhcConfig::new(5).with_partitions(4).with_max_rounds(3);
    let plain = run_dhc2(&g, &cfg).unwrap_err();
    let with = run_dhc2(&g, &cfg.clone().with_adversary(Adversary::none())).unwrap_err();
    assert_eq!(format!("{plain:?}"), format!("{with:?}"));
}

/// Flood-echo protocol, used to pin **trace** equality (the algorithm
/// runners do not retain engine traces, so this drives the engine
/// directly with and without a null adversary attached).
struct Flood {
    seen: bool,
    pending: usize,
    parent: Option<NodeId>,
}

#[derive(Clone, Debug)]
struct Tok;
impl Payload for Tok {}

impl Protocol for Flood {
    type Msg = Tok;
    fn init(&mut self, ctx: &mut Context<'_, Tok>) {
        if ctx.node() == 0 {
            self.seen = true;
            self.pending = ctx.degree();
            ctx.send_all(Tok);
            if self.pending == 0 {
                ctx.halt();
            }
        }
    }
    fn round(&mut self, ctx: &mut Context<'_, Tok>, inbox: Inbox<'_, Tok>) {
        for (from, _) in inbox.iter() {
            if self.seen {
                ctx.send(from, Tok);
            } else {
                self.seen = true;
                self.parent = Some(from);
                self.pending = ctx.degree() - 1;
                ctx.send_all_except(from, Tok);
            }
        }
        if self.seen && self.pending == 0 {
            if let Some(p) = self.parent {
                ctx.send(p, Tok);
            }
            ctx.halt();
        } else if !inbox.is_empty() {
            self.pending = self.pending.saturating_sub(inbox.len());
            if self.pending == 0 {
                if let Some(p) = self.parent {
                    ctx.send(p, Tok);
                }
                ctx.halt();
            }
        }
    }
}

fn run_traced<T: Topology>(
    topo: &T,
    adversary: Option<Adversary>,
) -> (Trace, dhc_congest::Metrics) {
    let nodes: Vec<Flood> =
        (0..topo.node_count()).map(|_| Flood { seen: false, pending: 0, parent: None }).collect();
    let mut cfg = Config::default().with_bandwidth_words(4).with_trace_capacity(100_000);
    if let Some(adv) = adversary {
        cfg = cfg.with_adversary(adv);
    }
    let mut net = Network::new(topo, cfg, nodes).unwrap();
    let _ = net.run();
    let trace = net.trace().clone();
    let (report, _) = net.finish();
    (trace, report.metrics)
}

#[test]
fn traces_bit_identical_with_null_adversary() {
    let n = 120;
    let g = generator::gnp(n, 0.3, &mut rng_from_seed(95)).unwrap();
    let (pt, pm) = run_traced(&g, None);
    for null in null_adversaries() {
        let (at, am) = run_traced(&g, Some(null));
        assert!(pt.iter().eq(at.iter()), "trace diverged");
        assert_eq!(pm, am, "metrics diverged");
    }
}
