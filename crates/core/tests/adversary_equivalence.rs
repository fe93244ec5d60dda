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
use dhc_core::{run_dhc1, run_dhc2, run_dra, run_upcast, DhcConfig, DhcError, RunOutcome};
use dhc_graph::cycle::is_hamiltonian_cycle;
use dhc_graph::rng::rng_from_seed;
use dhc_graph::{generator, thresholds, Graph};

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

fn run_traced(graph: &Graph, adversary: Option<Adversary>) -> (Trace, dhc_congest::Metrics) {
    let nodes: Vec<Flood> =
        (0..graph.node_count()).map(|_| Flood { seen: false, pending: 0, parent: None }).collect();
    let mut cfg = Config::default().with_bandwidth_words(4).with_trace_capacity(100_000);
    if let Some(adv) = adversary {
        cfg = cfg.with_adversary(adv);
    }
    let mut net = Network::new(graph, cfg, nodes).unwrap();
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

/// FNV-1a over the `Debug` text of a run's result: the cycle, every
/// `Metrics` field but `engine_memory_words` (a buffer-capacity sample
/// that `Metrics`' `PartialEq` skips too), and the phase breakdown — or
/// the typed error.
fn digest(res: Result<RunOutcome, DhcError>) -> u64 {
    let text = match res {
        Ok(mut out) => {
            out.metrics.engine_memory_words = 0;
            format!("{:?} {:?} {:?}", out.cycle.order(), out.metrics, out.phases)
        }
        Err(e) => format!("{e:?}"),
    };
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Upcast under faults is a pure function of its seeds. Each delivery's
/// fate is keyed on the sender's op index, so a node must issue its
/// sends in the same order on every run — its downcast children
/// included.
#[test]
fn upcast_under_faults_is_reproducible_on_rerun() {
    for s in 0..3 {
        let g = generator::gnp(96, 0.5, &mut rng_from_seed(s)).unwrap();
        let adv = Adversary::seeded(s + 3).with_delay(50_000, 3);
        let cfg = DhcConfig::new(s).with_adversary(adv);
        assert_eq!(digest(run_upcast(&g, &cfg)), digest(run_upcast(&g, &cfg)), "seed {s}");
    }
}

/// The faulty runs pinned by [`faulty_runs_match_recorded_digests`]:
/// DRA, DHC2 and Upcast on small G(n, 1/2) under a duplicate, a delay, a
/// drop, and a crash-restart adversary, at a budget wide enough that most
/// duplicates and delays fit.
fn faulty_run(case: u64) -> Result<RunOutcome, DhcError> {
    let g = generator::gnp(64 + 16 * (case % 3) as usize, 0.5, &mut rng_from_seed(case)).unwrap();
    let adv = match case % 4 {
        0 => Adversary::seeded(case).with_duplicate_ppm(2_000),
        1 => Adversary::seeded(case).with_delay(2_000, 2),
        2 => Adversary::seeded(case).with_drop_ppm(2),
        _ => Adversary::seeded(case).with_duplicate_ppm(200).with_crash(5, 3, Some(9)),
    };
    let cfg = DhcConfig { bandwidth_words: 512, ..DhcConfig::new(case) };
    let cfg = cfg.with_partitions(4).with_adversary(adv);
    match case % 3 {
        0 => run_dra(&g, &cfg),
        1 => run_dhc2(&g, &cfg),
        _ => run_upcast(&g, &cfg),
    }
}

/// Faulty DRA, DHC2 and Upcast runs keep their recorded digests, so a
/// change to the engine's commit fold that reorders a fate or drops a
/// duplicate's edge charge fails here. Most of these runs end in a typed
/// error, which is part of the digest.
#[test]
fn faulty_runs_match_recorded_digests() {
    for (case, want) in FAULTY_DIGESTS {
        assert_eq!(digest(faulty_run(case)), want, "case {case}");
    }
}

/// Every runner under duplicates and delays returns a cycle that
/// verifies, or a typed error; it never panics. A duplicated or delayed
/// copy can reach a node in a state no clean run produces, and the node
/// then reports a `SimError::ProtocolViolation`.
#[test]
fn faulty_runs_end_in_a_cycle_or_a_typed_error() {
    let faults: [fn(u64) -> Adversary; 4] = [
        |s| Adversary::seeded(s).with_duplicate_ppm(3_000),
        |s| Adversary::seeded(s).with_duplicate_ppm(2_000),
        |s| Adversary::seeded(s).with_duplicate_ppm(500).with_delay(500, 2),
        |s| Adversary::seeded(s).with_delay(2_000, 3),
    ];
    type Runner = fn(&Graph, &DhcConfig) -> Result<RunOutcome, DhcError>;
    let runners: [(&str, Runner); 4] =
        [("dra", run_dra), ("dhc1", run_dhc1), ("dhc2", run_dhc2), ("upcast", run_upcast)];
    for seed in 0..12 {
        let g =
            generator::gnp(64 + 8 * (seed % 3) as usize, 0.5, &mut rng_from_seed(seed)).unwrap();
        for (f, adversary) in faults.iter().enumerate() {
            let cfg = DhcConfig::new(seed).with_partitions(4).with_adversary(adversary(seed));
            for (name, run) in runners {
                if let Ok(out) = run(&g, &cfg) {
                    let order = out.cycle.order();
                    assert!(is_hamiltonian_cycle(&g, order), "{name}, seed {seed}, faults {f}");
                }
            }
        }
    }
}

/// Recorded `(case, digest)` of `faulty_run(case)`. In cases 0, 1, 4, 9
/// and 12 a duplicate or a delay makes a DRA head act while it still
/// awaits a reply, which ends the run in a `ProtocolViolation`; in case
/// 16 the same happens in class 1, and class 0's bandwidth error is the
/// one reported.
const FAULTY_DIGESTS: [(u64, u64); 24] = [
    (0, 0x01BD_DEBB_B8C6_8A5B),
    (1, 0x01BD_DEBB_B8C6_8A5B),
    (2, 0x98FE_8544_76E5_3D82),
    (3, 0x6ACB_2692_4D17_3D7B),
    (4, 0x01BD_DEBB_B8C6_8A5B),
    (5, 0x9605_5D6A_265B_2E48),
    (6, 0x6ACB_2692_4D17_3D7B),
    (7, 0x2837_50F2_748D_B1B2),
    (8, 0xCB0D_B1E3_7E45_BC90),
    (9, 0xC80E_F05B_FA43_89BE),
    (10, 0xC553_039B_E4AC_389B),
    (11, 0x7AA4_6558_68EC_9374),
    (12, 0x01BD_DEBB_B8C6_8A5B),
    (13, 0xC553_039B_E4AC_389B),
    (14, 0xAEAC_5E4D_F5AF_CDC2),
    (15, 0x6ACB_2692_4D17_3D7B),
    (16, 0x86EB_A2B6_FD14_B700),
    (17, 0x8629_0CFA_209B_0D33),
    (18, 0x257F_CEFA_4E06_5D56),
    (19, 0x8317_1E9F_1D99_E3B1),
    (20, 0xCB0D_B1E3_7E45_BC90),
    (21, 0x4818_4D20_3BAE_6E86),
    (22, 0xB7F0_5B81_CC0C_1B74),
    (23, 0x7AA4_6558_68EC_9374),
];
