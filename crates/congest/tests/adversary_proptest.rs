//! Property tests for the seeded adversary layer: the **realized fault
//! schedule** (every drop, duplicate, delay, crash, and restart, as
//! exposed by the engine trace) and the final outcomes must be a pure
//! function of the fault seed — bit-identical on a re-run — and faulted
//! messages must still respect the
//! per-edge bandwidth check (violations surface as the existing
//! simulation error, never a silent queue).

use dhc_congest::{
    Adversary, Config, Context, Inbox, Network, NodeId, Payload, Protocol, SimError, TraceEvent,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Tok(u64);
impl Payload for Tok {}

/// A chatty gossip node on a ring: every activation it pings both ring
/// neighbors with a fresh value and re-arms a wake-up, for `life`
/// activations. Deliberately message-dense so every fault knob gets
/// exercised, and resilient to loss (wake-ups drive it, not mail).
#[derive(Debug)]
struct Gossip {
    id: NodeId,
    life: usize,
    /// `(round, sender, value)` per delivery — the per-node view of the
    /// realized fault schedule.
    got: Vec<(usize, NodeId, u64)>,
}

impl Protocol for Gossip {
    type Msg = Tok;

    fn init(&mut self, ctx: &mut Context<'_, Tok>) {
        if self.life == 0 {
            ctx.halt();
        } else {
            ctx.wake_in((1 + self.id % 2) as usize);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, Tok>, inbox: Inbox<'_, Tok>) {
        let r = ctx.round_number();
        for (from, &Tok(k)) in inbox.iter() {
            self.got.push((r, from, k));
        }
        if self.life == 0 {
            ctx.halt();
            return;
        }
        self.life -= 1;
        let n = ctx.n();
        ctx.send((self.id + (n) as u32 - 1) % (n) as u32, Tok((self.id as u64) << 8 | r as u64));
        ctx.send((self.id + 1) % (n) as u32, Tok((self.id as u64) << 9 | r as u64));
        ctx.wake_in((1 + (self.id + (r) as u32) % 3) as usize);
    }
}

/// Everything observable about a faulty run, for re-run comparison: the typed outcome, metrics, the full trace (which
/// includes every Dropped/Duplicated/Delayed/Crashed/Restarted event —
/// the realized fault schedule), and each node's delivery log.
type RunResult =
    (Result<(), String>, dhc_congest::Metrics, Vec<TraceEvent>, Vec<Vec<(usize, NodeId, u64)>>);

fn run_gossip(n: usize, lives: &[usize], adv: &Adversary) -> RunResult {
    let g = dhc_graph::generator::cycle_graph(n);
    let nodes: Vec<Gossip> = (0..n)
        .map(|id| Gossip { id: id as u32, life: lives[id % lives.len()], got: Vec::new() })
        .collect();
    let cfg = Config::default()
        .with_bandwidth_words(4)
        .with_max_rounds(500)
        .with_trace_capacity(1_000_000)
        .with_adversary(adv.clone());
    let mut net = Network::new(&g, cfg, nodes).unwrap();
    let outcome = net.run().map_err(|e| format!("{e:?}"));
    let trace = net.trace().events();
    let logs: Vec<_> = net.nodes().iter().map(|nd| nd.got.clone()).collect();
    let (report, _) = net.finish();
    (outcome, report.metrics, trace, logs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fault_schedule_and_outcomes_identical_on_rerun(
        n in 4usize..9,
        lives in prop::collection::vec(0usize..6, 1..4),
        fault_seed in any::<u64>(),
        drop_ppm in 0u32..400_000,
        duplicate_ppm in 0u32..300_000,
        delay_ppm in 0u32..300_000,
        max_delay in 1usize..4,
        // Crash schedule, encoded without an Option strategy (the
        // vendored proptest has none): at == 0 means no crash, and a
        // restart round below the crash round means no restart.
        crash_node in 0usize..9,
        crash_at in 0usize..6,
        restart in 0usize..12,
    ) {
        let mut adv = Adversary::seeded(fault_seed)
            .with_drop_ppm(drop_ppm)
            .with_duplicate_ppm(duplicate_ppm)
            .with_delay(delay_ppm, max_delay);
        if crash_at > 0 {
            let restart = (restart > crash_at).then_some(restart);
            adv = adv.with_crash((crash_node % n) as u32, crash_at, restart);
        }
        // The same fault seed realizes the same schedule on a re-run.
        let baseline = run_gossip(n, &lives, &adv);
        prop_assert_eq!(&baseline, &run_gossip(n, &lives, &adv));
    }

    #[test]
    fn distinct_fault_seeds_are_independent_streams(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        prop_assume!(seed_a != seed_b);
        // With aggressive knobs on a message-dense run, two seeds
        // virtually surely realize different schedules; what matters is
        // that each is internally deterministic (checked above) and that
        // the knob draws key off the seed at all.
        let adv = |s| Adversary::seeded(s).with_drop_ppm(500_000);
        let a = run_gossip(6, &[4], &adv(seed_a));
        let b = run_gossip(6, &[4], &adv(seed_b));
        let drops = |r: &RunResult| {
            r.2.iter().filter(|e| matches!(e, TraceEvent::Dropped { .. })).count()
        };
        // Both runs drew from their own stream; at 50% drop over dozens
        // of sends, at least one drop each is near-certain. (Equality of
        // the two schedules is possible but astronomically unlikely; we
        // only assert the cheap direction.)
        prop_assert!(drops(&a) > 0 || drops(&b) > 0);
    }
}

/// Always-duplicate at a budget the duplicate cannot fit: the violation
/// must surface as the ordinary [`SimError::BandwidthExceeded`] — never
/// a silently queued extra copy.
#[test]
fn duplicated_messages_respect_the_bandwidth_check() {
    struct OnePing;
    impl Protocol for OnePing {
        type Msg = Tok;
        fn init(&mut self, ctx: &mut Context<'_, Tok>) {
            if ctx.node() == 0 {
                ctx.send(1, Tok(1));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Tok>, _: Inbox<'_, Tok>) {}
    }
    let g = dhc_graph::generator::path_graph(2);
    let adv = Adversary::seeded(0).with_duplicate_ppm(1_000_000);
    let cfg = Config::default().with_bandwidth_words(1).with_adversary(adv);
    let err = Network::new(&g, cfg, vec![OnePing, OnePing]).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::BandwidthExceeded { from: 0, to: 1, attempted_words: 2, budget_words: 1, .. }
        ),
        "{err:?}"
    );
}

/// A delayed message landing in a round whose fresh traffic already
/// fills the edge: the arrival-round check must reject it as the
/// ordinary [`SimError::BandwidthExceeded`].
#[test]
fn delayed_messages_respect_the_arrival_round_bandwidth_check() {
    /// Node 0 sends to node 1 in init and in every round; with the
    /// init send delayed by exactly one round it arrives together with
    /// the round-1 send, overflowing a 1-word budget in round 2.
    struct Pusher;
    impl Protocol for Pusher {
        type Msg = Tok;
        fn init(&mut self, ctx: &mut Context<'_, Tok>) {
            if ctx.node() == 0 {
                ctx.send(1, Tok(0));
                ctx.wake_in(1);
            }
        }
        fn round(&mut self, ctx: &mut Context<'_, Tok>, _: Inbox<'_, Tok>) {
            if ctx.node() == 0 && ctx.round_number() <= 2 {
                ctx.send(1, Tok(ctx.round_number() as u64));
                ctx.wake_in(1);
            } else {
                ctx.halt();
            }
        }
    }
    // With a 50% per-delivery delay, a seed whose round-k send is
    // delayed by 1 while the round-(k+1) send goes through lands both
    // on edge 0→1 in the same round — overflowing the 1-word budget.
    // Fate draws key off `(seed, round, ...)`, so scanning seeds finds
    // such an interleaving quickly (probability ≥ 1/4 per seed).
    let g = dhc_graph::generator::path_graph(2);
    let err = (0..10_000u64)
        .find_map(|s| {
            let adv = Adversary::seeded(s).with_delay(500_000, 1);
            let cfg = Config::default().with_adversary(adv);
            let mut net = Network::new(&g, cfg, vec![Pusher, Pusher]).unwrap();
            match net.run() {
                Err(e @ SimError::BandwidthExceeded { .. }) => Some(e),
                _ => None,
            }
        })
        .expect("some seed collides a delayed and a fresh message on edge 0→1");
    assert!(matches!(err, SimError::BandwidthExceeded { from: 0, to: 1, .. }), "{err:?}");
}

/// Under an active adversary a broadcast keeps its one arena record, so
/// the k-machine layer charges each receiving machine once, as on clean
/// runs: a broadcast to three nodes hosted by one other machine crosses
/// that link once.
#[test]
fn faulty_broadcast_crosses_each_machine_link_once() {
    struct Hub;
    impl Protocol for Hub {
        type Msg = Tok;
        fn init(&mut self, ctx: &mut Context<'_, Tok>) {
            if ctx.node() == 0 {
                ctx.send_all(Tok(1));
            }
            ctx.halt();
        }
        fn round(&mut self, _: &mut Context<'_, Tok>, _: Inbox<'_, Tok>) {}
    }
    let g = dhc_graph::generator::star(4);
    // Active, yet every copy is delivered: the only fault is a crash
    // after the run has ended.
    let adv = Adversary::seeded(0).with_crash(1, 5, None);
    let machines = dhc_congest::MachineMap::new(vec![0, 1, 1, 1], 2);
    let cfg = Config::default().with_trace_capacity(100).with_adversary(adv);
    let mut net = Network::new_with_machines(&g, cfg, vec![Hub, Hub, Hub, Hub], machines).unwrap();
    net.run().unwrap();
    let sends = net.trace().iter().filter(|e| matches!(e, TraceEvent::Sent { .. })).count();
    let (report, _) = net.finish();
    assert_eq!((sends, report.metrics.messages), (3, 3));
    let log = report.machine_log.unwrap();
    // Link index 0 * 2 + 1 carries the one 1-word payload.
    assert_eq!(log.rounds()[0].links, [(1, 1)]);
    assert_eq!(log.cross_messages(), 1);
}

/// A payload of one or two words.
#[derive(Clone, Debug)]
struct Pay(u64, usize);
impl Payload for Pay {
    fn words(&self) -> usize {
        self.1
    }
}

/// A scripted node: each activation it issues up to two ops — `send`,
/// `send_all` and `send_all_except` of 1–2 words, or only `send`s — drawn
/// from its own stream, logs its deliveries, and re-arms a wake-up, for
/// `life` activations.
struct Script {
    stream: u64,
    life: usize,
    unicast_only: bool,
    got: Vec<(usize, NodeId, u64)>,
}

impl Script {
    fn draw(&mut self, bound: u64) -> u64 {
        self.stream = dhc_graph::rng::derive_seed(self.stream, 1);
        self.stream % bound
    }

    fn act(&mut self, ctx: &mut Context<'_, Pay>) {
        if self.life == 0 {
            ctx.halt();
            return;
        }
        self.life -= 1;
        let deg = ctx.degree() as u64;
        for i in 0..if deg == 0 { 0 } else { self.draw(3) } {
            let to = ctx.neighbors()[self.draw(deg) as usize];
            let words = 1 + self.draw(2) as usize;
            let msg =
                Pay(u64::from(ctx.node()) << 32 | (ctx.round_number() as u64) << 8 | i, words);
            match if self.unicast_only { 0 } else { self.draw(3) } {
                0 => ctx.send(to, msg),
                1 => ctx.send_all(msg),
                _ => ctx.send_all_except(to, msg),
            }
        }
        ctx.wake_in(1 + self.draw(2) as usize);
    }
}

impl Protocol for Script {
    type Msg = Pay;
    fn init(&mut self, ctx: &mut Context<'_, Pay>) {
        self.act(ctx);
    }
    fn round(&mut self, ctx: &mut Context<'_, Pay>, inbox: Inbox<'_, Pay>) {
        for (from, msg) in inbox.iter() {
            self.got.push((ctx.round_number(), from, msg.0));
        }
        self.act(ctx);
    }
}

/// Runs fixed script `case` under an active adversary and returns an
/// FNV-1a digest of its result, `Metrics` (all but
/// `engine_memory_words`, a buffer-capacity sample that `PartialEq`
/// skips too), trace and inbox logs — plus, for unicast-only scripts,
/// its k-machine log.
fn script_digest(case: u64, unicast_only: bool) -> u64 {
    let mut draw = {
        let mut s = dhc_graph::rng::derive_seed(0x5C41_9700, case);
        move |bound: u64| {
            s = dhc_graph::rng::derive_seed(s, 7);
            s % bound
        }
    };
    let n = 4 + draw(6) as usize;
    let p = 0.3 + 0.1 * draw(5) as f64;
    let g = dhc_graph::generator::gnp(n, p, &mut dhc_graph::rng::rng_from_seed(case)).unwrap();
    let mut adv = Adversary::seeded(draw(1 << 32))
        .with_drop_ppm(draw(300_001) as u32)
        .with_duplicate_ppm(draw(300_001) as u32)
        .with_delay(draw(300_001) as u32, 1 + draw(3) as usize);
    if draw(2) == 0 {
        let at = 1 + draw(4) as usize;
        let restart = (draw(2) == 0).then(|| at + 1 + draw(4) as usize);
        adv = adv.with_crash(draw(n as u64) as NodeId, at, restart);
    }
    let cfg = Config::default()
        .with_bandwidth_words(3 + draw(5) as usize)
        .with_max_rounds(80)
        .with_trace_capacity(1_000_000)
        .with_adversary(adv);
    let nodes: Vec<Script> = (0..n as u64)
        .map(|v| Script {
            stream: dhc_graph::rng::derive_seed(case, v),
            life: 3 + draw(6) as usize,
            unicast_only,
            got: Vec::new(),
        })
        .collect();
    let machines = dhc_congest::MachineMap::new((0..n).map(|v| v % 3).collect(), 3);
    let built = if unicast_only {
        Network::new_with_machines(&g, cfg, nodes, machines)
    } else {
        Network::new(&g, cfg, nodes)
    };
    let text = match built {
        Err(e) => format!("{e:?}"),
        Ok(mut net) => {
            let outcome = net.run();
            let trace = net.trace().events();
            let logs: Vec<_> = net.nodes().iter().map(|nd| nd.got.clone()).collect();
            let (mut report, _) = net.finish();
            report.metrics.engine_memory_words = 0;
            format!("{outcome:?} {:?} {trace:?} {logs:?} {:?}", report.metrics, report.machine_log)
        }
    };
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Fixed faulty scripts pin the realized fault schedule, every metric,
/// the trace and each node's deliveries to recorded digests, so a change
/// to the commit fold that reorders a fate event or drops a duplicate's
/// edge charge fails here, not only against a re-run of itself.
#[test]
fn scripted_faulty_runs_match_recorded_digests() {
    let got: Vec<u64> = (0..SCRIPT_DIGESTS.len() as u64).map(|c| script_digest(c, false)).collect();
    assert_eq!(got, SCRIPT_DIGESTS);
}

/// The same for unicast-only scripts, whose k-machine logs are pinned
/// too: each copy sent, duplicate included, crosses its machine link.
#[test]
fn scripted_unicast_runs_match_recorded_machine_logs() {
    let got: Vec<u64> =
        (0..UNICAST_DIGESTS.len() as u64).map(|c| script_digest(100 + c, true)).collect();
    assert_eq!(got, UNICAST_DIGESTS);
}

/// Recorded digests of `script_digest(case, false)`, `case` in `0..24`.
const SCRIPT_DIGESTS: [u64; 24] = [
    0x4F75_9B15_CC52_A462,
    0x91FF_5DB6_CDE5_71CF,
    0xD0D0_587F_20C5_BA82,
    0xE0B0_CFDD_D793_101B,
    0xB147_861F_0164_91F3,
    0x5F0C_ED3D_6B68_786E,
    0xB57C_4EB3_F03B_7EE8,
    0xD313_0D7E_3F06_2FA5,
    0xCBED_2D57_269C_6C33,
    0x96C0_BE24_F3F0_F3B6,
    0x9BF8_6684_6C5B_BB38,
    0xF1F0_56CB_2E85_541E,
    0x8BA8_85BC_1D2D_2D1A,
    0x16B0_2346_98EB_CC47,
    0xB619_E126_9E91_316E,
    0xA8FC_A7D6_DF3B_9267,
    0x8989_954C_B57E_5FF3,
    0x0FE9_8A4B_3B54_18E0,
    0xC0E1_7B4E_2D0E_0205,
    0x984E_7BF1_4D4F_4B97,
    0x6E60_FDDC_07CE_F93F,
    0xB2D4_124E_2EFA_4FED,
    0xEE0A_53FC_6F41_96FD,
    0x03B8_1391_8195_3015,
];

/// Recorded digests of `script_digest(100 + case, true)`, `case` in `0..8`.
const UNICAST_DIGESTS: [u64; 8] = [
    0x1415_3AB8_FAC1_4D41,
    0xBCF3_29C8_4218_EA48,
    0x2E3B_6A98_4090_7740,
    0x1010_F6AC_4785_7172,
    0x5C59_5902_4454_AA83,
    0x69C9_F6F1_410E_6D4B,
    0xD082_FF83_AE55_F667,
    0x5FAE_B1B0_9BAB_FD76,
];
