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
    fn fault_schedule_and_outcomes_identical_at_all_thread_counts(
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
