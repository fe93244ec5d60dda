//! The **seeded adversary layer**: faulty and asynchronous executions.
//!
//! A clean CONGEST execution is synchronous and lossless: every message
//! committed in round `r` arrives at the start of round `r + 1`, and
//! every node runs in every round it is addressed. An [`Adversary`]
//! relaxes exactly those assumptions, one knob at a time:
//!
//! * **drop / duplicate** — each delivered copy of a message is lost in
//!   transit (or doubled) with a fixed-point probability, per directed
//!   edge per message;
//! * **delay** — a message is parked in a virtual-time delay queue and
//!   re-injected `d` rounds later (`d` drawn uniformly from
//!   `1..=max_delay`), turning the synchronous round structure into an
//!   asynchrony knob;
//! * **crash / restart** — a scheduled node goes down at a given round
//!   (its sends and receives are suppressed while down) and optionally
//!   comes back later with its protocol state intact.
//!
//! Every fault decision is a **pure function of the fault seed**: the
//! fate of a delivery is drawn by hashing
//! `(fault_seed, round, sender, op index, destination)` through the
//! workspace-standard SplitMix64 chain ([`dhc_graph::rng::derive_seed`]),
//! and all draws happen inside the engine's commit fold (or the
//! delay-queue injection), in a fixed order. The realized fault
//! schedule — and therefore the entire execution — is bit-identical on
//! every re-run with the same seed, exactly like the clean engine
//! (pinned by `crates/congest/tests/adversary_proptest.rs`, against a
//! re-run and against recorded digests).
//!
//! Faulty runs commit through the engine's one commit fold, the same
//! as clean runs. Each delivery — each addressed neighbor of a
//! broadcast — meets its fate there:
//!
//! * a broadcast keeps its one shared arena record: a delivered copy
//!   pushes the record's index onto the receiver's inbox list, a
//!   duplicate pushes it twice, a drop pushes nothing, and a delay parks
//!   a clone of the payload;
//! * a duplicated copy is one more send and one more word load on its
//!   edge, so it can push a saturated edge over its budget;
//! * the k-machine layer charges a broadcast once per receiving machine,
//!   as on clean runs, whatever its copies' fates, and a unicast once
//!   per copy sent.
//!
//! The fates are drawn twice per round rather than stored: once to count
//! the duplicates before the bandwidth check, and once to route.
//!
//! A **null adversary** ([`Adversary::none`], or any adversary whose
//! knobs are all zero) is detected at network construction and the
//! engine runs its unmodified clean code paths: outcomes,
//! [`Metrics`](crate::Metrics), and traces are bit-identical to a run with no
//! adversary attached at all
//! (pinned by `crates/core/tests/adversary_equivalence.rs`).
//!
//! With an **active** adversary the engine additionally treats
//! quiescence (no mail, no wake-ups, no delayed messages, no pending
//! restarts) as the round-cap outcome
//! [`SimError::RoundLimitExceeded`](crate::SimError::RoundLimitExceeded)
//! rather than [`SimError::Stalled`](crate::SimError::Stalled): under
//! message loss a starved protocol is an *environmental* outcome, not a
//! protocol deadlock, and no future round can make progress — so lossy
//! runs always terminate with a typed error instead of hanging.

use crate::NodeId;
use dhc_graph::rng::derive_seed;

/// Fixed-point probability denominator: knobs are expressed in
/// **parts per million**, so probabilities stay integer-valued and the
/// adversary (and [`Config`](crate::Config)) keep `Eq`.
pub const PPM: u32 = 1_000_000;

/// One scheduled crash (and optional restart) of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node to take down.
    pub node: NodeId,
    /// First round the node is down (it does not execute in this round;
    /// must be ≥ 1 — `init` always runs).
    pub at_round: usize,
    /// Round at which the node comes back with its state intact
    /// (`None` = crashed forever). Must be `> at_round`.
    pub restart_round: Option<usize>,
}

/// A seeded fault model attached to a [`Network`](crate::Network) via
/// [`Config::with_adversary`](crate::Config::with_adversary) (or
/// `DhcConfig::with_adversary` one level up).
///
/// All knobs default to zero; [`Adversary::none`] (or any all-zero
/// adversary) is a **null** adversary and leaves the engine's clean
/// code paths — and its bit-exact behavior — untouched.
///
/// # Example
///
/// ```
/// use dhc_congest::Adversary;
///
/// let adv = Adversary::seeded(7)
///     .with_drop_ppm(50_000)        // 5% of deliveries lost
///     .with_duplicate_ppm(10_000)   // 1% doubled
///     .with_delay(100_000, 3)       // 10% delayed by 1..=3 rounds
///     .with_crash(4, 10, Some(20)); // node 4 down for rounds 10..20
/// assert!(!adv.is_null());
/// assert!(Adversary::none().is_null());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adversary {
    /// Seed of the fault stream. Independent of the protocol seed: the
    /// same protocol run can be subjected to many fault schedules and
    /// vice versa.
    pub fault_seed: u64,
    /// Per-delivery drop probability in parts per million ([`PPM`]).
    pub drop_ppm: u32,
    /// Per-delivery duplication probability in parts per million.
    pub duplicate_ppm: u32,
    /// Per-delivery delay probability in parts per million.
    pub delay_ppm: u32,
    /// Maximum delay in rounds; a delayed message is re-injected
    /// `1..=max_delay` rounds after its normal delivery round. Must be
    /// at least 1 when `delay_ppm > 0`: [`with_delay`](Self::with_delay)
    /// enforces it, and `dhc-core`'s entry points reject an adversary
    /// built without it as an invalid configuration.
    pub max_delay: usize,
    /// Scheduled crashes/restarts.
    pub crashes: Vec<CrashEvent>,
}

/// The fate of one delivered message copy, drawn from the fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Delivered normally next round.
    Deliver,
    /// Lost in transit (bandwidth and metrics still charge the send).
    Drop,
    /// Delivered twice (both copies charged against the edge budget).
    Duplicate,
    /// Delivered `d` rounds late through the delay queue.
    Delay(usize),
}

impl Adversary {
    /// The null adversary: attached but influencing nothing. Runs are
    /// bit-identical to runs with no adversary at all.
    pub fn none() -> Self {
        Self::seeded(0)
    }

    /// An adversary with the given fault seed and all knobs zero.
    pub fn seeded(fault_seed: u64) -> Self {
        Adversary {
            fault_seed,
            drop_ppm: 0,
            duplicate_ppm: 0,
            delay_ppm: 0,
            max_delay: 0,
            crashes: Vec::new(),
        }
    }

    /// Sets the per-delivery drop probability (parts per million).
    ///
    /// # Panics
    ///
    /// Panics if `ppm > 1_000_000`.
    pub fn with_drop_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "drop probability above 1.0");
        self.drop_ppm = ppm;
        self
    }

    /// Sets the per-delivery duplication probability (parts per million).
    ///
    /// # Panics
    ///
    /// Panics if `ppm > 1_000_000`.
    pub fn with_duplicate_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm <= PPM, "duplicate probability above 1.0");
        self.duplicate_ppm = ppm;
        self
    }

    /// Sets the per-delivery delay probability (parts per million) and
    /// the delay bound in rounds.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > 1_000_000`, or if `ppm > 0` with `max_delay == 0`.
    pub fn with_delay(mut self, ppm: u32, max_delay: usize) -> Self {
        assert!(ppm <= PPM, "delay probability above 1.0");
        assert!(ppm == 0 || max_delay >= 1, "delaying requires max_delay >= 1");
        self.delay_ppm = ppm;
        self.max_delay = max_delay;
        self
    }

    /// Schedules a crash of `node` at `at_round`, optionally restarting
    /// at `restart_round` with state intact.
    ///
    /// # Panics
    ///
    /// Panics if `at_round == 0` (`init` always runs) or if the restart
    /// does not come after the crash.
    pub fn with_crash(
        mut self,
        node: NodeId,
        at_round: usize,
        restart_round: Option<usize>,
    ) -> Self {
        assert!(at_round >= 1, "crashes take effect from round 1 on (init always runs)");
        if let Some(r) = restart_round {
            assert!(r > at_round, "restart must come after the crash");
        }
        self.crashes.push(CrashEvent { node, at_round, restart_round });
        self
    }

    /// Whether this adversary influences nothing (all knobs zero, no
    /// crash schedule). Null adversaries leave the clean engine paths
    /// untouched.
    pub fn is_null(&self) -> bool {
        self.drop_ppm == 0
            && self.duplicate_ppm == 0
            && self.delay_ppm == 0
            && self.crashes.is_empty()
    }

    /// Translates this adversary for one Phase-1 color class simulated
    /// over local ids: the fault seed gets a per-class stream (class
    /// runs are independent simulations, so reusing one stream across
    /// them would correlate their fault schedules), crash schedules map
    /// global node ids to class-local ones (`members` is the ascending
    /// `local → global` member list), and crashes of out-of-class nodes
    /// are dropped.
    pub fn for_class(&self, members: &[NodeId], color: u32) -> Adversary {
        let crashes = self
            .crashes
            .iter()
            .filter_map(|c| {
                members.binary_search(&c.node).ok().map(|local| CrashEvent {
                    node: (local) as u32,
                    at_round: c.at_round,
                    restart_round: c.restart_round,
                })
            })
            .collect();
        Adversary {
            fault_seed: derive_seed(self.fault_seed, 0xC1A5_5000 + color as u64),
            crashes,
            ..*self
        }
    }

    /// Draws the fate of one delivered message copy: a pure function of
    /// `(fault_seed, round, sender, op index, destination)`, independent
    /// of wall-clock interleaving. Knobs are checked in
    /// drop → duplicate → delay order with independent sub-draws, so a
    /// copy suffers at most one fault.
    pub(crate) fn fate(&self, round: usize, from: NodeId, op: u32, to: NodeId) -> Fate {
        if self.drop_ppm == 0 && self.duplicate_ppm == 0 && self.delay_ppm == 0 {
            return Fate::Deliver;
        }
        let h = derive_seed(
            derive_seed(derive_seed(self.fault_seed, round as u64), from as u64),
            ((op as u64) << 32) | to as u64,
        );
        if self.drop_ppm > 0 && ppm_draw(h, 1) < self.drop_ppm {
            return Fate::Drop;
        }
        if self.duplicate_ppm > 0 && ppm_draw(h, 2) < self.duplicate_ppm {
            return Fate::Duplicate;
        }
        if self.delay_ppm > 0 && ppm_draw(h, 3) < self.delay_ppm {
            let d = 1 + (derive_seed(h, 4) % self.max_delay as u64) as usize;
            return Fate::Delay(d);
        }
        Fate::Deliver
    }
}

/// One uniform draw in `0..PPM` from sub-stream `salt` of hash `h`.
fn ppm_draw(h: u64, salt: u64) -> u32 {
    (derive_seed(h, salt) % PPM as u64) as u32
}

/// Runtime crash-schedule state owned by the network: the adversary
/// plus which nodes are currently down and the not-yet-applied
/// crash/restart events, sorted by round.
#[derive(Debug)]
pub(crate) struct AdversaryState {
    pub(crate) adv: Adversary,
    /// Currently-crashed nodes.
    down: Vec<bool>,
    /// `(round, node, goes_down)` events, ascending by round.
    events: Vec<(usize, NodeId, bool)>,
    /// First unapplied event.
    next_event: usize,
}

impl AdversaryState {
    /// Builds the runtime state for an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if a crash schedule names a node outside `0..n`.
    pub(crate) fn new(adv: Adversary, n: usize) -> Self {
        let mut events = Vec::with_capacity(adv.crashes.len() * 2);
        for c in &adv.crashes {
            assert!(c.node < (n) as u32, "crash schedule names node {} outside 0..{n}", c.node);
            events.push((c.at_round, c.node, true));
            if let Some(r) = c.restart_round {
                events.push((r, c.node, false));
            }
        }
        events.sort_unstable();
        AdversaryState { adv, down: vec![false; n], events, next_event: 0 }
    }

    /// Rounds at which a restart is scheduled, as `(round, node)` — the
    /// network pre-pushes these into its wake heap so a restarted node
    /// activates (with an empty inbox) even in an otherwise quiescent
    /// network.
    pub(crate) fn restart_wakes(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.events.iter().filter(|&&(_, _, d)| !d).map(|&(r, v, _)| (r, v))
    }

    /// Applies every crash/restart event due at or before `round`,
    /// reporting each applied `(node, went_down)` transition.
    pub(crate) fn advance(&mut self, round: usize, mut on_event: impl FnMut(NodeId, bool)) {
        while let Some(&(r, v, goes_down)) = self.events.get(self.next_event) {
            if r > round {
                break;
            }
            self.next_event += 1;
            if self.down[(v) as usize] != goes_down {
                self.down[(v) as usize] = goes_down;
                on_event(v, goes_down);
            }
        }
    }

    /// Whether node `v` is currently crashed.
    pub(crate) fn is_down(&self, v: NodeId) -> bool {
        self.down[(v) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detection() {
        assert!(Adversary::none().is_null());
        assert!(Adversary::seeded(99).is_null(), "a bare seed influences nothing");
        assert!(!Adversary::seeded(0).with_drop_ppm(1).is_null());
        assert!(!Adversary::seeded(0).with_duplicate_ppm(1).is_null());
        assert!(!Adversary::seeded(0).with_delay(1, 4).is_null());
        assert!(!Adversary::seeded(0).with_crash(0, 1, None).is_null());
    }

    #[test]
    fn fate_is_a_pure_function_of_the_key() {
        let adv = Adversary::seeded(5).with_drop_ppm(300_000).with_delay(300_000, 4);
        for round in 0..20 {
            for op in 0..5 {
                assert_eq!(adv.fate(round, 3, op, 7), adv.fate(round, 3, op, 7));
            }
        }
    }

    #[test]
    fn fate_rates_track_the_knobs() {
        let adv = Adversary::seeded(11).with_drop_ppm(250_000);
        let trials = 40_000;
        let drops = (0..trials)
            .filter(|&i| {
                adv.fate(i % 97, (i % 13) as NodeId, (i / 13) as u32, (i % 7) as NodeId)
                    == Fate::Drop
            })
            .count();
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate} far from 0.25");
    }

    #[test]
    fn extreme_knobs() {
        let all = Adversary::seeded(0).with_drop_ppm(PPM);
        assert_eq!(all.fate(1, 0, 0, 1), Fate::Drop);
        let none = Adversary::seeded(0).with_drop_ppm(0);
        assert_eq!(none.fate(1, 0, 0, 1), Fate::Deliver);
        // Drop shadows duplicate shadows delay when all are certain.
        let stacked =
            Adversary::seeded(0).with_drop_ppm(PPM).with_duplicate_ppm(PPM).with_delay(PPM, 2);
        assert_eq!(stacked.fate(1, 0, 0, 1), Fate::Drop);
    }

    #[test]
    fn delay_amounts_respect_the_bound() {
        let adv = Adversary::seeded(3).with_delay(PPM, 3);
        for i in 0..500 {
            match adv.fate(i, 0, 0, 1) {
                Fate::Delay(d) => assert!((1..=3).contains(&d), "delay {d} out of bounds"),
                f => panic!("certain delay drew {f:?}"),
            }
        }
    }

    #[test]
    fn class_translation_maps_and_filters_crashes() {
        let adv = Adversary::seeded(9)
            .with_drop_ppm(7)
            .with_crash(10, 2, Some(5))
            .with_crash(99, 3, None);
        let members = [4, 10, 17]; // global ids of one class, ascending
        let local = adv.for_class(&members, 1);
        assert_eq!(local.drop_ppm, 7);
        assert_ne!(local.fault_seed, adv.fault_seed);
        assert_ne!(local.fault_seed, adv.for_class(&members, 2).fault_seed);
        assert_eq!(
            local.crashes,
            vec![CrashEvent { node: 1, at_round: 2, restart_round: Some(5) }],
            "node 10 is local id 1; node 99 is out of class"
        );
    }

    #[test]
    fn crash_state_applies_events_in_round_order() {
        let adv = Adversary::seeded(0).with_crash(2, 3, Some(6)).with_crash(0, 4, None);
        let mut st = AdversaryState::new(adv, 5);
        assert_eq!(st.restart_wakes().collect::<Vec<_>>(), vec![(6, 2)]);
        let mut log = Vec::new();
        st.advance(2, |v, d| log.push((v, d)));
        assert!(log.is_empty() && !st.is_down(2));
        st.advance(4, |v, d| log.push((v, d)));
        assert_eq!(log, vec![(2, true), (0, true)]);
        assert!(st.is_down(0) && st.is_down(2));
        st.advance(10, |v, d| log.push((v, d)));
        assert_eq!(log.last(), Some(&(2, false)));
        assert!(st.is_down(0) && !st.is_down(2));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_crash_rejected() {
        AdversaryState::new(Adversary::seeded(0).with_crash(9, 1, None), 3);
    }
}
