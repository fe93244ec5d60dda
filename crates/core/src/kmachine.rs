//! The **k-machine model** conversion (the paper's §IV extension) —
//! estimated *and* measured.
//!
//! The paper notes that its fully-distributed algorithms "can be used to
//! obtain efficient algorithms in other distributed message-passing models
//! such as the k-machine model \[16\]" (Klauck, Nanongkai, Pandurangan,
//! Robinson, SODA 2015). In the k-machine model, `k` machines are
//! pairwise connected by links of `O(polylog n)` bandwidth per round, and
//! the `n` graph nodes are distributed across machines via the
//! *random-vertex-partition* (RVP).
//!
//! The KNPR **Conversion Theorem** turns any CONGEST algorithm that runs in
//! `T` rounds with `M` total messages — where every node sends at most
//! `Δ'` messages per round — into a k-machine algorithm running in
//! `Õ(M/k² + T·Δ'/k)` rounds whp. This module provides both sides of that
//! claim:
//!
//! * [`RandomVertexPartition`] — the RVP assignment plus its balance
//!   statistics (machines hold `Õ(n/k)` nodes whp);
//! * [`ConversionEstimate`] — the theorem's bound instantiated with
//!   *measured* `T`, `M`, `Δ'` from a [`dhc_congest::Metrics`];
//! * the **k-machine execution backend** —
//!   [`run_dra_kmachine`] / [`run_dhc1_kmachine`] / [`run_dhc2_kmachine`] /
//!   [`run_upcast_kmachine`] execute the unchanged protocols with the
//!   simulator's [machine accounting layer](dhc_congest::machine)
//!   attached: nodes are hosted by `k` machines, intra-machine messages
//!   are free, each directed machine-pair link carries
//!   [`KMachineConfig::link_bandwidth_words`] per k-machine round, and
//!   every CONGEST round dilates into `max(1, ⌈max link load / B⌉)`
//!   k-machine rounds. The protocol outcome, CONGEST metrics, and typed
//!   failures are **bit-identical** to the plain runs (pinned by
//!   `crates/core/tests/kmachine_equivalence.rs`); the returned
//!   [`KMachineReport`] pairs the measured [`MachineMetrics`] with the
//!   [`ConversionEstimate`] for the same run, so the theorem's shape can
//!   be compared against an actual simulated conversion (experiment E11).

use crate::runner::RunOutcome;
use crate::{DhcConfig, DhcError};
use dhc_congest::machine::{MachineMap, MachineMetrics, MachineRoundLog, MAX_MACHINES};
use dhc_congest::Metrics;
use dhc_graph::rng::rng_from_seed;
use dhc_graph::{Graph, NodeId};
use rand::Rng;

/// A random assignment of `n` graph nodes to `k` machines.
///
/// # Example
///
/// ```
/// use dhc_core::kmachine::RandomVertexPartition;
///
/// let rvp = RandomVertexPartition::new(1000, 10, 7);
/// assert_eq!(rvp.machine_count(), 10);
/// assert_eq!(rvp.loads().iter().sum::<usize>(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomVertexPartition {
    assignment: Vec<usize>,
    /// Nodes hosted per machine, tallied once at construction —
    /// `balance()` and the per-machine accounting read it in loops.
    loads: Vec<usize>,
    k: usize,
}

impl RandomVertexPartition {
    /// Assigns each of `n` nodes to one of `k` machines uniformly at
    /// random (seeded).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one machine");
        let mut rng = rng_from_seed(seed);
        let mut loads = vec![0usize; k];
        let assignment: Vec<usize> = (0..n)
            .map(|_| {
                let m = rng.gen_range(0..k);
                loads[m] += 1;
                m
            })
            .collect();
        RandomVertexPartition { assignment, loads, k }
    }

    /// The machine hosting node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn machine_of(&self, v: NodeId) -> usize {
        self.assignment[(v) as usize]
    }

    /// The full `node → machine` assignment.
    pub fn assignments(&self) -> &[usize] {
        &self.assignment
    }

    /// Number of machines `k`.
    pub fn machine_count(&self) -> usize {
        self.k
    }

    /// Nodes hosted per machine (precomputed at construction).
    pub fn loads(&self) -> &[usize] {
        &self.loads
    }

    /// `max load / (n/k)` — the RVP balance factor (close to 1 whp for
    /// `n ≫ k log k`).
    pub fn balance(&self) -> f64 {
        let n = self.assignment.len();
        if n == 0 {
            return 1.0;
        }
        let max = self.loads.iter().copied().max().unwrap_or(0) as f64;
        max / (n as f64 / self.k as f64)
    }
}

/// The KNPR conversion bound instantiated with measured CONGEST costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionEstimate {
    /// Measured CONGEST rounds `T`.
    pub congest_rounds: usize,
    /// Measured total messages `M`.
    pub messages: u64,
    /// Measured max per-node sends in one round `Δ'`.
    pub max_node_sends_per_round: usize,
    /// Number of machines `k`.
    pub k: usize,
    /// The bandwidth-balancing term `M/k²`.
    pub volume_term: f64,
    /// The hotspot term `T·Δ'/k`.
    pub hotspot_term: f64,
}

impl ConversionEstimate {
    /// Instantiates the conversion theorem's `Õ(M/k² + T·Δ'/k)` bound from
    /// a measured run.
    ///
    /// The result suppresses the polylog factors, as `Õ` does; it is a
    /// *shape* estimate for comparing algorithms and machine counts, not a
    /// wall-clock prediction.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn from_metrics(metrics: &Metrics, k: usize) -> Self {
        assert!(k > 0, "need at least one machine");
        let kf = k as f64;
        ConversionEstimate {
            congest_rounds: metrics.rounds,
            messages: metrics.messages,
            max_node_sends_per_round: metrics.max_node_sends_per_round,
            k,
            volume_term: metrics.messages as f64 / (kf * kf),
            hotspot_term: metrics.rounds as f64 * metrics.max_node_sends_per_round as f64 / kf,
        }
    }

    /// The combined `Õ`-bound (sum of both terms).
    pub fn round_bound(&self) -> f64 {
        self.volume_term + self.hotspot_term
    }
}

/// Configuration of a k-machine simulation run.
///
/// # Example
///
/// ```
/// use dhc_core::kmachine::KMachineConfig;
///
/// let kcfg = KMachineConfig::new(8).with_link_bandwidth_words(16).with_rvp_seed(5);
/// assert_eq!((kcfg.k, kcfg.link_bandwidth_words, kcfg.rvp_seed), (8, 16, 5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KMachineConfig {
    /// Number of machines `k`, from 1 to [`MAX_MACHINES`]. The run keeps
    /// `k²` per-link counters, so its memory grows as `k²`.
    pub k: usize,
    /// Per-directed-machine-link budget in words per k-machine round —
    /// the model's `O(polylog n)` bandwidth, made concrete.
    pub link_bandwidth_words: usize,
    /// Seed of the random vertex partition (independent of the
    /// algorithm's [`DhcConfig::seed`], as the model's RVP is).
    pub rvp_seed: u64,
}

impl KMachineConfig {
    /// A configuration for `k` machines with the default link bandwidth
    /// (8 words ≈ `log n` for the experiment scales) and RVP seed.
    pub fn new(k: usize) -> Self {
        KMachineConfig { k, link_bandwidth_words: 8, rvp_seed: 0x6B6D }
    }

    /// Replaces the per-link word budget.
    pub fn with_link_bandwidth_words(mut self, words: usize) -> Self {
        self.link_bandwidth_words = words;
        self
    }

    /// Replaces the RVP seed.
    pub fn with_rvp_seed(mut self, seed: u64) -> Self {
        self.rvp_seed = seed;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`DhcError::InvalidConfig`] for out-of-range values: `k`
    /// outside `1..=`[`MAX_MACHINES`] or a zero link bandwidth.
    pub fn validate(&self) -> Result<(), DhcError> {
        if self.k == 0 {
            return Err(DhcError::InvalidConfig { what: "k must be >= 1" });
        }
        if self.k > MAX_MACHINES {
            return Err(DhcError::InvalidConfig { what: "k must be <= 65536" });
        }
        if self.link_bandwidth_words == 0 {
            return Err(DhcError::InvalidConfig { what: "link_bandwidth_words must be >= 1" });
        }
        Ok(())
    }
}

/// Result of a measured k-machine simulation: the machine-level
/// accounting next to the conversion theorem's estimate for the *same*
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMachineReport {
    /// Measured machine-level cost (dilated rounds, per-link loads,
    /// per-machine hosted nodes and volumes).
    pub machine: MachineMetrics,
    /// The `Õ(M/k² + T·Δ'/k)` bound instantiated from the run's CONGEST
    /// metrics.
    pub estimate: ConversionEstimate,
    /// The RVP balance factor of the machine assignment used.
    pub rvp_balance: f64,
    /// Per-phase round logs (Phase 1's parallel classes merged into one
    /// log), retained so tests and experiments can audit the round-level
    /// link loads behind [`machine`](Self::machine).
    pub phase_logs: Vec<MachineRoundLog>,
}

impl KMachineReport {
    /// `measured k-machine rounds / estimate.round_bound()` — the
    /// constant the `Õ` bound hides for this run (∞ if the bound is 0).
    pub fn bound_factor(&self) -> f64 {
        let bound = self.estimate.round_bound();
        if bound == 0.0 {
            f64::INFINITY
        } else {
            self.machine.kmachine_rounds as f64 / bound
        }
    }
}

/// Internal carrier threaded through the algorithm runners when a
/// k-machine simulation is requested: owns the machine assignment and
/// accumulates each protocol phase's [`MachineRoundLog`] into sequential
/// [`MachineMetrics`].
pub(crate) struct KMachineProbe {
    assignment: Vec<usize>,
    k: usize,
    link_bandwidth_words: usize,
    acc: Option<MachineMetrics>,
    logs: Vec<MachineRoundLog>,
}

impl KMachineProbe {
    fn new(rvp: &RandomVertexPartition, link_bandwidth_words: usize) -> Self {
        KMachineProbe {
            assignment: rvp.assignments().to_vec(),
            k: rvp.machine_count(),
            link_bandwidth_words,
            acc: None,
            logs: Vec::new(),
        }
    }

    pub(crate) fn machine_count(&self) -> usize {
        self.k
    }

    pub(crate) fn machine_of(&self, v: NodeId) -> usize {
        self.assignment[(v) as usize]
    }

    /// The map for a whole-graph network (global node ids).
    pub(crate) fn global_map(&self) -> MachineMap {
        MachineMap::new(self.assignment.clone(), self.k)
    }

    /// The map for a partition-class network: local ids through the
    /// class member list (`local → global`).
    pub(crate) fn class_map(&self, members: &[NodeId]) -> MachineMap {
        MachineMap::new(members.iter().map(|&g| self.assignment[(g) as usize]).collect(), self.k)
    }

    /// Test-only: a probe with an explicit assignment (the public path
    /// always derives one from a [`RandomVertexPartition`]).
    #[cfg(test)]
    pub(crate) fn with_assignment(
        assignment: Vec<usize>,
        k: usize,
        link_bandwidth_words: usize,
    ) -> Self {
        KMachineProbe { assignment, k, link_bandwidth_words, acc: None, logs: Vec::new() }
    }

    /// Test-only: the absorbed per-phase logs.
    #[cfg(test)]
    pub(crate) fn logs(&self) -> &[MachineRoundLog] {
        &self.logs
    }

    /// Folds one completed phase's log into the sequential accumulator.
    /// Phases that ran concurrently in simulated time (Phase 1's classes)
    /// must be merged with
    /// [`MachineRoundLog::absorb_parallel`] *before* this call.
    pub(crate) fn absorb_phase_log(&mut self, log: MachineRoundLog) {
        let metrics = log.finalize(self.link_bandwidth_words);
        match &mut self.acc {
            Some(acc) => acc.merge_sequential(&metrics),
            None => self.acc = Some(metrics),
        }
        self.logs.push(log);
    }
}

/// Shared implementation of the `run_*_kmachine` entry points.
fn run_kmachine(
    graph: &Graph,
    cfg: &DhcConfig,
    kcfg: &KMachineConfig,
    run: impl FnOnce(&Graph, &DhcConfig, Option<&mut KMachineProbe>) -> Result<RunOutcome, DhcError>,
) -> Result<(RunOutcome, KMachineReport), DhcError> {
    kcfg.validate()?;
    let rvp = RandomVertexPartition::new(graph.node_count(), kcfg.k, kcfg.rvp_seed);
    let mut probe = KMachineProbe::new(&rvp, kcfg.link_bandwidth_words);
    // The k-machine wrapper gets its own root span; the wrapped
    // algorithm opens its usual `run` root alongside, so the JSONL
    // stream shows both the conversion and the underlying execution.
    let mut km_span = dhc_congest::Span::root(
        cfg.collector.as_ref(),
        "kmachine",
        format!("kmachine k={} n={}", kcfg.k, graph.node_count()),
    );
    let outcome = run(graph, cfg, Some(&mut probe))?;
    km_span.add(outcome.metrics.rounds as u64, outcome.metrics.messages, outcome.metrics.words);
    drop(km_span);
    let estimate = ConversionEstimate::from_metrics(&outcome.metrics, kcfg.k);
    let KMachineProbe { acc, logs, .. } = probe;
    let mut machine =
        acc.unwrap_or_else(|| MachineRoundLog::empty(kcfg.k).finalize(kcfg.link_bandwidth_words));
    machine.machine_nodes = rvp.loads().to_vec();
    Ok((
        outcome,
        KMachineReport { machine, estimate, rvp_balance: rvp.balance(), phase_logs: logs },
    ))
}

/// Runs the plain **DRA** under k-machine semantics: same outcome and
/// CONGEST metrics as [`crate::run_dra`], plus the measured machine-level
/// accounting.
///
/// # Errors
///
/// Exactly [`crate::run_dra`]'s errors, plus
/// [`DhcError::InvalidConfig`] for an invalid [`KMachineConfig`].
pub fn run_dra_kmachine(
    graph: &Graph,
    cfg: &DhcConfig,
    kcfg: &KMachineConfig,
) -> Result<(RunOutcome, KMachineReport), DhcError> {
    run_kmachine(graph, cfg, kcfg, crate::runner::run_dra_with)
}

/// Runs **DHC1** under k-machine semantics (see [`run_dra_kmachine`]).
///
/// # Errors
///
/// Exactly [`crate::run_dhc1`]'s errors, plus
/// [`DhcError::InvalidConfig`] for an invalid [`KMachineConfig`].
pub fn run_dhc1_kmachine(
    graph: &Graph,
    cfg: &DhcConfig,
    kcfg: &KMachineConfig,
) -> Result<(RunOutcome, KMachineReport), DhcError> {
    run_kmachine(graph, cfg, kcfg, crate::dhc1::run)
}

/// Runs **DHC2** under k-machine semantics (see [`run_dra_kmachine`]).
///
/// # Errors
///
/// Exactly [`crate::run_dhc2`]'s errors, plus
/// [`DhcError::InvalidConfig`] for an invalid [`KMachineConfig`].
pub fn run_dhc2_kmachine(
    graph: &Graph,
    cfg: &DhcConfig,
    kcfg: &KMachineConfig,
) -> Result<(RunOutcome, KMachineReport), DhcError> {
    run_kmachine(graph, cfg, kcfg, crate::dhc2::run)
}

/// Runs **Upcast** under k-machine semantics (see [`run_dra_kmachine`]).
/// Upcast's root hotspot shows up directly: the links into the root's
/// machine dominate [`MachineMetrics::link_total_words`].
///
/// # Errors
///
/// Exactly [`crate::run_upcast`]'s errors, plus
/// [`DhcError::InvalidConfig`] for an invalid [`KMachineConfig`].
pub fn run_upcast_kmachine(
    graph: &Graph,
    cfg: &DhcConfig,
    kcfg: &KMachineConfig,
) -> Result<(RunOutcome, KMachineReport), DhcError> {
    run_kmachine(graph, cfg, kcfg, |g, c, km| crate::upcast::run(g, c, false, km))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_dhc2, DhcConfig};
    use dhc_graph::{generator, rng::rng_from_seed as graph_rng, thresholds};

    #[test]
    fn rvp_covers_all_nodes() {
        let rvp = RandomVertexPartition::new(500, 7, 1);
        assert_eq!(rvp.loads().iter().sum::<usize>(), 500);
        assert!((0..500).all(|v| rvp.machine_of(v) < 7));
        // The precomputed loads match a fresh tally of the assignment.
        let mut tally = [0usize; 7];
        for &m in rvp.assignments() {
            tally[m] += 1;
        }
        assert_eq!(rvp.loads(), &tally[..]);
    }

    #[test]
    fn rvp_is_balanced_whp() {
        let rvp = RandomVertexPartition::new(100_000, 16, 2);
        assert!(rvp.balance() < 1.1, "balance {}", rvp.balance());
    }

    #[test]
    fn rvp_deterministic() {
        assert_eq!(RandomVertexPartition::new(100, 4, 9), RandomVertexPartition::new(100, 4, 9));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        RandomVertexPartition::new(10, 0, 0);
    }

    #[test]
    fn kmachine_config_validates() {
        assert!(KMachineConfig::new(4).validate().is_ok());
        assert!(KMachineConfig::new(0).validate().is_err());
        // Link indices are u32: k² must fit.
        assert!(KMachineConfig::new(MAX_MACHINES).validate().is_ok());
        assert!(matches!(
            KMachineConfig::new(MAX_MACHINES + 1).validate(),
            Err(DhcError::InvalidConfig { .. })
        ));
        assert!(KMachineConfig::new(4).with_link_bandwidth_words(0).validate().is_err());
    }

    #[test]
    fn conversion_terms_scale_with_k() {
        let m = Metrics {
            rounds: 1000,
            messages: 1_000_000,
            max_node_sends_per_round: 50,
            ..Default::default()
        };
        let e4 = ConversionEstimate::from_metrics(&m, 4);
        let e16 = ConversionEstimate::from_metrics(&m, 16);
        assert!(e16.round_bound() < e4.round_bound());
        assert!((e4.volume_term - 62_500.0).abs() < 1e-9);
        assert!((e4.hotspot_term - 12_500.0).abs() < 1e-9);
    }

    #[test]
    fn conversion_from_real_dhc2_run() {
        let n = 200;
        let p = thresholds::edge_probability(n, 0.5, 6.0);
        let g = generator::gnp(n, p, &mut graph_rng(70)).unwrap();
        let out = run_dhc2(&g, &DhcConfig::new(71).with_partitions(6)).unwrap();
        let est = ConversionEstimate::from_metrics(&out.metrics, 8);
        assert!(est.max_node_sends_per_round > 0);
        assert!(est.round_bound() > 0.0);
        // More machines, smaller bound.
        let est32 = ConversionEstimate::from_metrics(&out.metrics, 32);
        assert!(est32.round_bound() < est.round_bound());
    }

    #[test]
    fn measured_dhc2_matches_plain_run_and_accounts_machines() {
        let n = 200;
        let p = thresholds::edge_probability(n, 0.5, 6.0);
        let g = generator::gnp(n, p, &mut graph_rng(70)).unwrap();
        let cfg = DhcConfig::new(71).with_partitions(6);
        let plain = run_dhc2(&g, &cfg).unwrap();
        let kcfg = KMachineConfig::new(4).with_rvp_seed(9);
        let (out, report) = run_dhc2_kmachine(&g, &cfg, &kcfg).unwrap();
        // The backend is pure accounting: outcome and metrics unchanged.
        assert_eq!(out.cycle.order(), plain.cycle.order());
        assert_eq!(out.metrics, plain.metrics);
        assert_eq!(out.phases, plain.phases);
        // Machine accounting is present and self-consistent.
        let m = &report.machine;
        assert_eq!(m.k, 4);
        assert_eq!(m.machine_nodes.iter().sum::<usize>(), n);
        assert!(m.kmachine_rounds >= m.congest_rounds);
        assert!(m.cross_words() > 0, "a 4-machine run must cross links");
        assert_eq!(
            m.machine_sent_words.iter().sum::<u64>(),
            m.machine_recv_words.iter().sum::<u64>()
        );
        // Dilated rounds sit within a constant factor of the estimate.
        assert!(report.bound_factor().is_finite());
        // Diagonal links (intra-machine) never carry words.
        for mach in 0..4 {
            assert_eq!(m.link_total(mach, mach), 0);
        }
        // Phase logs: phase 1 + ceil(log2 6) = 3 merge levels.
        assert_eq!(report.phase_logs.len(), out.phases.len());
    }

    #[test]
    fn single_machine_run_is_all_intra() {
        let g = generator::complete(24);
        let cfg = DhcConfig::new(3);
        let (out, report) = run_dra_kmachine(&g, &cfg, &KMachineConfig::new(1)).unwrap();
        assert_eq!(out.cycle.len(), 24);
        assert_eq!(report.machine.cross_words(), 0);
        // Every executed round costs exactly the barrier round.
        assert_eq!(report.machine.kmachine_rounds, report.machine.congest_rounds);
        assert_eq!(report.machine.max_dilation, 1);
    }

    #[test]
    fn more_machines_fewer_kmachine_rounds_for_dhc2() {
        let n = 200;
        let p = thresholds::edge_probability(n, 0.5, 6.0);
        let g = generator::gnp(n, p, &mut graph_rng(70)).unwrap();
        let cfg = DhcConfig::new(71).with_partitions(6);
        let kcfg = |k| KMachineConfig::new(k).with_link_bandwidth_words(4).with_rvp_seed(1);
        let (_, r2) = run_dhc2_kmachine(&g, &cfg, &kcfg(2)).unwrap();
        let (_, r8) = run_dhc2_kmachine(&g, &cfg, &kcfg(8)).unwrap();
        assert!(
            r8.machine.kmachine_rounds < r2.machine.kmachine_rounds,
            "k=8 {} !< k=2 {}",
            r8.machine.kmachine_rounds,
            r2.machine.kmachine_rounds
        );
    }
}
