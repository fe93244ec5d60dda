//! Algorithm configuration.

use dhc_congest::{Adversary, CollectorHandle, Config as SimConfig, NodeId};

/// Configuration shared by all distributed algorithms in this crate.
///
/// # Example
///
/// ```
/// use dhc_core::DhcConfig;
///
/// let cfg = DhcConfig::new(42).with_delta(0.5).with_max_rounds(500_000);
/// assert_eq!(cfg.seed, 42);
/// assert_eq!(cfg.delta, 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DhcConfig {
    /// Master seed; every node derives its own stream from it.
    pub seed: u64,
    /// The paper's sparsity exponent `δ ∈ (0, 1]`: DHC2 uses
    /// `n^{1-δ}` partitions (`δ = 0.5` reproduces DHC1's `√n`;
    /// `δ = 1` is a single partition, i.e. plain DRA).
    pub delta: f64,
    /// Overrides the partition count directly (takes precedence over
    /// [`delta`](Self::delta) when set).
    pub partitions: Option<usize>,
    /// Hard cap on simulated rounds per protocol phase.
    pub max_rounds: usize,
    /// Per-edge-per-round bandwidth in `Θ(log n)`-bit words. The protocol
    /// messages carry up to ~9 ids, i.e. still `O(log n)` bits; the default
    /// budget of 16 words keeps the CONGEST discipline (constant words per
    /// edge per round) while letting one protocol message fit in one round.
    pub bandwidth_words: usize,
    /// Upcast: each node samples `ceil(sample_factor · ln n)` incident
    /// edges (the paper's `c' log n`).
    pub sample_factor: f64,
    /// Worker threads for Phase 1's independent per-partition DRA
    /// simulations: `1` (the default) runs them sequentially, `0` uses
    /// all available cores. Results are **identical for every value**
    /// — each partition's simulation is an isolated deterministic run
    /// keyed by the master seed, and outputs are folded in partition
    /// order — so this trades wall-clock time only.
    pub parallelism: usize,
    /// Optional seeded fault model applied to **every** simulation an
    /// algorithm runs (Phase-1 per-class runs, DHC1 stitching, DHC2
    /// merge levels, Upcast): message drop / duplicate / bounded delay
    /// and node crash/restart schedules, all pure functions of the fault
    /// seed. `None` (the default) — or [`Adversary::none`] — keeps the
    /// clean synchronous CONGEST model of the paper, bit-for-bit. Crash
    /// schedules name *global* node ids; per-class runs translate them
    /// to class-local ids and give each class its own fault stream (see
    /// [`Adversary::for_class`]).
    pub adversary: Option<Adversary>,
    /// Optional telemetry collector (see the `dhc-obs` crate), attached to
    /// **every** simulation an algorithm runs (Phase-1 per-class runs,
    /// DHC1 stitching, DHC2 merge levels, Upcast) and driven by the
    /// runners' span hierarchy (`run → phase → class / merge-level`).
    /// Pure observation: outcomes, [`dhc_congest::Metrics`], traces,
    /// and realized fault schedules are **bit-identical** with and
    /// without a collector, and its aggregates are identical at every
    /// [`parallelism`](Self::parallelism) level (pinned by
    /// `crates/core/tests/obs_equivalence.rs`).
    pub collector: Option<CollectorHandle>,
}

impl DhcConfig {
    /// Creates a configuration with the given seed and defaults matching
    /// the paper's operating points.
    pub fn new(seed: u64) -> Self {
        DhcConfig {
            seed,
            delta: 0.5,
            partitions: None,
            max_rounds: 5_000_000,
            bandwidth_words: 16,
            sample_factor: 8.0,
            parallelism: 1,
            adversary: None,
            collector: None,
        }
    }

    /// Sets the sparsity exponent `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Overrides the number of Phase-1 partitions.
    pub fn with_partitions(mut self, k: usize) -> Self {
        self.partitions = Some(k);
        self
    }

    /// Sets the per-phase round cap.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the Upcast sampling factor (`c'`).
    pub fn with_sample_factor(mut self, f: f64) -> Self {
        self.sample_factor = f;
        self
    }

    /// Sets the Phase-1 worker-thread count (`0` = all available
    /// cores). Parallelism never changes results, only wall-clock time;
    /// see [`parallelism`](Self::parallelism).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// Attaches a seeded fault model to every simulation the algorithms
    /// run; see [`adversary`](Self::adversary).
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Attaches a telemetry collector to every simulation the algorithms
    /// run. Pure observation — see [`collector`](Self::collector).
    pub fn with_collector(mut self, collector: CollectorHandle) -> Self {
        self.collector = Some(collector);
        self
    }

    /// The concrete worker-thread count for `jobs` independent
    /// partition simulations, resolving `parallelism == 0` to the
    /// machine's available cores and never exceeding the job count.
    pub fn effective_parallelism(&self, jobs: usize) -> usize {
        let requested = if self.parallelism == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            self.parallelism
        };
        requested.min(jobs).max(1)
    }

    /// Number of Phase-1 partitions for an `n`-node graph.
    pub fn partition_count(&self, n: usize) -> usize {
        match self.partitions {
            Some(k) => k.clamp(1, n.max(1)),
            None => dhc_graph::thresholds::num_partitions(n.max(1), self.delta),
        }
    }

    /// The simulator configuration corresponding to this algorithm
    /// configuration, for whole-graph simulations (DRA over all nodes,
    /// DHC1 stitching, DHC2 merge levels, Upcast). Any configured
    /// [`adversary`](Self::adversary) is attached as-is.
    pub fn sim_config(&self) -> SimConfig {
        let mut sim = SimConfig::default()
            .with_max_rounds(self.max_rounds)
            .with_bandwidth_words(self.bandwidth_words);
        if let Some(adv) = &self.adversary {
            sim = sim.with_adversary(adv.clone());
        }
        if let Some(col) = &self.collector {
            sim = sim.with_collector(col.clone());
        }
        sim
    }

    /// The simulator configuration for one Phase-1 color class simulated
    /// over local ids: like [`sim_config`](Self::sim_config), but any
    /// configured adversary is translated with
    /// [`Adversary::for_class`] — crash schedules map global node ids to
    /// the class's local ids (crashes outside `members` do not apply),
    /// and each class gets its own fault stream.
    pub fn sim_config_for_class(&self, color: u32, members: &[NodeId]) -> SimConfig {
        let mut sim = self.sim_config();
        sim.adversary = self.adversary.as_ref().map(|adv| adv.for_class(members, color));
        sim
    }

    /// Validates parameter ranges, including an attached adversary's
    /// delay knob (delaying needs `max_delay >= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`DhcError::InvalidConfig`](crate::DhcError::InvalidConfig)
    /// for out-of-range values.
    pub fn validate(&self) -> Result<(), crate::DhcError> {
        if !(self.delta > 0.0 && self.delta <= 1.0) {
            return Err(crate::DhcError::InvalidConfig { what: "delta must be in (0, 1]" });
        }
        if self.bandwidth_words == 0 {
            return Err(crate::DhcError::InvalidConfig { what: "bandwidth_words must be >= 1" });
        }
        if self.sample_factor <= 0.0 {
            return Err(crate::DhcError::InvalidConfig { what: "sample_factor must be positive" });
        }
        if self.adversary.as_ref().is_some_and(|a| a.delay_ppm > 0 && a.max_delay == 0) {
            return Err(crate::DhcError::InvalidConfig {
                what: "adversary delay needs max_delay >= 1",
            });
        }
        Ok(())
    }

    /// The checks every entry point makes before it builds a network:
    /// [`validate`](Self::validate), a graph of at least 3 nodes, and a
    /// crash schedule that names only nodes of the `n`-node graph.
    pub(crate) fn validate_run(&self, n: usize) -> Result<(), crate::DhcError> {
        self.validate()?;
        if n < 3 {
            return Err(crate::DhcError::GraphTooSmall { n });
        }
        if self.adversary.iter().flat_map(|a| &a.crashes).any(|c| c.node as usize >= n) {
            return Err(crate::DhcError::InvalidConfig {
                what: "adversary crash schedule names a node outside the graph",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_count_follows_delta() {
        let cfg = DhcConfig::new(0).with_delta(0.5);
        assert_eq!(cfg.partition_count(1024), 32);
        let cfg = DhcConfig::new(0).with_delta(1.0);
        assert_eq!(cfg.partition_count(1024), 1);
    }

    #[test]
    fn partition_override_wins() {
        let cfg = DhcConfig::new(0).with_delta(0.5).with_partitions(7);
        assert_eq!(cfg.partition_count(1024), 7);
        // Clamped to n.
        let cfg = DhcConfig::new(0).with_partitions(500);
        assert_eq!(cfg.partition_count(10), 10);
    }

    #[test]
    fn validation() {
        assert!(DhcConfig::new(0).validate().is_ok());
        assert!(DhcConfig::new(0).with_delta(0.0).validate().is_err());
        assert!(DhcConfig::new(0).with_delta(1.5).validate().is_err());
        let mut cfg = DhcConfig::new(0);
        cfg.sample_factor = -1.0;
        assert!(cfg.validate().is_err());
        let no_bound = Adversary { delay_ppm: 500_000, ..Adversary::seeded(1) };
        assert!(DhcConfig::new(0).with_adversary(no_bound).validate().is_err());
        let crash = DhcConfig::new(0).with_adversary(Adversary::seeded(1).with_crash(9, 1, None));
        assert!(crash.validate().is_ok() && crash.validate_run(10).is_ok());
        assert!(crash.validate_run(9).is_err());
        assert!(matches!(crash.validate_run(2), Err(crate::DhcError::GraphTooSmall { n: 2 })));
    }

    #[test]
    fn parallelism_resolution() {
        let cfg = DhcConfig::new(0);
        assert_eq!(cfg.parallelism, 1);
        assert_eq!(cfg.effective_parallelism(100), 1);
        let cfg = cfg.with_parallelism(8);
        assert_eq!(cfg.effective_parallelism(3), 3); // never more threads than jobs
        assert_eq!(cfg.effective_parallelism(100), 8);
        assert_eq!(cfg.effective_parallelism(0), 1); // degenerate job count
        let auto = DhcConfig::new(0).with_parallelism(0);
        assert!(auto.effective_parallelism(usize::MAX) >= 1);
    }

    #[test]
    fn sim_config_propagates() {
        let cfg = DhcConfig::new(0).with_max_rounds(123);
        assert_eq!(cfg.sim_config().max_rounds, 123);
        assert_eq!(cfg.sim_config().bandwidth_words, 16);
    }

    #[test]
    fn collector_propagates_to_every_sim_config() {
        struct Noop;
        impl dhc_congest::Collector for Noop {}
        let cfg = DhcConfig::new(0);
        assert_eq!(cfg.sim_config().collector, None);
        assert_eq!(cfg.sim_config_for_class(0, &[0, 1]).collector, None);
        let handle = CollectorHandle::new(Noop);
        let cfg = cfg.with_collector(handle.clone());
        // Both whole-graph and per-class simulations share the one handle.
        assert_eq!(cfg.sim_config().collector, Some(handle.clone()));
        assert_eq!(cfg.sim_config_for_class(3, &[0, 1]).collector, Some(handle));
    }

    #[test]
    fn adversary_propagates_whole_graph_and_per_class() {
        let cfg = DhcConfig::new(0);
        assert_eq!(cfg.sim_config().adversary, None);
        assert_eq!(cfg.sim_config_for_class(0, &[0, 1]).adversary, None);

        let adv = Adversary::seeded(9).with_drop_ppm(5).with_crash(4, 2, None);
        let cfg = cfg.with_adversary(adv.clone());
        assert_eq!(cfg.sim_config().adversary, Some(adv.clone()));
        // Per-class: the class containing global node 4 (local id 1)
        // keeps the crash under its local id; another class drops it.
        let with4 = cfg.sim_config_for_class(1, &[2, 4, 7]).adversary.unwrap();
        assert_eq!(with4.crashes.len(), 1);
        assert_eq!(with4.crashes[0].node, 1);
        assert_eq!(with4.drop_ppm, 5);
        let without4 = cfg.sim_config_for_class(2, &[0, 5]).adversary.unwrap();
        assert!(without4.crashes.is_empty());
        assert_ne!(with4.fault_seed, without4.fault_seed);
    }
}
