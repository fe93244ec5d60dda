//! Simulation configuration.

use crate::adversary::Adversary;
use dhc_obs::CollectorHandle;

/// Engine configuration: round budget, bandwidth, tracing, and the
/// optional fault and telemetry layers.
///
/// # Example
///
/// ```
/// let cfg = dhc_congest::Config::default()
///     .with_max_rounds(10_000)
///     .with_bandwidth_words(2);
/// assert_eq!(cfg.max_rounds, 10_000);
/// assert_eq!(cfg.bandwidth_words, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Hard cap on simulated rounds; exceeding it is
    /// [`SimError::RoundLimitExceeded`](crate::SimError::RoundLimitExceeded).
    pub max_rounds: usize,
    /// Per-directed-edge, per-round budget in message words (the CONGEST
    /// `B`, in units of `Θ(log n)`-bit words). Default 1.
    pub bandwidth_words: usize,
    /// Capacity of the engine event trace (sends, halts, wake-ups);
    /// 0 (the default) disables tracing.
    pub trace_capacity: usize,
    /// Optional seeded fault model (message drop/duplicate/delay, node
    /// crash/restart). `None` (the default) — or a null adversary —
    /// runs the clean synchronous CONGEST engine unchanged; see
    /// [`Adversary`].
    pub adversary: Option<Adversary>,
    /// Optional telemetry collector (see [`dhc_obs`]). Like the
    /// k-machine layer, a collector is **pure observation**: it is
    /// driven once per committed round from the engine's bookkeeping,
    /// after the commit fold, so attaching one cannot change outcomes,
    /// [`Metrics`](crate::Metrics), traces, or realized fault schedules.
    /// `None` (the default) skips every telemetry code path.
    pub collector: Option<CollectorHandle>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_rounds: 1_000_000,
            bandwidth_words: 1,
            trace_capacity: 0,
            adversary: None,
            collector: None,
        }
    }
}

impl Config {
    /// Returns the configuration with the round cap replaced.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Returns the configuration with the per-edge bandwidth replaced.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn with_bandwidth_words(mut self, words: usize) -> Self {
        assert!(words > 0, "bandwidth must be at least one word");
        self.bandwidth_words = words;
        self
    }

    /// Returns the configuration with event tracing enabled at the given
    /// capacity.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Returns the configuration with the given seeded fault model
    /// attached. A null adversary ([`Adversary::is_null`]) is detected
    /// at network construction and leaves the clean engine code paths
    /// bit-for-bit untouched.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Returns the configuration with the given telemetry collector
    /// attached. Pure observation — see [`collector`](Self::collector).
    pub fn with_collector(mut self, collector: CollectorHandle) -> Self {
        self.collector = Some(collector);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_congest() {
        let c = Config::default();
        assert_eq!(c.bandwidth_words, 1);
        assert!(c.max_rounds >= 1000);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_bandwidth_rejected() {
        Config::default().with_bandwidth_words(0);
    }

    #[test]
    fn builder_chains() {
        let c = Config::default().with_max_rounds(5).with_bandwidth_words(3);
        assert_eq!((c.max_rounds, c.bandwidth_words), (5, 3));
    }

    #[test]
    fn collector_attaches_and_compares_by_identity() {
        struct Noop;
        impl dhc_obs::Collector for Noop {}
        assert_eq!(Config::default().collector, None);
        let handle = CollectorHandle::new(Noop);
        let a = Config::default().with_collector(handle.clone());
        let b = Config::default().with_collector(handle);
        let c = Config::default().with_collector(CollectorHandle::new(Noop));
        // Same collector → equal configs; different collector → not.
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn adversary_attaches() {
        assert_eq!(Config::default().adversary, None);
        let c = Config::default().with_adversary(Adversary::seeded(3).with_drop_ppm(100));
        assert_eq!(c.adversary.as_ref().map(|a| a.drop_ppm), Some(100));
    }
}
