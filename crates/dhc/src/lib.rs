//! Distributed computation of Hamiltonian cycles in random graphs —
//! a full reproduction of Chatterjee, Fathi, Pandurangan, Pham,
//! *Fast and Efficient Distributed Computation of Hamiltonian Cycles in
//! Random Graphs* (ICDCS 2018), as a Rust workspace.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — `G(n, p)` / `G(n, M)` / random-regular generators, CSR
//!   adjacency, BFS/diameter, partitions and their class subgraphs
//!   ([`Graph::class_subgraphs`]), cycle verification;
//! * [`congest`] — the synchronous CONGEST-model simulator with bandwidth
//!   enforcement, per-node resource metrics, and an optional k-machine
//!   accounting layer (intra-machine messages free, bandwidth-limited
//!   machine-pair links, round dilation);
//! * [`rotation`] — the sequential Angluin–Valiant / Pósa rotation solver;
//! * [`core`] — the paper's distributed algorithms (DRA, DHC1, DHC2,
//!   Upcast) and their runners;
//! * [`obs`] — the streaming telemetry layer: pure-observation
//!   [`Collector`]s driven by the engine's commit fold, `run → phase →
//!   class / merge-level` spans, float-free log2 histograms, and
//!   versioned JSONL run records (attach via
//!   [`DhcConfig::with_collector`]).
//!
//! # Quickstart
//!
//! ```
//! use dhc::core::{run_dhc2, DhcConfig};
//! use dhc::graph::{generator, rng::rng_from_seed, thresholds};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 256;
//! let p = thresholds::edge_probability(n, 0.5, 6.0);
//! let g = generator::gnp(n, p, &mut rng_from_seed(1))?;
//! // Phase 1 runs its independent per-partition simulations on two
//! // worker threads; any parallelism level yields identical results.
//! let cfg = DhcConfig::new(7).with_partitions(8).with_parallelism(2);
//! let outcome = run_dhc2(&g, &cfg)?;
//! assert_eq!(outcome.cycle.len(), n);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dhc_congest as congest;
pub use dhc_core as core;
pub use dhc_graph as graph;
pub use dhc_obs as obs;
pub use dhc_rotation as rotation;

// Most-used items at the top level for convenience.
pub use dhc_congest::{Adversary, CrashEvent, MachineMap, MachineMetrics, MachineRoundLog};
pub use dhc_core::{
    run_collect_all, run_dhc1, run_dhc1_kmachine, run_dhc2, run_dhc2_kmachine, run_dra,
    run_dra_kmachine, run_upcast, run_upcast_kmachine, DhcConfig, DhcError, KMachineConfig,
    KMachineReport, RunOutcome,
};
pub use dhc_graph::{Graph, HamiltonianCycle, Partition};
pub use dhc_obs::{Collector, CollectorHandle, Hist, Manifest, RunObserver, Span};

/// Compiles the workspace README's code blocks as doctests, so the
/// documented quickstart can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;
