//! Distributed Hamiltonian-cycle algorithms in the CONGEST model.
//!
//! This crate is the primary contribution of the workspace: faithful,
//! message-level implementations of the algorithms of *Fast and Efficient
//! Distributed Computation of Hamiltonian Cycles in Random Graphs*
//! (Chatterjee, Fathi, Pandurangan, Pham; ICDCS 2018), running on the
//! [`dhc_congest`] simulator:
//!
//! * [`dra`] — the **Distributed Rotation Algorithm** (the paper's
//!   Algorithm 1): per-partition leader election (flood/echo waves), path
//!   growth by random unused edges, rotation renumbering broadcast with
//!   echo-based termination, and cycle closing. Run on a single partition
//!   (`δ = 1`) it is itself a distributed HC algorithm in `O~(n)` rounds.
//! * [`dhc1`] — Algorithm 2 (`p = c ln n / √n`): Phase 1 partitions the
//!   graph into `√n` color classes that run DRA in parallel; Phase 2 forms
//!   one *hypernode* per subcycle and runs a terminal-aware DRA over the
//!   hypernode graph to stitch the subcycles. Its rotation flood with echo
//!   is DRA's: one private `flood` module holds it, and the broadcast or
//!   unicast choice of DRA's and the merge levels' subset floods.
//! * [`dhc2`] — Algorithm 3 (`p = c ln n / n^δ`): Phase 1 with `n^{1-δ}`
//!   classes; Phase 2 merges cycle pairs level by level through *bridges*
//!   (two vertex-disjoint cross edges), `⌈log₂ n^{1-δ}⌉` levels.
//! * [`upcast`] — the centralized baseline of the paper's §III: leader
//!   election + BFS tree, `Θ(log n)` edge samples per node, pipelined
//!   upcast, local solve at the root (via [`dhc_rotation::posa`]), and a
//!   routed downcast of each node's two cycle edges.
//! * [`kmachine`] — the paper's §IV k-machine conversion, both
//!   **estimated** ([`kmachine::ConversionEstimate`], the KNPR
//!   `Õ(M/k² + T·Δ'/k)` bound on measured CONGEST metrics) and
//!   **measured** ([`run_dra_kmachine`] / [`run_dhc1_kmachine`] /
//!   [`run_dhc2_kmachine`] / [`run_upcast_kmachine`]: the unchanged
//!   protocols execute with the simulator's machine accounting layer
//!   attached, and the run's real link loads and dilated round count come
//!   back in a [`KMachineReport`]).
//!
//! Every algorithm returns a [`RunOutcome`] containing the verified
//! [`dhc_graph::HamiltonianCycle`] and full [`dhc_congest::Metrics`]
//! (rounds, messages, words, per-node memory and compute) — the quantities
//! the paper's theorems bound — or a typed [`DhcError`], also under an
//! adversary: a message that breaks a protocol's state is a
//! [`dhc_congest::SimError::ProtocolViolation`], not a panic.
//!
//! # Example
//!
//! ```
//! use dhc_core::{run_dhc2, DhcConfig};
//! use dhc_graph::{generator, rng::rng_from_seed, thresholds};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 256;
//! let delta = 0.5;
//! let p = thresholds::edge_probability(n, delta, 6.0);
//! let g = generator::gnp(n, p, &mut rng_from_seed(42))?;
//! // 8 partitions of ~32 nodes each (the delta-derived default of sqrt(n)
//! // partitions would make the per-partition subgraphs very small at this n).
//! let outcome = run_dhc2(&g, &DhcConfig::new(7).with_delta(delta).with_partitions(8))?;
//! assert_eq!(outcome.cycle.len(), n);
//! println!("rounds: {}", outcome.metrics.rounds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod dhc1;
pub mod dhc2;
pub mod dra;
mod error;
mod flood;
pub mod kmachine;
mod output;
mod runner;
pub mod upcast;

pub use config::DhcConfig;
pub use dhc_congest::{
    Adversary, Collector, CollectorHandle, CrashEvent, FaultObs, RoundObs, Span,
};
pub use error::{DhcError, PartitionFailure};
pub use kmachine::{
    run_dhc1_kmachine, run_dhc2_kmachine, run_dra_kmachine, run_upcast_kmachine, KMachineConfig,
    KMachineReport,
};
pub use output::{cycle_from_incident_pairs, NodeCycleOutput};
pub use runner::{
    run_collect_all, run_dhc1, run_dhc2, run_dhc2_with_colors, run_dra, run_partition_cycles,
    run_upcast, PhaseBreakdown, RunOutcome, Subcycle,
};

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    /// Every effect and mailbox buffer holds messages by value, so a
    /// `usize` field added to a message type could silently grow them all.
    #[test]
    fn message_sizes_fit_the_compact_wire() {
        let sizes = [
            ("DraMsg", size_of::<crate::dra::DraMsg>(), 28),
            ("HypMsg", size_of::<crate::dhc1::HypMsg>(), 28),
            ("MergeMsg", size_of::<crate::dhc2::MergeMsg>(), 36),
            ("UpMsg", size_of::<crate::upcast::UpMsg>(), 16),
        ];
        for (name, size, max) in sizes {
            assert!(size <= max, "{name} is {size} bytes, over its {max}-byte budget");
        }
    }
}
