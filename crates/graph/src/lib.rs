//! Random-graph substrate for the distributed Hamiltonian-cycle workspace.
//!
//! This crate provides everything the algorithms of Chatterjee, Fathi,
//! Pandurangan and Pham (ICDCS 2018) need from the *input* side:
//!
//! * a compact immutable [`Graph`] (CSR adjacency) plus a mutable
//!   [`GraphBuilder`],
//! * the random-graph generators the paper evaluates on —
//!   [`generator::gnp`] for the Erdős–Rényi `G(n, p)` model, as well as the
//!   `G(n, M)` and random-regular models mentioned as extensions,
//! * structural queries used by the analysis: BFS ([`bfs`]), exact and
//!   estimated diameter ([`diameter`]), connectivity,
//! * vertex [`partition`]s and their induced subgraphs: one selection
//!   ([`Graph::induced_subgraph`]), or every class of a partition in one
//!   `O(n + m)` pass ([`Graph::class_subgraphs`], Phase 1 of DHC1/DHC2),
//! * a strict Hamiltonian-cycle verifier ([`cycle`]),
//! * deterministic seeding helpers ([`rng`]) so every experiment is
//!   reproducible from a single `u64`.
//!
//! # Example
//!
//! ```
//! use dhc_graph::{generator, rng, thresholds};
//!
//! # fn main() -> Result<(), dhc_graph::GraphError> {
//! let n = 512;
//! // Edge probability at the paper's DHC1 operating point: p = c ln n / sqrt(n).
//! let p = thresholds::edge_probability(n, 0.5, 4.0);
//! let mut rng = rng::rng_from_seed(7);
//! let g = generator::gnp(n, p, &mut rng)?;
//! assert_eq!(g.node_count(), 512);
//! assert!(g.is_connected());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
pub mod bfs;
pub mod cycle;
pub mod diameter;
mod error;
pub mod generator;
pub mod partition;
pub mod rng;
pub mod stats;
pub mod thresholds;

pub use adjacency::{EdgeIter, Graph, GraphBuilder};
pub use cycle::HamiltonianCycle;
pub use error::GraphError;
pub use partition::Partition;

/// Node identifier inside a [`Graph`]: a dense index in `0..n`.
///
/// Stored as `u32` — a CONGEST word is `Θ(log n)` bits and every graph
/// this workspace simulates satisfies `n ≤ 2³²`, so a 32-bit id *is* a
/// word. Halving the id width halves the footprint of every id-bearing
/// array on the hot path (CSR neighbor lists, partition member lists,
/// message routing buckets). Indexing into `Vec`s widens with `as usize`
/// (infallible on 64-bit targets).
pub type NodeId = u32;

/// Widens a [`NodeId`] to a `usize` index (infallible: `u32 → usize`).
#[inline(always)]
pub const fn nix(v: NodeId) -> usize {
    v as usize
}
