//! Sequential extension–rotation algorithms for Hamiltonian cycles in
//! random graphs.
//!
//! This crate implements the classical randomized procedure of Angluin and
//! Valiant (the "rotation algorithm", also treated in Mitzenmacher & Upfal
//! ch. 5) that the paper's **Distributed Rotation Algorithm (DRA)**
//! distributes:
//!
//! * [`RotationPath`] — the path data structure: a circular array whose
//!   Pósa rotations reverse either the suffix or, with an orientation
//!   flip, the other arc, whichever is shorter (`min(h − j, j + 1 + n −
//!   len)` moves), with position bookkeeping matching the paper's
//!   renumbering rule `i ← h + j + 1 − i`;
//! * [`posa`] — the full algorithm: grow a path by random unused edges,
//!   rotate on collisions, close when the head reaches the tail; fully
//!   instrumented ([`RotationStats`]) so experiment **E1** can check the
//!   `7 n ln n` step bound of Theorem 2;
//! * [`posa_subsampled`] — the *relaxed* process from the Theorem 2 proof,
//!   in which every node's unused list is an independent `q`-subsample
//!   (`q = 1 − √(1−p)`) of its incident edges;
//! * [`greedy`] — a no-rotation baseline demonstrating why rotations are
//!   necessary (ablation experiment).
//!
//! The Upcast algorithm's root uses [`posa`] as its local solver.
//!
//! # Example
//!
//! ```
//! use dhc_graph::{generator, rng::rng_from_seed, thresholds};
//! use dhc_rotation::{posa, PosaConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 256;
//! let p = thresholds::edge_probability(n, 1.0, 8.0); // c ln n / n
//! let mut rng = rng_from_seed(1);
//! let g = generator::gnp(n, p, &mut rng)?;
//! let (cycle, stats) = posa(&g, &PosaConfig::default(), &mut rng)?;
//! assert_eq!(cycle.len(), n);
//! assert!(stats.steps <= dhc_graph::thresholds::dra_step_budget(n, 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod greedy;
mod path;
mod posa;
mod stats;

pub use error::RotationError;
pub use greedy::{greedy, GreedyOutcome};
pub use path::RotationPath;
pub use posa::{posa, posa_subsampled, posa_with_restarts, PosaConfig};
pub use stats::RotationStats;
