//! Random and deterministic graph generators.
//!
//! The primary model is Erdős–Rényi [`gnp`]; [`gnm`] and
//! [`random_regular`] cover the extensions the paper's conclusion mentions,
//! and [`classic`] provides deterministic fixtures for tests and demos.

mod chung_lu;
pub mod classic;
mod clustered;
mod gnm;
mod gnp;
mod regular;
mod skip;

pub use chung_lu::chung_lu;
pub use classic::{complete, cycle as cycle_graph, grid, path as path_graph, petersen, star};
pub use clustered::clustered;
pub use gnm::gnm;
pub use gnp::gnp;
pub use regular::random_regular;
