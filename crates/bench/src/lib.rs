//! Experiment harness for the paper-reproduction workspace.
//!
//! The paper is a theory paper — its "evaluation" is a set of theorems.
//! This crate regenerates each quantitative claim empirically (see
//! `PAPER.md` at the workspace root for the claim ↔ experiment map):
//!
//! * [`stats`] — means, standard deviations, quantiles, and log-log
//!   power-law fits (for scaling-exponent checks);
//! * [`table`] — plain-text table rendering used by the `experiments`
//!   binary;
//! * [`workload`] — the `G(n, p)` operating points of the paper
//!   (`p = c ln n / n^δ`) plus trial sweeps spread over the cores with
//!   `dhc_pool::run_mut`;
//! * [`baseline`] — writing and carrying forward the committed
//!   `BENCH_*.json` baselines in the shared `dhc-bench/v1` envelope
//!   (`dhc_obs::schema`);
//! * [`engine_probe`] — the flood-echo and broadcast-storm
//!   microprotocols used to track the round engine's throughput
//!   (experiment E13);
//! * [`experiments`] — one module per experiment, listed in
//!   [`experiments::CATALOG`].
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run --release -p dhc-bench --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine_probe;
pub mod experiments;
pub mod stats;
pub mod table;
pub mod workload;
