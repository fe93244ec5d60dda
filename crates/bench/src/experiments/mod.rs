//! One module per experiment; see `PAPER.md` for the claim map.
//!
//! Every experiment exposes `Params` (with `full()`, `quick()`, and tiny
//! `smoke()` constructors — the latter keeps unit tests fast) and a
//! `run(&Params, seed) -> String` that renders the report the
//! `experiments` binary prints.

pub mod e10_ablations;
pub mod e11_kmachine;
pub mod e12_other_models;
pub mod e13_engine;
pub mod e14_partition;
pub mod e15_adversary;
pub mod e16_scale;
pub mod e1_dra_steps;
pub mod e2_partition_balance;
pub mod e3_dhc1_scaling;
pub mod e4_dhc2_scaling;
pub mod e5_merge_levels;
pub mod e6_upcast_sqrt;
pub mod e7_upcast_general;
pub mod e8_resources;
pub mod e9_comparison;

/// Effort level shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Full paper-scale sweep (minutes).
    Full,
    /// Reduced sweep (tens of seconds).
    Quick,
    /// Tiny smoke run for tests (sub-second to seconds).
    Smoke,
}

/// Runs one experiment by id (`"e1"` … `"e16"`), returning its report.
/// `heavy` opts into the experiment points that take over a minute per
/// run (E13's end-to-end DHC1 at n = 10⁴, E15's delay/crash sweeps, and
/// E16's scale points past n = 10⁵); without it those
/// points are skipped with a printed notice. `progress` attaches a
/// `dhc-obs` [`dhc_obs::RunObserver`] with a stderr heartbeat to the
/// long-running runs (E13's end-to-end DHC1, E16's scale points) so
/// multi-minute sweeps show live round counts.
///
/// # Errors
///
/// Returns `Err` with the unknown id for anything else.
pub fn run_by_id(
    id: &str,
    effort: Effort,
    heavy: bool,
    progress: bool,
    seed: u64,
) -> Result<String, String> {
    let report = match id {
        "e1" => e1_dra_steps::run(&e1_dra_steps::Params::for_effort(effort), seed),
        "e2" => e2_partition_balance::run(&e2_partition_balance::Params::for_effort(effort), seed),
        "e3" => e3_dhc1_scaling::run(&e3_dhc1_scaling::Params::for_effort(effort), seed),
        "e4" => e4_dhc2_scaling::run(&e4_dhc2_scaling::Params::for_effort(effort), seed),
        "e5" => e5_merge_levels::run(&e5_merge_levels::Params::for_effort(effort), seed),
        "e6" => e6_upcast_sqrt::run(&e6_upcast_sqrt::Params::for_effort(effort), seed),
        "e7" => e7_upcast_general::run(&e7_upcast_general::Params::for_effort(effort), seed),
        "e8" => e8_resources::run(&e8_resources::Params::for_effort(effort), seed),
        "e9" => e9_comparison::run(&e9_comparison::Params::for_effort(effort), seed),
        "e10" => e10_ablations::run(&e10_ablations::Params::for_effort(effort), seed),
        "e11" => e11_kmachine::run(&e11_kmachine::Params::for_effort(effort), seed),
        "e12" => e12_other_models::run(&e12_other_models::Params::for_effort(effort), seed),
        "e13" => {
            let mut p = e13_engine::Params::for_effort(effort).gated(heavy);
            p.progress = progress;
            e13_engine::run(&p, seed)
        }
        "e14" => e14_partition::run(&e14_partition::Params::for_effort(effort), seed),
        "e15" => e15_adversary::run(&e15_adversary::Params::for_effort(effort).gated(heavy), seed),
        "e16" => {
            let mut p = e16_scale::Params::for_effort(effort).gated(heavy);
            p.progress = progress;
            e16_scale::run(&p, seed)
        }
        other => return Err(format!("unknown experiment id: {other}")),
    };
    Ok(report)
}

/// All experiments in order: `(id, one-line description)` — what the
/// binary's `--list` flag prints.
pub const CATALOG: [(&str, &str); 16] = [
    ("e1", "Theorem 2: DRA rotation-walk steps and rounds on a single partition"),
    ("e2", "Lemmas 4 and 7: random-coloring class balance and intra-class degrees"),
    ("e3", "Theorem 1: DHC1 round/message scaling at p = c ln n / sqrt(n)"),
    ("e4", "Theorem 10: DHC2 round/message scaling at p = c ln n / n^delta"),
    ("e5", "Lemmas 8 and 9: per-level DHC2 bridge existence and merge success"),
    ("e6", "Theorem 17 / Fact 2: Upcast at p = Theta(log n / sqrt(n))"),
    ("e7", "Theorem 19 / Lemma 18: Upcast in the general regime, subtree balance"),
    ("e8", "Fully-distributed property: per-node memory, compute, and load balance"),
    ("e9", "Positioning: DHC1/DHC2 vs Upcast vs collect-all on the same graphs"),
    ("e10", "Design ablations: the implementation's main free choices"),
    ("e11", "k-machine conversion: measured KNPR simulation vs the O~(M/k^2 + T*D'/k) bound"),
    ("e12", "Conclusion's extension claim: other random-graph models"),
    ("e13", "Engine throughput baseline: flood-echo and broadcast-storm rounds/sec"),
    ("e14", "Partition-pipeline baseline: zero-copy class views vs materialized subgraphs"),
    ("e15", "Adversary degradation: success rates under seeded drop/delay/crash faults"),
    ("e16", "Memory-lean scale sweep: fat vs lean (no round log) runtime and peak memory"),
];

/// All experiment ids in order.
pub const ALL_IDS: [&str; 16] = {
    let mut ids = [""; 16];
    let mut i = 0;
    while i < 16 {
        ids[i] = CATALOG[i].0;
        i += 1;
    }
    ids
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_error() {
        assert!(run_by_id("e42", Effort::Smoke, false, false, 0).is_err());
    }

    #[test]
    fn all_ids_listed() {
        assert_eq!(ALL_IDS.len(), 16);
    }

    #[test]
    fn catalog_matches_ids_and_every_entry_runs() {
        for ((id, description), want) in CATALOG.iter().zip(ALL_IDS.iter()) {
            assert_eq!(id, want);
            assert!(!description.is_empty(), "{id} needs a description");
        }
    }
}
