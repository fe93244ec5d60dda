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

/// Runs one experiment by id (one listed in [`CATALOG`]), returning its
/// report.
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
    let run = runner(id).ok_or_else(|| format!("unknown experiment id: {id}"))?;
    Ok(run(effort, heavy, progress, seed))
}

/// An experiment's entry point: `(effort, heavy, progress, seed)` → report.
type Run = fn(Effort, bool, bool, u64) -> String;

/// The entry point behind `id`, or `None` if no experiment has that id.
fn runner(id: &str) -> Option<Run> {
    let run: Run = match id {
        "e1" => |e, _, _, seed| e1_dra_steps::run(&e1_dra_steps::Params::for_effort(e), seed),
        "e2" => |e, _, _, seed| {
            e2_partition_balance::run(&e2_partition_balance::Params::for_effort(e), seed)
        },
        "e3" => |e, _, _, seed| e3_dhc1_scaling::run(&e3_dhc1_scaling::Params::for_effort(e), seed),
        "e4" => |e, _, _, seed| e4_dhc2_scaling::run(&e4_dhc2_scaling::Params::for_effort(e), seed),
        "e5" => |e, _, _, seed| e5_merge_levels::run(&e5_merge_levels::Params::for_effort(e), seed),
        "e6" => |e, _, _, seed| e6_upcast_sqrt::run(&e6_upcast_sqrt::Params::for_effort(e), seed),
        "e7" => {
            |e, _, _, seed| e7_upcast_general::run(&e7_upcast_general::Params::for_effort(e), seed)
        }
        "e8" => |e, _, _, seed| e8_resources::run(&e8_resources::Params::for_effort(e), seed),
        "e9" => |e, _, _, seed| e9_comparison::run(&e9_comparison::Params::for_effort(e), seed),
        "e10" => |e, _, _, seed| e10_ablations::run(&e10_ablations::Params::for_effort(e), seed),
        "e11" => |e, _, _, seed| e11_kmachine::run(&e11_kmachine::Params::for_effort(e), seed),
        "e12" => {
            |e, _, _, seed| e12_other_models::run(&e12_other_models::Params::for_effort(e), seed)
        }
        "e13" => |effort, heavy, progress, seed| {
            let mut p = e13_engine::Params::for_effort(effort).gated(heavy);
            p.progress = progress;
            e13_engine::run(&p, seed)
        },
        "e15" => |effort, heavy, _, seed| {
            e15_adversary::run(&e15_adversary::Params::for_effort(effort).gated(heavy), seed)
        },
        "e16" => |effort, heavy, progress, seed| {
            let mut p = e16_scale::Params::for_effort(effort).gated(heavy);
            p.progress = progress;
            e16_scale::run(&p, seed)
        },
        _ => return None,
    };
    Some(run)
}

/// All experiments in order: `(id, one-line description)` — what the
/// binary's `--list` flag prints and what its `all` runs.
pub const CATALOG: &[(&str, &str)] = &[
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
    ("e15", "Adversary degradation: success rates under seeded drop/delay/crash faults"),
    ("e16", "Scale sweep: runtime, rounds, messages, and peak memory as n grows"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_error() {
        assert!(run_by_id("e42", Effort::Smoke, false, false, 0).is_err());
    }

    #[test]
    fn all_ids_listed() {
        // Every id with a runner is in the catalog, once.
        for n in 1..=99 {
            let id = format!("e{n}");
            let listed = CATALOG.iter().filter(|(entry, _)| *entry == id).count();
            let want = usize::from(runner(&id).is_some());
            assert_eq!(listed, want, "{id} is listed {listed} times");
        }
    }

    #[test]
    fn catalog_matches_ids_and_every_entry_runs() {
        for (id, description) in CATALOG {
            assert!(runner(id).is_some(), "{id} has no runner");
            assert!(!description.is_empty(), "{id} needs a description");
        }
    }
}
