//! Pins clean Upcast and collect-all runs to recorded digests.
//!
//! perfbench pins Upcast only at n = 1,024 and never runs the
//! collect-all baseline. These cases cover both entry points on small
//! `G(n, ln n / √n)` graphs, with the default sample and with a thin one
//! whose root solve fails on some seeds, so a change to the election
//! step, the routing table, the pipelined up- and downcast, the engine's
//! wake-ups or the root's Pósa solve that moves any simulated quantity
//! fails here.

use dhc_core::{run_collect_all, run_upcast, DhcConfig, DhcError, RunOutcome};
use dhc_graph::rng::rng_from_seed;
use dhc_graph::{generator, thresholds};

/// FNV-1a over the `Debug` text of a run's result: the cycle, every
/// `Metrics` field but `engine_memory_words` (a buffer-capacity sample
/// that `Metrics`' `PartialEq` skips too), and the phase breakdown — or
/// the typed error.
fn digest(res: Result<RunOutcome, DhcError>) -> u64 {
    let text = match res {
        Ok(mut out) => {
            out.metrics.engine_memory_words = 0;
            format!("{:?} {:?} {:?}", out.cycle.order(), out.metrics, out.phases)
        }
        Err(e) => format!("{e:?}"),
    };
    text.bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// The pinned runs: n cycles through 64, 150 and 300, and each block of
/// three cases runs Upcast, collect-all, or Upcast on a thin sample of
/// `⌈1.25 ln n⌉` edges per node.
fn pinned_run(case: u64) -> Result<RunOutcome, DhcError> {
    let n = [64, 150, 300][(case % 3) as usize];
    let p = thresholds::edge_probability(n, 0.5, 1.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(case)).unwrap();
    let cfg = DhcConfig::new(1_000 + case);
    match (case / 3) % 3 {
        0 => run_upcast(&g, &cfg),
        1 => run_collect_all(&g, &cfg),
        _ => run_upcast(&g, &cfg.with_sample_factor(1.25)),
    }
}

#[test]
fn upcast_runs_match_recorded_digests() {
    for (case, want) in UPCAST_DIGESTS {
        assert_eq!(digest(pinned_run(case)), want, "case {case}");
    }
}

/// Recorded `(case, digest)` of `pinned_run(case)`. Cases 6, 7 and 16
/// end in `RootSolveFailed`: on the thin sample every one of the root's
/// Pósa attempts fails.
const UPCAST_DIGESTS: [(u64, u64); 18] = [
    (0, 0xC547_F515_B6C0_A958),
    (1, 0x79A3_CEC2_B9CB_0498),
    (2, 0xBC88_93BC_1733_3FED),
    (3, 0x628C_DECF_B039_A52F),
    (4, 0x3A61_2341_2CF9_690B),
    (5, 0x0EDD_B1D8_0923_4166),
    (6, 0xDD80_40C2_D08B_1DC1),
    (7, 0x5AFB_F8EC_919E_53EB),
    (8, 0xA9FA_2C76_D370_C576),
    (9, 0x25D3_65A6_0A28_C657),
    (10, 0x151A_60E6_1786_DACE),
    (11, 0x11DA_43F7_E5FC_9E5F),
    (12, 0x3516_6000_EBE7_8FE7),
    (13, 0x4A2C_39C2_17BA_DB7F),
    (14, 0x01DF_A0A7_1C49_5CDF),
    (15, 0x4105_8593_E538_C49A),
    (16, 0x6C4E_4EEC_9B6D_4161),
    (17, 0xB1EA_B1D3_87D4_9C5A),
];
