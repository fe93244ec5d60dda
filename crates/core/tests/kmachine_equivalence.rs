//! Pins the k-machine execution backend to the plain runs: for random
//! `G(n, p)` instances, `run_*_kmachine` must produce **bit-identical**
//! protocol outcomes (or the identical typed failure) and CONGEST
//! [`dhc_congest::Metrics`] to `run_*`, the machine-level accounting of
//! DHC1's and DHC2's Phase 1 must be identical at `parallelism` {1, 2},
//! and no directed machine link may ever exceed
//! [`KMachineConfig::link_bandwidth_words`] in any k-machine round under
//! the engine's deterministic link schedule.

use dhc_congest::machine::link_schedule;
use dhc_core::{
    run_dhc1, run_dhc1_kmachine, run_dhc2, run_dhc2_kmachine, run_dra, run_dra_kmachine,
    run_upcast, run_upcast_kmachine, DhcConfig, DhcError, KMachineConfig, KMachineReport,
    RunOutcome,
};
use dhc_graph::rng::rng_from_seed;
use dhc_graph::{generator, thresholds};
use proptest::prelude::*;

/// Phase-1 worker threads for the algorithms that have a Phase 1.
const PARALLELISM: [usize; 2] = [1, 2];

type PlainResult = Result<RunOutcome, DhcError>;
type KmResult = Result<(RunOutcome, KMachineReport), DhcError>;

/// The backend is pure accounting: same cycle, same metrics, same phase
/// breakdown — or the same typed failure.
fn assert_equivalent(plain: &PlainResult, km: &KmResult, what: &str) {
    match (plain, km) {
        (Ok(p), Ok((k, _))) => {
            assert_eq!(p.cycle.order(), k.cycle.order(), "{what}: cycle diverged");
            assert_eq!(p.metrics, k.metrics, "{what}: metrics diverged");
            assert_eq!(p.phases, k.phases, "{what}: phase breakdown diverged");
        }
        (Err(p), Err(k)) => {
            assert_eq!(format!("{p:?}"), format!("{k:?}"), "{what}: failure diverged");
        }
        (p, k) => panic!(
            "{what}: success diverged: plain ok = {}, k-machine ok = {}",
            p.is_ok(),
            k.is_ok()
        ),
    }
}

/// Audits a report against the scheduling contract: the deterministic
/// per-link word schedule never puts more than `B` words on a link in
/// one k-machine round, per-round loads sum to the link totals, and the
/// dilated round count equals the schedule lengths summed over every
/// executed round of every phase.
fn assert_schedule_sound(report: &KMachineReport, kcfg: &KMachineConfig) {
    let b = kcfg.link_bandwidth_words;
    let mut scheduled_rounds = 0usize;
    let mut link_totals = vec![0u64; kcfg.k * kcfg.k];
    for log in &report.phase_logs {
        assert_eq!(log.machine_count(), kcfg.k);
        for round in log.rounds() {
            let (dilation, schedule) = link_schedule(&round.links, b);
            scheduled_rounds += dilation;
            for ((link, slots), &(raw_link, raw_words)) in schedule.iter().zip(&round.links) {
                assert_eq!(*link, raw_link);
                assert!(
                    slots.iter().all(|&w| w <= b as u64),
                    "link {link} oversubscribed in round {}: {slots:?}",
                    round.round
                );
                assert_eq!(slots.iter().sum::<u64>(), raw_words, "schedule lost words");
                link_totals[*link as usize] += raw_words;
            }
        }
    }
    let m = &report.machine;
    assert_eq!(scheduled_rounds, m.kmachine_rounds, "dilation diverged from the schedule");
    assert_eq!(link_totals, m.link_total_words, "link totals diverged from the logs");
    assert!(m.kmachine_rounds >= m.congest_rounds, "dilation cannot undercut the barrier floor");
    assert_eq!(
        m.machine_sent_words.iter().sum::<u64>(),
        m.link_total_words.iter().sum::<u64>(),
        "per-machine volumes diverged from link totals"
    );
    assert_eq!(m.machine_sent_words.iter().sum::<u64>(), m.machine_recv_words.iter().sum::<u64>());
    for mach in 0..kcfg.k {
        assert_eq!(m.link_total(mach, mach), 0, "intra-machine traffic leaked onto a link");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random instances, random machine counts, Phase 1 at both
    /// parallelism levels: outcomes and CONGEST metrics bit-identical to
    /// the plain runs (successes *and* typed failures), machine
    /// accounting independent of parallelism, link schedule within
    /// budget.
    #[test]
    fn kmachine_backend_is_pure_accounting(
        n in 24usize..56,
        seed in 0u64..1000,
        k in 2usize..6,
        parts in 2usize..5,
    ) {
        let p = thresholds::edge_probability(n, 0.5, 5.0).max(0.3);
        let g = generator::gnp(n, p, &mut rng_from_seed(seed)).unwrap();
        let kcfg = KMachineConfig::new(k)
            .with_link_bandwidth_words(4)
            .with_rvp_seed(seed ^ 0xA11);

        let cfg = DhcConfig::new(seed ^ 0x7);
        let dra_km = run_dra_kmachine(&g, &cfg, &kcfg);
        assert_equivalent(&run_dra(&g, &cfg), &dra_km, "dra");
        if let Ok((_, report)) = &dra_km {
            assert_schedule_sound(report, &kcfg);
            prop_assert_eq!(report.machine.machine_nodes.iter().sum::<usize>(), n,
                "RVP must host every node");
        }

        let mut phase1_reports: Vec<[Option<KMachineReport>; 2]> = Vec::new();
        for parallelism in PARALLELISM {
            let cfg_parts = cfg.clone().with_partitions(parts).with_parallelism(parallelism);

            let dhc1_km = run_dhc1_kmachine(&g, &cfg_parts, &kcfg);
            assert_equivalent(&run_dhc1(&g, &cfg_parts), &dhc1_km, "dhc1");

            let dhc2_km = run_dhc2_kmachine(&g, &cfg_parts, &kcfg);
            assert_equivalent(&run_dhc2(&g, &cfg_parts), &dhc2_km, "dhc2");

            for report in [&dhc1_km, &dhc2_km].into_iter().flatten() {
                assert_schedule_sound(&report.1, &kcfg);
                prop_assert_eq!(
                    report.1.machine.machine_nodes.iter().sum::<usize>(), n,
                    "RVP must host every node"
                );
            }
            phase1_reports.push([dhc1_km.ok().map(|(_, r)| r), dhc2_km.ok().map(|(_, r)| r)]);
        }
        // Machine metrics are part of the determinism contract: identical
        // at every parallelism level.
        prop_assert_eq!(&phase1_reports[0], &phase1_reports[1],
            "machine accounting diverged across parallelism levels");
    }
}

#[test]
fn dhc2_success_case_is_equivalent_and_scheduled_within_budget() {
    // The proptest above accepts matching typed failures; this pins a
    // *successful* DHC2 run end to end at both parallelism levels.
    let n = 192;
    let p = thresholds::edge_probability(n, 0.5, 6.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(80)).unwrap();
    let base = (81..89)
        .map(|seed| DhcConfig::new(seed).with_partitions(6))
        .find(|cfg| run_dhc2(&g, cfg).is_ok())
        .expect("DHC2 should succeed for at least one of 8 seeds");
    let kcfg = KMachineConfig::new(8).with_link_bandwidth_words(8).with_rvp_seed(3);
    let mut reports = Vec::new();
    for parallelism in PARALLELISM {
        let cfg = base.clone().with_parallelism(parallelism);
        let plain = run_dhc2(&g, &cfg);
        let km = run_dhc2_kmachine(&g, &cfg, &kcfg);
        assert!(plain.is_ok() && km.is_ok(), "seed-scanned success must reproduce");
        assert_equivalent(&plain, &km, "dhc2 success");
        let (_, report) = km.unwrap();
        assert_schedule_sound(&report, &kcfg);
        assert!(report.machine.cross_words() > 0);
        assert!(report.bound_factor().is_finite());
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "machine accounting diverged across parallelism levels");
}

#[test]
fn upcast_kmachine_is_equivalent_and_shows_the_root_hotspot() {
    let n = 150;
    let p = thresholds::edge_probability(n, 0.5, 2.0);
    let g = generator::gnp(n, p, &mut rng_from_seed(40)).unwrap();
    let cfg = DhcConfig::new(41);
    let kcfg = KMachineConfig::new(4).with_rvp_seed(7);
    let plain = run_upcast(&g, &cfg);
    let km = run_upcast_kmachine(&g, &cfg, &kcfg);
    assert_equivalent(&plain, &km, "upcast");
    let (_, report) = km.unwrap();
    assert_schedule_sound(&report, &kcfg);
    // Upcast funnels everything through the root: the heaviest link total
    // clearly exceeds the mean link load.
    let m = &report.machine;
    let active_links = (kcfg.k * (kcfg.k - 1)) as u64;
    let mean = m.link_total_words.iter().sum::<u64>() / active_links;
    assert!(
        m.max_link_total() > 2 * mean,
        "expected a hotspot: max {} vs mean {}",
        m.max_link_total(),
        mean
    );
}
