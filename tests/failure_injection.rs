//! Failure injection: every documented failure mode surfaces as a typed
//! error (never a hang, panic, or silent wrong answer).

use dhc::congest::SimError;
use dhc::core::{
    run_dhc1, run_dhc1_kmachine, run_dhc2, run_dhc2_kmachine, run_dhc2_with_colors, run_dra,
    run_dra_kmachine, run_partition_cycles, run_upcast, run_upcast_kmachine, DhcConfig,
    KMachineConfig, KMachineReport, RunOutcome,
};
use dhc::graph::{generator, rng::rng_from_seed, Graph, Partition};
use dhc::{Adversary, DhcError};

#[test]
fn tiny_graphs_rejected_by_all() {
    let g = generator::complete(2);
    let cfg = DhcConfig::new(0);
    for res in [run_dra(&g, &cfg), run_dhc1(&g, &cfg), run_dhc2(&g, &cfg), run_upcast(&g, &cfg)] {
        assert!(matches!(res.unwrap_err(), DhcError::GraphTooSmall { n: 2 }));
    }
}

#[test]
fn invalid_config_rejected() {
    let g = generator::complete(16);
    let bad = DhcConfig::new(0).with_delta(2.0);
    assert!(matches!(run_dhc2(&g, &bad), Err(DhcError::InvalidConfig { .. })));
    let bad = DhcConfig::new(0).with_delta(0.0);
    assert!(matches!(run_dhc1(&g, &bad), Err(DhcError::InvalidConfig { .. })));
}

#[test]
fn bad_coloring_rejected_by_dhc2_with_colors() {
    let g = generator::complete(16);
    let cfg = DhcConfig::new(0);
    let two_classes: Vec<u32> = (0..16).map(|v| v % 2).collect();
    for (colors, num_colors) in [
        (&two_classes[..15], 2), // one color short
        (&two_classes[..], 0),   // no classes
        (&two_classes[..], 1),   // color 1 out of range
    ] {
        let res = run_dhc2_with_colors(&g, &cfg, colors, num_colors);
        assert!(matches!(res, Err(DhcError::InvalidConfig { .. })), "{num_colors}: {res:?}");
    }
    // Valid colorings run, even with far more classes than colors used.
    for num_colors in [2, usize::MAX] {
        assert!(run_dhc2_with_colors(&g, &cfg, &two_classes, num_colors).is_ok());
    }
}

#[test]
fn wrong_size_partition_rejected_by_partition_cycles() {
    let cfg = DhcConfig::new(1);
    let ten_nodes = Partition::from_colors(vec![0; 10], 1);
    for g in [generator::complete(40), generator::complete(5)] {
        let res = run_partition_cycles(&g, &ten_nodes, &cfg);
        assert!(matches!(res, Err(DhcError::InvalidConfig { .. })), "{res:?}");
    }
}

#[test]
fn sub_threshold_graph_fails_with_typed_error() {
    // Far below the connectivity threshold: partitions are disconnected.
    let n = 256;
    let g = generator::gnp(n, 0.008, &mut rng_from_seed(1)).unwrap();
    let err = run_dhc2(&g, &DhcConfig::new(2).with_partitions(8)).unwrap_err();
    assert!(matches!(err, DhcError::PartitionFailed { .. } | DhcError::NoBridge { .. }), "{err:?}");
}

#[test]
fn disconnected_graph_fails_everywhere() {
    let mut edges = Vec::new();
    for u in 0..20 {
        for v in (u + 1)..20 {
            edges.push((u, v));
            edges.push((u + 20, v + 20));
        }
    }
    let g = Graph::from_edges(40, edges).unwrap();
    let cfg = DhcConfig::new(3).with_partitions(2);
    assert!(run_dra(&g, &cfg).is_err());
    assert!(run_upcast(&g, &cfg).is_err());
    assert!(run_dhc2(&g, &cfg).is_err());
}

#[test]
fn round_cap_produces_simulation_error() {
    let n = 128;
    let g = generator::gnp(n, 0.5, &mut rng_from_seed(4)).unwrap();
    let cfg = DhcConfig::new(5).with_partitions(4).with_max_rounds(3);
    let err = run_dhc2(&g, &cfg).unwrap_err();
    assert!(matches!(err, DhcError::Simulation(_)), "{err:?}");
}

#[test]
fn upcast_with_starved_sampling_reports_root_failure() {
    let n = 160;
    let p = 10.0 * (n as f64).ln() / n as f64;
    let g = generator::gnp(n, p, &mut rng_from_seed(6)).unwrap();
    let cfg = DhcConfig::new(7).with_sample_factor(0.2);
    let err = run_upcast(&g, &cfg).unwrap_err();
    assert!(matches!(err, DhcError::RootSolveFailed { .. }), "{err:?}");
}

#[test]
fn star_graph_has_no_cycle_and_says_so() {
    let g = generator::star(32);
    let err = run_dra(&g, &DhcConfig::new(8)).unwrap_err();
    assert!(matches!(err, DhcError::PartitionFailed { .. }), "{err:?}");
}

#[test]
fn petersen_graph_is_rejected_not_mislabeled() {
    // Petersen is famously non-Hamiltonian: every algorithm must fail
    // (and never emit a "cycle").
    let g = generator::petersen();
    let cfg = DhcConfig::new(9).with_partitions(1);
    assert!(run_dra(&g, &cfg).is_err());
    assert!(run_upcast(&g, &cfg).is_err());
}

#[test]
fn crashing_a_leader_quorum_yields_a_typed_error_not_a_hang() {
    // Crash the lowest- and highest-id nodes early and permanently: one
    // of them is the would-be leader of its partition, so leader
    // election (and everything after it) cannot complete. The run must
    // come back as a typed error — the adversary layer's quiescence
    // detection turns the resulting silence into a round-limit outcome
    // instead of an infinite stall.
    let n = 96;
    let g = generator::gnp(n, 0.5, &mut rng_from_seed(40)).unwrap();
    let adv = Adversary::seeded(41).with_crash(0, 2, None).with_crash((n - 1) as u32, 2, None);
    let cfg = DhcConfig::new(42).with_partitions(2).with_max_rounds(2_000).with_adversary(adv);
    let err = run_dra(&g, &cfg).unwrap_err();
    assert!(matches!(err, DhcError::Simulation(_) | DhcError::PartitionFailed { .. }), "{err:?}");
}

#[test]
fn total_message_loss_terminates_with_round_limit() {
    // A 100% drop rate delivers nothing at all: wake-up-driven nodes
    // idle forever. Without the adversary this silence would be a
    // protocol bug (`Stalled`); under an active adversary it is an
    // environmental outcome and must surface as `RoundLimitExceeded`.
    let n = 96;
    let g = generator::gnp(n, 0.5, &mut rng_from_seed(43)).unwrap();
    let adv = Adversary::seeded(44).with_drop_ppm(1_000_000);
    let cfg = DhcConfig::new(45).with_partitions(2).with_max_rounds(500).with_adversary(adv);
    let err = run_dra(&g, &cfg).unwrap_err();
    assert!(matches!(err, DhcError::Simulation(SimError::RoundLimitExceeded { .. })), "{err:?}");
}

#[test]
fn errors_format_usefully() {
    let g = generator::complete(2);
    let err = run_dra(&g, &DhcConfig::new(0)).unwrap_err();
    let s = err.to_string();
    assert!(s.contains('2'), "message should mention the size: {s}");
}

#[test]
fn kmachine_entry_points_return_typed_errors_on_bad_inputs() {
    type Plain = fn(&Graph, &DhcConfig) -> Result<RunOutcome, DhcError>;
    type KMachine =
        fn(&Graph, &DhcConfig, &KMachineConfig) -> Result<(RunOutcome, KMachineReport), DhcError>;
    let entries: [(&str, Plain, KMachine); 4] = [
        ("dra", run_dra, run_dra_kmachine),
        ("dhc1", run_dhc1, run_dhc1_kmachine),
        ("dhc2", run_dhc2, run_dhc2_kmachine),
        ("upcast", run_upcast, run_upcast_kmachine),
    ];
    let triangles =
        Graph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
    let graphs = [generator::complete(2), generator::star(8), triangles];
    let cfg = DhcConfig::new(11).with_partitions(2);
    // k = 50 exceeds every n here: most machines host nobody.
    for k in [3, 50] {
        for g in &graphs {
            for (name, plain, kmachine) in entries {
                let err = kmachine(g, &cfg, &KMachineConfig::new(k)).unwrap_err();
                let ok = match g.node_count() {
                    2 => matches!(err, DhcError::GraphTooSmall { n: 2 }),
                    _ if name == "upcast" => matches!(err, DhcError::RootSolveFailed { .. }),
                    _ => matches!(err, DhcError::PartitionFailed { color: 0, .. }),
                };
                assert!(ok, "{name}, n = {}, k = {k}: {err:?}", g.node_count());
                assert_eq!(
                    Err(err),
                    plain(g, &cfg).map(|_| ()),
                    "{name} differs from its plain run"
                );
            }
        }
    }
}
