//! Cross-validation: the distributed protocols against the centralized
//! reference implementations. They make independent random choices, so
//! exact outputs differ; what must agree is *feasibility* (both find
//! cycles on solvable instances) and *validity* (everything produced
//! verifies against the same graph).

#[path = "common/reference.rs"]
mod reference;

use dhc::core::{run_dhc1, run_dhc2, DhcConfig};
use dhc::graph::{generator, rng::rng_from_seed, thresholds, HamiltonianCycle};
use reference::{dhc1_reference, dhc2_reference};

#[test]
fn dhc2_distributed_and_reference_agree_on_paper_regime() {
    for trial in 0..3u64 {
        let n = 240;
        let p = thresholds::edge_probability(n, 0.5, 6.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(200 + trial)).unwrap();
        let dist = run_dhc2(&g, &DhcConfig::new(300 + trial).with_partitions(6)).unwrap();
        let refr = dhc2_reference(&g, 6, 400 + trial).unwrap();
        assert_eq!(dist.cycle.len(), n);
        assert_eq!(refr.len(), n);
        // Both must be cycles of the same graph (re-verify from raw orders).
        assert!(HamiltonianCycle::from_order(&g, dist.cycle.order().to_vec()).is_ok());
        assert!(HamiltonianCycle::from_order(&g, refr.order().to_vec()).is_ok());
    }
}

#[test]
fn dhc1_distributed_and_reference_agree_on_paper_regime() {
    for trial in 0..3u64 {
        let n = 240;
        let p = thresholds::edge_probability(n, 0.5, 6.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(210 + trial)).unwrap();
        let dist = run_dhc1(&g, &DhcConfig::new(310 + trial).with_partitions(8)).unwrap();
        let refr = dhc1_reference(&g, 8, 410 + trial).unwrap();
        assert_eq!(dist.cycle.len(), n);
        assert_eq!(refr.len(), n);
    }
}

#[test]
fn both_sides_reject_unsolvable_instances() {
    // Two cliques, no cross edges: nothing can merge them.
    let mut edges = Vec::new();
    for u in 0..16 {
        for v in (u + 1)..16 {
            edges.push((u, v));
            edges.push((u + 16, v + 16));
        }
    }
    let g = dhc::Graph::from_edges(32, edges).unwrap();
    assert!(run_dhc2(&g, &DhcConfig::new(1).with_partitions(2)).is_err());
    assert!(dhc2_reference(&g, 2, 1).is_err());
}

#[test]
fn reference_validates_many_cheap_trials() {
    // The reference is cheap: use it for a success-rate spot check at the
    // paper's operating point (Theorem 10's 1 - O(1/n)).
    let n = 320;
    let p = thresholds::edge_probability(n, 0.5, 6.0);
    let mut ok = 0;
    let trials = 20;
    for t in 0..trials {
        let g = generator::gnp(n, p, &mut rng_from_seed(500 + t)).unwrap();
        if dhc2_reference(&g, 8, 600 + t).is_ok() {
            ok += 1;
        }
    }
    assert!(ok >= trials - 2, "reference success {ok}/{trials} too low");
}
