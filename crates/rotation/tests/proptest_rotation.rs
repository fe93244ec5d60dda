//! Property-based tests for rotation-path mechanics and the Pósa solver.

use dhc_graph::{generator, rng::rng_from_seed, thresholds};
use dhc_rotation::{posa, PosaConfig, RotationPath};
use proptest::prelude::*;

proptest! {
    /// Rotations never change the vertex set and keep positions consistent.
    #[test]
    fn rotation_is_a_permutation_action(
        extends in prop::collection::vec(1usize..30, 5..29),
        rotate_at in prop::collection::vec(0usize..20, 0..10),
    ) {
        let mut path = RotationPath::new(30, 0);
        let mut members = vec![0u32];
        for v in extends {
            if !path.contains(v as u32) {
                path.extend(v as u32);
                members.push(v as u32);
            }
        }
        for j in rotate_at {
            let j = j % path.len();
            path.rotate(j);
            // Vertex set unchanged.
            let order = path.order();
            let mut got = order.clone();
            got.sort_unstable();
            let mut want = members.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            // Position map consistent.
            for (i, &v) in order.iter().enumerate() {
                prop_assert_eq!(path.position_of(v), Some(i));
            }
        }
    }

    /// A rotation is an involution on the order when applied at the same j
    /// twice (reversing the same suffix twice restores it), provided no
    /// extension happens in between and j < len-1.
    #[test]
    fn double_rotation_restores_order(len in 3usize..25, j in 0usize..23) {
        prop_assume!(j + 2 < len);
        let mut path = RotationPath::new(25, 0);
        for v in 1..len {
            path.extend((v) as u32);
        }
        let before = path.order();
        path.rotate(j);
        path.rotate(j);
        prop_assert_eq!(path.order(), before);
    }

    /// Pósa either returns a verified Hamiltonian cycle (with exactly n-1
    /// extensions) or a typed error — never a malformed cycle. (Even K_n can
    /// fail for tiny n: the closing edge may be consumed by an earlier draw;
    /// the paper's guarantee is probabilistic.)
    #[test]
    fn posa_on_complete_graphs_well_behaved(n in 3usize..40, seed in any::<u64>()) {
        let g = generator::complete(n);
        match posa(&g, &PosaConfig::default(), &mut rng_from_seed(seed)) {
            Ok((cycle, stats)) => {
                prop_assert_eq!(cycle.len(), n);
                prop_assert_eq!(stats.extensions, n - 1);
            }
            Err(e) => {
                let typed = matches!(
                    e,
                    dhc_rotation::RotationError::OutOfEdges { .. }
                        | dhc_rotation::RotationError::StepBudgetExceeded { .. }
                );
                prop_assert!(typed, "unexpected error kind: {e:?}");
            }
        }
    }

    /// On G(n, p) above threshold, success rate is high and any produced
    /// cycle verifies (verification is inside the constructor).
    #[test]
    fn posa_output_always_verifies(seed in any::<u64>()) {
        let n = 128;
        let p = thresholds::edge_probability(n, 1.0, 10.0);
        let g = generator::gnp(n, p, &mut rng_from_seed(seed)).unwrap();
        // Either outcome is legal; a returned cycle is valid by construction.
        let _ = posa(&g, &PosaConfig::default(), &mut rng_from_seed(seed ^ 1));
    }
}
