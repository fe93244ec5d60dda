//! `RotationPath` and the Pósa solvers against their array originals.
//!
//! The oracles here keep the first formulation: the path is a growing
//! `Vec` in visiting order with an `Option<usize>` position per node,
//! and a rotation at `j` reverses the slice after `j`; the solver keeps
//! one `Vec<NodeId>` unused list per node. For every script and seed,
//! the library must show the same path after every step, and each
//! solver must return the same cycle, statistics or error and leave the
//! generator in the same state.

use dhc_graph::rng::rng_from_seed;
use dhc_graph::{generator, thresholds, Graph, HamiltonianCycle, NodeId};
use dhc_rotation::{
    posa, posa_subsampled, posa_with_restarts, PosaConfig, RotationError, RotationPath,
    RotationStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The array rotation path.
struct ArrayPath {
    order: Vec<NodeId>,
    position: Vec<Option<usize>>,
    rotations: usize,
}

impl ArrayPath {
    fn new(n: usize, start: NodeId) -> Self {
        let mut position = vec![None; n];
        position[start as usize] = Some(0);
        ArrayPath { order: vec![start], position, rotations: 0 }
    }

    fn head(&self) -> NodeId {
        *self.order.last().unwrap()
    }

    fn extend(&mut self, v: NodeId) {
        assert!(self.position[v as usize].is_none());
        self.position[v as usize] = Some(self.order.len());
        self.order.push(v);
    }

    fn rotate(&mut self, j: usize) {
        let h = self.order.len() - 1;
        assert!(j <= h);
        self.rotations += 1;
        if j + 1 >= h {
            return;
        }
        self.order[j + 1..].reverse();
        for i in j + 1..self.order.len() {
            self.position[self.order[i] as usize] = Some(i);
        }
    }
}

/// Asserts that `path` shows exactly what `oracle` holds.
fn assert_same(path: &RotationPath, oracle: &ArrayPath, step: usize) {
    assert_eq!(path.order(), oracle.order, "order after step {step}");
    assert_eq!(path.len(), oracle.order.len(), "len after step {step}");
    assert_eq!(path.head(), oracle.head(), "head after step {step}");
    assert_eq!(path.tail(), oracle.order[0], "tail after step {step}");
    assert_eq!(path.rotation_count(), oracle.rotations, "rotations after step {step}");
    for (v, &pos) in oracle.position.iter().enumerate() {
        assert_eq!(path.contains(v as NodeId), pos.is_some(), "contains({v}) after step {step}");
        assert_eq!(path.position_of(v as NodeId), pos, "position_of({v}) after step {step}");
    }
}

proptest! {
    /// Random scripts of extensions and rotations, run until well past
    /// the full path. A quarter of the rotations are at the head and a
    /// quarter at its predecessor, the two that move nothing.
    #[test]
    fn path_matches_array_oracle(n in 1usize..65, seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        let start = rng.gen_range(0..n) as NodeId;
        let mut path = RotationPath::new(n, start);
        let mut oracle = ArrayPath::new(n, start);
        assert_same(&path, &oracle, 0);
        for step in 1..=6 * n {
            let len = oracle.order.len();
            if len < n && rng.gen_bool(0.5) {
                let off: Vec<NodeId> =
                    (0..n as NodeId).filter(|&v| oracle.position[v as usize].is_none()).collect();
                let v = *off.choose(&mut rng).unwrap();
                path.extend(v);
                oracle.extend(v);
            } else {
                let h = len - 1;
                let j = match rng.gen_range(0..4) {
                    0 => h,
                    1 => h.saturating_sub(1),
                    _ => rng.gen_range(0..len),
                };
                path.rotate(j);
                oracle.rotate(j);
            }
            assert_same(&path, &oracle, step);
        }
        prop_assert_eq!(path.into_order(), oracle.order);
    }
}

type Outcome = Result<(Vec<NodeId>, RotationStats), RotationError>;

fn outcome(res: Result<(HamiltonianCycle, RotationStats), RotationError>) -> Outcome {
    res.map(|(cycle, stats)| (cycle.order().to_vec(), stats))
}

fn budget(config: &PosaConfig, n: usize) -> usize {
    config.step_budget.unwrap_or_else(|| thresholds::dra_step_budget(n, config.budget_factor))
}

fn posa_ref<R: Rng>(graph: &Graph, config: &PosaConfig, rng: &mut R) -> Outcome {
    let unused = (0..graph.node_count())
        .map(|v| {
            let mut list = graph.neighbors(v as NodeId).to_vec();
            list.shuffle(rng);
            list
        })
        .collect();
    run_directed_ref(graph, unused, config, rng)
}

fn posa_subsampled_ref<R: Rng>(graph: &Graph, p: f64, config: &PosaConfig, rng: &mut R) -> Outcome {
    let p = p.clamp(0.0, 1.0);
    let q = 1.0 - (1.0 - p).sqrt();
    let keep = if p > 0.0 { (q / p).clamp(0.0, 1.0) } else { 0.0 };
    let mut unused = Vec::with_capacity(graph.node_count());
    for v in 0..graph.node_count() {
        let mut list: Vec<NodeId> =
            graph.neighbors(v as NodeId).iter().copied().filter(|_| rng.gen_bool(keep)).collect();
        list.shuffle(rng);
        unused.push(list);
    }
    run_directed_ref(graph, unused, config, rng)
}

fn posa_with_restarts_ref<R: Rng>(
    graph: &Graph,
    config: &PosaConfig,
    attempts: usize,
    rng: &mut R,
) -> Outcome {
    let mut total = RotationStats::default();
    let mut last_err = RotationError::GraphTooSmall { n: graph.node_count() };
    for _ in 0..attempts.max(1) {
        match posa_ref(graph, config, rng) {
            Ok((order, stats)) => {
                total.steps += stats.steps;
                total.extensions += stats.extensions;
                total.rotations += stats.rotations;
                total.closing_phase_steps += stats.closing_phase_steps;
                total.final_path_len = stats.final_path_len;
                return Ok((order, total));
            }
            Err(e) => {
                if let RotationError::OutOfEdges { steps, path_len, .. } = e {
                    total.steps += steps;
                    total.final_path_len = path_len;
                }
                last_err = e;
            }
        }
    }
    Err(last_err)
}

fn run_directed_ref<R: Rng>(
    graph: &Graph,
    mut unused: Vec<Vec<NodeId>>,
    config: &PosaConfig,
    rng: &mut R,
) -> Outcome {
    let n = graph.node_count();
    if n < 3 {
        return Err(RotationError::GraphTooSmall { n });
    }
    let budget = budget(config, n);
    let start = match config.start {
        Some(s) => s,
        None => rng.gen_range(0..n) as NodeId,
    };
    let mut path = ArrayPath::new(n, start);
    let mut stats = RotationStats::default();
    loop {
        if stats.steps >= budget {
            return Err(RotationError::StepBudgetExceeded { budget, path_len: path.order.len() });
        }
        let head = path.head();
        let Some(u) = unused[head as usize].pop() else {
            return Err(RotationError::OutOfEdges {
                head: head as usize,
                steps: stats.steps,
                path_len: path.order.len(),
            });
        };
        if let Some(pos) = unused[u as usize].iter().position(|&x| x == head) {
            unused[u as usize].swap_remove(pos);
        }
        stats.steps += 1;
        let Some(j) = path.position[u as usize] else {
            path.extend(u);
            stats.extensions += 1;
            continue;
        };
        if path.order.len() == n {
            stats.closing_phase_steps += 1;
            if u == path.order[0] {
                stats.final_path_len = n;
                return Ok((path.order, stats));
            }
        }
        path.rotate(j);
        stats.rotations += 1;
    }
}

/// Which way a run ended, for the coverage tally.
fn kind(out: &Outcome) -> usize {
    match out {
        Ok(_) => 0,
        Err(RotationError::GraphTooSmall { .. }) => 1,
        Err(RotationError::OutOfEdges { .. }) => 2,
        Err(RotationError::StepBudgetExceeded { .. }) => 3,
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

/// Runs a solver and its oracle from the same seed; both must return
/// the same outcome and leave the generator in the same state.
fn compare(
    what: &str,
    seed: u64,
    lib: impl FnOnce(&mut StdRng) -> Outcome,
    oracle: impl FnOnce(&mut StdRng) -> Outcome,
) -> Outcome {
    let (mut a, mut b) = (rng_from_seed(seed), rng_from_seed(seed));
    let got = lib(&mut a);
    assert_eq!(got, oracle(&mut b), "{what}");
    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{what}: generator state");
    got
}

/// The three solvers on a grid of random `G(n, p)` graphs, budgets,
/// start nodes and seeds, from graphs too small to hold a cycle to
/// sparse ones whose heads run dry. Each must match its array oracle,
/// draws included, and the grid must reach every outcome.
#[test]
fn solvers_match_array_oracle() {
    let mut seen = [0usize; 4];
    for n in [0, 1, 2, 3, 4, 7, 16, 33, 64] {
        for p in [0.08, 0.25, 0.6, 1.0] {
            for seed in 0..6u64 {
                let g = generator::gnp(n, p, &mut rng_from_seed(seed)).unwrap();
                let mut configs = vec![
                    PosaConfig::default(),
                    PosaConfig { step_budget: Some(seed as usize * n / 2), ..Default::default() },
                ];
                if n > 0 {
                    let start = Some((seed as usize % n) as NodeId);
                    configs.push(PosaConfig { start, ..Default::default() });
                }
                for (c, config) in configs.iter().enumerate() {
                    let s = seed * 31 + c as u64;
                    let at = format!("n={n} p={p} seed={s} {config:?}");
                    let attempts = (seed % 4) as usize;
                    let outcomes = [
                        compare(
                            &format!("posa, {at}"),
                            s,
                            |r| outcome(posa(&g, config, r)),
                            |r| posa_ref(&g, config, r),
                        ),
                        compare(
                            &format!("posa_subsampled, {at}"),
                            s,
                            |r| outcome(posa_subsampled(&g, p, config, r)),
                            |r| posa_subsampled_ref(&g, p, config, r),
                        ),
                        compare(
                            &format!("posa_with_restarts({attempts}), {at}"),
                            s,
                            |r| outcome(posa_with_restarts(&g, config, attempts, r)),
                            |r| posa_with_restarts_ref(&g, config, attempts, r),
                        ),
                    ];
                    for out in &outcomes {
                        seen[kind(out)] += 1;
                    }
                }
            }
        }
    }
    let [ok, too_small, out_of_edges, budget] = seen;
    assert!(ok > 0 && too_small > 0 && out_of_edges > 0 && budget > 0, "outcomes {seen:?}");
}
