//! The benchmark's workloads: how each builds its input from a seed and
//! which public entry point it calls.

use dhc_core::{run_dhc1, run_dhc2_with_colors, run_upcast, DhcConfig, DhcError, RunOutcome};
use dhc_graph::rng::{derive_seed, rng_from_seed};
use dhc_graph::{generator, Graph};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_dhc1` with 8 classes of 40 on a dense `G(n, p)`.
    Dhc1Dense,
    /// `run_dhc2_with_colors` on a clustered graph with its colouring.
    Dhc2Clustered,
    /// `run_upcast` on `G(n, ln n / √n)`.
    UpcastGnp,
}

/// Input sizes of one workload; [`Shape::full`] is what the benchmark
/// runs, [`Shape::tiny`] is the same construction at test size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Classes (DHC1 partitions or clusters); unused by Upcast.
    pub classes: usize,
    /// Nodes per class; for Upcast, the node count.
    pub class_size: usize,
}

/// A generated input.
#[derive(Debug, Clone)]
pub struct Input {
    /// The graph handed to the entry point.
    pub graph: Graph,
    /// The cluster colouring (`dhc2-clustered` only).
    pub colors: Option<Vec<u32>>,
}

/// Density constant `c` in the class-level edge probability `c ln s / (s - 1)`.
const DENSITY: f64 = 8.0;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::Dhc1Dense, Workload::Dhc2Clustered, Workload::UpcastGnp];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dhc1Dense => "dhc1-dense",
            Workload::Dhc2Clustered => "dhc2-clustered",
            Workload::UpcastGnp => "upcast-gnp",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's input size.
    pub fn full(self) -> Shape {
        match self {
            Workload::Dhc1Dense => Shape { classes: 8, class_size: 40 },
            Workload::Dhc2Clustered => Shape { classes: 16, class_size: 32 },
            Workload::UpcastGnp => Shape { classes: 1, class_size: 1024 },
        }
    }

    /// A test-sized input built the same way.
    #[cfg(test)]
    pub fn tiny(self) -> Shape {
        match self {
            Workload::Dhc1Dense => Shape { classes: 4, class_size: 40 },
            Workload::Dhc2Clustered => Shape { classes: 4, class_size: 40 },
            Workload::UpcastGnp => Shape { classes: 1, class_size: 300 },
        }
    }

    /// Builds the input for `seed`; the same seed gives the same input.
    pub fn generate(self, shape: Shape, seed: u64) -> Input {
        let mut rng = rng_from_seed(derive_seed(seed, 0x6E));
        let s = shape.class_size;
        let class_p = DENSITY * (s as f64).ln() / (s - 1) as f64;
        match self {
            Workload::Dhc1Dense => {
                let n = shape.classes * s;
                let graph = generator::gnp(n, class_p, &mut rng).expect("class_p is a probability");
                Input { graph, colors: None }
            }
            Workload::Dhc2Clustered => {
                let (graph, colors) =
                    generator::clustered(shape.classes, s, class_p, 3.0, &mut rng)
                        .expect("class_p is a probability");
                Input { graph, colors: Some(colors) }
            }
            Workload::UpcastGnp => {
                let p = (s as f64).ln() / (s as f64).sqrt();
                let graph = generator::gnp(s, p, &mut rng).expect("ln n / sqrt n is a probability");
                Input { graph, colors: None }
            }
        }
    }

    /// The algorithm configuration for `seed`: the defaults
    /// (`parallelism = 1`, `engine_threads = 1`) plus the DHC1 class count.
    pub fn config(self, shape: Shape, seed: u64) -> DhcConfig {
        let cfg = DhcConfig::new(derive_seed(seed, 0xC0));
        match self {
            Workload::Dhc1Dense => cfg.with_partitions(shape.classes),
            Workload::Dhc2Clustered | Workload::UpcastGnp => cfg,
        }
    }

    /// One operation: a single call of the workload's entry point.
    pub fn call(
        self,
        shape: Shape,
        input: &Input,
        cfg: &DhcConfig,
    ) -> Result<RunOutcome, DhcError> {
        match self {
            Workload::Dhc1Dense => run_dhc1(&input.graph, cfg),
            Workload::Dhc2Clustered => {
                let colors = input.colors.as_deref().expect("clustered inputs carry colours");
                run_dhc2_with_colors(&input.graph, cfg, colors, shape.classes)
            }
            Workload::UpcastGnp => run_upcast(&input.graph, cfg),
        }
    }
}
