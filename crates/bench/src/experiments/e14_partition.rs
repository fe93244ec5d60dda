//! **E14 — partition-pipeline baseline** (not a paper claim): Phase-1
//! setup cost of the zero-copy [`dhc_graph::PartitionedGraph`] versus
//! materializing every class with `Graph::induced_subgraph`, recorded to
//! `BENCH_partition.json` so the perf trajectory is tracked across PRs.
//!
//! Setup is measured at `n ∈ {10⁴, 10⁵}` with `k = √n` classes — the
//! paper's DHC1 partitioning — where the copying baseline pays an
//! `O(n·√n)` allocation bill (one `O(n)` remap vector plus a fresh CSR
//! per class) against the view path's single `O(n + m)` grouping pass.
//! Phase 1 itself only ever simulates class views; the end-to-end DHC1
//! point is E13's.

use crate::baseline::{baseline_path, write_baseline};
use crate::partition_probe::{setup_copy, setup_graph, setup_partition, setup_view};
use crate::table::{f3, Table};
use dhc_obs::json::Json;
use dhc_obs::schema::{BenchDoc, Record};
use std::time::Instant;

use super::Effort;

/// Sweep parameters for E14.
#[derive(Debug, Clone)]
pub struct Params {
    /// Graph sizes for the setup comparison (`k = √n` classes each).
    pub setup_sizes: Vec<usize>,
    /// Timed repetitions per setup point (the minimum is reported).
    pub setup_reps: usize,
    /// Whether to write the `BENCH_partition.json` baseline (disabled
    /// for smoke runs so tests do not touch the filesystem).
    pub emit_json: bool,
}

impl Params {
    /// Parameters for the given effort level.
    pub fn for_effort(effort: Effort) -> Self {
        match effort {
            Effort::Full => {
                Params { setup_sizes: vec![10_000, 100_000], setup_reps: 3, emit_json: true }
            }
            // Quick times fewer repetitions than Full, so it must not
            // overwrite the committed baseline.
            Effort::Quick => {
                Params { setup_sizes: vec![10_000, 100_000], setup_reps: 2, emit_json: false }
            }
            Effort::Smoke => Params { setup_sizes: vec![2_000], setup_reps: 1, emit_json: false },
        }
    }
}

/// One measured setup point.
struct SetupSample {
    n: usize,
    k: usize,
    m: usize,
    copy_ms: f64,
    view_ms: f64,
}

fn measure_setup(n: usize, reps: usize, seed: u64) -> SetupSample {
    let k = (n as f64).sqrt().round() as usize;
    let g = setup_graph(n, seed);
    let p = setup_partition(n, k, seed);
    let mut copy_best = f64::INFINITY;
    let mut view_best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(setup_copy(&g, &p));
        copy_best = copy_best.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(setup_view(&g, &p));
        view_best = view_best.min(t0.elapsed().as_secs_f64());
    }
    SetupSample { n, k, m: g.edge_count(), copy_ms: copy_best * 1e3, view_ms: view_best * 1e3 }
}

/// The baseline document in the shared `dhc-bench/v1` envelope: one
/// `setup` record per size.
fn render_doc(setup: &[SetupSample], cores: usize, seed: u64) -> BenchDoc {
    let mut doc =
        BenchDoc::new("e14", "partition", "phase-1 setup (view vs copy, k = sqrt(n))", cores, seed);
    for s in setup {
        doc.push(
            Record::new("setup")
                .usize("n", s.n)
                .usize("k", s.k)
                .usize("m", s.m)
                .f3("copy_ms", s.copy_ms)
                .f3("view_ms", s.view_ms)
                .field("speedup", Json::Num(format!("{:.2}", s.copy_ms / s.view_ms))),
        );
    }
    doc
}

/// Runs E14 and renders its report (optionally writing the JSON baseline).
pub fn run(params: &Params, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut out = String::new();
    out.push_str(&format!(
        "E14 partition pipeline: zero-copy class views vs materialized subgraphs \
         (machine has {cores} core(s))\n\n"
    ));

    out.push_str("  Phase-1 setup, k = sqrt(n) classes on G(n, 4 ln n / n):\n");
    let mut t = Table::new(vec!["n", "k", "m", "copy ms", "view ms", "speedup"]);
    let mut setup = Vec::new();
    for &n in &params.setup_sizes {
        let s = measure_setup(n, params.setup_reps, seed);
        t.row(vec![
            s.n.to_string(),
            s.k.to_string(),
            s.m.to_string(),
            f3(s.copy_ms),
            f3(s.view_ms),
            format!("{:.2}x", s.copy_ms / s.view_ms),
        ]);
        setup.push(s);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n    copy = one O(n) remap + fresh CSR per class (O(n*k) total);\n    view = one O(n+m) grouping pass shared by all classes.\n\n",
    );

    if params.emit_json {
        let path = baseline_path("BENCH_PARTITION_OUT", "BENCH_partition.json");
        out.push_str(&write_baseline(&path, &render_doc(&setup, cores, seed)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_reports() {
        let report = run(&Params::for_effort(Effort::Smoke), 20180424);
        assert!(report.contains("partition pipeline"), "{report}");
        assert!(!report.contains("baseline written"));
    }

    #[test]
    fn doc_validates_with_setup_rows_only() {
        let setup = vec![SetupSample { n: 100, k: 10, m: 50, copy_ms: 2.0, view_ms: 1.0 }];
        let text = render_doc(&setup, 1, 7).render();
        dhc_obs::schema::validate(&text).expect("schema-valid document");
        assert!(text.contains("\"bench\": \"partition\""), "{text}");
        assert!(text.contains("\"kind\":\"setup\""), "{text}");
        assert!(text.contains("\"speedup\":2.00"), "{text}");
        assert!(!text.contains("dhc1-e2e"), "{text}");
    }
}
