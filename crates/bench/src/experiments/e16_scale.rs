//! **E16 — scale sweep** (not a paper claim): runtime and memory
//! trajectory of the hot path as `n` grows, recorded to
//! `BENCH_scale.json`. Each point runs once.
//!
//! Two workloads:
//!
//! - **DRA on G(n, 6 ln n / (n−1))** — the whole-graph rotation walk.
//!   Its message complexity is Θ(n²), so these rows stay small
//!   (n ≤ 2·10³); they anchor the per-message cost.
//! - **Clustered DHC2** — `k` clusters of `s = 200` nodes
//!   (intra-cluster G(s, 8 ln s / (s−1)); `⌈3·√(|A|·|B|)⌉` cross edges
//!   per merge pair, matching DHC2's deterministic color-pairing merge
//!   tree), run via [`run_dhc2_with_colors`] with the cluster coloring.
//!   Phase 1 is `k` small DRAs, so total work grows near-linearly in
//!   `n` at fixed `s` — this is the lane that reaches `n = 10⁶`.
//!
//! Each row records wall-clock, rounds, messages, CONGEST words,
//! words/node, the engine's peak buffer footprint
//! ([`dhc_congest::Metrics::peak_memory_words`]), and peak RSS (`VmHWM`, reset via
//! `/proc/self/clear_refs` before each run where the kernel allows —
//! rows record `null` when it does not, rather than a stale high-water
//! mark). Points above `n = 10⁵` take several minutes per run on a
//! CI-class host and are gated behind `--heavy`; the JSON is still
//! written without the flag (the committed baseline *is* the non-heavy
//! trajectory), with the skipped points listed in a `skipped_heavy`
//! array so the omission is explicit.

use crate::baseline::{baseline_path, carried_records, write_baseline};
use crate::table::{f3, Table};
use dhc_core::{run_dhc2_with_colors, run_dra, CollectorHandle, DhcConfig};
use dhc_graph::generator::{clustered, gnp};
use dhc_graph::rng::rng_from_seed;
use dhc_graph::Graph;
use dhc_obs::json::Json;
use dhc_obs::schema::{BenchDoc, Record};
use dhc_obs::RunObserver;
use std::time::{Duration, Instant};

use super::Effort;

/// Cluster size for the clustered-DHC2 lane. Held fixed across `n` so
/// the sweep isolates scaling in the cluster *count*: Phase 1 cost per
/// cluster is constant, and at `s = 200` the per-cluster DRA succeeds
/// on the first seed in practice (smaller classes fail ~1% of the
/// time, which is fatal once `k` reaches the thousands).
pub const CLUSTER_SIZE: usize = 200;

/// Intra-cluster edge probability multiplier: `p = 8 ln s / (s − 1)`.
pub const INTRA_DEGREE_MULT: f64 = 8.0;

/// Cross-edge density per merge pair: `⌈3·√(|A|·|B|)⌉` uniform pairs,
/// giving ≈ 2·3² expected spliceable bridges per merge independent of
/// the merge level.
pub const BRIDGE_FACTOR: f64 = 3.0;

/// DHC2 points above this many nodes take several minutes per run and
/// are gated behind the experiments binary's explicit `--heavy` flag.
pub const HEAVY_SCALE_NODES: usize = 100_000;

/// One clustered-DHC2 scale point: `n = k · CLUSTER_SIZE` nodes.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Total node count.
    pub n: usize,
    /// Cluster (= Phase-1 partition) count.
    pub k: usize,
}

/// Sweep parameters for E16.
#[derive(Debug, Clone)]
pub struct Params {
    /// G(n, p) sizes for the whole-graph DRA lane.
    pub dra_sizes: Vec<usize>,
    /// Clustered-DHC2 lane points.
    pub dhc2: Vec<ScalePoint>,
    /// Cluster size (overridden only by the smoke preset so tests stay
    /// sub-second).
    pub cluster_size: usize,
    /// Whether to write `BENCH_scale.json` (disabled for smoke runs).
    pub emit_json: bool,
    /// Heavy points dropped by [`gated`](Params::gated); listed in the
    /// report and in the JSON's `skipped_heavy` meta array.
    pub skipped_heavy: Vec<ScalePoint>,
    /// Attach a heartbeat collector to every run so the multi-minute
    /// points (n >= 3*10^5) print live round counts to stderr (the
    /// experiments binary's `--progress` flag, default on for
    /// `--heavy`).
    pub progress: bool,
}

impl Params {
    /// Parameters for the given effort level.
    pub fn for_effort(effort: Effort) -> Self {
        match effort {
            Effort::Full => Params {
                dra_sizes: vec![1_000, 2_000],
                dhc2: vec![
                    ScalePoint { n: 10_000, k: 50 },
                    ScalePoint { n: 100_000, k: 500 },
                    ScalePoint { n: 300_000, k: 1_500 },
                    ScalePoint { n: 1_000_000, k: 5_000 },
                ],
                cluster_size: CLUSTER_SIZE,
                emit_json: true,
                skipped_heavy: Vec::new(),
                progress: false,
            },
            Effort::Quick => Params {
                dra_sizes: vec![1_000],
                dhc2: vec![ScalePoint { n: 4_000, k: 20 }],
                cluster_size: CLUSTER_SIZE,
                emit_json: true,
                skipped_heavy: Vec::new(),
                progress: false,
            },
            Effort::Smoke => Params {
                dra_sizes: vec![200],
                dhc2: vec![ScalePoint { n: 120, k: 3 }],
                cluster_size: 40,
                emit_json: false,
                skipped_heavy: Vec::new(),
                progress: false,
            },
        }
    }

    /// Applies the `--heavy` gate: without the flag, DHC2 points above
    /// [`HEAVY_SCALE_NODES`] are dropped. The JSON baseline is still
    /// written — the committed trajectory is the non-heavy rows — with
    /// the dropped points recorded in `skipped_heavy`.
    pub fn gated(mut self, heavy: bool) -> Self {
        if !heavy {
            let (kept, skipped) = self.dhc2.into_iter().partition(|pt| pt.n <= HEAVY_SCALE_NODES);
            self.dhc2 = kept;
            self.skipped_heavy = skipped;
        }
        self
    }
}

/// One measured run at a scale point.
struct PointResult {
    algo: &'static str,
    n: usize,
    k: usize,
    m: usize,
    wall_s: f64,
    rounds: usize,
    messages: u64,
    words: u64,
    words_per_node: f64,
    peak_engine_words: u64,
    peak_words_per_node: f64,
    /// `VmHWM` after the run, if the high-water mark could be reset
    /// before it (monotone stale values are recorded as `None`).
    rss_hwm_kb: Option<u64>,
}

/// Resets the process RSS high-water mark so the next `VmHWM` read is
/// per-run, not process-lifetime. Needs kernel support for
/// `/proc/self/clear_refs`; returns whether the reset took.
fn reset_rss_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current `VmHWM` in kB from `/proc/self/status` (Linux only).
fn rss_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Measures one scale point on the first of up to 8 config seeds that
/// succeeds: wall-clock and (when the reset works) per-run peak RSS.
fn measure_point(
    algo: &'static str,
    g: &Graph,
    colors: Option<&[u32]>,
    k: usize,
    seed: u64,
    progress: bool,
) -> Result<PointResult, String> {
    let n = g.node_count();
    let collector = progress
        .then(|| CollectorHandle::new(RunObserver::new().with_heartbeat(Duration::from_secs(2))));
    for attempt in 0..8u64 {
        let mut cfg = DhcConfig::new(seed ^ (0xE16C + attempt)).with_partitions(k);
        if let Some(col) = &collector {
            // Live round counts on stderr; pure observation
            // (obs_equivalence).
            cfg = cfg.with_collector(col.clone());
        }
        let rss_ok = reset_rss_hwm();
        let t0 = Instant::now();
        let run = match algo {
            "dra" => run_dra(g, &cfg),
            _ => run_dhc2_with_colors(g, &cfg, colors.expect("clustered coloring"), k),
        };
        let Ok(out) = run else { continue };
        let wall_s = t0.elapsed().as_secs_f64();
        return Ok(PointResult {
            algo,
            n,
            k,
            m: g.edge_count(),
            wall_s,
            rounds: out.metrics.rounds,
            messages: out.metrics.messages,
            words: out.metrics.words,
            words_per_node: out.metrics.words as f64 / n as f64,
            peak_engine_words: out.metrics.peak_memory_words(),
            peak_words_per_node: out.metrics.peak_memory_words() as f64 / n as f64,
            rss_hwm_kb: if rss_ok { rss_hwm_kb() } else { None },
        });
    }
    Err(format!("{algo} did not succeed in 8 seeds at n = {n}, k = {k}"))
}

/// The baseline document in the shared `dhc-bench/v1` envelope: one
/// flat `scale-row` record per measured point, cluster constants and
/// skipped heavy points in `meta`, carried-forward committed heavy rows
/// re-appended verbatim.
fn render_doc(
    points: &[PointResult],
    params: &Params,
    carried: Vec<Json>,
    cores: usize,
    seed: u64,
) -> BenchDoc {
    let mut doc = BenchDoc::new(
        "e16",
        "scale",
        "DRA on G(n, 6 ln n/(n-1)) + clustered DHC2 (k clusters of s nodes, intra \
         G(s, 8 ln s/(s-1)), ceil(3 sqrt(|A||B|)) cross edges per merge pair)",
        cores,
        seed,
    );
    doc.meta("cluster_size", Json::usize(params.cluster_size));
    doc.meta("intra_degree_mult", Json::f1(INTRA_DEGREE_MULT));
    doc.meta("bridge_factor", Json::f1(BRIDGE_FACTOR));
    doc.meta(
        "skipped_heavy",
        Json::Arr(
            params
                .skipped_heavy
                .iter()
                .map(|pt| Json::obj().set("n", Json::usize(pt.n)).set("k", Json::usize(pt.k)))
                .collect(),
        ),
    );
    for p in points {
        let rss = match p.rss_hwm_kb {
            Some(kb) => Json::u64(kb),
            None => Json::Null,
        };
        doc.push(
            Record::new("scale-row")
                .str("algo", p.algo)
                .usize("n", p.n)
                .usize("k", p.k)
                .usize("m", p.m)
                .f3("wall_s", p.wall_s)
                .usize("rounds", p.rounds)
                .u64("messages", p.messages)
                .u64("words", p.words)
                .f1("words_per_node", p.words_per_node)
                .u64("peak_engine_words", p.peak_engine_words)
                .f1("peak_words_per_node", p.peak_words_per_node)
                .field("rss_hwm_kb", rss),
        );
    }
    for rec in carried {
        doc.push_json(rec);
    }
    doc
}

/// Runs E16 and renders its report (optionally writing the JSON baseline).
pub fn run(params: &Params, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let s = params.cluster_size;
    let mut out = String::new();
    out.push_str(&format!(
        "E16 scale sweep: runtime and memory trajectory (machine has {cores} core(s))\n\n"
    ));
    let mut t = Table::new(vec![
        "algo",
        "n",
        "k",
        "m",
        "wall s",
        "rounds",
        "messages",
        "words/node",
        "peak words",
        "peak RSS kB",
    ]);
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for &n in &params.dra_sizes {
        let p = (6.0 * (n as f64).ln() / (n as f64 - 1.0)).min(1.0);
        let g = gnp(n, p, &mut rng_from_seed(seed ^ 0xE16)).expect("valid gnp");
        match measure_point("dra", &g, None, 1, seed, params.progress) {
            Ok(pt) => points.push(pt),
            Err(e) => failures.push(e),
        }
    }
    for &ScalePoint { n, k } in &params.dhc2 {
        let intra_p = (INTRA_DEGREE_MULT * (s as f64).ln() / (s as f64 - 1.0)).min(1.0);
        let (g, colors) = clustered(k, s, intra_p, BRIDGE_FACTOR, &mut rng_from_seed(seed ^ 0xE16))
            .expect("valid clustered graph");
        debug_assert_eq!(g.node_count(), n, "point n must equal k * cluster_size");
        match measure_point("dhc2", &g, Some(&colors), k, seed, params.progress) {
            Ok(pt) => points.push(pt),
            Err(e) => failures.push(e),
        }
    }
    for p in &points {
        t.row(vec![
            p.algo.to_string(),
            p.n.to_string(),
            p.k.to_string(),
            p.m.to_string(),
            f3(p.wall_s),
            p.rounds.to_string(),
            p.messages.to_string(),
            f3(p.words_per_node),
            p.peak_engine_words.to_string(),
            p.rss_hwm_kb.map_or_else(|| "n/a".into(), |kb| kb.to_string()),
        ]);
    }
    out.push_str(&t.render());
    for e in &failures {
        out.push_str(&format!("    FAILED: {e}\n"));
    }
    for pt in &params.skipped_heavy {
        out.push_str(&format!(
            "    skipped (needs --heavy): clustered DHC2 at n = {}, k = {} \
             (several minutes per run)\n",
            pt.n, pt.k
        ));
    }
    if params.emit_json {
        let path = baseline_path("BENCH_SCALE_OUT", "BENCH_scale.json");
        // Committed rows above everything measured this run (the heavy
        // trajectory a non-heavy refresh must not lose) come along.
        let measured_max = points.iter().map(|p| p.n).max().unwrap_or(0) as u64;
        let carried: Vec<Json> = carried_records(&path, &["scale-row"])
            .into_iter()
            .filter(|r| r.get("n").and_then(Json::as_u64).is_some_and(|n| n > measured_max))
            .collect();
        let doc = render_doc(&points, params, carried, cores, seed);
        out.push_str(&write_baseline(&path, &doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_reports() {
        let report = run(&Params::for_effort(Effort::Smoke), 7);
        assert!(report.contains("scale sweep"));
        assert!(report.contains("peak words"));
        assert!(!report.contains("FAILED"));
        assert!(!report.contains("baseline written"));
    }

    #[test]
    fn heavy_gate_drops_big_points_but_keeps_json() {
        let full = Params::for_effort(Effort::Full);
        let gated = full.clone().gated(false);
        assert!(gated.dhc2.iter().all(|pt| pt.n <= HEAVY_SCALE_NODES));
        assert_eq!(gated.skipped_heavy.len(), 2);
        assert!(gated.emit_json, "the committed baseline is the non-heavy trajectory");
        let heavy = full.clone().gated(true);
        assert_eq!(heavy.dhc2.len(), 4);
        assert!(heavy.skipped_heavy.is_empty());
    }

    #[test]
    fn doc_validates_and_carries_heavy_rows_forward() {
        let point = |n, rss_hwm_kb| PointResult {
            algo: "dhc2",
            n,
            k: 3,
            m: 456,
            wall_s: 0.5,
            rounds: 10,
            messages: 100,
            words: 200,
            words_per_node: 1.7,
            peak_engine_words: 777,
            peak_words_per_node: 6.5,
            rss_hwm_kb,
        };
        let params = Params::for_effort(Effort::Full).gated(false);
        let carried = vec![Json::obj()
            .set("kind", Json::str("scale-row"))
            .set("n", Json::u64(1_000_000))
            .set("mode", Json::str("lean"))];
        let doc = render_doc(&[point(120, Some(4_096)), point(240, None)], &params, carried, 1, 7);
        let text = doc.render();
        let checked = dhc_obs::schema::validate(&text);
        assert!(checked.is_ok(), "{checked:?}");
        assert!(text.contains("\"bench\": \"scale\""));
        assert!(text.contains("\"kind\":\"scale-row\""));
        assert!(text.contains("\"peak_engine_words\":777"));
        assert!(text.contains("\"rss_hwm_kb\":4096"));
        assert!(text.contains("\"rss_hwm_kb\":null"));
        assert!(text.contains("\"n\":1000000"));
        assert!(text.contains("\"skipped_heavy\":[{\"n\":300000,\"k\":1500},"));
    }
}
