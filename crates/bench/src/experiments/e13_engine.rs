//! **E13 — engine throughput baseline** (not a paper claim): rounds/sec
//! of the two-phase round engine on two workloads — the flood-echo
//! microprotocol and the **broadcast storm** (every node `send_all`s
//! every round, the shared-payload flood fabric's hot path) — recorded
//! to `BENCH_engine.json` so the perf trajectory is tracked across PRs.
//!
//! The engine is the substrate every paper experiment stands on; a
//! regression here silently inflates E1–E12 wall-clock without changing
//! any simulated quantity, which is why the baseline is tracked
//! explicitly. The `--heavy` gate adds one end-to-end **DHC1** point
//! (`n = 10⁴`, `k = 50`), whose stitch is the engine's largest
//! whole-graph workload.

use crate::baseline::{baseline_path, carried_records, write_baseline};
use crate::engine_probe::{flood_echo, flood_echo_observed, flood_storm, probe_graph, STORM_DEPTH};
use crate::table::{f3, Table};
use dhc_core::{run_dhc1, CollectorHandle, DhcConfig};
use dhc_graph::rng::rng_from_seed;
use dhc_obs::schema::{BenchDoc, Record};
use dhc_obs::RunObserver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::Effort;

/// End-to-end DHC1 scaling point: `n` nodes, `k` partitions.
#[derive(Debug, Clone, Copy)]
pub struct Dhc1Point {
    /// Graph size.
    pub n: usize,
    /// Phase-1 partition count.
    pub k: usize,
}

/// DHC1 points with more nodes than this take over a minute per run on
/// a CI-class host and are gated behind the experiments binary's
/// explicit `--heavy` flag.
pub const HEAVY_DHC1_NODES: usize = 4_000;

/// Sweep parameters for E13.
#[derive(Debug, Clone)]
pub struct Params {
    /// Graph sizes to probe.
    pub sizes: Vec<usize>,
    /// Timed repetitions per point (the minimum is reported).
    pub reps: usize,
    /// Alternating detached/attached window pairs of the collector
    /// overhead probe.
    pub overhead_pairs: usize,
    /// Work per overhead timing window, in seconds.
    pub overhead_window_s: f64,
    /// Whether to write the `BENCH_engine.json` baseline (disabled for
    /// smoke runs so tests do not touch the filesystem).
    pub emit_json: bool,
    /// End-to-end DHC1 point, if any.
    pub dhc1: Option<Dhc1Point>,
    /// A heavy point dropped by [`gated`](Params::gated); `run` prints a
    /// one-line skip notice for it.
    pub skipped_heavy: Option<Dhc1Point>,
    /// Attach a heartbeat collector to the DHC1 end-to-end runs so
    /// multi-minute points print live round counts to stderr (the
    /// experiments binary's `--progress` flag, default on for
    /// `--heavy`).
    pub progress: bool,
}

impl Params {
    /// Parameters for the given effort level.
    pub fn for_effort(effort: Effort) -> Self {
        match effort {
            Effort::Full => Params {
                sizes: vec![1_000, 10_000],
                reps: 5,
                overhead_pairs: 12,
                overhead_window_s: 2.5,
                emit_json: true,
                dhc1: Some(Dhc1Point { n: 10_000, k: 50 }),
                skipped_heavy: None,
                progress: false,
            },
            Effort::Quick => Params {
                sizes: vec![1_000, 10_000],
                reps: 3,
                overhead_pairs: 12,
                overhead_window_s: 2.5,
                emit_json: true,
                dhc1: Some(Dhc1Point { n: 10_000, k: 50 }),
                skipped_heavy: None,
                progress: false,
            },
            Effort::Smoke => Params {
                sizes: vec![256],
                reps: 1,
                overhead_pairs: 2,
                overhead_window_s: 0.02,
                emit_json: false,
                dhc1: Some(Dhc1Point { n: 240, k: 4 }),
                skipped_heavy: None,
                progress: false,
            },
        }
    }

    /// Applies the `--heavy` gate: without the flag, DHC1 points above
    /// [`HEAVY_DHC1_NODES`] are dropped so `experiments all` stays
    /// tractable. The baseline is still written — the committed DHC1
    /// rows are carried forward verbatim from the existing document
    /// (see [`crate::baseline::carried_records`]) — and `run` prints a
    /// one-line notice naming what was skipped.
    pub fn gated(mut self, heavy: bool) -> Self {
        if !heavy {
            if let Some(pt) = self.dhc1 {
                if pt.n > HEAVY_DHC1_NODES {
                    self.dhc1 = None;
                    self.skipped_heavy = Some(pt);
                }
            }
        }
        self
    }
}

/// One measured microbenchmark point.
struct Sample {
    workload: &'static str,
    n: usize,
    rounds: usize,
    messages: u64,
    wall_ms: f64,
    rounds_per_sec: f64,
}

fn measure(workload: &'static str, n: usize, reps: usize, seed: u64) -> Sample {
    let g = probe_graph(n, seed);
    let mut best = f64::INFINITY;
    let mut rounds = 0;
    let mut messages = 0;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let (r, m) = match workload {
            "flood-echo" => flood_echo(&g),
            "broadcast-storm" => flood_storm(&g, STORM_DEPTH),
            other => unreachable!("unknown E13 workload {other}"),
        };
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        rounds = r;
        messages = m;
    }
    Sample {
        workload,
        n,
        rounds,
        messages,
        wall_ms: best * 1e3,
        rounds_per_sec: rounds as f64 / best,
    }
}

/// One end-to-end DHC1 run.
struct Dhc1Sample {
    wall_s: f64,
    rounds: usize,
    messages: u64,
    /// Peak engine-buffer footprint ([`Metrics::peak_memory_words`]) —
    /// the memory half of the baseline; outside the bit-identity check.
    peak_words: u64,
}

/// The DHC1 operating point: class size `s = n/k` with intra-class
/// expected degree `6 ln s` (the density Phase 1 needs).
fn dhc1_graph(pt: Dhc1Point, seed: u64) -> dhc_graph::Graph {
    let s = (pt.n / pt.k).max(2) as f64;
    let p = (6.0 * s.ln() / (s - 1.0)).min(1.0);
    dhc_graph::generator::gnp(pt.n, p, &mut rng_from_seed(seed ^ 0xE13)).expect("valid gnp")
}

/// Times DHC1 on the first succeeding seed.
fn measure_dhc1(pt: Dhc1Point, seed: u64, progress: bool) -> Result<Dhc1Sample, String> {
    let g = dhc1_graph(pt, seed);
    // Live round counts on stderr for the multi-minute runs; the
    // collector is pure observation (obs_equivalence).
    let collector = progress
        .then(|| CollectorHandle::new(RunObserver::new().with_heartbeat(Duration::from_secs(2))));
    for attempt in 0..8u64 {
        let mut cfg = DhcConfig::new(seed ^ (0xD1C1 + attempt)).with_partitions(pt.k);
        if let Some(col) = &collector {
            cfg = cfg.with_collector(col.clone());
        }
        let t0 = Instant::now();
        let Ok(out) = run_dhc1(&g, &cfg) else { continue };
        return Ok(Dhc1Sample {
            wall_s: t0.elapsed().as_secs_f64(),
            rounds: out.metrics.rounds,
            messages: out.metrics.messages,
            peak_words: out.metrics.peak_memory_words(),
        });
    }
    Err(format!("DHC1 did not succeed in 8 seeds at n = {}, k = {}", pt.n, pt.k))
}

/// Collector overhead measured on the flood-echo probe: same graph,
/// detached vs attached (a live [`RunObserver`] behind a shared
/// handle). The simulated results are bit-identical either way
/// (`crates/core/tests/obs_equivalence.rs`); the telemetry layer's
/// acceptance bar is < 2% on this probe.
///
/// A single flood-echo run is ~40 ms, and on a shared host both wall
/// clock and process CPU time swing by ±10% at that scale (scheduler
/// steal, SMT neighbors, frequency drift) — far above the few-percent
/// signal. So the probe times *batches* of runs (seconds-long windows)
/// with process CPU time where available, alternates
/// detached/attached windows so each adjacent pair shares the host's
/// slow drift, and reports the median of the per-pair overhead ratios
/// — the drift cancels within a pair and the median rejects the
/// occasional noisy-neighbor spike. Smoke runs take two pairs of
/// windows far too short for that; they only exercise the probe.
struct Overhead {
    n: usize,
    /// Alternating detached/attached window pairs measured.
    pairs: usize,
    /// Flood-echo runs per timing window.
    batch: usize,
    /// `"cpu-ticks"` (`/proc/self/stat` utime+stime) or `"wall"`.
    clock: &'static str,
    /// Best per-run cost over all windows, each variant.
    detached_ms: f64,
    attached_ms: f64,
    /// Median of per-pair `attached/detached - 1` ratios, in percent.
    overhead_pct: f64,
    /// Rounds the attached collector actually observed (proof the
    /// measurement exercised the telemetry path).
    rounds_observed: u64,
}

/// This process's cumulative on-CPU time (user + system) in clock
/// ticks, from `/proc/self/stat`; `None` off Linux. USER_HZ is 100 on
/// every Linux ABI, so one tick is 10 ms — coarse, which is why the
/// probe only ever times seconds-long batches with it.
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces; fields resume after its ')'.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut it = rest.split_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some(utime + stime)
}

fn measure_overhead(n: usize, pairs: usize, window_s: f64, seed: u64) -> Overhead {
    let g = probe_graph(n, seed);
    let shared = Arc::new(Mutex::new(RunObserver::new()));
    let handle = CollectorHandle::new(shared.clone());
    // Warmup pair swallows the cold start and calibrates the batch size
    // to `window_s` of work per window.
    let t0 = Instant::now();
    std::hint::black_box(flood_echo(&g));
    std::hint::black_box(flood_echo_observed(&g, Some(handle.clone())));
    let per_run = (t0.elapsed().as_secs_f64() / 2.0).max(1e-6);
    let batch = ((window_s / per_run).ceil() as usize).clamp(1, 500);
    // On-CPU ticks are 10 ms, so they time only windows of a second or
    // more, where one tick of quantization stays well under the
    // few-percent signal.
    let cpu = window_s >= 1.0 && cpu_ticks().is_some();
    // One timing window: `batch` runs, on-CPU ticks when they apply
    // (immune to scheduler steal), wall clock otherwise. Returned in ms.
    let window = |attached: bool| -> f64 {
        let (t0, w0) = (if cpu { cpu_ticks() } else { None }, Instant::now());
        for _ in 0..batch {
            if attached {
                std::hint::black_box(flood_echo_observed(&g, Some(handle.clone())));
            } else {
                std::hint::black_box(flood_echo(&g));
            }
        }
        match t0 {
            Some(t0) => (cpu_ticks().unwrap_or(t0) - t0) as f64 * 10.0,
            None => w0.elapsed().as_secs_f64() * 1e3,
        }
    };
    let mut ratios = Vec::with_capacity(pairs);
    let (mut detached, mut attached) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pairs {
        let d = window(false).max(1e-9);
        let a = window(true).max(1e-9);
        detached = detached.min(d);
        attached = attached.min(a);
        ratios.push(a / d);
    }
    ratios.sort_by(f64::total_cmp);
    let mid = pairs / 2;
    let median = if pairs % 2 == 0 { (ratios[mid - 1] + ratios[mid]) / 2.0 } else { ratios[mid] };
    let rounds_observed = shared.lock().unwrap().counters().rounds_observed;
    Overhead {
        n,
        pairs,
        batch,
        clock: if cpu { "cpu-ticks" } else { "wall" },
        detached_ms: detached / batch as f64,
        attached_ms: attached / batch as f64,
        overhead_pct: (median - 1.0) * 100.0,
        rounds_observed,
    }
}

/// The baseline document in the shared `dhc-bench/v1` envelope; records
/// carried forward from the committed file are re-appended verbatim.
fn render_doc(
    samples: &[Sample],
    overhead: &Overhead,
    dhc1: Option<(Dhc1Point, &Dhc1Sample)>,
    carried: Vec<dhc_obs::json::Json>,
    cores: usize,
    seed: u64,
) -> BenchDoc {
    let mut doc = BenchDoc::new(
        "e13",
        "engine",
        "flood-echo + broadcast-storm(50) on G(n, 3 ln n / n)",
        cores,
        seed,
    );
    for s in samples {
        doc.push(
            Record::new("engine-workload")
                .str("workload", s.workload)
                .usize("n", s.n)
                .usize("rounds", s.rounds)
                .u64("messages", s.messages)
                .f3("wall_ms", s.wall_ms)
                .f1("rounds_per_sec", s.rounds_per_sec),
        );
    }
    doc.push(
        Record::new("collector-overhead")
            .str("workload", "flood-echo")
            .usize("n", overhead.n)
            .usize("pairs", overhead.pairs)
            .usize("batch", overhead.batch)
            .str("clock", overhead.clock)
            .u64("rounds_observed", overhead.rounds_observed)
            .f3("detached_run_ms", overhead.detached_ms)
            .f3("attached_run_ms", overhead.attached_ms)
            .f3("overhead_pct", overhead.overhead_pct),
    );
    if let Some((pt, r)) = dhc1 {
        doc.push(
            Record::new("dhc1-e2e")
                .usize("n", pt.n)
                .usize("k", pt.k)
                .f3("wall_s", r.wall_s)
                .usize("rounds", r.rounds)
                .u64("messages", r.messages)
                .u64("engine_peak_words", r.peak_words),
        );
    }
    for rec in carried {
        doc.push_json(rec);
    }
    doc
}

/// Runs E13 and renders its report (optionally writing the JSON baseline).
pub fn run(params: &Params, seed: u64) -> String {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let mut out = String::new();
    out.push_str(&format!(
        "E13 engine throughput: flood-echo + broadcast-storm rounds/sec \
         (machine has {cores} core(s))\n\n"
    ));
    // Measured first, on a fresh heap: the storm sweep below fragments
    // the allocator badly enough to swamp a few-percent signal.
    let overhead = measure_overhead(
        params.sizes.iter().copied().max().unwrap_or(256),
        params.overhead_pairs,
        params.overhead_window_s,
        seed,
    );
    let mut t = Table::new(vec!["workload", "n", "rounds", "messages", "wall ms", "rounds/s"]);
    let mut samples = Vec::new();
    for &workload in &["flood-echo", "broadcast-storm"] {
        for &n in &params.sizes {
            let s = measure(workload, n, params.reps, seed);
            t.row(vec![
                s.workload.to_string(),
                s.n.to_string(),
                s.rounds.to_string(),
                s.messages.to_string(),
                f3(s.wall_ms),
                f3(s.rounds_per_sec),
            ]);
            samples.push(s);
        }
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n    telemetry collector overhead on flood-echo (n = {}, {} alternating \
         {}-run {} windows, median of per-pair ratios): \
         detached {} ms/run, attached {} ms/run ({:+.2}%)\n",
        overhead.n,
        overhead.pairs,
        overhead.batch,
        overhead.clock,
        f3(overhead.detached_ms),
        f3(overhead.attached_ms),
        overhead.overhead_pct
    ));
    let mut dhc1_row = None;
    if let Some(pt) = params.dhc1 {
        out.push_str(&format!("\n    DHC1 end-to-end (n = {}, k = {}):\n", pt.n, pt.k));
        match measure_dhc1(pt, seed, params.progress) {
            Ok(r) => {
                let mut dt = Table::new(vec!["wall s", "rounds", "messages", "peak words"]);
                dt.row(vec![
                    f3(r.wall_s),
                    r.rounds.to_string(),
                    r.messages.to_string(),
                    r.peak_words.to_string(),
                ]);
                out.push_str(&dt.render());
                dhc1_row = Some((pt, r));
            }
            Err(e) => out.push_str(&format!("    {e}\n")),
        }
    }
    if let Some(pt) = params.skipped_heavy {
        out.push_str(&format!(
            "\n    skipped (needs --heavy): DHC1 end-to-end at n = {}, k = {} \
             (over a minute per run); committed rows carried forward\n",
            pt.n, pt.k
        ));
    }
    if params.emit_json {
        let path = baseline_path("BENCH_ENGINE_OUT", "BENCH_engine.json");
        // A non-heavy refresh keeps the committed heavy DHC1 rows.
        let carried =
            if params.dhc1.is_none() { carried_records(&path, &["dhc1-e2e"]) } else { Vec::new() };
        let doc = render_doc(
            &samples,
            &overhead,
            dhc1_row.as_ref().map(|(pt, r)| (*pt, r)),
            carried,
            cores,
            seed,
        );
        out.push_str(&write_baseline(&path, &doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhc_obs::schema::validate;

    #[test]
    fn smoke_runs_and_reports() {
        let report = run(&Params::for_effort(Effort::Smoke), 4);
        assert!(report.contains("engine throughput"));
        assert!(report.contains("telemetry collector overhead"));
        assert!(report.contains("DHC1 end-to-end"));
        assert!(!report.contains("baseline written"));
    }

    #[test]
    fn heavy_gate_drops_dhc1_point_but_keeps_baseline_write() {
        let full = Params::for_effort(Effort::Full);
        let gated = full.clone().gated(false);
        assert!(gated.dhc1.is_none() && gated.skipped_heavy.is_some());
        assert!(gated.emit_json, "non-heavy refresh carries the committed DHC1 rows forward");
        let heavy = full.clone().gated(true);
        assert_eq!(heavy.dhc1.map(|p| p.n), Some(10_000));
        assert!(heavy.emit_json);
        // The smoke point is sub-threshold and passes through untouched.
        let smoke = Params::for_effort(Effort::Smoke).gated(false);
        assert!(smoke.dhc1.is_some() && smoke.skipped_heavy.is_none());
    }

    #[test]
    fn overhead_probe_is_sized_by_effort() {
        // Quick and Full keep the probe's 12 pairs of 2.5 s windows;
        // Smoke only exercises it.
        for effort in [Effort::Full, Effort::Quick] {
            let p = Params::for_effort(effort);
            assert_eq!((p.overhead_pairs, p.overhead_window_s), (12, 2.5));
        }
        let smoke = Params::for_effort(Effort::Smoke);
        assert!(smoke.overhead_pairs as f64 * 2.0 * smoke.overhead_window_s < 0.1);
    }

    fn sample() -> Sample {
        Sample {
            workload: "flood-echo",
            n: 10,
            rounds: 5,
            messages: 7,
            wall_ms: 0.5,
            rounds_per_sec: 10_000.0,
        }
    }

    fn overhead() -> Overhead {
        Overhead {
            n: 10,
            pairs: 12,
            batch: 25,
            clock: "cpu-ticks",
            detached_ms: 10.0,
            attached_ms: 10.1,
            overhead_pct: 1.0,
            rounds_observed: 15,
        }
    }

    #[test]
    fn doc_validates_and_keeps_row_fields() {
        let d = Dhc1Sample { wall_s: 1.25, rounds: 100, messages: 4_000, peak_words: 123_456 };
        let doc = render_doc(
            &[sample()],
            &overhead(),
            Some((Dhc1Point { n: 240, k: 4 }, &d)),
            Vec::new(),
            4,
            9,
        );
        let text = doc.render();
        assert!(validate(&text).is_ok(), "{:?}", validate(&text));
        assert!(text.contains("\"cores\": 4"));
        assert!(text.contains("\"kind\":\"engine-workload\""));
        assert!(text.contains("\"kind\":\"collector-overhead\""));
        assert!(text.contains("\"overhead_pct\":1.000"));
        assert!(text.contains("\"kind\":\"dhc1-e2e\""));
        assert!(text.contains("\"engine_peak_words\":123456"));
    }

    #[test]
    fn doc_without_dhc1_rows_carries_committed_ones_forward() {
        use dhc_obs::json::Json;
        let carried = vec![Json::obj()
            .set("kind", Json::str("dhc1-e2e"))
            .set("n", Json::u64(10_000))
            .set("wall_s", Json::f3(51.409))];
        let doc = render_doc(&[sample()], &overhead(), None, carried, 1, 9);
        let text = doc.render();
        assert!(validate(&text).is_ok(), "{:?}", validate(&text));
        assert!(text.contains("\"kind\":\"dhc1-e2e\""));
        assert!(text.contains("\"wall_s\":51.409"));
    }

    #[test]
    fn overhead_record_carries_measurement_provenance() {
        let text = render_doc(&[sample()], &overhead(), None, Vec::new(), 1, 9).render();
        assert!(text.contains("\"clock\":\"cpu-ticks\""));
        assert!(text.contains("\"pairs\":12"));
        assert!(text.contains("\"batch\":25"));
        assert!(text.contains("\"detached_run_ms\":10.000"));
    }

    #[test]
    fn cpu_ticks_advances_monotonically_on_linux() {
        let Some(a) = cpu_ticks() else { return };
        let mut spin = 0u64;
        // ~tens of ms of real work so utime visibly ticks.
        while cpu_ticks() == Some(a) && spin < 2_000_000_000 {
            spin = std::hint::black_box(spin + 1);
        }
        let b = cpu_ticks().expect("still on Linux");
        assert!(b >= a);
    }
}
