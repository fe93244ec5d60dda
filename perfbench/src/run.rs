//! The measurement loops: a closed loop of single entry-point calls, one
//! at a time, on the calling thread.
//!
//! Every run first makes one untimed warm-up call on the suite's first
//! instance in the fresh process. It then repeats whole passes over the
//! suite until `seconds` have passed, so every suite instance is measured
//! equally often.

use crate::clock::{clock_probe, peak_rss_bytes, thread_cpu};
use crate::pins::{verify, Pin};
use crate::stats::{fast_mode, median, quantile};
use crate::trace::{self, Phase, Recorder, Split};
use crate::workload::{Shape, Workload};
use dhc_core::{DhcError, RunOutcome};
use dhc_obs::CollectorHandle;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Entry-point calls made.
    pub attempted: u64,
    /// One line per failed call.
    pub failures: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// How the metrics were sampled, for the log.
    pub notes: Vec<String>,
}

/// One generated instance and one timed call on it.
struct Call {
    /// Thread CPU time to generate the input.
    setup: Duration,
    wall: Duration,
    cpu: Duration,
    result: Result<RunOutcome, DhcError>,
}

impl Report {
    /// Generates `pin`'s instance, calls the entry point on it once and
    /// checks the result; a failed check is recorded as a failed call.
    fn call(
        &mut self,
        w: Workload,
        shape: Shape,
        pin: &Pin,
        collector: Option<&CollectorHandle>,
    ) -> Call {
        let c0 = thread_cpu();
        let input = w.generate(shape, pin.instance);
        let setup = thread_cpu() - c0;
        let mut cfg = w.config(shape, pin.instance);
        if let Some(handle) = collector {
            cfg = cfg.with_collector(handle.clone());
        }
        let (t0, c0) = (Instant::now(), thread_cpu());
        let result = w.call(shape, &input, &cfg);
        let (cpu, wall) = (thread_cpu() - c0, t0.elapsed());
        self.attempted += 1;
        if let Err(e) = verify(pin, &input, &result) {
            self.failures.push(e);
        }
        Call { setup, wall, cpu, result }
    }

    /// Whether every call passed its checks.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How much slower than an instance's fastest sample a sample may be and
/// still count as taken at full speed.
///
/// On a shared host a call runs in one of two modes: at full speed, or
/// 1.5-1.9x slower while another tenant shares the core. The share of
/// slow calls drifts within a run and between runs, from a few percent to
/// nearly all of them, so every fixed quantile of the samples, the 90th
/// as much as the median, jumps between the modes from run to run. The
/// full-speed samples lie within a fifth of the fastest, and their
/// median holds still for as long as an instance has a few of them.
pub const FAST_BAND: f64 = 1.2;

/// The full-speed median of [`clock_probe`] at a 3.0 GHz core clock on
/// the measuring host. End-to-end timings are scaled to this clock.
///
/// The host's core clock follows its load, between 2.4 and 3.4 GHz in
/// the runs measured, and moves a run's full-speed call times with it:
/// across runs of one workload they tracked the probe's full-speed time
/// with a correlation of 0.93-0.98.
pub const REFERENCE_PROBE_S: f64 = 267e-6;

/// The median of `xs`'s full-speed samples (see [`FAST_BAND`]).
fn full_speed(xs: &[f64]) -> Option<f64> {
    median(&fast_mode(xs, FAST_BAND))
}

/// The sum over suite instances of each instance's full-speed median.
/// Every suite spans the pool's range of work, so the sum over all of it
/// varies less from seed to seed than any one instance does.
fn sum_full_speed(per_instance: &[Vec<f64>]) -> f64 {
    per_instance.iter().filter_map(|xs| full_speed(xs)).sum()
}

/// The factor that scales a time measured in this run to the reference
/// clock: [`REFERENCE_PROBE_S`] over the full-speed median of the run's
/// clock probes.
fn clock_scale(probes: &[f64]) -> f64 {
    full_speed(probes).map_or(1.0, |p| REFERENCE_PROBE_S / p)
}

/// An untraced run: the end-to-end metrics. Each timing is taken per
/// instance as the median of its full-speed samples (see [`FAST_BAND`])
/// and scaled to the reference clock with a [`clock_probe`] after every
/// call (see [`REFERENCE_PROBE_S`]).
///
/// * `setup_s`: thread CPU time to generate one instance, averaged over
///   the suite.
/// * `wall_s`: call wall time, averaged over the suite.
/// * `msgs_per_cpu_s`: the suite's simulated messages over the sum of
///   its instances' call CPU times.
/// * `peak_rss_mb`: the peak RSS of the fresh process after generating
///   the suite's first instance and calling the entry point on it once.
///
/// The warm-up call is not a sample. The notes give the sample count, the
/// share of full-speed calls, the clock scale, and the unscaled median
/// and 90th-percentile wall time over all calls.
pub fn untraced(w: Workload, shape: Shape, suite: &[Pin], seconds: f64) -> Report {
    let mut report = Report::default();
    report.call(w, shape, &suite[0], None);
    let peak_rss_mb =
        peak_rss_bytes().expect("/proc/self/status reports VmHWM on Linux") as f64 / 1e6;

    let mut setup = vec![Vec::new(); suite.len()];
    let mut wall = vec![Vec::new(); suite.len()];
    let mut cpu = vec![Vec::new(); suite.len()];
    let mut probes = Vec::new();
    let start = Instant::now();
    loop {
        for (i, pin) in suite.iter().enumerate() {
            let call = report.call(w, shape, pin, None);
            probes.push(clock_probe().as_secs_f64());
            setup[i].push(call.setup.as_secs_f64());
            wall[i].push(call.wall.as_secs_f64());
            cpu[i].push(call.cpu.as_secs_f64());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let n = suite.len() as f64;
    let scale = clock_scale(&probes);
    let wall_at = |q: f64| wall.iter().filter_map(|xs| quantile(xs, q)).sum::<f64>() / n;
    let fast_calls: usize = wall.iter().map(|xs| fast_mode(xs, FAST_BAND).len()).sum();
    report.notes.push(format!(
        "{} samples per instance, {:.0}% of calls at full speed; clock scale {:.4}; unscaled suite-mean call wall time: full-speed {:.6} s, quantiles 0 / 0.5 / 0.9 {:.6} / {:.6} / {:.6} s",
        wall[0].len(),
        100.0 * fast_calls as f64 / probes.len() as f64,
        scale,
        sum_full_speed(&wall) / n,
        wall_at(0.0),
        wall_at(0.5),
        wall_at(0.9),
    ));
    let messages: u64 = suite.iter().map(|p| p.messages).sum();
    report.metrics = vec![
        metric("setup_s", "s", scale * sum_full_speed(&setup) / n),
        metric("wall_s", "s", scale * sum_full_speed(&wall) / n),
        metric("msgs_per_cpu_s", "1/s", messages as f64 / (scale * sum_full_speed(&cpu))),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ];
    report
}

/// A traced run: the per-layer metrics.
///
/// Each instance is called twice per pass, once with the benchmark's
/// [`Recorder`] attached and once without, alternating which goes first;
/// the traced call gives the layer split and the pair gives the tracing
/// overhead. Both calls are checked against the same pin, so the traced
/// run's simulated totals equal the untraced run's.
pub fn traced(w: Workload, shape: Shape, suite: &[Pin], seconds: f64) -> Report {
    let mut report = Report::default();
    let warm_up = report.call(w, shape, &suite[0], None);
    let mut gen_ns_per_edge = vec![warm_up.setup.as_nanos() as f64 / suite[0].edges as f64];

    let recorder = Arc::new(Mutex::new(Recorder::default()));
    let handle = CollectorHandle::new(recorder.clone());
    let mut split = Split::default();
    let mut overhead = Vec::new();
    let mut peak_engine_words = 0u64;
    let start = Instant::now();
    for pass in 0.. {
        for pin in suite {
            let (plain, traced) = if pass % 2 == 0 {
                let plain = report.call(w, shape, pin, None);
                (plain, report.call(w, shape, pin, Some(&handle)))
            } else {
                let traced = report.call(w, shape, pin, Some(&handle));
                (report.call(w, shape, pin, None), traced)
            };
            for call in [&plain, &traced] {
                gen_ns_per_edge.push(call.setup.as_nanos() as f64 / pin.edges as f64);
            }
            overhead.push(traced.cpu.as_secs_f64() / plain.cpu.as_secs_f64() - 1.0);
            let events =
                std::mem::take(&mut recorder.lock().unwrap_or_else(PoisonError::into_inner).events);
            // A failed call is already counted, and leaves its spans open.
            let Ok(outcome) = &traced.result else { continue };
            peak_engine_words = peak_engine_words.max(outcome.metrics.peak_memory_words());
            match trace::split(&events) {
                Ok(s) if s.run_totals == [pin.rounds, pin.messages, pin.words] => split.absorb(&s),
                Ok(s) => report.failures.push(format!(
                    "instance {}: traced run totals {:?} differ from the pin",
                    pin.instance, s.run_totals
                )),
                Err(e) => report.failures.push(format!("instance {}: {e}", pin.instance)),
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let edges = suite.iter().map(|p| p.edges as f64).sum::<f64>() / suite.len() as f64;
    report.metrics = layer_metrics(
        &split,
        edges,
        median(&gen_ns_per_edge).unwrap_or(0.0),
        peak_engine_words,
        100.0 * median(&overhead).unwrap_or(0.0),
    );
    report
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// Times and counts are per call; a phase the workload does not run
/// reports zeros.
fn layer_metrics(
    split: &Split,
    edges: f64,
    gen_ns_per_edge: f64,
    peak_engine_words: u64,
    trace_overhead_pct: f64,
) -> Vec<Metric> {
    let calls = split.calls.max(1) as f64;
    let per_call_s = |ns: u64| ns as f64 / 1e9 / calls;
    let per_call = |n: u64| n as f64 / calls;
    let class_s: Vec<f64> = split.class_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let mut out = vec![
        metric("graph.edges", "count", edges),
        metric("graph.gen_ns_per_edge", "ns", gen_ns_per_edge),
        metric("core.run_s", "s", per_call_s(split.run_ns)),
    ];
    for p in Phase::ALL {
        out.push(metric(format!("core.{}_s", p.name()), "s", per_call_s(split.phase(p).span_ns)));
    }
    out.extend([
        metric("core.phase1.class_p50_s", "s", quantile(&class_s, 0.5).unwrap_or(0.0)),
        metric("core.phase1.class_max_s", "s", quantile(&class_s, 1.0).unwrap_or(0.0)),
        metric("core.phase1.self_s", "s", per_call_s(split.phase1_self_ns)),
        metric("core.run_self_s", "s", per_call_s(split.run_self_ns)),
    ]);
    for p in Phase::ALL {
        let ps = split.phase(p);
        let name = p.name();
        let [rounds, messages, words] = ps.totals;
        let steps_us: Vec<f64> = ps.steps_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let step_ns = ps.step_ns();
        out.extend([
            metric(format!("core.{name}.rounds"), "count", per_call(rounds)),
            metric(format!("core.{name}.messages"), "count", per_call(messages)),
            metric(format!("core.{name}.words"), "count", per_call(words)),
            metric(format!("congest.{name}.steps"), "count", per_call(ps.steps_ns.len() as u64)),
            metric(format!("congest.{name}.callbacks"), "count", per_call(ps.callbacks)),
            metric(format!("congest.{name}.deliveries"), "count", per_call(ps.deliveries)),
            metric(format!("congest.{name}.unicast_ops"), "count", per_call(ps.unicast_ops)),
            metric(format!("congest.{name}.broadcast_ops"), "count", per_call(ps.broadcast_ops)),
            metric(
                format!("congest.{name}.ns_per_delivery"),
                "ns",
                if ps.deliveries == 0 { 0.0 } else { step_ns as f64 / ps.deliveries as f64 },
            ),
            metric(
                format!("congest.{name}.step_us_p50"),
                "us",
                quantile(&steps_us, 0.5).unwrap_or(0.0),
            ),
            metric(
                format!("congest.{name}.step_us_p99"),
                "us",
                quantile(&steps_us, 0.99).unwrap_or(0.0),
            ),
            metric(format!("congest.{name}.network_overhead_s"), "s", per_call_s(ps.overhead_ns())),
        ]);
    }
    out.extend([
        metric("congest.peak_engine_words", "words", peak_engine_words as f64),
        metric("rotation.root_solve_s", "s", per_call_s(split.root_solve_ns)),
        metric("obs.trace_overhead_pct", "%", trace_overhead_pct),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pins;
    use dhc_obs::json::Json;

    /// Pins for the first `n` tiny instances of `w` that succeed.
    fn tiny_pool(w: Workload, n: usize) -> Vec<Pin> {
        let shape = w.tiny();
        (0..)
            .filter_map(|i| {
                let input = w.generate(shape, i);
                let outcome = w.call(shape, &input, &w.config(shape, i)).ok()?;
                Some(Pin::observe(i, &input, &outcome))
            })
            .take(n)
            .collect()
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, key| m.get(key).and_then(Json::as_str).unwrap().to_string();
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn printed(report: &Report) -> Vec<(String, String)> {
        report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
    }

    fn value(report: &Report, name: &str) -> f64 {
        report.metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn timings_sum_each_instances_full_speed_median() {
        // Full speed is 10-12 here; the 18s are slow calls.
        let mostly_slow = vec![18.0, 10.0, 18.0, 11.0, 18.0, 12.0, 18.0];
        assert_eq!(sum_full_speed(&[mostly_slow, vec![4.0; 3]]), 11.0 + 4.0);
        assert_eq!(sum_full_speed(&[vec![2.5], vec![]]), 2.5);
    }

    #[test]
    fn the_clock_scale_divides_by_the_probes_full_speed_median() {
        let p = REFERENCE_PROBE_S;
        // A probe at 2x the reference time, and one slowed by a neighbour.
        assert_eq!(clock_scale(&[2.0 * p, 2.1 * p, 4.0 * p, 2.0 * p]), 0.5);
        assert_eq!(clock_scale(&[]), 1.0);
    }

    #[test]
    fn tiny_runs_pass_and_print_the_declared_metrics() {
        for w in Workload::ALL {
            let suite = pins::suite(&tiny_pool(w, 4), 1, 2);
            let plain = untraced(w, w.tiny(), &suite, 0.0);
            assert!(plain.correct(), "{}: {:?}", w.name(), plain.failures);
            // One warm-up call and one timed pass.
            assert_eq!(plain.attempted, 3);
            assert_eq!(printed(&plain), declared("end_to_end"));
            assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{:?}", plain.metrics);

            let traced = traced(w, w.tiny(), &suite, 0.0);
            assert!(traced.correct(), "{}: {:?}", w.name(), traced.failures);
            // One warm-up call and one pass of traced/untraced pairs.
            assert_eq!(traced.attempted, 5);
            assert_eq!(printed(&traced), declared("per_layer"));
        }
    }

    #[test]
    fn traced_runs_split_time_into_the_workloads_own_phases() {
        for w in Workload::ALL {
            let suite = pins::suite(&tiny_pool(w, 2), 0, 2);
            let r = traced(w, w.tiny(), &suite, 0.0);
            let ran: Vec<&str> = Phase::ALL
                .into_iter()
                .map(Phase::name)
                .filter(|p| value(&r, &format!("core.{p}_s")) > 0.0)
                .collect();
            let expected: &[&str] = match w {
                Workload::Dhc1Dense => &["phase1", "stitch"],
                Workload::Dhc2Clustered => &["phase1", "merge"],
                Workload::UpcastGnp => &["upcast"],
            };
            assert_eq!(ran, expected, "{}", w.name());
            // The phases' simulated messages add up to the pinned totals.
            let messages: f64 =
                Phase::ALL.iter().map(|p| value(&r, &format!("core.{}.messages", p.name()))).sum();
            let pinned = suite.iter().map(|p| p.messages as f64).sum::<f64>() / suite.len() as f64;
            assert_eq!(messages, pinned, "{}", w.name());
            assert_eq!(value(&r, "rotation.root_solve_s") > 0.0, w == Workload::UpcastGnp);
            // Phase time is whole steps plus network overhead, and the
            // run is its phases plus self time.
            let phases: f64 =
                Phase::ALL.iter().map(|p| value(&r, &format!("core.{}_s", p.name()))).sum();
            let run = value(&r, "core.run_s");
            assert!((phases + value(&r, "core.run_self_s") - run).abs() < 1e-9 * run.max(1.0));
        }
    }

    #[test]
    fn a_tampered_pin_counts_as_a_failed_call() {
        let w = Workload::UpcastGnp;
        let mut suite = pins::suite(&tiny_pool(w, 2), 0, 2);
        suite[1].words += 1;
        let r = untraced(w, w.tiny(), &suite, 0.0);
        assert!(!r.correct());
        // The tampered instance fails in the timed pass.
        assert_eq!(r.attempted, 3);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("pinned"), "{}", r.failures[0]);
    }
}
