//! Criterion micro-benchmarks for the `dhc-obs` telemetry layer:
//! collector overhead on the flood-echo engine probe (attached vs
//! detached — the <2% acceptance bar experiment E13 records to
//! `BENCH_engine.json`), span open/close cost, and the float-free
//! histogram's record/percentile hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhc_bench::engine_probe::{flood_echo, flood_echo_observed, probe_graph};
use dhc_congest::CollectorHandle;
use dhc_obs::{Hist, RunObserver, Span};
use std::time::Duration;

fn bench_collector_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_collector");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    for &n in &[1_000usize, 10_000] {
        let g = probe_graph(n, 8);
        group.bench_with_input(BenchmarkId::new("flood_echo_detached", n), &g, |b, g| {
            b.iter(|| flood_echo(g))
        });
        group.bench_with_input(BenchmarkId::new("flood_echo_attached", n), &g, |b, g| {
            // One observer reused across iterations: the steady-state
            // per-round cost, not allocation of the observer itself.
            let handle = CollectorHandle::new(RunObserver::new());
            b.iter(|| flood_echo_observed(g, Some(handle.clone())))
        });
    }
    group.finish();
}

fn bench_span_and_hist(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_primitives");
    group.bench_function("span_open_close", |b| {
        let handle = CollectorHandle::new(RunObserver::new());
        b.iter(|| {
            let mut span = Span::root(Some(&handle), "run", "bench");
            span.add(1, 2, 3);
        })
    });
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            let mut span = Span::disabled();
            span.add(1, 2, 3);
        })
    });
    group.bench_function("hist_record_1k", |b| {
        b.iter(|| {
            let mut h = Hist::new();
            for i in 0..1_000u64 {
                h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            h
        })
    });
    group.bench_function("hist_percentiles", |b| {
        let mut h = Hist::new();
        for i in 0..10_000u64 {
            h.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        b.iter(|| (h.p50(), h.p90(), h.p99()))
    });
    group.finish();
}

criterion_group!(benches, bench_collector_overhead, bench_span_and_hist);
criterion_main!(benches);
