//! Criterion micro-benchmarks: round-engine throughput (rounds/sec) on
//! the flood-echo microprotocol and the broadcast-storm workload (every
//! node `send_all`s every round — the shared-payload flood fabric's hot
//! path). Experiment E13 records the same workloads to
//! `BENCH_engine.json` so the perf trajectory is tracked across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhc_bench::engine_probe::{
    flood_echo, flood_echo_unicast, flood_storm, flood_storm_unicast, probe_graph, STORM_DEPTH,
};
use std::time::Duration;

fn bench_engine_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rounds");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    for &n in &[1_000usize, 10_000] {
        let g = probe_graph(n, 8);
        group.bench_with_input(BenchmarkId::new("flood_echo", n), &g, |b, g| {
            b.iter(|| flood_echo(g))
        });
        group.bench_with_input(BenchmarkId::new("broadcast_storm", n), &g, |b, g| {
            b.iter(|| flood_storm(g, STORM_DEPTH))
        });
        // Pre-fabric baselines: the same floods as per-neighbor sends.
        group.bench_with_input(BenchmarkId::new("flood_echo_unicast", n), &g, |b, g| {
            b.iter(|| flood_echo_unicast(g))
        });
        group.bench_with_input(BenchmarkId::new("broadcast_storm_unicast", n), &g, |b, g| {
            b.iter(|| flood_storm_unicast(g, STORM_DEPTH))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_rounds);
criterion_main!(benches);
