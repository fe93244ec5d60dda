//! Criterion micro-benchmarks for the persistent worker pool behind the
//! round engine: per-batch dispatch latency (one `run_mut` call over a
//! slice of trivial jobs — the cost every simulated round pays before
//! any per-node work happens) and batch throughput on a compute-bound
//! workload, at pool sizes 1 (inline, no threads), 2, and all cores.
//! The spawn-per-batch baseline is what the engine paid before the
//! pool: a fresh `std::thread::scope` per round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhc_pool::WorkerPool;
use std::time::Duration;

/// Batch sizes spanning "idle round" to "busy round" — a round's
/// compute batch has one job per active node.
const BATCH_SIZES: [usize; 3] = [64, 1_024, 16_384];

/// A few hundred ns of integer mixing per item: enough that a busy
/// batch is compute-bound, small enough that dispatch overhead shows.
fn mix(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..64 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31) ^ 0xbf58_476d_1ce4_e5b9;
    }
    x
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_dispatch");
    group.sample_size(20);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for &len in &BATCH_SIZES {
        let mut items: Vec<u64> = (0..len as u64).collect();
        for &(label, threads) in &[("t1", 1usize), ("t2", 2), ("all_cores", 0)] {
            let threads = if threads == 0 {
                std::thread::available_parallelism().map_or(1, |p| p.get())
            } else {
                threads
            };
            let pool = WorkerPool::new(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("persistent_{label}"), len),
                &len,
                |b, _| {
                    b.iter(|| {
                        pool.run_mut(&mut items, &|_, item| *item = mix(*item));
                    })
                },
            );
            // The pre-pool cost model: spawn + join fresh threads every
            // batch, the per-round price the engine used to pay.
            if threads > 1 {
                group.bench_with_input(
                    BenchmarkId::new(format!("spawn_per_batch_{label}"), len),
                    &len,
                    |b, _| {
                        b.iter(|| {
                            let chunk = len.div_ceil(threads);
                            std::thread::scope(|s| {
                                for part in items.chunks_mut(chunk) {
                                    s.spawn(move || {
                                        for item in part {
                                            *item = mix(*item);
                                        }
                                    });
                                }
                            });
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pool_dispatch);
criterion_main!(benches);
