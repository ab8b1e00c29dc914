//! Criterion benchmarks of the storage substrate: buffer-pool overhead
//! and the pool-size / lookahead ablation of the disk cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipm_storage::{BufferPool, CostModel, PoolConfig};

fn bench_pool_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool/scan_10k_pages");
    group.sample_size(50);
    for lookahead in [0usize, 1, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(lookahead),
            &lookahead,
            |b, &la| {
                b.iter(|| {
                    let mut pool = BufferPool::new(PoolConfig {
                        page_size: 32 * 1024,
                        capacity_pages: 16,
                        lookahead_pages: la,
                    });
                    for p in 0..10_000u64 {
                        pool.access(p, 10_000);
                    }
                    pool.stats().io_ms(&CostModel::default())
                })
            },
        );
    }
    group.finish();
}

fn bench_pool_capacity_ablation(c: &mut Criterion) {
    // Round-robin over 4 interleaved streams (the NRA access pattern):
    // a larger pool absorbs the interleaving, a small one thrashes.
    let mut group = c.benchmark_group("pool/interleaved_streams");
    group.sample_size(50);
    for capacity in [4usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &capacity,
            |b, &cap| {
                b.iter(|| {
                    let mut pool = BufferPool::new(PoolConfig {
                        page_size: 32 * 1024,
                        capacity_pages: cap,
                        lookahead_pages: 1,
                    });
                    let bases = [0u64, 25_000, 50_000, 75_000];
                    for i in 0..2_000u64 {
                        for &base in &bases {
                            pool.access(base + i / 8, 100_000);
                        }
                    }
                    pool.stats().io_ms(&CostModel::default())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pool_scan, bench_pool_capacity_ablation);
criterion_main!(benches);
