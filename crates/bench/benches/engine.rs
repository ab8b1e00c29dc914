//! Criterion benchmarks of the serving layer: per-query latency through the
//! [`ipm_core::QueryEngine`] for each algorithm, and multi-threaded
//! throughput over one shared immutable index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ipm_core::{Algorithm, MinerConfig, PhraseMiner, QueryEngine, SearchOptions};

fn engine_and_queries() -> (QueryEngine, Vec<String>) {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));
    let top = ipm_corpus::stats::top_words_by_df(engine.miner().corpus(), 8);
    let terms: Vec<String> = top
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap().to_owned())
        .collect();
    let queries = (0..terms.len() - 1)
        .flat_map(|i| {
            [
                format!("{} AND {}", terms[i], terms[i + 1]),
                format!("{} OR {}", terms[i], terms[i + 1]),
            ]
        })
        .collect();
    (engine, queries)
}

fn bench_engine_latency(c: &mut Criterion) {
    let (engine, queries) = engine_and_queries();
    let mut group = c.benchmark_group("engine/latency");
    for alg in [
        Algorithm::Nra,
        Algorithm::Smj,
        Algorithm::Ta,
        Algorithm::Exact,
    ] {
        let options = SearchOptions {
            algorithm: alg,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{alg:?}")),
            &options,
            |b, opts| {
                let mut i = 0usize;
                b.iter(|| {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    engine.search_with(q, 5, opts).unwrap().hits.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    let (engine, queries) = engine_and_queries();
    let mut group = c.benchmark_group("engine/throughput");
    let batch = 64u64;
    group.throughput(Throughput::Elements(batch));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &n| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..n {
                        let engine = engine.clone();
                        let queries = &queries;
                        s.spawn(move || {
                            for i in 0..(batch as usize / n) {
                                let q = &queries[(t + i) % queries.len()];
                                engine.request(q).k(5).run().unwrap();
                            }
                        });
                    }
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_latency, bench_engine_throughput);
criterion_main!(benches);
