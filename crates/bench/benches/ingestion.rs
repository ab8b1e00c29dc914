//! Ingestion-lifecycle benchmarks: what does serving under churn cost?
//!
//! * `query_under_delta/*` — delta-corrected query latency as the side
//!   index grows ({0, 10, 100, 1000} ingested documents), across all
//!   three backends. The paper's §4.5.1 prediction: corrections are a per-entry
//!   surcharge on the candidate set, so latency grows with delta size —
//!   this measures the curve the compaction policy must react to.
//! * `compaction/*` — the cost of `compact()` itself (ingest one
//!   document + flush: corpus reconstruction + full miner rebuild +
//!   atomic swap), paired with a delete so the corpus does not grow
//!   across iterations.
//! * `post_compaction_latency` — query latency right after a compaction:
//!   back on the delta-free fast path (compare with
//!   `query_under_delta/memory/0`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipm_core::{Algorithm, BackendChoice, EngineConfig, MinerConfig, PhraseMiner, QueryEngine};
use ipm_corpus::DocId;

fn corpus() -> ipm_corpus::Corpus {
    ipm_corpus::synth::generate(&ipm_corpus::synth::tiny()).0
}

/// An engine with the result cache off: every measured request pays the
/// full (possibly delta-corrected) traversal.
fn engine(corpus: &ipm_corpus::Corpus) -> QueryEngine {
    QueryEngine::with_config(
        PhraseMiner::build(corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    )
}

fn top_query(e: &QueryEngine) -> String {
    let miner = e.miner();
    let c = miner.corpus();
    let top = ipm_corpus::stats::top_words_by_df(c, 2);
    let words: Vec<&str> = top
        .iter()
        .map(|&(w, _)| c.words().term(w).unwrap())
        .collect();
    words.join(" OR ")
}

fn bench_query_under_delta(c: &mut Criterion) {
    let corpus = corpus();
    let src = corpus.doc(DocId(0)).unwrap().clone();
    for backend in [
        BackendChoice::Memory,
        BackendChoice::Disk,
        BackendChoice::Block,
    ] {
        let name = match backend {
            BackendChoice::Memory => "memory",
            BackendChoice::Disk => "disk",
            BackendChoice::Block => "block",
        };
        let mut group = c.benchmark_group(format!("query_under_delta/{name}"));
        for delta_docs in [0usize, 10, 100, 1000] {
            let e = engine(&corpus);
            for _ in 0..delta_docs {
                e.ingest_document(&src.tokens, &src.facets);
            }
            let q = top_query(&e);
            group.bench_with_input(
                BenchmarkId::from_parameter(delta_docs),
                &delta_docs,
                |b, _| {
                    b.iter(|| {
                        e.request(q.clone())
                            .k(10)
                            .algorithm(Algorithm::Nra)
                            .backend(backend)
                            .use_delta(true)
                            .run()
                            .unwrap()
                    });
                },
            );
        }
        group.finish();
    }
}

fn bench_compaction(c: &mut Criterion) {
    let corpus = corpus();
    let src = corpus.doc(DocId(0)).unwrap().clone();
    let mut group = c.benchmark_group("compaction");
    for batch in [1usize, 100] {
        let e = engine(&corpus);
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            b.iter(|| {
                // Ingest `batch` documents and flush them; then delete the
                // same number and flush again, so the corpus size is a
                // fixed point across iterations (two rebuilds measured).
                for _ in 0..batch {
                    e.ingest_document(&src.tokens, &src.facets);
                }
                let grown = e.compact();
                assert!(grown.compacted);
                let n = grown.docs;
                for i in 0..batch {
                    e.delete_document(DocId((n - 1 - i) as u32));
                }
                let shrunk = e.compact();
                assert!(shrunk.compacted);
            });
        });
    }
    group.finish();

    // Latency recovery: right after a compaction the delta is empty and
    // the query path is the plain exact one again.
    let e = engine(&corpus);
    for _ in 0..100 {
        e.ingest_document(&src.tokens, &src.facets);
    }
    e.compact();
    let q = top_query(&e);
    c.bench_function("post_compaction_latency", |b| {
        b.iter(|| {
            let resp = e
                .request(q.clone())
                .k(10)
                .use_delta(true) // no-op now: the delta was flushed
                .run()
                .unwrap();
            assert!(resp.completeness.is_exact());
            resp
        });
    });
}

criterion_group!(benches, bench_query_under_delta, bench_compaction);
criterion_main!(benches);
