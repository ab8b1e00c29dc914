//! Query-path observability acceptance tests: per-stage traces that
//! reconcile with wall time and with the response's own IO accounting,
//! per-query traces that sum to the engine's global metric counters under
//! concurrency and epoch bumps, a Prometheus exposition that stays valid
//! as the engine works, and the slow-query ring.

use interesting_phrases::prelude::*;
use std::time::{Duration, Instant};

fn build_engine(shards: usize, cache: bool) -> QueryEngine {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: cache.then(Default::default),
            shards,
            ..Default::default()
        },
    )
}

fn top_query(engine: &QueryEngine, n: usize, op: &str) -> String {
    let miner = engine.miner();
    let corpus = miner.corpus();
    let top = ipm_corpus::stats::top_words_by_df(corpus, n);
    let words: Vec<&str> = top
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap())
        .collect();
    words.join(&format!(" {op} "))
}

/// The tentpole acceptance path: a budgeted, sharded, block-backend query
/// with `trace(true)` returns a trace whose top-level stages tile the
/// recorded wall time and whose per-shard counters reconcile exactly with
/// the response's `IoStats` and the engine's global access counters.
#[test]
fn traced_budgeted_sharded_block_query_reconciles() {
    let engine = build_engine(4, true);
    let q = top_query(&engine, 2, "OR");
    let before = engine.access_totals(BackendChoice::Block);
    assert_eq!(before.sorted_accesses, 0);

    let wall_started = Instant::now();
    let resp = engine
        .request(q.clone())
        .k(10)
        .backend(BackendChoice::Block)
        .shards(4)
        .io_budget(1_000_000)
        .trace(true)
        .run()
        .expect("traced block query");
    let wall = wall_started.elapsed();
    assert!(resp.completeness.is_exact(), "{:?}", resp.completeness);

    let trace = resp.trace.as_ref().expect("trace was requested");
    assert_eq!(trace.algorithm, "nra");
    assert_eq!(trace.backend, "block");
    assert_eq!(trace.shards, resp.shards);
    assert!(!trace.served_from_cache);
    assert_eq!(trace.budget_trip, None, "generous budget must not trip");

    // Wall-time tiling: the trace's total is bounded by the measured wall
    // time, and the top-level stages (parse, plan, cache probe, execute)
    // account for most of it — they are sequential and non-overlapping.
    assert!(
        trace.total <= wall,
        "trace total {:?} exceeds measured wall {wall:?}",
        trace.total
    );
    let top = trace.top_level_total();
    assert!(
        top <= trace.total,
        "top-level stages {top:?} overshoot the total {:?}",
        trace.total
    );
    assert!(
        top >= trace.total.mul_f64(0.3),
        "top-level stages {top:?} cover too little of {:?} — untraced gaps dominate",
        trace.total
    );
    for kind in [
        StageKind::Parse,
        StageKind::Plan,
        StageKind::CacheProbe,
        StageKind::Execute,
    ] {
        assert!(
            trace.stages.iter().any(|s| s.kind == kind),
            "missing top-level stage {kind:?}"
        );
    }
    let shard_spans = trace
        .stages
        .iter()
        .filter(|s| s.kind == StageKind::ShardExec)
        .count();
    assert_eq!(shard_spans, resp.shards, "one shard_exec span per shard");

    // IO reconciliation: the per-shard fetch deltas in the trace must sum
    // to exactly the response's own IoStats bill.
    let io = resp.io.expect("block backend reports IoStats");
    let shard_totals = trace.shard_totals();
    assert_eq!(shard_totals.len(), resp.shards);
    let trace_io: u64 = shard_totals.iter().map(|s| s.io_fetches).sum();
    assert_eq!(
        trace_io,
        io.total_fetches(),
        "trace shard IO must reconcile with the response IoStats"
    );

    // Counter reconciliation: the same shard rows sum to the engine's
    // global per-backend access counters (this was the only execution).
    let after = engine.access_totals(BackendChoice::Block);
    let sorted: u64 = shard_totals.iter().map(|s| s.sorted_accesses).sum();
    let probes: u64 = shard_totals.iter().map(|s| s.random_probes).sum();
    assert!(sorted > 0, "an NRA run performs sorted accesses");
    assert_eq!(sorted, after.sorted_accesses);
    assert_eq!(probes, after.random_probes);
}

/// N concurrent traced clients: the per-query traces, summed across every
/// thread, equal the engine's global registry counters — and stay equal
/// across an epoch bump (ingest) in the middle of the run.
#[test]
fn concurrent_traces_sum_to_registry_counters() {
    let engine = build_engine(2, false); // no cache: every query executes
    let queries: Vec<String> = vec![
        top_query(&engine, 2, "OR"),
        top_query(&engine, 2, "AND"),
        top_query(&engine, 3, "OR"),
    ];
    let threads = 4usize;
    let per_thread = 6usize;

    let (sorted, probes, rounds) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let engine = engine.clone();
                let queries = queries.clone();
                s.spawn(move || {
                    let mut acc = (0u64, 0u64, 0u64);
                    for i in 0..per_thread {
                        // Bump the epoch mid-run from one thread: counters
                        // must stay monotone and consistent across it.
                        if t == 0 && i == per_thread / 2 {
                            let w = engine.miner().corpus().word_id("w1").unwrap();
                            engine.ingest_document(&[w], &[]);
                        }
                        let q = &queries[(t + i) % queries.len()];
                        let resp = engine
                            .request(q.clone())
                            .k(5)
                            .trace(true)
                            .run()
                            .expect("traced query");
                        let trace = resp.trace.expect("trace requested");
                        for st in trace.shard_totals() {
                            acc.0 += st.sorted_accesses;
                            acc.1 += st.random_probes;
                            acc.2 += st.rounds;
                        }
                    }
                    acc
                })
            })
            .collect();
        handles.into_iter().fold((0, 0, 0), |t, h| {
            let a = h.join().expect("trace thread");
            (t.0 + a.0, t.1 + a.1, t.2 + a.2)
        })
    });

    let totals = engine.access_totals(BackendChoice::Memory);
    assert!(sorted > 0);
    assert_eq!(sorted, totals.sorted_accesses);
    assert_eq!(probes, totals.random_probes);
    assert_eq!(rounds, totals.rounds);

    // Every query (all uncached here) is one latency histogram sample.
    let expected = (threads * per_thread) as u64;
    assert_eq!(engine.queries_served(), expected);
    assert_eq!(engine.latency_snapshot().count(), expected);
}

/// The engine's self-rendered exposition stays grammatically valid as the
/// engine works, and the lifecycle gauges/counters track ingest and
/// compaction.
#[test]
fn rendered_metrics_stay_valid_and_track_lifecycle() {
    let engine = build_engine(1, true);
    let q = top_query(&engine, 2, "AND");

    let text = engine.render_metrics();
    validate_exposition(&text).unwrap_or_else(|e| panic!("fresh engine exposition: {e}"));
    assert_eq!(sample_sum(&text, "ipm_queries_served_total"), Some(0.0));

    engine.request(q.clone()).run().unwrap();
    engine.request(q.clone()).run().unwrap(); // cache hit
    let w = engine.miner().corpus().word_id("w1").unwrap();
    engine.ingest_document(&[w], &[]);

    // A delta-corrected query bumps the live delta's correction gauge...
    engine.request(q.clone()).use_delta(true).run().unwrap();
    let text = engine.render_metrics();
    let corrected = sample_sum(&text, "ipm_delta_corrections").unwrap();
    assert!(
        corrected > 0.0,
        "a use_delta query over a non-empty delta must apply corrections"
    );

    let report = engine.compact();
    assert!(report.compacted);

    let text = engine.render_metrics();
    validate_exposition(&text).unwrap_or_else(|e| panic!("worked engine exposition: {e}"));
    assert_eq!(sample_sum(&text, "ipm_queries_served_total"), Some(3.0));
    assert_eq!(sample_sum(&text, "ipm_cache_hits_total"), Some(1.0));
    assert_eq!(sample_sum(&text, "ipm_cache_misses_total"), Some(2.0));
    assert_eq!(
        sample_sum(&text, "ipm_query_latency_seconds_count"),
        Some(3.0)
    );
    assert_eq!(sample_sum(&text, "ipm_docs_ingested_total"), Some(1.0));
    assert_eq!(sample_sum(&text, "ipm_compactions_total"), Some(1.0));
    assert_eq!(
        sample_sum(&text, "ipm_index_epoch"),
        Some(engine.epoch() as f64),
        "the epoch gauge is refreshed at render time"
    );
    assert_eq!(sample_sum(&text, "ipm_delta_docs"), Some(0.0));
    assert_eq!(
        sample_sum(&text, "ipm_delta_corrections"),
        Some(0.0),
        "the correction count dies with the delta at compaction"
    );
}

/// The slow-query ring: with a zero threshold every query is kept (even
/// untraced ones — the engine traces internally when a log is attached),
/// the ring respects its capacity, and responses still carry no trace
/// unless one was requested.
#[test]
fn slow_query_log_captures_untraced_queries() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            slow_query: Some(SlowQueryConfig {
                threshold: Duration::ZERO,
                capacity: 4,
            }),
            ..Default::default()
        },
    );
    let q = top_query(&engine, 2, "OR");
    for _ in 0..6 {
        let resp = engine.request(q.clone()).k(5).run().unwrap();
        assert!(
            resp.trace.is_none(),
            "slow-query logging must not leak traces into responses"
        );
    }
    let log = engine.slow_queries().expect("log configured");
    assert_eq!(log.recorded(), 6);
    let kept = log.snapshot();
    assert_eq!(kept.len(), 4, "ring keeps only the most recent capacity");
    for t in &kept {
        assert_eq!(t.algorithm, "nra");
        assert!(t.stages.iter().any(|s| s.kind == StageKind::Execute));
    }
    let text = engine.render_metrics();
    assert_eq!(sample_sum(&text, "ipm_slow_queries_total"), Some(6.0));

    // A high threshold keeps nothing for these sub-second queries.
    let quiet = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            slow_query: Some(SlowQueryConfig {
                threshold: Duration::from_secs(3600),
                capacity: 4,
            }),
            ..Default::default()
        },
    );
    quiet.request(q).k(5).run().unwrap();
    assert_eq!(quiet.slow_queries().unwrap().recorded(), 0);
}
