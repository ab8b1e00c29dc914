//! The traced run: per-layer metrics taken from outside.
//!
//! Nothing in the program is instrumented for this. The harness times its
//! own calls into each crate's public functions, reads the counters the
//! program already exports (`ServerStats`, `RouterStats`, cache and pool
//! counters, the `trace: true` stage table), and records a span around
//! every such call. A metric whose layer is not on the workload's path is
//! reported as `0`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipm_core::cache::ShardedLruCache;
use ipm_core::smj::run_smj_backend;
use ipm_core::{
    run_ta_backend, Algorithm, BackendChoice, BatchItem, BatchPlan, Budget, CacheConfig,
    DeltaOverlay, Query, QueryPlan, SearchOptions,
};
use ipm_corpus::Feature;
use ipm_index::backend::ListBackend;
use ipm_index::cursor::{IdListCursor, ScoredListCursor};
use ipm_obs::Histogram;
use ipm_server::queue::BoundedQueue;
use ipm_server::{wire, Client, HedgeConfig, SearchRequest, WireRequest};
use serde_json::Value;

use crate::loadgen::{self, Conn};
use crate::report::{Metric, RunResult};
use crate::run::{self, RunConfig};
use crate::setup::{Fixture, SetupTimes, FANOUT};
use crate::spans::Recorder;
use crate::stats;
use crate::workload::{Op, Workload, K};

/// Share of `--seconds` the traced run's open-loop phase takes.
const OPEN_SHARE: f64 = 0.3;
/// Lines the sequential replays walk at most.
const REPLAY_LINES: usize = 300;
/// Wall-time box of one micro-measurement.
const MICRO_BUDGET: Duration = Duration::from_millis(60);

/// Median seconds-per-call of `f` in nanoseconds: `f` runs in batches of
/// `batch` calls, each batch timed as one, until `budget` is spent.
fn per_call_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&samples)
}

/// Calls `f` once per item, round after round until `budget` is spent,
/// and returns every call's microseconds.
fn each_us<T>(budget: Duration, items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || started.elapsed() < budget {
        for item in items {
            let t = Instant::now();
            f(item);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    samples
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn relative_overhead(with: f64, without: f64) -> f64 {
    if without == 0.0 {
        0.0
    } else {
        (with - without) / without
    }
}

/// Collects metrics by name; anything never set reads `0`.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                crate::report::PER_LAYER.iter().any(|m| m.name == *name),
                "layer metric {name} is not declared"
            );
        }
        crate::report::PER_LAYER
            .iter()
            .map(|m| (m.name, self.0.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// The searches of one wire line, as the server would parse them.
fn searches_of(line: &str) -> (Vec<SearchRequest>, Option<Vec<String>>) {
    match wire::parse_request(line.trim_end()) {
        Ok(WireRequest::Search(req)) => (vec![req], None),
        Ok(WireRequest::Batch(reqs)) => (reqs, None),
        Ok(WireRequest::Ingest { tokens, .. }) => (Vec::new(), Some(tokens)),
        other => panic!("workload line is not a search, batch or ingest: {other:?}"),
    }
}

fn options_of(req: &SearchRequest, routed: bool) -> SearchOptions {
    let mut options = req.options();
    if routed {
        options.shards = Some(FANOUT);
    }
    options
}

/// The bare algorithm call behind one search: no planner, no cache, no
/// response assembly.
fn bare_algorithm(fixture: &Fixture, req: &SearchRequest, query: &Query) {
    let miner = fixture.engine.miner();
    match (req.algorithm, req.backend) {
        (Algorithm::Nra, _) => drop(miner.top_k_nra(query, req.k)),
        (Algorithm::Smj, BackendChoice::Block) => {
            drop(run_smj_backend(&*fixture.engine.block(), query, req.k))
        }
        (Algorithm::Smj, BackendChoice::Disk) => {
            drop(run_smj_backend(&*fixture.engine.disk(), query, req.k))
        }
        (Algorithm::Smj, BackendChoice::Memory) => drop(miner.top_k_smj(query, req.k)),
        (Algorithm::Ta, _) => drop(miner.top_k_ta(query, req.k)),
        (Algorithm::Exact, _) => drop(miner.top_k_exact(query, req.k)),
    }
}

/// Adds `trace: true` to every search of a line.
fn traced_line(line: &str) -> String {
    let (mut reqs, ingest) = searches_of(line);
    if ingest.is_some() {
        return line.to_owned();
    }
    for r in &mut reqs {
        r.trace = true;
    }
    if reqs.len() == 1 && !line.contains("\"batch\"") {
        reqs[0].to_line()
    } else {
        wire::batch_line(&reqs)
    }
}

/// Per stage name, the microseconds one answered search spent there.
fn stage_totals(result: &Value) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    if let Some(stages) = result["trace"]["stages"].as_array() {
        for s in stages {
            if let (Some(name), Some(us)) = (s["stage"].as_str(), s["duration_us"].as_f64()) {
                *totals.entry(name.to_owned()).or_insert(0.0) += us;
            }
        }
    }
    totals
}

/// The `result` objects of a response line: one, or one per batch member.
fn results_of(response: &Value) -> Vec<&Value> {
    match response["batch"].as_array() {
        Some(items) => items.iter().map(|i| &i["result"]).collect(),
        None => vec![&response["result"]],
    }
}

/// Stage name on the wire, span name, metric. The router's `shard_rpc`
/// is its `shard_exec`: one shard's share of the execution, seen from the
/// coordinator.
const STAGES: [(&str, &str, &str); 8] = [
    ("parse", "stage.parse", "core.stage.parse_us"),
    ("plan", "stage.plan", "core.stage.plan_us"),
    (
        "cache_probe",
        "stage.cache_probe",
        "core.stage.cache_probe_us",
    ),
    ("execute", "stage.execute", "core.stage.execute_us"),
    ("shard_exec", "stage.shard_exec", "core.stage.shard_exec_us"),
    ("shard_rpc", "stage.shard_rpc", "core.stage.shard_exec_us"),
    ("merge", "stage.merge", "core.stage.merge_us"),
    (
        "text_resolve",
        "stage.text_resolve",
        "core.stage.text_resolve_us",
    ),
];
/// The stages that tile a search's wall time; the rest nest in `execute`.
const TOP_STAGES: [&str; 4] = ["parse", "plan", "cache_probe", "execute"];

/// What the plain replay measured, per line.
#[derive(Default)]
struct PlainReplay {
    rtt_us: Vec<f64>,
    /// Search lines only.
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    failed: u64,
}

/// Sequential replay of `lines` on one connection with no spans: the
/// round-trip baseline.
fn replay_plain(addr: &str, lines: &[&Op]) -> std::io::Result<PlainReplay> {
    let mut conn = Conn::connect(addr)?;
    let mut out = PlainReplay::default();
    for op in lines {
        let t = Instant::now();
        let response = conn.exchange(&op.line)?;
        out.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !loadgen::answered_ok(response) {
            out.failed += 1;
        }
        if !op.is_write() {
            out.request_bytes.push(op.line.len() as f64);
            out.response_bytes.push(response.len() as f64);
        }
    }
    Ok(out)
}

/// What the traced replay measured, per line unless noted.
#[derive(Default)]
struct Replay {
    rtt_us: Vec<f64>,
    wire_parse_us: Vec<f64>,
    wire_encode_us: Vec<f64>,
    /// Per search.
    core_parse_us: Vec<f64>,
    engine_us: Vec<f64>,
    algorithm_us: Vec<f64>,
    ingest_us: Vec<f64>,
    /// Per search, by stage name.
    stage_us: BTreeMap<String, Vec<f64>>,
    failed: u64,
}

/// Sequential replay with a span around every outside call. For each
/// line: the wire parse, each search's query parse, the engine run (one
/// `execute_batch` for a batch line), the bare algorithm, the response
/// encode — all called directly — and then the real round trip with
/// `trace: true`, whose stage table becomes child spans. The server-side
/// stages carry exact durations but no client clock, so they are laid end
/// to end in the middle of the round trip; the round trip's self time is
/// then what the serving path added around the engine.
fn replay_traced(
    fixture: &Fixture,
    workload: &Workload,
    lines: &[&Op],
    recorder: &mut Recorder,
) -> std::io::Result<Replay> {
    let mut out = Replay::default();
    let mut client = Client::connect(&fixture.addr)?;
    for (request_id, op) in lines.iter().enumerate() {
        let id = request_id as u64;
        let root = recorder.open("request", None, id);
        // With the result cache on, whichever of the wire call and the
        // direct calls runs second finds the first one's entries. The
        // round trip is the number users see, so there it goes first and
        // the direct engine run is the cost of a (mostly) cached batch;
        // the cold fused scan is measured in `micro`.
        if workload.spec.caches {
            round_trip(&mut out, recorder, &mut client, op, root, id)?;
            direct_calls(&mut out, recorder, fixture, workload, op, root, id);
        } else {
            direct_calls(&mut out, recorder, fixture, workload, op, root, id);
            round_trip(&mut out, recorder, &mut client, op, root, id)?;
        }
        recorder.close(root);
    }
    Ok(out)
}

fn span_us(recorder: &Recorder, span: usize) -> f64 {
    recorder.spans()[span].duration_ns() as f64 / 1e3
}

/// The harness's own calls into each layer for one wire line.
fn direct_calls(
    out: &mut Replay,
    recorder: &mut Recorder,
    fixture: &Fixture,
    workload: &Workload,
    op: &Op,
    root: usize,
    id: u64,
) {
    let engine = &fixture.engine;
    let miner = engine.miner();
    let corpus = miner.corpus();
    let ((reqs, ingest), span) =
        recorder.within("wire.parse", Some(root), id, || searches_of(&op.line));
    out.wire_parse_us.push(span_us(recorder, span));
    if let Some(tokens) = ingest {
        let ids: Vec<_> = tokens.iter().filter_map(|t| corpus.word_id(t)).collect();
        let ((), span) = recorder.within("engine.ingest", Some(root), id, || {
            engine.ingest_document(&ids, &[])
        });
        out.ingest_us.push(span_us(recorder, span));
        return;
    }
    let mut members = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let (query, span) = recorder.within("core.parse", Some(root), id, || {
            miner
                .parse_query_str(&req.query)
                .expect("workload query parses")
        });
        out.core_parse_us.push(span_us(recorder, span));
        members.push((query, options_of(req, workload.spec.routed)));
    }
    let (responses, span) = recorder.within("engine.run", Some(root), id, || {
        if let [(query, options)] = members.as_slice() {
            vec![engine.execute_with_budget(query.clone(), K, options, Budget::none())]
        } else {
            engine.execute_batch(batch_items(&members))
        }
    });
    out.engine_us.push(span_us(recorder, span));
    let ((), span) = recorder.within("algorithm", Some(root), id, || {
        for (req, (query, _)) in reqs.iter().zip(&members) {
            bare_algorithm(fixture, req, query);
        }
    });
    out.algorithm_us.push(span_us(recorder, span));
    let (encoded, span) = recorder.within("wire.encode", Some(root), id, || {
        responses
            .iter()
            .flatten()
            .map(|r| {
                serde_json::to_string(&wire::response_value(r, corpus))
                    .expect("infallible")
                    .len()
            })
            .sum::<usize>()
    });
    std::hint::black_box(encoded);
    out.wire_encode_us.push(span_us(recorder, span));
}

fn batch_items(members: &[(Query, SearchOptions)]) -> Vec<BatchItem<'static>> {
    members
        .iter()
        .map(|(query, options)| BatchItem {
            query: query.clone(),
            k: K,
            options: options.clone(),
            budget: Budget::none(),
        })
        .collect()
}

/// The real round trip of one line with `trace: true`, and the child
/// spans its stage table yields.
fn round_trip(
    out: &mut Replay,
    recorder: &mut Recorder,
    client: &mut Client,
    op: &Op,
    root: usize,
    id: u64,
) -> std::io::Result<()> {
    let line = traced_line(&op.line);
    let (response, rtt_span) =
        recorder.within("tcp.roundtrip", Some(root), id, || client.roundtrip(&line));
    let response = response?;
    let rtt = recorder.spans()[rtt_span].clone();
    out.rtt_us.push(rtt.duration_ns() as f64 / 1e3);
    if response["ok"] != true {
        out.failed += 1;
        return Ok(());
    }
    if op.is_write() {
        return Ok(());
    }
    // Lay the answered searches' top-level stages end to end, centred in
    // the round trip; nested stages start with `execute`.
    let totals: Vec<BTreeMap<String, f64>> = results_of(&response)
        .into_iter()
        .map(stage_totals)
        .collect();
    let ns = |t: &BTreeMap<String, f64>, stage: &str| {
        (t.get(stage).copied().unwrap_or(0.0) * 1e3) as u64
    };
    let covered_ns: u64 = totals
        .iter()
        .map(|t| TOP_STAGES.iter().map(|s| ns(t, s)).sum::<u64>())
        .sum();
    let mut cursor = rtt.start_ns + rtt.duration_ns().saturating_sub(covered_ns) / 2;
    for t in &totals {
        for (stage, us) in t {
            out.stage_us.entry(stage.clone()).or_default().push(*us);
        }
        for (stage, span_name, _) in STAGES.iter().filter(|s| TOP_STAGES.contains(&s.0)) {
            let end = cursor + ns(t, stage);
            let parent = recorder.record(span_name, cursor, end, Some(rtt_span), id);
            if *stage == "execute" {
                let mut inner = cursor;
                for (nested, nested_name, _) in STAGES.iter().filter(|s| !TOP_STAGES.contains(&s.0))
                {
                    let nested_ns = ns(t, nested);
                    if nested_ns > 0 {
                        let nested_end = (inner + nested_ns).min(end);
                        recorder.record(nested_name, inner, nested_end, Some(parent), id);
                        inner = nested_end;
                    }
                }
            }
            cursor = end;
        }
    }
    Ok(())
}

/// Distinct features of the workload's searches, in first-use order.
fn features_of(queries: &[Query]) -> Vec<Feature> {
    let mut features = Vec::new();
    for q in queries {
        for f in &q.features {
            if !features.contains(f) {
                features.push(*f);
            }
        }
    }
    features
}

/// Walks every entry of each feature's list through `open` and returns
/// nanoseconds per entry.
fn scan_ns_per_entry<C>(
    features: &[Feature],
    open: impl Fn(Feature) -> C,
    next: impl Fn(&mut C) -> Option<f64>,
) -> f64 {
    let started = Instant::now();
    let (mut entries, mut sum) = (0u64, 0.0);
    while started.elapsed() < MICRO_BUDGET {
        for &f in features {
            let mut cursor = open(f);
            while let Some(p) = next(&mut cursor) {
                sum += p;
                entries += 1;
            }
        }
    }
    std::hint::black_box(sum);
    started.elapsed().as_nanos() as f64 / entries.max(1) as f64
}

/// The micro-measurements: direct calls into single layers, on the
/// workload's own queries.
fn micro(fixture: &Fixture, workload: &Workload, layers: &mut Layers) -> std::io::Result<()> {
    let spec = workload.spec;
    let engine = &fixture.engine;
    let miner = engine.miner();
    let queries: Vec<Query> = workload
        .distinct
        .iter()
        .map(|r| {
            miner
                .parse_query_str(&r.query)
                .expect("workload query parses")
        })
        .collect();
    let features = features_of(&queries);
    let uses = |alg: Algorithm| workload.distinct.iter().any(|r| r.algorithm == alg);

    // Every workload.
    let options = options_of(&workload.distinct[0], spec.routed);
    layers.set(
        "core.plan.resolve_ns",
        per_call_ns(MICRO_BUDGET, 1000, || {
            std::hint::black_box(QueryPlan::resolve(std::hint::black_box(&options), 1));
        }),
    );
    let histogram = Histogram::new();
    layers.set(
        "obs.histogram.record_ns",
        per_call_ns(MICRO_BUDGET, 1000, || {
            histogram.observe(std::hint::black_box(Duration::from_micros(250)))
        }),
    );
    layers.set(
        "obs.registry.render_us",
        per_call_ns(MICRO_BUDGET, 1, || {
            std::hint::black_box(engine.render_metrics());
        }) / 1e3,
    );
    let queue: BoundedQueue<u64> = BoundedQueue::new(64);
    layers.set(
        "server.queue.push_pop_ns",
        per_call_ns(MICRO_BUDGET, 1000, || {
            queue.try_push(1).expect("queue has room");
            std::hint::black_box(queue.pop());
        }),
    );
    // Each search untraced, then traced, after one unmeasured run: all
    // three see the same cache state.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    each_us(MICRO_BUDGET, &workload.distinct, |r: &SearchRequest| {
        let mut o = options_of(r, spec.routed);
        drop(engine.search_with(&r.query, r.k, &o));
        for (on, samples) in [(false, &mut untraced), (true, &mut traced)] {
            o.trace = on;
            let t = Instant::now();
            drop(engine.search_with(&r.query, r.k, &o));
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    layers.set(
        "obs.trace.overhead_share",
        relative_overhead(stats::median(&traced), stats::median(&untraced)),
    );

    // Memory lists: the NRA workloads.
    if uses(Algorithm::Nra) {
        let backend = miner.memory_backend();
        layers.set(
            "index.wordlists.scan_ns_per_entry",
            scan_ns_per_entry(
                &features,
                |f| backend.score_cursor(f, 1.0),
                |c| c.next_entry().map(|e| e.prob),
            ),
        );
        let mut read = Vec::new();
        let mut traversed = Vec::new();
        let us = each_us(MICRO_BUDGET, &queries, |q| {
            let outcome = miner.top_k_nra(q, K);
            read.push(outcome.stats.total_entries_read() as f64);
            traversed.push(outcome.stats.fraction_traversed());
        });
        layers.set("core.nra.run_us", stats::median(&us));
        layers.set(
            "core.nra.entries_read_per_query",
            read.iter().sum::<f64>() / read.len() as f64,
        );
        layers.set(
            "core.nra.fraction_traversed",
            traversed.iter().sum::<f64>() / traversed.len() as f64,
        );
    }

    // The block image: scan_lists and hot_live.
    if spec.block {
        let block = engine.block();
        let lists = block.lists();
        layers.set(
            "index.block.decode_ns_per_entry",
            scan_ns_per_entry(
                &features,
                |f| block.id_cursor(f),
                |c| c.next_entry().map(|e| e.prob),
            ),
        );
        layers.set(
            "index.block.bytes_per_entry",
            lists.image_bytes() as f64 / lists.total_entries().max(1) as f64,
        );
        layers.set("index.block.compression_ratio", lists.compression_ratio());
        let us = each_us(MICRO_BUDGET, &queries, |q| {
            drop(run_smj_backend(&*block, q, K))
        });
        layers.set("core.smj.run_us", stats::median(&us));
    }

    // The disk image and the other scan algorithms: scan_lists.
    if spec.disk {
        let disk = engine.disk();
        layers.set(
            "storage.disklists.scan_ns_per_entry",
            scan_ns_per_entry(
                &features,
                |f| ListBackend::id_cursor(&*disk, f),
                |c| IdListCursor::next_entry(c).map(|e| e.prob),
            ),
        );
        let us = each_us(MICRO_BUDGET, &queries, |q| {
            drop(run_ta_backend(&*disk, q, K))
        });
        layers.set("core.ta.run_us", stats::median(&us));
        let us = each_us(MICRO_BUDGET, &queries, |q| drop(miner.top_k_exact(q, K)));
        layers.set("core.exact.run_us", stats::median(&us));
    }

    // Batching, the result cache and the delta: hot_live.
    if spec.caches {
        let batches: Vec<Vec<(Query, SearchOptions)>> = workload
            .ops
            .iter()
            .filter(|op| op.searches > 1)
            .take(32)
            .map(|op| {
                searches_of(&op.line)
                    .0
                    .iter()
                    .map(|r| {
                        (
                            miner
                                .parse_query_str(&r.query)
                                .expect("workload query parses"),
                            r.options(),
                        )
                    })
                    .collect()
            })
            .collect();
        // The fused scan against serial execution, both cold: an ingest
        // before each batch moves the epoch, so neither cache has an
        // entry the batch can use.
        let block = engine.block();
        let word = miner
            .corpus()
            .word_id(&crate::workload::hot_words(&miner)[0]);
        let (mut fused_us, mut serial_us) = (Vec::new(), Vec::new());
        for batch in &batches {
            engine.ingest_document(word.as_slice(), &[]);
            let items = batch_items(batch);
            let t = Instant::now();
            drop(engine.execute_batch(items));
            fused_us.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
            let t = Instant::now();
            for (q, _) in batch {
                drop(run_smj_backend(&*block, q, K));
            }
            serial_us.push(t.elapsed().as_secs_f64() * 1e6 / batch.len() as f64);
        }
        layers.set("core.fused.batch_us_per_query", stats::median(&fused_us));
        layers.set("core.fused.serial_us_per_query", stats::median(&serial_us));

        // A batch line sent twice: the second answer comes from the result
        // cache alone, so its round trip is all serving path.
        let mut conn = Conn::connect(&fixture.addr)?;
        let mut cached_us = Vec::new();
        for op in workload.ops.iter().filter(|op| op.searches > 1).take(32) {
            conn.exchange(&op.line)?;
            let t = Instant::now();
            conn.exchange(&op.line)?;
            cached_us.push(t.elapsed().as_secs_f64() * 1e6 / op.searches as f64);
        }
        layers.set(
            "server.cached_batch_us_per_query",
            stats::median(&cached_us),
        );

        let mut groups = Vec::new();
        let us = each_us(MICRO_BUDGET, &batches, |batch| {
            let plan = BatchPlan::group(batch.iter().map(|(q, o)| (q, o)), 1);
            groups.push(plan.groups.len() as f64);
        });
        layers.set("core.plan.batch_group_us", stats::median(&us));
        layers.set(
            "core.fused.groups_per_batch",
            groups.iter().sum::<f64>() / groups.len().max(1) as f64,
        );

        let cache: ShardedLruCache<u64, Arc<Vec<u64>>> =
            ShardedLruCache::new(CacheConfig::default());
        let value = Arc::new(vec![0u64; 8]);
        let mut key = 0u64;
        layers.set(
            "core.cache.insert_ns",
            per_call_ns(MICRO_BUDGET, 1000, || {
                key = key.wrapping_add(1);
                cache.insert(key, value.clone());
            }),
        );
        // Hits only: the 512 newest of far more than 512 inserted keys.
        let (newest, mut back) = (key, 0u64);
        layers.set(
            "core.cache.get_ns",
            per_call_ns(MICRO_BUDGET, 1000, || {
                back = (back + 1) % 512;
                std::hint::black_box(cache.get(&(newest - back)));
            }),
        );

        if let Some(delta) = engine.delta() {
            let block = engine.block();
            let overlay = DeltaOverlay::new(&*block, &delta, miner.index());
            let plain = stats::median(&each_us(MICRO_BUDGET, &queries, |q| {
                drop(run_smj_backend(&*block, q, K))
            }));
            let corrected = stats::median(&each_us(MICRO_BUDGET, &queries, |q| {
                drop(run_smj_backend(&overlay, q, K))
            }));
            layers.set(
                "core.delta.overlay_overhead_share",
                relative_overhead(corrected, plain),
            );
        }
    }
    Ok(())
}

/// The router's own cost: the same lines sent straight to one shard
/// server (the `serve_nra` path), and through a second router with
/// hedging off.
fn router_layers(
    fixture: &Fixture,
    lines: &[&Op],
    routed_rtt_p50: f64,
    layers: &mut Layers,
) -> std::io::Result<()> {
    let direct = replay_plain(&fixture.servers[0].addr().to_string(), lines)?.rtt_us;
    layers.set(
        "server.router.overhead_us",
        routed_rtt_p50 - stats::median(&direct),
    );
    let mut unhedged = crate::setup::spawn_router(
        &fixture.engine,
        &fixture.servers,
        HedgeConfig {
            enabled: false,
            ..HedgeConfig::default()
        },
    )?;
    let rtt = replay_plain(&unhedged.addr().to_string(), lines)?.rtt_us;
    unhedged.shutdown();
    layers.set("server.router.hedge_off_rtt_p50_us", stats::median(&rtt));
    Ok(())
}

/// Runs `config` with tracing on and returns every per-layer metric.
pub fn traced(config: &RunConfig) -> std::io::Result<RunResult> {
    let spec = config.spec;
    let mut layers = Layers::default();
    let (fixture, times) = run::set_up(config)?;
    let step = |f: fn(&SetupTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
    layers.set("corpus.synth.generate_s", step(|t| t.generate_s));
    layers.set("index.build_s", step(|t| t.index_build_s));
    layers.set("storage.disklists.build_s", step(|t| t.disk_build_s));
    layers.set("storage.blockimage.build_s", step(|t| t.block_build_s));
    layers.set("index.sharding.layout_build_s", step(|t| t.layout_build_s));
    layers.set("setup.spawn_s", step(|t| t.spawn_s));
    layers.set("setup.total_s", step(SetupTimes::total_s));

    let workload = Workload::generate(spec, &fixture.engine.miner(), config.seed);
    run::warm_up(&fixture, &workload)?;
    let engine = &fixture.engine;

    // A short open loop for the generator's own numbers and for counter
    // deltas taken where the work happens.
    let server_before: Vec<_> = fixture.servers.iter().map(|s| s.stats()).collect();
    let router_before = fixture.router.as_ref().map(|r| r.stats());
    let (cache_before, decode_before) = (engine.cache_stats(), engine.decode_cache_stats());
    let block_before = engine.access_totals(BackendChoice::Block);
    let open_started = Instant::now();
    let mut open = loadgen::open_loop(
        &fixture.addr,
        &workload.ops,
        spec.rate,
        Duration::from_secs_f64(config.seconds * OPEN_SHARE),
        spec.open_conns,
    )?;
    let open_elapsed = open_started.elapsed().as_secs_f64();
    let (lateness_p99, invalid) = run::lateness_verdict(&mut open);
    stats::sort(&mut open.read_latency_ms);
    layers.set(
        "loadgen.latency_p50_ms",
        stats::percentile(&open.read_latency_ms, 0.50),
    );
    layers.set(
        "loadgen.latency_p95_ms",
        stats::percentile(&open.read_latency_ms, 0.95),
    );
    layers.set(
        "loadgen.latency_p99_ms",
        stats::percentile(&open.read_latency_ms, 0.99),
    );
    layers.set(
        "loadgen.write_latency_p50_ms",
        stats::median(&open.write_latency_ms),
    );
    layers.set("loadgen.lateness_p99_ms", lateness_p99);
    layers.set("loadgen.samples", open.read_latency_ms.len() as f64);
    layers.set("loadgen.offered_rate", spec.rate);
    layers.set(
        "loadgen.achieved_rate",
        (open.attempted - open.failed) as f64 / open_elapsed,
    );
    layers.set("loadgen.failed_share", share(open.failed, open.attempted));

    let (mut served, mut coalesced, mut shed) = (0, 0, 0);
    for (s, before) in fixture.servers.iter().zip(&server_before) {
        let after = s.stats();
        served += after.served - before.served;
        coalesced += after.coalesced - before.coalesced;
        shed += after.shed - before.shed;
    }
    layers.set(
        "server.singleflight.coalesced_share",
        share(coalesced, served),
    );
    layers.set("server.shed_share", share(shed, open.attempted));
    let (cache_after, decode_after) = (engine.cache_stats(), engine.decode_cache_stats());
    let (hits, misses) = (
        cache_after.hits - cache_before.hits,
        cache_after.misses - cache_before.misses,
    );
    layers.set("core.cache.hit_share", share(hits, hits + misses));
    let (hits, misses) = (
        decode_after.0 - decode_before.0,
        decode_after.1 - decode_before.1,
    );
    layers.set("storage.blockcache.hit_share", share(hits, hits + misses));
    let block_after = engine.access_totals(BackendChoice::Block);
    let skipped = block_after.entries_skipped - block_before.entries_skipped;
    let read = block_after.sorted_accesses - block_before.sorted_accesses;
    layers.set(
        "index.block.skipped_entries_share",
        share(skipped, skipped + read),
    );
    if let (Some(router), Some(before)) = (&fixture.router, router_before) {
        let after = router.stats();
        let requests = after.requests - before.requests;
        layers.set(
            "server.router.rpcs_per_request",
            (after.shard_rpcs - before.shard_rpcs) as f64 / requests.max(1) as f64,
        );
        layers.set(
            "server.router.hedges_fired",
            (after.hedges_fired - before.hedges_fired) as f64,
        );
        layers.set(
            "server.router.hedges_won",
            (after.hedges_won - before.hedges_won) as f64,
        );
        layers.set(
            "server.router.wasted_rpcs",
            (after.wasted_rpcs - before.wasted_rpcs) as f64,
        );
        layers.set(
            "server.router.shard_failures",
            (after.shard_failures - before.shard_failures) as f64,
        );
        layers.set(
            "server.router.partial_results",
            (after.partial_results - before.partial_results) as f64,
        );
    }

    // Sequential replays on one connection: plain, then traced.
    let lines: Vec<&Op> = workload.ops.iter().take(REPLAY_LINES).collect();
    let mut ping_client = Client::connect(&fixture.addr)?;
    let ping_ns = per_call_ns(MICRO_BUDGET, 1, || {
        ping_client.ping().expect("ping");
    });
    layers.set("server.ping_rtt_us", ping_ns / 1e3);
    let plain = replay_plain(&fixture.addr, &lines)?;
    let rtt_p50 = stats::median(&plain.rtt_us);
    layers.set("server.rtt_p50_us", rtt_p50);
    layers.set(
        "server.wire.request_bytes",
        stats::median(&plain.request_bytes),
    );
    layers.set(
        "server.wire.response_bytes",
        stats::median(&plain.response_bytes),
    );

    let mut recorder = Recorder::new();
    let replay = replay_traced(&fixture, &workload, &lines, &mut recorder)?;
    let engine_us = stats::median(&replay.engine_us);
    layers.set("server.wire.parse_us", stats::median(&replay.wire_parse_us));
    layers.set(
        "server.wire.encode_us",
        stats::median(&replay.wire_encode_us),
    );
    layers.set("core.parse.query_us", stats::median(&replay.core_parse_us));
    layers.set("core.engine.run_us", engine_us);
    layers.set("core.delta.ingest_us", stats::median(&replay.ingest_us));
    if !spec.caches {
        // Only without the result cache is the direct engine run the work
        // the server did for the same line.
        let overhead: Vec<f64> = replay
            .engine_us
            .iter()
            .zip(&replay.algorithm_us)
            .map(|(e, a)| e - a)
            .collect();
        layers.set("core.engine.overhead_us", stats::median(&overhead));
        let overhead = rtt_p50 - engine_us;
        let unaccounted = overhead
            - ping_ns / 1e3
            - stats::median(&replay.wire_parse_us)
            - stats::median(&replay.wire_encode_us);
        layers.set("server.overhead_us", overhead);
        layers.set("server.unaccounted_us", unaccounted);
        layers.set("server.unaccounted_share", unaccounted / rtt_p50);
    }
    for (stage, _, metric) in STAGES {
        if let Some(samples) = replay.stage_us.get(stage) {
            layers.set(metric, stats::median(samples));
        }
    }
    layers.set(
        "loadgen.trace_overhead_share",
        relative_overhead(stats::median(&replay.rtt_us), rtt_p50),
    );
    let by_name = recorder.by_name();
    let self_us = |name: &str| by_name.get(name).map_or(0.0, |(_, s)| stats::median(s));
    layers.set("trace.spans", recorder.spans().len() as f64);
    layers.set("trace.self.request_us", self_us("request"));
    layers.set("trace.self.roundtrip_us", self_us("tcp.roundtrip"));
    layers.set("trace.self.execute_us", self_us("stage.execute"));

    if spec.routed {
        router_layers(&fixture, &lines, rtt_p50, &mut layers)?;
    }
    micro(&fixture, &workload, &mut layers)?;

    // The verify pass: correctness, and the §5.5 cost of each answer.
    let outcome = run::verify_answers(config, &fixture, &workload)?;
    let checked = outcome.checked.max(1) as f64;
    let pool_accesses = outcome.pool_hits + outcome.seq_fetches + outcome.random_fetches;
    layers.set(
        "storage.pool.hit_share",
        share(outcome.pool_hits, pool_accesses),
    );
    layers.set(
        "storage.pool.seq_fetches_per_query",
        outcome.seq_fetches as f64 / checked,
    );
    layers.set(
        "storage.pool.random_fetches_per_query",
        outcome.random_fetches as f64 / checked,
    );
    layers.set("storage.sim_io_ms_per_query", outcome.sim_io_ms / checked);
    layers.set("process.peak_rss_mb", run::peak_rss_mb());

    let path = recorder.write(spec.name)?;
    eprintln!(
        "{}: traced {} lines, {} spans written to {}",
        spec.name,
        lines.len(),
        recorder.spans().len(),
        path.display()
    );
    fixture.shutdown();
    let replayed = (plain.rtt_us.len() + replay.rtt_us.len()) as u64;
    Ok(RunResult {
        workload: spec.name,
        seed: config.seed,
        attempted: open.attempted + replayed + outcome.checked,
        failed: open.failed + plain.failed + replay.failed + outcome.wrong,
        metrics: layers.into_metrics(),
        invalid,
    })
}
