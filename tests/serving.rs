//! Integration tests of the `ipm_server` subsystem: many concurrent TCP
//! clients against a real loopback server, compared byte-for-byte with
//! direct engine requests, plus coalescing and
//! admission-control (overload shedding) behaviour.

use interesting_phrases::prelude::*;
use ipm_core::EngineConfig;
use ipm_server::wire;
use ipm_server::ErrorKind;
use std::sync::{Arc, Barrier};

fn build_engine(cache: bool) -> QueryEngine {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let miner = PhraseMiner::build(&corpus, MinerConfig::default());
    let config = EngineConfig {
        cache: cache.then(Default::default),
        ..Default::default()
    };
    QueryEngine::with_config(miner, config)
}

fn top_terms(engine: &QueryEngine, n: usize) -> Vec<String> {
    ipm_corpus::stats::top_words_by_df(engine.miner().corpus(), n)
        .iter()
        .map(|&(w, _)| engine.miner().corpus().words().term(w).unwrap().to_owned())
        .collect()
}

fn spawn(engine: QueryEngine, workers: usize, queue_depth: usize) -> ipm_server::ServerHandle {
    ipm_server::Server::spawn(
        engine,
        ipm_server::ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_depth,
            fault_delay_ms: 0,
        },
    )
    .expect("bind loopback")
}

/// One serving tier under test: a bare server, or a router fronting one
/// shard server (kept alive alongside it). Both run the same front end,
/// so the framing and control-verb checks run against each.
enum Tier {
    Server(ipm_server::ServerHandle),
    Router(ipm_server::RouterHandle, ipm_server::ServerHandle),
}

impl Tier {
    fn spawn(routed: bool) -> Self {
        let shard = spawn(build_engine(true), 2, 16);
        if !routed {
            return Tier::Server(shard);
        }
        let router = spawn_router(
            vec![vec![shard.addr().to_string()]],
            ipm_server::HedgeConfig::default(),
        );
        Tier::Router(router, shard)
    }

    fn name(&self) -> &'static str {
        match self {
            Tier::Server(_) => "server",
            Tier::Router(..) => "router",
        }
    }

    fn addr(&self) -> String {
        match self {
            Tier::Server(s) => s.addr().to_string(),
            Tier::Router(r, _) => r.addr().to_string(),
        }
    }

    fn engine(&self) -> &QueryEngine {
        match self {
            Tier::Server(s) => s.engine(),
            Tier::Router(r, _) => r.engine(),
        }
    }

    fn shutdown(&mut self) {
        match self {
            Tier::Server(s) => s.shutdown(),
            Tier::Router(r, _) => r.shutdown(),
        }
    }

    fn join(self) {
        match self {
            Tier::Server(s) => s.join(),
            Tier::Router(r, _shard) => r.join(),
        }
    }
}

/// ≥ 8 concurrent TCP clients, mixed algorithms and backends: every
/// served response's hits must be byte-identical to a direct
/// engine request with the same options.
#[test]
fn eight_clients_serve_byte_identical_hits() {
    let handle = spawn(build_engine(true), 4, 64);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 5);
    let queries: Vec<String> = (0..terms.len() - 1)
        .flat_map(|i| {
            [
                format!("{} AND {}", terms[i], terms[i + 1]),
                format!("{} OR {}", terms[i], terms[i + 1]),
            ]
        })
        .collect();

    let methods = ["nra", "smj", "ta", "exact"];
    let backends = ["memory", "disk"];
    let engine = handle.engine().clone();
    std::thread::scope(|s| {
        for t in 0..8usize {
            let addr = addr.clone();
            let queries = queries.clone();
            let engine = engine.clone();
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for (i, q) in queries.iter().enumerate() {
                    let mut req = WireSearchRequest::new(q.clone());
                    req.k = 5;
                    req.algorithm =
                        wire::algorithm_from_str(methods[(t + i) % methods.len()]).unwrap();
                    req.backend =
                        wire::backend_from_str(backends[(t + i) % backends.len()]).unwrap();
                    let response = client.search(&req).expect("roundtrip");
                    assert_eq!(
                        response["ok"].as_bool(),
                        Some(true),
                        "server error for `{q}`: {response:?}"
                    );
                    // Re-encode the served hits and a direct engine
                    // execution with the same request; the bytes must
                    // match exactly.
                    let served = serde_json::to_string(&response["result"]["hits"]).unwrap();
                    let query = engine.miner().parse_query_str(q).unwrap();
                    let direct = engine
                        .request_query(query)
                        .k(req.k)
                        .options(req.options())
                        .run()
                        .unwrap();
                    let want = serde_json::to_string(&wire::hits_value(&direct)).unwrap();
                    assert_eq!(
                        served, want,
                        "hits diverge from direct execution for `{q}` ({req:?})"
                    );
                    assert!(!direct.hits.is_empty(), "degenerate comparison for `{q}`");
                }
            });
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.served >= 8 * queries.len() as u64);
}

/// Sharded requests over the wire: the `shards` field fans the query out
/// server-side, hits stay byte-identical to the unsharded answer, the
/// response reports the resolved fanout, and the stats verb surfaces the
/// shard counters.
#[test]
fn sharded_requests_over_the_wire() {
    let handle = spawn(build_engine(false), 2, 16);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let mut client = Client::connect(&addr).expect("connect");
    let mut base = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    base.k = 5;
    let unsharded = client.search(&base).expect("roundtrip");
    assert_eq!(unsharded["ok"].as_bool(), Some(true));
    assert_eq!(unsharded["result"]["shards"].as_u64(), Some(1));
    for n in [2u64, 3, 8] {
        let mut req = base.clone();
        req.shards = Some(n as usize);
        let resp = client.search(&req).expect("roundtrip");
        assert_eq!(resp["ok"].as_bool(), Some(true), "{n} shards: {resp:?}");
        assert_eq!(resp["result"]["shards"].as_u64(), Some(n));
        assert_eq!(
            serde_json::to_string(&resp["result"]["hits"]).unwrap(),
            serde_json::to_string(&unsharded["result"]["hits"]).unwrap(),
            "{n}-shard wire results must be byte-identical to unsharded"
        );
    }
    let stats = client.stats().expect("stats");
    let s = &stats["stats"];
    assert_eq!(s["shards"]["default"].as_u64(), Some(1));
    assert_eq!(s["shards"]["sharded_queries"].as_u64(), Some(3));
    assert_eq!(handle.stats().sharded_queries, 3);
    assert_eq!(handle.stats().default_shards, 1);
}

/// Duplicate in-flight queries coalesce onto one execution: a barrier
/// burst of 8 identical requests (cache disabled, so the result cache
/// cannot absorb the repeats) must report a positive coalesced counter
/// and strictly fewer engine executions than requests.
#[test]
fn duplicate_queries_coalesce_onto_one_execution() {
    let handle = spawn(build_engine(false), 2, 64);
    let terms = top_terms(handle.engine(), 2);
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    req.delay_ms = 500; // hold the flight open across the whole burst
    let report = run_load(&handle.addr().to_string(), 8, 1, &req).expect("load run");

    assert_eq!(report.sent, 8);
    assert_eq!(
        report.ok, 8,
        "every coalesced request still gets a response"
    );
    assert_eq!(report.errors, 0);
    assert_eq!(report.overloaded, 0);
    assert!(
        report.coalesced >= 1,
        "duplicate concurrent queries must coalesce: {report}"
    );
    let stats = handle.stats();
    assert_eq!(stats.coalesced, report.coalesced);
    let executed = handle.engine().queries_served();
    assert!(
        executed < 8,
        "coalescing must execute fewer queries than requests (got {executed})"
    );
    assert_eq!(executed + report.coalesced, 8, "every request is accounted");
}

/// When the queue depth is exceeded, requests are shed with a structured
/// `overloaded` error: no hangs, no panics, and the server keeps serving
/// afterwards.
#[test]
fn queue_overflow_sheds_with_structured_errors() {
    let handle = spawn(build_engine(false), 1, 1);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let query = format!("{} OR {}", terms[0], terms[1]);

    let clients = 12usize;
    let barrier = Arc::new(Barrier::new(clients));
    let mut outcomes = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..clients {
            let addr = addr.clone();
            let query = query.clone();
            let barrier = barrier.clone();
            handles.push(s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut req = WireSearchRequest::new(query);
                req.k = 3 + i; // distinct keys: coalescing must not mask the overflow
                req.delay_ms = 150;
                barrier.wait();
                client.search(&req).expect("a response, never a hang")
            }));
        }
        for h in handles {
            outcomes.push(h.join().expect("no client panics"));
        }
    });

    let ok = outcomes
        .iter()
        .filter(|v| v["ok"].as_bool() == Some(true))
        .count();
    let overloaded = outcomes
        .iter()
        .filter(|v| {
            v["ok"].as_bool() == Some(false)
                && v["error"]["kind"].as_str().and_then(ErrorKind::from_name)
                    == Some(ErrorKind::Overloaded)
        })
        .count();
    assert_eq!(
        ok + overloaded,
        clients,
        "every response is ok or a structured overloaded error: {outcomes:?}"
    );
    assert!(ok >= 1, "admitted work still completes");
    assert!(
        overloaded >= 1,
        "exceeding the queue depth must shed with `overloaded`"
    );
    for v in &outcomes {
        if v["ok"].as_bool() == Some(false) {
            assert!(
                v["error"]["message"].as_str().is_some(),
                "shed errors carry a message"
            );
        }
    }
    assert_eq!(handle.stats().shed, overloaded as u64);

    // The server is healthy after shedding: a fresh request succeeds.
    let mut client = Client::connect(&addr).expect("reconnect");
    let after = client
        .search(&WireSearchRequest::new(query))
        .expect("roundtrip");
    assert_eq!(after["ok"].as_bool(), Some(true));
}

/// The control verbs on both tiers — a server, and a router fronting
/// one shard server: ping, malformed lines answered rather than
/// disconnected, protocol-initiated graceful shutdown after which the
/// port refuses, and idempotent handle shutdown. Stats (counters
/// consistent with the handle snapshot) and the result cache are
/// server-only.
#[test]
fn control_verbs_and_graceful_shutdown() {
    for routed in [false, true] {
        let tier = Tier::spawn(routed);
        let name = tier.name();
        let addr = tier.addr();
        let terms = top_terms(tier.engine(), 2);
        let mut client = Client::connect(&addr).expect("connect");

        assert_eq!(client.ping().unwrap()["pong"].as_bool(), Some(true));

        // Malformed lines are answered with parse errors, not disconnects.
        let bad = client.roundtrip("this is not json\n").unwrap();
        assert_eq!(bad["error"]["kind"], "parse", "{name}");
        let unknown = client
            .roundtrip(&format!("{{\"query\":\"zzz_unknown_word_{}\"}}\n", 42))
            .unwrap();
        assert_eq!(unknown["error"]["kind"], "query", "{name}");

        let mut req = WireSearchRequest::new(format!("{} AND {}", terms[0], terms[1]));
        req.backend = ipm_core::BackendChoice::Disk;
        assert_eq!(client.search(&req).unwrap()["ok"].as_bool(), Some(true));

        if let Tier::Server(handle) = &tier {
            assert_eq!(
                client.search(&req).unwrap()["result"]["served_from_cache"],
                true
            );
            let stats = client.stats().unwrap();
            let s = &stats["stats"];
            assert_eq!(s["served"].as_u64(), Some(2));
            assert_eq!(s["protocol_errors"].as_u64(), Some(2));
            assert_eq!(s["workers"].as_u64(), Some(2));
            assert!(s["cache"]["hits"].as_u64().unwrap() >= 1);
            assert!(
                s["io"]["disk"]["sequential_fetches"].as_u64().unwrap() > 0,
                "disk-backed query must show up in the per-backend IO aggregate"
            );
            // The memory backend performs no simulated IO, so it has no
            // `io` entry; its real work is reported under `access` (the
            // disk queries above touched the disk backend's sorted-access
            // counters too).
            assert!(s["io"]["memory"].is_null());
            assert!(
                s["access"]["disk"]["sorted_accesses"].as_u64().unwrap() > 0,
                "uncached disk execution must aggregate into the access counters"
            );
            assert!(s["access"]["memory"]["entries_skipped"].as_u64().is_some());
            assert!(s["access"]["block"]["rounds"].as_u64().is_some());
            let snap = handle.stats();
            assert_eq!(snap.served, 2);
            assert_eq!(snap.protocol_errors, 2);
        }

        // Graceful shutdown over the wire: the verb is acknowledged, then
        // the tier drains and joins.
        let bye = client.shutdown_server().unwrap();
        assert_eq!(bye["bye"].as_bool(), Some(true), "{name}");
        tier.join();

        // The port no longer accepts work.
        let gone = Client::connect(&addr).and_then(|mut c| c.ping()).is_err();
        assert!(gone, "{name} must stop accepting after graceful shutdown");

        // Handle-initiated shutdown is idempotent.
        let mut again = Tier::spawn(routed);
        again.shutdown();
        again.shutdown();
    }
}

/// A request line exceeding the line cap must not buffer unboundedly, on
/// either tier: the connection is answered with a parse error (when the
/// response survives the close) or dropped, and the tier stays healthy.
#[test]
fn oversized_request_lines_are_rejected_not_buffered() {
    for routed in [false, true] {
        let tier = Tier::spawn(routed);
        let name = tier.name();
        let addr = tier.addr();
        let mut client = Client::connect(&addr).expect("connect");
        // 300 KiB without a newline exceeds the line cap. An Err is
        // acceptable too: the tier may close the connection mid-write.
        let huge = "x".repeat(300 * 1024);
        if let Ok(resp) = client.roundtrip(&huge) {
            assert_eq!(resp["error"]["kind"], "parse", "{name}");
        }
        // The tier survives and keeps serving fresh connections.
        let terms = top_terms(tier.engine(), 2);
        let mut fresh = Client::connect(&addr).expect("reconnect");
        let ok = fresh
            .search(&WireSearchRequest::new(format!(
                "{} OR {}",
                terms[0], terms[1]
            )))
            .expect("roundtrip");
        assert_eq!(ok["ok"].as_bool(), Some(true), "{name}: {ok:?}");
    }
}

/// Load-generator sanity on a healthy server: zero protocol errors and a
/// throughput figure (this is the same closed-loop driver CI's smoke job
/// runs against `ipm serve`).
#[test]
fn load_generator_reports_clean_run() {
    let handle = spawn(build_engine(true), 4, 64);
    let terms = top_terms(handle.engine(), 2);
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    req.delay_ms = 2;
    let report = run_load(&handle.addr().to_string(), 8, 5, &req).expect("load");
    assert_eq!(report.sent, 40);
    assert_eq!(report.ok + report.overloaded, 40);
    assert_eq!(report.errors, 0, "clean run: {report}");
    assert!(report.throughput() > 0.0);
    // Identical requests: after the first execution the result cache
    // serves repeats, and the burst itself coalesces — the engine must
    // have executed far fewer than 40 queries.
    let cache = handle.engine().cache_stats();
    assert!(cache.hits > 0, "repeats must hit the result cache");
}

/// Satellite: the server-side clamps are wire-visible and the *clamped*
/// values are what `CacheKey` sees. `shards` clamps to `MAX_SHARDS` (64)
/// — the response reports the clamped fanout and an explicit `shards: 64`
/// request hits the same cache entry. `delay_ms` clamps to 5000 and is
/// *outside* the cache key: requests differing only in delay share one
/// entry (and the clamp itself is asserted without sleeping through it).
#[test]
fn wire_clamps_are_enforced_and_cache_keyed() {
    assert_eq!(ipm_server::MAX_DELAY_MS, 5_000);
    assert_eq!(
        ipm_server::clamped_delay(u64::MAX),
        std::time::Duration::from_millis(5_000),
        "the worker-side delay clamp"
    );
    assert_eq!(ipm_core::MAX_SHARDS, 64);

    let handle = spawn(build_engine(true), 2, 16);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let mut client = Client::connect(&addr).expect("connect");

    // An absurd fanout is clamped, not honoured and not rejected.
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    req.shards = Some(1_000);
    let over = client.search(&req).expect("roundtrip");
    assert_eq!(over["ok"].as_bool(), Some(true));
    assert_eq!(
        over["result"]["shards"].as_u64(),
        Some(64),
        "response must report the clamped fanout"
    );
    assert_eq!(over["result"]["served_from_cache"], false);

    // An explicit clamped value resolves to the same CacheKey: cache hit.
    req.shards = Some(64);
    let exact = client.search(&req).expect("roundtrip");
    assert_eq!(
        exact["result"]["served_from_cache"], true,
        "shards 1000 and 64 must share one cache entry (CacheKey sees the clamp)"
    );

    // delay_ms is applied outside the cache key: a different delay on an
    // otherwise identical request still hits the same entry.
    req.delay_ms = 30;
    let delayed = client.search(&req).expect("roundtrip");
    assert_eq!(
        delayed["result"]["served_from_cache"], true,
        "delay_ms must not fragment the cache"
    );
}

/// CI's deadline smoke, as a test: `deadline_ms: 1` under `delay_ms: 100`
/// load returns a structured `deadline_exceeded` error in bounded time
/// (the worker caps the simulated delay at the remaining deadline), the
/// stats counter moves, and the server keeps serving. A second scenario
/// parks the single worker and shows queue *wait* counting against the
/// budget: the queued request is dead on arrival at the worker.
#[test]
fn deadline_exceeded_is_structured_and_bounded() {
    let handle = spawn(build_engine(false), 1, 16);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let query = format!("{} OR {}", terms[0], terms[1]);

    // Direct: tiny deadline + large simulated delay.
    let mut client = Client::connect(&addr).expect("connect");
    let mut req = WireSearchRequest::new(query.clone());
    req.delay_ms = 100;
    req.deadline_ms = Some(1);
    let started = std::time::Instant::now();
    let resp = client.search(&req).expect("a response, never a hang");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "deadline_exceeded must come back promptly, took {:?}",
        started.elapsed()
    );
    assert_eq!(resp["ok"].as_bool(), Some(false));
    assert_eq!(resp["error"]["kind"], "deadline_exceeded");

    // Queue wait counts: park the single worker with a long delay, then
    // queue a short-deadline request behind it.
    let parked = std::thread::spawn({
        let addr = addr.clone();
        let query = query.clone();
        move || {
            let mut c = Client::connect(&addr).expect("connect");
            let mut slow = WireSearchRequest::new(query);
            slow.delay_ms = 400;
            c.search(&slow).expect("slow request completes")
        }
    });
    // Give the slow request time to occupy the worker.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut queued = WireSearchRequest::new(query.clone());
    queued.deadline_ms = Some(50); // expires while waiting in the queue
    let resp = client.search(&queued).expect("roundtrip");
    assert_eq!(
        resp["error"]["kind"], "deadline_exceeded",
        "queue wait must count against the deadline: {resp:?}"
    );
    assert_eq!(parked.join().unwrap()["ok"].as_bool(), Some(true));

    // Counters moved and the server still serves.
    assert!(handle.stats().deadline_exceeded >= 2);
    assert_eq!(client.ping().unwrap()["pong"].as_bool(), Some(true));
    let fresh = client
        .search(&WireSearchRequest::new(query))
        .expect("roundtrip");
    assert_eq!(fresh["ok"].as_bool(), Some(true));
}

/// An `io_budget` over the wire truncates a disk-backed query: the
/// response is marked `completeness: truncated (io)`, carries its partial
/// IoStats, and the `budget_truncated` counter moves.
#[test]
fn io_budget_truncates_over_the_wire() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: Some(Default::default()),
            pool: ipm_storage::PoolConfig {
                page_size: 256,
                capacity_pages: 8,
                lookahead_pages: 1,
            },
            ..Default::default()
        },
    );
    let handle = spawn(engine, 2, 16);
    let terms = top_terms(handle.engine(), 2);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 100;
    req.backend = ipm_core::BackendChoice::Disk;
    req.io_budget = Some(10);
    let resp = client.search(&req).expect("roundtrip");
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    assert_eq!(resp["result"]["completeness"]["kind"], "truncated");
    assert_eq!(resp["result"]["completeness"]["budget"], "io");
    let fetches = resp["result"]["io"]["sequential_fetches"].as_u64().unwrap()
        + resp["result"]["io"]["random_fetches"].as_u64().unwrap();
    assert!(fetches > 0 && fetches <= 10 + 8, "fetches {fetches}");
    assert!(handle.stats().budget_truncated >= 1);

    // The unbudgeted rerun is exact and was not served from the
    // truncated (uncached) result.
    req.io_budget = None;
    let full = client.search(&req).expect("roundtrip");
    assert_eq!(full["result"]["served_from_cache"], false);
    assert_eq!(full["result"]["completeness"]["kind"], "exact");
}

/// `{"batch": [...]}` shares one admission slot and returns per-item
/// results/errors: good items match direct engine execution byte for
/// byte, a bad item reports a structured per-item `query` error without
/// sinking its siblings.
#[test]
fn batch_requests_return_per_item_results() {
    let handle = spawn(build_engine(true), 2, 16);
    let terms = top_terms(handle.engine(), 3);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let mut good_a = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    good_a.k = 5;
    let bad = WireSearchRequest::new("zzz_unknown_word_zzz".to_owned());
    let mut good_b = WireSearchRequest::new(format!("{} AND {}", terms[1], terms[2]));
    good_b.k = 5;

    let resp = client
        .search_batch(&[good_a.clone(), bad, good_b.clone()])
        .expect("roundtrip");
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    let items = resp["batch"].as_array().expect("batch array");
    assert_eq!(items.len(), 3);

    let engine = handle.engine().clone();
    for (req, item) in [(good_a, &items[0]), (good_b, &items[2])] {
        assert_eq!(item["ok"].as_bool(), Some(true), "{item:?}");
        let query = engine.miner().parse_query_str(&req.query).unwrap();
        let direct = engine
            .request_query(query)
            .k(req.k)
            .options(req.options())
            .run()
            .unwrap();
        assert_eq!(
            serde_json::to_string(&item["result"]["hits"]).unwrap(),
            serde_json::to_string(&wire::hits_value(&direct)).unwrap(),
            "batch item must match direct execution"
        );
    }
    assert_eq!(items[1]["ok"].as_bool(), Some(false));
    assert_eq!(items[1]["error"]["kind"], "query");

    // A top-level deadline of zero milliseconds makes every executable
    // item dead on arrival — per-item structured errors, not a hang.
    let q = format!("{} OR {}", terms[0], terms[1]);
    let doa = client
        .roundtrip(&format!(
            "{{\"batch\":[{{\"query\":\"{q}\"}},{{\"query\":\"{q}\"}}],\"deadline_ms\":0}}\n"
        ))
        .expect("roundtrip");
    let doa_items = doa["batch"].as_array().expect("batch array");
    for item in doa_items {
        assert_eq!(item["error"]["kind"], "deadline_exceeded", "{item:?}");
    }
}

/// A wire batch asking for an absurd `k` must not take the process down:
/// every item answers exactly like the same search run serially, and the
/// server keeps answering afterwards.
#[test]
fn huge_k_batch_is_served_not_aborted() {
    let handle = spawn(build_engine(false), 2, 16);
    let engine = handle.engine().clone();
    let terms = top_terms(&engine, 3);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let k: u64 = 9_000_000_000_000_000;
    let queries = [
        format!("{} OR {}", terms[0], terms[1]),
        format!("{} OR {}", terms[0], terms[2]),
    ];
    let items: Vec<String> = queries
        .iter()
        .map(|q| format!("{{\"query\":\"{q}\",\"method\":\"smj\",\"k\":{k}}}"))
        .collect();
    let resp = client
        .roundtrip(&format!("{{\"batch\":[{}]}}\n", items.join(",")))
        .expect("roundtrip");
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    let served = resp["batch"].as_array().expect("batch array");
    assert_eq!(served.len(), queries.len());
    for (item, q) in served.iter().zip(&queries) {
        assert_eq!(item["ok"].as_bool(), Some(true), "{item:?}");
        let serial = engine
            .request(q)
            .k(k as usize)
            .options(SearchOptions {
                algorithm: Algorithm::Smj,
                ..Default::default()
            })
            .run()
            .unwrap();
        assert_eq!(
            serde_json::to_string(&item["result"]["hits"]).unwrap(),
            serde_json::to_string(&wire::hits_value(&serial)).unwrap(),
            "huge-k batch item must match serial execution of `{q}`"
        );
    }
    assert_eq!(client.ping().unwrap()["pong"].as_bool(), Some(true));
}

/// Open-loop zipfian workload: arrivals on a fixed schedule, mixed
/// query/ingest traffic, no protocol errors, and a coherent latency
/// report (p50 ≤ p95 ≤ p99, every scheduled op accounted for).
#[test]
fn open_loop_generator_reports_clean_percentiles() {
    let handle = spawn(build_engine(false), 2, 64);
    let words = top_terms(handle.engine(), 8);
    let mut template = WireSearchRequest::new(String::new());
    template.k = 5;
    template.algorithm = ipm_server::wire::algorithm_from_str("smj").unwrap();
    let config = ipm_server::OpenLoopConfig {
        rate: 400.0,
        duration: std::time::Duration::from_millis(800),
        zipf_s: 1.1,
        conns: 2,
        ingest_every: 5,
        word_pool: words,
        template,
        ..Default::default()
    };
    let report =
        ipm_server::run_open_loop(&handle.addr().to_string(), &config).expect("open-loop run");
    assert_eq!(report.errors, 0, "{report}");
    assert!(report.ok > 0, "{report}");
    assert!(report.ingests > 0, "mixed workload must ingest: {report}");
    assert_eq!(report.scheduled, report.ok + report.shed + report.errors);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
    let stats = handle.stats();
    assert_eq!(stats.protocol_errors, 0);
}

/// The wire batch verb routes through the fused shared-scan path: a
/// batch of word-sharing block-backend queries must return hits byte-
/// identical to single-shot execution, form at least one multi-member
/// group (`ipm_batch_groups_total` < items), and hit the decoded-block
/// cache while sharing list blocks within the group.
#[test]
fn batch_verb_routes_through_the_fused_path() {
    let handle = spawn(build_engine(false), 2, 16);
    let terms = top_terms(handle.engine(), 6);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let reqs: Vec<WireSearchRequest> = (1..terms.len())
        .map(|i| {
            let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[i]));
            req.k = 5;
            req.algorithm = wire::algorithm_from_str("smj").unwrap();
            req.backend = wire::backend_from_str("block").unwrap();
            req
        })
        .collect();

    // Single-shot baselines first: the decode cache is batch-only, so
    // these cannot warm it — the batch below must produce its own
    // misses-then-hits inside one fused group.
    let singles: Vec<String> = reqs
        .iter()
        .map(|req| {
            let resp = client.search(req).expect("roundtrip");
            assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
            serde_json::to_string(&resp["result"]["hits"]).unwrap()
        })
        .collect();

    let resp = client.search_batch(&reqs).expect("roundtrip");
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    let items = resp["batch"].as_array().expect("batch array");
    assert_eq!(items.len(), reqs.len());
    for (item, want) in items.iter().zip(&singles) {
        assert_eq!(item["ok"].as_bool(), Some(true), "{item:?}");
        assert_eq!(
            serde_json::to_string(&item["result"]["hits"]).unwrap(),
            *want,
            "fused batch item must match single-shot execution"
        );
    }

    let metrics = client.metrics().expect("metrics scrape");
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("{name} not exposed:\n{metrics}"))
    };
    let groups = counter("ipm_batch_groups_total ");
    let batch_items = counter("ipm_batch_items_total ");
    assert!(groups >= 1, "no batch groups recorded");
    assert_eq!(batch_items, reqs.len() as u64);
    assert!(
        groups < batch_items,
        "word-sharing queries must coalesce into fewer groups than items \
         (groups={groups}, items={batch_items})"
    );
    assert!(
        counter("ipm_decode_cache_hits_total ") > 0,
        "fused group over shared word lists must hit the decoded-block cache"
    );
    assert_eq!(
        counter("ipm_batch_fused_scans_saved_total "),
        counter("ipm_decode_cache_hits_total "),
        "fused-scans-saved is defined as decode-cache hits"
    );
}

/// Satellite of the lifecycle PR: wire requests with `use_delta: true`
/// must be *honoured* by every algorithm — before this PR SMJ/TA/exact
/// silently accepted and silently ignored the flag — and the response
/// completeness label must be `exact` for SMJ/TA/exact (the §4.5.1
/// corrections restore their exactness) while NRA stays
/// `approximate/delta_corrections` (its bounds rode the stale order).
#[test]
fn wire_use_delta_completeness_labels_per_algorithm() {
    let handle = spawn(build_engine(true), 2, 16);
    let terms = top_terms(handle.engine(), 2);
    let q = format!("{} OR {}", terms[0], terms[1]);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    // With no delta attached the flag is a no-op: everything is exact.
    for method in ["nra", "smj", "ta", "exact"] {
        let mut req = WireSearchRequest::new(q.clone());
        req.algorithm = wire::algorithm_from_str(method).unwrap();
        req.use_delta = true;
        let resp = client.search(&req).expect("roundtrip");
        assert_eq!(
            resp["result"]["completeness"]["kind"], "exact",
            "{method}: empty delta must leave results exact"
        );
    }

    // Ingest over the wire: the delta becomes non-empty.
    let ingest = client
        .ingest(&[terms[0].clone(), terms[1].clone()], &[])
        .expect("roundtrip");
    assert_eq!(ingest["ok"].as_bool(), Some(true), "{ingest:?}");
    assert_eq!(ingest["delta_docs"].as_u64(), Some(1));

    for (method, backend) in [
        ("nra", "memory"),
        ("nra", "disk"),
        ("smj", "memory"),
        ("smj", "disk"),
        ("ta", "memory"),
        ("ta", "disk"),
        ("exact", "memory"),
        ("exact", "disk"),
    ] {
        let mut req = WireSearchRequest::new(q.clone());
        req.algorithm = wire::algorithm_from_str(method).unwrap();
        req.backend = wire::backend_from_str(backend).unwrap();
        req.use_delta = true;
        let resp = client.search(&req).expect("roundtrip");
        assert_eq!(
            resp["ok"].as_bool(),
            Some(true),
            "{method}/{backend}: {resp:?}"
        );
        let completeness = &resp["result"]["completeness"];
        match method {
            "nra" => {
                assert_eq!(
                    completeness["kind"], "approximate",
                    "{method}/{backend}: corrected NRA stays approximate"
                );
                assert_eq!(completeness["reason"], "delta_corrections");
            }
            _ => assert_eq!(
                completeness["kind"], "exact",
                "{method}/{backend}: corrections make {method} exact (paper §4.5.1)"
            ),
        }
    }
}

/// The full lifecycle over the wire: ingest → a delta-corrected query
/// reflects the new document → compact → the same query is exact again
/// and matches a from-scratch rebuild → stats counters moved. Queries
/// keep flowing during the compaction job.
#[test]
fn wire_lifecycle_ingest_compact_stats() {
    let handle = spawn(build_engine(true), 2, 16);
    let engine = handle.engine().clone();
    let terms = top_terms(&engine, 2);
    let q = format!("{} OR {}", terms[0], terms[1]);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let epoch0 = engine.epoch();
    let before = client.search(&WireSearchRequest::new(q.clone())).unwrap();
    assert_eq!(before["result"]["completeness"]["kind"], "exact");

    // Ingest a batch of copies of the top term so scores actually move.
    for _ in 0..10 {
        let reply = client.ingest(&[terms[0].clone()], &[]).expect("roundtrip");
        assert_eq!(reply["ok"].as_bool(), Some(true), "{reply:?}");
    }
    assert!(engine.epoch() > epoch0, "ingest must bump the epoch");

    // Unknown terms are reported, not silently dropped.
    let partial = client
        .ingest(
            &[terms[0].clone(), "zzz_unknown_word_zzz".to_owned()],
            &["zzz:nope".to_owned()],
        )
        .expect("roundtrip");
    assert_eq!(partial["unknown_tokens"].as_u64(), Some(1));
    assert_eq!(partial["unknown_facets"].as_u64(), Some(1));

    // A fully-unknown document is a structured query error.
    let rejected = client
        .ingest(&["zzz_unknown_word_zzz".to_owned()], &[])
        .expect("roundtrip");
    assert_eq!(rejected["ok"].as_bool(), Some(false));
    assert_eq!(rejected["error"]["kind"], "query");

    // Delete one base document too.
    let deleted = client.delete_doc(0).expect("roundtrip");
    assert_eq!(deleted["deleted"].as_bool(), Some(true), "{deleted:?}");
    // Re-deleting is a no-op (and must not bump the epoch).
    let epoch_before_redelete = engine.epoch();
    let re = client.delete_doc(0).expect("roundtrip");
    assert_eq!(re["deleted"].as_bool(), Some(false));
    assert_eq!(engine.epoch(), epoch_before_redelete);
    // Out-of-range deletes are structured errors.
    let oob = client.delete_doc(u64::MAX).expect("roundtrip");
    assert_eq!(oob["ok"].as_bool(), Some(false));

    // The delta-corrected query reflects the ingested documents.
    let mut delta_req = WireSearchRequest::new(q.clone());
    delta_req.use_delta = true;
    let corrected = client.search(&delta_req).expect("roundtrip");
    assert_eq!(corrected["result"]["completeness"]["kind"], "approximate");
    assert_eq!(
        corrected["result"]["completeness"]["reason"],
        "delta_corrections"
    );

    // The reference: a from-scratch rebuild over the updated documents.
    let reference = {
        let miner = engine.miner();
        let corpus = miner.corpus();
        let mut docs: Vec<(Vec<WordId>, Vec<ipm_corpus::FacetId>)> = Vec::new();
        for d in corpus.docs() {
            if d.id != DocId(0) {
                docs.push((d.tokens.clone(), d.facets.clone()));
            }
        }
        let w0 = corpus.word_id(&terms[0]).unwrap();
        for _ in 0..11 {
            docs.push((vec![w0], Vec::new()));
        }
        let rebuilt = corpus.with_docs(docs);
        QueryEngine::new(PhraseMiner::build(&rebuilt, MinerConfig::default()))
    };

    // Compact over the wire: the delta is flushed into a full rebuild.
    let compacted = client.compact().expect("roundtrip");
    assert_eq!(compacted["ok"].as_bool(), Some(true), "{compacted:?}");
    assert_eq!(compacted["compacted"].as_bool(), Some(true));
    assert_eq!(
        compacted["absorbed_adds"].as_u64(),
        Some(11),
        "{compacted:?}"
    );
    assert_eq!(compacted["absorbed_deletes"].as_u64(), Some(1));

    // The same query is exact again and matches the reference rebuild.
    let after = client.search(&delta_req).expect("roundtrip");
    assert_eq!(after["result"]["completeness"]["kind"], "exact");
    let want = reference.request(&q).k(10).run().unwrap();
    let got_hits = after["result"]["hits"].as_array().unwrap();
    assert_eq!(got_hits.len(), want.hits.len());
    for (g, w) in got_hits.iter().zip(&want.hits) {
        assert_eq!(g["text"].as_str().unwrap(), w.text, "post-compaction drift");
        assert!((g["score"].as_f64().unwrap() - w.hit.score).abs() < 1e-12);
    }
    // An immediate second compact is a no-op.
    let noop = client.compact().expect("roundtrip");
    assert_eq!(noop["compacted"].as_bool(), Some(false));

    // Counters surfaced by the stats verb.
    let stats = client.stats().expect("roundtrip");
    let s = &stats["stats"];
    assert_eq!(s["ingested"].as_u64(), Some(11));
    assert_eq!(s["deleted"].as_u64(), Some(1));
    assert_eq!(s["compactions"].as_u64(), Some(1));
    assert_eq!(s["delta_docs"].as_u64(), Some(0));
    assert!(s["epoch"].as_u64().unwrap() > 0);
}

/// Protocol v4 `metrics` verb: the exposition parses under the
/// Prometheus-text grammar, the latency histogram's `_count` equals the
/// engine's `queries_served`, and the serving layer's own instruments
/// (connections, queue wait) appear in the same scrape.
#[test]
fn metrics_verb_exposes_valid_prometheus_text() {
    let handle = spawn(build_engine(true), 2, 16);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let mut client = Client::connect(&addr).expect("connect");

    let mut req = WireSearchRequest::new(format!("{} AND {}", terms[0], terms[1]));
    req.backend = BackendChoice::Disk;
    assert_eq!(client.search(&req).unwrap()["ok"].as_bool(), Some(true));
    // Same request again: a cache hit must also count into the histogram.
    assert_eq!(client.search(&req).unwrap()["ok"].as_bool(), Some(true));

    let text = client.metrics().expect("metrics verb");
    validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));

    let queries_served = client.stats().unwrap()["stats"]["queries_served"]
        .as_u64()
        .unwrap();
    assert_eq!(
        sample_sum(&text, "ipm_query_latency_seconds_count"),
        Some(queries_served as f64),
        "every served query (cached or not) must be one histogram sample"
    );
    assert_eq!(sample_sum(&text, "ipm_cache_hits_total"), Some(1.0));
    assert!(sample_sum(&text, "ipm_server_connections_total").unwrap() >= 1.0);
    assert_eq!(
        sample_sum(&text, "ipm_server_queue_wait_seconds_count"),
        Some(2.0),
        "both searches went through the worker queue"
    );
    assert!(
        sample_sum(&text, "ipm_list_sorted_accesses_total").unwrap() > 0.0,
        "the uncached disk execution must feed the per-backend counters"
    );
}

/// `trace: true` on the wire returns the per-stage trace inline, and the
/// flag stays out of cache identity: an untraced request for the same
/// key is still a cache hit, and its response carries no trace.
#[test]
fn trace_flag_returns_inline_stage_trace() {
    let handle = spawn(build_engine(true), 2, 16);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let mut client = Client::connect(&addr).expect("connect");

    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.backend = BackendChoice::Disk;
    req.trace = true;
    let resp = client.search(&req).expect("roundtrip");
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    let trace = &resp["result"]["trace"];
    assert_eq!(trace["algorithm"], "nra");
    assert_eq!(trace["backend"], "disk");
    assert_eq!(trace["served_from_cache"], false);
    assert!(trace["total_us"].as_u64().is_some());
    let stages: Vec<&str> = trace["stages"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["stage"].as_str().unwrap())
        .collect();
    for want in ["parse", "plan", "cache_probe", "execute"] {
        assert!(stages.contains(&want), "missing stage {want}: {stages:?}");
    }
    // One shard -> one shard_exec span and one shard_stats row whose IO
    // matches the response's own accounting.
    assert!(stages.contains(&"shard_exec"));
    let shard_stats = trace["shard_stats"].as_array().unwrap();
    assert_eq!(shard_stats.len(), 1);
    let io_total = resp["result"]["io"]["sequential_fetches"].as_u64().unwrap()
        + resp["result"]["io"]["random_fetches"].as_u64().unwrap();
    assert_eq!(
        shard_stats[0]["io_fetches"].as_u64().unwrap(),
        io_total,
        "per-shard trace IO must reconcile with the response IoStats"
    );

    // The traced execution populated the cache for the untraced twin.
    req.trace = false;
    let cached = client.search(&req).expect("roundtrip");
    assert_eq!(cached["result"]["served_from_cache"], true);
    assert!(
        cached["result"]["trace"].is_null(),
        "untraced requests must not carry a trace"
    );

    // A traced cache hit gets a trace without an execute stage re-run.
    req.trace = true;
    let warm = client.search(&req).expect("roundtrip");
    assert_eq!(warm["result"]["served_from_cache"], true);
    assert_eq!(warm["result"]["trace"]["served_from_cache"], true);
    let warm_stages: Vec<&str> = warm["result"]["trace"]["stages"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["stage"].as_str().unwrap())
        .collect();
    assert!(warm_stages.contains(&"cache_probe"));
    assert!(!warm_stages.contains(&"shard_exec"));

    // The trace row above includes the hits' text lookups, and they are
    // real fetches: the image's phrase region shares no page with its
    // lists. An IO cap the query never reaches skips those lookups, so
    // the capped run fetches strictly less.
    handle.engine().clear_cache();
    req.trace = false;
    req.io_budget = Some(1_000_000_000);
    let capped = client.search(&req).expect("roundtrip");
    let capped_io = capped["result"]["io"]["sequential_fetches"]
        .as_u64()
        .unwrap()
        + capped["result"]["io"]["random_fetches"].as_u64().unwrap();
    assert!(
        io_total > capped_io,
        "text lookups must fetch: {io_total} fetches unbudgeted, {capped_io} capped"
    );
}

// ---------------------------------------------------------------------------
// Protocol v5: the scatter-gather router over remote shard servers.
// ---------------------------------------------------------------------------

fn spawn_faulty(engine: QueryEngine, fault_delay_ms: u64) -> ipm_server::ServerHandle {
    ipm_server::Server::spawn(
        engine,
        ipm_server::ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 16,
            fault_delay_ms,
        },
    )
    .expect("bind loopback")
}

fn spawn_router(
    shards: Vec<Vec<String>>,
    hedge: ipm_server::HedgeConfig,
) -> ipm_server::RouterHandle {
    ipm_server::Router::spawn(
        build_engine(false),
        ipm_server::RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards,
            hedge,
            rpc_timeout: std::time::Duration::from_secs(5),
        },
    )
    .expect("bind router")
}

/// A router scatters over at most `MAX_SHARDS` shards: a node executes
/// no wider fanout, so every shard past the cap would answer with the
/// last shard's hits and the merge would repeat them.
#[test]
fn router_rejects_more_shards_than_max_shards() {
    let unreachable = |n| vec![vec!["127.0.0.1:1".to_owned()]; n];
    let wide = ipm_server::Router::spawn(
        build_engine(false),
        ipm_server::RouterConfig {
            shards: unreachable(ipm_core::MAX_SHARDS + 1),
            ..Default::default()
        },
    );
    let err = wide.err().expect("a router past MAX_SHARDS must not start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    // The cap itself is accepted; binding needs no shard to be up.
    drop(spawn_router(
        unreachable(ipm_core::MAX_SHARDS),
        ipm_server::HedgeConfig::default(),
    ));
}

/// Routed execution over two remote shard servers returns hits
/// byte-identical to single-process sharded execution of the same
/// query — the distributed merge is the same merge.
#[test]
fn router_matches_single_process_sharded_execution() {
    let s0 = spawn_faulty(build_engine(false), 0);
    let s1 = spawn_faulty(build_engine(false), 0);
    let router = spawn_router(
        vec![vec![s0.addr().to_string()], vec![s1.addr().to_string()]],
        ipm_server::HedgeConfig::default(),
    );
    let terms = top_terms(s0.engine(), 3);
    let mut local = Client::connect(&s0.addr().to_string()).expect("connect shard");
    let mut routed = Client::connect(&router.addr().to_string()).expect("connect router");
    for (a, b) in [(0, 1), (1, 2), (0, 2)] {
        for op in ["AND", "OR"] {
            for method in ["nra", "smj", "ta", "exact"] {
                let mut req = WireSearchRequest::new(format!("{} {op} {}", terms[a], terms[b]));
                req.k = 5;
                req.algorithm = wire::algorithm_from_str(method).unwrap();
                let via_router = routed.search(&req).expect("roundtrip");
                assert_eq!(
                    via_router["ok"].as_bool(),
                    Some(true),
                    "router error: {via_router:?}"
                );
                assert_eq!(via_router["router"]["fanout"].as_u64(), Some(2));
                assert_eq!(via_router["result"]["shards"].as_u64(), Some(2));
                req.shards = Some(2);
                let direct = local.search(&req).expect("roundtrip");
                assert_eq!(direct["ok"].as_bool(), Some(true));
                assert_eq!(
                    serde_json::to_string(&via_router["result"]["hits"]).unwrap(),
                    serde_json::to_string(&direct["result"]["hits"]).unwrap(),
                    "{method} {op}: routed hits must be byte-identical to local sharded"
                );
                assert_eq!(
                    serde_json::to_string(&via_router["result"]["completeness"]).unwrap(),
                    serde_json::to_string(&direct["result"]["completeness"]).unwrap(),
                    "{method} {op}: completeness must agree"
                );
            }
        }
    }
    let stats = router.stats();
    assert_eq!(stats.requests, 24);
    assert!(stats.shard_rpcs >= 48, "two legs per request: {stats:?}");
    assert_eq!(stats.partial_results, 0);
}

/// Killing one shard mid-flight degrades responses to a structured
/// partial result — `approximate { shards_missing }` — instead of an
/// error or a hang, and the router counts it.
#[test]
fn dead_shard_yields_honest_partial_results() {
    let s0 = spawn_faulty(build_engine(false), 0);
    let mut s1 = spawn_faulty(build_engine(false), 0);
    let router = spawn_router(
        vec![vec![s0.addr().to_string()], vec![s1.addr().to_string()]],
        ipm_server::HedgeConfig::default(),
    );
    let terms = top_terms(s0.engine(), 2);
    let mut client = Client::connect(&router.addr().to_string()).expect("connect");
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    let healthy = client.search(&req).expect("roundtrip");
    assert_eq!(healthy["ok"].as_bool(), Some(true));
    assert_eq!(
        healthy["result"]["completeness"]["kind"].as_str(),
        Some("exact")
    );

    s1.shutdown();
    let degraded = client.search(&req).expect("roundtrip");
    assert_eq!(
        degraded["ok"].as_bool(),
        Some(true),
        "a dead shard must degrade, not error: {degraded:?}"
    );
    assert_eq!(
        degraded["result"]["completeness"]["kind"].as_str(),
        Some("approximate"),
        "{degraded:?}"
    );
    assert_eq!(
        degraded["result"]["completeness"]["reason"].as_str(),
        Some("shards_missing")
    );
    assert_eq!(
        degraded["result"]["completeness"]["missing"].as_u64(),
        Some(1)
    );
    let stats = router.stats();
    assert!(stats.partial_results >= 1, "{stats:?}");
    assert!(stats.shard_failures >= 1, "{stats:?}");
}

/// A slow primary replica plus a fast second replica: the hedge fires
/// after its delay, the fast replica's answer wins, and the response is
/// still byte-identical to direct execution — hedging must never change
/// the answer, only its latency.
#[test]
fn hedged_request_beats_a_slow_replica() {
    let slow = spawn_faulty(build_engine(false), 250);
    let fast = spawn_faulty(build_engine(false), 0);
    let router = spawn_router(
        vec![vec![slow.addr().to_string(), fast.addr().to_string()]],
        ipm_server::HedgeConfig {
            enabled: true,
            initial_delay: std::time::Duration::from_millis(10),
            min_delay: std::time::Duration::from_millis(1),
            max_delay: std::time::Duration::from_millis(250),
        },
    );
    let terms = top_terms(fast.engine(), 2);
    let mut client = Client::connect(&router.addr().to_string()).expect("connect");
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    let started = std::time::Instant::now();
    let resp = client.search(&req).expect("roundtrip");
    let elapsed = started.elapsed();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    assert!(
        elapsed < std::time::Duration::from_millis(200),
        "hedged response took {elapsed:?} against a 250 ms slow primary"
    );
    let direct = fast
        .engine()
        .request(&req.query)
        .k(5)
        .options(req.options())
        .run()
        .unwrap();
    assert_eq!(
        serde_json::to_string(&resp["result"]["hits"]).unwrap(),
        serde_json::to_string(&wire::hits_value(&direct)).unwrap(),
        "the hedge winner's hits must match direct execution"
    );
    let stats = router.stats();
    assert!(stats.hedges_fired >= 1, "{stats:?}");
    assert!(stats.hedges_won >= 1, "{stats:?}");
}

/// A deadline bounds the router even when the only replica of a shard is
/// slower than the deadline: the response comes back promptly with an
/// honest non-exact completeness label — never a hang.
#[test]
fn router_never_hangs_past_the_deadline() {
    let slow = spawn_faulty(build_engine(false), 400);
    let router = spawn_router(
        vec![vec![slow.addr().to_string()]],
        ipm_server::HedgeConfig {
            enabled: false,
            ..Default::default()
        },
    );
    let terms = top_terms(slow.engine(), 2);
    let mut client = Client::connect(&router.addr().to_string()).expect("connect");
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    req.deadline_ms = Some(120);
    let started = std::time::Instant::now();
    let resp = client.search(&req).expect("roundtrip");
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(350),
        "router answered in {elapsed:?} despite a 120 ms deadline"
    );
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    assert_ne!(
        resp["result"]["completeness"]["kind"].as_str(),
        Some("exact"),
        "a deadline-starved scatter must not claim exactness: {resp:?}"
    );
}

/// Reads one counter's value out of a Prometheus text exposition.
fn scrape_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or_else(|| panic!("counter {name} not found in exposition"))
}

/// The load generator holds one TCP connection per worker for its whole
/// run: N threads × M requests must accept exactly N connections, not
/// N×M — the serving benchmark measures request service, not handshakes.
#[test]
fn load_generator_reuses_one_connection_per_worker() {
    let handle = spawn(build_engine(true), 2, 32);
    let addr = handle.addr().to_string();
    let terms = top_terms(handle.engine(), 2);
    let mut observer = Client::connect(&addr).expect("connect");
    let before = scrape_counter(
        &observer.metrics().expect("metrics"),
        "ipm_server_connections_total",
    );
    let mut req = WireSearchRequest::new(format!("{} OR {}", terms[0], terms[1]));
    req.k = 5;
    let report = ipm_server::run_load(&addr, 4, 25, &req).expect("load run");
    assert_eq!(report.ok, 100, "{report}");
    let after = scrape_counter(
        &observer.metrics().expect("metrics"),
        "ipm_server_connections_total",
    );
    assert_eq!(
        after - before,
        4,
        "4 workers × 25 requests must open exactly 4 connections"
    );
}
