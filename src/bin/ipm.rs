//! `ipm` — command-line interesting-phrase mining.
//!
//! ```text
//! ipm index --input docs.jsonl --out index_dir [--min-df 5] [--max-len 6]
//! ipm query --input docs.jsonl "trade AND reserves" [--k 5] [--method nra|smj|ta|exact] [--backend memory|disk|block] [--json true]
//! ipm serve --input docs.jsonl --port 7341 [--workers 4] [--queue-depth 64] [--cache true]
//! ipm client --addr 127.0.0.1:7341 "trade AND reserves" [--k 5] [--json true]
//! ipm stats --input docs.jsonl
//! ipm demo  "w1 OR w2"            # synthetic corpus, no input file needed
//! ```
//!
//! Input formats: `.jsonl` (objects with `text` and optional `facets`) or
//! plain text (one document per line). `index` persists the serialized word
//! lists + phrase file (with checksums) into a directory; `query` builds
//! in-memory and answers one query. `serve` puts the engine behind the
//! `ipm_server` TCP protocol (`docs/protocol.md`); `client` speaks it —
//! one-shot, `--stats true`, `--shutdown true`, or as an N-thread
//! closed-loop load generator (`--load-threads`).

use interesting_phrases::prelude::*;
use ipm_server::wire;
use ipm_storage::persist;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ipm index  --input <file> --out <dir> [--min-df N] [--max-len N] [--fraction F]
             [--shards N]
  ipm query  --input <file> <query string> [--k N] [--method nra|smj|ta|exact]
             [--backend memory|disk|block] [--fraction F] [--shards N]
             [--deadline-ms N] [--io-budget N] [--json true]
  ipm serve  [--input <file>] [--host H] [--port N] [--workers N]
             [--queue-depth N] [--cache true|false] [--shards N]
             [--min-df N] [--max-len N] [--slow-query-ms N]
             [--fault-delay-ms N]
  ipm route  --shard-addr <addr[,replica...]> [--shard-addr ...]
             [--input <file>] [--host H] [--port N] [--no-hedge true]
             [--hedge-delay-ms N] [--rpc-timeout-ms N]
  ipm client --addr <host:port> <query string> [--k N] [--method M] [--backend B]
             [--shards N] [--delay-ms N] [--deadline-ms N] [--io-budget N]
             [--use-delta true] [--trace true] [--json true]
  ipm client --addr <host:port> --stats true | --shutdown true
  ipm client --addr <host:port> --load-threads N [--load-requests N]
             [--delay-ms N] <query string>
  ipm client --addr <host:port> --batch-query <q> [--batch-query <q> ...]
  ipm client --addr <host:port> --open-loop true [--rate N] [--zipf S]
             [--duration-s D] [--conns N] [--ingest-every N]
             [--word-pool N | --words a,b,c] [--seed N] [--queue-depth N]
  ipm ingest  --addr <host:port> --text <tokens> [--facets k:v,k:v]
  ipm delete  --addr <host:port> --doc N
  ipm compact --addr <host:port>
  ipm repl   [--input <file>] [--k N] [--filter-redundant true]
  ipm stats  --input <file> | --addr <host:port> --metrics true
  ipm demo   <query string> [--k N]
  ipm lint   [--root <dir>] [--list-rules] [--fix-allow <rule> [--dry-run]]
  ipm bench-check [--root <dir>] | --baseline <file> --fresh <file>

query strings: terms joined by AND or OR (one operator per query);
key:value terms are metadata facets. Bare terms default to AND.
--shards N partitions every word list by phrase-id range and runs each
query over the N partitions in parallel (exact merge; see
docs/architecture.md). --deadline-ms / --io-budget bound a query's cost:
a tripped budget returns the anytime result marked `truncated` (server
side, queue wait counts against the deadline and dead-on-arrival
requests get a structured deadline_exceeded error). repl reads one query
per stdin line; repl and serve fall back to the synthetic demo corpus
without --input. serve speaks the line-delimited JSON protocol
documented in docs/protocol.md. ingest/delete/compact drive the index
lifecycle over the wire (protocol v3): ingested documents correct
queries sent with --use-delta true immediately, and compact flushes them
into a full offline rebuild behind an atomic swap. --trace true returns a
per-stage execution trace with the response; stats --metrics true scrapes
a serving process's Prometheus-text metrics (protocol v4); serve
--slow-query-ms N keeps a ring of traces for queries slower than N ms.
route (also: serve --router true) scatters each query across a tier of
serve processes speaking wire-v5 shard_exec — one --shard-addr per
shard, commas separating a shard's replicas — gathers the per-shard
top-k, and merges bit-identically to local sharded execution; replicas
beyond the first serve hedged requests (fired after an adaptive
per-shard p95 delay; --no-hedge true disables) and failover, and an
unreachable shard degrades the answer to an honest approximate result
instead of an error. serve --fault-delay-ms N injects a fixed service
delay into shard_exec (a test/bench knob for the slow-replica case).
client --batch-query sends all given queries as ONE wire batch (one
admission slot, fused shared-scan execution server-side, per-item
results printed as JSON). client --open-loop true drives an open-loop
zipfian workload: arrivals on a fixed --rate schedule regardless of
completions (no coordinated omission), two-word OR queries drawn
Zipf(--zipf)-distributed from the word pool, every --ingest-every'th
operation a wire ingest; reports p50/p95/p99 from scheduled arrival to
completion plus shed and client queue-wait. bench-check with --baseline
and --fresh compares two bench artifacts field-by-field and fails on
any latency field (p95s and batch totals) regressing more than 20%
(plus 500 µs jitter slack).";

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "index" => cmd_index(rest),
        "query" => cmd_query(rest),
        "serve" => cmd_serve(rest),
        "route" => cmd_route(rest),
        "client" => cmd_client(rest),
        "ingest" => cmd_ingest(rest),
        "delete" => cmd_delete(rest),
        "compact" => cmd_compact(rest),
        "repl" => cmd_repl(rest),
        "stats" => cmd_stats(rest),
        "demo" => cmd_demo(rest),
        "lint" => cmd_lint(rest),
        "bench-check" => cmd_bench_check(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand: {other}")),
    }
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Flags {
    named: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut named = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let val = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                named.push((key.to_owned(), val.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { named, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Every value given for a repeatable flag, in command-line order
    /// (`--shard-addr a --shard-addr b`).
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.named
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

fn load_corpus(path: &str) -> Result<Corpus, String> {
    let tokenizer = TokenizerConfig::default();
    let corpus = if path.ends_with(".jsonl") || path.ends_with(".ndjson") {
        ipm_corpus::loader::load_jsonl(path, tokenizer)
    } else {
        ipm_corpus::loader::load_lines(path, tokenizer)
    }
    .map_err(|e| format!("cannot load {path}: {e}"))?;
    if corpus.is_empty() {
        return Err(format!("{path} contains no documents"));
    }
    Ok(corpus)
}

fn build_miner(corpus: &Corpus, flags: &Flags) -> Result<PhraseMiner, String> {
    let min_df: u32 = flags.get_parsed("min-df", 5)?;
    let max_len: usize = flags.get_parsed("max-len", 6)?;
    let config = MinerConfig {
        index: ipm_index::corpus_index::IndexConfig {
            mining: ipm_index::mining::MiningConfig {
                min_df,
                max_len,
                min_len: 1,
            },
        },
        ..Default::default()
    };
    eprintln!(
        "indexing {} documents (min-df {min_df}, n-grams ≤ {max_len})...",
        corpus.num_docs()
    );
    Ok(PhraseMiner::build(corpus, config))
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let input = flags.get("input").ok_or("index needs --input")?;
    let out = flags.get("out").ok_or("index needs --out")?;
    let fraction: f64 = flags.get_parsed("fraction", 1.0)?;
    let shards: usize = flags.get_parsed("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }

    let corpus = load_corpus(input)?;
    let miner = build_miner(&corpus, &flags)?;

    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let lists = if fraction < 1.0 {
        miner.lists().partial(fraction)
    } else {
        miner.lists().clone()
    };
    // One word-list file per phrase-id shard (`--shards 1` keeps the
    // classic single-file layout), plus one shared phrase file.
    let mut wl_paths: Vec<String> = Vec::new();
    if shards == 1 {
        let word_file = ipm_storage::WordListFile::build(&lists);
        let wl_path = format!("{out}/wordlists.ipw");
        persist::save_word_lists(&word_file, &wl_path).map_err(|e| e.to_string())?;
        println!(
            "wrote {wl_path} ({} entries, {} bytes)",
            word_file.total_entries(),
            word_file.len_bytes()
        );
        wl_paths.push(wl_path);
    } else {
        let id_lists = ipm_index::IdOrderedLists::from_score_ordered(&lists);
        let sharded =
            ipm_index::ShardedWordLists::build(&lists, &id_lists, miner.index().dict.len(), shards);
        for (i, shard) in sharded.shards().iter().enumerate() {
            let word_file = ipm_storage::WordListFile::build(shard.lists());
            let wl_path = format!("{out}/wordlists.shard{i}.ipw");
            persist::save_word_lists(&word_file, &wl_path).map_err(|e| e.to_string())?;
            let (lo, hi) = shard.range();
            println!(
                "wrote {wl_path} (phrases [{}, {}), {} entries, {} bytes)",
                lo.raw(),
                hi.raw(),
                word_file.total_entries(),
                word_file.len_bytes()
            );
            wl_paths.push(wl_path);
        }
    }
    let phrase_file = ipm_storage::PhraseListFile::build(miner.corpus(), &miner.index().dict);
    let pl_path = format!("{out}/phrases.ipp");
    persist::save_phrase_list(&phrase_file, &pl_path).map_err(|e| e.to_string())?;
    println!(
        "wrote {pl_path} ({} phrases, {} bytes)",
        phrase_file.num_phrases(),
        phrase_file.len_bytes()
    );
    // Verify the files read back cleanly (checksums) before declaring success.
    for wl_path in &wl_paths {
        persist::load_word_lists(wl_path).map_err(|e| format!("verification failed: {e}"))?;
    }
    persist::load_phrase_list(&pl_path).map_err(|e| format!("verification failed: {e}"))?;
    println!("verified: all files load with valid checksums");
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let input = flags.get("input").ok_or("query needs --input")?;
    let query_str = flags
        .positional
        .first()
        .ok_or("query needs a query string")?;
    let k: usize = flags.get_parsed("k", 5)?;
    let method = flags.get("method").unwrap_or("nra");
    let fraction: f64 = flags.get_parsed("fraction", 1.0)?;
    let shards: usize = flags.get_parsed("shards", 0)?;
    let json: bool = flags.get_parsed("json", false)?;
    let budget = budget_flags(&flags)?;

    let backend = flags.get("backend").unwrap_or("memory");

    let corpus = load_corpus(input)?;
    let miner = build_miner(&corpus, &flags)?;
    let query = miner
        .parse_query_str(query_str)
        .map_err(|e| e.to_string())?;
    let engine = QueryEngine::new(miner);
    if json {
        let options = search_options(method, backend, fraction, shards)?;
        let resp = run_request(&engine, query, k, options, budget)?;
        // The exact wire shape the server's `result` field carries: CLI
        // and protocol stay one schema.
        let value = wire::response_value(&resp, engine.miner().corpus());
        println!(
            "{}",
            serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    run_engine_and_print(&engine, query, k, method, backend, fraction, shards, budget)
}

/// Budget knobs shared by `query` and `client`.
#[derive(Debug, Clone, Copy, Default)]
struct BudgetFlags {
    deadline_ms: Option<u64>,
    io_budget: Option<u64>,
}

fn budget_flags(flags: &Flags) -> Result<BudgetFlags, String> {
    Ok(BudgetFlags {
        deadline_ms: match flags.get("deadline-ms") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --deadline-ms: {v}"))?,
            ),
        },
        io_budget: match flags.get("io-budget") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value for --io-budget: {v}"))?,
            ),
        },
    })
}

/// Runs one query through the builder API with the CLI's budget flags.
fn run_request(
    engine: &QueryEngine,
    query: Query,
    k: usize,
    options: SearchOptions,
    budget: BudgetFlags,
) -> Result<SearchResponse, String> {
    let mut request = engine.request_query(query).k(k).options(options);
    if let Some(ms) = budget.deadline_ms {
        request = request.deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(cap) = budget.io_budget {
        request = request.io_budget(cap);
    }
    request.run().map_err(|e| match e {
        SearchError::Parse(p) => p.to_string(),
        SearchError::DeadlineExceeded => {
            "deadline_exceeded: the deadline passed before execution started".to_owned()
        }
        SearchError::Cancelled => "cancelled".to_owned(),
    })
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let query_str = flags
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("w1 OR w2");
    let k: usize = flags.get_parsed("k", 5)?;

    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let miner = PhraseMiner::build(&corpus, MinerConfig::default());
    let query = miner
        .parse_query_str(query_str)
        .map_err(|e| e.to_string())?;
    println!(
        "demo corpus: {} docs; query: {}",
        corpus.num_docs(),
        query.render(miner.corpus())
    );
    let engine = QueryEngine::new(miner);
    for backend in ["memory", "disk", "block"] {
        for method in ["exact", "smj", "nra", "ta"] {
            println!("\n[{method} @ {backend}]");
            run_engine_and_print(
                &engine,
                query.clone(),
                k,
                method,
                backend,
                1.0,
                0,
                BudgetFlags::default(),
            )?;
        }
    }
    // The same query fanned across 4 phrase-id shards returns the same
    // answer (exact merge; on a multi-core box also faster).
    println!("\n[nra @ memory, 4 shards]");
    run_engine_and_print(
        &engine,
        query.clone(),
        k,
        "nra",
        "memory",
        1.0,
        4,
        BudgetFlags::default(),
    )?;
    // A repeated request is answered from the result cache.
    let start = std::time::Instant::now();
    let resp = engine
        .request_query(query)
        .k(k)
        .run()
        .map_err(|e| e.to_string())?;
    let stats = engine.cache_stats();
    println!(
        "\nrepeat of [nra @ memory]: served_from_cache = {} in {:.3} ms \
         (cache: {} hits / {} misses)",
        resp.served_from_cache,
        start.elapsed().as_secs_f64() * 1e3,
        stats.hits,
        stats.misses,
    );
    Ok(())
}

/// Builds [`SearchOptions`] from CLI method/backend/fraction/shards values
/// (the wire crate owns the name tables, so CLI and protocol agree;
/// `shards == 0` means "engine default").
fn search_options(
    method: &str,
    backend: &str,
    fraction: f64,
    shards: usize,
) -> Result<SearchOptions, String> {
    Ok(SearchOptions {
        algorithm: wire::algorithm_from_str(method)?,
        backend: wire::backend_from_str(backend)?,
        nra_fraction: (fraction < 1.0).then_some(fraction),
        shards: (shards > 0).then_some(shards),
        ..Default::default()
    })
}

/// Serves one query through the unified engine and prints the hits, the
/// latency, the resolved shard fanout, the cache status, the completeness
/// marker, and (for the disk and block backends) the simulated IO bill.
#[allow(clippy::too_many_arguments)]
fn run_engine_and_print(
    engine: &QueryEngine,
    query: Query,
    k: usize,
    method: &str,
    backend: &str,
    fraction: f64,
    shards: usize,
    budget: BudgetFlags,
) -> Result<(), String> {
    let options = search_options(method, backend, fraction, shards)?;
    let resp = run_request(engine, query, k, options, budget)?;
    if resp.hits.is_empty() {
        println!("(no phrases match)");
    }
    for (i, h) in resp.hits.iter().enumerate() {
        println!(
            "{:>2}. {:<40} score {:>9.4}  I≈{:.3}",
            i + 1,
            h.text,
            h.hit.score,
            h.interestingness
        );
    }
    let ms = resp.elapsed.as_secs_f64() * 1000.0;
    let cache = if resp.served_from_cache {
        "cache hit"
    } else {
        "cache miss"
    };
    let summary = format!(
        "{method} @ {backend}, {} shard{}, {}, {cache}",
        resp.shards,
        if resp.shards == 1 { "" } else { "s" },
        resp.completeness,
    );
    match resp.io {
        Some(io) => println!(
            "({summary}, {ms:.2} ms compute + {:.1} ms simulated IO: {} seq / {} rand fetches)",
            io.io_ms(engine.disk().cost_model()),
            io.sequential_fetches,
            io.random_fetches,
        ),
        None => println!("({summary}, {ms:.2} ms)"),
    }
    Ok(())
}

/// Loads `--input` or falls back to the synthetic demo corpus, and builds
/// the miner (shared by `repl` and `serve`).
fn miner_from_flags(flags: &Flags) -> Result<PhraseMiner, String> {
    let corpus = match flags.get("input") {
        Some(path) => load_corpus(path)?,
        None => {
            eprintln!("no --input: serving the synthetic demo corpus");
            ipm_corpus::synth::generate(&ipm_corpus::synth::tiny()).0
        }
    };
    match flags.get("input") {
        Some(_) => build_miner(&corpus, flags),
        None => Ok(PhraseMiner::build(&corpus, MinerConfig::default())),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if flags.get_parsed("router", false)? {
        return cmd_route(args);
    }
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port: u16 = flags.get_parsed("port", 7341)?;
    let workers: usize = flags.get_parsed("workers", 4)?;
    let queue_depth: usize = flags.get_parsed("queue-depth", 64)?;
    let cache: bool = flags.get_parsed("cache", true)?;
    let shards: usize = flags.get_parsed("shards", 1)?;
    let slow_query_ms: u64 = flags.get_parsed("slow-query-ms", 0)?;
    let fault_delay_ms: u64 = flags.get_parsed("fault-delay-ms", 0)?;

    let miner = miner_from_flags(&flags)?;
    let engine = QueryEngine::with_config(
        miner,
        ipm_core::EngineConfig {
            cache: cache.then(Default::default),
            shards: shards.max(1),
            slow_query: (slow_query_ms > 0).then(|| SlowQueryConfig {
                threshold: std::time::Duration::from_millis(slow_query_ms),
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let handle = Server::spawn(
        engine.clone(),
        ServerConfig {
            addr: format!("{host}:{port}"),
            workers,
            queue_depth,
            fault_delay_ms,
        },
    )
    .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
    println!(
        "listening on {} ({workers} workers, queue depth {queue_depth}, cache {}, \
         default shard fanout {})",
        handle.addr(),
        if cache { "on" } else { "off" },
        engine.default_shards(),
    );
    eprintln!(
        "protocol: one JSON object per line (docs/protocol.md); \
         send {{\"cmd\":\"shutdown\"}} to stop"
    );
    // Blocks until a client sends the shutdown verb, then drains.
    handle.join();
    let cache_stats = engine.cache_stats();
    println!(
        "server drained and stopped: {} queries served ({} cache hits / {} misses)",
        engine.queries_served(),
        cache_stats.hits,
        cache_stats.misses,
    );
    Ok(())
}

/// `ipm route` (also `ipm serve --router true`): the scatter-gather
/// coordinator over a tier of `ipm serve` shard servers. Each
/// `--shard-addr` names one shard's replica set (comma-separated; the
/// first replica is the primary, the rest serve hedges and failover);
/// the scatter fanout is the number of `--shard-addr` flags. The router
/// must be built from the same corpus (--input/--min-df/--max-len) as
/// the shard tier — it derives each shard's phrase-id range locally and
/// the shards reject a mismatched partition loudly.
fn cmd_route(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let host = flags.get("host").unwrap_or("127.0.0.1");
    let port: u16 = flags.get_parsed("port", 7340)?;
    let no_hedge: bool = flags.get_parsed("no-hedge", false)?;
    let hedge_delay_ms: u64 = flags.get_parsed("hedge-delay-ms", 25)?;
    let rpc_timeout_ms: u64 = flags.get_parsed("rpc-timeout-ms", 5_000)?;
    let shard_flags = flags.get_all("shard-addr");
    if shard_flags.is_empty() {
        return Err("route needs at least one --shard-addr <addr[,replica...]>".into());
    }
    let shards: Vec<Vec<String>> = shard_flags
        .iter()
        .map(|spec| {
            spec.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .collect();
    if shards.iter().any(Vec::is_empty) {
        return Err("every --shard-addr needs at least one replica address".into());
    }

    let miner = miner_from_flags(&flags)?;
    let engine = QueryEngine::with_config(
        miner,
        ipm_core::EngineConfig {
            cache: None, // routed responses are never cached
            ..Default::default()
        },
    );
    let fanout = shards.len();
    let replicas: usize = shards.iter().map(Vec::len).sum();
    let handle = ipm_server::Router::spawn(
        engine.clone(),
        ipm_server::RouterConfig {
            addr: format!("{host}:{port}"),
            shards,
            hedge: ipm_server::HedgeConfig {
                enabled: !no_hedge,
                initial_delay: std::time::Duration::from_millis(hedge_delay_ms),
                ..Default::default()
            },
            rpc_timeout: std::time::Duration::from_millis(rpc_timeout_ms.max(1)),
        },
    )
    .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
    println!(
        "routing on {} ({fanout} shards, {replicas} replicas, hedging {})",
        handle.addr(),
        if no_hedge { "off" } else { "on" },
    );
    eprintln!(
        "protocol: one JSON object per line (docs/protocol.md); \
         send {{\"cmd\":\"shutdown\"}} to stop"
    );
    // Blocks until a client sends the shutdown verb, then drains.
    handle.join();
    println!(
        "router drained and stopped: {} routed queries served",
        engine.queries_served(),
    );
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let addr = flags.get("addr").ok_or("client needs --addr <host:port>")?;
    let connect = || {
        Client::connect_with_retries(addr, 25, std::time::Duration::from_millis(200))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))
    };

    if flags.get_parsed("stats", false)? {
        let stats = connect()?.stats().map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if flags.get_parsed("shutdown", false)? {
        connect()?.shutdown_server().map_err(|e| e.to_string())?;
        println!("server acknowledged shutdown");
        return Ok(());
    }

    // Shared request template: the query string (positional, batch item,
    // or open-loop sample) is filled in per mode below.
    let mut request = WireSearchRequest::new(String::new());
    request.k = flags.get_parsed("k", 5)?;
    request.algorithm = wire::algorithm_from_str(flags.get("method").unwrap_or("nra"))?;
    request.backend = wire::backend_from_str(flags.get("backend").unwrap_or("memory"))?;
    let fraction: f64 = flags.get_parsed("fraction", 1.0)?;
    request.nra_fraction = (fraction < 1.0).then_some(fraction);
    let shards: usize = flags.get_parsed("shards", 0)?;
    request.shards = (shards > 0).then_some(shards);
    request.delay_ms = flags.get_parsed("delay-ms", 0)?;
    request.use_delta = flags.get_parsed("use-delta", false)?;
    request.trace = flags.get_parsed("trace", false)?;
    let budget = budget_flags(&flags)?;
    request.deadline_ms = budget.deadline_ms;
    request.io_budget = budget.io_budget;

    if flags.get_parsed("open-loop", false)? {
        let word_pool = match flags.get("words") {
            // Explicit pool, hottest first.
            Some(list) => list.split(',').map(str::to_owned).collect(),
            // Default: the synthetic corpus vocabulary `w0..` — rank
            // order matches document frequency there, so the zipfian
            // sampler concentrates on genuinely hot lists.
            None => {
                let n: usize = flags.get_parsed("word-pool", 64)?;
                (0..n.max(1)).map(|i| format!("w{i}")).collect()
            }
        };
        let config = ipm_server::OpenLoopConfig {
            rate: flags.get_parsed("rate", 200.0)?,
            duration: std::time::Duration::from_secs_f64(flags.get_parsed("duration-s", 5.0)?),
            zipf_s: flags.get_parsed("zipf", 1.1)?,
            conns: flags.get_parsed("conns", 4)?,
            ingest_every: flags.get_parsed("ingest-every", 0)?,
            word_pool,
            template: request,
            queue_depth: flags.get_parsed("queue-depth", 512)?,
            seed: flags.get_parsed("seed", 42)?,
        };
        let report = ipm_server::run_open_loop(addr, &config).map_err(|e| e.to_string())?;
        println!("{report}");
        if report.errors > 0 {
            return Err(format!(
                "{} protocol errors during open-loop run",
                report.errors
            ));
        }
        return Ok(());
    }

    let batch_queries = flags.get_all("batch-query");
    if !batch_queries.is_empty() {
        let reqs: Vec<WireSearchRequest> = batch_queries
            .iter()
            .map(|q| {
                let mut r = request.clone();
                r.query = (*q).to_owned();
                r
            })
            .collect();
        let response = connect()?.search_batch(&reqs).map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?
        );
        return match response["ok"].as_bool() {
            Some(true) => Ok(()),
            _ => Err("batch request failed".into()),
        };
    }

    let query = flags.positional.first().ok_or(
        "client needs a query string (or --stats/--shutdown/--open-loop true, --batch-query)",
    )?;
    request.query = query.clone();

    if let Some(threads) = flags.get("load-threads") {
        let threads: usize = threads
            .parse()
            .map_err(|_| format!("invalid value for --load-threads: {threads}"))?;
        let requests: usize = flags.get_parsed("load-requests", 20)?;
        let report = run_load(addr, threads, requests, &request).map_err(|e| e.to_string())?;
        println!("{report}");
        if report.errors > 0 {
            return Err(format!("{} protocol errors during load run", report.errors));
        }
        return Ok(());
    }

    let response = connect()?.search(&request).map_err(|e| e.to_string())?;
    if flags.get_parsed("json", false)? {
        println!(
            "{}",
            serde_json::to_string_pretty(&response).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if response["ok"] == true {
        let hits = response["result"]["hits"]
            .as_array()
            .cloned()
            .unwrap_or_default();
        if hits.is_empty() {
            println!("(no phrases match)");
        }
        for (i, h) in hits.iter().enumerate() {
            println!(
                "{:>2}. {:<40} score {:>9.4}  I≈{:.3}",
                i + 1,
                h["text"].as_str().unwrap_or("?"),
                h["score"].as_f64().unwrap_or(f64::NAN),
                h["interestingness"].as_f64().unwrap_or(f64::NAN),
            );
        }
        println!(
            "({:.2} ms engine, {:.2} ms at server, {} shards, {}, cached = {}, coalesced = {})",
            response["result"]["elapsed_us"].as_f64().unwrap_or(0.0) / 1e3,
            response["server"]["wait_us"].as_f64().unwrap_or(0.0) / 1e3,
            response["result"]["shards"].as_u64().unwrap_or(1),
            response["result"]["completeness"]["kind"]
                .as_str()
                .unwrap_or("?"),
            response["result"]["served_from_cache"] == true,
            response["server"]["coalesced"] == true,
        );
        if let Some(stages) = response["result"]["trace"]["stages"].as_array() {
            for s in stages {
                println!(
                    "  trace: {:<12} +{:>7} µs  {:>7} µs{}",
                    s["stage"].as_str().unwrap_or("?"),
                    s["started_us"].as_u64().unwrap_or(0),
                    s["duration_us"].as_u64().unwrap_or(0),
                    s["shard"]
                        .as_u64()
                        .map(|i| format!("  shard {i}"))
                        .unwrap_or_default(),
                );
            }
        }
        Ok(())
    } else {
        Err(format!(
            "server error [{}]: {}",
            response["error"]["kind"].as_str().unwrap_or("?"),
            response["error"]["message"].as_str().unwrap_or("?"),
        ))
    }
}

/// Connects to `--addr` with the standard retry policy (shared by the
/// lifecycle subcommands).
fn lifecycle_client(flags: &Flags, what: &str) -> Result<Client, String> {
    let addr = flags
        .get("addr")
        .ok_or_else(|| format!("{what} needs --addr <host:port>"))?;
    Client::connect_with_retries(addr, 25, std::time::Duration::from_millis(200))
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Prints a server reply as pretty JSON, mapping `ok: false` to a CLI
/// error.
fn print_reply(reply: serde_json::Value) -> Result<(), String> {
    if reply["ok"] == true {
        println!(
            "{}",
            serde_json::to_string_pretty(&reply).map_err(|e| e.to_string())?
        );
        Ok(())
    } else {
        Err(format!(
            "server error [{}]: {}",
            reply["error"]["kind"].as_str().unwrap_or("?"),
            reply["error"]["message"].as_str().unwrap_or("?"),
        ))
    }
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let text = flags
        .get("text")
        .map(str::to_owned)
        .or_else(|| flags.positional.first().cloned())
        .ok_or("ingest needs --text \"tokens ...\" (or a positional text argument)")?;
    let tokens: Vec<String> = text.split_whitespace().map(str::to_owned).collect();
    if tokens.is_empty() {
        return Err("ingest needs at least one token".into());
    }
    let facets: Vec<String> = flags
        .get("facets")
        .map(|f| {
            f.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default();
    let reply = lifecycle_client(&flags, "ingest")?
        .ingest(&tokens, &facets)
        .map_err(|e| e.to_string())?;
    print_reply(reply)
}

fn cmd_delete(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let doc: u64 = match flags.get("doc") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --doc: {v}"))?,
        None => return Err("delete needs --doc N".into()),
    };
    let reply = lifecycle_client(&flags, "delete")?
        .delete_doc(doc)
        .map_err(|e| e.to_string())?;
    print_reply(reply)
}

fn cmd_compact(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let reply = lifecycle_client(&flags, "compact")?
        .compact()
        .map_err(|e| e.to_string())?;
    print_reply(reply)
}

fn cmd_repl(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, Write};

    let flags = Flags::parse(args)?;
    let k: usize = flags.get_parsed("k", 5)?;
    let filter: bool = flags.get_parsed("filter-redundant", false)?;

    let miner = miner_from_flags(&flags)?;
    let engine = QueryEngine::new(miner);
    let options = SearchOptions {
        redundancy: filter.then(RedundancyConfig::default),
        ..Default::default()
    };
    eprintln!(
        "ready: {} docs, {} phrases. One query per line (ctrl-d to exit).",
        engine.miner().corpus().num_docs(),
        engine.miner().index().dict.len()
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    let prompt = || {
        eprint!("ipm> ");
        let _ = std::io::stderr().flush();
    };
    prompt();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
        let input = line.trim();
        if input.is_empty() {
            prompt();
            continue;
        }
        if input == "quit" || input == "exit" {
            break;
        }
        match engine.search_with(input, k, &options) {
            Ok(resp) => {
                for (i, h) in resp.hits.iter().enumerate() {
                    writeln!(
                        out,
                        "{:>2}. {:<40} I≈{:.3}",
                        i + 1,
                        h.text,
                        h.interestingness
                    )
                    .map_err(|e| e.to_string())?;
                }
                writeln!(
                    out,
                    "({} hits, {:.2} ms)",
                    resp.hits.len(),
                    resp.elapsed.as_secs_f64() * 1e3
                )
                .map_err(|e| e.to_string())?;
            }
            Err(e) => eprintln!("error: {e}"),
        }
        prompt();
    }
    eprintln!("served {} queries", engine.queries_served());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    if flags.get_parsed("metrics", false)? {
        let addr = flags
            .get("addr")
            .ok_or("stats --metrics true needs --addr <host:port>")?;
        let text = Client::connect_with_retries(addr, 25, std::time::Duration::from_millis(200))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?
            .metrics()
            .map_err(|e| e.to_string())?;
        // Guard the scrape before printing: a malformed exposition should
        // fail loudly here, not downstream in a collector.
        validate_exposition(&text).map_err(|e| format!("invalid metrics exposition: {e}"))?;
        print!("{text}");
        return Ok(());
    }
    let input = flags.get("input").ok_or("stats needs --input")?;
    let corpus = load_corpus(input)?;
    let stats = ipm_corpus::stats::CorpusStats::compute(&corpus);
    println!("documents:            {}", stats.num_docs);
    println!("vocabulary:           {}", stats.vocab_size);
    println!("facet values:         {}", stats.num_facets);
    println!("total tokens:         {}", stats.total_tokens);
    println!("mean doc length:      {:.1}", stats.mean_doc_len);
    println!("max doc length:       {}", stats.max_doc_len);
    println!("mean distinct words:  {:.1}", stats.mean_distinct_words);
    println!(
        "zipf slope:           {:.2}",
        ipm_corpus::stats::zipf_slope(&corpus)
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    if ipm_check::lint::cli(args)? {
        Ok(())
    } else {
        Err(
            "lint found violations (see above; allow with a reasoned `// lint-allow:` or fix)"
                .into(),
        )
    }
}

/// Recursively collects every numeric field whose key contains `p95`,
/// labelled by its JSON path (`rows[3].fused.p95_us`).
fn collect_p95_fields(value: &serde_json::Value, path: &str, out: &mut Vec<(String, f64)>) {
    match value {
        serde_json::Value::Object(map) => {
            for (k, v) in map {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                // p95 latencies, plus the batch artifact's headline
                // aggregate (its per-run latency-like figure).
                if k.contains("p95") || k == "fused_total_us" {
                    if let Some(n) = v.as_f64() {
                        out.push((child.clone(), n));
                        continue;
                    }
                }
                collect_p95_fields(v, &child, out);
            }
        }
        serde_json::Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_p95_fields(v, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Trajectory mode: compares a fresh bench artifact against the
/// committed baseline and fails on any tracked latency field (p95s,
/// plus the batch bench's fused totals) regressing by more than 20%.
/// Schema drift (a field present in one file but not the other) also
/// fails — a silently vanished measurement is not a pass.
fn bench_check_trajectory(baseline_path: &str, fresh_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: bad JSON: {e}"))
    };
    let baseline = load(baseline_path)?;
    let fresh = load(fresh_path)?;
    let mut base_fields = Vec::new();
    let mut fresh_fields = Vec::new();
    collect_p95_fields(&baseline, "", &mut base_fields);
    collect_p95_fields(&fresh, "", &mut fresh_fields);
    if base_fields.is_empty() {
        return Err(format!("{baseline_path}: no latency fields to compare"));
    }
    let fresh_map: std::collections::HashMap<&str, f64> =
        fresh_fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut regressions = Vec::new();
    for (path, base) in &base_fields {
        let Some(now) = fresh_map.get(path.as_str()) else {
            return Err(format!("{fresh_path}: latency field `{path}` disappeared"));
        };
        // 20% relative plus a small absolute slack: the artifact fields
        // are microseconds, and CI reruns the benches at reduced sample
        // counts where a sub-millisecond wobble is pure scheduler noise.
        let limit = base * 1.20 + 500.0;
        let verdict = if *now > limit {
            regressions.push(path.clone());
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{path}: baseline={base:.1} fresh={now:.1} limit={limit:.1} {verdict}");
    }
    if regressions.is_empty() {
        println!(
            "trajectory: {} latency fields within 20% of baseline",
            base_fields.len()
        );
        Ok(())
    } else {
        Err(format!(
            "latency regression beyond 20%: {}",
            regressions.join(", ")
        ))
    }
}

/// Validates the committed `BENCH_*.json` artifacts against the same
/// schema checks the benches enforce before every write — one command
/// replacing CI's per-artifact python one-liners, runnable locally.
/// With `--baseline <file> --fresh <file>` it instead runs trajectory
/// mode: every p95 field of the fresh artifact must stay within 20% of
/// the committed baseline.
fn cmd_bench_check(args: &[String]) -> Result<(), String> {
    type Validator = fn(&serde_json::Value) -> Result<(), String>;
    let flags = Flags::parse(args)?;
    match (flags.get("baseline"), flags.get("fresh")) {
        (Some(baseline), Some(fresh)) => return bench_check_trajectory(baseline, fresh),
        (None, None) => {}
        _ => return Err("trajectory mode needs both --baseline and --fresh".into()),
    }
    let root = std::path::PathBuf::from(flags.get("root").unwrap_or("."));
    let artifacts: [(&str, Validator); 4] = [
        ("BENCH_blocklists.json", ipm_bench::blockbench::validate),
        ("BENCH_serving.json", ipm_bench::servingbench::validate),
        ("BENCH_router.json", ipm_bench::routerbench::validate),
        ("BENCH_batch.json", ipm_bench::batchbench::validate),
    ];
    for (name, validate) in artifacts {
        let path = root.join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = serde_json::from_str(&text).map_err(|e| format!("{name}: bad JSON: {e}"))?;
        validate(&value).map_err(|e| format!("{name}: {e}"))?;
        println!("{name}: ok");
    }
    Ok(())
}
