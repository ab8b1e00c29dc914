//! The four workloads: what each sends, at which frozen rate, and why.
//!
//! A workload is a deterministic sequence of wire lines generated from
//! `--seed` against the fixed corpus. The load phases walk the sequence
//! cyclically; the verify pass checks every distinct search it contains.

use ipm_core::{Algorithm, BackendChoice, PhraseMiner};
use ipm_corpus::synth::Zipf;
use ipm_eval::queryset::{harvest_queries, QuerySetConfig};
use ipm_server::{wire, SearchRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result size of every search in every workload.
pub const K: usize = 5;
/// Harvested queries per seed.
pub const QUERIES: usize = 300;
/// Queries per `hot_live` wire batch.
pub const BATCH: usize = 16;
/// Every `INGEST_EVERY`-th `hot_live` wire line is an ingest.
pub const INGEST_EVERY: usize = 8;
/// Tokens per ingested document.
pub const INGEST_TOKENS: usize = 6;
/// `hot_live` draws query words from this many highest-df words.
pub const HOT_WORDS: usize = 16;
/// Zipf exponent of the `hot_live` word draws.
pub const HOT_ZIPF_S: f64 = 1.1;
/// Length of the pre-generated `hot_live` line sequence (walked
/// cyclically; long enough that a run never wraps at the frozen rate).
const HOT_LINES: usize = 2048;

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    /// Open-loop wire lines per second, frozen at about a quarter of the
    /// closed-loop capacity the seed commit showed on the 2-core box
    /// (see the README's "How rates were frozen").
    pub rate: f64,
    /// Open-loop connections (one thread each).
    pub open_conns: usize,
    /// Closed-loop connections (one thread each).
    pub closed_conns: usize,
    /// Default `EngineConfig` (result cache and decode cache on) instead
    /// of the cache-less one.
    pub caches: bool,
    /// Needs the simulated disk image.
    pub disk: bool,
    /// Needs the block-compressed image.
    pub block: bool,
    /// Served through a `Router` over two shard servers.
    pub routed: bool,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "serve_nra",
        why: "NRA on memory lists, cache off: a 0.3 ms round trip, 85% of it the engine run, so engine-spine and serving-path changes show; block and disk kernels should not move it.",
        rate: 1200.0,
        open_conns: 2,
        closed_conns: 2,
        caches: false,
        disk: false,
        block: false,
        routed: false,
    },
    Spec {
        name: "scan_lists",
        why: "SMJ on block, SMJ on disk and exact, cache off: list access, decode and aggregation are over 90% of each round trip and the images exceed the 16x32 KiB pool; wire work should not move it.",
        rate: 350.0,
        open_conns: 2,
        closed_conns: 2,
        caches: false,
        disk: true,
        block: true,
        routed: false,
    },
    Spec {
        name: "hot_live",
        why: "Zipf two-word OR batches of 16 with every 8th line an ingest, both caches on and fitting: the only workload on the fused scan, both LRUs, epoch invalidation and the write path.",
        rate: 80.0,
        open_conns: 2,
        closed_conns: 1,
        caches: true,
        disk: false,
        block: true,
        routed: false,
    },
    Spec {
        name: "routed_nra",
        why: "The serve_nra lines through a Router over two shard servers (fanout 2, default hedging): same engine layer plus scatter, RPC and merge, so routed minus served is the router's cost.",
        rate: 450.0,
        open_conns: 2,
        closed_conns: 1,
        caches: false,
        disk: false,
        block: false,
        routed: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One wire line of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The newline-terminated request line.
    pub line: String,
    /// Searches the line carries (`0` for an ingest, [`BATCH`] for a
    /// batch): what a successful answer adds to `throughput_qps`.
    pub searches: usize,
}

impl Op {
    pub fn is_write(&self) -> bool {
        self.searches == 0
    }
}

/// A generated workload: the line sequence plus its distinct searches.
#[derive(Debug, Clone)]
pub struct Workload {
    pub spec: &'static Spec,
    pub ops: Vec<Op>,
    /// Every distinct search request among `ops`, in first-use order.
    pub distinct: Vec<SearchRequest>,
}

fn search(query: String, algorithm: Algorithm, backend: BackendChoice) -> SearchRequest {
    let mut req = SearchRequest::new(query);
    req.k = K;
    req.algorithm = algorithm;
    req.backend = backend;
    req
}

/// The harvested 2–6-word query strings, alternating AND and OR: the
/// paper's §5.1 Reuters shape (2% six-word, 2% five-word, the rest two to
/// four) at three times its 100 queries, because which hundred phrases a
/// seed happens to draw moved `scan_lists` latency by 10% between seeds.
fn harvested(miner: &PhraseMiner, seed: u64) -> Vec<String> {
    let config = QuerySetConfig {
        seed,
        count: QUERIES,
        fixed_lengths: vec![(6, QUERIES / 50), (5, QUERIES / 50)],
        ..QuerySetConfig::reuters()
    };
    let words = miner.corpus().words();
    harvest_queries(miner.index(), &config)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let terms: Vec<&str> = q.iter().map(|&w| words.term_unchecked(w)).collect();
            terms.join(if i % 2 == 0 { " AND " } else { " OR " })
        })
        .collect()
}

/// The `HOT_WORDS` highest-df terms, hottest first.
pub fn hot_words(miner: &PhraseMiner) -> Vec<String> {
    let corpus = miner.corpus();
    ipm_corpus::stats::top_words_by_df(corpus, HOT_WORDS)
        .iter()
        .map(|&(w, _)| corpus.words().term_unchecked(w).to_owned())
        .collect()
}

impl Workload {
    /// Generates `spec`'s line sequence for `seed` against `miner`'s
    /// corpus. Same seed and corpus, same sequence.
    pub fn generate(spec: &'static Spec, miner: &PhraseMiner, seed: u64) -> Self {
        let (ops, distinct) = match spec.name {
            "serve_nra" | "routed_nra" => {
                let reqs: Vec<SearchRequest> = harvested(miner, seed)
                    .into_iter()
                    .map(|q| search(q, Algorithm::Nra, BackendChoice::Memory))
                    .collect();
                (single_ops(&reqs), dedup(&reqs))
            }
            "scan_lists" => {
                let variants = [
                    (Algorithm::Smj, BackendChoice::Block),
                    (Algorithm::Smj, BackendChoice::Disk),
                    (Algorithm::Exact, BackendChoice::Memory),
                ];
                let queries = harvested(miner, seed);
                // Every query under every variant; consecutive lines
                // alternate backends, and a query's three variants are
                // a third of the sequence apart.
                let n = queries.len();
                let reqs: Vec<SearchRequest> = (0..n * variants.len())
                    .map(|i| {
                        let (alg, backend) = variants[(i + i / n) % variants.len()];
                        search(queries[i % n].clone(), alg, backend)
                    })
                    .collect();
                (single_ops(&reqs), dedup(&reqs))
            }
            "hot_live" => hot_live_ops(miner, seed),
            other => unreachable!("unknown workload {other}"),
        };
        Self {
            spec,
            ops,
            distinct,
        }
    }
}

/// `reqs` without repeats, in first-use order.
fn dedup(reqs: &[SearchRequest]) -> Vec<SearchRequest> {
    let mut out: Vec<SearchRequest> = Vec::new();
    for r in reqs {
        if !out.contains(r) {
            out.push(r.clone());
        }
    }
    out
}

fn single_ops(reqs: &[SearchRequest]) -> Vec<Op> {
    reqs.iter()
        .map(|r| Op {
            line: r.to_line(),
            searches: 1,
        })
        .collect()
}

fn hot_live_ops(miner: &PhraseMiner, seed: u64) -> (Vec<Op>, Vec<SearchRequest>) {
    let pool = hot_words(miner);
    let zipf = Zipf::new(pool.len(), HOT_ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut searches: Vec<SearchRequest> = Vec::new();
    let mut ops = Vec::with_capacity(HOT_LINES);
    for i in 0..HOT_LINES {
        if (i + 1) % INGEST_EVERY == 0 {
            let tokens: Vec<String> = (0..INGEST_TOKENS)
                .map(|_| pool[zipf.sample(&mut rng)].clone())
                .collect();
            ops.push(Op {
                line: wire::ingest_line(&tokens, &[]),
                searches: 0,
            });
            continue;
        }
        let batch: Vec<SearchRequest> = (0..BATCH)
            .map(|_| {
                let (a, b) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
                search(
                    format!("{} OR {}", pool[a], pool[b]),
                    Algorithm::Smj,
                    BackendChoice::Block,
                )
            })
            .collect();
        ops.push(Op {
            line: wire::batch_line(&batch),
            searches: BATCH,
        });
        searches.extend(batch);
    }
    (ops, dedup(&searches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_core::MinerConfig;

    #[test]
    fn same_seed_same_operation_sequence() {
        let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let miner = PhraseMiner::build(&corpus, MinerConfig::default());
        for spec in &SPECS {
            let a = Workload::generate(spec, &miner, 7);
            let b = Workload::generate(spec, &miner, 7);
            let c = Workload::generate(spec, &miner, 8);
            assert!(!a.ops.is_empty() && !a.distinct.is_empty(), "{}", spec.name);
            assert_eq!(a.ops, b.ops, "{}: same seed, same lines", spec.name);
            assert_eq!(a.distinct, b.distinct, "{}", spec.name);
            assert_ne!(a.ops, c.ops, "{}: the seed drives the lines", spec.name);
        }
    }

    #[test]
    fn hot_live_mixes_one_ingest_into_every_eight_lines() {
        let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let miner = PhraseMiner::build(&corpus, MinerConfig::default());
        let w = Workload::generate(spec("hot_live").unwrap(), &miner, 42);
        for (i, op) in w.ops.iter().enumerate() {
            assert_eq!(op.is_write(), (i + 1) % INGEST_EVERY == 0, "line {i}");
            assert!(op.is_write() || op.searches == BATCH);
        }
        assert!(w.distinct.len() <= HOT_WORDS * HOT_WORDS);
    }
}
