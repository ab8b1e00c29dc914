use super::*;
use crate::miner::MinerConfig;
use crate::query::Operator;
use ipm_index::corpus_index::IndexConfig;
use ipm_index::mining::MiningConfig;

/// The tests' usual dictionary: `min_df` 3, phrases of up to four words.
fn mining() -> MinerConfig {
    MinerConfig {
        index: IndexConfig {
            mining: MiningConfig {
                min_df: 3,
                max_len: 4,
                min_len: 1,
            },
        },
        ..Default::default()
    }
}

fn engine_with(miner: MinerConfig, config: EngineConfig) -> QueryEngine {
    let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    QueryEngine::with_config(PhraseMiner::build(&c, miner), config)
}

fn engine() -> QueryEngine {
    engine_with(mining(), EngineConfig::default())
}

fn batch_item<'a>(
    e: &QueryEngine,
    q: &str,
    k: usize,
    options: &SearchOptions,
    budget: &'a Budget,
) -> BatchItem<'a> {
    BatchItem {
        query: e.miner().parse_query_str(q).unwrap(),
        k,
        options: options.clone(),
        budget,
    }
}

fn query_string(e: &QueryEngine, op: Operator) -> String {
    let miner = e.miner();
    let corpus = miner.corpus();
    let top = ipm_corpus::stats::top_words_by_df(corpus, 2);
    let words: Vec<&str> = top
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap())
        .collect();
    words.join(&format!(" {op} "))
}

fn phrases(resp: &SearchResponse) -> Vec<ipm_corpus::PhraseId> {
    resp.hits.iter().map(|h| h.hit.phrase).collect()
}

const ALL_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Nra,
    Algorithm::Smj,
    Algorithm::Ta,
    Algorithm::Exact,
];

#[test]
fn search_returns_resolved_hits() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let resp = e.request(&q).k(5).run().unwrap();
    assert!(!resp.hits.is_empty());
    for h in &resp.hits {
        assert!(!h.text.is_empty());
        assert!((0.0..=1.0).contains(&h.interestingness));
    }
    assert!(resp.io.is_none());
    assert!(!resp.served_from_cache);
    assert_eq!(e.queries_served(), 1);
}

#[test]
fn malformed_query_is_an_error_not_a_panic() {
    let e = engine();
    assert!(e.request("").k(5).run().is_err());
    assert!(e.request("zzzz_not_a_word_zzzz").k(5).run().is_err());
    assert_eq!(e.queries_served(), 0);
}

#[test]
fn algorithms_agree_through_the_engine() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let [nra, smj, ta] = [Algorithm::Nra, Algorithm::Smj, Algorithm::Ta]
        .map(|alg| phrases(&e.request(&q).k(5).algorithm(alg).run().unwrap()));
    assert_eq!(nra, smj, "NRA vs SMJ");
    assert_eq!(smj, ta, "SMJ vs TA");
}

#[test]
fn disk_backend_matches_memory_for_every_algorithm() {
    let e = engine();
    for op in [Operator::And, Operator::Or] {
        let q = query_string(&e, op);
        for alg in ALL_ALGORITHMS {
            let mem = e.request(&q).k(5).algorithm(alg).run().unwrap();
            let disk = e
                .request(&q)
                .k(5)
                .algorithm(alg)
                .backend(BackendChoice::Disk)
                .run()
                .unwrap();
            assert_eq!(
                phrases(&mem),
                phrases(&disk),
                "{alg:?} {op}: memory and disk backends disagree"
            );
            for (a, b) in mem.hits.iter().zip(&disk.hits) {
                assert_eq!(a.text, b.text, "{alg:?}: text resolution differs");
            }
            let io = disk.io.expect("disk run reports IoStats");
            assert!(io.total_accesses() > 0, "{alg:?} {op}: no IO charged");
            assert!(mem.io.is_none());
        }
    }
}

#[test]
fn block_backend_matches_memory_bit_for_bit() {
    let e = engine();
    for op in [Operator::And, Operator::Or] {
        let q = query_string(&e, op);
        for alg in ALL_ALGORITHMS {
            let mem = e.request(&q).k(5).algorithm(alg).run().unwrap();
            let block = e
                .request(&q)
                .k(5)
                .algorithm(alg)
                .backend(BackendChoice::Block)
                .run()
                .unwrap();
            assert_eq!(
                phrases(&mem),
                phrases(&block),
                "{alg:?} {op}: memory and block backends disagree"
            );
            for (a, b) in mem.hits.iter().zip(&block.hits) {
                assert_eq!(
                    a.hit.score.to_bits(),
                    b.hit.score.to_bits(),
                    "{alg:?} {op}: dequantized scores must be bit-identical"
                );
                assert_eq!(a.text, b.text);
            }
            // Even the exact scorer, which never touches the lists,
            // charges its hits' text lookups.
            let io = block.io.expect("block run reports IoStats");
            assert!(io.total_accesses() > 0, "{alg:?} {op}: no IO charged");
        }
    }
}

#[test]
fn cache_serves_repeats_and_counts() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let cold = e.request(&q).k(5).run().unwrap();
    assert!(!cold.served_from_cache);
    let warm = e.request(&q).k(5).run().unwrap();
    assert!(warm.served_from_cache);
    assert_eq!(cold.hits, warm.hits);
    let stats = e.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(e.queries_served(), 2);
    // Different options are different cache entries.
    let other = e.request(&q).k(5).algorithm(Algorithm::Smj).run().unwrap();
    assert!(!other.served_from_cache);
    // Clearing forgets results but keeps counters.
    e.clear_cache();
    assert!(!e.request(&q).k(5).run().unwrap().served_from_cache);
    assert_eq!(e.cache_stats().hits, 1);
}

#[test]
fn cache_key_ignores_feature_order() {
    let e = engine();
    let miner = e.miner();
    let corpus = miner.corpus();
    let top = ipm_corpus::stats::top_words_by_df(corpus, 2);
    let words: Vec<&str> = top
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap())
        .collect();
    let fwd = format!("{} OR {}", words[0], words[1]);
    let rev = format!("{} OR {}", words[1], words[0]);
    assert!(!e.request(&fwd).k(5).run().unwrap().served_from_cache);
    assert!(
        e.request(&rev).k(5).run().unwrap().served_from_cache,
        "feature order must not fragment the cache"
    );
}

#[test]
fn disk_cache_hit_skips_io() {
    let e = engine();
    let q = query_string(&e, Operator::And);
    let opts = SearchOptions {
        backend: BackendChoice::Disk,
        ..Default::default()
    };
    let cold = e.search_with(&q, 5, &opts).unwrap();
    assert!(cold.io.unwrap().total_accesses() > 0);
    let warm = e.search_with(&q, 5, &opts).unwrap();
    assert!(warm.served_from_cache);
    assert!(warm.io.is_none(), "cache hit performs no simulated IO");
    assert_eq!(cold.hits, warm.hits);
}

#[test]
fn cache_can_be_disabled() {
    let e = engine_with(
        MinerConfig::default(),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    );
    let q = query_string(&e, Operator::Or);
    assert!(!e.request(&q).k(5).run().unwrap().served_from_cache);
    assert!(!e.request(&q).k(5).run().unwrap().served_from_cache);
    assert_eq!(e.cache_stats(), CacheStats::default());
}

#[test]
fn redundancy_option_filters_across_algorithms_and_backends() {
    let e = engine();
    let red = RedundancyConfig::default();
    for op in [Operator::And, Operator::Or] {
        let q = query_string(&e, op);
        for backend in [BackendChoice::Memory, BackendChoice::Disk] {
            for alg in ALL_ALGORITHMS {
                let resp = e
                    .request(&q)
                    .k(5)
                    .algorithm(alg)
                    .backend(backend)
                    .redundancy(red)
                    .run()
                    .unwrap();
                assert!(resp.hits.len() <= 5);
                let query = &resp.query;
                let miner = e.miner();
                for h in &resp.hits {
                    let words = miner.index().dict.words(h.hit.phrase).unwrap();
                    assert!(
                        crate::redundancy::overlap_fraction(words, query) < red.max_overlap,
                        "{alg:?}/{backend:?} {op}: leaked redundant phrase {}",
                        h.text
                    );
                }
            }
        }
    }
}

#[test]
fn nonredundant_is_a_subsequence_of_deeper_unfiltered_ranking() {
    // The filter must only remove hits, never reorder or invent them.
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let filtered = e
        .request(&q)
        .k(5)
        .redundancy(RedundancyConfig::default())
        .run()
        .unwrap();
    let query = e.miner().parse_query_str(&q).unwrap();
    let deep: Vec<_> = e
        .miner()
        .top_k_nra(&query, 200)
        .hits
        .iter()
        .map(|h| h.phrase)
        .collect();
    let mut pos = 0;
    for p in phrases(&filtered) {
        let at = deep[pos..]
            .iter()
            .position(|d| *d == p)
            .expect("filtered hit missing from deep ranking");
        pos += at + 1;
    }
}

#[test]
fn disabled_filter_returns_plain_top_k() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let red = RedundancyConfig { max_overlap: 2.0 };
    let filtered = e.request(&q).k(5).redundancy(red).run().unwrap();
    let plain = e.request(&q).k(5).run().unwrap();
    assert_eq!(phrases(&filtered), phrases(&plain));
}

#[test]
fn nra_fraction_composes_with_redundancy() {
    // Regression: the old engine dropped `nra_fraction` whenever a
    // redundancy filter was set. A fraction small enough to change the
    // candidate set must now change the filtered results too.
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let red = RedundancyConfig { max_overlap: 2.0 }; // filter disabled ⇒ pure pass-through
    let filtered = e
        .request(&q)
        .k(5)
        .nra_fraction(0.05)
        .redundancy(red)
        .run()
        .unwrap();
    let partial_only = e.request(&q).k(5).nra_fraction(0.05).run().unwrap();
    assert_eq!(
        phrases(&filtered),
        phrases(&partial_only),
        "a no-op filter must not change partial-NRA results"
    );
}

#[test]
fn concurrent_clones_serve_identical_results() {
    let e = engine();
    let q = query_string(&e, Operator::And);
    let backends = [
        BackendChoice::Memory,
        BackendChoice::Disk,
        BackendChoice::Block,
    ];
    // Every (backend, k) run alone on an engine of its own: the hits and
    // the IO bill each concurrent execution must reproduce.
    let solo = uncached_engine();
    let alone: Vec<Vec<_>> = backends
        .iter()
        .map(|&backend| {
            (1..=5)
                .map(|k| {
                    let resp = solo.request(&q).k(k).backend(backend).run().unwrap();
                    (phrases(&resp), resp.io)
                })
                .collect()
        })
        .collect();
    let threads = 9;
    let per_thread = 25;
    let booked = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (eng, q, alone) = (e.clone(), &q, &alone);
                s.spawn(move || {
                    // The threads split over the three backends, so disk
                    // and block leases overlap each other and memory
                    // serving; cycling k makes every thread execute
                    // before its repeats hit the cache.
                    let b = t % backends.len();
                    let mut booked = ipm_storage::IoStats::default();
                    for i in 0..per_thread {
                        let k = 1 + i % 5;
                        let resp = eng.request(q).k(k).backend(backends[b]).run().unwrap();
                        let (want, io) = &alone[b][k - 1];
                        assert_eq!(&phrases(&resp), want);
                        if !resp.served_from_cache {
                            assert_eq!(&resp.io, io, "{:?} k={k}: bill", backends[b]);
                        }
                        if let Some(io) = resp.io {
                            booked.accumulate(&io);
                        }
                    }
                    booked
                })
            })
            .collect();
        handles
            .into_iter()
            .fold(ipm_storage::IoStats::default(), |mut total, h| {
                total.accumulate(&h.join().unwrap());
                total
            })
    });
    assert!(booked.total_fetches() > 0);
    assert_eq!(e.io_totals(), booked, "each lease is booked exactly once");
    assert_eq!(e.queries_served(), (threads * per_thread) as u64);
    let stats = e.cache_stats();
    assert!(stats.hits > 0, "repeat queries must hit the cache");
}

/// A list visitor that holds its lease open: it scans one list of the
/// leased disk image, signals `opened`, and returns once `release` fires.
struct HeldLease {
    feature: ipm_corpus::Feature,
    opened: std::sync::mpsc::Sender<()>,
    release: std::sync::mpsc::Receiver<()>,
}

impl super::exec::ListVisitor for HeldLease {
    type Out = ();

    fn visit<B: ipm_index::backend::ListBackend + Sync>(
        self,
        shards: &[&B],
        _charge_text: &dyn Fn(usize, ipm_corpus::PhraseId) -> u64,
    ) {
        use ipm_index::cursor::ScoredListCursor;
        let mut cursor = shards[0].score_cursor(self.feature, 1.0);
        while cursor.next_entry().is_some() {}
        self.opened.send(()).unwrap();
        let _ = self.release.recv();
    }
}

#[test]
fn an_open_lease_does_not_block_other_simulated_io_requests() {
    // While one disk lease is held open, disk- and block-backed requests
    // from other threads complete, each billed exactly what it pays
    // alone: leases share no pool and wait on no lock.
    use std::sync::mpsc;
    use std::time::Duration;
    let e = uncached_engine();
    let q = query_string(&e, Operator::Or);
    let run = |backend| e.request(&q).k(5).backend(backend).run().unwrap().io;
    let alone = [BackendChoice::Disk, BackendChoice::Block].map(|b| (b, run(b)));
    let before = e.io_totals();
    let feature = e.miner().parse_query_str(&q).unwrap().features[0];
    let (opened, opened_rx) = mpsc::channel();
    let (release_tx, release) = mpsc::channel();
    std::thread::scope(|s| {
        let e = &e;
        let holder = s.spawn(move || {
            let held = HeldLease {
                feature,
                opened,
                release,
            };
            let live = e.live();
            e.lease(&live.index, BackendChoice::Disk, 1, None, held).1
        });
        opened_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the held lease opens");
        let (done, done_rx) = mpsc::channel();
        for &(backend, _) in &alone {
            let (eng, q, done) = (e.clone(), q.clone(), done.clone());
            s.spawn(move || {
                let io = eng.request(&q).k(5).backend(backend).run().unwrap().io;
                let _ = done.send((backend, io));
            });
        }
        let served: Vec<_> = alone
            .iter()
            .map(|_| done_rx.recv_timeout(Duration::from_secs(10)))
            .collect();
        release_tx.send(()).unwrap();
        let held = holder.join().unwrap().expect("a disk lease bills IO");
        assert!(held.total_fetches() > 0, "the held lease read its list");
        let mut want = before;
        want.accumulate(&held);
        for got in served {
            let (backend, io) = got.expect("a request waited behind the open lease");
            let solo = alone.iter().find(|(b, _)| *b == backend).unwrap().1;
            assert_eq!(io, solo, "{backend:?}: billed as if alone");
            want.accumulate(&io.unwrap());
        }
        assert_eq!(e.io_totals(), want, "every lease booked once");
    });
}

#[test]
fn attached_delta_corrects_nra_and_clears_cache() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let delta_opts = SearchOptions {
        use_delta: true,
        ..Default::default()
    };
    // Without a delta attached the flag is a no-op (and a distinct
    // cache entry).
    let plain = phrases(&e.request(&q).k(5).run().unwrap());
    let noop = phrases(&e.search_with(&q, 5, &delta_opts).unwrap());
    assert_eq!(plain, noop);

    // Warm the cache, then attach a delta: cached entries must drop.
    assert!(e.request(&q).k(5).run().unwrap().served_from_cache);
    let top = ipm_corpus::stats::top_words_by_df(e.miner().corpus(), 2);
    let mut delta = crate::delta::DeltaIndex::new();
    for _ in 0..20 {
        delta.add_document(e.miner().index(), &[top[0].0], &[]);
    }
    e.attach_delta(delta);
    assert!(
        !e.request(&q).k(5).run().unwrap().served_from_cache,
        "attach_delta must clear the result cache"
    );

    // The engine's delta path matches the miner's reference
    // implementation exactly.
    let query = e.miner().parse_query_str(&q).unwrap();
    let want: Vec<_> = e
        .miner()
        .top_k_nra_with_delta(&query, 5, &e.delta().unwrap())
        .hits
        .iter()
        .map(|h| h.phrase)
        .collect();
    let got = phrases(&e.search_with(&q, 5, &delta_opts).unwrap());
    assert_eq!(got, want, "engine delta path must match the miner's");

    // In-place updates and detaching clear the cache too.
    assert!(e.search_with(&q, 5, &delta_opts).unwrap().served_from_cache);
    e.update_delta(|d| d.delete_document(ipm_corpus::DocId(0)));
    assert!(
        !e.search_with(&q, 5, &delta_opts).unwrap().served_from_cache,
        "update_delta must clear the result cache"
    );
    e.detach_delta();
    assert!(e.delta().is_none());
    assert!(!e.request(&q).k(5).run().unwrap().served_from_cache);
}

#[test]
fn io_totals_accumulate_across_disk_queries() {
    let e = engine();
    assert_eq!(e.io_totals(), ipm_storage::IoStats::default());
    let opts = SearchOptions {
        backend: BackendChoice::Disk,
        ..Default::default()
    };
    let q = query_string(&e, Operator::Or);
    let first = e.search_with(&q, 5, &opts).unwrap().io.unwrap();
    assert_eq!(e.io_totals(), first);
    // A cache hit performs no IO and adds nothing.
    assert!(e.search_with(&q, 5, &opts).unwrap().served_from_cache);
    assert_eq!(e.io_totals(), first);
    // A distinct disk query accumulates on top.
    let q2 = query_string(&e, Operator::And);
    let second = e.search_with(&q2, 5, &opts).unwrap().io.unwrap();
    let totals = e.io_totals();
    assert_eq!(
        totals.total_accesses(),
        first.total_accesses() + second.total_accesses()
    );
    // Memory-backed queries never contribute.
    let q3 = format!("{q} "); // same query, same key — cached
    let _ = e.request(&q3).k(5).run().unwrap();
    assert_eq!(e.io_totals(), totals);
}

#[test]
fn clear_cache_races_with_concurrent_searches() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let want = phrases(&e.request(&q).k(5).run().unwrap());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let eng = e.clone();
            let q = q.clone();
            let want = want.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    let got = phrases(&eng.request(&q).k(5).run().unwrap());
                    assert_eq!(got, want, "a racing clear must never corrupt results");
                }
            });
        }
        let eng = e.clone();
        s.spawn(move || {
            for _ in 0..100 {
                eng.clear_cache();
                std::thread::yield_now();
            }
        });
    });
}

#[test]
fn sharded_execution_matches_unsharded_for_all_algorithms() {
    let e = engine();
    for op in [Operator::And, Operator::Or] {
        let q = query_string(&e, op);
        for backend in [BackendChoice::Memory, BackendChoice::Disk] {
            for alg in ALL_ALGORITHMS {
                let base = e
                    .request(&q)
                    .k(5)
                    .algorithm(alg)
                    .backend(backend)
                    .run()
                    .unwrap();
                assert_eq!(base.shards, 1);
                for n in [2usize, 3, 8] {
                    let sharded = e
                        .request(&q)
                        .k(5)
                        .algorithm(alg)
                        .backend(backend)
                        .shards(n)
                        .run()
                        .unwrap();
                    assert!(
                        !sharded.served_from_cache,
                        "distinct cache entry per fanout"
                    );
                    assert_eq!(sharded.shards, n);
                    assert_eq!(
                        phrases(&base),
                        phrases(&sharded),
                        "{alg:?}/{backend:?}/{op} @ {n} shards: phrase drift"
                    );
                    for (a, b) in base.hits.iter().zip(&sharded.hits) {
                        assert!(
                            (a.hit.score - b.hit.score).abs() < 1e-12,
                            "{alg:?}/{backend:?}/{op} @ {n}: score drift"
                        );
                        assert_eq!(a.text, b.text);
                    }
                    if backend == BackendChoice::Disk {
                        let io = sharded.io.expect("sharded disk run reports IO");
                        assert!(io.total_accesses() > 0, "{alg:?}/{op}: no IO charged");
                    }
                }
            }
        }
    }
    assert!(e.sharded_queries() > 0);
}

#[test]
fn sharded_merge_breaks_ties_deterministically() {
    // Three phrases with byte-identical scores: the merge's total
    // order (score desc, phrase id asc) must produce one canonical
    // sequence regardless of shard count, thread interleaving, or
    // repetition.
    let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
    for t in [
        "x aa", "x aa", "x bb", "x bb", "x cc", "x cc", "x dd", "x dd",
    ] {
        b.add_text(t);
    }
    let e = QueryEngine::new(PhraseMiner::build(
        &b.build(),
        MinerConfig {
            index: IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 2,
                    min_len: 1,
                },
            },
            ..Default::default()
        },
    ));
    // Scores live on different scales per algorithm (the exact scorer
    // returns interestingness, the list algorithms return aggregate
    // scores), so each algorithm keeps its own canonical sequence —
    // but phrase *order* must also agree across all of them.
    let mut canonical_order: Option<Vec<ipm_corpus::PhraseId>> = None;
    let mut canonical: [Option<Vec<(ipm_corpus::PhraseId, u64)>>; 4] = Default::default();
    for _ in 0..10 {
        for n in [1usize, 2, 3, 8] {
            for (ai, alg) in ALL_ALGORITHMS.into_iter().enumerate() {
                let got: Vec<_> = e
                    .request("x")
                    .k(3)
                    .algorithm(alg)
                    .shards(n)
                    .run()
                    .unwrap()
                    .hits
                    .iter()
                    .map(|h| (h.hit.phrase, h.hit.score.to_bits()))
                    .collect();
                let order: Vec<_> = got.iter().map(|&(p, _)| p).collect();
                match &canonical_order {
                    None => canonical_order = Some(order),
                    Some(want) => assert_eq!(
                        &order, want,
                        "{alg:?} @ {n} shards: tie order must be canonical"
                    ),
                }
                match &canonical[ai] {
                    None => canonical[ai] = Some(got),
                    Some(want) => assert_eq!(
                        &got, want,
                        "{alg:?} @ {n} shards: results must be byte-identical"
                    ),
                }
            }
        }
    }
}

#[test]
fn engine_default_fanout_applies_when_request_leaves_it_unset() {
    let sharded_engine = engine_with(
        MinerConfig::default(),
        EngineConfig {
            shards: 4,
            ..Default::default()
        },
    );
    assert_eq!(sharded_engine.default_shards(), 4);
    let q = query_string(&sharded_engine, Operator::Or);
    let resp = sharded_engine.request(&q).k(5).run().unwrap();
    assert_eq!(resp.shards, 4, "default fanout must apply");
    assert_eq!(sharded_engine.sharded_queries(), 1);
    // An explicit single-shard request on the same engine matches it.
    let single = sharded_engine.request(&q).k(5).shards(1).run().unwrap();
    assert_eq!(single.shards, 1);
    assert_eq!(phrases(&resp), phrases(&single));
}

#[test]
fn layout_cache_is_bounded_and_keeps_serving() {
    // A client sweeping fanouts must not pin one full index copy per
    // distinct value: the layout cache evicts LRU entries past its
    // cap, and every fanout keeps serving correct results (a rebuilt
    // layout is identical to the evicted one).
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let want = phrases(&e.request(&q).k(5).run().unwrap());
    for n in 2..=12usize {
        let got = phrases(&e.request(&q).k(5).shards(n).run().unwrap());
        assert_eq!(got, want, "{n} shards after evictions");
        assert!(
            e.cached_layouts() <= 4,
            "layout cache exceeded its bound: {}",
            e.cached_layouts()
        );
    }
    // A re-requested evicted fanout rebuilds and still matches.
    // (A different k bypasses the result cache.)
    let again = phrases(&e.request(&q).k(6).shards(2).run().unwrap());
    assert_eq!(again[..5], want[..]);
}

#[test]
fn cache_key_resolves_fanout_before_keying() {
    // Requests that resolve to the same fanout must share one cache
    // entry: `None` on a default-4 engine equals an explicit 4, and
    // over-clamp values collapse onto MAX_SHARDS.
    let e = engine_with(
        MinerConfig::default(),
        EngineConfig {
            shards: 4,
            ..Default::default()
        },
    );
    let q = query_string(&e, Operator::Or);
    assert!(!e.request(&q).k(5).run().unwrap().served_from_cache);
    let explicit = e.request(&q).k(5).shards(4).run().unwrap();
    assert!(
        explicit.served_from_cache,
        "explicit default fanout must hit the None-keyed entry"
    );
    let over = |n: usize| e.request(&q).k(5).shards(n).run().unwrap();
    assert!(!over(1_000).served_from_cache);
    assert!(
        over(crate::plan::MAX_SHARDS).served_from_cache,
        "over-clamp fanouts must share the clamped entry"
    );
}

#[test]
fn redundancy_filter_composes_with_sharding() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let red = RedundancyConfig::default();
    for n in [1usize, 3] {
        let resp = e.request(&q).k(5).redundancy(red).shards(n).run().unwrap();
        let query = &resp.query;
        let miner = e.miner();
        for h in &resp.hits {
            let words = miner.index().dict.words(h.hit.phrase).unwrap();
            assert!(
                crate::redundancy::overlap_fraction(words, query) < red.max_overlap,
                "{n} shards leaked redundant phrase {}",
                h.text
            );
        }
    }
}

#[test]
fn sharded_delta_composes_and_cache_invalidates() {
    // §4.5.1 delta corrections apply per shard on the NRA path. With a
    // k covering every candidate, each shard exhausts its corrected
    // lists, so the merged result is the full corrected candidate set
    // — identical across sharded fanouts, set-equal to the unsharded
    // reference (whose upper-bound ranking may order ties differently),
    // and re-ranked by the deterministic merge order.
    let e = engine();
    let q = query_string(&e, Operator::Or);
    let top = ipm_corpus::stats::top_words_by_df(e.miner().corpus(), 2);
    let mut delta = crate::delta::DeltaIndex::new();
    for _ in 0..25 {
        delta.add_document(e.miner().index(), &[top[0].0], &[]);
    }
    e.attach_delta(delta);
    let k = 200;
    let run = |n: usize| e.request(&q).k(k).use_delta(true).shards(n).run().unwrap();
    let mut want = phrases(&run(1));
    want.sort_unstable();
    let mut first: Option<Vec<(ipm_corpus::PhraseId, u64)>> = None;
    for n in [2usize, 3, 8] {
        let resp = run(n);
        // Deterministic merge order: score desc, ties by id asc.
        for w in resp.hits.windows(2) {
            assert!(
                w[0].hit.score > w[1].hit.score
                    || (w[0].hit.score == w[1].hit.score && w[0].hit.phrase < w[1].hit.phrase),
                "sharded delta results must follow the merge total order"
            );
        }
        let mut got = phrases(&resp);
        let pairs: Vec<_> = resp
            .hits
            .iter()
            .map(|h| (h.hit.phrase, h.hit.score.to_bits()))
            .collect();
        match &first {
            None => first = Some(pairs),
            Some(want) => assert_eq!(&pairs, want, "{n} shards: fanout-dependent results"),
        }
        got.sort_unstable();
        assert_eq!(got, want, "{n} shards: candidate set drift vs unsharded");
    }
    // Mutating the delta must clear sharded cache entries too.
    assert!(run(3).served_from_cache);
    e.update_delta(|d| d.delete_document(ipm_corpus::DocId(0)));
    assert!(
        !run(3).served_from_cache,
        "update_delta must clear sharded entries"
    );
    e.detach_delta();
}

#[test]
fn nra_fraction_option_is_honoured() {
    let e = engine();
    let q = query_string(&e, Operator::Or);
    // A tiny fraction still returns *something* (≥1 entry per list) and
    // must not panic.
    let resp = e.request(&q).k(5).nra_fraction(0.05).run().unwrap();
    assert!(!resp.hits.is_empty());
}

/// Uncached engine for batch tests: the result cache would otherwise
/// serve later batch members from earlier items' entries and hide the
/// execution path under test.
fn uncached_engine() -> QueryEngine {
    engine_with(
        mining(),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    )
}

#[test]
fn text_lookups_charge_the_owning_shard_inside_the_lease() {
    // Each hit's text lookup is charged inside the lease, to the pool of
    // the shard owning the hit, and booked into that shard's trace row:
    // the rows sum to the response's IO. A request under an IO cap it
    // never reaches skips the lookups and fetches strictly less.
    let e = uncached_engine();
    let q = query_string(&e, Operator::Or);
    for backend in [BackendChoice::Disk, BackendChoice::Block] {
        for n in [1, 4] {
            let request = || {
                e.request(&q)
                    .k(5)
                    .algorithm(Algorithm::Smj)
                    .backend(backend)
                    .shards(n)
            };
            let resp = request().trace(true).run().unwrap();
            assert!(!resp.hits.is_empty());
            let io = resp.io.unwrap().total_fetches();
            let trace = resp.trace.unwrap();
            let rows: u64 = trace.shard_totals().iter().map(|s| s.io_fetches).sum();
            assert_eq!(rows, io, "{backend:?} @ {n}: trace rows vs response IO");
            let capped = request().io_budget(u64::MAX).run().unwrap();
            assert!(
                capped.io.unwrap().total_fetches() < io,
                "{backend:?} @ {n}: text lookups must fetch"
            );
        }
    }
}

/// The batch parity contract, per item: same hits, score bits, texts and
/// completeness as the item's own serial execution.
fn assert_bit_identical(batched: &SearchResponse, serial: &SearchResponse, what: &str) {
    assert_eq!(batched.hits.len(), serial.hits.len(), "{what}");
    for (x, y) in batched.hits.iter().zip(&serial.hits) {
        assert_eq!(x.hit.phrase, y.hit.phrase, "{what}");
        assert_eq!(x.hit.score.to_bits(), y.hit.score.to_bits(), "{what}");
        assert_eq!(x.text, y.text, "{what}");
    }
    assert_eq!(batched.completeness, serial.completeness, "{what}");
}

#[test]
fn batch_matches_serial_execution_and_reuses_decoded_blocks() {
    let e = uncached_engine();
    let q = query_string(&e, Operator::Or);
    let opts = SearchOptions {
        backend: BackendChoice::Block,
        algorithm: Algorithm::Smj,
        ..Default::default()
    };
    // Serial baseline first (fresh IO state either way: every query
    // runs on a cold pool of its own).
    let serial: Vec<SearchResponse> = (0..6)
        .map(|_| e.search_with(&q, 5, &opts).unwrap())
        .collect();
    let items: Vec<BatchItem<'_>> = (0..6)
        .map(|_| batch_item(&e, &q, 5, &opts, Budget::none()))
        .collect();
    let batched = e.execute_batch(items);
    assert_eq!(batched.len(), serial.len());
    for (b, s) in batched.iter().zip(&serial) {
        let b = b.as_ref().unwrap();
        assert_bit_identical(b, s, "identical members");
        // Fused members report no per-item IO: the shared scan's
        // block traffic is a group quantity (it lands in the engine's
        // IO totals instead).
        assert!(s.io.is_some(), "serial block query reports IO");
        assert!(b.io.is_none(), "fused member IO is a group quantity");
    }
    let (hits, misses) = e.decode_cache_stats();
    assert!(misses > 0, "first member decodes");
    assert!(hits > 0, "later members must reuse decoded blocks");
    // Identical queries share every block: 6 members, 5 reuse passes.
    assert!(hits >= misses * 4, "hits {hits} vs misses {misses}");
}

/// The fused shared scan must be bit-identical to serial execution
/// for *distinct* member queries too: different word pairs sharing a
/// hot head word, AND and OR mixed in one group, on both fusable
/// backends.
#[test]
fn batch_fuses_distinct_word_sharing_queries_bit_for_bit() {
    let e = uncached_engine();
    let miner = e.miner();
    let words: Vec<String> = {
        let corpus = miner.corpus();
        ipm_corpus::stats::top_words_by_df(corpus, 5)
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap().to_string())
            .collect()
    };
    let queries: Vec<String> = words[1..]
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let op = if i % 2 == 0 { "OR" } else { "AND" };
            format!("{} {op} {w}", words[0])
        })
        .collect();
    for backend in [BackendChoice::Memory, BackendChoice::Block] {
        let opts = SearchOptions {
            backend,
            algorithm: Algorithm::Smj,
            ..Default::default()
        };
        let serial: Vec<SearchResponse> = queries
            .iter()
            .map(|q| e.search_with(q, 4, &opts).unwrap())
            .collect();
        let items: Vec<BatchItem<'_>> = queries
            .iter()
            .map(|q| batch_item(&e, q, 4, &opts, Budget::none()))
            .collect();
        let batched = e.execute_batch(items);
        for (qs, (b, s)) in queries.iter().zip(batched.iter().zip(&serial)) {
            assert_bit_identical(b.as_ref().unwrap(), s, &format!("{backend:?} {qs}"));
        }
    }
}

#[test]
fn batch_epoch_bump_invalidates_decoded_blocks() {
    let e = uncached_engine();
    let q = query_string(&e, Operator::Or);
    let opts = SearchOptions {
        backend: BackendChoice::Block,
        ..Default::default()
    };
    let run_batch = |n: usize| {
        let items: Vec<BatchItem<'_>> = (0..n)
            .map(|_| batch_item(&e, &q, 5, &opts, Budget::none()))
            .collect();
        e.execute_batch(items)
    };
    run_batch(2);
    let (_, misses_before) = e.decode_cache_stats();
    // A delete bumps the epoch: the next batch must re-decode from
    // scratch (old entries are unreachable under the new epoch key).
    e.delete_document(ipm_corpus::DocId(0));
    run_batch(1);
    let (_, misses_after) = e.decode_cache_stats();
    assert!(
        misses_after > misses_before,
        "post-bump batch must miss (stale blocks unreachable)"
    );
}

#[test]
fn batch_honors_per_item_budgets_via_sticky_trips() {
    let e = uncached_engine();
    let q = query_string(&e, Operator::Or);
    let miner = e.miner();
    let opts = SearchOptions {
        backend: BackendChoice::Block,
        ..Default::default()
    };
    let tight = Budget::unlimited().with_io_budget(1);
    let items = vec![
        batch_item(&e, &q, 5, &opts, Budget::none()),
        batch_item(&e, &q, 5, &opts, &tight),
        batch_item(&e, &q, 5, &opts, Budget::none()),
    ];
    let out = e.execute_batch(items);
    assert!(matches!(
        out[1].as_ref().unwrap().completeness,
        Completeness::Truncated { .. }
    ));
    for i in [0, 2] {
        assert!(
            !out[i].as_ref().unwrap().completeness.is_truncated(),
            "item {i}: a neighbour's tripped budget must not leak"
        );
    }
    // The truncated item matches its own serial execution exactly.
    let tight2 = Budget::unlimited().with_io_budget(1);
    let serial = e
        .execute_with_budget(miner.parse_query_str(&q).unwrap(), 5, &opts, &tight2)
        .unwrap();
    assert_bit_identical(out[1].as_ref().unwrap(), &serial, "truncated member");
}
