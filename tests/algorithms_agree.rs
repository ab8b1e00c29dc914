//! Cross-algorithm consistency on harvested queries: TA, NRA, SMJ and the
//! exact scorer must relate exactly as the theory says — and every
//! algorithm must return the same answers whether it runs over the
//! in-memory backend or the simulated-disk backend, and whether it runs
//! unsharded or fanned out across phrase-id shards.

use interesting_phrases::prelude::*;
use ipm_core::query::Operator as Op;
use proptest::prelude::*;

fn miner() -> PhraseMiner {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    PhraseMiner::build(
        &corpus,
        MinerConfig {
            index: ipm_index::corpus_index::IndexConfig {
                mining: ipm_index::mining::MiningConfig {
                    min_df: 3,
                    max_len: 4,
                    min_len: 1,
                },
            },
            ..Default::default()
        },
    )
}

/// The miner's lists as a block image in the paper's default pool.
fn block_image(m: &PhraseMiner) -> ipm_storage::PagedImage<ipm_index::block::BlockLists> {
    let (pool, cost) = Default::default();
    ipm_storage::PagedImage::build(m.index(), m.lists(), m.id_lists(), pool, cost)
}

fn queries(m: &PhraseMiner, op: Op) -> Vec<Query> {
    let ws = ipm_eval::harvest_queries(
        m.index(),
        &ipm_eval::QuerySetConfig {
            count: 10,
            seed: 123,
            fixed_lengths: vec![],
            fill_len_range: (2, 3),
            min_and_matches: 1,
        },
    );
    ipm_eval::queryset::to_queries(&ws, op)
}

#[test]
fn ta_equals_smj_on_all_queries() {
    let m = miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            let ta = m.top_k_ta(&q, 5);
            let smj = m.top_k_smj(&q, 5);
            assert_eq!(
                ta.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
                smj.iter().map(|h| h.phrase).collect::<Vec<_>>(),
                "{op}: {}",
                q.render(m.corpus())
            );
        }
    }
}

#[test]
fn ta_never_reads_deeper_than_nra() {
    let m = miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            let ta = m.top_k_ta(&q, 5);
            let nra = m.top_k_nra(&q, 5);
            assert!(
                ta.stats.fraction_traversed() <= nra.stats.fraction_traversed() + 1e-9,
                "{op} {}: TA deeper than NRA",
                q.render(m.corpus())
            );
        }
    }
}

#[test]
fn query_string_parser_matches_programmatic_queries() {
    let m = miner();
    for q in queries(&m, Op::And) {
        let rendered = q.render(m.corpus());
        let reparsed = m.parse_query_str(&rendered).unwrap();
        assert_eq!(reparsed, q, "render/parse mismatch for {rendered}");
    }
    for q in queries(&m, Op::Or) {
        let rendered = q.render(m.corpus());
        let reparsed = m.parse_query_str(&rendered).unwrap();
        assert_eq!(reparsed, q);
    }
}

#[test]
fn estimated_interestingness_brackets_reality() {
    // For full lists: AND estimates are exact under independence; OR
    // first-order estimates upper-bound the union probability; both must
    // land within a sane distance of the true value on topical queries.
    let m = miner();
    for op in [Op::And, Op::Or] {
        let mut total_err = 0.0;
        let mut n = 0;
        for q in queries(&m, op) {
            let subset = ipm_core::exact::materialize_subset(m.index(), &q);
            for h in m.top_k_nra(&q, 5).hits {
                let est = ipm_core::scoring::estimated_interestingness(op, h.score);
                let real = ipm_core::exact::exact_interestingness(m.index(), &subset, h.phrase);
                total_err += (est - real).abs();
                n += 1;
            }
        }
        let mean = total_err / n as f64;
        assert!(mean < 0.35, "{op}: mean |est - real| = {mean}");
    }
}

#[test]
fn pmi_top_k_is_rank_equivalent_to_interestingness() {
    // Paper §1/§7: PMI is an alternative formulation; under the document
    // event model it is a per-query monotone transform of Eq. 1, so the
    // exact top-k sets must coincide on every harvested query.
    use ipm_core::measures::{exact_top_k_measure, Measure};
    let m = miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            let by_i: Vec<_> = m.top_k_exact(&q, 10).iter().map(|h| h.phrase).collect();
            let by_pmi: Vec<_> = exact_top_k_measure(m.index(), &q, 10, Measure::Pmi)
                .iter()
                .map(|h| h.phrase)
                .collect();
            assert_eq!(by_i, by_pmi, "{op}: {}", q.render(m.corpus()));
        }
    }
}

#[test]
fn approximate_npmi_recall_rises_with_fetch_depth() {
    // NPMI reranks away from the list order (it breaks Eq. 1 ties toward
    // high-df phrases), so the rescoring approximation's recall must grow
    // with the candidate fetch depth and get high once the fetch covers
    // the candidate space — the honest shape of the paper's §7 question.
    use ipm_core::measures::{exact_top_k_measure, Measure};
    let m = miner();
    let mut recalls = Vec::new();
    for fetch in [20usize, 200, 5000] {
        let mut found = 0usize;
        let mut total = 0usize;
        for q in queries(&m, Op::Or) {
            let approx: Vec<_> = m
                .top_k_npmi(&q, 5, fetch)
                .iter()
                .map(|h| h.phrase)
                .collect();
            let exact: Vec<_> = exact_top_k_measure(m.index(), &q, 5, Measure::Npmi)
                .iter()
                .map(|h| h.phrase)
                .collect();
            total += exact.len();
            found += exact.iter().filter(|p| approx.contains(p)).count();
        }
        recalls.push(found as f64 / total as f64);
    }
    eprintln!("npmi recall by fetch depth: {recalls:?}");
    assert!(
        recalls.windows(2).all(|w| w[0] <= w[1] + 0.05),
        "recall should not degrade with deeper fetch: {recalls:?}"
    );
    assert!(
        recalls[2] >= 0.5,
        "deep-fetch NPMI recall too low: {recalls:?}"
    );
}

#[test]
fn npmi_scores_are_bounded() {
    let m = miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op).into_iter().take(4) {
            for h in m.top_k_npmi(&q, 5, 50) {
                assert!((-1.0..=1.0).contains(&h.score), "{op}: {h:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Backend parity (tentpole invariant): on arbitrary corpora and both
    /// operators, each of the four algorithms must return *identical*
    /// top-k phrases (and equal scores) through the unified engine over
    /// the memory backend and the disk backend — and the disk runs must
    /// actually charge simulated IO.
    #[test]
    fn all_four_algorithms_agree_across_backends(
        docs in proptest::prop::collection::vec(
            proptest::prop::collection::vec(0u8..10, 2..20), 4..24),
    ) {
        let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
        for d in &docs {
            let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
            b.add_text(&text.join(" "));
        }
        let corpus = b.build();
        let top = ipm_corpus::stats::top_words_by_df(&corpus, 2);
        if top.len() < 2 {
            return Ok(()); // degenerate single-word corpus: nothing to query
        }
        let miner = PhraseMiner::build(
            &corpus,
            MinerConfig {
                index: ipm_index::corpus_index::IndexConfig {
                    mining: ipm_index::mining::MiningConfig {
                        min_df: 2,
                        max_len: 3,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        );
        let engine = QueryEngine::new(miner);
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        for op in ["AND", "OR"] {
            let input = format!("{} {op} {}", words[0], words[1]);
            for algorithm in [Algorithm::Nra, Algorithm::Smj, Algorithm::Ta, Algorithm::Exact] {
                let mem = engine
                    .search_with(&input, 5, &SearchOptions {
                        algorithm,
                        ..Default::default()
                    })
                    .unwrap();
                let disk = engine
                    .search_with(&input, 5, &SearchOptions {
                        algorithm,
                        backend: BackendChoice::Disk,
                        ..Default::default()
                    })
                    .unwrap();
                prop_assert_eq!(
                    mem.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    disk.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    "{:?} {}: backends disagree on phrases", algorithm, op
                );
                for (a, b) in mem.hits.iter().zip(&disk.hits) {
                    prop_assert!(
                        (a.hit.score - b.hit.score).abs() < 1e-9,
                        "{:?} {}: score drift {} vs {}", algorithm, op, a.hit.score, b.hit.score
                    );
                    prop_assert_eq!(&a.text, &b.text);
                }
                if !disk.served_from_cache {
                    let io = disk.io.expect("disk run reports IO");
                    prop_assert!(io.total_accesses() > 0, "{:?} {}: no IO charged", algorithm, op);
                }
                // The block-compressed backend stores scores as integer
                // rationals over the df table, so its results must match
                // the in-memory lists *bit for bit*, not just within an
                // epsilon.
                let block = engine
                    .search_with(&input, 5, &SearchOptions {
                        algorithm,
                        backend: BackendChoice::Block,
                        ..Default::default()
                    })
                    .unwrap();
                prop_assert_eq!(
                    mem.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    block.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                    "{:?} {}: block backend disagrees on phrases", algorithm, op
                );
                for (a, b) in mem.hits.iter().zip(&block.hits) {
                    prop_assert!(
                        a.hit.score.to_bits() == b.hit.score.to_bits(),
                        "{:?} {}: block score not bit-identical: {} vs {}",
                        algorithm, op, a.hit.score, b.hit.score
                    );
                    prop_assert_eq!(&a.text, &b.text);
                }
                // Even the exact scorer, which never traverses the
                // lists, charges its hits' text lookups.
                if !block.served_from_cache {
                    let io = block.io.expect("block run reports IO");
                    prop_assert!(
                        io.total_accesses() > 0,
                        "{:?} {}: no block IO charged", algorithm, op
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded-execution parity (the partitioned-execution tentpole
    /// invariant): on arbitrary corpora, every algorithm × backend must
    /// return *identical* phrases and scores whether it runs unsharded or
    /// fanned out across N ∈ {2, 3, 8} phrase-id shards — the per-shard
    /// top-k merge is exact because scores factorize per phrase.
    #[test]
    fn sharded_matches_unsharded_for_all_algorithms_and_backends(
        docs in proptest::prop::collection::vec(
            proptest::prop::collection::vec(0u8..10, 2..20), 4..24),
    ) {
        let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
        for d in &docs {
            let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
            b.add_text(&text.join(" "));
        }
        let corpus = b.build();
        let top = ipm_corpus::stats::top_words_by_df(&corpus, 2);
        if top.len() < 2 {
            return Ok(()); // degenerate single-word corpus: nothing to query
        }
        let miner = PhraseMiner::build(
            &corpus,
            MinerConfig {
                index: ipm_index::corpus_index::IndexConfig {
                    mining: ipm_index::mining::MiningConfig {
                        min_df: 2,
                        max_len: 3,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        );
        let engine = QueryEngine::new(miner);
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        for op in ["AND", "OR"] {
            let input = format!("{} {op} {}", words[0], words[1]);
            for backend in [
                BackendChoice::Memory,
                BackendChoice::Disk,
                BackendChoice::Block,
            ] {
                for algorithm in [Algorithm::Nra, Algorithm::Smj, Algorithm::Ta, Algorithm::Exact] {
                    let base = engine
                        .search_with(&input, 5, &SearchOptions {
                            algorithm,
                            backend,
                            ..Default::default()
                        })
                        .unwrap();
                    prop_assert_eq!(base.shards, 1);
                    for n in [2usize, 3, 8] {
                        let sharded = engine
                            .search_with(&input, 5, &SearchOptions {
                                algorithm,
                                backend,
                                shards: Some(n),
                                ..Default::default()
                            })
                            .unwrap();
                        prop_assert_eq!(sharded.shards, n);
                        prop_assert_eq!(
                            base.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                            sharded.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                            "{:?}/{:?} {} @ {} shards: phrases diverge",
                            algorithm, backend, op, n
                        );
                        for (a, b) in base.hits.iter().zip(&sharded.hits) {
                            prop_assert!(
                                (a.hit.score - b.hit.score).abs() < 1e-12,
                                "{:?}/{:?} {} @ {}: score drift {} vs {}",
                                algorithm, backend, op, n, a.hit.score, b.hit.score
                            );
                            prop_assert_eq!(&a.text, &b.text);
                        }
                        if backend != BackendChoice::Memory
                            && !sharded.served_from_cache
                            && !sharded.hits.is_empty()
                        {
                            let io = sharded.io.expect("sharded disk run reports IO");
                            prop_assert!(
                                io.total_accesses() > 0,
                                "{:?} {} @ {}: no IO charged", algorithm, op, n
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The list-lease seam, seen from both sides: `execute_shard` over each
/// shard of a fanout, merged under `plan`'s total order, must equal the
/// engine's own sharded execution bit for bit — and the IO the shard
/// calls add to `io_totals` must sum to exactly the response's `io`.
/// Both callers take their lists from one lease; this fails if the lease
/// forgets the per-query cold reset (IO carries over from the previous
/// call) or books a run's IO into the totals twice.
#[test]
fn execute_shard_reconciles_with_local_execution_across_the_lease() {
    let engine = QueryEngine::with_config(
        miner(),
        EngineConfig {
            cache: None, // every request below must execute
            ..Default::default()
        },
    );
    let m = engine.miner();
    let bits = |hits: &[PhraseHit]| -> Vec<(PhraseId, u64)> {
        hits.iter().map(|h| (h.phrase, h.score.to_bits())).collect()
    };
    let k = 5;
    for op in [Op::And, Op::Or] {
        for query in queries(&m, op).into_iter().take(3) {
            for backend in [
                BackendChoice::Memory,
                BackendChoice::Disk,
                BackendChoice::Block,
            ] {
                for algorithm in [
                    Algorithm::Nra,
                    Algorithm::Smj,
                    Algorithm::Ta,
                    Algorithm::Exact,
                ] {
                    for n in [1usize, 2, 4] {
                        let what = format!(
                            "{algorithm:?}/{backend:?} {} @ {n}",
                            query.render(m.corpus())
                        );
                        let options = SearchOptions {
                            algorithm,
                            backend,
                            shards: Some(n),
                            ..Default::default()
                        };
                        // An IO cap (never reached) makes the disk backend
                        // resolve hit texts in memory, so `io` is list
                        // traffic only — all a shard ever performs.
                        let local = engine
                            .request_query(query.clone())
                            .k(k)
                            .options(options.clone())
                            .io_budget(u64::MAX)
                            .run()
                            .unwrap();
                        let mut merged: Vec<PhraseHit> = Vec::new();
                        let mut shard_io = ipm_storage::IoStats::default();
                        for shard in 0..n {
                            let before = engine.io_totals();
                            let params = ipm_core::ShardExecParams {
                                fetch: k,
                                fanout: n,
                                shard,
                                floor: f64::NEG_INFINITY,
                                batch_size: None,
                            };
                            let out = engine
                                .execute_shard(&query, &options, &params, Budget::none())
                                .unwrap();
                            let io = engine.io_totals().since(&before);
                            assert_eq!(out.io_fetches, io.total_fetches(), "{what}: shard {shard}");
                            shard_io.accumulate(&io);
                            merged.extend(out.hits);
                        }
                        ipm_core::result::sort_hits(&mut merged);
                        merged.truncate(k);
                        let served: Vec<PhraseHit> = local.hits.iter().map(|h| h.hit).collect();
                        assert_eq!(bits(&merged), bits(&served), "{what}: hits");
                        // Sharded NRA first seeds its floor by reading list
                        // prefixes through the same pools; standalone shard
                        // calls (seeded by their coordinator) don't replay
                        // that, so their bill is comparable for every other
                        // configuration only.
                        if algorithm != Algorithm::Nra || n == 1 {
                            assert_eq!(shard_io, local.io.unwrap_or_default(), "{what}: IO");
                        }
                    }
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words: a stable digest that needs no dependency.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The digest words of one NRA run: every traversal counter and every
/// hit's phrase plus the bit patterns of its score and bounds.
fn nra_digest_words(out: &ipm_core::nra::NraOutcome) -> Vec<u64> {
    let s = &out.stats;
    let mut words: Vec<u64> = s.entries_read.iter().map(|&n| n as u64).collect();
    words.extend([
        s.prune_rounds as u64,
        s.peak_candidates as u64,
        u64::from(s.stopped_early),
        out.hits.len() as u64,
    ]);
    for h in &out.hits {
        words.extend([
            u64::from(h.phrase.raw()),
            h.score.to_bits(),
            h.lower.to_bits(),
            h.upper.to_bits(),
        ]);
    }
    words
}

#[test]
fn nra_traversal_is_pinned_on_harvested_queries() {
    // Pins NRA's traversal, not just its answer set: per query, the
    // entries read per list, prune rounds, peak candidate count, whether
    // it stopped early and every hit's (phrase, score, lower, upper) bits.
    // Bookkeeping changes (candidate storage, bound passes, the ranking
    // sort) must leave this digest unchanged; only a change to what NRA
    // reads or returns may move it, and then the new value needs a reason.
    use ipm_core::nra::{run_nra, NraConfig};
    use ipm_index::cursor::MemoryCursor;
    let m = miner();
    let mut words = Vec::new();
    let (mut runs, mut early) = (0usize, 0usize);
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            for batch_size in [1usize, 16, 1024] {
                for fraction in [1.0, 0.5] {
                    let cursors: Vec<_> = q
                        .features
                        .iter()
                        .map(|&f| MemoryCursor::partial(m.lists(), f, fraction))
                        .collect();
                    let cfg = NraConfig {
                        k: 5,
                        batch_size,
                        lists_are_partial: fraction < 1.0,
                        ..Default::default()
                    };
                    let out = run_nra(cursors, q.op, &cfg);
                    runs += 1;
                    early += usize::from(out.stats.stopped_early);
                    words.extend(nra_digest_words(&out));
                }
            }
        }
    }
    assert!(
        early > 0 && early < runs,
        "the pinned mix must hold both early stops and exhausted runs ({early} of {runs})"
    );
    assert_eq!(
        fnv1a(words),
        0xd769_87c4_ba9c_b4f5,
        "NRA's traversal or its hit bits changed on the harvested query mix"
    );
}

#[test]
fn backend_answers_and_block_io_are_pinned_on_harvested_queries() {
    // Pins what the three backends answer, not how: per harvested query,
    // operator, algorithm and fanout, every hit's (phrase, score bits,
    // text) on memory, disk and block, plus the block backend's IoStats
    // under an IO cap that is never reached (capped requests resolve
    // texts without charging, so that bill is list traffic only). A
    // storage refactor must leave the digest unchanged. Disk IO depends
    // on the image's page layout, so it is printed, not pinned.
    let engine = QueryEngine::with_config(
        miner(),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    );
    let m = engine.miner();
    let mut words = Vec::new();
    let mut disk_io = ipm_storage::IoStats::default();
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            for algorithm in [
                Algorithm::Nra,
                Algorithm::Smj,
                Algorithm::Ta,
                Algorithm::Exact,
            ] {
                for n in [1usize, 2, 4] {
                    let run = |backend, cap: Option<u64>| {
                        let req = engine
                            .request_query(q.clone())
                            .k(5)
                            .algorithm(algorithm)
                            .backend(backend)
                            .shards(n);
                        match cap {
                            Some(cap) => req.io_budget(cap),
                            None => req,
                        }
                        .run()
                        .unwrap()
                    };
                    for backend in [
                        BackendChoice::Memory,
                        BackendChoice::Disk,
                        BackendChoice::Block,
                    ] {
                        let resp = run(backend, None);
                        words.push(resp.hits.len() as u64);
                        for h in &resp.hits {
                            words.extend([
                                u64::from(h.hit.phrase.raw()),
                                h.hit.score.to_bits(),
                                fnv1a(h.text.bytes().map(u64::from)),
                            ]);
                        }
                        if backend == BackendChoice::Disk {
                            disk_io.accumulate(&resp.io.expect("disk run reports IO"));
                        }
                    }
                    let io = run(BackendChoice::Block, Some(u64::MAX))
                        .io
                        .expect("block run reports IO");
                    words.extend([io.cache_hits, io.sequential_fetches, io.random_fetches]);
                }
            }
        }
    }
    eprintln!("disk IO over the pinned mix (not pinned): {disk_io:?}");
    assert_eq!(
        fnv1a(words),
        0xa494_4f6b_04ab_f749,
        "a backend's hits, texts or block list IO changed on the harvested query mix"
    );
}

#[test]
fn paged_io_is_pinned_on_harvested_queries() {
    // Pins the bill of both simulated-IO backends: per backend, harvested
    // query, operator, algorithm and fanout, the unbudgeted response's
    // IoStats — list traffic plus each hit's text lookup. Who owns the
    // buffer pool and how a run starts cold must leave this unchanged. On
    // a mismatch every case is printed, one line each, for diffing.
    let engine = QueryEngine::with_config(
        miner(),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    );
    let m = engine.miner();
    let (mut words, mut lines) = (Vec::new(), Vec::new());
    for backend in [BackendChoice::Disk, BackendChoice::Block] {
        for op in [Op::And, Op::Or] {
            for q in queries(&m, op) {
                for algorithm in [
                    Algorithm::Nra,
                    Algorithm::Smj,
                    Algorithm::Ta,
                    Algorithm::Exact,
                ] {
                    for n in [1usize, 2, 4] {
                        let io = engine
                            .request_query(q.clone())
                            .k(5)
                            .algorithm(algorithm)
                            .backend(backend)
                            .shards(n)
                            .run()
                            .unwrap()
                            .io
                            .expect("a simulated-IO run reports IO");
                        words.extend([io.cache_hits, io.sequential_fetches, io.random_fetches]);
                        lines.push(format!(
                            "{backend:?} {algorithm:?} @{n} {}: {} hits {} seq {} rand",
                            q.render(m.corpus()),
                            io.cache_hits,
                            io.sequential_fetches,
                            io.random_fetches
                        ));
                    }
                }
            }
        }
    }
    let digest = fnv1a(words);
    if digest != 0x66f9_9f55_b808_4bdb {
        lines.iter().for_each(|line| eprintln!("{line}"));
    }
    assert_eq!(
        digest, 0x66f9_9f55_b808_4bdb,
        "the disk or block backend's IO changed on the harvested query mix"
    );
}

#[test]
fn hit_texts_are_whole_on_every_backend() {
    // The paper's phrase slot is 50 bytes (§4.2.1). The simulated image
    // charges a lookup per hit against that slot, but every backend
    // renders the text from the dictionary, so a phrase longer than one
    // slot comes back whole — the same string on memory, disk and block.
    let (a, b) = ("α".repeat(25), "β".repeat(24));
    let mut builder = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
    for doc in [
        format!("{a} {b} one"),
        format!("two {a} {b}"),
        format!("{a} {b} three"),
        format!("four five {a}"),
    ] {
        builder.add_text(&doc);
    }
    let miner = PhraseMiner::build(
        &builder.build(),
        MinerConfig {
            index: ipm_index::corpus_index::IndexConfig {
                mining: ipm_index::mining::MiningConfig {
                    min_df: 2,
                    max_len: 2,
                    min_len: 1,
                },
            },
            ..Default::default()
        },
    );
    let long = format!("{a} {b}");
    assert!(long.len() > 50, "the fixture must overflow one phrase slot");
    let query = miner.parse_query(&[&a, &b], Op::Or).unwrap();
    let engine = QueryEngine::new(miner);
    for algorithm in [
        Algorithm::Nra,
        Algorithm::Smj,
        Algorithm::Ta,
        Algorithm::Exact,
    ] {
        let texts = |backend| -> Vec<String> {
            let resp = engine
                .request_query(query.clone())
                .k(5)
                .algorithm(algorithm)
                .backend(backend)
                .run()
                .unwrap();
            resp.hits.into_iter().map(|h| h.text).collect()
        };
        let memory = texts(BackendChoice::Memory);
        assert!(memory.contains(&long), "{algorithm:?}: {memory:?}");
        assert_eq!(texts(BackendChoice::Disk), memory, "{algorithm:?}: disk");
        assert_eq!(texts(BackendChoice::Block), memory, "{algorithm:?}: block");
    }
}

/// A score cursor that panics once it has yielded `left` entries.
struct FaultyCursor<'a> {
    inner: ipm_index::cursor::MemoryCursor<'a>,
    left: usize,
}

impl ipm_index::cursor::ScoredListCursor for FaultyCursor<'_> {
    fn next_entry(&mut self) -> Option<ipm_index::ListEntry> {
        assert!(self.left > 0, "cursor fault");
        self.left -= 1;
        self.inner.next_entry()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn position(&self) -> usize {
        self.inner.position()
    }
}

/// A score cursor whose first read runs a whole nested NRA query on the
/// same thread before it yields anything.
struct NestingCursor<'a, F: FnMut()> {
    inner: ipm_index::cursor::MemoryCursor<'a>,
    nested: Option<F>,
}

impl<F: FnMut()> ipm_index::cursor::ScoredListCursor for NestingCursor<'_, F> {
    fn next_entry(&mut self) -> Option<ipm_index::ListEntry> {
        if let Some(mut run) = self.nested.take() {
            run();
        }
        self.inner.next_entry()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn position(&self) -> usize {
        self.inner.position()
    }
}

#[test]
fn nra_scratch_survives_unwinding_threads_and_reentry() {
    // NRA keeps its candidate table in per-thread scratch, and the server
    // runs engine calls under `catch_unwind` on threads it keeps. A run
    // that dies mid-traversal, runs on many threads at once or re-enters
    // NRA from inside a cursor must leave every later run on that thread
    // bit-identical to one on a fresh thread.
    use ipm_core::nra::{run_nra, NraConfig};
    use ipm_index::cursor::MemoryCursor;
    let m = miner();
    let qs: Vec<Query> = [Op::And, Op::Or]
        .into_iter()
        .flat_map(|op| queries(&m, op))
        .collect();
    let cfg = NraConfig {
        k: 5,
        batch_size: 16,
        ..Default::default()
    };
    let cursors = |q: &Query| -> Vec<MemoryCursor<'_>> {
        q.features
            .iter()
            .map(|&f| MemoryCursor::new(m.lists().list(f)))
            .collect()
    };
    let digest = |q: &Query| nra_digest_words(&run_nra(cursors(q), q.op, &cfg));
    let all = || qs.iter().map(digest).collect::<Vec<_>>();
    let reference = std::thread::scope(|s| s.spawn(all).join().expect("reference thread"));

    // Unwinding: a cursor fault halfway through the deepest traversal.
    let (longest, read) = qs
        .iter()
        .map(|q| (q, run_nra(cursors(q), q.op, &cfg).stats.entries_read))
        .max_by_key(|(_, read)| read.iter().sum::<usize>())
        .expect("queries");
    let faulty: Vec<FaultyCursor<'_>> = cursors(longest)
        .into_iter()
        .zip(&read)
        .map(|(inner, &n)| FaultyCursor { inner, left: n / 2 })
        .collect();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_nra(faulty, longest.op, &cfg)
    }));
    assert!(unwound.is_err(), "the faulty cursor must fire mid-run");
    assert_eq!(all(), reference, "a run after an unwound run diverged");

    // Threads: eight at once, each starting at a different query.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (qs, reference) = (&qs, &reference);
                s.spawn(move || {
                    for i in 0..qs.len() {
                        let at = (i + t) % qs.len();
                        assert_eq!(digest(&qs[at]), reference[at], "thread {t}, query {at}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
    });

    // Re-entry: the outer run's first read runs a whole inner query.
    let (outer, inner) = (&qs[0], &qs[qs.len() - 1]);
    let mut inner_words = Vec::new();
    let mut nested = Some(|| inner_words = digest(inner));
    let nesting: Vec<_> = cursors(outer)
        .into_iter()
        .map(|inner| NestingCursor {
            inner,
            nested: nested.take(),
        })
        .collect();
    let outer_words = nra_digest_words(&run_nra(nesting, outer.op, &cfg));
    assert_eq!(
        outer_words, reference[0],
        "the re-entered outer run diverged"
    );
    assert_eq!(
        inner_words,
        reference[qs.len() - 1],
        "the nested run diverged"
    );
    assert_eq!(all(), reference, "runs after a re-entrant run diverged");
}

#[test]
fn ta_block_hints_agree_and_read_no_deeper_on_skewed_lists() {
    // TA's hint stop (always on where block metadata exists) must return
    // the same phrases over block cursors as over plain memory lists, and
    // must not read deeper over blocks on the zipf-skewed synthetic
    // corpus.
    let m = miner();
    let image = block_image(&m);
    let (mut mem_sorted, mut block_sorted) = (0usize, 0usize);
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            let mem_ta = ipm_core::ta::run_ta_backend(&m.memory_backend(), &q, 5);
            let block_ta = ipm_core::ta::run_ta_backend(image.lists(), &q, 5);
            assert_eq!(
                mem_ta.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
                block_ta.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
                "{op} {}: TA disagrees across cursor kinds",
                q.render(m.corpus())
            );
            mem_sorted += mem_ta.stats.sorted_accesses.iter().sum::<usize>();
            block_sorted += block_ta.stats.sorted_accesses.iter().sum::<usize>();
        }
    }
    assert!(
        block_sorted <= mem_sorted,
        "TA hint stop read deeper over blocks ({block_sorted}) than memory ({mem_sorted})"
    );
}

#[test]
fn frequency_semantics_ablation_df_vs_occurrence() {
    // The system reads Eq. 1's `freq` as document frequency (see
    // `ipm_index::occurrence`). Validate the choice: on topical corpora
    // (few in-document phrase repeats) the occurrence-count reading
    // produces substantially the same top-5.
    let m = miner();
    let occ = ipm_index::occurrence::OccurrenceIndex::build(m.corpus(), &m.index().dict);
    let mut overlap = 0usize;
    let mut total = 0usize;
    for op in [Op::And, Op::Or] {
        for q in queries(&m, op) {
            let by_df: Vec<_> = m.top_k_exact(&q, 5).iter().map(|h| h.phrase).collect();
            let by_occ: Vec<_> = ipm_core::exact::exact_top_k_occurrence(m.index(), &occ, &q, 5)
                .iter()
                .map(|h| h.phrase)
                .collect();
            total += by_df.len();
            overlap += by_df.iter().filter(|p| by_occ.contains(p)).count();
        }
    }
    assert!(total > 0);
    let agreement = overlap as f64 / total as f64;
    assert!(
        agreement >= 0.6,
        "df vs occurrence top-5 agreement only {agreement:.2}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Budget-truncation consistency (the anytime envelope): on arbitrary
    /// corpora, a budget-truncated NRA/TA run may return *fewer* hits or
    /// *looser* bounds than the unbudgeted run — but never a wrong score.
    /// Every truncated hit's `[lower, upper]` interval must bracket the
    /// phrase's true aggregate (taken from a full SMJ scan, which shares
    /// the score scale), resolved hits must match it exactly, and hits
    /// for phrases with no true score (NRA's AND upper-bound phantoms)
    /// must still carry unresolved bounds — across both backends and
    /// shard fanouts.
    #[test]
    fn budget_truncated_runs_are_prefix_consistent(
        docs in proptest::prop::collection::vec(
            proptest::prop::collection::vec(0u8..10, 2..20), 4..24),
        steps in 1u64..24,
    ) {
        let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
        for d in &docs {
            let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
            b.add_text(&text.join(" "));
        }
        let corpus = b.build();
        let top = ipm_corpus::stats::top_words_by_df(&corpus, 2);
        if top.len() < 2 {
            return Ok(()); // degenerate single-word corpus: nothing to query
        }
        let miner = PhraseMiner::build(
            &corpus,
            MinerConfig {
                index: ipm_index::corpus_index::IndexConfig {
                    mining: ipm_index::mining::MiningConfig {
                        min_df: 2,
                        max_len: 3,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        );
        // No result cache: a cache hit would satisfy the budgeted request
        // without ever exercising truncation.
        let engine = QueryEngine::with_config(
            miner,
            ipm_core::EngineConfig {
                cache: None,
                ..Default::default()
            },
        );
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        for op in ["AND", "OR"] {
            let input = format!("{} {op} {}", words[0], words[1]);
            let query = engine.miner().parse_query_str(&input).unwrap();
            // Ground truth on the same score scale: the full SMJ scan.
            let truth: Vec<_> = engine.miner().top_k_smj(&query, 100_000);
            let true_score = |p: ipm_corpus::PhraseId| {
                truth.iter().find(|h| h.phrase == p).map(|h| h.score)
            };
            for algorithm in [Algorithm::Nra, Algorithm::Ta] {
                for backend in [
                    BackendChoice::Memory,
                    BackendChoice::Disk,
                    BackendChoice::Block,
                ] {
                    for shards in [1usize, 3] {
                        let full = engine
                            .request(input.clone())
                            .k(5)
                            .algorithm(algorithm)
                            .backend(backend)
                            .shards(shards)
                            .run()
                            .unwrap();
                        let truncated = engine
                            .request(input.clone())
                            .k(5)
                            .algorithm(algorithm)
                            .backend(backend)
                            .shards(shards)
                            .step_budget(steps)
                            .run()
                            .unwrap();
                        if !truncated.completeness.is_truncated() {
                            // The budget never tripped (cache hit or the
                            // run finished first): results must be the
                            // unbudgeted answer, bit for bit.
                            prop_assert_eq!(
                                full.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                                truncated.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
                                "{:?}/{:?} {} @ {}: untripped budget changed results",
                                algorithm, backend, op, shards
                            );
                            continue;
                        }
                        prop_assert!(
                            !truncated.served_from_cache,
                            "truncated responses must never come from (or enter) the cache"
                        );
                        for h in &truncated.hits {
                            match true_score(h.hit.phrase) {
                                Some(t) => {
                                    prop_assert!(
                                        h.hit.lower <= t + 1e-9 && t <= h.hit.upper + 1e-9,
                                        "{:?}/{:?} {} @ {} steps {}: bounds [{}, {}] miss true {}",
                                        algorithm, backend, op, shards, steps,
                                        h.hit.lower, h.hit.upper, t
                                    );
                                    if h.hit.is_resolved() {
                                        prop_assert!(
                                            (h.hit.score - t).abs() < 1e-9,
                                            "{:?}/{:?}: resolved score {} != true {}",
                                            algorithm, backend, h.hit.score, t
                                        );
                                    }
                                }
                                None => prop_assert!(
                                    !h.hit.is_resolved(),
                                    "{:?}/{:?} {}: phantom phrase {:?} presented as resolved",
                                    algorithm, backend, op, h.hit.phrase
                                ),
                            }
                        }
                        // TA resolves every admitted hit: a truncated TA
                        // run is an exactly-scored subset of the truth.
                        if algorithm == Algorithm::Ta {
                            for h in &truncated.hits {
                                prop_assert!(h.hit.is_resolved());
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Distributed merge parity (protocol v5): a router scattering over
    /// loopback shard servers must return hits *byte-identical on the
    /// wire* to single-process sharded execution of the same request —
    /// for all four algorithms, all three backends, and fanouts 2 and 4.
    /// The shard tier and the coordinator run separate engine handles
    /// over the same corpus build, exactly the deployment contract.
    #[test]
    fn routed_matches_single_process_for_all_algorithms_backends_fanouts(
        docs in proptest::prop::collection::vec(
            proptest::prop::collection::vec(0u8..10, 2..20), 6..24),
    ) {
        let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
        for d in &docs {
            let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
            b.add_text(&text.join(" "));
        }
        let corpus = b.build();
        let top = ipm_corpus::stats::top_words_by_df(&corpus, 2);
        if top.len() < 2 {
            return Ok(()); // degenerate single-word corpus: nothing to query
        }
        let miner = PhraseMiner::build(
            &corpus,
            MinerConfig {
                index: ipm_index::corpus_index::IndexConfig {
                    mining: ipm_index::mining::MiningConfig {
                        min_df: 2,
                        max_len: 3,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        );
        let engine = QueryEngine::with_config(miner, EngineConfig {
            cache: None,
            ..Default::default()
        });
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        for fanout in [2usize, 4] {
            let shard_servers: Vec<ServerHandle> = (0..fanout)
                .map(|_| {
                    Server::spawn(engine.clone(), ServerConfig {
                        addr: "127.0.0.1:0".to_owned(),
                        workers: 2,
                        queue_depth: 16,
                        fault_delay_ms: 0,
                    })
                    .expect("bind shard server")
                })
                .collect();
            let router = Router::spawn(engine.clone(), RouterConfig {
                addr: "127.0.0.1:0".to_owned(),
                shards: shard_servers
                    .iter()
                    .map(|s| vec![s.addr().to_string()])
                    .collect(),
                ..Default::default()
            })
            .expect("bind router");
            let mut client = Client::connect(&router.addr().to_string()).expect("connect");
            for op in ["AND", "OR"] {
                let input = format!("{} {op} {}", words[0], words[1]);
                for algorithm in ["nra", "smj", "ta", "exact"] {
                    for backend in ["memory", "disk", "block"] {
                        let mut req = WireSearchRequest::new(input.clone());
                        req.k = 5;
                        req.algorithm =
                            ipm_server::wire::algorithm_from_str(algorithm).unwrap();
                        req.backend = ipm_server::wire::backend_from_str(backend).unwrap();
                        let routed = client.search(&req).expect("roundtrip");
                        prop_assert_eq!(
                            routed["ok"].as_bool(),
                            Some(true),
                            "router error ({} {} fanout {}): {:?}",
                            algorithm, backend, fanout, routed
                        );
                        let mut opts = req.options();
                        opts.shards = Some(fanout);
                        let local = engine.search_with(&input, 5, &opts).unwrap();
                        prop_assert_eq!(
                            serde_json::to_string(&routed["result"]["hits"]).unwrap(),
                            serde_json::to_string(&ipm_server::wire::hits_value(&local))
                                .unwrap(),
                            "{} {} fanout {}: routed hits must be byte-identical",
                            algorithm, backend, fanout
                        );
                        prop_assert_eq!(
                            serde_json::to_string(&routed["result"]["completeness"]).unwrap(),
                            serde_json::to_string(&ipm_server::wire::completeness_value(
                                &local.completeness
                            ))
                            .unwrap(),
                            "{} {} fanout {}: completeness must agree",
                            algorithm, backend, fanout
                        );
                    }
                }
            }
        }
    }
}

/// The uncached engine the golden cases run on.
fn golden_engine() -> QueryEngine {
    QueryEngine::with_config(
        miner(),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    )
}

/// The golden's delta: 3 ingests and 2 deletes.
fn apply_golden_delta(engine: &QueryEngine) {
    let m = engine.miner();
    for doc in [1u32, 2, 3] {
        let d = m.corpus().doc(ipm_corpus::DocId(doc)).unwrap();
        engine.ingest_document(&d.tokens, &d.facets);
    }
    for doc in [4u32, 7] {
        assert!(engine.delete_document(ipm_corpus::DocId(doc)));
    }
}

/// One golden line per case: its key, the completeness label and every
/// hit's phrase id, score/lower/upper bit patterns and text.
fn golden_line(key: &str, resp: &SearchResponse) -> String {
    let hits: Vec<String> = resp
        .hits
        .iter()
        .map(|h| {
            format!(
                "{}:{:016x}/{:016x}/{:016x} {:?}",
                h.hit.phrase.raw(),
                h.hit.score.to_bits(),
                h.hit.lower.to_bits(),
                h.hit.upper.to_bits(),
                h.text
            )
        })
        .collect();
    format!("{key} | {} | {}", resp.completeness, hits.join(" ; "))
}

#[test]
fn engine_answers_match_the_golden() {
    // Pins what the engine answers on the harvested mix, readably: per
    // operator, query, algorithm and fanout, with and without a §4.5.1
    // delta (3 ingests and 2 deletes, queried with `use_delta`), and
    // unbudgeted or under a 2-step budget, the hits' bits and texts and
    // the completeness label.
    // A mismatch prints the first differing lines; `IPM_BLESS=1`
    // rewrites the file.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_answers.txt");
    let engine = golden_engine();
    let m = engine.miner();
    let mut lines = Vec::new();
    for delta in [false, true] {
        if delta {
            apply_golden_delta(&engine);
        }
        for op in [Op::And, Op::Or] {
            for (i, q) in queries(&m, op).into_iter().enumerate() {
                for algorithm in [
                    Algorithm::Nra,
                    Algorithm::Smj,
                    Algorithm::Ta,
                    Algorithm::Exact,
                ] {
                    for n in [1usize, 2, 4] {
                        for steps in [None, Some(2u64)] {
                            let req = engine
                                .request_query(q.clone())
                                .k(5)
                                .algorithm(algorithm)
                                .shards(n)
                                .use_delta(delta);
                            let resp = match steps {
                                Some(cap) => req.step_budget(cap),
                                None => req,
                            }
                            .run()
                            .unwrap();
                            let key = format!(
                                "{op} q{i:02} {algorithm:?} @{n} {} {}",
                                if delta { "delta" } else { "base" },
                                if steps.is_some() {
                                    "steps2"
                                } else {
                                    "unbudgeted"
                                }
                            );
                            lines.push(golden_line(&key, &resp));
                        }
                    }
                }
            }
        }
    }
    let got = lines.join("\n") + "\n";
    if std::env::var_os("IPM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run with IPM_BLESS=1 to create it)",
            path.display()
        )
    });
    if got != want {
        let (want_lines, got_lines): (Vec<_>, Vec<_>) =
            (want.lines().collect(), got.lines().collect());
        let mut shown = 0;
        for i in 0..want_lines.len().max(got_lines.len()) {
            let (w, g) = (want_lines.get(i), got_lines.get(i));
            if w != g && shown < 10 {
                eprintln!(
                    "line {}:\n  want {}\n  got  {}",
                    i + 1,
                    w.unwrap_or(&"<none>"),
                    g.unwrap_or(&"<none>")
                );
                shown += 1;
            }
        }
        panic!(
            "engine answers differ from {} ({} vs {} lines); IPM_BLESS=1 rewrites it",
            path.display(),
            got_lines.len(),
            want_lines.len()
        );
    }
}

/// The step cap is the deterministic throttle at every fanout: each
/// shard counts its own checkpoints against its share of the cap, so a
/// sharded step-capped query stops at the same place, with the same
/// hits, however its shard threads interleave.
#[test]
fn sharded_step_capped_runs_are_reproducible() {
    let engine = golden_engine();
    let m = engine.miner();
    for delta in [false, true] {
        if delta {
            apply_golden_delta(&engine);
        }
        for op in [Op::And, Op::Or] {
            for (i, q) in queries(&m, op).into_iter().enumerate() {
                for algorithm in [
                    Algorithm::Nra,
                    Algorithm::Smj,
                    Algorithm::Ta,
                    Algorithm::Exact,
                ] {
                    for n in [2usize, 4] {
                        let key = format!("{op} q{i:02} {algorithm:?} @{n} delta={delta}");
                        let run = || {
                            let resp = engine
                                .request_query(q.clone())
                                .k(5)
                                .algorithm(algorithm)
                                .shards(n)
                                .use_delta(delta)
                                .step_budget(2)
                                .run()
                                .unwrap();
                            assert!(resp.completeness.is_truncated(), "{key}");
                            golden_line(&key, &resp)
                        };
                        let first = run();
                        for _ in 1..20 {
                            assert_eq!(run(), first, "a step-capped run changed its answer");
                        }
                    }
                }
            }
        }
    }
}
