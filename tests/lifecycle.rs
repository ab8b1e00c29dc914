//! Lifecycle equivalence (acceptance criteria of the live-index PR):
//!
//! (a) delta-corrected **SMJ** (and TA, and the exact scorer) over the
//!     *stale* index equals the same algorithm over an index rebuilt from
//!     scratch on the updated corpus — the paper's §4.5.1 exactness —
//!     across both backends and shard fanouts {1, 4};
//! (b) after `compact()`, all four algorithms equal the from-scratch
//!     rebuild and report `Exact`;
//! (c) concurrent queries racing `compact()` never error and always
//!     return results consistent with either the pre- or post-swap epoch.
//!
//! Update batches duplicate existing documents (plus arbitrary deletes):
//! duplication never creates a feature/phrase pair the stale lists lack,
//! which is exactly the regime where the paper's correction argument is
//! complete (genuinely new pairs and phrases are deferred to the rebuild
//! — covered by (b)). `min_df = 1` keeps every base phrase in the stale
//! dictionary so the rebuilt dictionary is never larger than it.

use interesting_phrases::prelude::*;
use ipm_core::DeltaIndex;
use proptest::prelude::*;

fn lifecycle_config() -> MinerConfig {
    MinerConfig {
        index: ipm_index::corpus_index::IndexConfig {
            mining: ipm_index::mining::MiningConfig {
                min_df: 1,
                max_len: 3,
                min_len: 1,
            },
        },
        ..Default::default()
    }
}

fn corpus_from(docs: &[Vec<u8>]) -> Corpus {
    let mut b = CorpusBuilder::new(TokenizerConfig::default());
    for d in docs {
        let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
        b.add_text(&text.join(" "));
    }
    b.build()
}

/// `(text, score-bits-within-1e-12)` comparison key for one response,
/// sorted by text — phrase ids differ between a stale index and a
/// rebuild, so identity goes through the rendered phrase.
fn keyed(hits: &[SearchHit]) -> Vec<(String, f64)> {
    let mut v: Vec<(String, f64)> = hits.iter().map(|h| (h.text.clone(), h.hit.score)).collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn assert_keyed_eq(got: &[(String, f64)], want: &[(String, f64)], what: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{what}: candidate sets differ\n got: {got:?}\nwant: {want:?}"
    );
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{what}: phrase drift");
        assert!(
            (g.1 - w.1).abs() < 1e-12,
            "{what}: score drift for '{}': {} vs {}",
            g.0,
            g.1,
            w.1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn delta_equals_rebuild_and_compaction_restores_exactness(
        docs in prop::collection::vec(prop::collection::vec(0u8..8, 2..12), 6..14),
        adds in prop::collection::vec(0usize..64, 0..6),
        dels in prop::collection::vec(0usize..64, 0..4),
    ) {
        let corpus = corpus_from(&docs);
        let top = ipm_corpus::stats::top_words_by_df(&corpus, 2);
        if top.len() < 2 {
            return Ok(()); // degenerate single-word corpus
        }
        let engine = QueryEngine::with_config(
            PhraseMiner::build(&corpus, lifecycle_config()),
            ipm_core::EngineConfig { cache: None, ..Default::default() },
        );

        // Apply the update batch through the engine's ingestion API:
        // adds duplicate existing documents, deletes are idempotent.
        let n = docs.len();
        let mut expected: Vec<(Vec<WordId>, Vec<ipm_corpus::FacetId>)> = Vec::new();
        let mut deleted = vec![false; n];
        for &d in &dels {
            deleted[d % n] = true;
        }
        for (i, d) in corpus.docs().iter().enumerate() {
            if !deleted[i] {
                expected.push((d.tokens.clone(), d.facets.clone()));
            }
        }
        for &a in &adds {
            let src = corpus.doc(DocId((a % n) as u32)).unwrap();
            engine.ingest_document(&src.tokens, &src.facets);
            expected.push((src.tokens.clone(), src.facets.clone()));
        }
        for &d in &dels {
            engine.delete_document(DocId((d % n) as u32));
        }

        // Ground truth: a from-scratch rebuild over the updated corpus
        // (shared vocabulary, same construction order as compaction).
        let rebuilt_corpus = corpus.with_docs(expected);
        let reference = QueryEngine::with_config(
            PhraseMiner::build(&rebuilt_corpus, lifecycle_config()),
            ipm_core::EngineConfig { cache: None, ..Default::default() },
        );

        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        let k = 10_000; // cover every candidate: no tie-break sensitivity
        for op in ["AND", "OR"] {
            let input = format!("{} {op} {}", words[0], words[1]);

            // (a) corrected SMJ/TA/exact over the stale index equal the
            // rebuild, across backends and fanouts.
            for alg in [Algorithm::Smj, Algorithm::Ta, Algorithm::Exact] {
                let want = keyed(
                    &reference
                        .request(input.clone())
                        .k(k)
                        .algorithm(alg)
                        .run()
                        .unwrap()
                        .hits,
                );
                for backend in [
                    BackendChoice::Memory,
                    BackendChoice::Disk,
                    BackendChoice::Block,
                ] {
                    for shards in [1usize, 4] {
                        let resp = engine
                            .request(input.clone())
                            .k(k)
                            .algorithm(alg)
                            .backend(backend)
                            .shards(shards)
                            .use_delta(true)
                            .run()
                            .unwrap();
                        prop_assert!(
                            resp.completeness.is_exact(),
                            "{alg:?}: corrections must keep the label exact, got {:?}",
                            resp.completeness
                        );
                        assert_keyed_eq(
                            &keyed(&resp.hits),
                            &want,
                            &format!("(a) {alg:?}/{backend:?}/{op} @ {shards} shards"),
                        );
                    }
                }
            }
        }

        // (b) compaction flushes the delta into a full rebuild: all four
        // algorithms equal the reference and report Exact.
        let report = engine.compact();
        let delta_was_active = report.compacted;
        if delta_was_active {
            prop_assert_eq!(engine.lifecycle_stats().delta_docs, 0);
        }
        for op in ["AND", "OR"] {
            let input = format!("{} {op} {}", words[0], words[1]);
            for alg in [Algorithm::Nra, Algorithm::Smj, Algorithm::Ta, Algorithm::Exact] {
                let want = keyed(
                    &reference
                        .request(input.clone())
                        .k(k)
                        .algorithm(alg)
                        .run()
                        .unwrap()
                        .hits,
                );
                for backend in [
                    BackendChoice::Memory,
                    BackendChoice::Disk,
                    BackendChoice::Block,
                ] {
                    for shards in [1usize, 4] {
                        let resp = engine
                            .request(input.clone())
                            .k(k)
                            .algorithm(alg)
                            .backend(backend)
                            .shards(shards)
                            .use_delta(true) // post-compaction no-op
                            .run()
                            .unwrap();
                        prop_assert!(
                            resp.completeness.is_exact(),
                            "(b) {alg:?}: post-compaction runs must be exact, got {:?}",
                            resp.completeness
                        );
                        assert_keyed_eq(
                            &keyed(&resp.hits),
                            &want,
                            &format!("(b) {alg:?}/{backend:?}/{op} @ {shards} shards"),
                        );
                    }
                }
            }
        }
    }
}

/// (c) Queries racing `compact()` never error and every response is
/// consistent with either the pre-swap (delta-corrected) or post-swap
/// (rebuilt) epoch — the atomic-swap guarantee.
#[test]
fn queries_racing_compaction_see_one_epoch_or_the_other() {
    let docs: Vec<Vec<u8>> = vec![
        vec![0, 1, 2],
        vec![0, 1],
        vec![1, 2],
        vec![0, 2],
        vec![0, 1, 2, 3],
        vec![3, 1],
    ];
    let corpus = corpus_from(&docs);
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, lifecycle_config()),
        ipm_core::EngineConfig::default(),
    );
    // Skew the scores: many duplicates of doc 0.
    let src = corpus.doc(DocId(0)).unwrap();
    let batch: Vec<(Vec<WordId>, Vec<ipm_corpus::FacetId>)> = (0..8)
        .map(|_| (src.tokens.clone(), src.facets.clone()))
        .collect();
    engine.ingest_documents(&batch);

    let input = "t0 OR t1".to_owned();
    let k = 10_000;
    let run = |e: &QueryEngine| {
        keyed(
            &e.request(input.clone())
                .k(k)
                .algorithm(Algorithm::Smj)
                .use_delta(true)
                .run()
                .unwrap()
                .hits,
        )
    };
    let pre = run(&engine);
    // The post state equals a from-scratch rebuild on base + batch.
    let post = {
        let mut all: Vec<(Vec<WordId>, Vec<ipm_corpus::FacetId>)> = corpus
            .docs()
            .iter()
            .map(|d| (d.tokens.clone(), d.facets.clone()))
            .collect();
        all.extend(batch.iter().cloned());
        let reference = QueryEngine::new(PhraseMiner::build(
            &corpus.with_docs(all),
            lifecycle_config(),
        ));
        run(&reference)
    };
    // Corrected-stale and rebuilt agree on values (paper §4.5.1), so the
    // race check below would be vacuous only if the delta changed
    // nothing; make sure it did change something vs the un-corrected run.
    let uncorrected = keyed(
        &engine
            .request(input.clone())
            .k(k)
            .algorithm(Algorithm::Smj)
            .run()
            .unwrap()
            .hits,
    );
    assert_ne!(pre, uncorrected, "delta must actually move scores");

    let barrier = std::sync::Barrier::new(5);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let engine = engine.clone();
            let pre = pre.clone();
            let post = post.clone();
            let barrier = &barrier;
            let input = input.clone();
            s.spawn(move || {
                barrier.wait();
                for _ in 0..60 {
                    let resp = engine
                        .request(input.clone())
                        .k(k)
                        .algorithm(Algorithm::Smj)
                        .use_delta(true)
                        .run()
                        .expect("racing query must never error");
                    let got = keyed(&resp.hits);
                    assert!(
                        got == pre || got == post,
                        "response from neither epoch:\n got {got:?}\n pre {pre:?}\npost {post:?}"
                    );
                }
            });
        }
        barrier.wait();
        let report = engine.compact();
        assert!(report.compacted);
        assert_eq!(report.absorbed_adds, 8);
    });
    // After the race settles the engine answers from the rebuilt epoch.
    assert_eq!(run(&engine), post);
    assert!(engine.epoch() > 0);
}

/// Epoch bumps are conditional on actual state changes: no-op delta
/// operations leave the epoch — and therefore every cached result —
/// untouched (the satellite fix for unconditional cache clears).
#[test]
fn noop_delta_operations_keep_cache_warm() {
    let docs: Vec<Vec<u8>> = vec![vec![0, 1], vec![0, 1, 2], vec![1, 2], vec![0, 2]];
    let corpus = corpus_from(&docs);
    let engine = QueryEngine::new(PhraseMiner::build(&corpus, lifecycle_config()));
    let epoch0 = engine.epoch();

    assert!(
        !engine
            .request("t0 OR t1")
            .k(5)
            .run()
            .unwrap()
            .served_from_cache
    );
    assert!(
        engine
            .request("t0 OR t1")
            .k(5)
            .run()
            .unwrap()
            .served_from_cache
    );

    // Detaching with nothing attached: no-op.
    engine.detach_delta();
    // An update whose closure changes nothing: no-op.
    engine.update_delta(|_| {});
    // Attaching an empty delta over an empty one: no-op.
    engine.attach_delta(DeltaIndex::new());
    // Detaching the (still empty) delta: no-op.
    engine.detach_delta();
    // Deleting an out-of-range document: no-op.
    assert!(!engine.delete_document(DocId(u32::MAX)));
    assert_eq!(engine.epoch(), epoch0, "no-ops must not bump the epoch");
    assert!(
        engine
            .request("t0 OR t1")
            .k(5)
            .run()
            .unwrap()
            .served_from_cache,
        "no-op lifecycle calls must keep cached results warm"
    );

    // A real mutation bumps the epoch exactly once and the old entry
    // stops matching.
    assert!(engine.delete_document(DocId(0)));
    assert_eq!(engine.epoch(), epoch0 + 1);
    assert!(
        !engine
            .request("t0 OR t1")
            .k(5)
            .run()
            .unwrap()
            .served_from_cache
    );
    // Deleting the same document again: back to no-op.
    assert!(!engine.delete_document(DocId(0)));
    assert_eq!(engine.epoch(), epoch0 + 1);
    // A no-op compaction (delta holds only a delete? no — deletes count)
    // ... an *empty-delta* compaction is a no-op: detach first.
    engine.detach_delta();
    let epoch_now = engine.epoch();
    let report = engine.compact();
    assert!(!report.compacted, "empty delta: compaction is a no-op");
    assert_eq!(engine.epoch(), epoch_now);
    assert_eq!(report.elapsed, std::time::Duration::ZERO);
}

/// Regression: an `update_delta` closure that *replaces* the delta with
/// a different one of identical counts must still bump the epoch — the
/// fingerprint is per-state, not per-count, so equal `(adds, deletes)`
/// sizes cannot alias two different corrections.
#[test]
fn wholesale_delta_replacement_bumps_the_epoch() {
    let docs: Vec<Vec<u8>> = vec![vec![0, 1], vec![0, 1, 2], vec![1, 2], vec![0, 2]];
    let corpus = corpus_from(&docs);
    let engine = QueryEngine::new(PhraseMiner::build(&corpus, lifecycle_config()));
    let miner = engine.miner();
    let w0 = corpus.word_id("t0").unwrap();
    let w2 = corpus.word_id("t2").unwrap();
    engine.update_delta(|d| d.add_document(miner.index(), &[w0], &[]));
    let epoch_after_add = engine.epoch();

    // Warm the delta-corrected cache entry.
    assert!(
        !engine
            .request("t0 OR t1")
            .k(5)
            .use_delta(true)
            .run()
            .unwrap()
            .served_from_cache
    );
    assert!(
        engine
            .request("t0 OR t1")
            .k(5)
            .use_delta(true)
            .run()
            .unwrap()
            .served_from_cache
    );

    // Replace the whole delta with a different single-add delta: same
    // (1, 0) counts, different corrections.
    engine.update_delta(|d| {
        let mut fresh = DeltaIndex::new();
        fresh.add_document(miner.index(), &[w2], &[]);
        *d = fresh;
    });
    assert!(
        engine.epoch() > epoch_after_add,
        "replacement with equal counts must still bump the epoch"
    );
    assert!(
        !engine
            .request("t0 OR t1")
            .k(5)
            .use_delta(true)
            .run()
            .unwrap()
            .served_from_cache,
        "the pre-replacement cached result must not be served"
    );
}
