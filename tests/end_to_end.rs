//! End-to-end integration tests spanning all workspace crates: corpus →
//! mining → indexes → word lists → NRA/SMJ/exact → baselines → metrics.

use interesting_phrases::prelude::*;
use ipm_baselines::{ForwardIndexBaseline, GmBaseline, SimitsisBaseline, TopKBaseline};
use ipm_core::query::Operator as Op;
use ipm_eval::RelevanceJudgments;

fn build_miner() -> PhraseMiner {
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

fn queries(miner: &PhraseMiner, op: Op, n: usize) -> Vec<Query> {
    let ws = ipm_eval::harvest_queries(
        miner.index(),
        &ipm_eval::QuerySetConfig {
            count: n,
            seed: 77,
            fixed_lengths: vec![],
            fill_len_range: (2, 3),
            min_and_matches: 1,
        },
    );
    ipm_eval::queryset::to_queries(&ws, op)
}

#[test]
fn full_pipeline_produces_results() {
    let miner = build_miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&miner, op, 5) {
            let exact = miner.top_k_exact(&q, 5);
            assert!(!exact.is_empty(), "exact empty for {:?}", q);
            let nra = miner.top_k_nra(&q, 5);
            assert!(!nra.hits.is_empty());
            let smj = miner.top_k_smj(&q, 5);
            assert!(!smj.is_empty());
        }
    }
}

#[test]
fn nra_and_smj_return_identical_results_on_full_lists() {
    // Paper §5.3: "Since SMJ and NRA differ only in the organization of the
    // lists and the traversal strategy, these give exactly the same results
    // for any query-dataset combination."
    let miner = build_miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&miner, op, 10) {
            let nra = miner.top_k_nra(&q, 5);
            let smj = miner.top_k_smj(&q, 5);
            assert_eq!(
                nra.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
                smj.iter().map(|h| h.phrase).collect::<Vec<_>>(),
                "{op} query {:?}",
                q.render(miner.corpus())
            );
            for (a, b) in nra.hits.iter().zip(&smj) {
                assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn all_exact_methods_agree() {
    let miner = build_miner();
    let gm = GmBaseline::build(miner.index());
    let fi = ForwardIndexBaseline::new();
    for op in [Op::And, Op::Or] {
        for q in queries(&miner, op, 6) {
            let truth = miner.top_k_exact(&q, 5);
            let gm_hits = gm.top_k(miner.index(), &q, 5);
            let fi_hits = fi.top_k(miner.index(), &q, 5);
            let ids = |hs: &[ipm_core::result::PhraseHit]| {
                hs.iter().map(|h| h.phrase).collect::<Vec<_>>()
            };
            assert_eq!(ids(&truth), ids(&gm_hits));
            assert_eq!(ids(&truth), ids(&fi_hits));
        }
    }
}

#[test]
fn simitsis_returns_true_scores_for_returned_phrases() {
    let miner = build_miner();
    let sim = SimitsisBaseline::build(miner.index());
    for q in queries(&miner, Op::Or, 5) {
        let subset = ipm_core::exact::materialize_subset(miner.index(), &q);
        for h in sim.top_k(miner.index(), &q, 5) {
            let real = ipm_core::exact::exact_interestingness(miner.index(), &subset, h.phrase);
            assert!((h.score - real).abs() < 1e-12);
        }
    }
}

#[test]
fn disk_and_memory_nra_agree_and_account_io() {
    let engine = QueryEngine::new(build_miner());
    let miner = engine.miner();
    for op in [Op::And, Op::Or] {
        for q in queries(&miner, op, 5) {
            let disk_out = engine
                .request_query(q.clone())
                .k(5)
                .backend(BackendChoice::Disk)
                .run()
                .unwrap();
            let io = disk_out.io.expect("disk runs report IoStats");
            let mem_out = miner.top_k_nra(&q, 5);
            assert_eq!(
                disk_out
                    .hits
                    .iter()
                    .map(|h| h.hit.phrase)
                    .collect::<Vec<_>>(),
                mem_out.hits.iter().map(|h| h.phrase).collect::<Vec<_>>()
            );
            if !disk_out.hits.is_empty() {
                assert!(io.total_accesses() > 0);
            }
        }
    }
}

#[test]
fn quality_of_full_list_methods_is_high() {
    // With full lists, the only quality loss comes from the independence
    // assumption; the paper reports >90% across measures. On the tiny
    // topical corpus the same should hold approximately.
    let miner = build_miner();
    let mut per_query = Vec::new();
    for q in queries(&miner, Op::Or, 10) {
        let judge = RelevanceJudgments::compute(miner.index(), &q, 5);
        let out = miner.top_k_nra(&q, 5);
        per_query.push(judge.score(&out.hits, 5));
    }
    let mean = ipm_eval::QualityScores::mean(&per_query);
    assert!(mean.ndcg > 0.6, "OR NDCG too low: {mean:?}");
    assert!(mean.mrr > 0.6, "OR MRR too low: {mean:?}");
}

#[test]
fn partial_lists_trade_accuracy_for_reads() {
    let miner = build_miner();
    let qs = queries(&miner, Op::Or, 8);
    let mut reads_20 = 0usize;
    let mut reads_full = 0usize;
    for q in &qs {
        reads_20 += miner
            .top_k_nra_partial(q, 5, 0.2)
            .stats
            .total_entries_read();
        reads_full += miner.top_k_nra(q, 5).stats.total_entries_read();
    }
    assert!(reads_20 <= reads_full);
}

#[test]
fn facet_queries_work_end_to_end() {
    let miner = build_miner();
    let facet_str = {
        let (_, s) = miner
            .corpus()
            .facets()
            .iter()
            .next()
            .expect("tiny corpus has facets");
        s.to_owned()
    };
    let q = miner.parse_query(&[facet_str.as_str()], Op::And).unwrap();
    let exact = miner.top_k_exact(&q, 5);
    let nra = miner.top_k_nra(&q, 5);
    assert!(!exact.is_empty());
    assert!(!nra.hits.is_empty());
    // Single-feature queries need no independence assumption: results match.
    assert_eq!(
        exact.iter().map(|h| h.phrase).collect::<Vec<_>>(),
        nra.hits.iter().map(|h| h.phrase).collect::<Vec<_>>()
    );
}

#[test]
fn single_word_query_nra_equals_exact() {
    // For r = 1 the independence assumption is vacuous: S(p, Q) = P(q|p) =
    // I(p, D') exactly, so the approximate and exact rankings coincide.
    let miner = build_miner();
    let top = ipm_corpus::stats::top_words_by_df(miner.corpus(), 3);
    for &(w, _) in &top {
        let term = miner.corpus().words().term_unchecked(w).to_owned();
        let q = miner.parse_query(&[term.as_str()], Op::Or).unwrap();
        let exact = miner.top_k_exact(&q, 5);
        let nra = miner.top_k_nra(&q, 5);
        assert_eq!(
            exact.iter().map(|h| h.phrase).collect::<Vec<_>>(),
            nra.hits.iter().map(|h| h.phrase).collect::<Vec<_>>()
        );
        for (e, n) in exact.iter().zip(&nra.hits) {
            assert!((e.score - n.score).abs() < 1e-9);
        }
    }
}

#[test]
fn prelude_covers_the_serving_surface() {
    // Everything a downstream server needs must come in through the
    // prelude: engine, options, measures, redundancy config.
    let miner = build_miner();
    let engine = QueryEngine::new(miner);
    let top = ipm_corpus::stats::top_words_by_df(engine.miner().corpus(), 2);
    let q = top
        .iter()
        .map(|&(w, _)| engine.miner().corpus().words().term(w).unwrap().to_owned())
        .collect::<Vec<_>>()
        .join(" OR ");

    // Engine search with the §5.6 filter through prelude types only.
    let resp = engine
        .search_with(
            &q,
            5,
            &SearchOptions {
                algorithm: Algorithm::Smj,
                redundancy: Some(RedundancyConfig::default()),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(resp.hits.len() <= 5);

    // Alternative measures through the prelude.
    let parsed = engine.miner().parse_query_str(&q).unwrap();
    let pmi =
        ipm_core::measures::exact_top_k_measure(engine.miner().index(), &parsed, 5, Measure::Pmi);
    let i = engine.miner().top_k_exact(&parsed, 5);
    assert_eq!(
        pmi.iter().map(|h| h.phrase).collect::<Vec<_>>(),
        i.iter().map(|h| h.phrase).collect::<Vec<_>>(),
        "PMI must be rank-equivalent to Eq. 1"
    );
}

#[test]
fn engine_exact_and_approximate_agree_on_saturated_corpus() {
    let miner = build_miner();
    let engine = QueryEngine::new(miner);
    let top = ipm_corpus::stats::top_words_by_df(engine.miner().corpus(), 2);
    let q = top
        .iter()
        .map(|&(w, _)| engine.miner().corpus().words().term(w).unwrap().to_owned())
        .collect::<Vec<_>>()
        .join(" AND ");
    let nra = engine.request(&q).k(5).run().unwrap();
    let exact = engine
        .search_with(
            &q,
            5,
            &SearchOptions {
                algorithm: Algorithm::Exact,
                ..Default::default()
            },
        )
        .unwrap();
    // Estimated interestingness of approximate results must be within the
    // paper's observed error band of the exact scores at the same rank.
    for (a, e) in nra.hits.iter().zip(&exact.hits) {
        assert!(
            (a.interestingness - e.hit.score).abs() < 0.25,
            "rank mismatch: {} vs {}",
            a.interestingness,
            e.hit.score
        );
    }
}
