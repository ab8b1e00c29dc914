//! The exact top-k scorer: ground truth for the quality experiments.
//!
//! Materializes `D'` from the feature postings (Eq. 2), aggregates the
//! forward lists of its documents to get `freq(p, D')`, and scores with the
//! interestingness measure `I(p, D') = freq(p, D') / freq(p, D)` (Eq. 1).
//! This is the result `R(D, D', k)` of Eq. 3 that the approximate NRA/SMJ
//! answers are judged against, and it is algorithmically the forward-index
//! baseline family (its runtime is linear in `|D'|`).

use crate::budget::ShardBudget;
use crate::query::Query;
use crate::result::{truncate_top_k, PhraseHit};
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::PhraseId;
use ipm_index::corpus_index::CorpusIndex;
use ipm_index::postings::Postings;

/// Exact top-k interesting phrases for `query` (paper Eq. 3).
pub fn exact_top_k(index: &CorpusIndex, query: &Query, k: usize) -> Vec<PhraseHit> {
    exact_top_k_range(index, query, k, None)
}

/// Exact top-k restricted to phrases in the half-open id range — the
/// sharded executor's per-partition arm (`None` = unrestricted). Each
/// shard scans the same `D'` but counts only its own phrases, so the
/// hash-aggregation (the hot part, linear in `Σ |forward(d)|`) partitions
/// across shards and the merged per-shard top-k equals the global top-k
/// exactly.
pub fn exact_top_k_range(
    index: &CorpusIndex,
    query: &Query,
    k: usize,
    range: Option<(PhraseId, PhraseId)>,
) -> Vec<PhraseHit> {
    exact_top_k_range_with(index, query, k, range, &ShardBudget::unlimited())
}

/// [`exact_top_k_range`] under a cooperative execution budget (see
/// [`exact_top_k_for_subset_range_with`]).
pub fn exact_top_k_range_with(
    index: &CorpusIndex,
    query: &Query,
    k: usize,
    range: Option<(PhraseId, PhraseId)>,
    budget: &ShardBudget<'_>,
) -> Vec<PhraseHit> {
    let subset = materialize_subset(index, query);
    exact_top_k_for_subset_range_with(index, &subset, k, range, budget)
}

/// [`exact_top_k_range`] over an already-materialized subset — the
/// sharded executor materializes `D'` once per query and hands every
/// shard the same postings, since subset algebra does not partition by
/// phrase id.
pub fn exact_top_k_for_subset_range(
    index: &CorpusIndex,
    subset: &Postings,
    k: usize,
    range: Option<(PhraseId, PhraseId)>,
) -> Vec<PhraseHit> {
    exact_top_k_for_subset_range_with(index, subset, k, range, &ShardBudget::unlimited())
}

/// [`exact_top_k_for_subset_range`] under a cooperative execution budget.
/// The budget is checked once per `D'` document; a failed check stops the
/// scan and every counted phrase becomes an *interval*, not a point: its
/// lower bound is the frequency seen so far over `df` (documents not yet
/// scanned can only add occurrences) and its upper bound additionally
/// grants every unscanned document — so truncated exact hits still
/// bracket the true interestingness instead of presenting a silently
/// undercounted score as exact.
pub fn exact_top_k_for_subset_range_with(
    index: &CorpusIndex,
    subset: &Postings,
    k: usize,
    range: Option<(PhraseId, PhraseId)>,
    budget: &ShardBudget<'_>,
) -> Vec<PhraseHit> {
    let mut hits = exact_scores_for_subset_range_with(index, subset, range, budget);
    truncate_top_k(&mut hits, k);
    hits
}

/// Materializes `D'` for a query (Eq. 2).
pub fn materialize_subset(index: &CorpusIndex, query: &Query) -> Postings {
    index.features.select(
        &query.features,
        matches!(query.op, crate::query::Operator::And),
    )
}

/// Exact top-k for an already-materialized subset.
pub fn exact_top_k_for_subset(index: &CorpusIndex, subset: &Postings, k: usize) -> Vec<PhraseHit> {
    let mut hits = exact_scores_for_subset(index, subset);
    truncate_top_k(&mut hits, k);
    hits
}

/// All phrases of `D'` with exact interestingness (unsorted).
pub fn exact_scores_for_subset(index: &CorpusIndex, subset: &Postings) -> Vec<PhraseHit> {
    exact_scores_for_subset_range(index, subset, None)
}

/// [`exact_scores_for_subset`] restricted to phrases in the half-open id
/// range (`None` = unrestricted; one Eq. 1 implementation serves both the
/// global scorer and the sharded executor's per-partition arm).
pub fn exact_scores_for_subset_range(
    index: &CorpusIndex,
    subset: &Postings,
    range: Option<(PhraseId, PhraseId)>,
) -> Vec<PhraseHit> {
    exact_scores_for_subset_range_with(index, subset, range, &ShardBudget::unlimited())
}

/// [`exact_scores_for_subset_range`] under a cooperative execution budget
/// (see [`exact_top_k_for_subset_range_with`] for the truncated-interval
/// semantics).
pub fn exact_scores_for_subset_range_with(
    index: &CorpusIndex,
    subset: &Postings,
    range: Option<(PhraseId, PhraseId)>,
    budget: &ShardBudget<'_>,
) -> Vec<PhraseHit> {
    let mut counts: FxHashMap<PhraseId, u32> = FxHashMap::default();
    let mut scanned = 0usize;
    for doc in subset.iter() {
        if !budget.check() {
            break;
        }
        for &p in index.forward.doc(doc) {
            if range.is_none_or(|(lo, hi)| lo <= p && p < hi) {
                *counts.entry(p).or_insert(0) += 1;
            }
        }
        scanned += 1;
    }
    let unscanned = subset.len().saturating_sub(scanned) as f64;
    counts
        .into_iter()
        .map(|(p, c)| {
            let df = index.phrases.df(p) as f64;
            let lower = c as f64 / df;
            if unscanned == 0.0 {
                PhraseHit::exact(p, lower)
            } else {
                // Interestingness never exceeds 1 (freq ≤ df), and the
                // unscanned tail can contribute at most one document each.
                let upper = ((c as f64 + unscanned) / df).min(1.0);
                PhraseHit {
                    phrase: p,
                    score: lower,
                    lower,
                    upper,
                }
            }
        })
        .collect()
}

/// [`exact_scores_for_subset_range_with`] corrected against a §4.5.1
/// [`crate::delta::DeltaIndex`] — the exact scorer's member of the
/// lifecycle contract: `I(p, D')` computed over the *updated* corpus
/// without rebuilding anything.
///
/// * `subset` is the **base-corpus** `D'` (Eq. 2 over the stale postings);
///   documents marked deleted in the delta are skipped during the scan.
/// * Added documents matching the query contribute their phrase counts
///   from the delta's own inverted lists.
/// * Every phrase is normalized by its churn-corrected document frequency
///   ([`crate::delta::DeltaIndex::adjusted_df`]); phrases whose corrected
///   df reaches zero vanish, like their list entries do.
///
/// Phrases absent from the stale dictionary (they only exist in added
/// documents) are deferred to the offline rebuild, mirroring the delta's
/// own model. The budget is checked once per base document; a tripped
/// budget brackets every counted phrase exactly as the base scorer does.
pub fn exact_scores_for_subset_range_with_delta(
    index: &CorpusIndex,
    delta: &crate::delta::DeltaIndex,
    query: &Query,
    subset: &Postings,
    range: Option<(PhraseId, PhraseId)>,
    budget: &ShardBudget<'_>,
) -> Vec<PhraseHit> {
    let in_range = |p: PhraseId| range.is_none_or(|(lo, hi)| lo <= p && p < hi);
    let mut counts: FxHashMap<PhraseId, u32> = FxHashMap::default();
    // Added documents first: the delta is small and bounded by ingestion,
    // so the budget governs the base scan (the part linear in |D'|).
    let matched_added = delta.added_matching(query);
    if !matched_added.is_empty() {
        for (p, joint) in delta_phrase_lists(delta, &matched_added) {
            if in_range(p) {
                *counts.entry(p).or_insert(0) += joint;
            }
        }
    }
    let mut scanned = 0usize;
    for doc in subset.iter() {
        if !budget.check() {
            break;
        }
        scanned += 1;
        if delta.is_deleted(doc) {
            continue; // left D' with its document
        }
        for &p in index.forward.doc(doc) {
            if in_range(p) {
                *counts.entry(p).or_insert(0) += 1;
            }
        }
    }
    let unscanned = subset.len().saturating_sub(scanned) as f64;
    counts
        .into_iter()
        .filter_map(|(p, c)| {
            let df = delta.adjusted_df(index, p);
            if df <= 0.0 {
                return None;
            }
            let lower = f64::from(c) / df;
            Some(if unscanned == 0.0 {
                PhraseHit::exact(p, lower)
            } else {
                let upper = ((f64::from(c) + unscanned) / df).min(1.0);
                PhraseHit {
                    phrase: p,
                    score: lower,
                    lower,
                    upper,
                }
            })
        })
        .collect()
}

/// `phrase -> |added docs containing it ∩ matched|` for the delta-aware
/// exact scan. `matched` must be sorted (as
/// [`crate::delta::DeltaIndex::added_matching`] returns it).
fn delta_phrase_lists<'d>(
    delta: &'d crate::delta::DeltaIndex,
    matched: &'d [u32],
) -> impl Iterator<Item = (PhraseId, u32)> + 'd {
    delta.added_phrase_ids().filter_map(move |p| {
        let locals = delta.added_containing(p);
        let joint = locals
            .iter()
            .filter(|l| matched.binary_search(l).is_ok())
            .count() as u32;
        (joint > 0).then_some((p, joint))
    })
}

/// Delta-corrected exact top-k over an already-materialized base subset,
/// restricted to a phrase-id range — the sharded executor's per-partition
/// arm of the lifecycle contract.
pub fn exact_top_k_delta_for_subset_range_with(
    index: &CorpusIndex,
    delta: &crate::delta::DeltaIndex,
    query: &Query,
    subset: &Postings,
    k: usize,
    range: Option<(PhraseId, PhraseId)>,
    budget: &ShardBudget<'_>,
) -> Vec<PhraseHit> {
    let mut hits =
        exact_scores_for_subset_range_with_delta(index, delta, query, subset, range, budget);
    truncate_top_k(&mut hits, k);
    hits
}

/// Exact interestingness of a single phrase for a subset (used to judge
/// result correctness and estimation error).
pub fn exact_interestingness(index: &CorpusIndex, subset: &Postings, p: PhraseId) -> f64 {
    index.interestingness(p, subset)
}

/// Exact top-k under the *occurrence-count* reading of Eq. 1's `freq`
/// (total phrase occurrences instead of documents containing the phrase;
/// see [`ipm_index::occurrence`]). Used to ablate the
/// document-frequency choice the rest of the system is built on.
pub fn exact_top_k_occurrence(
    index: &CorpusIndex,
    occ: &ipm_index::occurrence::OccurrenceIndex,
    query: &Query,
    k: usize,
) -> Vec<PhraseHit> {
    let subset = materialize_subset(index, query);
    let mut counts: FxHashMap<PhraseId, u64> = FxHashMap::default();
    for doc in subset.iter() {
        for &(p, c) in occ.doc(doc) {
            *counts.entry(p).or_insert(0) += u64::from(c);
        }
    }
    let mut hits: Vec<PhraseHit> = counts
        .into_iter()
        .map(|(p, c)| PhraseHit::exact(p, c as f64 / occ.total(p) as f64))
        .collect();
    truncate_top_k(&mut hits, k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Operator;
    use ipm_corpus::{Corpus, CorpusBuilder, TokenizerConfig};
    use ipm_index::corpus_index::IndexConfig;
    use ipm_index::mining::MiningConfig;

    fn setup() -> (Corpus, CorpusIndex) {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for t in [
            "q o d s", // 0
            "q o x",   // 1
            "d s q",   // 2
            "q o d s", // 3
            "x y",     // 4
            "d s x",   // 5
        ] {
            b.add_text(t);
        }
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        (c, index)
    }

    #[test]
    fn subset_materialization_and_or() {
        let (c, index) = setup();
        let and = Query::from_words(&c, &["q", "o"], Operator::And).unwrap();
        assert_eq!(materialize_subset(&index, &and).len(), 3); // docs 0,1,3
        let or = Query::from_words(&c, &["q", "o"], Operator::Or).unwrap();
        assert_eq!(materialize_subset(&index, &or).len(), 4); // + doc 2
    }

    #[test]
    fn top_scores_are_df_ratios() {
        let (c, index) = setup();
        let q = Query::from_words(&c, &["q", "o"], Operator::And).unwrap();
        let hits = exact_top_k(&index, &q, 100);
        // "q o" occurs in docs {0,1,3}, all inside D' -> I = 1.0.
        let qo = index
            .dict
            .get(&[c.word_id("q").unwrap(), c.word_id("o").unwrap()])
            .unwrap();
        let hit = hits.iter().find(|h| h.phrase == qo).unwrap();
        assert!((hit.score - 1.0).abs() < 1e-12);
        // "d s" occurs in 4 docs, 2 inside D' ({0,3}) -> I = 0.5.
        let ds = index
            .dict
            .get(&[c.word_id("d").unwrap(), c.word_id("s").unwrap()])
            .unwrap();
        let hit = hits.iter().find(|h| h.phrase == ds).unwrap();
        assert!((hit.score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn results_sorted_and_truncated() {
        let (c, index) = setup();
        let q = Query::from_words(&c, &["q"], Operator::Or).unwrap();
        let hits = exact_top_k(&index, &q, 3);
        assert!(hits.len() <= 3);
        for w in hits.windows(2) {
            assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].phrase < w[1].phrase)
            );
        }
    }

    #[test]
    fn interestingness_never_exceeds_one() {
        let (c, index) = setup();
        for (terms, op) in [
            (vec!["q", "o"], Operator::And),
            (vec!["q", "o"], Operator::Or),
            (vec!["d", "s", "x"], Operator::Or),
        ] {
            let q = Query::from_words(&c, &terms, op).unwrap();
            for h in exact_top_k(&index, &q, 1000) {
                assert!(h.score > 0.0 && h.score <= 1.0 + 1e-12, "{h:?}");
            }
        }
    }

    #[test]
    fn empty_subset_gives_no_hits() {
        let (c, index) = setup();
        // y occurs only in doc 4; q,y AND is empty.
        let q = Query::from_words(&c, &["q", "y"], Operator::And).unwrap();
        assert!(exact_top_k(&index, &q, 5).is_empty());
    }

    #[test]
    fn occurrence_semantics_agrees_when_counts_are_flat() {
        // When every phrase occurs at most once per document, the two
        // readings of Eq. 1's freq coincide exactly.
        let (c, index) = setup(); // no document repeats a phrase
        let occ = ipm_index::occurrence::OccurrenceIndex::build(&c, &index.dict);
        for (terms, op) in [
            (vec!["q", "o"], Operator::And),
            (vec!["q", "o"], Operator::Or),
        ] {
            let q = Query::from_words(&c, &terms, op).unwrap();
            let by_df = exact_top_k(&index, &q, 100);
            let by_occ = exact_top_k_occurrence(&index, &occ, &q, 100);
            assert_eq!(by_df.len(), by_occ.len());
            for (a, b) in by_df.iter().zip(&by_occ) {
                assert_eq!(a.phrase, b.phrase);
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn occurrence_semantics_diverges_on_repetition() {
        // A document repeating a phrase pulls the occurrence-based score
        // away from the document-frequency one.
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text("a b a b a b"); // 3 occurrences of "a b" in one doc
        b.add_text("a b x");
        b.add_text("x y");
        b.add_text("a b y");
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 2,
                    min_len: 1,
                },
            },
        );
        let occ = ipm_index::occurrence::OccurrenceIndex::build(&c, &index.dict);
        let q = Query::from_words(&c, &["y"], Operator::Or).unwrap();
        let ab = index
            .dict
            .get(&[c.word_id("a").unwrap(), c.word_id("b").unwrap()])
            .unwrap();
        // D' = docs containing y = {2, 3}. "a b": df semantics 1/3;
        // occurrence semantics 1/5 (1 occurrence in doc 3 of 5 total).
        let df_hit = exact_top_k(&index, &q, 100)
            .into_iter()
            .find(|h| h.phrase == ab)
            .unwrap();
        let occ_hit = exact_top_k_occurrence(&index, &occ, &q, 100)
            .into_iter()
            .find(|h| h.phrase == ab)
            .unwrap();
        assert!((df_hit.score - 1.0 / 3.0).abs() < 1e-12);
        assert!((occ_hit.score - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn range_shards_partition_the_exact_ranking() {
        let (c, index) = setup();
        let q = Query::from_words(&c, &["q", "o"], Operator::Or).unwrap();
        let full = exact_top_k(&index, &q, 1000);
        let mid = PhraseId(index.dict.len() as u32 / 2);
        let lo = exact_top_k_range(&index, &q, 1000, Some((PhraseId(0), mid)));
        let hi = exact_top_k_range(&index, &q, 1000, Some((mid, PhraseId(u32::MAX))));
        assert_eq!(lo.len() + hi.len(), full.len());
        let mut merged: Vec<PhraseHit> = lo.into_iter().chain(hi).collect();
        truncate_top_k(&mut merged, 1000);
        for (a, b) in merged.iter().zip(&full) {
            assert_eq!(a.phrase, b.phrase);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn exact_interestingness_matches_hit_scores() {
        let (c, index) = setup();
        let q = Query::from_words(&c, &["d", "s"], Operator::And).unwrap();
        let subset = materialize_subset(&index, &q);
        for h in exact_top_k(&index, &q, 100) {
            let direct = exact_interestingness(&index, &subset, h.phrase);
            assert!((h.score - direct).abs() < 1e-12);
        }
    }
}
