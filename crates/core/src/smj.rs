//! Algorithm 2: scoring over phrase-ID-ordered lists via sort-merge join.
//!
//! The `r` lists are ordered by the join attribute (the phrase id), so one
//! synchronized forward pass visits every phrase exactly once, aggregating
//! its per-list score terms (paper §4.4.2). There is no pruning and no
//! early termination — SMJ always scans every entry — which is precisely
//! why the paper finds it superior for short (partial) lists and inferior
//! to NRA for long ones (§4.5, §5.5).

use crate::budget::ShardBudget;
use crate::query::{Operator, Query};
use crate::result::{truncate_top_k, PhraseHit};
use crate::scoring::entry_score;
use ipm_corpus::PhraseId;
use ipm_index::backend::ListBackend;
use ipm_index::cursor::{IdListCursor, MemoryIdCursor};
use ipm_index::wordlists::{IdOrderedLists, ListEntry};

/// Runs SMJ over the id-ordered lists of the query's features, returning
/// the top-`k` hits (score desc, ties by id asc).
///
/// For AND queries a phrase must occur in *all* `r` lists — a missing
/// feature means `P(q|p) = 0` and hence a `-∞` log-score (paper Eq. 8) —
/// so phrases absent from any list are discarded during the merge.
pub fn run_smj(lists: &IdOrderedLists, query: &Query, k: usize) -> Vec<PhraseHit> {
    let slices: Vec<&[ListEntry]> = query.features.iter().map(|&f| lists.list(f)).collect();
    run_smj_slices(&slices, query.op, k)
}

/// Runs SMJ for `query` over any [`ListBackend`] (in-memory lists or the
/// simulated disk, whose cursors charge their buffer pool).
pub fn run_smj_backend<B: ListBackend>(backend: &B, query: &Query, k: usize) -> Vec<PhraseHit> {
    run_smj_backend_counted(backend, query, k, &ShardBudget::unlimited()).0
}

/// [`run_smj_backend`] under a cooperative execution budget, also
/// reporting the pass's [`SmjStats`] (the observability layer's loop
/// counters). The budget is checked once per merge step (one phrase id),
/// and a failed check stops the pass — every hit emitted so far carries
/// its *exact* score (SMJ aggregates a phrase's terms in one synchronized
/// step), so a truncated run is an exactly-scored prefix of the full scan.
pub fn run_smj_backend_counted<B: ListBackend>(
    backend: &B,
    query: &Query,
    k: usize,
    budget: &ShardBudget<'_>,
) -> (Vec<PhraseHit>, SmjStats) {
    let cursors: Vec<B::IdCursor<'_>> = query
        .features
        .iter()
        .map(|&f| backend.id_cursor(f))
        .collect();
    run_smj_cursors_counted(cursors, query.op, k, budget)
}

/// Work counters of one SMJ pass. Seeks count as one read (the landing
/// entry), matching the IO accounting: skipped entries were never
/// materialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmjStats {
    /// Entries consumed across all cursors (initial heads included).
    pub entries_read: u64,
    /// Synchronized merge steps (one phrase id each).
    pub merge_steps: u64,
}

/// SMJ core over raw id-ordered slices (exposed for benches and tests).
pub fn run_smj_slices(slices: &[&[ListEntry]], op: Operator, k: usize) -> Vec<PhraseHit> {
    run_smj_cursors_counted(
        slices.iter().map(|s| MemoryIdCursor::new(s)).collect(),
        op,
        k,
        &ShardBudget::unlimited(),
    )
    .0
}

/// SMJ core: one synchronized forward pass over id-ordered cursors under
/// a cooperative execution budget (see [`run_smj_backend_counted`]),
/// reporting the pass's [`SmjStats`].
pub fn run_smj_cursors_counted<C: IdListCursor>(
    mut cursors: Vec<C>,
    op: Operator,
    k: usize,
    budget: &ShardBudget<'_>,
) -> (Vec<PhraseHit>, SmjStats) {
    assert!(k > 0, "k must be positive");
    let r = cursors.len();
    let mut stats = SmjStats::default();
    // One-entry lookahead per cursor (cursors are forward-only; the merge
    // needs to peek the head of every list).
    let mut heads: Vec<Option<ListEntry>> = cursors.iter_mut().map(C::next_entry).collect();
    stats.entries_read = heads.iter().flatten().count() as u64;
    let mut hits: Vec<PhraseHit> = Vec::new();

    loop {
        if !budget.check() {
            break; // budget exhausted: return the exactly-scored prefix
        }
        // AND gallop: a conjunctive match needs the phrase in *every*
        // list, so no id below the highest head can still qualify — the
        // list holding that head has nothing smaller left. Seek every
        // lagging cursor forward to it (`IdListCursor::seek`: a binary
        // search on in-memory slices, metadata-only block skipping on
        // block lists) instead of draining the gap entry by entry. Once
        // any list runs out, no further AND match exists at all.
        if matches!(op, Operator::And) && r > 1 {
            if heads.iter().any(Option::is_none) {
                break;
            }
            let max = heads
                .iter()
                .flatten()
                .map(|e| e.phrase)
                .max()
                .expect("all heads present");
            for i in 0..r {
                if heads[i].is_some_and(|e| e.phrase < max) {
                    heads[i] = cursors[i].seek(max);
                    stats.entries_read += u64::from(heads[i].is_some());
                }
            }
            if heads.iter().any(Option::is_none) {
                break;
            }
        }
        // Find the lowest unread phrase id across lists (paper Alg. 2
        // line 4); r is 2-6 in practice, linear scan wins over a heap.
        let mut min_id: Option<PhraseId> = None;
        for head in heads.iter().flatten() {
            min_id = Some(match min_id {
                Some(m) if m <= head.phrase => m,
                _ => head.phrase,
            });
        }
        let Some(id) = min_id else { break };
        stats.merge_steps += 1;

        // Aggregate this phrase's terms from every list that has it.
        let mut score = 0.0;
        let mut present = 0usize;
        for i in 0..r {
            if let Some(e) = heads[i] {
                if e.phrase == id {
                    score += entry_score(op, e.prob);
                    present += 1;
                    heads[i] = cursors[i].next_entry();
                    stats.entries_read += u64::from(heads[i].is_some());
                }
            }
        }
        match op {
            Operator::Or => hits.push(PhraseHit::exact(id, score)),
            Operator::And => {
                if present == r {
                    hits.push(PhraseHit::exact(id, score));
                }
            }
        }
    }

    truncate_top_k(&mut hits, k);
    (hits, stats)
}

/// SMJ for OR queries scoring with the *full* inclusion–exclusion form of
/// Eq. 11 instead of the paper's first-order cut (Eq. 12).
///
/// Under independence the union probability has the closed form
/// `1 − Π_i (1 − P(qi|p))`, which needs every per-list probability of a
/// phrase — so this variant buffers the (at most `r`) probabilities per
/// phrase during the merge instead of a running sum. Scores land directly
/// on the interestingness scale `[0, 1]`, unlike Eq. 12 which can exceed 1.
///
/// This is the ablation behind the paper's claim that the truncated form
/// suffices: compare mean interestingness error with and without it
/// (Table 6 harness).
///
/// # Panics
/// Panics on AND queries — inclusion–exclusion is an OR construction.
pub fn run_smj_exact_or(lists: &IdOrderedLists, query: &Query, k: usize) -> Vec<PhraseHit> {
    assert_eq!(
        query.op,
        Operator::Or,
        "exact-OR scoring requires an OR query"
    );
    let slices: Vec<&[ListEntry]> = query.features.iter().map(|&f| lists.list(f)).collect();
    run_smj_slices_exact_or(&slices, k)
}

/// Exact-OR SMJ core over raw id-ordered slices.
pub fn run_smj_slices_exact_or(slices: &[&[ListEntry]], k: usize) -> Vec<PhraseHit> {
    assert!(k > 0, "k must be positive");
    let r = slices.len();
    let mut pos = vec![0usize; r];
    let mut hits: Vec<PhraseHit> = Vec::new();
    let mut probs: Vec<f64> = Vec::with_capacity(r);

    loop {
        let mut min_id: Option<PhraseId> = None;
        for i in 0..r {
            if let Some(e) = slices[i].get(pos[i]) {
                min_id = Some(match min_id {
                    Some(m) if m <= e.phrase => m,
                    _ => e.phrase,
                });
            }
        }
        let Some(id) = min_id else { break };

        probs.clear();
        for i in 0..r {
            if let Some(e) = slices[i].get(pos[i]) {
                if e.phrase == id {
                    probs.push(e.prob);
                    pos[i] += 1;
                }
            }
        }
        // Lists the phrase is absent from contribute P = 0, which leaves
        // the product form unchanged — no padding needed.
        let score = crate::scoring::or_score_inclusion_exclusion(&probs);
        hits.push(PhraseHit::exact(id, score));
    }

    truncate_top_k(&mut hits, k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_corpus::{Feature, WordId};
    use ipm_index::wordlists::{IdOrderedLists, WordListConfig, WordPhraseLists};

    fn entries(pairs: &[(u32, f64)]) -> Vec<ListEntry> {
        pairs
            .iter()
            .map(|&(id, prob)| ListEntry {
                phrase: PhraseId(id),
                prob,
            })
            .collect()
    }

    #[test]
    fn or_sums_across_lists() {
        let l1 = entries(&[(1, 0.2), (3, 0.5)]);
        let l2 = entries(&[(1, 0.3), (2, 0.9)]);
        let hits = run_smj_slices(&[&l1, &l2], Operator::Or, 10);
        // scores: 2 -> .9, 3 -> .5, 1 -> .5; tie between 1 and 3 by id.
        assert_eq!(hits[0].phrase, PhraseId(2));
        assert!((hits[1].score - 0.5).abs() < 1e-12);
        assert_eq!(hits[1].phrase, PhraseId(1));
        assert_eq!(hits[2].phrase, PhraseId(3));
    }

    #[test]
    fn and_drops_phrases_missing_from_any_list() {
        let l1 = entries(&[(1, 0.2), (3, 0.5)]);
        let l2 = entries(&[(1, 0.3), (2, 0.9)]);
        let hits = run_smj_slices(&[&l1, &l2], Operator::And, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].phrase, PhraseId(1));
        assert!((hits[0].score - (0.2f64.ln() + 0.3f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn truncates_to_k() {
        let l1 = entries(&[(1, 0.9), (2, 0.8), (3, 0.7)]);
        let hits = run_smj_slices(&[&l1], Operator::Or, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].phrase, PhraseId(1));
    }

    #[test]
    fn empty_lists() {
        let hits = run_smj_slices(&[&[], &[]], Operator::Or, 5);
        assert!(hits.is_empty());
    }

    #[test]
    fn three_way_and_requires_all_three() {
        let l1 = entries(&[(1, 0.5), (2, 0.5)]);
        let l2 = entries(&[(1, 0.5), (2, 0.5)]);
        let l3 = entries(&[(2, 0.5), (3, 0.5)]);
        let hits = run_smj_slices(&[&l1, &l2, &l3], Operator::And, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].phrase, PhraseId(2));
    }

    #[test]
    fn and_gallop_matches_naive_join_on_skewed_lists() {
        // One sparse list against a dense one: the gallop leaps the dense
        // cursor across the gaps, and must land on exactly the phrases a
        // naive pairwise intersection finds.
        let sparse = entries(&[(7, 0.4), (250, 0.6), (901, 0.2), (2000, 0.9)]);
        let dense: Vec<ListEntry> = (0..=1000u32)
            .map(|i| ListEntry {
                phrase: PhraseId(i * 2),
                prob: 0.5,
            })
            .collect();
        let hits = run_smj_slices(&[&sparse, &dense], Operator::And, 10);
        let want: Vec<PhraseId> = sparse
            .iter()
            .filter(|e| dense.iter().any(|d| d.phrase == e.phrase))
            .map(|e| e.phrase)
            .collect();
        assert_eq!(want, vec![PhraseId(250), PhraseId(2000)]);
        let mut got: Vec<PhraseId> = hits.iter().map(|h| h.phrase).collect();
        got.sort();
        assert_eq!(got, want);
        for h in &hits {
            let a = sparse.iter().find(|e| e.phrase == h.phrase).unwrap().prob;
            assert!((h.score - (a.ln() + 0.5f64.ln())).abs() < 1e-12);
        }
    }

    #[test]
    fn and_gallop_stops_when_a_list_exhausts() {
        // The second list ends long before the first; the gallop's
        // exhaustion break must not lose the match found before the end.
        let l1 = entries(&[(1, 0.5), (500, 0.5), (900, 0.5)]);
        let l2 = entries(&[(1, 0.5), (2, 0.5)]);
        let hits = run_smj_slices(&[&l1, &l2], Operator::And, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].phrase, PhraseId(1));
    }

    #[test]
    fn exact_or_uses_closed_form_union() {
        let l1 = entries(&[(1, 0.2), (3, 0.5)]);
        let l2 = entries(&[(1, 0.3), (2, 0.9)]);
        let hits = run_smj_slices_exact_or(&[&l1, &l2], 10);
        // Phrase 1: 1 - (0.8)(0.7) = 0.44; phrase 2: 0.9; phrase 3: 0.5.
        assert_eq!(hits[0].phrase, PhraseId(2));
        assert!((hits[0].score - 0.9).abs() < 1e-12);
        assert_eq!(hits[1].phrase, PhraseId(3));
        assert!((hits[1].score - 0.5).abs() < 1e-12);
        assert_eq!(hits[2].phrase, PhraseId(1));
        assert!((hits[2].score - 0.44).abs() < 1e-12);
    }

    #[test]
    fn exact_or_never_exceeds_first_order_score() {
        let l1 = entries(&[(1, 0.8), (2, 0.6), (3, 0.1)]);
        let l2 = entries(&[(1, 0.9), (2, 0.7)]);
        let l3 = entries(&[(1, 0.5), (3, 0.2)]);
        let first = run_smj_slices(&[&l1, &l2, &l3], Operator::Or, 10);
        let exact = run_smj_slices_exact_or(&[&l1, &l2, &l3], 10);
        assert_eq!(first.len(), exact.len());
        for e in &exact {
            let f = first.iter().find(|h| h.phrase == e.phrase).unwrap();
            assert!(e.score <= f.score + 1e-12, "{:?}", e.phrase);
            assert!((0.0..=1.0).contains(&e.score));
        }
    }

    #[test]
    fn exact_or_single_list_equals_first_order() {
        let l1 = entries(&[(1, 0.9), (2, 0.4)]);
        let first = run_smj_slices(&[&l1], Operator::Or, 10);
        let exact = run_smj_slices_exact_or(&[&l1], 10);
        for (a, b) in first.iter().zip(&exact) {
            assert_eq!(a.phrase, b.phrase);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "exact-OR scoring requires an OR query")]
    fn exact_or_rejects_and_queries() {
        let q = Query::new(vec![Feature::Word(WordId(0))], Operator::And).unwrap();
        run_smj_exact_or(&IdOrderedLists::default(), &q, 5);
    }

    #[test]
    fn works_through_query_interface() {
        let mut b = ipm_corpus::CorpusBuilder::new(ipm_corpus::TokenizerConfig::default());
        for t in ["m n o", "m n", "n o", "m n o", "o m"] {
            b.add_text(t);
        }
        let c = b.build();
        let index = ipm_index::corpus_index::CorpusIndex::build(
            &c,
            &ipm_index::corpus_index::IndexConfig {
                mining: ipm_index::mining::MiningConfig {
                    min_df: 2,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        let wl = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let idl = IdOrderedLists::from_score_ordered(&wl);
        let q = Query::from_words(&c, &["m", "n"], Operator::And).unwrap();
        let hits = run_smj(&idl, &q, 3);
        assert!(!hits.is_empty());
        // Every returned phrase must co-occur with both m and n somewhere.
        let m = Feature::Word(c.word_id("m").unwrap());
        let n = Feature::Word(c.word_id("n").unwrap());
        for h in &hits {
            assert!(wl.list(m).iter().any(|e| e.phrase == h.phrase));
            assert!(wl.list(n).iter().any(|e| e.phrase == h.phrase));
        }
        let _ = WordId(0);
    }
}
