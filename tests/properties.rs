//! Property-based tests (proptest) of the core invariants:
//!
//! * postings set-algebra vs a BTreeSet reference model;
//! * Apriori mining vs naive window counting;
//! * `P(q|p)` list construction vs Eq. 13 computed from postings;
//! * NRA vs a brute-force aggregation oracle over random lists;
//! * SMJ vs the same oracle;
//! * buffer pool vs a reference LRU model.

use proptest::prelude::*;

use ipm_core::nra::{run_nra, NraConfig};
use ipm_core::query::Operator;
use ipm_core::smj::run_smj_slices;
use ipm_corpus::{CorpusBuilder, DocId, PhraseId, TokenizerConfig};
use ipm_index::cursor::MemoryCursor;
use ipm_index::postings::Postings;
use ipm_index::wordlists::ListEntry;
use std::collections::BTreeSet;

// ---------- postings ------------------------------------------------------

fn postings_strategy(max_id: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..max_id, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn postings_ops_match_btreeset(a in postings_strategy(500, 200), b in postings_strategy(5000, 400)) {
        let pa = Postings::from_unsorted(a.iter().map(|&x| DocId(x)).collect());
        let pb = Postings::from_unsorted(b.iter().map(|&x| DocId(x)).collect());
        let sa: BTreeSet<u32> = a.into_iter().collect();
        let sb: BTreeSet<u32> = b.into_iter().collect();

        let inter: Vec<u32> = pa.intersect(&pb).iter().map(|d| d.raw()).collect();
        let want_i: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(inter, want_i);

        let uni: Vec<u32> = pa.union(&pb).iter().map(|d| d.raw()).collect();
        let want_u: Vec<u32> = sa.union(&sb).copied().collect();
        prop_assert_eq!(uni, want_u);

        prop_assert_eq!(pa.intersect_len(&pb), sa.intersection(&sb).count());
    }

    #[test]
    fn multiway_ops_match_pairwise(lists in prop::collection::vec(postings_strategy(300, 100), 1..5)) {
        let ps: Vec<Postings> = lists
            .iter()
            .map(|l| Postings::from_unsorted(l.iter().map(|&x| DocId(x)).collect()))
            .collect();
        let refs: Vec<&Postings> = ps.iter().collect();
        let many_i = Postings::intersect_many(&refs);
        let many_u = Postings::union_many(&refs);
        let mut fold_i = ps[0].clone();
        let mut fold_u = ps[0].clone();
        for p in &ps[1..] {
            fold_i = fold_i.intersect(p);
            fold_u = fold_u.union(p);
        }
        prop_assert_eq!(many_i.as_slice(), fold_i.as_slice());
        prop_assert_eq!(many_u.as_slice(), fold_u.as_slice());
    }
}

// ---------- mining --------------------------------------------------------

fn random_corpus_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..10, 1..25), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mining_matches_naive_window_counts(docs in random_corpus_strategy(), min_df in 1u32..5, max_len in 1usize..5) {
        let mut builder = CorpusBuilder::new(TokenizerConfig::default());
        for d in &docs {
            let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
            builder.add_text(&text.join(" "));
        }
        let corpus = builder.build();
        let cfg = ipm_index::mining::MiningConfig { min_df, max_len, min_len: 1 };
        let dict = ipm_index::mining::mine_phrases(&corpus, &cfg);

        // Naive reference.
        let mut counts: std::collections::BTreeMap<Vec<ipm_corpus::WordId>, u32> = Default::default();
        for doc in corpus.docs() {
            let mut seen = BTreeSet::new();
            for len in 1..=max_len {
                if doc.tokens.len() >= len {
                    for w in doc.tokens.windows(len) {
                        seen.insert(w.to_vec());
                    }
                }
            }
            for g in seen {
                *counts.entry(g).or_insert(0) += 1;
            }
        }
        counts.retain(|_, c| *c >= min_df);
        prop_assert_eq!(dict.len(), counts.len());
        for (gram, df) in &counts {
            let id = dict.get(gram);
            prop_assert!(id.is_some());
            prop_assert_eq!(dict.df(id.unwrap()), *df);
        }
    }

    #[test]
    fn word_lists_match_eq13(docs in random_corpus_strategy()) {
        let mut builder = CorpusBuilder::new(TokenizerConfig::default());
        for d in &docs {
            let text: Vec<String> = d.iter().map(|t| format!("t{t}")).collect();
            builder.add_text(&text.join(" "));
        }
        let corpus = builder.build();
        let index = ipm_index::corpus_index::CorpusIndex::build(
            &corpus,
            &ipm_index::corpus_index::IndexConfig {
                mining: ipm_index::mining::MiningConfig { min_df: 2, max_len: 3, min_len: 1 },
            },
        );
        let lists = ipm_index::wordlists::WordPhraseLists::build(
            &corpus,
            &index,
            &ipm_index::wordlists::WordListConfig::default(),
        );
        for (slot, feat) in lists.features().iter().enumerate() {
            for e in lists.list_by_slot(slot as u32) {
                let dq = index.features.feature(*feat);
                let dp = index.phrases.phrase(e.phrase);
                let want = dq.intersect_len(dp) as f64 / dp.len() as f64;
                prop_assert!((e.prob - want).abs() < 1e-12);
                prop_assert!(e.prob > 0.0);
            }
        }
    }
}

// ---------- top-k algorithms ----------------------------------------------

/// Random score-ordered lists: distinct phrases per list, probs in (0, 1].
fn scored_lists_strategy() -> impl Strategy<Value = Vec<Vec<ListEntry>>> {
    prop::collection::vec(
        prop::collection::btree_map(0u32..60, 0.001f64..1.0, 0..40),
        1..4,
    )
    .prop_map(|maps| {
        maps.into_iter()
            .map(|m| {
                let mut list: Vec<ListEntry> = m
                    .into_iter()
                    .map(|(id, prob)| ListEntry {
                        phrase: PhraseId(id),
                        prob,
                    })
                    .collect();
                list.sort_by(|a, b| {
                    b.prob
                        .partial_cmp(&a.prob)
                        .unwrap()
                        .then(a.phrase.cmp(&b.phrase))
                });
                list
            })
            .collect()
    })
}

/// Score-ordered lists whose probabilities come from {1, 1/2, 1/3, 1/4,
/// 1/6} over a small phrase range, so exact score ties are the common
/// case rather than a measure-zero one.
fn tie_heavy_lists_strategy() -> impl Strategy<Value = Vec<Vec<ListEntry>>> {
    const ALPHABET: [f64; 5] = [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 6.0];
    prop::collection::vec(
        prop::collection::btree_map(0u32..24, 0usize..ALPHABET.len(), 0..30),
        1..4,
    )
    .prop_map(|maps| {
        maps.into_iter()
            .map(|m| {
                let mut list: Vec<ListEntry> = m
                    .into_iter()
                    .map(|(id, at)| ListEntry {
                        phrase: PhraseId(id),
                        prob: ALPHABET[at],
                    })
                    .collect();
                list.sort_by(|a, b| {
                    b.prob
                        .partial_cmp(&a.prob)
                        .unwrap()
                        .then(a.phrase.cmp(&b.phrase))
                });
                list
            })
            .collect()
    })
}

/// Brute-force oracle: aggregate all lists fully.
fn oracle_top_k(lists: &[Vec<ListEntry>], op: Operator, k: usize) -> Vec<(PhraseId, f64)> {
    use std::collections::BTreeMap;
    let mut probs: BTreeMap<PhraseId, Vec<f64>> = BTreeMap::new();
    for list in lists {
        for e in list {
            probs.entry(e.phrase).or_default().push(e.prob);
        }
    }
    let mut scored: Vec<(PhraseId, f64)> = probs
        .into_iter()
        .filter_map(|(p, ps)| match op {
            Operator::Or => Some((p, ps.iter().sum())),
            Operator::And => {
                if ps.len() == lists.len() {
                    Some((p, ps.iter().map(|x| x.ln()).sum()))
                } else {
                    None
                }
            }
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nra_matches_oracle(lists in scored_lists_strategy(), k in 1usize..8, batch in 1usize..64, op_or in any::<bool>()) {
        let op = if op_or { Operator::Or } else { Operator::And };
        let cursors: Vec<MemoryCursor> = lists.iter().map(|l| MemoryCursor::new(l)).collect();
        let out = run_nra(cursors, op, &NraConfig {
                k,
                batch_size: batch,
                ..Default::default()
            });
        let want = oracle_top_k(&lists, op, k);
        // The returned top-k *set* must equal the oracle's (ties are
        // measure-zero under the float strategy). Reported scores may be
        // conservative when the stop condition fires before a member is
        // fully seen, but must bracket the true score.
        let got_ids: BTreeSet<PhraseId> = out.hits.iter().map(|h| h.phrase).collect();
        let want_ids: BTreeSet<PhraseId> = want.iter().map(|(p, _)| *p).collect();
        prop_assert_eq!(&got_ids, &want_ids, "got {:?} want {:?}", out.hits, want);
        for h in &out.hits {
            let true_score = want.iter().find(|(p, _)| *p == h.phrase).unwrap().1;
            prop_assert!(h.lower <= true_score + 1e-9, "lower {} > true {}", h.lower, true_score);
            prop_assert!(h.upper >= true_score - 1e-9, "upper {} < true {}", h.upper, true_score);
        }
        // When the lists were exhausted (no early stop), scores are exact.
        if !out.stats.stopped_early {
            for h in &out.hits {
                let true_score = want.iter().find(|(p, _)| *p == h.phrase).unwrap().1;
                prop_assert!((h.score - true_score).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn nra_brackets_and_matches_oracle_scores_under_ties(
        lists in tie_heavy_lists_strategy(),
        k in 1usize..8,
        batch in 1usize..64,
        op_or in any::<bool>(),
        partial in any::<bool>(),
        fraction in 0.1f64..1.0,
    ) {
        // Probabilities from a five-value alphabet make exact score ties
        // common, including at the k-th boundary where the stop test has
        // to hand out the last slots inside a tie group.
        let op = if op_or { Operator::Or } else { Operator::And };
        let fraction = if partial { fraction } else { 1.0 };
        let cursors: Vec<MemoryCursor> = lists
            .iter()
            .map(|l| MemoryCursor::new(&l[..ipm_index::cursor::prefix_len(l.len(), fraction)]))
            .collect();
        let out = run_nra(cursors, op, &NraConfig {
                k,
                batch_size: batch,
                lists_are_partial: partial,
                ..Default::default()
            });
        // Every phrase's true aggregate over the full lists; AND phrases
        // missing from a list aggregate to -inf.
        let truth = oracle_top_k(&lists, op, usize::MAX);
        let true_score = |p: PhraseId| {
            truth.iter().find(|(q, _)| *q == p).map_or(f64::NEG_INFINITY, |&(_, s)| s)
        };
        for h in &out.hits {
            let t = true_score(h.phrase);
            prop_assert!(h.lower <= t + 1e-9, "lower {} > true {} for {:?}", h.lower, t, h.phrase);
            prop_assert!(h.upper >= t - 1e-9, "upper {} < true {} for {:?}", h.upper, t, h.phrase);
        }
        if !partial {
            // Ids may swap inside an exact tie group at the k-th boundary;
            // the true scores of the returned set may not.
            let mut got: Vec<f64> = out.hits.iter().map(|h| true_score(h.phrase)).collect();
            got.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let want: Vec<f64> = truth.iter().take(k).map(|&(_, s)| s).collect();
            prop_assert_eq!(got.len(), want.len(), "got {:?} want {:?}", out.hits, want);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-9, "true scores {:?} want {:?}", got, want);
            }
        }
    }

    #[test]
    fn smj_matches_oracle(lists in scored_lists_strategy(), k in 1usize..8, op_or in any::<bool>()) {
        let op = if op_or { Operator::Or } else { Operator::And };
        let mut id_lists = lists.clone();
        for l in &mut id_lists {
            l.sort_by_key(|e| e.phrase);
        }
        let slices: Vec<&[ListEntry]> = id_lists.iter().map(Vec::as_slice).collect();
        let hits = run_smj_slices(&slices, op, k);
        let want = oracle_top_k(&lists, op, k);
        prop_assert_eq!(hits.len(), want.len());
        for (h, (wp, ws)) in hits.iter().zip(&want) {
            prop_assert_eq!(h.phrase, *wp);
            prop_assert!((h.score - ws).abs() < 1e-9);
        }
    }

    #[test]
    fn nra_early_stop_is_safe(lists in scored_lists_strategy(), batch in 1usize..8) {
        // Whatever batch size (and thus stop timing), the returned top-k
        // set must equal the oracle's.
        let k = 3;
        let cursors: Vec<MemoryCursor> = lists.iter().map(|l| MemoryCursor::new(l)).collect();
        let out = run_nra(cursors, Operator::Or, &NraConfig {
                k,
                batch_size: batch,
                ..Default::default()
            });
        let want = oracle_top_k(&lists, Operator::Or, k);
        let got_ids: BTreeSet<PhraseId> = out.hits.iter().map(|h| h.phrase).collect();
        let want_ids: BTreeSet<PhraseId> = want.iter().map(|(p, _)| *p).collect();
        prop_assert_eq!(got_ids, want_ids);
    }
}

// ---------- buffer pool ----------------------------------------------------

/// Reference LRU model mirroring the pool's documented semantics.
struct RefLru {
    cap: usize,
    lookahead: usize,
    order: Vec<u64>,
    last_fetched: Option<u64>,
    hits: u64,
    seq: u64,
    rand: u64,
}

impl RefLru {
    fn touch(&mut self, page: u64) -> bool {
        if let Some(pos) = self.order.iter().position(|&p| p == page) {
            let p = self.order.remove(pos);
            self.order.push(p);
            true
        } else {
            false
        }
    }

    fn fetch(&mut self, page: u64) {
        if self.last_fetched == Some(page.wrapping_sub(1)) {
            self.seq += 1;
        } else {
            self.rand += 1;
        }
        self.last_fetched = Some(page);
        if self.order.len() == self.cap {
            self.order.remove(0);
        }
        self.order.push(page);
    }

    fn access(&mut self, page: u64, file_pages: u64) {
        if self.touch(page) {
            self.hits += 1;
        } else {
            self.fetch(page);
            for la in 1..=self.lookahead as u64 {
                let next = page + la;
                if next >= file_pages {
                    break;
                }
                if self.touch(next) {
                    break;
                }
                self.fetch(next);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffer_pool_matches_reference_model(
        accesses in prop::collection::vec(0u64..64, 1..300),
        cap in 1usize..20,
        lookahead in 0usize..3,
    ) {
        let mut pool = ipm_storage::BufferPool::new(ipm_storage::PoolConfig {
            page_size: 64,
            capacity_pages: cap,
            lookahead_pages: lookahead,
        });
        let mut reference = RefLru {
            cap,
            lookahead,
            order: Vec::new(),
            last_fetched: None,
            hits: 0,
            seq: 0,
            rand: 0,
        };
        for &page in &accesses {
            pool.access(page, 64);
            reference.access(page, 64);
        }
        let s = pool.stats();
        prop_assert_eq!(s.cache_hits, reference.hits);
        prop_assert_eq!(s.sequential_fetches, reference.seq);
        prop_assert_eq!(s.random_fetches, reference.rand);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn or_truncation_alternates_around_union(
        probs in prop::collection::vec(0.0f64..=1.0, 1..7),
    ) {
        // Bonferroni: odd-order cuts of inclusion–exclusion over-estimate
        // the union probability, even-order cuts under-estimate it.
        use ipm_core::scoring::{or_score_inclusion_exclusion, or_score_truncated};
        let full = or_score_inclusion_exclusion(&probs);
        for cutoff in 1..=probs.len() {
            let t = or_score_truncated(&probs, cutoff);
            if cutoff == probs.len() {
                prop_assert!((t - full).abs() < 1e-9, "full cut must equal closed form");
            } else if cutoff % 2 == 1 {
                prop_assert!(t >= full - 1e-9, "odd cutoff {cutoff}: {t} < {full}");
            } else {
                prop_assert!(t <= full + 1e-9, "even cutoff {cutoff}: {t} > {full}");
            }
        }
    }
}

// ---------- redundancy filter (paper §5.6) ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn redundancy_filter_matches_bruteforce(
        phrase_words in prop::collection::vec(
            prop::collection::vec(0u32..12, 1..5), 1..30),
        query_words in prop::collection::vec(0u32..12, 1..4),
        threshold in 0.0f64..=1.2,
    ) {
        use ipm_core::redundancy::{filter_hits, RedundancyConfig};
        use ipm_core::result::PhraseHit;
        use ipm_corpus::{Feature, WordId};
        use ipm_index::phrase::PhraseDictionary;

        let mut dict = PhraseDictionary::new();
        let mut ids = Vec::new();
        for ws in &phrase_words {
            let words: Vec<WordId> = ws.iter().map(|&w| WordId(w)).collect();
            // insert dedupes identical word sequences; track actual id.
            ids.push(dict.insert(&words, 1));
        }
        let query = ipm_core::query::Query::new(
            query_words.iter().map(|&w| Feature::Word(WordId(w))).collect(),
            Operator::Or,
        ).unwrap();

        let mut hits: Vec<PhraseHit> = ids
            .iter()
            .enumerate()
            .map(|(i, &p)| PhraseHit::exact(p, 1.0 / (i + 1) as f64))
            .collect();
        let cfg = RedundancyConfig { max_overlap: threshold };
        filter_hits(&dict, &query, &mut hits, &cfg);

        // Brute force from the raw word vectors.
        let qset: BTreeSet<u32> = query_words.iter().copied().collect();
        for h in &hits {
            let words = dict.words(h.phrase).unwrap();
            let shared = words.iter().filter(|w| qset.contains(&w.0)).count();
            let overlap = shared as f64 / words.len() as f64;
            prop_assert!(overlap < threshold, "kept hit with overlap {overlap} >= {threshold}");
        }
        // And nothing non-redundant was dropped: count survivors.
        let expect = ids.iter().filter(|&&p| {
            let words = dict.words(p).unwrap();
            let shared = words.iter().filter(|w| qset.contains(&w.0)).count();
            (shared as f64 / words.len() as f64) < threshold
        }).count();
        // `ids` may contain duplicates (dict dedupe) — compare sets.
        let kept: BTreeSet<u32> = hits.iter().map(|h| h.phrase.0).collect();
        let want: BTreeSet<u32> = ids.iter().filter(|&&p| {
            let words = dict.words(p).unwrap();
            let shared = words.iter().filter(|w| qset.contains(&w.0)).count();
            (shared as f64 / words.len() as f64) < threshold
        }).map(|p| p.0).collect();
        prop_assert_eq!(&kept, &want);
        let _ = expect;
    }
}

// ---------- incremental delta index (paper §4.5.1) -------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_adjusted_probs_match_merged_corpus_counts(
        base_docs in prop::collection::vec(
            prop::collection::vec(0u8..8, 2..8), 3..12),
        added_docs in prop::collection::vec(
            prop::collection::vec(0u8..8, 2..8), 0..6),
        delete_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        use ipm_core::delta::DeltaIndex;
        use ipm_corpus::{Feature, WordId};
        use ipm_index::corpus_index::{CorpusIndex, IndexConfig};
        use ipm_index::inverted::doc_phrases;
        use ipm_index::mining::MiningConfig;

        // Base corpus over a tiny shared vocabulary w0..w7.
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for doc in &base_docs {
            let text: Vec<String> = doc.iter().map(|t| format!("w{t}")).collect();
            b.add_text(&text.join(" "));
        }
        let corpus = b.build();
        let index = CorpusIndex::build(&corpus, &IndexConfig {
            mining: MiningConfig { min_df: 1, max_len: 3, min_len: 1 },
        });

        // Apply churn through the side index.
        let mut delta = DeltaIndex::new();
        let mut added_tokenized: Vec<Vec<WordId>> = Vec::new();
        for doc in &added_docs {
            let tokens: Vec<WordId> = doc
                .iter()
                .filter_map(|t| corpus.word_id(&format!("w{t}")))
                .collect();
            if tokens.is_empty() {
                continue; // words unseen in the base vocab can't be interned
            }
            delta.add_document(&index, &tokens, &[]);
            added_tokenized.push(tokens);
        }
        let mut deleted = BTreeSet::new();
        for pick in &delete_picks {
            let d = DocId(pick.index(base_docs.len()) as u32);
            delta.delete_document(d);
            deleted.insert(d.0);
        }

        // Ground truth: naive counting over the merged document set.
        let merged: Vec<&[WordId]> = corpus
            .docs()
            .iter()
            .filter(|d| !deleted.contains(&d.id.0))
            .map(|d| d.tokens.as_slice())
            .chain(added_tokenized.iter().map(|t| t.as_slice()))
            .collect();

        for (pid, _, base_df) in index.dict.iter() {
            let mut df = 0usize;
            let mut joint = [0usize; 8];
            for tokens in &merged {
                if doc_phrases(tokens, &index.dict).contains(&pid) {
                    df += 1;
                    let mut ws: Vec<u32> = tokens.iter().map(|w| w.0).collect();
                    ws.sort_unstable();
                    ws.dedup();
                    for w in ws {
                        if (w as usize) < joint.len() {
                            joint[w as usize] += 1;
                        }
                    }
                }
            }
            // Base-corpus joint counts give the stale probability.
            for w in 0u32..8 {
                let Some(wid) = corpus.word_id(&format!("w{w}")) else { continue };
                prop_assert!(wid.0 < 8, "tiny vocab stays dense");
                let mut base_joint = 0usize;
                let mut base_count = 0usize;
                for d in corpus.docs() {
                    if doc_phrases(&d.tokens, &index.dict).contains(&pid) {
                        base_count += 1;
                        if d.tokens.contains(&wid) {
                            base_joint += 1;
                        }
                    }
                }
                prop_assert_eq!(base_count as u32, base_df, "dict df equals naive df");
                let stale = base_joint as f64 / base_count as f64;
                let got = delta.adjust_prob(&index, Feature::Word(wid), pid, stale);
                let want = if df == 0 {
                    0.0
                } else {
                    joint[wid.0 as usize] as f64 / df as f64
                };
                prop_assert!(
                    (got - want).abs() < 1e-9,
                    "phrase {pid:?} word w{w}: got {got}, want {want} (df {df})"
                );
                // The corrected df must also match the merged count.
                prop_assert!(
                    (delta.adjusted_df(&index, pid) - df as f64).abs() < 1e-9
                );
            }
        }
    }
}
