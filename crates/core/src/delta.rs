//! Incremental operation: the side index of paper §4.5.1.
//!
//! The word-specific lists hold pre-computed conditional probabilities and
//! are expensive to keep current under document churn. The paper's remedy:
//! maintain a *separate* inverted index over the updated (added or deleted)
//! documents, keyed on features and phrases; when a phrase enters the
//! candidate set of NRA or SMJ, query that side index for the delta of its
//! conditional probability and use the corrected value. Periodically the
//! side index is flushed and the list indexes rebuilt offline.
//!
//! Correctness note from the paper: the corrections make SMJ results exact
//! again, but NRA's pruning bounds were computed from the *stale* list
//! order, so corrected-NRA remains approximate.
//!
//! [`DeltaOverlay`] lifts the correction from a cursor-level bolt-on to a
//! full [`ListBackend`]: it wraps *any* backend (memory, disk, or one
//! shard of either) so score cursors, id cursors and random probes all
//! serve corrected `P(q|p)` values. Every algorithm — NRA, SMJ, TA and
//! (through [`crate::exact`]'s delta-aware scorer) the exact ground truth
//! — therefore honours the same side index uniformly.

use ipm_corpus::hash::{FxHashMap, FxHashSet};
use ipm_corpus::{DocId, FacetId, Feature, PhraseId, WordId};
use ipm_index::backend::ListBackend;
use ipm_index::corpus_index::CorpusIndex;
use ipm_index::cursor::{IdListCursor, ScoredListCursor};
use ipm_index::inverted::doc_phrases;
use ipm_index::wordlists::ListEntry;

use crate::query::{Operator, Query};

/// The side index over inserted and deleted documents.
#[derive(Debug, Default)]
pub struct DeltaIndex {
    /// Number of documents added so far (local ids are dense).
    num_added: u32,
    /// feature code -> local added-doc ids containing it (sorted).
    added_features: FxHashMap<u64, Vec<u32>>,
    /// phrase -> local added-doc ids containing it (sorted).
    added_phrases: FxHashMap<PhraseId, Vec<u32>>,
    /// Base-corpus documents marked deleted.
    deleted: FxHashSet<DocId>,
    /// Raw token/facet streams of every added document, in insertion
    /// order (local id = position). Compaction rebuilds the corpus from
    /// these, and new phrases/words they carry enter the dictionary at
    /// that offline rebuild — exactly the paper's flush model.
    added_docs: Vec<(Vec<WordId>, Vec<FacetId>)>,
    /// `P(q|p)` corrections served while this delta was live (relaxed;
    /// bumped from concurrent query threads). Dropped with the delta at
    /// compaction, so it gauges the *current generation's* correction
    /// traffic.
    corrections: std::sync::atomic::AtomicU64,
}

impl Clone for DeltaIndex {
    fn clone(&self) -> Self {
        Self {
            num_added: self.num_added,
            added_features: self.added_features.clone(),
            added_phrases: self.added_phrases.clone(),
            deleted: self.deleted.clone(),
            added_docs: self.added_docs.clone(),
            corrections: std::sync::atomic::AtomicU64::new(
                // lint-allow: relaxed-ordering — clone snapshot of an advisory counter
                self.corrections.load(std::sync::atomic::Ordering::Relaxed),
            ),
        }
    }
}

impl DeltaIndex {
    /// Creates an empty side index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of added documents.
    pub fn num_added(&self) -> usize {
        self.num_added as usize
    }

    /// Number of deleted base documents.
    pub fn num_deleted(&self) -> usize {
        self.deleted.len()
    }

    /// Whether the side index is empty (nothing to correct).
    pub fn is_empty(&self) -> bool {
        self.num_added == 0 && self.deleted.is_empty()
    }

    /// How many `P(q|p)` corrections this delta has served (monotone
    /// while the delta is live; the count dies with it at compaction).
    pub fn corrections_applied(&self) -> u64 {
        // lint-allow: relaxed-ordering — advisory stats read
        self.corrections.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records an inserted document. Phrases are recognized against the
    /// *existing* dictionary (new phrases only enter `P` at the next offline
    /// rebuild, mirroring the paper's flush model).
    pub fn add_document(&mut self, index: &CorpusIndex, tokens: &[WordId], facets: &[FacetId]) {
        let local = self.num_added;
        self.num_added += 1;
        self.added_docs.push((tokens.to_vec(), facets.to_vec()));
        let mut distinct: Vec<WordId> = tokens.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for w in distinct {
            self.added_features
                .entry(Feature::Word(w).encode())
                .or_default()
                .push(local);
        }
        let mut fs: Vec<FacetId> = facets.to_vec();
        fs.sort_unstable();
        fs.dedup();
        for f in fs {
            self.added_features
                .entry(Feature::Facet(f).encode())
                .or_default()
                .push(local);
        }
        for p in doc_phrases(tokens, &index.dict) {
            self.added_phrases.entry(p).or_default().push(local);
        }
    }

    /// Marks a base-corpus document deleted. Idempotent (re-deleting a
    /// deleted document changes no state).
    pub fn delete_document(&mut self, doc: DocId) {
        self.deleted.insert(doc);
    }

    /// Whether a base-corpus document is marked deleted.
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.deleted.contains(&doc)
    }

    /// The raw token/facet streams of every added document, in insertion
    /// order (local id = position) — the material compaction flushes into
    /// the offline rebuild.
    pub fn added_docs(&self) -> &[(Vec<WordId>, Vec<FacetId>)] {
        &self.added_docs
    }

    /// The phrases occurring in at least one added document.
    pub fn added_phrase_ids(&self) -> impl Iterator<Item = PhraseId> + '_ {
        self.added_phrases.keys().copied()
    }

    /// Local ids of added documents that contain `phrase` (sorted).
    pub fn added_containing(&self, phrase: PhraseId) -> &[u32] {
        self.added_phrases
            .get(&phrase)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Local ids (sorted) of added documents matching `query`: the union
    /// (OR) or intersection (AND) of the per-feature added-doc lists —
    /// the delta-side half of materializing `D'` over the updated corpus.
    pub fn added_matching(&self, query: &Query) -> Vec<u32> {
        let lists: Vec<&[u32]> = query
            .features
            .iter()
            .map(|f| {
                self.added_features
                    .get(&f.encode())
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
            })
            .collect();
        match query.op {
            Operator::Or => {
                let mut all: Vec<u32> = lists.concat();
                all.sort_unstable();
                all.dedup();
                all
            }
            Operator::And => {
                let Some((first, rest)) = lists.split_first() else {
                    return Vec::new();
                };
                let mut acc: Vec<u32> = first.to_vec();
                for l in rest {
                    acc.retain(|x| l.binary_search(x).is_ok());
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
        }
    }

    /// The corrected `P(q|p)` given the stale probability from the list
    /// index.
    ///
    /// With `J = |docs(q) ∩ docs(p)|` and `F = |docs(p)|` in the base
    /// corpus (recovered from `stale_prob = J/F` and the base df), the
    /// corrected probability is
    /// `(J + J_add − J_del) / (F + F_add − F_del)`.
    pub fn adjust_prob(
        &self,
        index: &CorpusIndex,
        feature: Feature,
        phrase: PhraseId,
        stale_prob: f64,
    ) -> f64 {
        if self.is_empty() {
            return stale_prob;
        }
        self.corrections
            // lint-allow: relaxed-ordering — monotone correction counter, read only by stats
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let base_df = index.phrases.df(phrase) as f64;
        let base_joint = (stale_prob * base_df).round();

        let added_p = self.added_phrases.get(&phrase);
        let added_q = self.added_features.get(&feature.encode());
        let add_joint = match (added_q, added_p) {
            (Some(q), Some(p)) => sorted_intersection_len(q, p) as f64,
            _ => 0.0,
        };
        let add_p = added_p.map(|v| v.len()).unwrap_or(0) as f64;

        let (del_joint, del_p) = if self.deleted.is_empty() {
            (0.0, 0.0)
        } else {
            let p_postings = index.phrases.phrase(phrase);
            let q_postings = index.features.feature(feature);
            let mut del_joint = 0usize;
            let mut del_p = 0usize;
            for d in p_postings.iter() {
                if self.deleted.contains(&d) {
                    del_p += 1;
                    if q_postings.contains(d) {
                        del_joint += 1;
                    }
                }
            }
            (del_joint as f64, del_p as f64)
        };

        let denom = base_df + add_p - del_p;
        if denom <= 0.0 {
            return 0.0;
        }
        ((base_joint + add_joint - del_joint) / denom).clamp(0.0, 1.0)
    }

    /// Corrected document frequency of a phrase (`freq(p, D)` after churn).
    pub fn adjusted_df(&self, index: &CorpusIndex, phrase: PhraseId) -> f64 {
        let base = index.phrases.df(phrase) as f64;
        let add = self
            .added_phrases
            .get(&phrase)
            .map(|v| v.len())
            .unwrap_or(0) as f64;
        let del = if self.deleted.is_empty() {
            0.0
        } else {
            index
                .phrases
                .phrase(phrase)
                .iter()
                .filter(|d| self.deleted.contains(d))
                .count() as f64
        };
        base + add - del
    }
}

fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// A cursor that corrects each entry's probability against a [`DeltaIndex`]
/// as it streams by — the paper's "additional query ... performed on the
/// separate index" when a phrase is taken into the candidate set.
///
/// Entries whose *corrected* probability collapses to zero (every joint
/// document deleted) are skipped: the base lists omit zero-probability
/// pairs, and the corrected stream mirrors that invariant so SMJ's
/// presence test and AND's `-∞` semantics stay faithful to a rebuilt
/// index. `len()` is therefore an upper bound on the entries yielded.
pub struct AdjustedCursor<'a, C> {
    inner: C,
    delta: &'a DeltaIndex,
    index: &'a CorpusIndex,
    feature: Feature,
}

impl<'a, C> AdjustedCursor<'a, C> {
    /// Wraps `inner` (the stale list cursor for `feature`).
    pub fn new(inner: C, delta: &'a DeltaIndex, index: &'a CorpusIndex, feature: Feature) -> Self {
        Self {
            inner,
            delta,
            index,
            feature,
        }
    }

    fn adjust(&self, e: ListEntry) -> Option<ListEntry> {
        let prob = self
            .delta
            .adjust_prob(self.index, self.feature, e.phrase, e.prob);
        (prob > 0.0).then_some(ListEntry {
            phrase: e.phrase,
            prob,
        })
    }
}

impl<C: ScoredListCursor> ScoredListCursor for AdjustedCursor<'_, C> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        while let Some(e) = self.inner.next_entry() {
            if let Some(adjusted) = self.adjust(e) {
                return Some(adjusted);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn position(&self) -> usize {
        self.inner.position()
    }
}

/// [`AdjustedCursor`]'s phrase-id-ordered sibling: corrects an
/// [`IdListCursor`] stream (skipping corrected zeros), which is what makes
/// delta-corrected SMJ possible — the paper's "corrections make SMJ exact
/// again" — without SMJ knowing the delta exists.
pub struct AdjustedIdCursor<'a, C> {
    inner: AdjustedCursor<'a, C>,
}

impl<C: IdListCursor> IdListCursor for AdjustedIdCursor<'_, C> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        while let Some(e) = self.inner.inner.next_entry() {
            if let Some(adjusted) = self.inner.adjust(e) {
                return Some(adjusted);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.inner.inner.len()
    }
}

/// A [`ListBackend`] wrapper that serves §4.5.1-corrected `P(q|p)` values
/// through *every* access path — score cursors, id cursors and random
/// probes — so NRA, SMJ, TA and the exact scorer all honour one side
/// index over any underlying backend (memory, disk, or a phrase-id shard
/// of either).
///
/// The three access paths stay mutually consistent: all serve exactly the
/// base backend's pairs with corrected probabilities, with corrected-zero
/// pairs omitted everywhere (probes included). Pairs that exist only in
/// added documents — a phrase/feature combination with no base joint
/// document — surface at the next offline rebuild ([compaction]), like
/// the paper's deferred new phrases.
///
/// [compaction]: crate::engine::QueryEngine::compact
pub struct DeltaOverlay<'a, B> {
    inner: &'a B,
    delta: &'a DeltaIndex,
    index: &'a CorpusIndex,
}

impl<'a, B: ListBackend> DeltaOverlay<'a, B> {
    /// Wraps `inner`, correcting against `delta` (probabilities recovered
    /// through `index`'s postings and dictionary).
    pub fn new(inner: &'a B, delta: &'a DeltaIndex, index: &'a CorpusIndex) -> Self {
        Self {
            inner,
            delta,
            index,
        }
    }
}

impl<B: ListBackend> ListBackend for DeltaOverlay<'_, B> {
    type ScoreCursor<'c>
        = AdjustedCursor<'c, B::ScoreCursor<'c>>
    where
        Self: 'c;
    type IdCursor<'c>
        = AdjustedIdCursor<'c, B::IdCursor<'c>>
    where
        Self: 'c;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> Self::ScoreCursor<'_> {
        AdjustedCursor::new(
            self.inner.score_cursor(feature, fraction),
            self.delta,
            self.index,
            feature,
        )
    }

    fn id_cursor(&self, feature: Feature) -> Self::IdCursor<'_> {
        AdjustedIdCursor {
            inner: AdjustedCursor::new(
                self.inner.id_cursor(feature),
                self.delta,
                self.index,
                feature,
            ),
        }
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        let stale = self.inner.probe(feature, phrase);
        if stale == 0.0 {
            // Absent base pairs stay absent (see the type docs): probes
            // must agree with what the corrected cursors stream.
            return 0.0;
        }
        self.delta.adjust_prob(self.index, feature, phrase, stale)
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.inner.list_len(feature)
    }

    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        self.inner.phrase_range()
    }

    fn io_fetches(&self) -> u64 {
        self.inner.io_fetches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_corpus::{Corpus, CorpusBuilder, TokenizerConfig};
    use ipm_index::corpus_index::IndexConfig;
    use ipm_index::cursor::MemoryCursor;
    use ipm_index::mining::MiningConfig;
    use ipm_index::wordlists::{WordListConfig, WordPhraseLists};

    fn build(texts: &[&str]) -> (Corpus, CorpusIndex, WordPhraseLists) {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for t in texts {
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
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        (c, index, lists)
    }

    const BASE: &[&str] = &["a b c", "a b", "b c", "a c", "a b c d", "d b"];

    #[test]
    fn empty_delta_is_identity() {
        let (c, index, lists) = build(BASE);
        let delta = DeltaIndex::new();
        let f = Feature::Word(c.word_id("a").unwrap());
        for e in lists.list(f) {
            assert_eq!(delta.adjust_prob(&index, f, e.phrase, e.prob), e.prob);
        }
    }

    #[test]
    fn added_documents_match_full_rebuild() {
        let (c, index, lists) = build(BASE);
        // Delta: add two documents with known content.
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        let mut delta = DeltaIndex::new();
        delta.add_document(&index, &[a, b], &[]);
        delta.add_document(&index, &[b], &[]);
        assert_eq!(delta.num_added(), 2);

        // Ground truth: rebuild over the base + the two new docs.
        let extended: Vec<&str> = BASE.iter().copied().chain(["a b", "b"]).collect();
        let (c2, index2, lists2) = build(&extended);

        let fa = Feature::Word(a);
        for e in lists.list(fa) {
            let adjusted = delta.adjust_prob(&index, fa, e.phrase, e.prob);
            // Map the phrase to the rebuilt index (vocab ids are identical
            // because the base documents were interned first).
            let words = index.dict.words(e.phrase).unwrap();
            let p2 = index2.dict.get(words).expect("phrase survives rebuild");
            let want = lists2
                .list(Feature::Word(c2.word_id("a").unwrap()))
                .iter()
                .find(|x| x.phrase == p2)
                .map(|x| x.prob)
                .unwrap_or(0.0);
            assert!(
                (adjusted - want).abs() < 1e-9,
                "phrase {:?}: adjusted {adjusted} want {want}",
                words
            );
        }
    }

    #[test]
    fn deleted_documents_match_full_rebuild() {
        let (c, index, lists) = build(BASE);
        let mut delta = DeltaIndex::new();
        delta.delete_document(DocId(0)); // remove "a b c"
        assert_eq!(delta.num_deleted(), 1);

        let remaining: Vec<&str> = BASE[1..].to_vec();
        let (c2, index2, lists2) = build(&remaining);

        let fa = Feature::Word(c.word_id("a").unwrap());
        for e in lists.list(fa) {
            let adjusted = delta.adjust_prob(&index, fa, e.phrase, e.prob);
            let words = index.dict.words(e.phrase).unwrap();
            // The phrase may have fallen below min_df in the rebuilt corpus;
            // compare against raw postings arithmetic instead of the dict.
            let want = match index2.dict.get(
                &words
                    .iter()
                    .map(|w| c2.word_id(c.words().term_unchecked(*w)).unwrap())
                    .collect::<Vec<_>>(),
            ) {
                Some(p2) => lists2
                    .list(Feature::Word(c2.word_id("a").unwrap()))
                    .iter()
                    .find(|x| x.phrase == p2)
                    .map(|x| x.prob)
                    .unwrap_or(0.0),
                None => {
                    // fell out of the dictionary; compute directly
                    let dp = index.phrases.phrase(e.phrase);
                    let dq = index.features.feature(fa);
                    let joint = dp
                        .iter()
                        .filter(|d| d.raw() != 0 && dq.contains(*d))
                        .count() as f64;
                    let df = dp.iter().filter(|d| d.raw() != 0).count() as f64;
                    if df == 0.0 {
                        0.0
                    } else {
                        joint / df
                    }
                }
            };
            assert!(
                (adjusted - want).abs() < 1e-9,
                "phrase {words:?}: adjusted {adjusted} want {want}"
            );
        }
    }

    #[test]
    fn delete_is_idempotent() {
        let (_, index, lists) = build(BASE);
        let mut delta = DeltaIndex::new();
        delta.delete_document(DocId(1));
        delta.delete_document(DocId(1));
        assert_eq!(delta.num_deleted(), 1);
        let _ = (index, lists);
    }

    #[test]
    fn adjusted_df_tracks_churn() {
        let (c, index, _) = build(BASE);
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        let ab = index.dict.get(&[a, b]).unwrap();
        let base_df = index.phrases.df(ab) as f64;
        let mut delta = DeltaIndex::new();
        delta.add_document(&index, &[a, b, b], &[]);
        assert_eq!(delta.adjusted_df(&index, ab), base_df + 1.0);
        delta.delete_document(DocId(0)); // contains "a b"
        assert_eq!(delta.adjusted_df(&index, ab), base_df);
    }

    #[test]
    fn adjusted_cursor_streams_corrected_probs() {
        let (c, index, lists) = build(BASE);
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        let mut delta = DeltaIndex::new();
        delta.add_document(&index, &[a, b], &[]);
        let fa = Feature::Word(a);
        let base_list = lists.list(fa);
        let mut cur = AdjustedCursor::new(MemoryCursor::new(base_list), &delta, &index, fa);
        assert_eq!(cur.len(), base_list.len());
        let mut n = 0;
        while let Some(e) = cur.next_entry() {
            let want = delta.adjust_prob(&index, fa, e.phrase, base_list[n].prob);
            assert_eq!(e.prob, want);
            n += 1;
        }
        assert_eq!(n, base_list.len());
    }

    #[test]
    fn overlay_serves_corrected_values_through_every_access_path() {
        use ipm_index::backend::{ListBackend, MemoryBackend};
        use ipm_index::wordlists::IdOrderedLists;

        let (c, index, lists) = build(BASE);
        let idl = IdOrderedLists::from_score_ordered(&lists);
        let base = MemoryBackend::new(&lists, &idl);
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        let mut delta = DeltaIndex::new();
        delta.add_document(&index, &[a, b], &[]);
        delta.delete_document(DocId(0));
        let overlay = DeltaOverlay::new(&base, &delta, &index);

        for &w in &[a, b] {
            let f = Feature::Word(w);
            // Score cursor: same phrases (minus corrected zeros), each
            // probability equal to a direct adjust_prob call.
            let mut cur = overlay.score_cursor(f, 1.0);
            let mut seen = 0;
            while let Some(e) = cur.next_entry() {
                assert!(e.prob > 0.0, "corrected zeros must be skipped");
                seen += 1;
                // The probe path agrees with the cursor entry exactly.
                assert_eq!(overlay.probe(f, e.phrase).to_bits(), e.prob.to_bits());
            }
            assert!(seen > 0);
            // Id cursor: ascending ids, same corrected multiset as the
            // score cursor.
            let mut idc = overlay.id_cursor(f);
            let mut id_pairs: Vec<(ipm_corpus::PhraseId, u64)> = Vec::new();
            let mut prev = None;
            while let Some(e) = IdListCursor::next_entry(&mut idc) {
                if let Some(p) = prev {
                    assert!(e.phrase > p, "id order violated");
                }
                prev = Some(e.phrase);
                id_pairs.push((e.phrase, e.prob.to_bits()));
            }
            let mut score_pairs: Vec<(ipm_corpus::PhraseId, u64)> = Vec::new();
            let mut cur = overlay.score_cursor(f, 1.0);
            while let Some(e) = cur.next_entry() {
                score_pairs.push((e.phrase, e.prob.to_bits()));
            }
            score_pairs.sort_unstable();
            id_pairs.sort_unstable();
            assert_eq!(score_pairs, id_pairs, "access paths must agree");
        }
        // A pair absent from the base backend stays absent through the
        // overlay (consistency with the cursors).
        assert_eq!(
            overlay.probe(Feature::Word(a), ipm_corpus::PhraseId(u32::MAX)),
            0.0
        );
        // Range/ownership delegate.
        assert_eq!(overlay.phrase_range(), base.phrase_range());
        assert_eq!(overlay.io_fetches(), 0);
    }

    #[test]
    fn added_matching_unions_and_intersects() {
        let (c, index, _) = build(BASE);
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        let mut delta = DeltaIndex::new();
        delta.add_document(&index, &[a], &[]); // local 0: a only
        delta.add_document(&index, &[a, b], &[]); // local 1: both
        delta.add_document(&index, &[b], &[]); // local 2: b only
        let q_or = crate::query::Query::from_words(&c, &["a", "b"], Operator::Or).unwrap();
        let q_and = crate::query::Query::from_words(&c, &["a", "b"], Operator::And).unwrap();
        assert_eq!(delta.added_matching(&q_or), vec![0, 1, 2]);
        assert_eq!(delta.added_matching(&q_and), vec![1]);
        assert_eq!(delta.added_docs().len(), 3);
    }

    #[test]
    fn new_phrase_only_counts_after_rebuild() {
        // A phrase absent from the dictionary is not tracked by the delta
        // (the paper defers new phrases to the offline rebuild).
        let (c, index, _) = build(BASE);
        let mut delta = DeltaIndex::new();
        let z = 10_000; // unseen word id
        delta.add_document(&index, &[WordId(z), WordId(z + 1)], &[]);
        // No phrase entries should have been recorded.
        assert_eq!(delta.added_phrases.len(), 0);
        let _ = c;
    }

    #[test]
    fn facet_features_adjust_too() {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text_with_facets("m n", &[("t", "x")]);
        b.add_text_with_facets("m n", &[("t", "x")]);
        b.add_text("m n");
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
        let mn = index
            .dict
            .get(&[c.word_id("m").unwrap(), c.word_id("n").unwrap()])
            .unwrap();
        let facet = c.facet_id("t:x").unwrap();
        let ff = Feature::Facet(facet);
        let stale = 2.0 / 3.0;
        let mut delta = DeltaIndex::new();
        // Add a doc containing "m n" with the facet: joint 3/4.
        delta.add_document(
            &index,
            &[c.word_id("m").unwrap(), c.word_id("n").unwrap()],
            &[facet],
        );
        let adjusted = delta.adjust_prob(&index, ff, mn, stale);
        assert!((adjusted - 3.0 / 4.0).abs() < 1e-12);
    }
}
