//! Corpus-level statistics used for sizing reports and experiment logs.

use crate::corpus::Corpus;
use crate::hash::FxHashMap;

/// Summary statistics of a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Number of documents `|D|`.
    pub num_docs: usize,
    /// Vocabulary size `|W|` (distinct words).
    pub vocab_size: usize,
    /// Number of distinct facet values.
    pub num_facets: usize,
    /// Total token count.
    pub total_tokens: usize,
    /// Mean document length in tokens.
    pub mean_doc_len: f64,
    /// Maximum document length in tokens.
    pub max_doc_len: usize,
    /// Mean number of *distinct* words per document (drives the cost of the
    /// word/phrase co-occurrence pass in `ipm-index`).
    pub mean_distinct_words: f64,
}

impl CorpusStats {
    /// Computes statistics over `corpus` in a single pass.
    pub fn compute(corpus: &Corpus) -> Self {
        let num_docs = corpus.num_docs();
        let mut total_tokens = 0usize;
        let mut max_doc_len = 0usize;
        let mut distinct_total = 0usize;
        let mut scratch = Vec::new();
        for doc in corpus.docs() {
            total_tokens += doc.len();
            max_doc_len = max_doc_len.max(doc.len());
            doc.distinct_words_into(&mut scratch);
            distinct_total += scratch.len();
        }
        let denom = num_docs.max(1) as f64;
        Self {
            num_docs,
            vocab_size: corpus.words().len(),
            num_facets: corpus.facets().len(),
            total_tokens,
            mean_doc_len: total_tokens as f64 / denom,
            max_doc_len,
            mean_distinct_words: distinct_total as f64 / denom,
        }
    }
}

/// Word document-frequency histogram: for each word, in how many documents
/// it appears. Returned as a dense vector indexed by `WordId`.
pub fn word_document_frequencies(corpus: &Corpus) -> Vec<u32> {
    let mut df = vec![0u32; corpus.words().len()];
    let mut scratch = Vec::new();
    for doc in corpus.docs() {
        doc.distinct_words_into(&mut scratch);
        for w in &scratch {
            df[w.index()] += 1;
        }
    }
    df
}

/// Collection frequencies (total occurrence counts) per word.
pub fn word_collection_frequencies(corpus: &Corpus) -> Vec<u64> {
    let mut cf = vec![0u64; corpus.words().len()];
    for doc in corpus.docs() {
        for w in &doc.tokens {
            cf[w.index()] += 1;
        }
    }
    cf
}

/// Returns the `n` most document-frequent words as `(word, df)` pairs,
/// ties broken by word id for determinism.
pub fn top_words_by_df(corpus: &Corpus, n: usize) -> Vec<(crate::ids::WordId, u32)> {
    let df = word_document_frequencies(corpus);
    let mut pairs: Vec<(crate::ids::WordId, u32)> = df
        .iter()
        .enumerate()
        .map(|(i, &c)| (crate::ids::WordId(i as u32), c))
        .collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(n);
    pairs
}

/// A crude check of Zipfian shape: fits the log-log slope of the
/// rank/frequency curve by least squares and returns the slope (a Zipf-like
/// corpus has slope near -1). Used by generator tests.
pub fn zipf_slope(corpus: &Corpus) -> f64 {
    let cf = word_collection_frequencies(corpus);
    let mut freqs: Vec<u64> = cf.into_iter().filter(|&c| c > 0).collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    if freqs.len() < 2 {
        return 0.0;
    }
    let pts: Vec<(f64, f64)> = freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| (((i + 1) as f64).ln(), (f as f64).ln()))
        .collect();
    least_squares_slope(&pts)
}

fn least_squares_slope(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

/// Histogram of document lengths bucketed by `bucket` tokens.
pub fn doc_length_histogram(corpus: &Corpus, bucket: usize) -> FxHashMap<usize, usize> {
    let mut h = FxHashMap::default();
    for doc in corpus.docs() {
        *h.entry(doc.len() / bucket.max(1)).or_insert(0) += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::ids::WordId;
    use crate::token::TokenizerConfig;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text("a b a c");
        b.add_text("a b");
        b.add_text("d");
        b.build()
    }

    #[test]
    fn stats_basic() {
        let s = CorpusStats::compute(&corpus());
        assert_eq!(s.num_docs, 3);
        assert_eq!(s.vocab_size, 4);
        assert_eq!(s.total_tokens, 7);
        assert_eq!(s.max_doc_len, 4);
        assert!((s.mean_doc_len - 7.0 / 3.0).abs() < 1e-12);
        // distinct words: 3 + 2 + 1 = 6
        assert!((s.mean_distinct_words - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_corpus_do_not_divide_by_zero() {
        let s = CorpusStats::compute(&CorpusBuilder::default().build());
        assert_eq!(s.num_docs, 0);
        assert_eq!(s.mean_doc_len, 0.0);
    }

    #[test]
    fn document_frequencies_count_docs_not_occurrences() {
        let c = corpus();
        let df = word_document_frequencies(&c);
        let a = c.word_id("a").unwrap();
        assert_eq!(df[a.index()], 2); // appears twice in doc 0 but df counts docs
    }

    #[test]
    fn collection_frequencies_count_occurrences() {
        let c = corpus();
        let cf = word_collection_frequencies(&c);
        let a = c.word_id("a").unwrap();
        assert_eq!(cf[a.index()], 3);
    }

    #[test]
    fn top_words_ordering_and_ties() {
        let c = corpus();
        let top = top_words_by_df(&c, 2);
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        assert_eq!(top, vec![(a, 2), (b, 2)]); // tie on df=2 broken by id
    }

    #[test]
    fn zipf_slope_of_tiny_corpus_is_finite() {
        let s = zipf_slope(&corpus());
        assert!(s.is_finite());
        assert!(s <= 0.0);
    }

    #[test]
    fn length_histogram_buckets() {
        let h = doc_length_histogram(&corpus(), 2);
        // lengths 4, 2, 1 with bucket 2 -> buckets 2, 1, 0
        assert_eq!(h.get(&2), Some(&1));
        assert_eq!(h.get(&1), Some(&1));
        assert_eq!(h.get(&0), Some(&1));
    }

    #[test]
    fn least_squares_slope_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 - 2.0 * i as f64)).collect();
        assert!((least_squares_slope(&pts) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn df_indexes_match_word_ids() {
        let c = corpus();
        let df = word_document_frequencies(&c);
        assert_eq!(df.len(), c.words().len());
        let d = c.word_id("d").unwrap();
        assert_eq!(df[d.index()], 1);
        assert_eq!(d, WordId(3));
    }
}
