//! The topic-model generator.
//!
//! Each document activates a small set of topics. Tokens are emitted one of
//! three ways: a full topic *collocation* (a multi-word phrase injected
//! verbatim, the future members of the phrase dictionary), a single topic
//! word, or a background word. Both topic-word choice and collocation choice
//! are Zipf-skewed so the resulting corpus has realistic frequency tails.

use super::randutil::{lognormal_usize, sample_distinct};
use super::zipf::Zipf;
use crate::corpus::{Corpus, CorpusBuilder};
use crate::ids::WordId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator. See module docs for semantics.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Vocabulary size (number of candidate word strings `w0..w{n-1}`;
    /// very rare tail words may never actually be emitted).
    pub vocab_size: usize,
    /// Number of topics.
    pub num_topics: usize,
    /// Words drawn into each topic's preferred sub-vocabulary.
    pub topic_vocab_size: usize,
    /// Maximum topics active per document (uniform in `1..=max`).
    pub topics_per_doc_max: usize,
    /// Zipf exponent of the background word distribution.
    pub background_exponent: f64,
    /// Zipf exponent of each topic's internal word distribution.
    pub topic_exponent: f64,
    /// Probability that a non-collocation token comes from an active topic
    /// rather than the background distribution.
    pub topic_mix: f64,
    /// Collocations per topic.
    pub phrases_per_topic: usize,
    /// Collocation length range (inclusive); the paper mines n-grams up to
    /// 6 words, so lengths beyond 6 would never become dictionary phrases.
    pub phrase_len: (usize, usize),
    /// Probability per emission step of injecting a collocation.
    pub phrase_injection: f64,
    /// Probability that an injected collocation comes from a *random* topic
    /// rather than one of the document's active topics. Real corpora leak
    /// phrases across topics (a newswire article on trade cites a named
    /// politician from the politics beat); without leakage nearly every
    /// topical phrase has perfect interestingness 1.0 for topical queries
    /// and the quality experiments cannot discriminate. Values around
    /// 0.1–0.3 produce the paper-like regime.
    pub colloc_noise: f64,
    /// Lognormal document-length parameters `(mu, sigma)` of `exp(N(mu, sigma))`
    /// tokens, clamped to `doc_len_range`.
    pub doc_len_lognormal: (f64, f64),
    /// Hard clamp on document length.
    pub doc_len_range: (usize, usize),
    /// Whether to attach a `topic:{t}` facet for each active topic.
    pub attach_topic_facets: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            num_docs: 1000,
            vocab_size: 5000,
            num_topics: 10,
            topic_vocab_size: 250,
            topics_per_doc_max: 2,
            background_exponent: 1.05,
            topic_exponent: 0.9,
            topic_mix: 0.65,
            phrases_per_topic: 30,
            phrase_len: (2, 5),
            phrase_injection: 0.12,
            colloc_noise: 0.2,
            doc_len_lognormal: (4.6, 0.45), // median ~100 tokens
            doc_len_range: (12, 2000),
            attach_topic_facets: true,
        }
    }
}

/// The sampled topic structure: which words and collocations each topic owns.
///
/// Exposed so tests and experiments can inspect the planted ground truth
/// (e.g. "phrases of topic 3 should be interesting for queries made of
/// topic-3 words").
#[derive(Debug, Clone)]
pub struct TopicModel {
    /// Per topic: the word indices (into the synthetic vocabulary) it prefers,
    /// most-preferred first.
    pub topic_words: Vec<Vec<usize>>,
    /// Per topic: its collocations, as sequences of vocabulary indices.
    pub collocations: Vec<Vec<Vec<usize>>>,
}

impl TopicModel {
    fn sample(cfg: &SynthConfig, rng: &mut StdRng) -> Self {
        let mut topic_words = Vec::with_capacity(cfg.num_topics);
        let mut collocations = Vec::with_capacity(cfg.num_topics);
        let phrase_pick = Zipf::new(cfg.phrases_per_topic.max(1), 1.0);
        let _ = &phrase_pick; // built lazily below per topic; kept for clarity
        for _ in 0..cfg.num_topics {
            let words = sample_distinct(
                rng,
                cfg.vocab_size,
                cfg.topic_vocab_size.min(cfg.vocab_size),
            );
            let mut phrases = Vec::with_capacity(cfg.phrases_per_topic);
            let word_pick = Zipf::new(words.len(), cfg.topic_exponent);
            for _ in 0..cfg.phrases_per_topic {
                let len = rng.gen_range(cfg.phrase_len.0..=cfg.phrase_len.1);
                let mut phrase = Vec::with_capacity(len);
                for _ in 0..len {
                    phrase.push(words[word_pick.sample(rng)]);
                }
                phrases.push(phrase);
            }
            topic_words.push(words);
            collocations.push(phrases);
        }
        Self {
            topic_words,
            collocations,
        }
    }
}

/// Generates a corpus from `cfg`, returning it together with the planted
/// [`TopicModel`] so callers can verify ground truth.
pub fn generate(cfg: &SynthConfig) -> (Corpus, TopicModel) {
    assert!(cfg.num_topics >= 1, "need at least one topic");
    assert!(cfg.vocab_size >= 1, "need a non-empty vocabulary");
    assert!(
        cfg.phrase_len.0 >= 2 && cfg.phrase_len.1 >= cfg.phrase_len.0,
        "phrase length range must be ordered and at least 2"
    );
    assert!(
        cfg.topics_per_doc_max >= 1,
        "documents need at least one topic"
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = TopicModel::sample(cfg, &mut rng);

    let mut builder = CorpusBuilder::default();
    // Pre-intern the vocabulary so word indices equal WordId values; this
    // keeps the planted model directly comparable with corpus ids.
    let word_ids: Vec<WordId> = (0..cfg.vocab_size)
        .map(|i| builder.intern_word(&format!("w{i}")))
        .collect();

    let background = Zipf::new(cfg.vocab_size, cfg.background_exponent);
    let topic_word_picks: Vec<Zipf> = model
        .topic_words
        .iter()
        .map(|ws| Zipf::new(ws.len(), cfg.topic_exponent))
        .collect();
    let colloc_pick = Zipf::new(cfg.phrases_per_topic.max(1), 1.0);

    let mut tokens: Vec<WordId> = Vec::with_capacity(256);
    for _ in 0..cfg.num_docs {
        tokens.clear();
        let k = rng.gen_range(1..=cfg.topics_per_doc_max.min(cfg.num_topics));
        let doc_topics = sample_distinct(&mut rng, cfg.num_topics, k);
        let target_len = lognormal_usize(
            &mut rng,
            cfg.doc_len_lognormal.0,
            cfg.doc_len_lognormal.1,
            cfg.doc_len_range.0,
            cfg.doc_len_range.1,
        );
        while tokens.len() < target_len {
            let t = doc_topics[rng.gen_range(0..doc_topics.len())];
            if cfg.phrases_per_topic > 0 && rng.gen::<f64>() < cfg.phrase_injection {
                // Occasionally leak a collocation from an unrelated topic.
                let src = if rng.gen::<f64>() < cfg.colloc_noise {
                    rng.gen_range(0..cfg.num_topics)
                } else {
                    t
                };
                let phrase = &model.collocations[src][colloc_pick.sample(&mut rng)];
                tokens.extend(phrase.iter().map(|&w| word_ids[w]));
            } else if rng.gen::<f64>() < cfg.topic_mix {
                let w = model.topic_words[t][topic_word_picks[t].sample(&mut rng)];
                tokens.push(word_ids[w]);
            } else {
                tokens.push(word_ids[background.sample(&mut rng)]);
            }
        }
        let facets = if cfg.attach_topic_facets {
            doc_topics
                .iter()
                .map(|t| builder.intern_facet("topic", &t.to_string()))
                .collect()
        } else {
            Vec::new()
        };
        builder.add_tokenized(tokens.clone(), facets);
    }
    (builder.build(), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{zipf_slope, CorpusStats};

    fn small_cfg() -> SynthConfig {
        SynthConfig {
            num_docs: 300,
            vocab_size: 2000,
            num_topics: 6,
            topic_vocab_size: 150,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg();
        let (a, _) = generate(&cfg);
        let (b, _) = generate(&cfg);
        assert_eq!(a.num_docs(), b.num_docs());
        for (da, db) in a.docs().iter().zip(b.docs()) {
            assert_eq!(da.tokens, db.tokens);
            assert_eq!(da.facets, db.facets);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_cfg();
        let (a, _) = generate(&cfg);
        let (b, _) = generate(&SynthConfig {
            seed: 43,
            ..small_cfg()
        });
        let same = a
            .docs()
            .iter()
            .zip(b.docs())
            .all(|(da, db)| da.tokens == db.tokens);
        assert!(!same);
    }

    #[test]
    fn respects_doc_count_and_length_bounds() {
        let cfg = small_cfg();
        let (c, _) = generate(&cfg);
        assert_eq!(c.num_docs(), cfg.num_docs);
        for d in c.docs() {
            assert!(d.len() >= cfg.doc_len_range.0);
            // A collocation may overshoot the target length by at most
            // phrase_len.1 - 1 tokens.
            assert!(d.len() <= cfg.doc_len_range.1 + cfg.phrase_len.1);
        }
    }

    #[test]
    fn word_ids_match_planted_indices() {
        let cfg = small_cfg();
        let (c, model) = generate(&cfg);
        // The i-th synthetic word must have WordId(i).
        assert_eq!(c.word_id("w0"), Some(WordId(0)));
        assert_eq!(
            c.word_id(&format!("w{}", cfg.vocab_size - 1)),
            Some(WordId(cfg.vocab_size as u32 - 1))
        );
        for ws in &model.topic_words {
            for &w in ws {
                assert!(w < cfg.vocab_size);
            }
        }
    }

    #[test]
    fn collocations_actually_occur_in_corpus() {
        let cfg = small_cfg();
        let (c, model) = generate(&cfg);
        // The top collocation of topic 0 should appear verbatim somewhere.
        let phrase: Vec<WordId> = model.collocations[0][0]
            .iter()
            .map(|&w| WordId(w as u32))
            .collect();
        let found = c.docs().iter().any(|d| {
            d.tokens
                .windows(phrase.len())
                .any(|win| win == phrase.as_slice())
        });
        assert!(found, "planted collocation never emitted");
    }

    #[test]
    fn facets_cover_topics() {
        let cfg = small_cfg();
        let (c, _) = generate(&cfg);
        assert!(c.facets().len() <= cfg.num_topics);
        assert!(!c.facets().is_empty());
        // Every doc carries at least one topic facet.
        assert!(c.docs().iter().all(|d| !d.facets.is_empty()));
    }

    #[test]
    fn no_facets_when_disabled() {
        let cfg = SynthConfig {
            attach_topic_facets: false,
            ..small_cfg()
        };
        let (c, _) = generate(&cfg);
        assert_eq!(c.facets().len(), 0);
        assert!(c.docs().iter().all(|d| d.facets.is_empty()));
    }

    #[test]
    fn corpus_is_roughly_zipfian() {
        let (c, _) = generate(&SynthConfig {
            num_docs: 800,
            ..small_cfg()
        });
        let slope = zipf_slope(&c);
        assert!(
            (-1.8..=-0.4).contains(&slope),
            "rank/frequency log-log slope {slope} not Zipf-like"
        );
    }

    #[test]
    fn stats_are_plausible() {
        let cfg = small_cfg();
        let (c, _) = generate(&cfg);
        let s = CorpusStats::compute(&c);
        assert!(s.mean_doc_len > 40.0 && s.mean_doc_len < 400.0);
        assert!(s.vocab_size == cfg.vocab_size); // pre-interned
    }
}
