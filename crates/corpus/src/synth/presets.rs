//! Named generator presets mirroring the paper's two datasets.

use super::topics::SynthConfig;

/// A statistical stand-in for **Reuters-21578** (paper §5.1): 21,578
/// documents, ~15k-word vocabulary, newswire-length articles.
///
/// The topic count (40) approximates the number of well-populated Reuters
/// topic categories; collocation injection produces the kind of recurring
/// named entities ("economic minister", "trade reserves") the paper's
/// example queries hit.
pub fn reuters_like() -> SynthConfig {
    SynthConfig {
        seed: 0x5E75_0001,
        num_docs: 21_578,
        vocab_size: 15_000,
        num_topics: 40,
        topic_vocab_size: 400,
        topics_per_doc_max: 2,
        background_exponent: 1.05,
        topic_exponent: 0.9,
        topic_mix: 0.65,
        phrases_per_topic: 60,
        phrase_len: (2, 5),
        phrase_injection: 0.10,
        colloc_noise: 0.25,
        doc_len_lognormal: (4.55, 0.55), // median ~95 tokens, mean ~110
        doc_len_range: (15, 1200),
        attach_topic_facets: true,
    }
}

/// A statistical stand-in for the **PubMed abstracts** collection
/// (paper §5.1: 655k abstracts, ~170k-word vocabulary, ~2 GB).
///
/// `num_docs` scales the collection; the vocabulary, topic count and
/// per-topic structure scale sub-linearly with it (Heaps'-law-like), so a
/// reduced corpus keeps realistic df distributions. Passing `655_000`
/// reproduces the paper's full scale (uses several GB of RAM); the
/// experiment defaults use 60k for laptop-scale runs — the paper's
/// Reuters-vs-PubMed contrast is a *scale* contrast and survives the
/// reduction directionally.
pub fn pubmed_like(num_docs: usize) -> SynthConfig {
    assert!(num_docs >= 1000, "pubmed_like needs at least 1000 docs");
    // Heaps-like sub-linear vocabulary growth, anchored so that
    // 655k docs -> ~170k words (the paper's reported vocabulary).
    let vocab = ((num_docs as f64).powf(0.62) * 41.5) as usize;
    let vocab = vocab.clamp(8_000, 200_000);
    let topics = ((num_docs as f64).sqrt() * 0.55) as usize;
    let topics = topics.clamp(30, 450);
    SynthConfig {
        seed: 0x9B3D_0002,
        num_docs,
        vocab_size: vocab,
        num_topics: topics,
        topic_vocab_size: (vocab / 40).clamp(150, 2_500),
        topics_per_doc_max: 3,
        background_exponent: 1.1,
        topic_exponent: 0.9,
        topic_mix: 0.7,
        phrases_per_topic: 80,
        phrase_len: (2, 6),
        phrase_injection: 0.09,
        colloc_noise: 0.2,
        doc_len_lognormal: (5.0, 0.4), // abstracts: median ~150 tokens
        doc_len_range: (30, 800),
        attach_topic_facets: true,
    }
}

/// A tiny corpus for unit tests and doc examples: fast to generate and to
/// index (hundreds of documents, small vocabulary).
pub fn tiny() -> SynthConfig {
    SynthConfig {
        seed: 7,
        num_docs: 400,
        vocab_size: 1_500,
        num_topics: 6,
        topic_vocab_size: 120,
        topics_per_doc_max: 2,
        background_exponent: 1.0,
        topic_exponent: 0.85,
        topic_mix: 0.7,
        phrases_per_topic: 25,
        phrase_len: (2, 4),
        phrase_injection: 0.14,
        colloc_noise: 0.2,
        doc_len_lognormal: (4.0, 0.4), // median ~55 tokens
        doc_len_range: (10, 300),
        attach_topic_facets: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate;

    #[test]
    fn reuters_preset_matches_paper_scale() {
        let cfg = reuters_like();
        assert_eq!(cfg.num_docs, 21_578);
        assert_eq!(cfg.vocab_size, 15_000);
    }

    #[test]
    fn pubmed_vocab_anchored_to_paper_at_full_scale() {
        let cfg = pubmed_like(655_000);
        let v = cfg.vocab_size as f64;
        assert!(
            (140_000.0..=200_000.0).contains(&v),
            "full-scale vocab {v} should approximate the paper's ~170k"
        );
    }

    #[test]
    fn pubmed_scales_sublinearly() {
        let small = pubmed_like(10_000);
        let big = pubmed_like(100_000);
        assert!(big.vocab_size > small.vocab_size);
        assert!((big.vocab_size as f64 / small.vocab_size as f64) < 10.0);
        assert!(big.num_topics > small.num_topics);
    }

    #[test]
    #[should_panic(expected = "at least 1000")]
    fn pubmed_rejects_tiny_scale() {
        let _ = pubmed_like(10);
    }

    #[test]
    fn tiny_preset_generates_quickly() {
        let (c, model) = generate(&tiny());
        assert_eq!(c.num_docs(), 400);
        assert_eq!(model.collocations.len(), 6);
    }
}
