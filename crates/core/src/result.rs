//! Result types for top-k phrase retrieval.

use ipm_corpus::PhraseId;

/// One result phrase with its score (and, for NRA, its final bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhraseHit {
    /// The phrase.
    pub phrase: PhraseId,
    /// The aggregated score: `Σ P(qi|p)` for OR, `Σ log P(qi|p)` for AND
    /// (paper Eqs. 8/12). For the exact scorer this is the interestingness
    /// `I(p, D')` itself (Eq. 1).
    pub score: f64,
    /// Lower bound at termination (equals `score` when fully resolved).
    pub lower: f64,
    /// Upper bound at termination (equals `score` when fully resolved).
    pub upper: f64,
}

impl PhraseHit {
    /// A hit whose score is exact (bounds collapsed).
    pub fn exact(phrase: PhraseId, score: f64) -> Self {
        Self {
            phrase,
            score,
            lower: score,
            upper: score,
        }
    }

    /// Whether the bounds have collapsed onto the score.
    pub fn is_resolved(&self) -> bool {
        self.lower == self.upper
    }
}

/// Orders hits the way result lists are presented: score descending, ties
/// by ascending phrase id (deterministic output; the paper's lists use the
/// same id tie-break).
pub fn sort_hits(hits: &mut [PhraseHit]) {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.phrase.cmp(&b.phrase))
    });
}

/// Keeps the top-`k` hits of `hits` (by the [`sort_hits`] order), dropping
/// the rest.
pub fn truncate_top_k(hits: &mut Vec<PhraseHit>, k: usize) {
    sort_hits(hits);
    hits.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u32, score: f64) -> PhraseHit {
        PhraseHit::exact(PhraseId(id), score)
    }

    #[test]
    fn exact_hit_is_resolved() {
        let h = hit(3, 0.5);
        assert!(h.is_resolved());
        assert_eq!(h.lower, 0.5);
        assert_eq!(h.upper, 0.5);
    }

    #[test]
    fn sort_by_score_desc_then_id_asc() {
        let mut hs = vec![hit(5, 0.3), hit(1, 0.9), hit(2, 0.3), hit(9, 0.5)];
        sort_hits(&mut hs);
        let order: Vec<u32> = hs.iter().map(|h| h.phrase.raw()).collect();
        assert_eq!(order, vec![1, 9, 2, 5]);
    }

    #[test]
    fn truncate_keeps_best_k() {
        let mut hs = vec![hit(1, 0.1), hit(2, 0.8), hit(3, 0.5)];
        truncate_top_k(&mut hs, 2);
        assert_eq!(hs.len(), 2);
        assert_eq!(hs[0].phrase, PhraseId(2));
        assert_eq!(hs[1].phrase, PhraseId(3));
    }

    #[test]
    fn sort_tolerates_neg_infinity() {
        let mut hs = vec![hit(1, f64::NEG_INFINITY), hit(2, -1.0)];
        sort_hits(&mut hs);
        assert_eq!(hs[0].phrase, PhraseId(2));
    }

    #[test]
    fn truncate_with_k_larger_than_len() {
        let mut hs = vec![hit(1, 0.1)];
        truncate_top_k(&mut hs, 10);
        assert_eq!(hs.len(), 1);
    }
}
