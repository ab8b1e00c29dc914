//! Ranked-retrieval quality metrics over binary relevance.
//!
//! "Precision represents the fraction of correct results among the top-k
//! results whereas MRR stands for the reciprocal rank of the first correct
//! result. NDCG and average precision (MAP) are rank-sensitive measures"
//! (paper §5.2). All four live in `[0, 1]`, 1.0 = perfect.

/// The four measures for one ranked result list.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityScores {
    /// Fraction of correct results among the k returned.
    pub precision: f64,
    /// Reciprocal rank of the first correct result.
    pub mrr: f64,
    /// Average precision.
    pub map: f64,
    /// Normalized discounted cumulative gain at k.
    pub ndcg: f64,
}

impl QualityScores {
    /// Computes all measures for one query.
    ///
    /// `relevant` flags each *returned* result (in rank order) as correct;
    /// `k` is the requested result size (the precision denominator even if
    /// fewer results were returned); `num_relevant` is the total number of
    /// correct answers that exist for the query (bounds the MAP/NDCG
    /// ideals).
    pub fn compute(relevant: &[bool], k: usize, num_relevant: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let hits = relevant.iter().take(k).filter(|&&r| r).count();
        let precision = hits as f64 / k as f64;

        let mrr = relevant
            .iter()
            .take(k)
            .position(|&r| r)
            .map(|i| 1.0 / (i + 1) as f64)
            .unwrap_or(0.0);

        // Average precision: mean of precision@i over correct positions,
        // normalized by the best achievable count.
        let denom = num_relevant.min(k);
        let map = if denom == 0 {
            0.0
        } else {
            let mut correct_so_far = 0usize;
            let mut ap = 0.0;
            for (i, &r) in relevant.iter().take(k).enumerate() {
                if r {
                    correct_so_far += 1;
                    ap += correct_so_far as f64 / (i + 1) as f64;
                }
            }
            ap / denom as f64
        };

        // Binary NDCG: gains 1/log2(rank+1), ideal = all correct up front.
        let dcg: f64 = relevant
            .iter()
            .take(k)
            .enumerate()
            .filter(|(_, &r)| r)
            .map(|(i, _)| 1.0 / ((i + 2) as f64).log2())
            .sum();
        let idcg: f64 = (0..denom).map(|i| 1.0 / ((i + 2) as f64).log2()).sum();
        let ndcg = if idcg == 0.0 { 0.0 } else { dcg / idcg };

        Self {
            precision,
            mrr,
            map,
            ndcg,
        }
    }

    /// Arithmetic mean over per-query scores (as the paper averages across
    /// its query sets).
    pub fn mean(scores: &[QualityScores]) -> QualityScores {
        if scores.is_empty() {
            return QualityScores::default();
        }
        let n = scores.len() as f64;
        QualityScores {
            precision: scores.iter().map(|s| s.precision).sum::<f64>() / n,
            mrr: scores.iter().map(|s| s.mrr).sum::<f64>() / n,
            map: scores.iter().map(|s| s.map).sum::<f64>() / n,
            ndcg: scores.iter().map(|s| s.ndcg).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn perfect_ranking_scores_one_everywhere() {
        let s = QualityScores::compute(&[true, true, true], 3, 3);
        close(s.precision, 1.0);
        close(s.mrr, 1.0);
        close(s.map, 1.0);
        close(s.ndcg, 1.0);
    }

    #[test]
    fn all_wrong_scores_zero() {
        let s = QualityScores::compute(&[false, false, false], 3, 3);
        close(s.precision, 0.0);
        close(s.mrr, 0.0);
        close(s.map, 0.0);
        close(s.ndcg, 0.0);
    }

    #[test]
    fn mrr_depends_on_first_hit_position() {
        close(QualityScores::compute(&[false, true], 2, 2).mrr, 0.5);
        close(
            QualityScores::compute(&[false, false, true], 5, 5).mrr,
            1.0 / 3.0,
        );
    }

    #[test]
    fn rank_sensitivity_of_map_and_ndcg() {
        // Paper's own example: 2 correct of 5 — better when they're top-2
        // than when they're at ranks 4 and 5.
        let top = QualityScores::compute(&[true, true, false, false, false], 5, 2);
        let bottom = QualityScores::compute(&[false, false, false, true, true], 5, 2);
        close(top.precision, bottom.precision); // precision is rank-blind
        assert!(top.map > bottom.map);
        assert!(top.ndcg > bottom.ndcg);
        close(top.map, 1.0);
        close(top.ndcg, 1.0);
        // bottom MAP: (1/4 + 2/5)/2
        close(bottom.map, (0.25 + 0.4) / 2.0);
    }

    #[test]
    fn precision_denominator_is_k_not_returned_len() {
        // Two results returned for k=5, one correct.
        let s = QualityScores::compute(&[true, false], 5, 5);
        close(s.precision, 0.2);
    }

    #[test]
    fn num_relevant_caps_the_ideal() {
        // Only 1 relevant answer exists; finding it at rank 1 is perfect.
        let s = QualityScores::compute(&[true, false, false], 3, 1);
        close(s.map, 1.0);
        close(s.ndcg, 1.0);
        close(s.precision, 1.0 / 3.0); // precision still penalizes padding
    }

    #[test]
    fn zero_relevant_yields_zero_not_nan() {
        let s = QualityScores::compute(&[false, false], 2, 0);
        assert_eq!(s.map, 0.0);
        assert_eq!(s.ndcg, 0.0);
        assert!(!s.ndcg.is_nan());
    }

    #[test]
    fn extra_results_beyond_k_ignored() {
        let s = QualityScores::compute(&[false, false, true, true], 2, 2);
        close(s.precision, 0.0);
        close(s.mrr, 0.0);
    }

    #[test]
    fn mean_aggregates_per_field() {
        let a = QualityScores {
            precision: 1.0,
            mrr: 1.0,
            map: 1.0,
            ndcg: 1.0,
        };
        let b = QualityScores::default();
        let m = QualityScores::mean(&[a, b]);
        close(m.precision, 0.5);
        close(m.ndcg, 0.5);
        assert_eq!(QualityScores::mean(&[]), QualityScores::default());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = QualityScores::compute(&[true], 0, 1);
    }
}
