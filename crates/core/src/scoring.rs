//! Score transforms and aggregation under the independence assumption.
//!
//! With query-word conditional independence (paper §4.1.1), the score of a
//! phrase reduces to a *sum* over per-feature terms:
//!
//! * **AND** (Eq. 8): `S(p, Q) = Σ_i log P(qi|p)` — a phrase missing from
//!   any feature's list has `P = 0`, hence score `-∞` (it cannot appear in
//!   every feature's documents-set intersection with certainty);
//! * **OR** (Eq. 12): `S(p, Q) = Σ_i P(qi|p)` — the first-order cut of the
//!   inclusion–exclusion expansion (Eq. 11), whose higher-order terms are
//!   products of probabilities and shrink rapidly.
//!
//! [`or_score_inclusion_exclusion`] evaluates Eq. 11 exactly (under
//! independence) for the ablation bench that justifies the first-order cut.

use crate::query::Operator;

/// Transforms one list entry's probability into its additive score term
/// (paper Alg. 1 line 7 / Alg. 2 line 6: `score = (O = OR) ? prob : log(prob)`).
#[inline]
pub fn entry_score(op: Operator, prob: f64) -> f64 {
    match op {
        Operator::Or => prob,
        Operator::And => prob.ln(),
    }
}

/// The score contributed by a feature from whose *full* list the phrase is
/// absent: `P(q|p) = 0`, i.e. `0` for OR and `-∞` for AND.
#[inline]
pub fn absent_score(op: Operator) -> f64 {
    match op {
        Operator::Or => 0.0,
        Operator::And => f64::NEG_INFINITY,
    }
}

/// Aggregates per-feature probabilities into the final score. `probs` must
/// contain one `P(qi|p)` per query feature (use `0.0` for absent features).
pub fn aggregate(op: Operator, probs: &[f64]) -> f64 {
    probs.iter().map(|&p| entry_score(op, p)).sum()
}

/// Converts an aggregated score back into an interestingness estimate.
///
/// The score approximates `P(Q|p)`, which under document-frequency
/// semantics *is* `I(p, D') = |docs(Q) ∩ docs(p)| / |docs(p)|` (paper
/// Eqs. 4–5): for AND the score is the log of that probability (Eq. 8), so
/// the estimate is `exp(score)`; for OR it is the first-order sum (Eq. 12),
/// already on the probability scale (it may slightly exceed 1 because the
/// negative higher-order terms are truncated — clamped here).
pub fn estimated_interestingness(op: Operator, score: f64) -> f64 {
    match op {
        Operator::And => score.exp(),
        Operator::Or => score.min(1.0),
    }
}

/// The full inclusion–exclusion OR score of Eq. 11 (under independence):
///
/// `Σ_i P_i − Σ_{i<j} P_i·P_j + ... + (−1)^{r−1} Π_i P_i`
///
/// which for independent events equals `1 − Π_i (1 − P_i)`, the probability
/// of the union — that closed form is used here (identical result, O(r)).
pub fn or_score_inclusion_exclusion(probs: &[f64]) -> f64 {
    1.0 - probs.iter().map(|&p| 1.0 - p).product::<f64>()
}

/// The inclusion–exclusion expansion truncated after the order-`cutoff`
/// terms (`cutoff = 1` is Eq. 12; `cutoff = r` equals
/// [`or_score_inclusion_exclusion`]). Exponential in `r`, intended only for
/// the ablation bench with the paper's 2–6-word queries.
pub fn or_score_truncated(probs: &[f64], cutoff: usize) -> f64 {
    let r = probs.len();
    if r == 0 {
        return 0.0;
    }
    let cutoff = cutoff.clamp(1, r);
    let mut total = 0.0;
    for size in 1..=cutoff {
        let sign = if size % 2 == 1 { 1.0 } else { -1.0 };
        // Enumerate index combinations of `size` out of `r` in lexicographic
        // order with the standard next-combination step.
        let mut combo: Vec<usize> = (0..size).collect();
        loop {
            total += sign * combo.iter().map(|&i| probs[i]).product::<f64>();
            // Find the rightmost index that can still advance.
            let mut i = size;
            let mut advanced = false;
            while i > 0 {
                i -= 1;
                if combo[i] < i + r - size {
                    combo[i] += 1;
                    for j in i + 1..size {
                        combo[j] = combo[j - 1] + 1;
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_score_or_is_identity() {
        assert_eq!(entry_score(Operator::Or, 0.25), 0.25);
    }

    #[test]
    fn entry_score_and_is_log() {
        assert!((entry_score(Operator::And, 1.0)).abs() < 1e-12);
        assert!((entry_score(Operator::And, 0.5) - 0.5f64.ln()).abs() < 1e-12);
        assert_eq!(entry_score(Operator::And, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn aggregate_matches_eq8_eq12() {
        let probs = [0.5, 0.25];
        assert!((aggregate(Operator::Or, &probs) - 0.75).abs() < 1e-12);
        assert!((aggregate(Operator::And, &probs) - (0.5f64.ln() + 0.25f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn and_with_absent_feature_is_neg_inf() {
        assert_eq!(aggregate(Operator::And, &[0.5, 0.0]), f64::NEG_INFINITY);
        assert_eq!(absent_score(Operator::And), f64::NEG_INFINITY);
        assert_eq!(absent_score(Operator::Or), 0.0);
    }

    #[test]
    fn inclusion_exclusion_two_words_matches_eq9_shape() {
        // Eq. 9 for r=2: P1 + P2 - P1*P2
        let p = [0.3, 0.6];
        let want = 0.3 + 0.6 - 0.18;
        assert!((or_score_inclusion_exclusion(&p) - want).abs() < 1e-12);
    }

    #[test]
    fn inclusion_exclusion_three_words() {
        let p = [0.2, 0.3, 0.4];
        let want = 0.2 + 0.3 + 0.4 - (0.06 + 0.08 + 0.12) + 0.024;
        assert!((or_score_inclusion_exclusion(&p) - want).abs() < 1e-12);
    }

    #[test]
    fn truncated_order1_is_plain_sum() {
        let p = [0.2, 0.3, 0.4];
        assert!((or_score_truncated(&p, 1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn truncated_full_order_matches_closed_form() {
        let p = [0.2, 0.3, 0.4, 0.15];
        let full = or_score_truncated(&p, p.len());
        assert!(
            (full - or_score_inclusion_exclusion(&p)).abs() < 1e-12,
            "{full} vs {}",
            or_score_inclusion_exclusion(&p)
        );
    }

    #[test]
    fn truncated_order2_between_1_and_full() {
        let p = [0.5, 0.5, 0.5];
        let o1 = or_score_truncated(&p, 1); // 1.5, overestimates
        let o2 = or_score_truncated(&p, 2); // 1.5 - 0.75 = 0.75, underestimates
        let full = or_score_inclusion_exclusion(&p); // 0.875
        assert!(o1 >= full && full >= o2, "{o1} {full} {o2}");
    }

    #[test]
    fn truncated_handles_single_word() {
        assert_eq!(or_score_truncated(&[0.7], 1), 0.7);
        assert_eq!(or_score_truncated(&[0.7], 5), 0.7);
    }

    #[test]
    fn union_probability_bounds() {
        // 1 - prod(1-p) is always within [max(p), min(1, sum(p))].
        let p = [0.1, 0.8, 0.3];
        let u = or_score_inclusion_exclusion(&p);
        assert!((0.8..=1.0).contains(&u));
    }
}
