//! Table 6: absolute accuracy of the estimated interestingness.
//!
//! "The mean difference between the estimated and real interestingness of
//! the result phrases for each dataset, query-type configuration" (§5.7).
//! The estimate is recovered from the independence-assumption score
//! (`exp(score)` for AND, the probability sum for OR — see
//! `ipm_core::scoring::estimated_interestingness`); the real value is
//! Eq. 1 computed exactly.

use super::datasets::DatasetBundle;
use super::report::Report;
use crate::queryset::to_queries;
use ipm_core::exact::{exact_interestingness, materialize_subset};
use ipm_core::query::Operator;
use ipm_core::scoring::estimated_interestingness;

/// Mean |estimated − real| over the top-k result phrases of every query.
pub fn mean_abs_error(ds: &DatasetBundle, op: Operator, k: usize) -> f64 {
    let queries = to_queries(&ds.queries, op);
    let mut total = 0.0;
    let mut n = 0usize;
    for q in &queries {
        let subset = materialize_subset(ds.miner.index(), q);
        let out = ds.miner.top_k_nra(q, k);
        for h in &out.hits {
            let est = estimated_interestingness(op, h.score);
            let real = exact_interestingness(ds.miner.index(), &subset, h.phrase);
            total += (est - real).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Mean |estimated − real| for OR queries scored with the *full* Eq. 11
/// inclusion–exclusion form (ablation of the Eq. 12 first-order cut).
pub fn mean_abs_error_exact_or(ds: &DatasetBundle, k: usize) -> f64 {
    let queries = to_queries(&ds.queries, Operator::Or);
    let mut total = 0.0;
    let mut n = 0usize;
    for q in &queries {
        let subset = materialize_subset(ds.miner.index(), q);
        for h in ipm_core::smj::run_smj_exact_or(ds.miner.id_lists(), q, k) {
            // Exact-OR scores are already on the interestingness scale.
            let real = exact_interestingness(ds.miner.index(), &subset, h.phrase);
            total += (h.score - real).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Runs the table for one dataset.
pub fn run(ds: &DatasetBundle, k: usize) -> Report {
    let mut report = Report::new(
        format!("Table 6 — interestingness accuracy ({})", ds.name),
        &["operator", "mean |estimated − real|"],
    );
    for op in [Operator::And, Operator::Or] {
        report.push_row(vec![
            op.to_string(),
            format!("{:.4}", mean_abs_error(ds, op, k)),
        ]);
    }
    report.push_row(vec![
        "OR (full Eq. 11)".to_owned(),
        format!("{:.4}", mean_abs_error_exact_or(ds, k)),
    ]);
    report.push_note(
        "estimates from full-list NRA scores under the independence assumption; \
         the extra row rescoring OR with full inclusion–exclusion ablates the \
         paper's first-order cut (Eq. 12 vs Eq. 11)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn errors_are_small_nonnegative() {
        let ds = shared_test_bundle();
        for op in [Operator::And, Operator::Or] {
            let e = mean_abs_error(ds, op, 5);
            assert!(e >= 0.0);
            assert!(e < 0.7, "{op} error {e} implausibly large");
        }
    }

    #[test]
    fn report_shape() {
        let ds = shared_test_bundle();
        let r = run(ds, 5);
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn exact_or_is_at_least_as_accurate() {
        // Eq. 11 refines Eq. 12 by subtracting the (non-negative)
        // higher-order terms the cut discards; its top-phrase estimate can
        // only move toward (or onto) the true union probability.
        let ds = shared_test_bundle();
        let first_order = mean_abs_error(ds, Operator::Or, 5);
        let full = mean_abs_error_exact_or(ds, 5);
        assert!(
            full <= first_order + 1e-9,
            "full IE error {full} worse than first-order {first_order}"
        );
    }
}
