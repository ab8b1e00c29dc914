//! Figure 11: percentage of the lists NRA traverses before its stopping
//! condition fires.
//!
//! Runs `PhraseMiner::top_k_nra` directly: the figure needs per-list
//! `TraversalStats`, which the engine's `SearchResponse` does not carry.

use super::datasets::DatasetBundle;
use super::report::Report;
use crate::queryset::to_queries;
use ipm_core::query::Operator;

/// Mean traversed fraction over the query set for one operator.
pub fn mean_fraction(ds: &DatasetBundle, op: Operator, k: usize) -> f64 {
    let queries = to_queries(&ds.queries, op);
    let mut total = 0.0;
    for q in &queries {
        let out = ds.miner.top_k_nra(q, k);
        total += out.stats.fraction_traversed();
    }
    total / queries.len().max(1) as f64
}

/// Runs the figure for one dataset (both operators). The bench binary
/// overlays multiple datasets, as the paper's bar chart does.
pub fn run(ds: &DatasetBundle, k: usize) -> Report {
    let mut report = Report::new(
        format!("Figure 11 — % of lists traversed by NRA ({})", ds.name),
        &["operator", "mean % traversed"],
    );
    for op in [Operator::And, Operator::Or] {
        let f = mean_fraction(ds, op, k);
        report.push_row(vec![op.to_string(), format!("{:.1}%", f * 100.0)]);
    }
    report.push_note("full score-ordered lists; traversal ends at the bounds-based stop condition");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn fraction_is_in_unit_interval() {
        let ds = shared_test_bundle();
        for op in [Operator::And, Operator::Or] {
            let f = mean_fraction(ds, op, 5);
            assert!((0.0..=1.0).contains(&f), "{op}: {f}");
        }
    }

    #[test]
    fn report_has_two_rows() {
        let ds = shared_test_bundle();
        let r = run(ds, 5);
        assert_eq!(r.rows.len(), 2);
    }
}
