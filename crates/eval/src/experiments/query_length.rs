//! Query-length ablation: cost vs `r`, the number of query features.
//!
//! The paper's §4.5 analysis puts NRA at `O(l²r²/b)` and SMJ at
//! `O(lr + k·log(lr))`, and notes that real queries have `r` ≈ 2–5
//! (citing web-search query statistics). This experiment harvests query
//! sets of exactly `r` words for each `r` and measures how per-query cost
//! and NRA's traversal depth actually scale — the direct check of that
//! analysis, which the paper itself reports only at the mixed-length
//! aggregate level.
//!
//! NRA runs as `PhraseMiner::top_k_nra` here for the same reason as
//! Fig. 11: the traversal column needs per-list `TraversalStats`, which
//! the engine's `SearchResponse` does not carry.

use super::datasets::DatasetBundle;
use super::report::{ms, Report};
use crate::queryset::{harvest_queries, to_queries, QuerySetConfig};
use crate::timing::{time_once, TimingSummary};
use ipm_core::query::Operator;
use ipm_core::smj::run_smj;

/// Measurements for one query length.
#[derive(Debug, Clone)]
pub struct LengthPoint {
    /// Number of query features `r`.
    pub r: usize,
    /// How many length-`r` queries were actually harvested.
    pub queries: usize,
    /// Mean SMJ time.
    pub smj: TimingSummary,
    /// Mean in-memory NRA time.
    pub nra: TimingSummary,
    /// Mean fraction of the lists NRA read before stopping.
    pub nra_traversal: f64,
}

/// Measures one operator across query lengths `2..=max_r`.
pub fn sweep(ds: &DatasetBundle, op: Operator, max_r: usize, k: usize) -> Vec<LengthPoint> {
    let mut points = Vec::new();
    for r in 2..=max_r {
        let words = harvest_queries(
            ds.miner.index(),
            &QuerySetConfig {
                count: 20,
                seed: 0xABCD + r as u64,
                fixed_lengths: vec![(r, 20)],
                fill_len_range: (r, r),
                min_and_matches: 1,
            },
        );
        // Harvesting falls back to shorter phrases when the dictionary has
        // none of length r; keep only true length-r queries.
        let queries: Vec<_> = to_queries(&words, op)
            .into_iter()
            .filter(|q| q.len() == r)
            .collect();
        if queries.is_empty() {
            continue;
        }
        let mut smj_samples = Vec::with_capacity(queries.len());
        let mut nra_samples = Vec::with_capacity(queries.len());
        let mut traversal = 0.0;
        for q in &queries {
            let (_, t) = time_once(|| run_smj(ds.miner.id_lists(), q, k));
            smj_samples.push(t);
            let (out, t) = time_once(|| ds.miner.top_k_nra(q, k));
            nra_samples.push(t);
            traversal += out.stats.fraction_traversed();
        }
        points.push(LengthPoint {
            r,
            queries: queries.len(),
            smj: TimingSummary::from_samples(smj_samples),
            nra: TimingSummary::from_samples(nra_samples),
            nra_traversal: traversal / queries.len() as f64,
        });
    }
    points
}

/// Runs the ablation table for one dataset.
pub fn run(ds: &DatasetBundle, max_r: usize, k: usize) -> Report {
    let mut report = Report::new(
        format!("§4.5 ablation — cost vs query length r ({})", ds.name),
        &[
            "operator",
            "r",
            "queries",
            "SMJ mean ms",
            "NRA mean ms",
            "NRA lists read",
        ],
    );
    for op in [Operator::And, Operator::Or] {
        for p in sweep(ds, op, max_r, k) {
            report.push_row(vec![
                op.to_string(),
                p.r.to_string(),
                p.queries.to_string(),
                ms(p.smj.mean_ms),
                ms(p.nra.mean_ms),
                format!("{:.1}%", p.nra_traversal * 100.0),
            ]);
        }
    }
    report.push_note(
        "paper §4.5: SMJ is O(l·r), NRA O(l²r²/b) worst-case but early-stopping; \
         queries are harvested per length from frequent phrases of exactly r words",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn sweep_produces_points_with_exact_lengths() {
        let ds = shared_test_bundle();
        let points = sweep(ds, Operator::Or, 3, 5);
        assert!(!points.is_empty(), "no query lengths harvested");
        for p in &points {
            assert!(p.queries > 0);
            assert!(p.smj.mean_ms >= 0.0);
            assert!(p.nra.mean_ms >= 0.0);
            assert!((0.0..=1.0).contains(&p.nra_traversal));
        }
    }

    #[test]
    fn smj_cost_grows_with_r() {
        // SMJ scans l entries per list: r lists ⇒ proportional work. Means
        // on a tiny corpus are noisy, so compare r = 2 against the largest
        // harvested r with a generous margin instead of strict monotonicity.
        let ds = shared_test_bundle();
        let points = sweep(ds, Operator::Or, 4, 5);
        if points.len() >= 2 {
            let first = &points[0];
            let last = &points[points.len() - 1];
            assert!(
                last.smj.mean_ms >= first.smj.mean_ms * 0.5,
                "SMJ at r={} ({:.4} ms) implausibly cheaper than r={} ({:.4} ms)",
                last.r,
                last.smj.mean_ms,
                first.r,
                first.smj.mean_ms
            );
        }
    }

    #[test]
    fn report_shape() {
        let ds = shared_test_bundle();
        let r = run(ds, 3, 5);
        assert!(!r.rows.is_empty());
        assert_eq!(r.headers.len(), 6);
    }
}
