//! Figures 9 & 10: break-up of disk-NRA response time into computational
//! and disk-access costs, across partial-list percentages. Each point is
//! one `QueryEngine` request on the disk backend
//! ([`super::runtime::disk_nra_times`]).

use super::datasets::DatasetBundle;
use super::report::{ms, Report};
use super::runtime::disk_nra_times;
use ipm_core::query::Operator;

/// Runs the cost break-up at each fraction for one operator (the paper
/// shows AND; "the trends for the OR queries were similar").
pub fn run(ds: &DatasetBundle, op: Operator, fractions: &[f64], k: usize) -> Report {
    let mut report = Report::new(
        format!("Figures 9/10 — NRA cost break-up, {op} ({})", ds.name),
        &["list %", "compute ms", "disk IO ms", "total ms", "IO share"],
    );
    for &f in fractions {
        let (compute, io) = disk_nra_times(ds, op, f, k);
        let total = compute.mean_ms + io.mean_ms;
        report.push_row(vec![
            format!("{}%", (f * 100.0).round() as u32),
            ms(compute.mean_ms),
            ms(io.mean_ms),
            ms(total),
            format!("{:.0}%", 100.0 * io.mean_ms / total.max(1e-9)),
        ]);
    }
    report.push_note(
        "cold buffer pool per query; IO simulated at 1 ms sequential / 10 ms random, \
         phrase-region lookups of the k results included",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn breakdown_rows_per_fraction() {
        let ds = shared_test_bundle();
        let r = run(ds, Operator::And, &[0.2, 0.6, 1.0], 5);
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows[0][0].contains("20%"));
    }

    #[test]
    fn io_grows_with_fraction() {
        let ds = shared_test_bundle();
        let k = 5;
        let (_, io_small) = disk_nra_times(ds, Operator::Or, 0.1, k);
        let (_, io_full) = disk_nra_times(ds, Operator::Or, 1.0, k);
        // List-region IO grows with the fraction read; the served path
        // also charges each query's phrase-region lookups (at most `k`
        // random fetches plus their lookahead, and which pages they land
        // on depends on the result set), so the totals are monotone only
        // up to that term.
        let cost = *ds.engine.disk().cost_model();
        let lookups = k as f64 * (cost.random_ms + cost.sequential_ms);
        assert!(io_full.mean_ms + lookups + 1e-9 >= io_small.mean_ms);
    }
}
