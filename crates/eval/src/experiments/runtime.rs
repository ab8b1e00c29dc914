//! Figures 7, 8, 12 & 13: response-time comparisons.
//!
//! * Figures 7/8: in-memory SMJ (at several build-time partial-list
//!   fractions) against the in-memory GM baseline. List-level on
//!   purpose: SMJ's fraction is a build-time property (paper §4.4.2), so
//!   [`smj_times`] runs `run_smj` over id lists derived per fraction
//!   instead of rebuilding a miner (and an engine) per fraction.
//! * Figures 12/13: the *disk-based* NRA (IO simulated per §5.5) against
//!   the in-memory GM baseline — the comparison "unfairly biased in favor
//!   of GM" that the paper still wins. Measured through the bundle's
//!   `QueryEngine` ([`disk_nra_times`]): its lease runs NRA on a cold
//!   pool of its own and reports that pool's `IoStats`, so nothing here
//!   hand-wires that.

use super::datasets::DatasetBundle;
use super::report::{ms, Report};
use crate::queryset::to_queries;
use crate::timing::{time_once, TimingSummary};
use ipm_baselines::{GmBaseline, TopKBaseline};
use ipm_core::engine::BackendChoice;
use ipm_core::query::Operator;
use ipm_core::smj::run_smj;
use ipm_index::wordlists::IdOrderedLists;

/// Mean per-query SMJ time (ms) at a build-time fraction.
pub fn smj_times(ds: &DatasetBundle, op: Operator, fraction: f64, k: usize) -> TimingSummary {
    let source = if fraction < 1.0 {
        ds.miner.lists().partial(fraction)
    } else {
        ds.miner.lists().clone()
    };
    let id_lists = IdOrderedLists::from_score_ordered(&source);
    let queries = to_queries(&ds.queries, op);
    let mut samples = Vec::with_capacity(queries.len());
    for q in &queries {
        let (_, t) = time_once(|| run_smj(&id_lists, q, k));
        samples.push(t);
    }
    TimingSummary::from_samples(samples)
}

/// Mean per-query GM time (ms).
pub fn gm_times(ds: &DatasetBundle, gm: &GmBaseline, op: Operator, k: usize) -> TimingSummary {
    let queries = to_queries(&ds.queries, op);
    let mut samples = Vec::with_capacity(queries.len());
    for q in &queries {
        let (_, t) = time_once(|| gm.top_k(ds.miner.index(), q, k));
        samples.push(t);
    }
    TimingSummary::from_samples(samples)
}

/// Mean per-query in-memory NRA time (ms) at a run-time fraction.
pub fn nra_times(ds: &DatasetBundle, op: Operator, fraction: f64, k: usize) -> TimingSummary {
    let queries = to_queries(&ds.queries, op);
    let mut samples = Vec::with_capacity(queries.len());
    for q in &queries {
        let (_, t) = time_once(|| ds.miner.top_k_nra_partial(q, k, fraction));
        samples.push(t);
    }
    TimingSummary::from_samples(samples)
}

/// Disk-NRA per-query times: `(compute_ms, io_ms)` summaries, measured on
/// the served path — one request per query through the bundle's engine
/// on its disk backend, the response's `IoStats` (cold pool per query;
/// the hits' final text lookups in the image's phrase region included)
/// priced by the engine's cost model.
pub fn disk_nra_times(
    ds: &DatasetBundle,
    op: Operator,
    fraction: f64,
    k: usize,
) -> (TimingSummary, TimingSummary) {
    // Also builds the engine's lazy disk image here, outside the timed loop.
    let cost = *ds.engine.disk().cost_model();
    let queries = to_queries(&ds.queries, op);
    let mut compute = Vec::with_capacity(queries.len());
    let mut io = Vec::with_capacity(queries.len());
    for q in queries {
        let (resp, t) = time_once(|| {
            ds.engine
                .request_query(q)
                .k(k)
                .backend(BackendChoice::Disk)
                .nra_fraction(fraction)
                .run()
                .expect("an unbudgeted parsed query cannot fail")
        });
        compute.push(t);
        io.push(
            resp.io
                .expect("disk runs report their IoStats")
                .io_ms(&cost),
        );
    }
    (
        TimingSummary::from_samples(compute),
        TimingSummary::from_samples(io),
    )
}

/// Figures 7/8: SMJ (at each fraction) vs GM, mean ms per query.
pub fn run_smj_vs_gm(ds: &DatasetBundle, fractions: &[f64], k: usize) -> Report {
    let mut report = Report::new(
        format!("Figures 7/8 — running times SMJ vs GM ({})", ds.name),
        &["method", "AND mean ms", "OR mean ms"],
    );
    for &f in fractions {
        let and = smj_times(ds, Operator::And, f, k);
        let or = smj_times(ds, Operator::Or, f, k);
        report.push_row(vec![
            format!("SMJ-{}%", (f * 100.0).round() as u32),
            ms(and.mean_ms),
            ms(or.mean_ms),
        ]);
    }
    let gm = GmBaseline::build(ds.miner.index());
    let and = gm_times(ds, &gm, Operator::And, k);
    let or = gm_times(ds, &gm, Operator::Or, k);
    report.push_row(vec!["GM".into(), ms(and.mean_ms), ms(or.mean_ms)]);
    report.push_note(format!(
        "k = {k}; {} queries; times are per-query means",
        ds.num_queries()
    ));
    report
}

/// Figures 12/13: disk-resident NRA (compute + simulated IO) vs in-memory GM.
pub fn run_nra_vs_gm(ds: &DatasetBundle, fraction: f64, k: usize) -> Report {
    let mut report = Report::new(
        format!("Figures 12/13 — disk NRA vs in-memory GM ({})", ds.name),
        &[
            "operator",
            "NRA compute ms",
            "NRA IO ms",
            "NRA total ms",
            "GM ms",
            "GM/NRA",
        ],
    );
    let gm = GmBaseline::build(ds.miner.index());
    for op in [Operator::And, Operator::Or] {
        let (compute, io) = disk_nra_times(ds, op, fraction, k);
        let nra_total = compute.mean_ms + io.mean_ms;
        let gm_t = gm_times(ds, &gm, op, k);
        report.push_row(vec![
            op.to_string(),
            ms(compute.mean_ms),
            ms(io.mean_ms),
            ms(nra_total),
            ms(gm_t.mean_ms),
            format!("{:.1}x", gm_t.mean_ms / nra_total.max(1e-9)),
        ]);
    }
    report.push_note(format!(
        "NRA reads disk-resident lists at {}% via the simulated pool (32 KiB pages, 16-page LRU, 1 ms seq / 10 ms rand), phrase-region lookups of the k results included; GM runs fully in memory",
        (fraction * 100.0).round() as u32
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn smj_vs_gm_report_shape() {
        let ds = shared_test_bundle();
        let r = run_smj_vs_gm(ds, &[0.2, 1.0], 5);
        assert_eq!(r.rows.len(), 3); // two SMJ fractions + GM
        assert_eq!(r.rows[2][0], "GM");
    }

    #[test]
    fn nra_vs_gm_report_shape() {
        let ds = shared_test_bundle();
        let r = run_nra_vs_gm(ds, 1.0, 5);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], "AND");
        assert_eq!(r.rows[1][0], "OR");
    }

    #[test]
    fn timings_are_positive() {
        let ds = shared_test_bundle();
        let t = smj_times(ds, Operator::Or, 0.5, 5);
        assert!(t.samples > 0);
        assert!(t.mean_ms >= 0.0);
        let (c, io) = disk_nra_times(ds, Operator::Or, 1.0, 5);
        assert!(c.mean_ms >= 0.0);
        assert!(io.mean_ms > 0.0, "disk runs must accrue simulated IO");
    }
}
