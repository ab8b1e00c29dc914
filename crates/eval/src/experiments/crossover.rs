//! §5.5's in-memory decision analysis: at which partial-list fraction does
//! NRA's pruning overtake SMJ's cheaper per-iteration work?
//!
//! "SMJ beats NRA in in-memory operation response time until a partial
//! list percentage of 35% for Pubmed ... the corresponding value for
//! Reuters is 90%."
//!
//! List-level on purpose, like Fig. 7/8: SMJ's fraction is a build-time
//! property (paper §4.4.2), so the sweep times `run_smj` over id lists
//! derived per fraction against `PhraseMiner::top_k_nra_partial` on the
//! same in-memory lists, not a miner rebuild per point.

use super::datasets::DatasetBundle;
use super::report::{ms, Report};
use super::runtime::{nra_times, smj_times};
use ipm_core::query::Operator;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct CrossoverPoint {
    /// Partial-list fraction.
    pub fraction: f64,
    /// Mean SMJ ms.
    pub smj_ms: f64,
    /// Mean in-memory NRA ms.
    pub nra_ms: f64,
}

/// Sweeps fractions and returns the measured points.
pub fn sweep(ds: &DatasetBundle, op: Operator, fractions: &[f64], k: usize) -> Vec<CrossoverPoint> {
    fractions
        .iter()
        .map(|&f| CrossoverPoint {
            fraction: f,
            smj_ms: smj_times(ds, op, f, k).mean_ms,
            nra_ms: nra_times(ds, op, f, k).mean_ms,
        })
        .collect()
}

/// The first swept fraction at which NRA is at least as fast as SMJ
/// (`None` if SMJ wins everywhere — NRA's pruning never pays off at this
/// scale).
pub fn crossover_fraction(points: &[CrossoverPoint]) -> Option<f64> {
    points
        .iter()
        .find(|p| p.nra_ms <= p.smj_ms)
        .map(|p| p.fraction)
}

/// Runs the sweep report.
pub fn run(ds: &DatasetBundle, op: Operator, fractions: &[f64], k: usize) -> Report {
    let points = sweep(ds, op, fractions, k);
    let mut report = Report::new(
        format!("§5.5 — SMJ/NRA in-memory crossover, {op} ({})", ds.name),
        &["list %", "SMJ ms", "NRA ms", "faster"],
    );
    for p in &points {
        report.push_row(vec![
            format!("{}%", (p.fraction * 100.0).round() as u32),
            ms(p.smj_ms),
            ms(p.nra_ms),
            if p.nra_ms <= p.smj_ms { "NRA" } else { "SMJ" }.into(),
        ]);
    }
    match crossover_fraction(&points) {
        Some(f) => report.push_note(format!(
            "NRA overtakes SMJ at ~{}% of the lists",
            (f * 100.0).round() as u32
        )),
        None => report.push_note("SMJ faster at every swept fraction"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn sweep_produces_all_points() {
        let ds = shared_test_bundle();
        let pts = sweep(ds, Operator::Or, &[0.2, 0.6, 1.0], 5);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.smj_ms >= 0.0 && p.nra_ms >= 0.0);
        }
    }

    #[test]
    fn crossover_detection() {
        let pts = vec![
            CrossoverPoint {
                fraction: 0.2,
                smj_ms: 1.0,
                nra_ms: 2.0,
            },
            CrossoverPoint {
                fraction: 0.5,
                smj_ms: 3.0,
                nra_ms: 2.5,
            },
        ];
        assert_eq!(crossover_fraction(&pts), Some(0.5));
        assert_eq!(crossover_fraction(&pts[..1]), None);
    }

    #[test]
    fn report_runs() {
        let ds = shared_test_bundle();
        let r = run(ds, Operator::And, &[0.5, 1.0], 5);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.notes.len(), 1);
    }
}
