//! Runs every experiment in sequence, building each dataset once.
//!
//! This is the one-shot reproduction driver:
//!
//! ```text
//! IPM_RESULTS=results cargo run --release -p ipm-bench --bin repro_all
//! ```

use ipm_bench::{
    emit, BREAKDOWN_FRACTIONS, K, QUALITY_FRACTIONS, RUNTIME_FRACTIONS, SIZE_FRACTIONS,
};
use ipm_core::query::Operator;
use ipm_eval::experiments::{
    accuracy, breakdown, crossover, datasets, index_sizes, quality, query_length, runtime, samples,
    summary, traversal, DatasetBundle,
};

const SWEEP: &[f64] = &[0.05, 0.10, 0.20, 0.35, 0.50, 0.75, 0.90, 1.00];

fn run_dataset(ds: &DatasetBundle, sample_op: Operator) {
    eprintln!("[repro_all] === {} ===", ds.name);
    emit(&samples::run(ds, sample_op, 2, K));
    emit(&quality::run(ds, QUALITY_FRACTIONS, K));
    emit(&runtime::run_smj_vs_gm(ds, RUNTIME_FRACTIONS, K));
    emit(&breakdown::run(ds, Operator::And, BREAKDOWN_FRACTIONS, K));
    emit(&traversal::run(ds, K));
    emit(&runtime::run_nra_vs_gm(ds, 1.0, K));
    emit(&index_sizes::run(ds, SIZE_FRACTIONS, K));
    emit(&accuracy::run(ds, K));
    emit(&summary::run(ds, QUALITY_FRACTIONS, K));
    for op in [Operator::And, Operator::Or] {
        emit(&crossover::run(ds, op, SWEEP, K));
    }
    emit(&query_length::run(ds, 6, K));
}

fn main() {
    let reuters = datasets::build_reuters();
    run_dataset(&reuters, Operator::Or);
    drop(reuters);
    let pubmed = datasets::build_pubmed();
    run_dataset(&pubmed, Operator::And);
}
