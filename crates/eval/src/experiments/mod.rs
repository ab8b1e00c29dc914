//! The experiment harness: one runner per paper table/figure.
//!
//! Each runner consumes a [`datasets::DatasetBundle`] (corpus + miner +
//! uncached engine + harvested query set) and produces a
//! [`report::Report`] that prints the same rows/series the paper's table
//! or figure shows, plus JSON for machine consumption. The `ipm-bench`
//! binaries are thin wrappers around these functions.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Table 4 (sample results) | [`samples::run`] |
//! | Fig. 5/6 (result quality) | [`quality::run`] |
//! | Fig. 7/8 (SMJ vs GM runtimes) | [`runtime::run_smj_vs_gm`] |
//! | Fig. 9/10 (NRA cost break-up) | [`breakdown::run`] |
//! | Fig. 11 (lists traversed) | [`traversal::run`] |
//! | Fig. 12/13 (disk NRA vs GM) | [`runtime::run_nra_vs_gm`] |
//! | Table 5 (index sizes) | [`index_sizes::run`] |
//! | Table 6 (interestingness error) | [`accuracy::run`] |
//! | Table 7 (summary) | [`summary::run`] |
//! | §5.5 (SMJ/NRA crossover) | [`crossover::run`] |
//! | §5.7 (facet queries, deferred by the paper) | [`facets::run`] |
//! | §4.5 (cost vs query length `r`) | [`query_length::run`] |

pub mod accuracy;
pub mod breakdown;
pub mod crossover;
pub mod datasets;
pub mod facets;
pub mod index_sizes;
pub mod quality;
pub mod query_length;
pub mod report;
pub mod runtime;
pub mod samples;
pub mod summary;
pub mod traversal;

pub use datasets::DatasetBundle;
pub use report::Report;
