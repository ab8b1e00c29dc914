//! Dataset bundles: corpus + miner + query set, ready for the runners.
//!
//! Two bundles mirror the paper's §5.1 setup (through the synthetic
//! stand-ins of `ipm_corpus::synth`; see that crate's docs):
//!
//! * `reuters`: 21,578 documents, 100 harvested queries (two of 6 words,
//!   two of 5, rest 2–4);
//! * `pubmed`: configurable scale (default 60k documents — the paper's
//!   655k works but needs several GB and tens of minutes), 52 queries
//!   matching ≥ 12 documents.
//!
//! Environment knobs (read once at build):
//!
//! * `IPM_PUBMED_DOCS` — pubmed-like document count (min 1000);
//! * `IPM_QUICK=1` — shrink both datasets aggressively for smoke runs.

use crate::queryset::{harvest_queries, QuerySetConfig};
use ipm_core::engine::{EngineConfig, QueryEngine};
use ipm_core::miner::{MinerConfig, PhraseMiner};
use ipm_corpus::WordId;
use ipm_index::corpus_index::IndexConfig;
use ipm_index::mining::MiningConfig;
use std::sync::Arc;

/// A fully-built dataset for the experiment runners.
pub struct DatasetBundle {
    /// "reuters" or "pubmed" (plus a scale suffix when reduced).
    pub name: String,
    /// The indexed corpus: the in-memory reference the list-level
    /// experiments run over (shared with [`DatasetBundle::engine`]).
    pub miner: Arc<PhraseMiner>,
    /// The served path over the same miner, result cache **off** — a
    /// cached repeat would time a hash probe, not NRA. The disk
    /// experiments run through its lease (one lazily built disk image,
    /// per-query `IoStats`).
    pub engine: QueryEngine,
    /// Harvested query word-sets (operator applied per experiment).
    pub queries: Vec<Vec<WordId>>,
}

impl DatasetBundle {
    fn new(name: String, miner: PhraseMiner, queries: Vec<Vec<WordId>>) -> Self {
        let engine = QueryEngine::with_config(
            miner,
            EngineConfig {
                cache: None,
                ..Default::default()
            },
        );
        Self {
            name,
            miner: engine.miner(),
            engine,
            queries,
        }
    }

    /// Number of harvested queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

/// Whether quick (smoke-test) mode is on.
pub fn quick_mode() -> bool {
    std::env::var("IPM_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The pubmed-like scale: `IPM_PUBMED_DOCS`, default 60k (6k in quick mode).
pub fn pubmed_docs() -> usize {
    let default = if quick_mode() { 6_000 } else { 60_000 };
    std::env::var("IPM_PUBMED_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1000)
}

/// Builds the Reuters-like bundle.
pub fn build_reuters() -> DatasetBundle {
    let mut synth = ipm_corpus::synth::reuters_like();
    if quick_mode() {
        synth.num_docs = 4_000;
        synth.vocab_size = 6_000;
    }
    eprintln!(
        "[datasets] generating reuters-like corpus ({} docs)...",
        synth.num_docs
    );
    let (corpus, _) = ipm_corpus::synth::generate(&synth);
    eprintln!("[datasets] indexing...");
    let miner = PhraseMiner::build(&corpus, miner_config());
    let queries = harvest_queries(miner.index(), &QuerySetConfig::reuters());
    eprintln!(
        "[datasets] reuters ready: |P| = {}, {} queries",
        miner.index().dict.len(),
        queries.len()
    );
    DatasetBundle::new("reuters".into(), miner, queries)
}

/// Builds the PubMed-like bundle at the configured scale.
pub fn build_pubmed() -> DatasetBundle {
    let docs = pubmed_docs();
    let synth = ipm_corpus::synth::pubmed_like(docs);
    eprintln!("[datasets] generating pubmed-like corpus ({docs} docs)...");
    let (corpus, _) = ipm_corpus::synth::generate(&synth);
    eprintln!("[datasets] indexing...");
    let miner = PhraseMiner::build(&corpus, miner_config());
    let queries = harvest_queries(miner.index(), &QuerySetConfig::pubmed());
    eprintln!(
        "[datasets] pubmed ready: |P| = {}, {} queries",
        miner.index().dict.len(),
        queries.len()
    );
    DatasetBundle::new(format!("pubmed-{docs}"), miner, queries)
}

/// The paper's indexing parameters: n-grams up to 6 words, min df 5.
pub fn miner_config() -> MinerConfig {
    MinerConfig {
        index: IndexConfig {
            mining: MiningConfig {
                min_df: 5,
                max_len: 6,
                min_len: 1,
            },
        },
        ..Default::default()
    }
}

/// A miniature bundle for unit tests of the runners themselves.
pub fn build_test_bundle() -> DatasetBundle {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let miner = PhraseMiner::build(
        &corpus,
        MinerConfig {
            index: IndexConfig {
                mining: MiningConfig {
                    min_df: 3,
                    max_len: 4,
                    min_len: 1,
                },
            },
            ..Default::default()
        },
    );
    let queries = harvest_queries(
        miner.index(),
        &QuerySetConfig {
            count: 8,
            seed: 5,
            fixed_lengths: vec![],
            fill_len_range: (2, 3),
            min_and_matches: 1,
        },
    );
    DatasetBundle::new("test".into(), miner, queries)
}

/// A process-wide shared test bundle (building one costs a second or two in
/// debug mode; runner tests share it).
pub fn shared_test_bundle() -> &'static DatasetBundle {
    static BUNDLE: std::sync::OnceLock<DatasetBundle> = std::sync::OnceLock::new();
    BUNDLE.get_or_init(build_test_bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_core::engine::BackendChoice;
    use ipm_core::query::Operator;

    #[test]
    fn test_bundle_builds() {
        let b = build_test_bundle();
        assert!(b.num_queries() > 0);
        assert!(!b.miner.index().dict.is_empty());
        assert_eq!(b.name, "test");
    }

    #[test]
    fn bundle_engine_measures_execution_not_its_cache() {
        let ds = shared_test_bundle();
        let q = crate::queryset::to_queries(&ds.queries, Operator::Or).remove(0);
        let want: Vec<_> = ds
            .miner
            .top_k_nra(&q, 5)
            .hits
            .iter()
            .map(|h| h.phrase)
            .collect();
        for run in 0..2 {
            let resp = ds
                .engine
                .request_query(q.clone())
                .k(5)
                .backend(BackendChoice::Disk)
                .run()
                .unwrap();
            assert!(!resp.served_from_cache, "run {run}: a repeat must execute");
            assert!(resp.io.unwrap().total_accesses() > 0, "run {run}: no IO");
            let got: Vec<_> = resp.hits.iter().map(|h| h.hit.phrase).collect();
            assert_eq!(got, want, "run {run}: engine disk NRA vs miner NRA");
        }
    }

    #[test]
    fn pubmed_docs_floor() {
        // Do not mutate the environment (tests run in parallel); just
        // check the default pathway respects the floor.
        assert!(pubmed_docs() >= 1000);
    }
}
