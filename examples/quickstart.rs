//! Quickstart: index a corpus and mine interesting phrases for a query.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use interesting_phrases::prelude::*;

fn main() {
    // 1. Get a corpus. Here: a small synthetic one; for real data use
    //    ipm_corpus::loader::{load_lines, load_jsonl, load_paragraphs}.
    let (corpus, _model) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    println!(
        "corpus: {} documents, {} distinct words",
        corpus.num_docs(),
        corpus.words().len()
    );

    // 2. Build the miner: phrase dictionary (n-grams of up to 6 words in 5+
    //    documents), postings, forward lists, and the per-word P(q|p) lists.
    let miner = PhraseMiner::build(&corpus, MinerConfig::default());
    println!(
        "dictionary: {} phrases; word lists: {} entries",
        miner.index().dict.len(),
        miner.lists().total_entries()
    );

    // 3. Query. Features are plain keywords (or "key:value" facets); the
    //    operator selects intersection (And) or union (Or) semantics.
    let query = miner
        .parse_query(&["w1", "w2"], Operator::Or)
        .expect("words exist in the synthetic vocabulary");

    // 4a. Exact top-5 (linear in |D'| — the slow path).
    println!("\nexact top-5:");
    for hit in miner.top_k_exact(&query, 5) {
        println!(
            "  {:<30} I = {:.3}",
            miner.phrase_text(hit.phrase),
            hit.score
        );
    }

    // 4b. SMJ: sort-merge join over ID-ordered lists (fast path).
    println!("\nSMJ top-5 (independence-assumption scores):");
    for hit in miner.top_k_smj(&query, 5) {
        println!(
            "  {:<30} S = {:.3}",
            miner.phrase_text(hit.phrase),
            hit.score
        );
    }

    // 4c. NRA: threshold-style early termination over score-ordered lists.
    let outcome = miner.top_k_nra(&query, 5);
    println!(
        "\nNRA top-5 (read {:.0}% of the lists{}):",
        outcome.stats.fraction_traversed() * 100.0,
        if outcome.stats.stopped_early {
            ", stopped early"
        } else {
            ""
        }
    );
    for hit in &outcome.hits {
        println!(
            "  {:<30} S = {:.3}",
            miner.phrase_text(hit.phrase),
            hit.score
        );
    }

    // 5. The serving API: a budgeted request through the
    //    engine's builder. The deadline and IO cap bound what this query
    //    may cost; `completeness` says whether the answer is the exact
    //    top-k, inherently approximate, or budget-truncated.
    let engine = QueryEngine::new(miner);
    let resp = engine
        .request("w1 OR w2")
        .k(5)
        .algorithm(Algorithm::Nra)
        .backend(BackendChoice::Disk)
        .deadline(std::time::Duration::from_millis(250))
        .io_budget(100_000)
        .run()
        .expect("in-vocabulary query, generous budget");
    println!(
        "\nengine: {} hits in {:.2} ms ({}, {} simulated fetches)",
        resp.hits.len(),
        resp.elapsed.as_secs_f64() * 1e3,
        resp.completeness,
        resp.io.map(|io| io.total_fetches()).unwrap_or(0),
    );
}
