//! Query expansion: interesting phrases as expansion candidates.
//!
//! The paper's future-work section points out that the independence
//! assumption "could have many wide-ranging applications in techniques
//! that deal with phrases as a first class entity (e.g., query
//! expansion)". This example sketches that application: for a user query,
//! mine the top correlated phrases, drop the ones that merely repeat the
//! query words (§5.6's redundancy filter), and offer the survivors as
//! expansion terms.
//!
//! ```text
//! cargo run --release --example query_expansion
//! ```

use interesting_phrases::prelude::*;

fn main() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));

    // The "user query": the two most frequent corpus words, OR semantics
    // (expansion wants the widest relevant sub-collection).
    let top = ipm_corpus::stats::top_words_by_df(engine.miner().corpus(), 2);
    let terms: Vec<&str> = top
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap())
        .collect();
    let input = format!("{} OR {}", terms[0], terms[1]);
    println!("user query: {input}\n");

    // Plain top-k: strongest correlates, but several restate the query.
    let plain = engine
        .request(&input)
        .k(8)
        .run()
        .expect("terms are in-vocabulary");
    println!("raw interesting phrases:");
    for hit in &plain.hits {
        println!("  {:<32} I ≈ {:.3}", hit.text, hit.interestingness);
    }

    // Expansion candidates: suppress any phrase where half or more of the
    // words come from the query itself — what survives is *new* vocabulary
    // that co-occurs with the query's sub-collection.
    let options = SearchOptions {
        redundancy: Some(RedundancyConfig::default()),
        ..Default::default()
    };
    let expanded = engine
        .search_with(&input, 8, &options)
        .expect("same query parses");
    println!("\nexpansion candidates (redundancy-filtered):");
    for hit in &expanded.hits {
        println!("  {:<32} I ≈ {:.3}", hit.text, hit.interestingness);
    }

    // An expanded query: the original terms OR the top candidate's words.
    if let Some(best) = expanded.hits.first() {
        let mut expansion_terms: Vec<String> = terms.iter().map(|t| (*t).to_owned()).collect();
        expansion_terms.extend(best.text.split_whitespace().map(str::to_owned));
        expansion_terms.dedup();
        let expanded_query = expansion_terms.join(" OR ");
        println!("\nexpanded query: {expanded_query}");
        if let Ok(resp) = engine.request(&expanded_query).k(5).run() {
            println!("results under the expanded query:");
            for hit in &resp.hits {
                println!("  {:<32} I ≈ {:.3}", hit.text, hit.interestingness);
            }
        }
    }
}
