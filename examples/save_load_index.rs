//! Persisting the index: build once offline, serve from files.
//!
//! Serializes the paper-layout index files (12-byte scored entries, 50-byte
//! phrase slots) with checksummed containers, reloads them, and answers a
//! query from the reloaded index.
//!
//! ```text
//! cargo run --release --example save_load_index
//! ```

use interesting_phrases::prelude::*;
use ipm_storage::persist;
use ipm_storage::{PhraseListFile, WordListFile};

fn main() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let miner = PhraseMiner::build(&corpus, MinerConfig::default());

    // --- offline: build + save -------------------------------------------
    let dir = std::env::temp_dir().join("ipm_example_index");
    std::fs::create_dir_all(&dir).expect("create index dir");
    let wl_path = dir.join("wordlists.ipw");
    let pl_path = dir.join("phrases.ipp");

    let word_file = WordListFile::build(miner.lists());
    let phrase_file = PhraseListFile::build(miner.corpus(), &miner.index().dict);
    persist::save_word_lists(&word_file, &wl_path).expect("save word lists");
    persist::save_phrase_list(&phrase_file, &pl_path).expect("save phrase list");
    println!(
        "saved: {} ({} B) + {} ({} B)",
        wl_path.display(),
        word_file.len_bytes(),
        pl_path.display(),
        phrase_file.len_bytes()
    );

    // --- serving process: load + query ------------------------------------
    let words = persist::load_word_lists(&wl_path).expect("load word lists");
    let phrases = persist::load_phrase_list(&pl_path).expect("load phrase list");
    println!(
        "loaded: {} entries / {} phrases (checksums verified)",
        words.total_entries(),
        phrases.num_phrases()
    );

    // Read a query's lists straight from the loaded image.
    let query = miner.parse_query_str("w1 OR w2").expect("query");
    for feat in &query.features {
        let n = words.list_len(*feat).min(3);
        println!("\ntop {n} entries of {feat:?}'s reloaded list:");
        for i in 0..n {
            let e = words.read_entry(*feat, i).expect("entry");
            let text = phrases.read(e.phrase).unwrap_or_default();
            println!("  {text:<30} P(q|p) = {:.3}", e.prob);
        }
    }

    // Rehydrate the image into in-memory lists and answer with the fast
    // in-memory NRA path (cold-start lifecycle: build offline → load →
    // serve from memory).
    let rehydrated = words.to_lists();
    let cursors: Vec<_> = query
        .features
        .iter()
        .map(|&f| ipm_index::cursor::MemoryCursor::new(rehydrated.list(f)))
        .collect();
    let out = ipm_core::nra::run_nra(
        cursors,
        query.op,
        &ipm_core::nra::NraConfig {
            k: 3,
            ..Default::default()
        },
    );
    println!("\nin-memory NRA over the rehydrated index:");
    for h in &out.hits {
        let text = phrases.read(h.phrase).unwrap_or_default();
        println!("  {text:<30} score {:.3}", h.score);
    }

    // Corruption is detected, not silently served:
    let mut bytes = std::fs::read(&wl_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&wl_path, &bytes).unwrap();
    match persist::load_word_lists(&wl_path) {
        Err(e) => println!("\ncorrupted file correctly rejected: {e}"),
        Ok(_) => println!("\nBUG: corruption not detected"),
    }
    let _ = std::fs::remove_dir_all(dir);
}
