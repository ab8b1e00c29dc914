//! Integration test: the full persist-and-reload path — build a miner,
//! serialize its index files with checksums, reload them, and verify the
//! disk-resident query path answers identically.

use interesting_phrases::prelude::*;
use ipm_storage::persist;
use ipm_storage::{PhraseListFile, WordListFile};

fn miner() -> PhraseMiner {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    PhraseMiner::build(
        &corpus,
        MinerConfig {
            index: ipm_index::corpus_index::IndexConfig {
                mining: ipm_index::mining::MiningConfig {
                    min_df: 3,
                    max_len: 4,
                    min_len: 1,
                },
            },
            ..Default::default()
        },
    )
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ipm_it_{name}_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&d);
    d
}

#[test]
fn save_load_roundtrip_preserves_query_results() {
    let m = miner();
    let dir = tmpdir("roundtrip");

    // Serialize.
    let word_file = WordListFile::build(m.lists());
    let phrase_file = PhraseListFile::build(m.corpus(), &m.index().dict);
    let wl = dir.join("w.ipw");
    let pl = dir.join("p.ipp");
    persist::save_word_lists(&word_file, &wl).unwrap();
    persist::save_phrase_list(&phrase_file, &pl).unwrap();

    // Reload and compare the raw images entry-by-entry through a pool.
    let loaded_words = persist::load_word_lists(&wl).unwrap();
    let loaded_phrases = persist::load_phrase_list(&pl).unwrap();
    assert_eq!(loaded_words.total_entries(), word_file.total_entries());
    assert_eq!(loaded_phrases.num_phrases(), phrase_file.num_phrases());

    for feat in m.lists().features() {
        for i in 0..word_file.list_len(*feat) {
            let a = word_file.read_entry(*feat, i).unwrap();
            let b = loaded_words.read_entry(*feat, i).unwrap();
            assert_eq!(a.phrase, b.phrase);
            assert_eq!(a.prob.to_bits(), b.prob.to_bits());
        }
    }
    for (id, _, _) in m.index().dict.iter() {
        assert_eq!(phrase_file.read(id), loaded_phrases.read(id));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn persisted_files_fail_safely_on_corruption() {
    let m = miner();
    let dir = tmpdir("corrupt");
    let wl = dir.join("w.ipw");
    persist::save_word_lists(&WordListFile::build(m.lists()), &wl).unwrap();

    // Flip a byte near the front (header region) and near the back (data).
    for flip_at in [10usize, 200] {
        let mut bytes = std::fs::read(&wl).unwrap();
        if flip_at < bytes.len() {
            bytes[flip_at] ^= 0xFF;
            let corrupted = dir.join(format!("c{flip_at}.ipw"));
            std::fs::write(&corrupted, &bytes).unwrap();
            assert!(
                persist::load_word_lists(&corrupted).is_err(),
                "corruption at byte {flip_at} not detected"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn truncation_at_any_strided_point_fails_cleanly() {
    // Fail-safe loading: a file cut off at *any* point must produce a typed
    // error, never a panic or a silently short index.
    let m = miner();
    let dir = tmpdir("trunc_sweep");
    let wl = dir.join("w.ipw");
    persist::save_word_lists(&WordListFile::build(m.lists()), &wl).unwrap();
    let bytes = std::fs::read(&wl).unwrap();
    let stride = (bytes.len() / 23).max(1);
    let mut cut = 0usize;
    while cut < bytes.len() {
        let path = dir.join("cut.ipw");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            persist::load_word_lists(&path).is_err(),
            "truncation to {cut}/{} bytes loaded successfully",
            bytes.len()
        );
        cut += stride;
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn reloaded_image_serves_in_memory_queries() {
    // Cold-start story: persist → load → rehydrate to in-memory lists →
    // NRA answers exactly as the originally built index.
    let m = miner();
    let dir = tmpdir("rehydrate");
    let wl = dir.join("w.ipw");
    persist::save_word_lists(&WordListFile::build(m.lists()), &wl).unwrap();

    let rehydrated = persist::load_word_lists(&wl).unwrap().to_lists();
    assert_eq!(rehydrated.total_entries(), m.lists().total_entries());

    let top = ipm_corpus::stats::top_words_by_df(m.corpus(), 3);
    for op in [Operator::And, Operator::Or] {
        let q = Query::new(top.iter().map(|&(w, _)| Feature::Word(w)).collect(), op).unwrap();
        let want: Vec<_> = m.top_k_nra(&q, 5).hits.iter().map(|h| h.phrase).collect();
        let cursors: Vec<_> = q
            .features
            .iter()
            .map(|&f| ipm_index::cursor::MemoryCursor::new(rehydrated.list(f)))
            .collect();
        let got = ipm_core::nra::run_nra(
            cursors,
            q.op,
            &ipm_core::nra::NraConfig {
                k: 5,
                ..Default::default()
            },
        );
        assert_eq!(
            got.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
            want,
            "{op}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
