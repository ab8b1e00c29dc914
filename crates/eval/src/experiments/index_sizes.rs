//! Table 5: index sizes at various partial-list percentages, with the
//! quality each size buys.

use super::datasets::DatasetBundle;
use super::quality::evaluate;
use super::report::{bytes, f3, Report};
use ipm_core::query::Operator;

/// Runs the table for one dataset.
pub fn run(ds: &DatasetBundle, fractions: &[f64], k: usize) -> Report {
    let mut report = Report::new(
        format!("Table 5 — index sizes ({})", ds.name),
        &[
            "list %",
            "index size",
            "packed size",
            "block size",
            "NDCG AND",
            "NDCG OR",
        ],
    );
    let num_phrases = ds.miner.index().dict.len();
    let df = std::sync::Arc::new(ipm_index::block::df_table(ds.miner.index()));
    for &f in fractions {
        let partial = ds.miner.lists().partial(f);
        let size = partial.size_bytes();
        // The block layout always carries both list orders; derive the
        // id side from the same truncated score lists so all three size
        // columns describe the same entry set.
        let id_partial = ipm_index::IdOrderedLists::from_score_ordered(&partial);
        let block = ipm_index::BlockLists::build(&partial, &id_partial, df.clone());
        let and = evaluate(ds, Operator::And, f, k);
        let or = evaluate(ds, Operator::Or, f, k);
        report.push_row(vec![
            format!("{}%", (f * 100.0).round() as u32),
            bytes(size),
            bytes(packed_bytes(partial.total_entries(), num_phrases)),
            bytes(block.encoded_bytes() + block.df_bytes()),
            f3(and.ndcg),
            f3(or.ndcg),
        ]);
    }
    let full_id = ipm_index::IdOrderedLists::from_score_ordered(ds.miner.lists());
    let full_block = ipm_index::BlockLists::build(ds.miner.lists(), &full_id, df);
    report.push_note(format!(
        "block layout at 100%: {} encoded (both list orders + df table) vs {} flat \
         at 12 B/entry — {:.2}x compression",
        bytes(full_block.encoded_bytes() + full_block.df_bytes()),
        bytes(full_block.flat_bytes()),
        full_block.flat_bytes() as f64
            / (full_block.encoded_bytes() + full_block.df_bytes()) as f64,
    ));
    let stats = ipm_corpus::stats::CorpusStats::compute(ds.miner.corpus());
    let id_bits = bits_for_ids(num_phrases);
    report.push_note(format!(
        "corpus: {} docs, vocab {}, |P| = {}, full word-list index {} ({} entries at 12 B/entry; \
         packed layout is ⌈log₂|P|⌉+64 = {} bits/entry, paper §4.2.2)",
        stats.num_docs,
        stats.vocab_size,
        num_phrases,
        bytes(ds.miner.lists().size_bytes()),
        ds.miner.lists().total_entries(),
        id_bits + 64,
    ));
    report
}

/// Minimum ID width for a dictionary of `n` phrases: `⌈log₂ n⌉`, at least 1
/// (IDs live in `[0, n)`; `n ≤ 1` still needs one bit to be addressable).
fn bits_for_ids(n: usize) -> u32 {
    if n <= 1 {
        return 1;
    }
    usize::BITS - (n - 1).leading_zeros()
}

/// Size of `entries` list entries in the paper's bit-exact layout
/// (§4.2.2: each pair occupies `⌈log₂|P|⌉ + 64` bits), final partial byte
/// rounded up.
fn packed_bytes(entries: usize, num_phrases: usize) -> usize {
    (entries * (bits_for_ids(num_phrases) as usize + 64)).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::datasets::shared_test_bundle;

    #[test]
    fn sizes_grow_with_fraction() {
        let ds = shared_test_bundle();
        let p10 = ds.miner.lists().partial(0.1).size_bytes();
        let p50 = ds.miner.lists().partial(0.5).size_bytes();
        let full = ds.miner.lists().size_bytes();
        assert!(p10 <= p50 && p50 <= full);
        assert!(p10 > 0);
    }

    #[test]
    fn report_shape() {
        let ds = shared_test_bundle();
        let r = run(ds, &[0.1, 0.5], 5);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.headers.len(), 6);
        assert!(r.notes[0].contains("compression"));
        assert!(r.notes[1].contains("docs"));
    }

    #[test]
    fn block_column_beats_flat() {
        let ds = shared_test_bundle();
        let lists = ds.miner.lists();
        let ids = ipm_index::IdOrderedLists::from_score_ordered(lists);
        let df = std::sync::Arc::new(ipm_index::block::df_table(ds.miner.index()));
        let block = ipm_index::BlockLists::build(lists, &ids, df);
        assert!(block.encoded_bytes() + block.df_bytes() < block.flat_bytes());
    }

    #[test]
    fn packed_column_is_smaller() {
        let ds = shared_test_bundle();
        let lists = ds.miner.lists();
        let packed = packed_bytes(lists.total_entries(), ds.miner.index().dict.len());
        assert!(packed < lists.size_bytes());
        // 3 entries at 2 + 64 bits = 198 bits, rounded up to whole bytes.
        assert_eq!(packed_bytes(3, 4), 25);
    }

    #[test]
    fn bits_for_ids_boundaries() {
        assert_eq!(bits_for_ids(0), 1);
        assert_eq!(bits_for_ids(1), 1);
        assert_eq!(bits_for_ids(2), 1);
        assert_eq!(bits_for_ids(3), 2);
        assert_eq!(bits_for_ids(4), 2);
        assert_eq!(bits_for_ids(5), 3);
        assert_eq!(bits_for_ids(256), 8);
        assert_eq!(bits_for_ids(257), 9);
        assert_eq!(bits_for_ids(1 << 20), 20);
        assert_eq!(bits_for_ids((1 << 20) + 1), 21);
    }
}
