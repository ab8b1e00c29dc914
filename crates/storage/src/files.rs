//! Serialized index file layouts.
//!
//! Two files back the paper's disk-resident operation:
//!
//! * **Phrase list** (§4.2.1, Figure 1): one fixed-width `s = 50`-byte
//!   entry per phrase, zero-padded, holding the phrase's lexical form. The
//!   phrase with id `i` occupies bytes `[i·s, (i+1)·s)`, so result phrases
//!   are looked up by direct offset computation.
//! * **Word-specific list file** (§4.2.2, Figure 2): per feature, a
//!   contiguous run of 12-byte `[phrase_id (u32 LE), prob (f64 LE)]` entries
//!   in non-increasing score order (ties by ascending id). A small in-memory
//!   directory maps features to their run.
//!
//! [`FlatLists`] is the disk backend's list encoding: two word-list files,
//! the score-ordered runs first and the id-ordered runs behind them, as one
//! region of a [`crate::PagedImage`]. Its cursors and probes report every
//! 12-byte entry they read to the image's fetch hook; the image decides
//! what each access would have cost.

use std::sync::Arc;

use bytes::Bytes;
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{Corpus, Feature, PhraseId};
use ipm_index::backend::ListEncoding;
use ipm_index::block::FetchHook;
use ipm_index::cursor::{prefix_len, IdListCursor, ScoredListCursor};
use ipm_index::phrase::PhraseDictionary;
use ipm_index::wordlists::{IdOrderedLists, ListEntry, WordPhraseLists, ENTRY_BYTES};

/// Fixed entry width of the phrase list file (paper §4.2.1: "We use an s
/// value of 50, and this was seen to cover all the phrases that we
/// encountered").
pub const PHRASE_ENTRY_BYTES: usize = 50;

/// The fixed-width phrase list file.
#[derive(Debug, Clone)]
pub struct PhraseListFile {
    pub(crate) data: Bytes,
    pub(crate) num_phrases: usize,
}

impl PhraseListFile {
    /// Serializes the dictionary. Phrases longer than
    /// [`PHRASE_ENTRY_BYTES`] bytes are truncated at a character boundary
    /// (the paper instead assumes `s` is "sufficiently high"; truncation
    /// keeps the fixed-width invariant for adversarial inputs).
    pub fn build(corpus: &Corpus, dict: &PhraseDictionary) -> Self {
        let mut data = Vec::with_capacity(dict.len() * PHRASE_ENTRY_BYTES);
        for (id, _, _) in dict.iter() {
            let text = dict.render(id, corpus);
            let bytes = &text.as_bytes()[..text.floor_char_boundary(PHRASE_ENTRY_BYTES)];
            data.extend_from_slice(bytes);
            data.resize(data.len() + (PHRASE_ENTRY_BYTES - bytes.len()), 0);
        }
        Self {
            data: Bytes::from(data),
            num_phrases: dict.len(),
        }
    }

    /// File size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// Number of phrase entries.
    pub fn num_phrases(&self) -> usize {
        self.num_phrases
    }

    /// Reads the phrase text for `id` by the paper's offset calculation.
    pub fn read(&self, id: PhraseId) -> Option<String> {
        let offset = id.index() * PHRASE_ENTRY_BYTES;
        let raw = self.data.get(offset..offset + PHRASE_ENTRY_BYTES)?;
        let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
        Some(String::from_utf8_lossy(&raw[..end]).into_owned())
    }
}

/// Directory entry of one feature's list run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ListRun {
    /// First entry index in the file (entry units, not bytes).
    pub(crate) start: u64,
    /// Number of entries.
    pub(crate) len: u64,
}

/// The serialized word-specific list file.
#[derive(Debug, Clone)]
pub struct WordListFile {
    pub(crate) data: Bytes,
    pub(crate) directory: FxHashMap<u64, ListRun>,
    pub(crate) total_entries: usize,
}

impl WordListFile {
    /// Serializes score-ordered lists (apply
    /// [`WordPhraseLists::partial`] first for build-time partial lists).
    pub fn build(lists: &WordPhraseLists) -> Self {
        Self::build_from_runs(
            lists
                .features()
                .iter()
                .enumerate()
                .map(|(slot, &feat)| (feat, lists.list_by_slot(slot as u32))),
            lists.total_entries(),
        )
    }

    /// Serializes phrase-ID-ordered lists: the same 12-byte layout, run
    /// order by feature, entries within a run ascending by phrase id. SMJ
    /// scans these runs sequentially; TA probes them by in-run binary
    /// search.
    pub fn build_id_ordered(lists: &IdOrderedLists) -> Self {
        Self::build_from_runs(
            lists
                .features()
                .iter()
                .map(|&feat| (feat, lists.list(feat))),
            lists.total_entries(),
        )
    }

    fn build_from_runs<'a>(
        runs: impl Iterator<Item = (Feature, &'a [ListEntry])>,
        total_entries: usize,
    ) -> Self {
        let mut data = Vec::with_capacity(total_entries * ENTRY_BYTES);
        let mut directory = FxHashMap::default();
        let mut written = 0u64;
        for (feat, list) in runs {
            directory.insert(
                feat.encode(),
                ListRun {
                    start: written,
                    len: list.len() as u64,
                },
            );
            for e in list {
                data.extend_from_slice(&e.phrase.raw().to_le_bytes());
                data.extend_from_slice(&e.prob.to_le_bytes());
            }
            written += list.len() as u64;
        }
        Self {
            data: Bytes::from(data),
            directory,
            total_entries: written as usize,
        }
    }

    /// File size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// Total entries across all lists.
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// Length (in entries) of a feature's list; 0 if absent.
    pub fn list_len(&self, feature: Feature) -> usize {
        self.run(feature).map_or(0, |r| r.len as usize)
    }

    /// Rehydrates the serialized image into in-memory
    /// [`WordPhraseLists`], so a process cold-starting from a persisted
    /// file (`crate::persist::load_word_lists`) can serve the in-memory
    /// NRA/SMJ paths rather than only the simulated-disk path.
    ///
    /// Slot order is by ascending feature code, which is deterministic but
    /// may differ from the original build order; per-feature lists are
    /// byte-identical.
    pub fn to_lists(&self) -> WordPhraseLists {
        let mut dir: Vec<(u64, ListRun)> = self.directory.iter().map(|(&k, &v)| (k, v)).collect();
        dir.sort_unstable_by_key(|&(code, _)| code);
        let lists = dir
            .into_iter()
            .map(|(code, run)| {
                let list = (run.start..run.start + run.len)
                    .map(|i| self.entry(i))
                    .collect();
                (Feature::decode(code), list)
            })
            .collect();
        WordPhraseLists::from_feature_lists(lists)
    }

    /// Reads entry `i` of `feature`'s list; `None` past the end of the
    /// list.
    pub fn read_entry(&self, feature: Feature, i: usize) -> Option<ListEntry> {
        let run = self.run(feature)?;
        (i < run.len as usize).then(|| self.entry(run.start + i as u64))
    }

    fn run(&self, feature: Feature) -> Option<ListRun> {
        self.directory.get(&feature.encode()).copied()
    }

    /// Decodes the entry at file-wide entry index `i`.
    fn entry(&self, i: u64) -> ListEntry {
        let o = i as usize * ENTRY_BYTES;
        decode_entry(&self.data[o..o + ENTRY_BYTES])
    }
}

/// Decodes one 12-byte `[phrase_id, prob]` entry.
fn decode_entry(bytes: &[u8]) -> ListEntry {
    ListEntry {
        phrase: PhraseId(u32::from_le_bytes(bytes[..4].try_into().unwrap())),
        prob: f64::from_le_bytes(bytes[4..ENTRY_BYTES].try_into().unwrap()),
    }
}

/// The flat list encoding: the score-ordered file at offset 0, the
/// id-ordered file right behind it.
#[derive(Debug)]
pub struct FlatLists {
    score: WordListFile,
    id: WordListFile,
}

impl FlatLists {
    /// Where the id-ordered file starts in the list region.
    fn id_base(&self) -> u64 {
        self.score.len_bytes() as u64
    }
}

impl ListEncoding for FlatLists {
    type ScoreCursor<'a> = FlatCursor<'a>;
    type IdCursor<'a> = FlatCursor<'a>;

    fn encode(lists: &WordPhraseLists, id_lists: &IdOrderedLists, _df: &Arc<Vec<u32>>) -> Self {
        Self {
            score: WordListFile::build(lists),
            id: WordListFile::build_id_ordered(id_lists),
        }
    }

    fn region_bytes(&self) -> u64 {
        self.id_base() + self.id.len_bytes() as u64
    }

    fn entries(&self, feature: Feature) -> usize {
        self.score.list_len(feature)
    }

    fn scan_scores<'a>(
        &'a self,
        feature: Feature,
        fraction: f64,
        fetch: FetchHook<'a>,
    ) -> FlatCursor<'a> {
        FlatCursor::open(&self.score, 0, feature, fraction, fetch)
    }

    fn scan_ids<'a>(&'a self, feature: Feature, fetch: FetchHook<'a>) -> FlatCursor<'a> {
        FlatCursor::open(&self.id, self.id_base(), feature, 1.0, fetch)
    }

    /// Binary search in the id-ordered run, every touched entry fetched:
    /// the disk price of TA-style random access the paper's §5.5 analysis
    /// warns about — `O(log n)` page touches, most of them random.
    fn lookup(&self, feature: Feature, phrase: PhraseId, fetch: &dyn Fn(u64, u64)) -> f64 {
        let Some(run) = self.id.run(feature) else {
            return 0.0;
        };
        let (mut lo, mut hi) = (run.start, run.start + run.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            fetch(
                self.id_base() + mid * ENTRY_BYTES as u64,
                ENTRY_BYTES as u64,
            );
            let e = self.id.entry(mid);
            match e.phrase.cmp(&phrase) {
                std::cmp::Ordering::Equal => return e.prob,
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        0.0
    }
}

/// A forward cursor over one flat list run (score-ordered or id-ordered,
/// depending on the file it was opened on) that fetches each entry it
/// reads.
pub struct FlatCursor<'a> {
    /// The entries this cursor may read.
    run: &'a [u8],
    /// Offset of `run` within the image's list region.
    offset: u64,
    /// Entries read so far.
    pos: usize,
    fetch: FetchHook<'a>,
}

impl<'a> FlatCursor<'a> {
    /// A cursor over the top-`fraction` prefix of `feature`'s run in
    /// `file`, which starts at `base` in the list region.
    fn open(
        file: &'a WordListFile,
        base: u64,
        feature: Feature,
        fraction: f64,
        fetch: FetchHook<'a>,
    ) -> Self {
        let run = file.run(feature).unwrap_or_default();
        let start = run.start as usize * ENTRY_BYTES;
        let end = start + prefix_len(run.len as usize, fraction) * ENTRY_BYTES;
        Self {
            run: &file.data[start..end],
            offset: base + start as u64,
            pos: 0,
            fetch,
        }
    }

    fn advance(&mut self) -> Option<ListEntry> {
        let at = self.pos * ENTRY_BYTES;
        let bytes = self.run.get(at..at + ENTRY_BYTES)?;
        (self.fetch)(self.offset + at as u64, ENTRY_BYTES as u64);
        self.pos += 1;
        Some(decode_entry(bytes))
    }
}

impl ScoredListCursor for FlatCursor<'_> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        self.advance()
    }

    fn len(&self) -> usize {
        self.run.len() / ENTRY_BYTES
    }

    fn position(&self) -> usize {
        self.pos
    }
}

impl IdListCursor for FlatCursor<'_> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        self.advance()
    }

    fn len(&self) -> usize {
        self.run.len() / ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{BufferPool, PoolConfig};
    use ipm_corpus::{CorpusBuilder, TokenizerConfig, WordId};
    use ipm_index::corpus_index::{CorpusIndex, IndexConfig};
    use ipm_index::mining::MiningConfig;
    use ipm_index::wordlists::WordListConfig;

    fn setup() -> (Corpus, CorpusIndex, WordPhraseLists) {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for t in [
            "trade reserves fell",
            "trade reserves rose",
            "economic minister trade",
            "trade reserves fell again",
            "minister spoke of trade reserves",
        ] {
            b.add_text(t);
        }
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        (c, index, lists)
    }

    #[test]
    fn phrase_file_roundtrip() {
        let (c, index, _) = setup();
        let file = PhraseListFile::build(&c, &index.dict);
        assert_eq!(file.len_bytes(), index.dict.len() * PHRASE_ENTRY_BYTES);
        for (id, _, _) in index.dict.iter() {
            let want = index.dict.render(id, &c);
            assert_eq!(file.read(id), Some(want));
        }
    }

    #[test]
    fn phrase_file_out_of_range() {
        let (c, index, _) = setup();
        let file = PhraseListFile::build(&c, &index.dict);
        assert_eq!(file.read(PhraseId(u32::MAX)), None);
    }

    #[test]
    fn phrase_file_truncates_long_phrases_at_char_boundary() {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        // Build a dictionary with an artificially long multibyte phrase.
        b.add_text("ααααααααααααααααααααααααα ββββββββββββββββββββββββ{ }");
        let c = b.build();
        let mut dict = PhraseDictionary::new();
        let w0 = c.word_id("ααααααααααααααααααααααααα").unwrap();
        let w1 = c.word_id("ββββββββββββββββββββββββ").unwrap();
        let id = dict.insert(&[w0, w1], 1);
        let file = PhraseListFile::build(&c, &dict);
        assert_eq!(file.len_bytes(), PHRASE_ENTRY_BYTES);
        let text = file.read(id).unwrap();
        assert!(text.len() <= PHRASE_ENTRY_BYTES);
        assert!(text.chars().all(|ch| ch == 'α' || ch == 'β' || ch == ' '));
    }

    #[test]
    fn wordlist_file_roundtrip_all_entries() {
        let (_, _, lists) = setup();
        let file = WordListFile::build(&lists);
        assert_eq!(file.total_entries(), lists.total_entries());
        assert_eq!(file.len_bytes(), lists.total_entries() * ENTRY_BYTES);
        for feat in lists.features() {
            let want = lists.list(*feat);
            assert_eq!(file.list_len(*feat), want.len());
            for (i, e) in want.iter().enumerate() {
                let got = file.read_entry(*feat, i).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(file.read_entry(*feat, want.len()).is_none());
        }
    }

    #[test]
    fn to_lists_rehydrates_identical_lists() {
        let (_, _, lists) = setup();
        let file = WordListFile::build(&lists);
        let back = file.to_lists();
        assert_eq!(back.total_entries(), lists.total_entries());
        assert_eq!(back.num_features(), lists.num_features());
        for feat in lists.features() {
            let a = lists.list(*feat);
            let b = back.list(*feat);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.phrase, y.phrase);
                assert_eq!(x.prob.to_bits(), y.prob.to_bits());
            }
        }
    }

    #[test]
    fn wordlist_file_missing_feature() {
        let (_, _, lists) = setup();
        let file = WordListFile::build(&lists);
        let missing = Feature::Word(WordId(999_999));
        assert_eq!(file.list_len(missing), 0);
        assert!(file.read_entry(missing, 0).is_none());
    }

    #[test]
    fn sequential_list_scan_is_mostly_sequential_io() {
        let (_, _, lists) = setup();
        let flat = FlatLists::encode(
            &lists,
            &IdOrderedLists::from_score_ordered(&lists),
            &Arc::default(),
        );
        // Find the longest list and scan it end to end.
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| flat.entries(**f))
            .unwrap();
        let pool = std::cell::RefCell::new(BufferPool::new(PoolConfig {
            page_size: 64,
            capacity_pages: 4,
            lookahead_pages: 1,
        }));
        let end = flat.region_bytes();
        let fetch = Box::new(|offset, len| pool.borrow_mut().access_range(offset, len, end));
        let mut cursor = flat.scan_scores(feat, 1.0, fetch);
        while ScoredListCursor::next_entry(&mut cursor).is_some() {}
        drop(cursor);
        let s = pool.borrow().stats();
        // All fetches beyond the first must be sequential for a pure scan.
        assert!(s.total_fetches() > 1);
        assert!(s.random_fetches <= 1, "scan produced {s:?}");
    }

    #[test]
    fn partial_lists_serialize_smaller() {
        let (_, _, lists) = setup();
        let full = WordListFile::build(&lists);
        let half = WordListFile::build(&lists.partial(0.5));
        assert!(half.len_bytes() < full.len_bytes());
        assert!(half.total_entries() >= 1);
    }
}
