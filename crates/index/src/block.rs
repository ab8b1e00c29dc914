//! Block-compressed word-specific phrase lists with skip metadata.
//!
//! The third [`ListBackend`]: each list is cut into fixed-size blocks of
//! [`BLOCK_SIZE`] entries. Phrase ids are bit-packed to the block's
//! minimum width (delta-encoded gaps in the id-ordered region, absolute
//! ids in the score-ordered region, whose ids are not monotone). Scores
//! are **not** stored as doubles: every probability the miner emits is the
//! integer rational `count / df(phrase)` (paper Eq. 13), so each entry
//! stores the co-occurrence count bit-packed to the block's minimum count
//! width, next to a shared per-phrase document-frequency table — the same
//! integer-recovery trick the delta layer uses for corrections. Decoding
//! recomputes `count as f64 / df as f64`, which reproduces the miner's
//! `f64` **bit for bit**, so every algorithm over `BlockLists` returns
//! results byte-identical to [`MemoryBackend`](crate::backend::MemoryBackend).
//!
//! Every block carries skip metadata — lowest/highest phrase id and
//! max/min probability — which feeds the cursor capability hooks
//! ([`ScoredListCursor::block_max_hint`], [`IdListCursor::seek`]): TA
//! stops once the next blocks' maxima cannot beat the defended top-k
//! floor, and SMJ gallops over id blocks whose highest id is below the
//! merge frontier, both without decoding (or, behind `ipm_storage`'s
//! block image, fetching) the blocks they pass.

use crate::backend::{probe_id_ordered, ListBackend, ListEncoding};
use crate::corpus_index::CorpusIndex;
use crate::cursor::{prefix_len, IdListCursor, ScoredListCursor};
use crate::wordlists::{IdOrderedLists, ListEntry, WordPhraseLists, ENTRY_BYTES};
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{Feature, PhraseId};
use std::sync::Arc;

/// Entries per block. 128 keeps a decoded block inside two cache lines of
/// ids plus two of counts at typical widths, and is the granularity of
/// both skip metadata and the simulated per-block disk fetch.
pub const BLOCK_SIZE: usize = 128;

/// Skip metadata and layout of one encoded block.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    /// Byte offset of the block payload within its region's data array.
    pub offset: u64,
    /// Encoded payload length in bytes (blocks are byte-aligned).
    pub bytes: u32,
    /// Entries in the block (`<= BLOCK_SIZE`).
    pub len: u16,
    /// Bit width of the id column (absolute ids in score blocks, gaps in
    /// id-ordered blocks).
    pub id_bits: u8,
    /// Bit width of the co-count column.
    pub count_bits: u8,
    /// Lowest phrase id present in the block.
    pub first: PhraseId,
    /// Highest phrase id present in the block.
    pub last: PhraseId,
    /// Largest probability in the block (the block-max pruning bound).
    pub max_prob: f64,
    /// Smallest probability in the block.
    pub min_prob: f64,
}

/// One feature's list as a sequence of encoded blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockRun {
    /// Per-block metadata, in list order.
    pub blocks: Vec<BlockMeta>,
    /// Total entries across blocks.
    pub len: usize,
}

/// Observer invoked once per block *fetch* (decode) with the absolute
/// `(offset, bytes)` of the payload inside the backend's combined data
/// image — the seam `ipm_storage`'s block image uses to charge its buffer
/// pool per block instead of per entry. Skipped blocks are never fetched.
pub type FetchHook<'a> = Box<dyn Fn(u64, u64) + 'a>;

/// Shared store of already-decoded blocks, keyed by the absolute payload
/// offset within the backend's combined data image (score region first,
/// id region after — offsets are unique across both). A hit replaces the
/// bit-unpack + dequantize work with a memcpy of the shared entries; it
/// does **not** replace the fetch: cursors fire the [`FetchHook`] before
/// consulting the provider, so buffer-pool charging and IO accounting are
/// identical with or without a provider attached. Decoding is
/// deterministic, so a cached block is bit-identical to a fresh decode.
pub trait DecodedBlockProvider {
    /// The decoded entries previously admitted at `offset`, if still held.
    fn lookup(&self, offset: u64) -> Option<Arc<Vec<ListEntry>>>;
    /// Offers a freshly decoded block for reuse by later scans.
    fn admit(&self, offset: u64, entries: Arc<Vec<ListEntry>>);
}

/// Fetches one block into `buf`: the hook always fires (the fetch is
/// real), then the provider either supplies the decoded entries or
/// receives the fresh decode for reuse.
#[allow(clippy::too_many_arguments)]
fn fetch_block_into(
    meta: &BlockMeta,
    region: &[u8],
    id_ordered: bool,
    df: &[u32],
    base: u64,
    hook: Option<&FetchHook<'_>>,
    cache: Option<&dyn DecodedBlockProvider>,
    buf: &mut Vec<ListEntry>,
) {
    let key = base + meta.offset;
    if let Some(h) = hook {
        h(key, u64::from(meta.bytes));
    }
    if let Some(c) = cache {
        if let Some(entries) = c.lookup(key) {
            buf.clear();
            buf.extend_from_slice(&entries);
            return;
        }
        decode_block(meta, region, id_ordered, df, buf);
        c.admit(key, Arc::new(buf.clone()));
        return;
    }
    decode_block(meta, region, id_ordered, df, buf);
}

/// Block-compressed lists in both orders plus the shared df table.
#[derive(Debug, Clone)]
pub struct BlockLists {
    slots: FxHashMap<Feature, u32>,
    features: Vec<Feature>,
    score_runs: Vec<BlockRun>,
    id_runs: Vec<BlockRun>,
    score_data: Vec<u8>,
    id_data: Vec<u8>,
    /// Per-phrase document frequency, indexed by raw phrase id. Shared
    /// (`Arc`) so shard slices dequantize against one table.
    df: Arc<Vec<u32>>,
}

impl BlockLists {
    /// Encodes `lists` / `id_lists` against the per-phrase `df` table.
    ///
    /// # Panics
    /// Panics if any probability is not exactly `count / df(phrase)` for
    /// an integer count — the miner's Eq. 13 contract, which is what makes
    /// lossless integer storage (and hence bit-identical parity) possible.
    pub fn build(lists: &WordPhraseLists, id_lists: &IdOrderedLists, df: Arc<Vec<u32>>) -> Self {
        let mut slots = FxHashMap::default();
        let mut features = Vec::new();
        let mut score_runs = Vec::new();
        let mut id_runs = Vec::new();
        let mut score_data = Vec::new();
        let mut id_data = Vec::new();
        for &feature in lists.features() {
            slots.insert(feature, features.len() as u32);
            features.push(feature);
            score_runs.push(encode_run(lists.list(feature), false, &df, &mut score_data));
            id_runs.push(encode_run(id_lists.list(feature), true, &df, &mut id_data));
        }
        Self {
            slots,
            features,
            score_runs,
            id_runs,
            score_data,
            id_data,
            df,
        }
    }

    /// [`build`](Self::build) with the df table derived from `index` (the
    /// common unsharded case).
    pub fn from_index(
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        index: &CorpusIndex,
    ) -> Self {
        Self::build(lists, id_lists, Arc::new(df_table(index)))
    }

    /// The shared df table (for building further shard slices).
    pub fn df(&self) -> &Arc<Vec<u32>> {
        &self.df
    }

    /// Features with a (possibly empty) encoded list.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Total entries across score-ordered runs.
    pub fn total_entries(&self) -> usize {
        self.score_runs.iter().map(|r| r.len).sum()
    }

    /// Bytes of encoded payload (both regions) — the simulated on-disk
    /// image the block-image backend charges fetches against.
    pub fn image_bytes(&self) -> usize {
        self.score_data.len() + self.id_data.len()
    }

    /// Encoded footprint: payload plus per-block metadata.
    pub fn encoded_bytes(&self) -> usize {
        let metas = self.score_runs.iter().chain(&self.id_runs);
        self.image_bytes()
            + metas.map(|r| r.blocks.len()).sum::<usize>() * std::mem::size_of::<BlockMeta>()
    }

    /// Heap bytes of the shared df table (count once across shard slices).
    pub fn df_bytes(&self) -> usize {
        self.df.len() * std::mem::size_of::<u32>()
    }

    /// What the same entries cost in the flat 12-byte-per-entry model
    /// (§5.7 accounting), over both list orders.
    pub fn flat_bytes(&self) -> usize {
        let ids: usize = self.id_runs.iter().map(|r| r.len).sum();
        (self.total_entries() + ids) * ENTRY_BYTES
    }

    /// Flat bytes over encoded bytes — the headline compression win.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes() == 0 {
            return 1.0;
        }
        self.flat_bytes() as f64 / self.encoded_bytes() as f64
    }

    /// Score-ordered cursor with an optional per-block fetch observer and
    /// an optional decoded-block provider consulted after the hook fires.
    pub fn score_cursor_cached<'a>(
        &'a self,
        feature: Feature,
        fraction: f64,
        hook: Option<FetchHook<'a>>,
        cache: Option<&'a dyn DecodedBlockProvider>,
    ) -> BlockScoreCursor<'a> {
        let run = self
            .slots
            .get(&feature)
            .map(|&s| &self.score_runs[s as usize]);
        let limit = prefix_len(run.map_or(0, |r| r.len), fraction);
        BlockScoreCursor {
            blocks: run.map_or(&[], |r| &r.blocks),
            data: &self.score_data,
            df: &self.df,
            base: 0,
            limit,
            pos: 0,
            next_block: 0,
            buf: Vec::new(),
            buf_pos: 0,
            hook,
            cache,
        }
    }

    /// Id-ordered cursor with an optional per-block fetch observer and an
    /// optional decoded-block provider consulted after the hook fires.
    pub fn id_cursor_cached<'a>(
        &'a self,
        feature: Feature,
        hook: Option<FetchHook<'a>>,
        cache: Option<&'a dyn DecodedBlockProvider>,
    ) -> BlockIdCursor<'a> {
        let run = self.slots.get(&feature).map(|&s| &self.id_runs[s as usize]);
        BlockIdCursor {
            blocks: run.map_or(&[], |r| &r.blocks),
            len: run.map_or(0, |r| r.len),
            data: &self.id_data,
            df: &self.df,
            base: self.score_data.len() as u64,
            next_block: 0,
            buf: Vec::new(),
            buf_pos: 0,
            hook,
            cache,
        }
    }

    /// Probe with an optional fetch observer and an optional decoded-block
    /// provider consulted after the hook fires: binary-searches the id-run
    /// skip metadata, decodes (at most) one block.
    pub fn probe_cached(
        &self,
        feature: Feature,
        phrase: PhraseId,
        hook: Option<&dyn Fn(u64, u64)>,
        cache: Option<&dyn DecodedBlockProvider>,
    ) -> f64 {
        let Some(&slot) = self.slots.get(&feature) else {
            return 0.0;
        };
        let run = &self.id_runs[slot as usize];
        let b = run.blocks.partition_point(|m| m.last < phrase);
        let Some(meta) = run.blocks.get(b) else {
            return 0.0;
        };
        if phrase < meta.first {
            return 0.0;
        }
        let key = self.score_data.len() as u64 + meta.offset;
        if let Some(h) = hook {
            h(key, u64::from(meta.bytes));
        }
        if let Some(c) = cache {
            if let Some(entries) = c.lookup(key) {
                return probe_id_ordered(&entries, phrase);
            }
        }
        let mut buf = Vec::with_capacity(meta.len as usize);
        decode_block(meta, &self.id_data, true, &self.df, &mut buf);
        if let Some(c) = cache {
            c.admit(key, Arc::new(buf.clone()));
        }
        probe_id_ordered(&buf, phrase)
    }
}

impl ListBackend for BlockLists {
    type ScoreCursor<'a>
        = BlockScoreCursor<'a>
    where
        Self: 'a;
    type IdCursor<'a>
        = BlockIdCursor<'a>
    where
        Self: 'a;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> BlockScoreCursor<'_> {
        self.score_cursor_cached(feature, fraction, None, None)
    }

    fn id_cursor(&self, feature: Feature) -> BlockIdCursor<'_> {
        self.id_cursor_cached(feature, None, None)
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        self.probe_cached(feature, phrase, None, None)
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.slots
            .get(&feature)
            .map_or(0, |&s| self.score_runs[s as usize].len)
    }

    fn size_bytes(&self) -> usize {
        self.encoded_bytes() + self.df_bytes()
    }
}

/// The block encoding of a simulated-disk image: both regions behind one
/// another, and one fetch per decoded block.
impl ListEncoding for BlockLists {
    type ScoreCursor<'a> = BlockScoreCursor<'a>;
    type IdCursor<'a> = BlockIdCursor<'a>;

    fn encode(lists: &WordPhraseLists, id_lists: &IdOrderedLists, df: &Arc<Vec<u32>>) -> Self {
        Self::build(lists, id_lists, df.clone())
    }

    fn region_bytes(&self) -> u64 {
        self.image_bytes() as u64
    }

    fn entries(&self, feature: Feature) -> usize {
        self.list_len(feature)
    }

    fn scan_scores<'a>(
        &'a self,
        feature: Feature,
        fraction: f64,
        fetch: FetchHook<'a>,
    ) -> BlockScoreCursor<'a> {
        self.score_cursor_cached(feature, fraction, Some(fetch), None)
    }

    fn scan_ids<'a>(&'a self, feature: Feature, fetch: FetchHook<'a>) -> BlockIdCursor<'a> {
        self.id_cursor_cached(feature, Some(fetch), None)
    }

    fn lookup(&self, feature: Feature, phrase: PhraseId, fetch: &dyn Fn(u64, u64)) -> f64 {
        self.probe_cached(feature, phrase, Some(fetch), None)
    }
}

/// The per-phrase document-frequency table of `index`, indexed by raw
/// phrase id — the denominator column every block dequantizes against.
pub fn df_table(index: &CorpusIndex) -> Vec<u32> {
    (0..index.dict.len() as u32)
        .map(|i| index.phrases.df(PhraseId(i)) as u32)
        .collect()
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Bits needed to store `max_value` (at least 1).
fn width(max_value: u64) -> u32 {
    if max_value == 0 {
        1
    } else {
        u64::BITS - max_value.leading_zeros()
    }
}

fn encode_run(entries: &[ListEntry], id_ordered: bool, df: &[u32], data: &mut Vec<u8>) -> BlockRun {
    let mut blocks = Vec::with_capacity(entries.len().div_ceil(BLOCK_SIZE));
    for chunk in entries.chunks(BLOCK_SIZE) {
        blocks.push(encode_block(chunk, id_ordered, df, data));
    }
    BlockRun {
        blocks,
        len: entries.len(),
    }
}

fn encode_block(
    chunk: &[ListEntry],
    id_ordered: bool,
    df: &[u32],
    data: &mut Vec<u8>,
) -> BlockMeta {
    let counts: Vec<u32> = chunk.iter().map(|e| recover_count(e, df)).collect();
    let count_bits = width(u64::from(counts.iter().copied().max().unwrap_or(0)));
    let id_bits = if id_ordered {
        // Strictly ascending ids: store gaps from the predecessor; the
        // first id lives in the metadata.
        let max_gap = chunk
            .windows(2)
            .map(|w| u64::from(w[1].phrase.raw() - w[0].phrase.raw()))
            .max()
            .unwrap_or(0);
        width(max_gap)
    } else {
        width(u64::from(
            chunk.iter().map(|e| e.phrase.raw()).max().unwrap_or(0),
        ))
    };

    let mut w = BitWriter::default();
    if id_ordered {
        for pair in chunk.windows(2) {
            w.write(
                u64::from(pair[1].phrase.raw() - pair[0].phrase.raw()),
                id_bits,
            );
        }
    } else {
        for e in chunk {
            w.write(u64::from(e.phrase.raw()), id_bits);
        }
    }
    for &c in &counts {
        w.write(u64::from(c), count_bits);
    }
    let payload = w.into_bytes();
    let offset = data.len() as u64;
    let bytes = payload.len() as u32;
    data.extend_from_slice(&payload);

    let (max_prob, min_prob) = if id_ordered {
        // Id order says nothing about scores: scan.
        let probs = chunk.iter().map(|e| e.prob);
        (
            probs.clone().fold(f64::NEG_INFINITY, f64::max),
            probs.fold(f64::INFINITY, f64::min),
        )
    } else {
        // Score order is non-increasing: the extremes are the endpoints.
        (chunk[0].prob, chunk[chunk.len() - 1].prob)
    };
    let (first, last) = if id_ordered {
        (chunk[0].phrase, chunk[chunk.len() - 1].phrase)
    } else {
        (
            chunk.iter().map(|e| e.phrase).min().unwrap(),
            chunk.iter().map(|e| e.phrase).max().unwrap(),
        )
    };

    BlockMeta {
        offset,
        bytes,
        len: chunk.len() as u16,
        id_bits: id_bits as u8,
        count_bits: count_bits as u8,
        first,
        last,
        max_prob,
        min_prob,
    }
}

/// Recovers the integer co-count behind `e.prob = count / df(phrase)` and
/// verifies the round trip is exact — the lossless-storage contract.
fn recover_count(e: &ListEntry, df: &[u32]) -> u32 {
    let d = df.get(e.phrase.raw() as usize).copied().unwrap_or_default();
    assert!(
        d > 0,
        "phrase {:?} has no document frequency; df table does not match the lists",
        e.phrase
    );
    let count = (e.prob * f64::from(d)).round();
    let exact = count >= 0.0
        && count <= f64::from(u32::MAX)
        && (count / f64::from(d)).to_bits() == e.prob.to_bits();
    assert!(
        exact,
        "probability {} of phrase {:?} is not an exact integer rational over df {d} \
         (Eq. 13 contract); lossless block storage is impossible",
        e.prob, e.phrase
    );
    count as u32
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes one block into `out`: the id column first, then each entry's
/// count, re-divided by its phrase's df. `count / df` is exact in IEEE
/// arithmetic, so every prob is the miner's `f64`, bit for bit.
fn decode_block(
    meta: &BlockMeta,
    region: &[u8],
    id_ordered: bool,
    df: &[u32],
    out: &mut Vec<ListEntry>,
) {
    let payload = &region[meta.offset as usize..meta.offset as usize + meta.bytes as usize];
    let len = usize::from(meta.len);
    let id_bits = u32::from(meta.id_bits);
    let count_bits = u32::from(meta.count_bits);
    let entry = |id: u32| ListEntry {
        phrase: PhraseId(id),
        prob: 0.0,
    };

    out.clear();
    let counts_at = if id_ordered {
        let mut id = meta.first.raw();
        out.push(entry(id));
        for i in 0..len - 1 {
            id += read_bits(payload, i as u64 * u64::from(id_bits), id_bits) as u32;
            out.push(entry(id));
        }
        (len - 1) as u64 * u64::from(id_bits)
    } else {
        for i in 0..len {
            out.push(entry(
                read_bits(payload, i as u64 * u64::from(id_bits), id_bits) as u32,
            ));
        }
        len as u64 * u64::from(id_bits)
    };
    for (i, e) in out.iter_mut().enumerate() {
        let count = read_bits(
            payload,
            counts_at + i as u64 * u64::from(count_bits),
            count_bits,
        ) as u32;
        e.prob = f64::from(count) / f64::from(df[e.phrase.raw() as usize]);
    }
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

/// Score-ordered cursor over a block run. Decodes one block at a time;
/// [`block_max_hint`](ScoredListCursor::block_max_hint) answers from skip
/// metadata without fetching.
pub struct BlockScoreCursor<'a> {
    blocks: &'a [BlockMeta],
    data: &'a [u8],
    df: &'a [u32],
    base: u64,
    limit: usize,
    pos: usize,
    next_block: usize,
    buf: Vec<ListEntry>,
    buf_pos: usize,
    hook: Option<FetchHook<'a>>,
    cache: Option<&'a dyn DecodedBlockProvider>,
}

impl BlockScoreCursor<'_> {
    fn fetch_next_block(&mut self) -> bool {
        let Some(meta) = self.blocks.get(self.next_block) else {
            return false;
        };
        fetch_block_into(
            meta,
            self.data,
            false,
            self.df,
            self.base,
            self.hook.as_ref(),
            self.cache,
            &mut self.buf,
        );
        self.next_block += 1;
        self.buf_pos = 0;
        true
    }
}

impl ScoredListCursor for BlockScoreCursor<'_> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        if self.pos >= self.limit {
            return None;
        }
        if self.buf_pos >= self.buf.len() && !self.fetch_next_block() {
            return None;
        }
        let e = self.buf[self.buf_pos];
        self.buf_pos += 1;
        self.pos += 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.limit
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn block_max_hint(&self) -> Option<f64> {
        if self.pos >= self.limit {
            return None;
        }
        if self.buf_pos < self.buf.len() {
            // Within a decoded block the list is non-increasing: the next
            // entry bounds the rest.
            return Some(self.buf[self.buf_pos].prob);
        }
        self.blocks.get(self.next_block).map(|m| m.max_prob)
    }
}

/// Id-ordered cursor over a block run. [`seek`](IdListCursor::seek) skips
/// whole blocks via first/last-id metadata without decoding them.
pub struct BlockIdCursor<'a> {
    blocks: &'a [BlockMeta],
    len: usize,
    data: &'a [u8],
    df: &'a [u32],
    base: u64,
    next_block: usize,
    buf: Vec<ListEntry>,
    buf_pos: usize,
    hook: Option<FetchHook<'a>>,
    cache: Option<&'a dyn DecodedBlockProvider>,
}

impl BlockIdCursor<'_> {
    fn fetch_next_block(&mut self) -> bool {
        let Some(meta) = self.blocks.get(self.next_block) else {
            return false;
        };
        fetch_block_into(
            meta,
            self.data,
            true,
            self.df,
            self.base,
            self.hook.as_ref(),
            self.cache,
            &mut self.buf,
        );
        self.next_block += 1;
        self.buf_pos = 0;
        true
    }
}

impl IdListCursor for BlockIdCursor<'_> {
    fn next_entry(&mut self) -> Option<ListEntry> {
        if self.buf_pos >= self.buf.len() && !self.fetch_next_block() {
            return None;
        }
        let e = self.buf[self.buf_pos];
        self.buf_pos += 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn seek(&mut self, target: PhraseId) -> Option<ListEntry> {
        // Finish the decoded block first (binary search — it is sorted).
        if self.buf_pos < self.buf.len() {
            self.buf_pos += self.buf[self.buf_pos..].partition_point(|e| e.phrase < target);
            if self.buf_pos < self.buf.len() {
                return self.next_entry();
            }
        }
        // Skip every block whose highest id is below the target — pure
        // metadata, nothing decoded or fetched.
        while let Some(meta) = self.blocks.get(self.next_block) {
            if meta.last < target {
                self.next_block += 1;
            } else {
                break;
            }
        }
        if !self.fetch_next_block() {
            return None;
        }
        self.buf_pos = self.buf.partition_point(|e| e.phrase < target);
        self.next_entry()
    }
}

// ---------------------------------------------------------------------------
// Bit packing (LSB-first, byte-aligned per block)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit_len: u64,
}

impl BitWriter {
    /// Appends the low `bits` bits of `value` (`1..=64`).
    fn write(&mut self, value: u64, bits: u32) {
        debug_assert!((1..=64).contains(&bits));
        debug_assert!(
            bits == 64 || value < (1u64 << bits),
            "value overflows width"
        );
        let mut v = value;
        let mut remaining = bits;
        while remaining > 0 {
            let byte_idx = (self.bit_len / 8) as usize;
            let bit_in_byte = (self.bit_len % 8) as u32;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            let take = (8 - bit_in_byte).min(remaining);
            let mask = (1u64 << take) - 1;
            self.bytes[byte_idx] |= ((v & mask) as u8) << bit_in_byte;
            v >>= take;
            self.bit_len += u64::from(take);
            remaining -= take;
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads `bits` bits (`1..=64`) at absolute `bit_offset`, mirroring
/// [`BitWriter::write`].
fn read_bits(data: &[u8], bit_offset: u64, bits: u32) -> u64 {
    debug_assert!((1..=64).contains(&bits));
    debug_assert!(
        bit_offset + u64::from(bits) <= data.len() as u64 * 8,
        "bit range out of bounds"
    );
    let mut v = 0u64;
    let mut got = 0u32;
    let mut off = bit_offset;
    while got < bits {
        let byte = u64::from(data[(off / 8) as usize]);
        let bit_in_byte = (off % 8) as u32;
        let take = (8 - bit_in_byte).min(bits - got);
        let chunk = (byte >> bit_in_byte) & ((1u64 << take) - 1);
        v |= chunk << got;
        got += take;
        off += u64::from(take);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_index::{CorpusIndex, IndexConfig};
    use crate::mining::MiningConfig;
    use crate::wordlists::WordListConfig;

    fn setup() -> (CorpusIndex, WordPhraseLists, IdOrderedLists) {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
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
        let idl = IdOrderedLists::from_score_ordered(&lists);
        (index, lists, idl)
    }

    fn blocks() -> (BlockLists, WordPhraseLists, IdOrderedLists) {
        let (index, lists, idl) = setup();
        let b = BlockLists::from_index(&lists, &idl, &index);
        (b, lists, idl)
    }

    #[test]
    fn score_cursor_is_bit_identical_to_memory() {
        let (b, lists, _) = blocks();
        for &feat in lists.features() {
            let want = lists.list(feat);
            assert_eq!(b.list_len(feat), want.len());
            let mut cur = b.score_cursor(feat, 1.0);
            assert_eq!(cur.len(), want.len());
            for e in want {
                let got = cur.next_entry().unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits(), "lossless scores");
            }
            assert!(cur.next_entry().is_none());
        }
    }

    #[test]
    fn id_cursor_is_bit_identical_and_sorted() {
        let (b, lists, idl) = blocks();
        for &feat in lists.features() {
            let want = idl.list(feat);
            let mut cur = b.id_cursor(feat);
            assert_eq!(cur.len(), want.len());
            let mut prev = None;
            for e in want {
                let got = cur.next_entry().unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
                if let Some(p) = prev {
                    assert!(got.phrase > p);
                }
                prev = Some(got.phrase);
            }
            assert!(cur.next_entry().is_none());
        }
    }

    #[test]
    fn probe_agrees_with_lists() {
        let (b, lists, _) = blocks();
        for &feat in lists.features() {
            for e in lists.list(feat) {
                assert_eq!(b.probe(feat, e.phrase).to_bits(), e.prob.to_bits());
            }
            assert_eq!(b.probe(feat, PhraseId(u32::MAX)), 0.0);
        }
    }

    #[test]
    fn partial_cursor_truncates_like_memory() {
        let (b, lists, _) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        for fraction in [0.1, 0.3, 0.7] {
            let cur = b.score_cursor(feat, fraction);
            assert_eq!(cur.len(), prefix_len(lists.list(feat).len(), fraction));
        }
    }

    #[test]
    fn hint_tracks_the_next_entry() {
        let (b, lists, _) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let want = lists.list(feat);
        let mut cur = b.score_cursor(feat, 1.0);
        // Before any read the hint is block 0's max = the head entry.
        assert_eq!(
            cur.block_max_hint().unwrap().to_bits(),
            want[0].prob.to_bits()
        );
        let first = cur.next_entry().unwrap();
        // Hint never exceeds the last returned score (non-increasing list).
        if let Some(h) = cur.block_max_hint() {
            assert!(h <= first.prob);
        }
        // Every later hint bounds the rest, and a drained cursor has none.
        while let Some(h) = cur.block_max_hint() {
            let e = cur.next_entry().unwrap();
            assert!(e.prob <= h);
        }
        assert_eq!(cur.position(), want.len());
        assert!(cur.next_entry().is_none());
    }

    #[test]
    fn seek_skips_undecoded_blocks() {
        let (b, lists, idl) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let want = idl.list(feat);
        let target = want[want.len() / 2].phrase;
        let mut cur = b.id_cursor(feat);
        let got = cur.seek(target).unwrap();
        assert_eq!(got.phrase, target);
        // A target beyond the last id exhausts the cursor.
        let mut cur = b.id_cursor(feat);
        assert!(cur
            .seek(PhraseId(want.last().unwrap().phrase.raw() + 1))
            .is_none());
        // Seeking to a gap lands on the next larger id.
        let mut cur = b.id_cursor(feat);
        let got = cur.seek(PhraseId(0)).unwrap();
        assert_eq!(got.phrase, want[0].phrase);
    }

    #[test]
    fn fetch_hook_fires_once_per_block_and_skips_are_free() {
        use std::cell::Cell;
        let (b, lists, _) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let fetches = Cell::new(0u32);
        let hook: FetchHook<'_> = Box::new(|_, _| fetches.set(fetches.get() + 1));
        let mut cur = b.score_cursor_cached(feat, 1.0, Some(hook), None);
        while cur.next_entry().is_some() {}
        let expected = lists.list(feat).len().div_ceil(BLOCK_SIZE) as u32;
        assert_eq!(fetches.get(), expected, "one fetch per block");

        // The skip metadata is free: a hint at a block boundary fetches
        // nothing.
        fetches.set(0);
        let hook: FetchHook<'_> = Box::new(|_, _| fetches.set(fetches.get() + 1));
        let cur = b.score_cursor_cached(feat, 1.0, Some(hook), None);
        assert!(cur.block_max_hint().is_some());
        assert_eq!(fetches.get(), 0, "metadata-only hint");
    }

    /// Toy provider for the cached-cursor tests: a plain map plus hit /
    /// admit counters.
    #[derive(Default)]
    struct MapProvider {
        map: std::cell::RefCell<FxHashMap<u64, Arc<Vec<ListEntry>>>>,
        hits: Cell<u32>,
        admits: Cell<u32>,
    }
    use std::cell::Cell;
    impl DecodedBlockProvider for MapProvider {
        fn lookup(&self, offset: u64) -> Option<Arc<Vec<ListEntry>>> {
            let hit = self.map.borrow().get(&offset).cloned();
            if hit.is_some() {
                self.hits.set(self.hits.get() + 1);
            }
            hit
        }
        fn admit(&self, offset: u64, entries: Arc<Vec<ListEntry>>) {
            self.admits.set(self.admits.get() + 1);
            self.map.borrow_mut().insert(offset, entries);
        }
    }

    #[test]
    fn cached_cursors_hit_on_reuse_and_stay_bit_identical() {
        let (b, lists, idl) = blocks();
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let provider = MapProvider::default();
        let n_blocks = lists.list(feat).len().div_ceil(BLOCK_SIZE) as u32;

        // First pass: all misses, every block admitted, hook still fires
        // once per block.
        let fetches = Cell::new(0u32);
        let hook: FetchHook<'_> = Box::new(|_, _| fetches.set(fetches.get() + 1));
        let mut cur = b.score_cursor_cached(feat, 1.0, Some(hook), Some(&provider));
        let mut first = Vec::new();
        while let Some(e) = cur.next_entry() {
            first.push(e);
        }
        assert_eq!(provider.hits.get(), 0);
        assert_eq!(provider.admits.get(), n_blocks);
        assert_eq!(fetches.get(), n_blocks, "cache miss still charges fetch");

        // Second pass: all hits, hook fires identically, entries are
        // bit-identical to both the first pass and the source lists.
        fetches.set(0);
        let hook: FetchHook<'_> = Box::new(|_, _| fetches.set(fetches.get() + 1));
        let mut cur = b.score_cursor_cached(feat, 1.0, Some(hook), Some(&provider));
        for (i, want) in first.iter().enumerate() {
            let got = cur.next_entry().unwrap();
            assert_eq!(got.phrase, want.phrase);
            assert_eq!(got.prob.to_bits(), want.prob.to_bits(), "entry {i}");
        }
        assert!(cur.next_entry().is_none());
        assert_eq!(provider.hits.get(), n_blocks);
        assert_eq!(provider.admits.get(), n_blocks, "no re-admission on hit");
        assert_eq!(fetches.get(), n_blocks, "cache hit still charges fetch");
        for (got, want) in first.iter().zip(lists.list(feat)) {
            assert_eq!(got.prob.to_bits(), want.prob.to_bits());
        }

        // Id cursors and probes share the provider: id-region offsets are
        // disjoint from score-region offsets, so nothing collides.
        let mut idc = b.id_cursor_cached(feat, None, Some(&provider));
        let want = idl.list(feat);
        for e in want {
            let got = idc.next_entry().unwrap();
            assert_eq!(got.prob.to_bits(), e.prob.to_bits());
        }
        let probe_hits_before = provider.hits.get();
        for e in want.iter().take(5) {
            let got = b.probe_cached(feat, e.phrase, None, Some(&provider));
            assert_eq!(got.to_bits(), e.prob.to_bits());
        }
        assert!(
            provider.hits.get() > probe_hits_before,
            "probes reuse blocks the id cursor admitted"
        );
    }

    #[test]
    fn compression_beats_the_flat_model() {
        let (b, lists, idl) = blocks();
        let flat = (lists.total_entries() + idl.total_entries()) * ENTRY_BYTES;
        assert_eq!(b.flat_bytes(), flat);
        assert!(
            b.encoded_bytes() < flat,
            "encoded {} vs flat {flat}",
            b.encoded_bytes()
        );
        assert!(b.compression_ratio() > 1.0);
        assert!(b.size_bytes() >= b.encoded_bytes());
    }

    #[test]
    #[should_panic(expected = "not an exact integer rational")]
    fn non_rational_scores_are_rejected() {
        let (index, lists, idl) = setup();
        // A df table that disagrees with the lists' denominators: over
        // df = 1 only probabilities 0 and 1 are representable, and the
        // lists carry plenty of proper fractions.
        let bogus = vec![1u32; df_table(&index).len()];
        let _ = BlockLists::build(&lists, &idl, Arc::new(bogus));
    }

    #[test]
    fn empty_and_unknown_features_are_empty() {
        let (b, _, _) = blocks();
        let ghost = Feature::Word(ipm_corpus::WordId(u32::MAX));
        assert_eq!(b.list_len(ghost), 0);
        let mut cur = b.score_cursor(ghost, 1.0);
        assert!(cur.is_empty());
        assert!(cur.next_entry().is_none());
        assert_eq!(cur.block_max_hint(), None);
        let mut idc = b.id_cursor(ghost);
        assert!(idc.next_entry().is_none());
        assert!(idc.seek(PhraseId(0)).is_none());
        assert_eq!(b.probe(ghost, PhraseId(0)), 0.0);
    }
}
