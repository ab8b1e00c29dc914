//! The serving head and its lifecycle: index generations
//! (`IndexState`) with their lazily built images and shard layouts, the
//! `LiveState` triple queries snapshot, and the §4.5.1 mutators — ingest,
//! delete, compaction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

use super::exec::Paged;
use super::QueryEngine;
use crate::delta::DeltaIndex;
use crate::miner::PhraseMiner;
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{DocId, FacetId, WordId};
use ipm_index::backend::MemoryBackend;
use ipm_index::block::BlockLists;
use ipm_index::sharding::{ListShard, ShardedWordLists};
use ipm_storage::{FlatLists, PagedImage};

/// Most distinct shard layouts the engine keeps cached at once. The
/// fanout is client-controllable per request (CLI flag, wire field) and
/// every layout pins a full copy of the word lists (plus, after a
/// disk-backed request, a serialized disk image) — without a bound, a
/// client sweeping fanouts 2..=64 would pin ~63 index-sized copies and
/// OOM the server. Least-recently-used non-default layouts are evicted;
/// in-flight queries keep theirs alive through their `Arc`.
const MAX_CACHED_LAYOUTS: usize = 4;

/// One lazily built shard layout: the in-memory partitions, plus (once a
/// disk- or block-backed sharded request arrives) one image per shard in
/// that request's encoding.
#[derive(Debug)]
pub(super) struct ShardedIndex {
    pub(super) mem: ShardedWordLists,
    pub(super) disk: OnceLock<Vec<PagedImage<FlatLists>>>,
    pub(super) block: OnceLock<Vec<PagedImage<BlockLists>>>,
    /// Eviction stamp (engine-wide logical clock; larger = more recent).
    last_used: AtomicU64,
}

/// One immutable generation of the index: the miner plus every layout
/// lazily derived from it (disk image, shard layouts). Compaction builds
/// a fresh `IndexState` offline and swaps it in atomically; in-flight
/// queries keep serving from the generation their snapshot pinned.
#[derive(Debug)]
pub(super) struct IndexState {
    pub(super) miner: Arc<PhraseMiner>,
    /// Lazily built unsharded images, one per encoding (the first request
    /// on that backend pays the encode).
    pub(super) disk: OnceLock<Arc<PagedImage<FlatLists>>>,
    pub(super) block: OnceLock<Arc<PagedImage<BlockLists>>>,
    /// Lazily built shard layouts, keyed by fanout (a request may ask for
    /// any fanout; layouts are built once and reused, bounded by
    /// [`MAX_CACHED_LAYOUTS`] with LRU eviction).
    pub(super) sharded: RwLock<FxHashMap<usize, Arc<ShardedIndex>>>,
    /// Logical clock stamping layout use for eviction.
    layout_clock: AtomicU64,
}

impl ShardedIndex {
    /// One in-memory backend per shard, in ascending phrase-range order.
    pub(super) fn memory_backends(&self) -> Vec<MemoryBackend<'_>> {
        self.mem.shards().iter().map(ListShard::backend).collect()
    }
}

impl IndexState {
    pub(super) fn new(miner: Arc<PhraseMiner>) -> Self {
        Self {
            miner,
            disk: OnceLock::new(),
            block: OnceLock::new(),
            sharded: RwLock::new(FxHashMap::default()),
            layout_clock: AtomicU64::new(0),
        }
    }
}

/// The mutable head of the engine: which index generation serves, which
/// delta corrects it, and the epoch that names this exact combination.
/// Readers snapshot the whole struct under one read lock (three cheap
/// `Arc` clones), so a query always sees a *consistent* (epoch, index,
/// delta) triple — never a new epoch with an old delta or vice versa.
#[derive(Debug, Clone)]
pub(super) struct LiveState {
    /// Monotonic index epoch: bumped by every observable mutation
    /// (ingest, state-changing delete, compaction). Tags every
    /// [`super::CacheKey`].
    pub(super) epoch: u64,
    pub(super) index: Arc<IndexState>,
    /// The attached §4.5.1 side index over inserted/deleted documents;
    /// `None` until the first ingest or delete, and again after a
    /// compaction.
    pub(super) delta: Option<Arc<DeltaIndex>>,
}

/// What [`QueryEngine::compact`] reports.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Whether a rebuild actually happened (`false` when the delta was
    /// empty or absent — compaction is then a no-op and the epoch does
    /// not move).
    pub compacted: bool,
    /// The epoch serving *after* the call.
    pub epoch: u64,
    /// Documents in the (possibly rebuilt) corpus.
    pub docs: usize,
    /// Phrases in the (possibly rebuilt) dictionary.
    pub phrases: usize,
    /// Added documents the rebuild absorbed.
    pub absorbed_adds: usize,
    /// Deletions the rebuild absorbed.
    pub absorbed_deletes: usize,
    /// Wall-clock cost of the rebuild (zero for a no-op).
    pub elapsed: Duration,
}

/// A snapshot of the engine's lifecycle counters (served by the wire
/// protocol's `stats` verb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Current index epoch.
    pub epoch: u64,
    /// Documents ingested since engine construction.
    pub ingested: u64,
    /// Documents deleted since engine construction.
    pub deleted: u64,
    /// Compactions performed (no-ops excluded).
    pub compactions: u64,
    /// Documents currently tracked by the attached delta
    /// (added + deleted; `0` when no delta is attached).
    pub delta_docs: usize,
}

impl QueryEngine {
    /// A consistent snapshot of the serving head.
    pub(super) fn live(&self) -> LiveState {
        self.inner.live.read().unwrap().clone()
    }

    /// The miner of the currently serving index generation (for direct
    /// algorithm access). The handle pins its generation: it stays valid
    /// — and keeps answering from the pre-swap state — across a
    /// concurrent [`QueryEngine::compact`].
    pub fn miner(&self) -> Arc<PhraseMiner> {
        self.inner.live.read().unwrap().index.miner.clone()
    }

    /// The current index epoch: a monotonic counter bumped by every
    /// observable index mutation (ingest, delete, state-changing delta
    /// attach/update/detach, compaction). Tags every [`super::CacheKey`], so
    /// mutations invalidate cached results by *missing* instead of by
    /// clearing.
    pub fn epoch(&self) -> u64 {
        self.inner.live.read().unwrap().epoch
    }

    /// The current generation's disk image, building it on first use.
    pub fn disk(&self) -> Arc<PagedImage<FlatLists>> {
        self.image(&self.live().index)
    }

    /// The current generation's block-compressed image, encoding it on
    /// first use.
    pub fn block(&self) -> Arc<PagedImage<BlockLists>> {
        self.image(&self.live().index)
    }

    /// One generation's unsharded image in encoding `E`, built on first
    /// use.
    pub(super) fn image<E: Paged>(&self, state: &IndexState) -> Arc<PagedImage<E>> {
        let m = &state.miner;
        let inner = &self.inner;
        E::image_slot(state)
            .get_or_init(|| {
                Arc::new(PagedImage::build(
                    m.index(),
                    m.lists(),
                    m.id_lists(),
                    inner.pool,
                    inner.cost,
                ))
            })
            .clone()
    }

    /// Number of shard layouts currently cached by the serving generation
    /// (bounded by `MAX_CACHED_LAYOUTS`).
    pub fn cached_layouts(&self) -> usize {
        self.live().index.sharded.read().unwrap().len()
    }

    /// The shard layout for fanout `n` within one index generation,
    /// building it on first use and evicting the least-recently-used
    /// non-default layout past the cap.
    pub(super) fn sharded_index(&self, state: &IndexState, n: usize) -> Arc<ShardedIndex> {
        // lint-allow: relaxed-ordering — LRU recency clock; skew only costs a suboptimal eviction victim
        let stamp = state.layout_clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(idx) = state.sharded.read().unwrap().get(&n) {
            // lint-allow: relaxed-ordering — LRU recency stamp; skew only costs a suboptimal eviction victim
            idx.last_used.store(stamp, Ordering::Relaxed);
            return idx.clone();
        }
        let mut map = state.sharded.write().unwrap();
        if let Some(idx) = map.get(&n) {
            // lint-allow: relaxed-ordering — LRU recency stamp; skew only costs a suboptimal eviction victim
            idx.last_used.store(stamp, Ordering::Relaxed);
            return idx.clone();
        }
        while map.len() >= MAX_CACHED_LAYOUTS {
            let victim = map
                .iter()
                .filter(|&(&key, _)| key != self.inner.default_shards)
                // lint-allow: relaxed-ordering — LRU recency read; skew only costs a suboptimal eviction victim
                .min_by_key(|(_, v)| v.last_used.load(Ordering::Relaxed))
                .map(|(&key, _)| key);
            match victim {
                Some(key) => {
                    map.remove(&key);
                }
                None => break,
            }
        }
        let m = &state.miner;
        let idx = Arc::new(ShardedIndex {
            mem: ShardedWordLists::build(m.lists(), m.id_lists(), m.index().dict.len(), n),
            disk: OnceLock::new(),
            block: OnceLock::new(),
            last_used: AtomicU64::new(stamp),
        });
        map.insert(n, idx.clone());
        idx
    }

    /// One layout's per-shard images in encoding `E`, built on first use.
    pub(super) fn shard_images<'a, E: Paged>(
        &self,
        state: &IndexState,
        layout: &'a ShardedIndex,
    ) -> &'a [PagedImage<E>] {
        let inner = &self.inner;
        E::shards_slot(layout).get_or_init(|| {
            PagedImage::shards(state.miner.index(), &layout.mem, inner.pool, inner.cost)
        })
    }

    /// The half-open phrase-id range shard `shard` owns in a fanout-
    /// `fanout` layout of this engine's current index generation (`None`
    /// when `shard >= fanout`). Fanout 1 owns the full id space. Both
    /// ends of a distributed deployment derive these ranges
    /// deterministically from the corpus build, so a router can validate
    /// its configured shard set against each shard server's answer.
    pub fn shard_phrase_range(&self, fanout: usize, shard: usize) -> Option<(u32, u32)> {
        let fanout = fanout.clamp(1, crate::plan::MAX_SHARDS);
        if shard >= fanout {
            return None;
        }
        if fanout == 1 {
            return Some((0, u32::MAX));
        }
        let live = self.live();
        let idx = self.sharded_index(&live.index, fanout);
        let (lo, hi) = idx.mem.shards()[shard].range();
        Some((lo.raw(), hi.raw()))
    }

    /// A snapshot handle to the attached delta, if any.
    pub fn delta(&self) -> Option<Arc<DeltaIndex>> {
        self.inner.live.read().unwrap().delta.clone()
    }

    /// Ingests one document into the serving index's §4.5.1 side index:
    /// the live lists stay untouched, `use_delta` queries see the
    /// document immediately through corrected probabilities, and the next
    /// [`QueryEngine::compact`] folds it into a full rebuild. Tokens are
    /// word ids of the *current* vocabulary (the wire layer resolves
    /// strings; out-of-vocabulary words can only enter at a rebuild).
    /// Bumps the epoch.
    pub fn ingest_document(&self, tokens: &[WordId], facets: &[FacetId]) {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        let index = live.index.clone();
        let delta = Arc::make_mut(live.delta.get_or_insert_with(Default::default));
        delta.add_document(index.miner.index(), tokens, facets);
        live.epoch += 1;
        // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
        self.inner.ingested.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.docs_ingested.inc();
    }

    /// Marks a document of the serving corpus deleted (through the side
    /// index; the postings stay untouched until compaction). Returns
    /// `false` — with no epoch bump and no cache impact — when `doc` is
    /// out of range or already deleted.
    pub fn delete_document(&self, doc: DocId) -> bool {
        let _m = self.inner.maintenance.lock().unwrap();
        let mut live = self.inner.live.write().unwrap();
        if doc.index() >= live.index.miner.corpus().num_docs() {
            return false;
        }
        if live.delta.as_ref().is_some_and(|d| d.is_deleted(doc)) {
            return false;
        }
        let delta = Arc::make_mut(live.delta.get_or_insert_with(Default::default));
        delta.delete_document(doc);
        live.epoch += 1;
        // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
        self.inner.deleted.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.docs_deleted.inc();
        true
    }

    /// Flushes the delta into a **full offline rebuild** — the third leg
    /// of the paper's §4.5.1 contract ("periodically, the [side index] is
    /// flushed and the list indexes are re-constructed"):
    ///
    /// 1. snapshot the serving generation and its delta (the maintenance
    ///    lock keeps the delta frozen; queries keep serving throughout);
    /// 2. reconstruct the corpus — surviving base documents plus every
    ///    ingested document, over the *same shared vocabulary* — and
    ///    rebuild the miner (dictionary, postings, forward lists, both
    ///    word-list orders) from scratch; new phrases and pairs the delta
    ///    had to defer now enter the lists;
    /// 3. atomically swap the new generation in, drop the delta, and bump
    ///    the epoch. Lazily derived layouts (disk image, shard layouts)
    ///    rebuild on first use against the new lists.
    ///
    /// After the swap the delta is empty, so all four algorithms answer
    /// `Exact` again (`use_delta` becomes a no-op until the next ingest).
    /// Ingest/delete calls block for the duration of the rebuild (they
    /// share the maintenance lock); queries never do — they serve the
    /// pre-swap generation until the O(1) swap, which is the behaviour
    /// the server relies on to keep compaction off the query path.
    ///
    /// A call with no attached (or an empty) delta is a no-op that
    /// reports `compacted: false` and leaves the epoch untouched.
    pub fn compact(&self) -> CompactionReport {
        let start = Instant::now();
        let _m = self.inner.maintenance.lock().unwrap();
        let snap = self.live();
        let delta = snap.delta.as_ref().filter(|d| !d.is_empty());
        let miner = &snap.index.miner;
        let Some(delta) = delta else {
            return CompactionReport {
                compacted: false,
                epoch: snap.epoch,
                docs: miner.corpus().num_docs(),
                phrases: miner.index().dict.len(),
                absorbed_adds: 0,
                absorbed_deletes: 0,
                elapsed: Duration::ZERO,
            };
        };
        // Offline rebuild (queries keep serving `snap.index`): surviving
        // base docs + ingested docs over the shared vocabulary.
        let mut docs: Vec<(Vec<WordId>, Vec<FacetId>)> =
            Vec::with_capacity(miner.corpus().num_docs() + delta.num_added());
        for d in miner.corpus().docs() {
            if !delta.is_deleted(d.id) {
                docs.push((d.tokens.clone(), d.facets.clone()));
            }
        }
        for (tokens, facets) in delta.added_docs() {
            docs.push((tokens.clone(), facets.clone()));
        }
        let new_corpus = miner.corpus().with_docs(docs);
        let new_miner = Arc::new(PhraseMiner::build(&new_corpus, miner.config().clone()));
        let report = CompactionReport {
            compacted: true,
            epoch: 0, // patched below, after the swap fixes the epoch
            docs: new_corpus.num_docs(),
            phrases: new_miner.index().dict.len(),
            absorbed_adds: delta.num_added(),
            absorbed_deletes: delta.num_deleted(),
            elapsed: Duration::ZERO,
        };
        let epoch = {
            let mut live = self.inner.live.write().unwrap();
            live.index = Arc::new(IndexState::new(new_miner));
            live.delta = None;
            live.epoch += 1;
            live.epoch
        };
        // lint-allow: relaxed-ordering — monotone lifecycle counter; mutations serialize on the live write lock
        self.inner.compactions.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.compactions.inc();
        CompactionReport {
            epoch,
            elapsed: start.elapsed(),
            ..report
        }
    }

    /// Lifecycle counters: epoch, ingest/delete/compaction totals, and
    /// the live delta's size.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        let live = self.inner.live.read().unwrap();
        LifecycleStats {
            epoch: live.epoch,
            // lint-allow: relaxed-ordering — stats snapshot; each counter is independently monotone
            ingested: self.inner.ingested.load(Ordering::Relaxed),
            // lint-allow: relaxed-ordering — stats snapshot; each counter is independently monotone
            deleted: self.inner.deleted.load(Ordering::Relaxed),
            // lint-allow: relaxed-ordering — stats snapshot; each counter is independently monotone
            compactions: self.inner.compactions.load(Ordering::Relaxed),
            delta_docs: live
                .delta
                .as_ref()
                .map(|d| d.num_added() + d.num_deleted())
                .unwrap_or(0),
        }
    }
}
