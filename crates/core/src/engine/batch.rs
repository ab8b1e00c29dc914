//! Batch planning glue: one pinned snapshot for N queries, the
//! [`crate::plan::BatchPlan`] grouping, and the fused shared scan
//! (`fused.rs`) that pre-computes eligible members' hits before each
//! item runs down the spine in `exec`.

use super::exec::Source;
use super::live::LiveState;
use super::{Algorithm, BackendChoice, BatchItem, CacheKey, QueryEngine, SearchResponse};
use crate::budget::SearchError;
use crate::fused::{run_fused_smj, FusedSpec};
use crate::plan::{BatchPlan, ExecStats, QueryPlan};
use crate::result::PhraseHit;
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::Feature;
use ipm_index::backend::ListBackend;
use ipm_index::block::BlockLists;
use ipm_storage::{CachedBlockImage, DecodeStats, DecodedBlockCache};

/// The decoded-block cache binding one batch execution threads down to
/// the block backend: the shared cache, the batch's pinned epoch, and the
/// batch-local hit/miss tally.
pub(super) struct DecodeBinding<'a> {
    pub(super) cache: &'a DecodedBlockCache,
    pub(super) epoch: u64,
    pub(super) stats: &'a DecodeStats,
}

/// One fused batch member's precomputed execution: the shared scan's
/// hits for this member plus its view of the work counters. Carried
/// down the spine as [`Source::Fused`] in place of a list lease — cache
/// probe/insert, completeness, tracing and response assembly stay on
/// the one shared path.
pub(super) struct FusedHits {
    pub(super) hits: Vec<PhraseHit>,
    pub(super) stats: ExecStats,
}

impl QueryEngine {
    /// Serves several parsed queries as one batch: a single live-state
    /// snapshot, the [`crate::plan::BatchPlan`] planner grouping items
    /// that share query words (within one execution-config class), a
    /// fused shared scan walking each group's distinct word lists **once**
    /// for all eligible members (`fused.rs`), and — for block-backed
    /// items — a shared decoded-block cache so each encoded block is
    /// bit-unpacked once per group instead of once per query. Results come
    /// back in input order.
    ///
    /// **Parity contract**: every item returns exactly what its own
    /// [`QueryEngine::execute_with_budget`] call would have returned
    /// against the same snapshot — bit-identical hits, the same per-item
    /// [`crate::budget::Completeness`], per-item budgets still honored
    /// via their sticky trips (budgeted members always take the per-item path; the shared
    /// scan fuses only fully unbudgeted members). The one observable
    /// difference: a fused member reports `io: None`, because the group's
    /// shared scan cannot be attributed to single items — the group's
    /// combined [`ipm_storage::IoStats`] still lands in
    /// [`QueryEngine::io_totals`], and the decoded-block tally books one logical read per member per
    /// block, exactly what the per-item decode-cached path would report.
    /// Grouping changes execution *order*, never hits.
    pub fn execute_batch(
        &self,
        items: Vec<BatchItem<'_>>,
    ) -> Vec<Result<SearchResponse, SearchError>> {
        let obs = &self.inner.obs;
        let live = self.live();
        let plan = BatchPlan::group(
            items.iter().map(|it| (&it.query, &it.options)),
            self.inner.default_shards,
        );
        obs.batch_items.add(items.len() as u64);
        obs.batch_groups.add(plan.groups.len() as u64);
        let batch_stats = DecodeStats::default();
        let mut items: Vec<Option<BatchItem<'_>>> = items.into_iter().map(Some).collect();
        let mut out: Vec<Option<Result<SearchResponse, SearchError>>> =
            (0..items.len()).map(|_| None).collect();
        for group in &plan.groups {
            obs.batch_group_size
                .observe_seconds(group.members.len() as f64);
            let decode = self.inner.decode_cache.as_ref().map(|cache| DecodeBinding {
                cache,
                epoch: live.epoch,
                stats: &batch_stats,
            });
            let mut fused = self.try_fuse_group(&live, &items, &group.members, decode.as_ref());
            for &i in &group.members {
                let item = items[i].take().expect("planner emits each item once");
                let source = match fused.remove(&i) {
                    Some(hits) => Source::Fused(hits),
                    None => Source::Local(decode.as_ref()),
                };
                out[i] = Some(self.serve(&live, item, source));
            }
        }
        obs.fused_saved.add(batch_stats.hits());
        obs.decode_hits.add(batch_stats.hits());
        obs.decode_misses.add(batch_stats.misses());
        out.into_iter()
            .map(|r| r.expect("every item executed"))
            .collect()
    }

    /// Attempts the shared-scan fused execution for one batch group.
    /// Eligible members — single-shard SMJ on the memory or block
    /// backend, no redundancy filter, no live delta, fully unlimited
    /// budget, not already result-cached — are served by **one**
    /// synchronized walk over the group's distinct word lists
    /// ([`crate::fused::run_fused_smj`]), each decoded block touched once
    /// for the whole group. Returns each fused member's hits keyed by
    /// item index; members absent from the map (and groups that don't
    /// qualify at all) fall back to the per-item path, which keeps budget
    /// truncation, NRA/TA/exact semantics, redundancy filtering and
    /// sharded fanout trivially identical to serial execution.
    fn try_fuse_group(
        &self,
        live: &LiveState,
        items: &[Option<BatchItem<'_>>],
        members: &[usize],
        decode: Option<&DecodeBinding<'_>>,
    ) -> FxHashMap<usize, FusedHits> {
        let mut fused = FxHashMap::default();
        if members.len() < 2 {
            return fused;
        }
        // The planner groups within one execution-config class, so the
        // group-wide gates can read any member's options.
        let first = items[members[0]].as_ref().expect("member not yet taken");
        let plan = QueryPlan::resolve(&first.options, self.inner.default_shards);
        if plan.algorithm != Algorithm::Smj
            || plan.shards != 1
            || !matches!(plan.backend, BackendChoice::Memory | BackendChoice::Block)
            || first.options.redundancy.is_some()
        {
            return fused;
        }
        // Delta corrections ride the per-item overlay seam.
        if first.options.use_delta && live.delta.as_ref().is_some_and(|d| !d.is_empty()) {
            return fused;
        }
        // Per-member gates: a budget's trip point depends on the item's
        // own traversal order, which a shared scan does not reproduce;
        // result-cached items skip list work entirely. `peek` leaves the
        // result cache's recency order and hit/miss counters untouched —
        // the real probe on the spine still books the hit.
        let eligible: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| {
                let it = items[i].as_ref().expect("member not yet taken");
                it.k > 0
                    && it.budget.is_unlimited()
                    && !self.inner.cache.as_ref().is_some_and(|c| {
                        c.peek(&CacheKey::new(
                            &it.query,
                            it.k,
                            &it.options,
                            plan.shards,
                            live.epoch,
                        ))
                    })
            })
            .collect();
        if eligible.len() < 2 {
            return fused;
        }
        // Distinct features in first-appearance order, plus each member's
        // cursor positions in its own query feature order.
        let mut index_of: FxHashMap<u64, usize> = FxHashMap::default();
        let mut features: Vec<Feature> = Vec::new();
        let mut specs: Vec<FusedSpec> = Vec::with_capacity(eligible.len());
        for &i in &eligible {
            let it = items[i].as_ref().expect("member not yet taken");
            let positions = it
                .query
                .features
                .iter()
                .map(|&f| {
                    *index_of.entry(f.encode()).or_insert_with(|| {
                        features.push(f);
                        features.len() - 1
                    })
                })
                .collect();
            specs.push(FusedSpec {
                positions,
                op: it.query.op,
                k: it.k,
            });
        }
        // Per-feature member multiplicity: the weight the decoded-block
        // tally books per physical lookup, so fused counters equal what
        // the per-item decode-cached walks would have reported.
        let mut multiplicity = vec![0u64; features.len()];
        for spec in &specs {
            let mut seen: Vec<usize> = Vec::new();
            for &ci in &spec.positions {
                if !seen.contains(&ci) {
                    seen.push(ci);
                    multiplicity[ci] += 1;
                }
            }
        }
        // The per-feature weighted views cannot come out of the list lease
        // without the lease knowing it serves a fused scan, so this path
        // keeps its own two-arm choice (memory or block; single shard and
        // no disk are gated above) and, like the lease, scans a cold view
        // of the block image and books its IO once (`book_io`).
        let results = match plan.backend {
            BackendChoice::Memory => {
                let backend = live.index.miner.memory_backend();
                run_fused_smj(
                    features.iter().map(|&f| backend.id_cursor(f)).collect(),
                    &specs,
                )
            }
            _ => {
                let block = self.image::<BlockLists>(&live.index).cold_view();
                // One shared cold scan for the whole group; its IO lands
                // in the engine totals, not in any member's response.
                let results = match decode {
                    Some(d) => {
                        let views: Vec<CachedBlockImage<'_>> = multiplicity
                            .iter()
                            .map(|&w| CachedBlockImage::new(&block, d.cache, d.epoch, d.stats, w))
                            .collect();
                        let cursors = views
                            .iter()
                            .zip(&features)
                            .map(|(v, &f)| v.id_cursor(f))
                            .collect();
                        run_fused_smj(cursors, &specs)
                    }
                    None => run_fused_smj(
                        features.iter().map(|&f| block.id_cursor(f)).collect(),
                        &specs,
                    ),
                };
                self.book_io(&block.io_stats());
                results
            }
        };
        for (&i, (hits, smj)) in eligible.iter().zip(results) {
            fused.insert(
                i,
                FusedHits {
                    hits,
                    stats: ExecStats {
                        sorted_accesses: smj.entries_read,
                        random_probes: 0,
                        rounds: smj.merge_steps,
                    },
                },
            );
        }
        fused
    }

    /// Cumulative decoded-block cache counters: `(hits, misses)`, both
    /// zero when the cache is disabled or no batch has run.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        self.inner
            .decode_cache
            .as_ref()
            .map(|c| (c.stats().hits(), c.stats().misses()))
            .unwrap_or((0, 0))
    }
}
