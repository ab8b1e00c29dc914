//! Planner and sharded executor for the query engine.
//!
//! Query execution inside [`crate::engine::QueryEngine`] is split in two:
//!
//! * the **planner** ([`QueryPlan::resolve`]) turns a request's options
//!   and the engine's defaults into an explicit plan — algorithm, backend,
//!   and shard fanout;
//! * the **executor** (`run_query`) runs that plan over one backend per
//!   shard: each shard executes the chosen algorithm over its disjoint
//!   phrase-id partition (shard 0 on the calling thread, the rest on std
//!   scoped threads), and the per-shard top-k are merged under the
//!   result total order — score
//!   descending, ties by ascending phrase id ([`sort_hits`]) — so output
//!   is byte-identical regardless of shard count or thread interleaving.
//!
//! **Why the merge is exact.** Scores factorize per phrase (paper
//! Eq. 8/12): a phrase's aggregate depends only on its own list entries,
//! and a phrase-id-range shard holds *all* of them. Each shard's run is
//! therefore the unsharded algorithm on a complete sub-universe, and for
//! the exactly-scoring algorithms (SMJ, TA on full probe lists, exact) the
//! union of local top-k trivially contains the global top-k. NRA needs one
//! extra step: its ranking is by *upper bound*, and an early-stopped run
//! may return hits whose scores are still unresolved lower bounds that
//! depend on how deep that particular run read. On the exact path (full
//! lists, no delta) the executor resolves any such hit to its true
//! aggregate with `r` random probes into the owning shard before merging,
//! making the merged scores — and hence the merge order — independent of
//! per-shard stopping points. Approximate paths (run-time `nra_fraction`,
//! delta corrections) stay approximate, exactly as unsharded NRA does, and
//! their results may legitimately vary with the shard layout (each shard
//! truncates or bounds its own lists); the cache keys on the shard config
//! for precisely this reason.
//!
//! **Why NRA shards need a seeded floor.** A shard's local k-th score is
//! far below the global k-th, so a standalone per-shard NRA run must read
//! dramatically deeper (often to exhaustion, with a ballooning candidate
//! set) before its own defence line beats the unseen-phrase bound —
//! partitioning would then *cost* time instead of saving it. The executor
//! therefore first scans a small top prefix of every shard list and
//! aggregates partial sums (`seed_floor`, the first rounds of the
//! unsharded run, in the spirit of TPUT's phase 1): the k-th best partial
//! sum is a certified lower bound on the merged k-th score, and every
//! shard runs NRA with that bound pre-seeded
//! (`NraConfig::lower_floor`). Each shard then stops at roughly the
//! unsharded depth divided by the fanout — which is where the wall-clock
//! speedup comes from.
//!
//! **Tie envelope (inherited, not introduced).** When NRA stops early,
//! phrases whose score *exactly ties* the k-th score may be dropped in
//! favour of tie-mates seen earlier — for the unsharded run just as for
//! each shard. Within that envelope, sharded and unsharded results carry
//! identical score sequences but may swap ids inside an exact-tie group
//! at the boundary; whenever runs resolve fully (lists shorter than the
//! prune batch — every test corpus) results are byte-identical.

use std::sync::Arc;

use crate::budget::{ApproxReason, Budget, Completeness, ShardBudget};
use crate::delta::{DeltaIndex, DeltaOverlay};
use crate::engine::{Algorithm, BackendChoice, SearchOptions};
use crate::exact;
use crate::miner::PhraseMiner;
use crate::nra::{run_nra_with, NraConfig};
use crate::query::{Operator, Query};
use crate::result::{sort_hits, PhraseHit};
use crate::scoring::entry_score;
use crate::smj::run_smj_backend_counted;
use crate::ta::run_ta_backend_scan;
use ipm_index::backend::ListBackend;
use ipm_index::cursor::ScoredListCursor;
use ipm_obs::{ShardStats, StageKind, Tracer};

/// Hard ceiling on a request's shard fanout (a safety clamp: each shard
/// past the first costs one thread per fetch round; past the core count
/// extra shards only add overhead).
pub const MAX_SHARDS: usize = 64;

/// A resolved execution plan: every choice the executor needs, made
/// explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// Retrieval algorithm.
    pub algorithm: Algorithm,
    /// List backend.
    pub backend: BackendChoice,
    /// Shard fanout (`1` = unsharded execution on the caller's thread).
    pub shards: usize,
}

impl QueryPlan {
    /// Resolves a request against the engine's defaults: the per-request
    /// `shards` option wins, otherwise the engine's configured default
    /// fanout applies; the result is clamped to `[1, MAX_SHARDS]`.
    pub fn resolve(options: &SearchOptions, default_shards: usize) -> Self {
        Self {
            algorithm: options.algorithm,
            backend: options.backend,
            shards: options
                .shards
                .unwrap_or(default_shards)
                .clamp(1, MAX_SHARDS),
        }
    }
}

/// One shared-scan group the batch planner formed: member indices into
/// the batch, in input order. Members share an execution-config class
/// and are connected by shared query words, so running them back to back
/// maximizes decoded-block reuse in the batch executor's cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchGroup {
    /// Indices into the planned batch, ascending.
    pub members: Vec<usize>,
}

/// The batch planner's output: a partition of the batch into shared-scan
/// groups, ordered by each group's first member. Grouping is a pure
/// scheduling decision — every item still executes its own plan with its
/// own budget, so the partition can never change results, only how much
/// decode work the shared cache amortizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// The groups; their members cover `0..n` exactly once.
    pub groups: Vec<BatchGroup>,
}

/// The execution-config class two items must share before word overlap
/// may group them: items in different classes walk different physical
/// lists (backend, fanout layout, fraction, delta view), so fusing them
/// shares no decoded blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BatchClass {
    algorithm: Algorithm,
    backend: BackendChoice,
    shards: usize,
    fraction_bits: u64,
    redundancy_bits: Option<u64>,
    use_delta: bool,
}

impl BatchClass {
    fn of(options: &SearchOptions, default_shards: usize) -> Self {
        let plan = QueryPlan::resolve(options, default_shards);
        Self {
            algorithm: plan.algorithm,
            backend: plan.backend,
            shards: plan.shards,
            fraction_bits: options.nra_fraction.unwrap_or(1.0).to_bits(),
            redundancy_bits: options.redundancy.as_ref().map(|r| r.max_overlap.to_bits()),
            use_delta: options.use_delta,
        }
    }
}

impl BatchPlan {
    /// Groups a batch: union-find over items, joining two items when they
    /// resolve to the same `BatchClass` *and* share at least one query
    /// feature (sharing a word means sharing that word's list — the unit
    /// of decoded-block reuse). Groups come out ordered by first member,
    /// members ascending, so batch execution preserves input order within
    /// and across groups as far as grouping allows.
    pub fn group<'a, I>(items: I, default_shards: usize) -> Self
    where
        I: IntoIterator<Item = (&'a Query, &'a SearchOptions)>,
    {
        let items: Vec<_> = items.into_iter().collect();
        let mut parent: Vec<usize> = (0..items.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        let mut seen: ipm_corpus::hash::FxHashMap<(BatchClass, u64), usize> =
            ipm_corpus::hash::FxHashMap::default();
        for (i, (query, options)) in items.iter().enumerate() {
            let class = BatchClass::of(options, default_shards);
            for feature in &query.features {
                match seen.entry((class, feature.encode())) {
                    std::collections::hash_map::Entry::Occupied(first) => {
                        let a = find(&mut parent, *first.get());
                        let b = find(&mut parent, i);
                        if a != b {
                            parent[b.max(a)] = b.min(a);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(i);
                    }
                }
            }
        }
        let mut by_root: Vec<(usize, Vec<usize>)> = Vec::new();
        for i in 0..items.len() {
            let root = find(&mut parent, i);
            match by_root.iter_mut().find(|(r, _)| *r == root) {
                Some((_, members)) => members.push(i),
                None => by_root.push((root, vec![i])),
            }
        }
        by_root.sort_by_key(|(_, members)| members[0]);
        Self {
            groups: by_root
                .into_iter()
                .map(|(_, members)| BatchGroup { members })
                .collect(),
        }
    }
}

/// Everything a shard worker needs besides its backend (shared read-only
/// across the fan-out threads). Built once per request by the engine's
/// prologue; it owns the request's delta snapshot and trace collector.
pub(crate) struct ExecContext<'a> {
    /// The miner (NRA tuning, corpus index for the exact arm and delta).
    pub miner: &'a PhraseMiner,
    /// The request options (algorithm, fraction, redundancy, ...).
    pub options: &'a SearchOptions,
    /// Delta corrections to apply — on *every* algorithm's path, via a
    /// [`DeltaOverlay`] wrapped around each shard backend (already
    /// snapshot and non-empty).
    pub delta: Option<Arc<DeltaIndex>>,
    /// The request's execution budget, shared across every shard thread
    /// (unlimited for unbudgeted requests — checks then cost one branch).
    pub budget: &'a Budget,
    /// The planned shard fanout: each shard's gauge gets
    /// `ceil(step cap / fanout)` of the budget's step cap.
    pub fanout: usize,
    /// The request's trace collector (disabled for untraced queries —
    /// every span call is then a single branch).
    pub tracer: Tracer,
}

/// Aggregated work counters of one uncached execution, summed across
/// shards and over-fetch rounds. Fed into the engine's metrics registry
/// for **every** query; the per-shard breakdown additionally lands in the
/// [`ipm_obs::QueryTrace`] when the request is traced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Sorted (sequential list) entry accesses: NRA/TA score-list reads,
    /// SMJ id-list reads.
    pub sorted_accesses: u64,
    /// Random accesses: TA probes plus the merge's NRA score resolution
    /// probes.
    pub random_probes: u64,
    /// Algorithm loop progress: NRA prune rounds, SMJ merge steps (`0`
    /// for TA and the exact scorer).
    pub rounds: u64,
}

impl ExecStats {
    /// Bucket-wise addition.
    pub fn accumulate(&mut self, other: &ExecStats) {
        self.sorted_accesses += other.sorted_accesses;
        self.random_probes += other.random_probes;
        self.rounds += other.rounds;
    }
}

impl ExecContext<'_> {
    /// Whether this request runs NRA in its exact regime — the regime
    /// where per-shard results can (and must) be resolved to true scores
    /// so the merge is independent of per-shard stopping points.
    fn exact_nra_path(&self) -> bool {
        matches!(self.options.algorithm, Algorithm::Nra)
            && self.options.nra_fraction.unwrap_or(1.0) >= 1.0
            && self.delta.is_none()
    }
}

/// The completeness a run produces *before* any budget intervenes — the
/// paper's exact-vs-partial-list distinction made explicit per algorithm.
/// `delta_active` means corrections were requested *and* a non-empty
/// delta is attached; per §4.5.1 the corrections keep SMJ (full scan), TA
/// (threshold stop surrendered) and the exact scorer **exact**, while NRA
/// — whose pruning bounds were computed from the stale list order — stays
/// `Approximate { DeltaCorrections }`. The engine upgrades the result to
/// [`Completeness::Truncated`] when the budget trips.
///
/// "Exact" under a delta is relative to the paper's flush model: each
/// list algorithm enumerates candidates from the **stale** lists with
/// corrected values, so feature/phrase pairs (and phrases) that exist
/// *only* in ingested documents are deferred to the next compaction's
/// rebuild — for SMJ/TA via the overlay's absent-pairs-stay-absent rule,
/// for the exact scorer via the stale dictionary. Within that shared
/// envelope every label is exact; `compact()` closes the envelope.
pub(crate) fn base_completeness(options: &SearchOptions, delta_active: bool) -> Completeness {
    let approx = |reason| Completeness::Approximate { reason };
    match options.algorithm {
        Algorithm::Nra if options.nra_fraction.unwrap_or(1.0) < 1.0 => {
            approx(ApproxReason::PartialLists)
        }
        Algorithm::Nra if delta_active => approx(ApproxReason::DeltaCorrections),
        // SMJ, TA and the exact scorer stay exact, under corrections too.
        _ => Completeness::Exact,
    }
}

/// Entries of each shard list the threshold seed scans per feature (per
/// fetch depth `f` the prefix is `SEED_PREFIX_PER_K · f + SEED_PREFIX_BASE`
/// — the same growth shape as the redundancy over-fetch).
const SEED_PREFIX_PER_K: usize = 2;
const SEED_PREFIX_BASE: usize = 8;

/// Smallest per-shard NRA prune batch: dividing the configured batch by
/// the fanout must not degenerate into per-entry prune churn.
const MIN_SHARD_BATCH: usize = 64;

/// Per-shard NRA adjustments the fan-out hands each worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NraTuning {
    /// Seeded global defence line (`NraConfig::lower_floor`).
    pub(crate) lower_floor: f64,
    /// Fanout-scaled prune batch; `None` keeps the miner's configured
    /// batch size.
    pub(crate) batch_size: Option<usize>,
}

impl Default for NraTuning {
    fn default() -> Self {
        Self {
            lower_floor: f64::NEG_INFINITY,
            batch_size: None,
        }
    }
}

/// Computes a global lower bound ("floor") on the merged `fetch`-th best
/// score by scanning the top prefix of every shard list and aggregating
/// partial sums — effectively the first rounds of the *unsharded* NRA run
/// (TPUT-style phase 1). Per-shard NRA runs then defend this floor
/// instead of their own (weaker) local k-th bound, which restores — and
/// divides across shards — the unsharded stopping depth; without it every
/// shard must read dramatically deeper to defend a local top-k whose k-th
/// score is far below the global one.
///
/// Returned partial sums are true lower bounds only on the exact path:
/// OR sums are monotone in seen terms, and AND sums count only candidates
/// seen in *every* feature's prefix (a missing log term would otherwise
/// overestimate). Returns `-∞` when fewer than `fetch` bounded candidates
/// were found — the floor is then simply inactive. The seed phase runs
/// under the request budget too (one checkpoint per prefix entry): a
/// tightly IO-capped request must not blow its whole cap on seeding, and
/// an inactive (`-∞`) floor merely makes the shards stop on the tripped
/// budget instead.
pub(crate) fn seed_floor<B: ListBackend>(
    ctx: &ExecContext<'_>,
    backends: &[&B],
    query: &Query,
    fetch: usize,
) -> f64 {
    let prefix = fetch * SEED_PREFIX_PER_K + SEED_PREFIX_BASE;
    let full_mask: u32 = if query.features.len() >= 32 {
        u32::MAX
    } else {
        (1u32 << query.features.len()) - 1
    };
    // phrase -> (partial sum, features seen). Each phrase's entries live
    // in exactly one shard, so accumulating across shards never double
    // counts.
    let mut acc: ipm_corpus::hash::FxHashMap<ipm_corpus::PhraseId, (f64, u32)> =
        ipm_corpus::hash::FxHashMap::default();
    for b in backends {
        let io_now = || b.io_fetches();
        let gauge = ShardBudget::new(ctx.budget, &io_now, ctx.fanout);
        for (i, &f) in query.features.iter().enumerate() {
            let mut cur = b.score_cursor(f, 1.0);
            for _ in 0..prefix {
                if !gauge.check() {
                    return f64::NEG_INFINITY;
                }
                let Some(e) = cur.next_entry() else { break };
                let slot = acc.entry(e.phrase).or_insert((0.0, 0));
                let bit = 1u32 << i;
                if slot.1 & bit == 0 {
                    slot.0 += entry_score(query.op, e.prob);
                    slot.1 |= bit;
                }
            }
        }
    }
    let mut lowers: Vec<f64> = acc
        .into_values()
        .filter_map(|(sum, mask)| match query.op {
            Operator::Or => Some(sum),
            Operator::And => (mask == full_mask).then_some(sum),
        })
        .collect();
    if lowers.len() < fetch {
        return f64::NEG_INFINITY;
    }
    let idx = fetch - 1;
    lowers.select_nth_unstable_by(idx, |a, b| b.partial_cmp(a).unwrap());
    lowers[idx]
}

/// Why one shard of a fan-out produced no result. Local (in-process)
/// shards never fail — a remote shard executor maps replica exhaustion,
/// connection errors and missed RPC deadlines onto this type, and the
/// merge answers with the surviving shards plus an honest
/// [`Completeness::Approximate`] `shards_missing` label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Every replica of the shard failed or missed its deadline.
    Unavailable(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Unavailable(msg) => write!(f, "shard unavailable: {msg}"),
        }
    }
}

/// What one shard returns from one fetch depth: the seam's unit of
/// exchange, identical for a local shard and a remote `ipm serve` node
/// (wire-v5 `shard_exec`).
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// The shard's top-`fetch` hits. On NRA's exact path they are already
    /// resolved to true aggregates (the shard owns every list entry of
    /// its phrases, so per-shard resolution equals the old post-merge
    /// resolution entry for entry) — the merge is then a pure
    /// concatenate + total-order sort.
    pub hits: Vec<PhraseHit>,
    /// Raw candidate count *before* resolution dropped AND phantoms —
    /// what the redundancy loop's exhaustion test must see.
    pub raw_candidates: usize,
    /// The shard's work counters (resolution probes included).
    pub stats: ExecStats,
    /// Simulated IO fetches the shard's backend charged during this call.
    pub io_fetches: u64,
    /// The shard-side budget tripped (remote executions run under their
    /// own deadline budget; local shards share the coordinator's budget
    /// and report `false` here).
    pub tripped: bool,
}

/// The per-shard execution seam: one implementor per shard of a fan-out.
/// `run_query_on` is generic over it, so a local shard
/// (`LocalShard`) and a remote `ipm serve` node speaking the wire-v5
/// `shard_exec` verb are interchangeable — the scatter/gather, seeding
/// and merge logic is written exactly once.
pub trait ShardExecutor: Sync {
    /// The trace stage recorded around each call ([`StageKind::ShardExec`]
    /// for local threads, [`StageKind::ShardRpc`] for remote nodes — the
    /// per-shard RPC spans in a routed query's trace).
    fn stage(&self) -> StageKind {
        StageKind::ShardExec
    }

    /// Runs the planned algorithm for this shard at one fetch depth.
    /// `floor` is the TPUT-style seeded NRA defence line (`-∞` when
    /// inactive) and `batch_size` the fanout-scaled prune batch (`None`
    /// keeps the configured batch).
    ///
    /// # Errors
    /// [`ShardError`] when the shard cannot answer at all (remote
    /// executors only); the caller merges the surviving shards.
    fn run_shard(
        &self,
        query: &Query,
        fetch: usize,
        floor: f64,
        batch_size: Option<usize>,
    ) -> Result<ShardOutcome, ShardError>;
}

/// The in-process executor: one borrowed backend per shard.
pub(crate) struct LocalShard<'a, B: ListBackend> {
    ctx: &'a ExecContext<'a>,
    backend: &'a B,
    /// Pre-materialized `D'` for the exact arm, shared across shards.
    subset: Option<&'a ipm_index::postings::Postings>,
    /// IO watermark, seeded at executor construction (before any seed
    /// phase runs). Everything this shard's backend charged since the
    /// last round — the coordinator's seed-prefix reads over these lists
    /// included — is attributed to this shard's next outcome, so the
    /// per-shard trace rows still sum to the response's full IO bill.
    io_mark: std::sync::atomic::AtomicU64,
}

impl<B: ListBackend + Sync> ShardExecutor for LocalShard<'_, B> {
    fn run_shard(
        &self,
        query: &Query,
        fetch: usize,
        floor: f64,
        batch_size: Option<usize>,
    ) -> Result<ShardOutcome, ShardError> {
        let tuning = NraTuning {
            lower_floor: floor,
            batch_size,
        };
        let mut out = run_one_shard(self.ctx, self.backend, query, fetch, tuning, self.subset);
        let now = self.backend.io_fetches();
        // lint-allow: relaxed-ordering — per-plan IO attribution; the swap is atomic and read on the same worker
        let before = self.io_mark.swap(now, std::sync::atomic::Ordering::Relaxed);
        out.io_fetches = now.saturating_sub(before);
        Ok(out)
    }
}

/// Everything [`run_query_on`] reports besides the merged hits.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunReport {
    /// Shard indices that produced no result ([`ShardError`]), deduped
    /// and sorted.
    pub missing: Vec<usize>,
    /// Some shard's *own* budget tripped (remote deadline) even though
    /// the coordinator's budget may not have.
    pub remote_tripped: bool,
}

/// Executes one planned query over `backends` (one per shard; a single
/// entry runs inline on the caller's thread), composing the §5.6
/// redundancy filter's over-fetch loop with the fan-out: every round
/// fans the deeper fetch across all shards and filters the merged result.
pub(crate) fn run_query<B: ListBackend + Sync>(
    ctx: &ExecContext<'_>,
    backends: &[&B],
    query: &Query,
    k: usize,
) -> (Vec<PhraseHit>, ExecStats) {
    // The exact arm's subset algebra does not partition by phrase id;
    // materialize D' once per query (it depends on the query only, not
    // the fetch depth) and let every shard of every round count against
    // it.
    let subset = (backends.len() > 1 && matches!(ctx.options.algorithm, Algorithm::Exact))
        .then(|| exact::materialize_subset(ctx.miner.index(), query));
    let executors: Vec<LocalShard<'_, B>> = backends
        .iter()
        .map(|&backend| LocalShard {
            ctx,
            backend,
            subset: subset.as_ref(),
            io_mark: std::sync::atomic::AtomicU64::new(backend.io_fetches()),
        })
        .collect();
    let refs: Vec<&LocalShard<'_, B>> = executors.iter().collect();
    let seed = |fetch: usize| seed_floor(ctx, backends, query, fetch);
    let (hits, stats, _report) = run_query_on(ctx, &refs, &seed, query, k);
    (hits, stats)
}

/// The executor-generic form of [`run_query`]: the same over-fetch loop
/// and merge over any [`ShardExecutor`] slice. `seed` computes the
/// seeded NRA floor for one fetch depth from the *coordinator's* copy of
/// the lists (the router carries the same corpus build as its shard
/// tier, so its locally seeded floor equals the one the single-process
/// path computes).
pub(crate) fn run_query_on<E: ShardExecutor + ?Sized>(
    ctx: &ExecContext<'_>,
    executors: &[&E],
    seed: &dyn Fn(usize) -> f64,
    query: &Query,
    k: usize,
) -> (Vec<PhraseHit>, ExecStats, RunReport) {
    let mut report = RunReport::default();
    let Some(red) = ctx.options.redundancy.as_ref() else {
        let (mut hits, _, stats) = fan_out(ctx, executors, seed, query, k, &mut report);
        hits.truncate(k);
        return (hits, stats, report);
    };
    // First round 2k + 8, doubling; stops once the shards produce fewer
    // raw candidates than the fetch depth (candidate space exhausted).
    // Exhaustion is judged on the *pre-resolution* count: AND phantoms
    // that resolution drops were never real candidates, and mistaking
    // their removal for exhaustion would end the loop before deeper, real
    // candidates are read.
    let mut fetch = k * 2 + 8;
    let mut total = ExecStats::default();
    loop {
        let (mut hits, produced, stats) = fan_out(ctx, executors, seed, query, fetch, &mut report);
        total.accumulate(&stats);
        let exhausted = produced < fetch;
        crate::redundancy::filter_hits(&ctx.miner.index().dict, query, &mut hits, red);
        if hits.len() >= k || exhausted || ctx.budget.is_tripped() || !report.missing.is_empty() {
            // A tripped budget ends the over-fetch loop immediately:
            // deeper rounds would re-run against a sticky-failed budget
            // and return nothing new. A missing shard ends it too — the
            // result is already an honest partial, and deeper rounds
            // would just re-time-out against the dead shard.
            hits.truncate(k);
            return (hits, total, report);
        }
        fetch *= 2;
    }
}

/// Runs one fetch depth across every shard and merges: per-shard top-k
/// (shard 0 on the calling thread, where it reuses that thread's NRA
/// table, and shards 1..N on scoped threads beside it; each shard
/// resolves its own NRA bounds on the exact path), then the
/// deterministic total order and truncation. A fanout of N spawns N − 1
/// threads per round, none at fanout 1. Also
/// returns the number of raw candidates the shards produced before
/// resolution dropped phantoms and before truncation — capped at
/// `fetch`, this is what the redundancy loop's exhaustion test must see
/// — and the round's summed [`ExecStats`]. Failed shards are recorded in
/// `report.missing` and the merge proceeds over the survivors.
///
/// When the request is traced, each shard's counters (plus the simulated
/// fetches its backend charged, probe resolution included) land in the
/// trace as one [`ShardStats`] record per shard.
fn fan_out<E: ShardExecutor + ?Sized>(
    ctx: &ExecContext<'_>,
    executors: &[&E],
    seed: &dyn Fn(usize) -> f64,
    query: &Query,
    fetch: usize,
    report: &mut RunReport,
) -> (Vec<PhraseHit>, usize, ExecStats) {
    let traced = ctx.tracer.is_enabled();
    let single = executors.len() == 1;
    let (floor, batch_size) = if !single && ctx.exact_nra_path() {
        // Seed the global defence line so each shard stops at (roughly)
        // the unsharded depth divided by the fanout, instead of reading
        // to the depth its much weaker local k-th bound would demand.
        // Only the exact path can prove the floor is a true lower bound.
        // The per-shard prune batch shrinks with the fanout for the same
        // reason: a shard that could stop after depth/N entries must not
        // be forced to read a full unsharded batch first (batch size
        // never changes exact-path results — stops only move, and the
        // shards resolve scores).
        let seed_span = ctx.tracer.span(StageKind::SeedFloor);
        let floor = seed(fetch);
        seed_span.end();
        (
            floor,
            Some((ctx.miner.config().nra.batch_size / executors.len()).max(MIN_SHARD_BATCH)),
        )
    } else {
        (f64::NEG_INFINITY, None)
    };
    let run = |i: usize, e: &E| {
        let span = ctx.tracer.shard_span(e.stage(), i);
        let out = e.run_shard(query, fetch, floor, batch_size);
        span.end();
        out
    };
    // Shards 1..N go to scoped threads first; shard 0 then runs on the
    // calling thread alongside them.
    let per: Vec<Result<ShardOutcome, ShardError>> = std::thread::scope(|s| {
        let handles: Vec<_> = executors[1..]
            .iter()
            .enumerate()
            .map(|(i, &e)| s.spawn(move || run(i + 1, e)))
            .collect();
        let first = run(0, executors[0]);
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked")),
            )
            .collect()
    });
    let mut merged: Vec<PhraseHit> = Vec::new();
    let mut raw_total = 0usize;
    let mut total = ExecStats::default();
    for (i, out) in per.into_iter().enumerate() {
        match out {
            Ok(out) => {
                raw_total += out.raw_candidates;
                total.accumulate(&out.stats);
                report.remote_tripped |= out.tripped;
                if traced {
                    ctx.tracer.record_shard(ShardStats {
                        shard: i,
                        sorted_accesses: out.stats.sorted_accesses,
                        random_probes: out.stats.random_probes,
                        rounds: out.stats.rounds,
                        io_fetches: out.io_fetches,
                    });
                }
                merged.extend(out.hits);
            }
            Err(_) => {
                if !report.missing.contains(&i) {
                    report.missing.push(i);
                }
            }
        }
    }
    report.missing.sort_unstable();
    let produced = raw_total.min(fetch);
    let merge_span = ctx.tracer.span(StageKind::Merge);
    if (ctx.exact_nra_path() && !ctx.budget.is_tripped()) || !single {
        // The deterministic merge order (shards already resolved their
        // bounds on the exact path). A single-shard approximate NRA run
        // keeps the algorithm's native upper-bound ranking (legacy
        // semantics); every multi-shard merge uses the total order.
        sort_hits(&mut merged);
    }
    merge_span.end();
    merged.truncate(fetch);
    (merged, produced, total)
}

/// One shard's complete unit of work — algorithm dispatch plus, on NRA's
/// exact path, resolution of this shard's own hits to true aggregates.
/// This is exactly what the wire-v5 `shard_exec` verb executes on a
/// remote node, and what [`LocalShard`] runs in process; keeping
/// them one function is what makes the router's merge bit-identical to
/// the single-process sharded merge.
pub(crate) fn run_one_shard<B: ListBackend>(
    ctx: &ExecContext<'_>,
    backend: &B,
    query: &Query,
    fetch: usize,
    tuning: NraTuning,
    subset: Option<&ipm_index::postings::Postings>,
) -> ShardOutcome {
    let io_before = backend.io_fetches();
    // This shard's budget gauge: every cooperative check also reports the
    // backend's simulated-IO fetch delta into the shared cap (a delta
    // overlay delegates `io_fetches` to the wrapped backend) and counts
    // against this shard's step quota.
    let io_now = || backend.io_fetches();
    let gauge = ShardBudget::new(ctx.budget, &io_now, ctx.fanout);
    let (mut hits, mut stats) = run_shard_with(ctx, backend, query, fetch, tuning, subset, &gauge);
    let raw_candidates = hits.len();
    if ctx.exact_nra_path() && !gauge.stopped() {
        // Budget-stopped runs skip probe resolution: the probes would
        // charge further (random, 10×-priced) IO after the budget said
        // stop, and a truncated response keeps anytime bound semantics
        // anyway. A sibling's step trip does not stop this shard, so it
        // does not skip this shard's resolution either.
        stats.random_probes += resolve_shard_hits(backend, query, &mut hits);
    }
    ShardOutcome {
        raw_candidates,
        stats,
        io_fetches: backend.io_fetches().saturating_sub(io_before),
        tripped: false,
        hits,
    }
}

/// [`run_shard`] with an optionally pre-materialized `D'` for the exact
/// arm (shared across all shards of one fan-out).
///
/// When the request carries delta corrections, the backend is wrapped in
/// a [`DeltaOverlay`] here — *below* the algorithm dispatch — so NRA,
/// SMJ and TA consume corrected cursors/probes without knowing the delta
/// exists, and the exact arm switches to the delta-aware scorer. This is
/// the seam that makes `use_delta` uniform across all four algorithms,
/// both backends and every shard fanout.
fn run_shard_with<B: ListBackend>(
    ctx: &ExecContext<'_>,
    backend: &B,
    query: &Query,
    fetch: usize,
    tuning: NraTuning,
    subset: Option<&ipm_index::postings::Postings>,
    budget: &ShardBudget<'_>,
) -> (Vec<PhraseHit>, ExecStats) {
    match ctx.delta.as_deref() {
        Some(d) => {
            let overlay = DeltaOverlay::new(backend, d, ctx.miner.index());
            run_shard_backend(ctx, &overlay, query, fetch, tuning, subset, budget)
        }
        None => run_shard_backend(ctx, backend, query, fetch, tuning, subset, budget),
    }
}

/// The algorithm dispatch for one shard, over a possibly delta-corrected
/// backend. Returns the shard's hits plus its [`ExecStats`] — each
/// algorithm's native accounting mapped onto the shared counters (the
/// exact scorer walks postings, not lists, and reports zeros).
fn run_shard_backend<B: ListBackend>(
    ctx: &ExecContext<'_>,
    backend: &B,
    query: &Query,
    fetch: usize,
    tuning: NraTuning,
    subset: Option<&ipm_index::postings::Postings>,
    budget: &ShardBudget<'_>,
) -> (Vec<PhraseHit>, ExecStats) {
    let fraction = ctx.options.nra_fraction.unwrap_or(1.0);
    match ctx.options.algorithm {
        Algorithm::Nra => {
            let base = &ctx.miner.config().nra;
            let cfg = NraConfig {
                k: fetch,
                // Corrected probabilities ride the stale list order, so a
                // delta makes every bound heuristic — partial-list
                // semantics keep exhausted lists safely bounded.
                lists_are_partial: fraction < 1.0 || ctx.delta.is_some(),
                lower_floor: tuning.lower_floor,
                batch_size: tuning.batch_size.unwrap_or(base.batch_size),
            };
            let cursors: Vec<B::ScoreCursor<'_>> = query
                .features
                .iter()
                .map(|&f| backend.score_cursor(f, fraction))
                .collect();
            let out = run_nra_with(cursors, query.op, &cfg, budget);
            let stats = ExecStats {
                sorted_accesses: out.stats.entries_read.iter().map(|&n| n as u64).sum(),
                random_probes: 0,
                rounds: out.stats.prune_rounds as u64,
            };
            (out.hits, stats)
        }
        Algorithm::Smj => {
            let (hits, smj) = run_smj_backend_counted(backend, query, fetch, budget);
            let stats = ExecStats {
                sorted_accesses: smj.entries_read,
                random_probes: 0,
                rounds: smj.merge_steps,
            };
            (hits, stats)
        }
        // TA's threshold stop assumes sorted streams; corrected values are
        // not monotone, so under a delta the scan runs to exhaustion and
        // stays exact (see `run_ta_backend_scan`).
        Algorithm::Ta => {
            let out = run_ta_backend_scan(backend, query, fetch, budget, ctx.delta.is_none());
            let stats = ExecStats {
                sorted_accesses: out.stats.sorted_accesses.iter().map(|&n| n as u64).sum(),
                random_probes: out.stats.random_accesses as u64,
                rounds: 0,
            };
            (out.hits, stats)
        }
        Algorithm::Exact => {
            let materialized;
            let s = match subset {
                Some(s) => s,
                None => {
                    materialized = exact::materialize_subset(ctx.miner.index(), query);
                    &materialized
                }
            };
            let hits = exact::exact_top_k_with(
                ctx.miner.index(),
                query,
                s,
                ctx.delta.as_deref(),
                fetch,
                backend.phrase_range(),
                budget,
            );
            (hits, ExecStats::default())
        }
    }
}

/// Resolves every hit whose NRA bounds did not collapse to its true
/// aggregate score via random probes into the shard's own backend (full
/// probe lists: each probe returns the true `P(q|p)`; a shard owns every
/// list entry of its phrases, so probing locally equals probing the
/// owning shard of the old post-merge resolution). AND hits that turn
/// out absent from some list resolve to `-∞` and are dropped — they were
/// upper-bound phantoms, not real conjunctive matches. Returns the probe
/// count so the trace attributes resolution work to this shard.
fn resolve_shard_hits<B: ListBackend>(
    backend: &B,
    query: &Query,
    hits: &mut Vec<PhraseHit>,
) -> u64 {
    let mut probes = 0u64;
    hits.retain_mut(|h| {
        if h.is_resolved() {
            return true;
        }
        let mut score = 0.0;
        for &f in &query.features {
            probes += 1;
            let p = backend.probe(f, h.phrase);
            if p == 0.0 {
                if matches!(query.op, Operator::And) {
                    return false;
                }
            } else {
                score += entry_score(query.op, p);
            }
        }
        h.score = score;
        h.lower = score;
        h.upper = score;
        true
    });
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_applies_defaults_and_clamps() {
        let opts = SearchOptions::default();
        assert_eq!(QueryPlan::resolve(&opts, 1).shards, 1);
        assert_eq!(QueryPlan::resolve(&opts, 4).shards, 4);
        assert_eq!(QueryPlan::resolve(&opts, 0).shards, 1);
        assert_eq!(QueryPlan::resolve(&opts, 10_000).shards, MAX_SHARDS);
        let explicit = SearchOptions {
            shards: Some(3),
            ..Default::default()
        };
        assert_eq!(
            QueryPlan::resolve(&explicit, 8).shards,
            3,
            "per-request fanout overrides the engine default"
        );
        assert_eq!(QueryPlan::resolve(&explicit, 8).algorithm, Algorithm::Nra);
    }

    #[test]
    fn plan_carries_algorithm_and_backend() {
        let opts = SearchOptions {
            algorithm: Algorithm::Ta,
            backend: BackendChoice::Disk,
            shards: Some(200),
            ..Default::default()
        };
        let plan = QueryPlan::resolve(&opts, 1);
        assert_eq!(plan.algorithm, Algorithm::Ta);
        assert_eq!(plan.backend, BackendChoice::Disk);
        assert_eq!(plan.shards, MAX_SHARDS, "explicit fanout is clamped too");
    }

    fn word_query(words: &[u32]) -> Query {
        Query {
            features: words
                .iter()
                .map(|&w| ipm_corpus::Feature::Word(ipm_corpus::WordId(w)))
                .collect(),
            op: Operator::Or,
        }
    }

    #[test]
    fn batch_planner_groups_by_shared_words_within_a_class() {
        let opts = SearchOptions::default();
        // a: {1,2}  b: {2,3}  c: {9}  d: {3,9}  — a~b share 2, b~d share
        // 3, d~c share 9, so everything chains into one group.
        let qs = [
            word_query(&[1, 2]),
            word_query(&[2, 3]),
            word_query(&[9]),
            word_query(&[3, 9]),
        ];
        let plan = BatchPlan::group(qs.iter().map(|q| (q, &opts)), 1);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].members, vec![0, 1, 2, 3]);

        // Disjoint word sets stay separate, ordered by first member.
        let qs = [word_query(&[1]), word_query(&[7]), word_query(&[1, 4])];
        let plan = BatchPlan::group(qs.iter().map(|q| (q, &opts)), 1);
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.groups[0].members, vec![0, 2]);
        assert_eq!(plan.groups[1].members, vec![1]);
    }

    #[test]
    fn batch_planner_separates_config_classes_and_covers_all_items() {
        let mem = SearchOptions::default();
        let block = SearchOptions {
            backend: BackendChoice::Block,
            ..Default::default()
        };
        // Same shared word, different backends: different physical lists,
        // so no fusion across the class boundary.
        let qs = [word_query(&[5]), word_query(&[5])];
        let opts = [&mem, &block];
        let plan = BatchPlan::group(qs.iter().zip(opts), 1);
        assert_eq!(plan.groups.len(), 2);

        // Resolved fanout matters, not the raw option: `None` under
        // default 4 and an explicit `Some(4)` are the same class.
        let four = SearchOptions {
            shards: Some(4),
            ..Default::default()
        };
        let plan = BatchPlan::group([(&qs[0], &mem), (&qs[1], &four)], 4);
        assert_eq!(plan.groups.len(), 1);

        // Every index appears exactly once no matter the shape.
        let qs: Vec<Query> = (0..13).map(|i| word_query(&[i % 5, 50 + i])).collect();
        let plan = BatchPlan::group(qs.iter().map(|q| (q, &mem)), 1);
        let mut all: Vec<usize> = plan.groups.iter().flat_map(|g| g.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..13).collect::<Vec<_>>());
    }
}
