//! The engine's metrics glue: the [`Registry`] handles the query path
//! bumps (`EngineObs`), the slow-query ring, and the accessors that read
//! them back.

use std::sync::Arc;

use super::{BackendChoice, QueryEngine};
use crate::budget::{BudgetKind, Completeness};
use crate::plan::ExecStats;
use ipm_obs::{Counter, Gauge, Histogram, Registry, SlowQueryConfig, SlowQueryLog};
use ipm_storage::IoStats;

/// Aggregated list-access counters of one backend across every query the
/// engine served (uncached executions only — cache hits touch no lists).
/// Served by [`QueryEngine::access_totals`] and mirrored as the
/// per-backend `ipm_list_*` metric series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTotals {
    /// Sorted (sequential list) entry accesses.
    pub sorted_accesses: u64,
    /// Random accesses (TA probes, NRA resolution probes).
    pub random_probes: u64,
    /// Always 0: no served path skips list entries. Kept because the
    /// benchmark's layer report still reads it.
    pub entries_skipped: u64,
    /// Algorithm loop progress (NRA prune rounds, SMJ merge steps).
    pub rounds: u64,
}

/// Per-backend registry handles (one set per [`BackendChoice`]).
#[derive(Debug)]
struct BackendCounters {
    sorted_accesses: Counter,
    random_probes: Counter,
    rounds: Counter,
}

/// The engine's observability surface: one [`Registry`] shared with
/// whoever embeds the engine (the server registers its own families on
/// it), pre-registered handles for everything the query path bumps, and
/// the optional slow-query ring.
#[derive(Debug)]
pub(super) struct EngineObs {
    registry: Arc<Registry>,
    /// `ipm_queries_served_total` — kept in lockstep with `Inner::served`
    /// so the latency histogram's `_count` equals the served total.
    pub(super) queries_served: Counter,
    pub(super) cache_hits: Counter,
    pub(super) cache_misses: Counter,
    pub(super) sharded_queries: Counter,
    pub(super) latency: Histogram,
    /// Batch-execution families: planner groups formed, items executed,
    /// group-size distribution, decodes saved by the shared-scan cache.
    pub(super) batch_groups: Counter,
    pub(super) batch_items: Counter,
    pub(super) batch_group_size: Histogram,
    pub(super) fused_saved: Counter,
    pub(super) decode_hits: Counter,
    pub(super) decode_misses: Counter,
    trip_deadline: Counter,
    trip_io: Counter,
    trip_steps: Counter,
    io_sequential: Counter,
    io_random: Counter,
    io_pool_hits: Counter,
    pub(super) docs_ingested: Counter,
    pub(super) docs_deleted: Counter,
    pub(super) compactions: Counter,
    pub(super) slow_queries: Counter,
    epoch: Gauge,
    delta_docs: Gauge,
    delta_corrections: Gauge,
    cached_layouts: Gauge,
    /// Indexed like [`BackendChoice`]: memory, disk, block.
    backends: [BackendCounters; 3],
    pub(super) slow: Option<Arc<SlowQueryLog>>,
}

impl EngineObs {
    pub(super) fn new(slow_query: Option<SlowQueryConfig>) -> Self {
        let registry = Arc::new(Registry::default());
        let r = &registry;
        let backend = |name: &'static str| BackendCounters {
            sorted_accesses: r.counter_with(
                "ipm_list_sorted_accesses_total",
                "Sorted list entry accesses across all served queries",
                &[("backend", name)],
            ),
            random_probes: r.counter_with(
                "ipm_list_random_probes_total",
                "Random list probes across all served queries",
                &[("backend", name)],
            ),
            rounds: r.counter_with(
                "ipm_algorithm_rounds_total",
                "Algorithm loop rounds (NRA prune rounds, SMJ merge steps)",
                &[("backend", name)],
            ),
        };
        Self {
            queries_served: r.counter(
                "ipm_queries_served_total",
                "Queries served, cache hits included",
            ),
            cache_hits: r.counter("ipm_cache_hits_total", "Result-cache hits"),
            cache_misses: r.counter("ipm_cache_misses_total", "Result-cache misses"),
            sharded_queries: r.counter(
                "ipm_queries_sharded_total",
                "Uncached executions that fanned out to more than one shard",
            ),
            latency: r.histogram(
                "ipm_query_latency_seconds",
                "End-to-end engine service time per query (cache hits included)",
            ),
            batch_groups: r.counter(
                "ipm_batch_groups_total",
                "Shared-scan groups formed by the batch planner",
            ),
            batch_items: r.counter(
                "ipm_batch_items_total",
                "Queries executed through the batch path",
            ),
            batch_group_size: r.histogram(
                "ipm_batch_group_size",
                "Members per shared-scan batch group",
            ),
            fused_saved: r.counter(
                "ipm_batch_fused_scans_saved_total",
                "Block decodes skipped because a batch member reused a cached decoded block",
            ),
            decode_hits: r.counter(
                "ipm_decode_cache_hits_total",
                "Decoded-block cache hits across all batch executions",
            ),
            decode_misses: r.counter(
                "ipm_decode_cache_misses_total",
                "Decoded-block cache misses across all batch executions",
            ),
            trip_deadline: r.counter_with(
                "ipm_budget_truncated_total",
                "Responses truncated by a tripped execution budget",
                &[("kind", "deadline")],
            ),
            trip_io: r.counter_with(
                "ipm_budget_truncated_total",
                "Responses truncated by a tripped execution budget",
                &[("kind", "io")],
            ),
            trip_steps: r.counter_with(
                "ipm_budget_truncated_total",
                "Responses truncated by a tripped execution budget",
                &[("kind", "steps")],
            ),
            io_sequential: r.counter_with(
                "ipm_io_fetches_total",
                "Simulated page fetches across all disk/block-backed queries",
                &[("kind", "sequential")],
            ),
            io_random: r.counter_with(
                "ipm_io_fetches_total",
                "Simulated page fetches across all disk/block-backed queries",
                &[("kind", "random")],
            ),
            io_pool_hits: r.counter(
                "ipm_io_pool_hits_total",
                "Buffer-pool page hits across all disk/block-backed queries",
            ),
            docs_ingested: r.counter(
                "ipm_docs_ingested_total",
                "Documents ingested since engine construction",
            ),
            docs_deleted: r.counter(
                "ipm_docs_deleted_total",
                "Documents deleted since engine construction",
            ),
            compactions: r.counter("ipm_compactions_total", "Compactions performed"),
            slow_queries: r.counter(
                "ipm_slow_queries_total",
                "Queries at or above the slow-query threshold",
            ),
            epoch: r.gauge("ipm_index_epoch", "Current index epoch"),
            delta_docs: r.gauge(
                "ipm_delta_docs",
                "Documents tracked by the attached delta (added + deleted)",
            ),
            delta_corrections: r.gauge(
                "ipm_delta_corrections",
                "P(q|p) corrections served by the live delta (dies with it at compaction)",
            ),
            cached_layouts: r.gauge(
                "ipm_cached_layouts",
                "Shard layouts cached by the serving generation",
            ),
            backends: [backend("memory"), backend("disk"), backend("block")],
            slow: slow_query.map(|c| Arc::new(SlowQueryLog::new(c))),
            registry,
        }
    }

    fn backend(&self, choice: BackendChoice) -> &BackendCounters {
        match choice {
            BackendChoice::Memory => &self.backends[0],
            BackendChoice::Disk => &self.backends[1],
            BackendChoice::Block => &self.backends[2],
        }
    }

    /// Books one budget-truncated response under its trip kind.
    pub(super) fn record_trip(&self, kind: BudgetKind) {
        match kind {
            BudgetKind::Deadline => self.trip_deadline.inc(),
            BudgetKind::Io => self.trip_io.inc(),
            BudgetKind::Steps => self.trip_steps.inc(),
        }
    }

    /// Feeds one uncached execution's work counters into the registry.
    pub(super) fn record_execution(&self, backend: BackendChoice, stats: &ExecStats) {
        let b = self.backend(backend);
        b.sorted_accesses.add(stats.sorted_accesses);
        b.random_probes.add(stats.random_probes);
        b.rounds.add(stats.rounds);
    }

    /// Feeds one leased run's simulated-IO bill into the registry.
    pub(super) fn record_io(&self, io: &IoStats) {
        self.io_sequential.add(io.sequential_fetches);
        self.io_random.add(io.random_fetches);
        self.io_pool_hits.add(io.cache_hits);
    }
}

/// The trace/display label of a completeness outcome (`exact`,
/// `approximate:<reason>`, `truncated:<kind>`).
pub(super) fn completeness_label(c: &Completeness) -> String {
    match c {
        Completeness::Exact => "exact".to_owned(),
        Completeness::Approximate { reason } => format!("approximate:{}", reason.name()),
        Completeness::Truncated { budget_hit } => format!("truncated:{}", budget_hit.name()),
    }
}

impl QueryEngine {
    /// The engine's metrics registry. Shared across clones; embedders
    /// (e.g. the server) register their own families on it so one
    /// [`QueryEngine::render_metrics`] call exposes everything.
    pub fn metrics_registry(&self) -> Arc<Registry> {
        self.inner.obs.registry.clone()
    }

    /// Renders the full metrics surface in Prometheus text exposition
    /// format, refreshing the point-in-time gauges (epoch, delta size,
    /// cached layouts) first.
    pub fn render_metrics(&self) -> String {
        let obs = &self.inner.obs;
        {
            let live = self.inner.live.read().unwrap();
            obs.epoch.set(live.epoch);
            obs.delta_docs.set(
                live.delta
                    .as_ref()
                    .map(|d| (d.num_added() + d.num_deleted()) as u64)
                    .unwrap_or(0),
            );
            obs.delta_corrections.set(
                live.delta
                    .as_ref()
                    .map(|d| d.corrections_applied())
                    .unwrap_or(0),
            );
            obs.cached_layouts
                .set(live.index.sharded.read().unwrap().len() as u64);
        }
        obs.registry.render()
    }

    /// Aggregated list-access counters for one backend across every query
    /// served (the per-backend `ipm_list_*` series, as numbers).
    pub fn access_totals(&self, backend: BackendChoice) -> AccessTotals {
        let b = self.inner.obs.backend(backend);
        AccessTotals {
            sorted_accesses: b.sorted_accesses.get(),
            random_probes: b.random_probes.get(),
            entries_skipped: 0,
            rounds: b.rounds.get(),
        }
    }

    /// The slow-query log, when [`super::EngineConfig::slow_query`] enabled one.
    pub fn slow_queries(&self) -> Option<Arc<SlowQueryLog>> {
        self.inner.obs.slow.clone()
    }

    /// The per-query latency histogram's snapshot (the
    /// `ipm_query_latency_seconds` family, as numbers — its count equals
    /// [`QueryEngine::queries_served`]).
    pub fn latency_snapshot(&self) -> ipm_obs::HistogramSnapshot {
        self.inner.obs.latency.snapshot()
    }
}
