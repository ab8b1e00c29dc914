//! Structured per-query tracing: timed stages, per-shard execution
//! stats, and a ring-buffer slow-query log.
//!
//! The hot-path contract: a disabled [`Tracer`] is a `None` — every span
//! call is one branch and zero clock reads — and an enabled tracer makes
//! **one** allocation up front (the trace core) plus amortized stage
//! pushes. Shard threads record through a mutex that is only ever
//! contended by the handful of shards of one query.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The stage taxonomy of one query's lifetime.
///
/// `Parse`, `Plan`, `CacheProbe` and `Execute` are *top-level*: they tile
/// the query's wall time without overlapping. `SeedFloor`, `ShardExec`,
/// `Merge` and `TextResolve` nest inside `Execute` (shard stages run
/// concurrently, so their durations sum to more than `Execute` on a
/// fanned-out query — that is the parallelism, not an accounting bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Query-string parsing (recorded by whoever parses: the request
    /// builder or the server's prepare step).
    Parse,
    /// Planner resolution, head snapshot, cache-key build.
    Plan,
    /// Result-cache lookup.
    CacheProbe,
    /// The whole uncached execution (covers the nested stages below).
    Execute,
    /// TPUT-style threshold seeding before a sharded NRA fan-out.
    SeedFloor,
    /// One shard's algorithm run (carries the shard index).
    ShardExec,
    /// One shard's remote `shard_exec` RPC from the router (carries the
    /// shard index; covers pooling, hedging and failover for that shard).
    ShardRpc,
    /// Per-shard top-k merge, probe resolution and final ordering.
    Merge,
    /// Mapping result phrase ids to display text.
    TextResolve,
}

impl StageKind {
    /// The wire / display name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Parse => "parse",
            StageKind::Plan => "plan",
            StageKind::CacheProbe => "cache_probe",
            StageKind::Execute => "execute",
            StageKind::SeedFloor => "seed_floor",
            StageKind::ShardExec => "shard_exec",
            StageKind::ShardRpc => "shard_rpc",
            StageKind::Merge => "merge",
            StageKind::TextResolve => "text_resolve",
        }
    }

    /// Whether this stage tiles the query's wall time (see the type-level
    /// docs); nested stages overlap and must not be summed against it.
    pub fn is_top_level(self) -> bool {
        matches!(
            self,
            StageKind::Parse | StageKind::Plan | StageKind::CacheProbe | StageKind::Execute
        )
    }
}

/// One timed stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Which stage.
    pub kind: StageKind,
    /// Owning shard for [`StageKind::ShardExec`]; `None` elsewhere.
    pub shard: Option<usize>,
    /// Microseconds from trace start to stage start (nested stages carry
    /// offsets inside their parent; `Parse` is injected at offset 0).
    pub started_us: u64,
    /// Stage duration.
    pub duration: Duration,
}

/// Per-shard execution counters of one query (one record per shard per
/// over-fetch round).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index within the fan-out.
    pub shard: usize,
    /// Sorted (sequential list) entry accesses: NRA/TA score-list reads,
    /// SMJ id-list reads.
    pub sorted_accesses: u64,
    /// Random accesses: TA probes plus the merge's NRA score resolution
    /// probes into this shard.
    pub random_probes: u64,
    /// Algorithm loop progress: NRA prune rounds, SMJ merge steps
    /// (`0` for TA and the exact scorer, which have no round structure).
    pub rounds: u64,
    /// Simulated page fetches charged to this shard's backend during the
    /// round (seeding and probe resolution included; `0` on the memory
    /// backend, which performs no simulated IO).
    pub io_fetches: u64,
}

impl ShardStats {
    /// Bucket-wise addition (for folding rounds or shards together).
    pub fn accumulate(&mut self, other: &ShardStats) {
        self.sorted_accesses += other.sorted_accesses;
        self.random_probes += other.random_probes;
        self.rounds += other.rounds;
        self.io_fetches += other.io_fetches;
    }
}

/// The completed trace of one query — the EXPLAIN ANALYZE of this system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// The query as text.
    pub query: String,
    /// Algorithm wire name.
    pub algorithm: &'static str,
    /// Backend wire name.
    pub backend: &'static str,
    /// Requested result count.
    pub k: usize,
    /// Planner-resolved shard fanout.
    pub shards: usize,
    /// Index epoch the query executed against.
    pub epoch: u64,
    /// Whether the result came from the query cache.
    pub served_from_cache: bool,
    /// Completeness label (`exact`, `approximate:<reason>`,
    /// `truncated:<kind>`).
    pub completeness: String,
    /// Which budget dimension tripped, if any (`deadline`/`io`/`steps`).
    pub budget_trip: Option<&'static str>,
    /// Timed stages, ordered by start offset.
    pub stages: Vec<StageRecord>,
    /// Per-shard counters (one record per shard per over-fetch round).
    pub shard_stats: Vec<ShardStats>,
    /// Wall time of the traced request.
    pub total: Duration,
}

impl QueryTrace {
    /// Injects the parse stage at the front (parsing happens before the
    /// engine's trace exists — the parser measures itself and reports in).
    /// Extends `total` accordingly.
    pub fn record_parse(&mut self, d: Duration) {
        self.stages.insert(
            0,
            StageRecord {
                kind: StageKind::Parse,
                shard: None,
                started_us: 0,
                duration: d,
            },
        );
        self.total += d;
    }

    /// Summed duration of every record of `kind`.
    pub fn stage_total(&self, kind: StageKind) -> Duration {
        self.stages
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration)
            .sum()
    }

    /// Summed duration of the non-overlapping top-level stages — the
    /// accounted share of [`QueryTrace::total`].
    pub fn top_level_total(&self) -> Duration {
        self.stages
            .iter()
            .filter(|s| s.kind.is_top_level())
            .map(|s| s.duration)
            .sum()
    }

    /// Per-shard counters folded across rounds into one record per shard
    /// index, ascending.
    pub fn shard_totals(&self) -> Vec<ShardStats> {
        let mut by_shard: std::collections::BTreeMap<usize, ShardStats> = Default::default();
        for s in &self.shard_stats {
            let slot = by_shard.entry(s.shard).or_insert(ShardStats {
                shard: s.shard,
                ..Default::default()
            });
            slot.accumulate(s);
        }
        by_shard.into_values().collect()
    }
}

impl fmt::Display for QueryTrace {
    /// The slow-query-log dump format: one header line, then indented
    /// stage and shard breakdowns.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "query={:?} alg={} backend={} k={} shards={} epoch={} total={:?} completeness={}{}{}",
            self.query,
            self.algorithm,
            self.backend,
            self.k,
            self.shards,
            self.epoch,
            self.total,
            self.completeness,
            if self.served_from_cache {
                " (cached)"
            } else {
                ""
            },
            match self.budget_trip {
                Some(t) => format!(" budget_trip={t}"),
                None => String::new(),
            },
        )?;
        for s in &self.stages {
            write!(f, "  {:>12}", s.kind.name())?;
            if let Some(shard) = s.shard {
                write!(f, "[{shard}]")?;
            }
            writeln!(f, " +{}us {:?}", s.started_us, s.duration)?;
        }
        for s in &self.shard_totals() {
            writeln!(
                f,
                "  shard {}: sorted={} probes={} rounds={} io_fetches={}",
                s.shard, s.sorted_accesses, s.random_probes, s.rounds, s.io_fetches
            )?;
        }
        Ok(())
    }
}

/// Everything [`Tracer::finish`] needs beyond the collected records.
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// See [`QueryTrace::query`].
    pub query: String,
    /// See [`QueryTrace::algorithm`].
    pub algorithm: &'static str,
    /// See [`QueryTrace::backend`].
    pub backend: &'static str,
    /// See [`QueryTrace::k`].
    pub k: usize,
    /// See [`QueryTrace::shards`].
    pub shards: usize,
    /// See [`QueryTrace::epoch`].
    pub epoch: u64,
    /// See [`QueryTrace::served_from_cache`].
    pub served_from_cache: bool,
    /// See [`QueryTrace::completeness`].
    pub completeness: String,
    /// See [`QueryTrace::budget_trip`].
    pub budget_trip: Option<&'static str>,
}

#[derive(Debug)]
struct TraceCore {
    start: Instant,
    stages: Mutex<Vec<StageRecord>>,
    shards: Mutex<Vec<ShardStats>>,
}

/// A cheap, cloneable trace collector threaded down the execution path.
///
/// Disabled tracers no-op everywhere (one branch per call site); enabled
/// tracers share one [`Arc`]'d core across the shard threads of a query.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TraceCore>>,
}

impl Tracer {
    /// A no-op tracer for untraced queries.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A live tracer; the clock starts now.
    pub fn enabled() -> Self {
        Self {
            core: Some(Arc::new(TraceCore {
                start: Instant::now(),
                stages: Mutex::new(Vec::with_capacity(8)),
                shards: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans will actually record.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a timed stage; the returned guard records on drop.
    pub fn span(&self, kind: StageKind) -> Span {
        self.span_inner(kind, None)
    }

    /// Opens a timed per-shard stage.
    pub fn shard_span(&self, kind: StageKind, shard: usize) -> Span {
        self.span_inner(kind, Some(shard))
    }

    fn span_inner(&self, kind: StageKind, shard: Option<usize>) -> Span {
        Span {
            rec: self
                .core
                .as_ref()
                .map(|core| (core.clone(), kind, shard, Instant::now())),
        }
    }

    /// Records one shard's counters (called from shard fan-out code).
    pub fn record_shard(&self, stats: ShardStats) {
        if let Some(core) = &self.core {
            core.shards.lock().unwrap().push(stats);
        }
    }

    /// Adds `fetches` simulated page fetches to `shard`'s latest record:
    /// IO its backend performed after the record was taken (the hits'
    /// text lookups), so the shard rows keep summing to the response's IO.
    pub fn add_shard_io(&self, shard: usize, fetches: u64) {
        let Some(core) = self.core.as_ref().filter(|_| fetches > 0) else {
            return;
        };
        let mut rows = core.shards.lock().unwrap();
        match rows.iter_mut().rev().find(|s| s.shard == shard) {
            Some(row) => row.io_fetches += fetches,
            None => rows.push(ShardStats {
                shard,
                io_fetches: fetches,
                ..Default::default()
            }),
        }
    }

    /// Closes the trace: collects the recorded stages (sorted by start
    /// offset) and shard stats under `meta`. `None` for a disabled
    /// tracer.
    pub fn finish(self, meta: TraceMeta) -> Option<QueryTrace> {
        let core = self.core?;
        let total = core.start.elapsed();
        // Spans hold Arc clones; by finish time every span guard has
        // dropped, but lock-and-take stays correct even if one leaked.
        let mut stages = std::mem::take(&mut *core.stages.lock().unwrap());
        // Ties (a nested span opened in the same microsecond as its
        // parent) order the longer span first, so parents precede
        // children in the dump.
        stages.sort_by(|a, b| {
            a.started_us
                .cmp(&b.started_us)
                .then(b.duration.cmp(&a.duration))
        });
        let shard_stats = std::mem::take(&mut *core.shards.lock().unwrap());
        Some(QueryTrace {
            query: meta.query,
            algorithm: meta.algorithm,
            backend: meta.backend,
            k: meta.k,
            shards: meta.shards,
            epoch: meta.epoch,
            served_from_cache: meta.served_from_cache,
            completeness: meta.completeness,
            budget_trip: meta.budget_trip,
            stages,
            shard_stats,
            total,
        })
    }
}

/// A drop guard timing one stage. Obtain via [`Tracer::span`].
#[derive(Debug)]
#[must_use = "a span records its stage when dropped"]
pub struct Span {
    rec: Option<(Arc<TraceCore>, StageKind, Option<usize>, Instant)>,
}

impl Span {
    /// Ends the stage now (sugar over `drop`).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((core, kind, shard, started)) = self.rec.take() {
            let record = StageRecord {
                kind,
                shard,
                started_us: started.duration_since(core.start).as_micros() as u64,
                duration: started.elapsed(),
            };
            core.stages.lock().unwrap().push(record);
        }
    }
}

/// A consumer of completed traces.
pub trait TraceSink: Send + Sync {
    /// Called once per completed trace (the trace is shared — clone what
    /// you keep).
    fn record(&self, trace: &QueryTrace);
}

/// Slow-query log configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowQueryConfig {
    /// Queries at or above this wall time are kept.
    pub threshold: Duration,
    /// Ring capacity: the most recent `capacity` slow traces are kept.
    pub capacity: usize,
}

impl Default for SlowQueryConfig {
    /// 100 ms threshold, last 32 traces.
    fn default() -> Self {
        Self {
            threshold: Duration::from_millis(100),
            capacity: 32,
        }
    }
}

/// A bounded ring of the most recent slow queries' traces.
#[derive(Debug)]
pub struct SlowQueryLog {
    config: SlowQueryConfig,
    ring: Mutex<VecDeque<QueryTrace>>,
    recorded: AtomicU64,
}

impl SlowQueryLog {
    /// An empty log.
    pub fn new(config: SlowQueryConfig) -> Self {
        Self {
            config,
            ring: Mutex::new(VecDeque::with_capacity(config.capacity.min(64))),
            recorded: AtomicU64::new(0),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Duration {
        self.config.threshold
    }

    /// Offers a trace; keeps it when at or above the threshold. Returns
    /// whether it was kept.
    pub fn offer(&self, trace: &QueryTrace) -> bool {
        if trace.total < self.config.threshold {
            return false;
        }
        // lint-allow: relaxed-ordering — advisory total; the traces themselves travel under the ring mutex
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.config.capacity {
            ring.pop_front();
        }
        ring.push_back(trace.clone());
        true
    }

    /// Slow queries recorded since construction (evicted ones included).
    pub fn recorded(&self) -> u64 {
        // lint-allow: relaxed-ordering — advisory total read for exposition
        self.recorded.load(Ordering::Relaxed)
    }

    /// Currently retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }
}

impl TraceSink for SlowQueryLog {
    fn record(&self, trace: &QueryTrace) {
        self.offer(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            query: "a OR b".into(),
            algorithm: "nra",
            backend: "block",
            k: 5,
            shards: 2,
            epoch: 3,
            completeness: "exact".into(),
            ..Default::default()
        }
    }

    #[test]
    fn disabled_tracer_is_free_and_yields_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let span = t.span(StageKind::Plan);
        drop(span);
        t.record_shard(ShardStats::default());
        assert!(t.finish(meta()).is_none());
    }

    #[test]
    fn spans_record_in_start_order() {
        let t = Tracer::enabled();
        {
            let _plan = t.span(StageKind::Plan);
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let exec = t.span(StageKind::Execute);
            let shard = t.shard_span(StageKind::ShardExec, 1);
            std::thread::sleep(Duration::from_millis(1));
            drop(shard);
            exec.end();
        }
        t.record_shard(ShardStats {
            shard: 1,
            sorted_accesses: 10,
            ..Default::default()
        });
        let trace = t.finish(meta()).unwrap();
        let kinds: Vec<StageKind> = trace.stages.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![StageKind::Plan, StageKind::Execute, StageKind::ShardExec]
        );
        assert_eq!(trace.stages[2].shard, Some(1));
        assert!(trace.total >= trace.stage_total(StageKind::Plan));
        assert!(trace.top_level_total() <= trace.total);
        assert_eq!(trace.shard_stats.len(), 1);
        assert_eq!(trace.shard_totals()[0].sorted_accesses, 10);
    }

    #[test]
    fn record_parse_prepends_and_extends_total() {
        let t = Tracer::enabled();
        drop(t.span(StageKind::Plan));
        let mut trace = t.finish(meta()).unwrap();
        let before = trace.total;
        trace.record_parse(Duration::from_micros(250));
        assert_eq!(trace.stages[0].kind, StageKind::Parse);
        assert_eq!(trace.total, before + Duration::from_micros(250));
        assert!(trace.top_level_total() >= Duration::from_micros(250));
    }

    #[test]
    fn shard_totals_fold_rounds() {
        let t = Tracer::enabled();
        for round in 0..2 {
            for shard in 0..2 {
                t.record_shard(ShardStats {
                    shard,
                    sorted_accesses: 10 * (round + 1),
                    rounds: 1,
                    ..Default::default()
                });
            }
        }
        let trace = t.finish(meta()).unwrap();
        let totals = trace.shard_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].sorted_accesses, 30);
        assert_eq!(totals[1].rounds, 2);
    }

    #[test]
    fn slow_log_keeps_a_bounded_ring_of_slow_traces() {
        let log = SlowQueryLog::new(SlowQueryConfig {
            threshold: Duration::from_millis(10),
            capacity: 2,
        });
        let mut fast = QueryTrace {
            total: Duration::from_millis(1),
            ..Default::default()
        };
        assert!(!log.offer(&fast));
        fast.total = Duration::from_millis(10);
        for i in 0..3 {
            fast.query = format!("q{i}");
            assert!(log.offer(&fast));
        }
        assert_eq!(log.recorded(), 3);
        let kept = log.snapshot();
        assert_eq!(kept.len(), 2, "ring capacity bounds retention");
        assert_eq!(kept[0].query, "q1");
        assert_eq!(kept[1].query, "q2");
    }

    #[test]
    fn display_dumps_stages_and_shards() {
        let t = Tracer::enabled();
        drop(t.span(StageKind::Plan));
        t.record_shard(ShardStats {
            shard: 0,
            sorted_accesses: 4,
            io_fetches: 2,
            ..Default::default()
        });
        let trace = t.finish(meta()).unwrap();
        let text = format!("{trace}");
        assert!(text.contains("alg=nra"), "{text}");
        assert!(text.contains("plan"), "{text}");
        assert!(text.contains("shard 0: sorted=4"), "{text}");
    }
}
