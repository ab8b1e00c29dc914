//! The scatter-gather router (protocol v5): a query front-end over a
//! tier of `ipm serve` shard servers.
//!
//! The router owns the *coordinator half* of distributed execution and
//! delegates the per-shard half to remote nodes over the wire-v5
//! `shard_exec` verb. The split falls exactly on the engine's
//! [`ShardExecutor`] seam: [`ipm_core::QueryEngine::execute_routed`]
//! runs the same seeded-floor, over-fetch and total-order merge logic as
//! the in-process scoped-thread fan-out, with each shard's work done by
//! a `RemoteShard` RPC client instead of a local thread. Because both
//! tiers derive the same deterministic phrase-id partition from the same
//! corpus build and both run the identical per-shard unit, routed
//! results are bit-identical to single-process sharded execution in the
//! fully-resolved regime (scores and the seeded NRA floor travel as
//! IEEE-754 bit patterns — see [`wire::f64_to_bits_str`]).
//!
//! Tail-latency machinery, in order of engagement:
//!
//! 1. **Pooled connections**: each replica keeps a small stack of idle
//!    TCP connections; an RPC takes one (or dials), frames the request
//!    as one pre-assembled write, and returns the connection on success.
//!    A stale pooled connection (shard restarted, idle close) surfaces
//!    as EOF and gets exactly one retry on a fresh dial.
//! 2. **Hedged requests**: when a shard has a second replica and the
//!    primary has not answered within an adaptive delay — the shard's
//!    own live RPC p95, clamped, with a fixed initial value until enough
//!    samples exist — the router fires the same request at the next
//!    replica and takes whichever answers first. The loser's work is
//!    counted (`ipm_router_wasted_rpcs_total`), not awaited.
//! 3. **Failover**: a replica that *fails* (refused, reset, protocol
//!    error) is skipped immediately — no hedge delay — and the next
//!    replica is tried. When every replica of a shard fails or the
//!    deadline expires first, the shard is reported missing and the
//!    gathered response degrades to `Completeness::Approximate` with
//!    `shards_missing` instead of erroring: exact over the surviving
//!    partitions, honest about the absent ones.
//!
//! Every RPC attempt runs on a detached thread with its reads bounded by
//! the query's remaining deadline, so the router itself never blocks
//! past the deadline — abandoned attempts drain in the background and
//! self-report as wasted work.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ipm_core::{
    ApproxReason, Completeness, Query, QueryEngine, SearchError, SearchOptions, ShardError,
    ShardExecutor, ShardOutcome, StageKind, MAX_SHARDS,
};
use ipm_obs::{Counter, Histogram, HistogramSnapshot};
use serde_json::Value;

use crate::front::{Front, Running, Tier, MAX_LINE_BYTES};
use crate::wire::{self, ErrorKind, SearchRequest, ShardExecRequest, WireRequest};

/// Idle connections kept per replica; extras are dropped on return.
const POOL_CAP: usize = 8;

/// RPC samples a shard must accumulate before its own p95 drives the
/// hedge delay; below this the configured initial delay is used.
const HEDGE_WARMUP: u64 = 16;

/// Hedging policy for one router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Master switch; `false` leaves only failover (on hard errors).
    pub enabled: bool,
    /// Delay before hedging while a shard has fewer than
    /// `HEDGE_WARMUP` latency samples.
    pub initial_delay: Duration,
    /// Lower clamp on the adaptive (p95-derived) delay — hedging every
    /// request is just doubled load wearing a latency costume.
    pub min_delay: Duration,
    /// Upper clamp on the adaptive delay.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    /// Enabled; 25 ms until warmed up, then p95 clamped to [1 ms, 250 ms].
    fn default() -> Self {
        Self {
            enabled: true,
            initial_delay: Duration::from_millis(25),
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(250),
        }
    }
}

/// Router construction options.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// One entry per shard, each a non-empty replica address list.
    /// Replica 0 is the primary; the rest serve hedges and failover.
    /// The scatter fanout is `shards.len()`.
    pub shards: Vec<Vec<String>>,
    /// Hedging policy.
    pub hedge: HedgeConfig,
    /// Hard per-RPC bound applied when the query carries no deadline
    /// (and as a ceiling when it does): no shard wait outlives it.
    pub rpc_timeout: Duration,
}

impl Default for RouterConfig {
    /// Loopback ephemeral port, no shards configured, default hedging,
    /// 5 s RPC ceiling.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            hedge: HedgeConfig::default(),
            rpc_timeout: Duration::from_secs(5),
        }
    }
}

/// A snapshot of the router counters (the router's `stats` payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Search requests received.
    pub requests: u64,
    /// Shard RPCs initiated (primaries, hedges and failovers alike).
    pub shard_rpcs: u64,
    /// Hedge attempts fired after the adaptive delay.
    pub hedges_fired: u64,
    /// Hedge attempts that answered first.
    pub hedges_won: u64,
    /// RPC attempts whose answer arrived after the shard's winner was
    /// already chosen — the measured cost of hedging.
    pub wasted_rpcs: u64,
    /// RPC attempts that failed outright (refused, reset, protocol or
    /// shard-side error).
    pub shard_failures: u64,
    /// Responses degraded to `Approximate { shards_missing }`.
    pub partial_results: u64,
    /// Configured scatter fanout.
    pub fanout: usize,
}

/// Router metric instruments, registered on the engine's shared
/// [`ipm_obs::Registry`] so one `metrics` scrape covers the coordinator
/// tier too (the connection series live in [`Front`]).
struct RouterObs {
    requests: Counter,
    shard_rpcs: Counter,
    hedges_fired: Counter,
    hedges_won: Counter,
    wasted_rpcs: Counter,
    shard_failures: Counter,
    partial_results: Counter,
    rpc_latency: Histogram,
}

impl RouterObs {
    fn new(engine: &QueryEngine) -> Self {
        let r = engine.metrics_registry();
        Self {
            requests: r.counter(
                "ipm_router_requests_total",
                "Search requests received by the router.",
            ),
            shard_rpcs: r.counter(
                "ipm_router_shard_rpcs_total",
                "Shard RPC attempts initiated (primaries, hedges, failovers).",
            ),
            hedges_fired: r.counter(
                "ipm_router_hedges_fired_total",
                "Hedge attempts fired after the adaptive delay.",
            ),
            hedges_won: r.counter(
                "ipm_router_hedges_won_total",
                "Hedge attempts that answered before the primary.",
            ),
            wasted_rpcs: r.counter(
                "ipm_router_wasted_rpcs_total",
                "RPC attempts completed after their shard's winner was chosen.",
            ),
            shard_failures: r.counter(
                "ipm_router_shard_failures_total",
                "RPC attempts that failed (connect, transport or shard error).",
            ),
            partial_results: r.counter(
                "ipm_router_partial_results_total",
                "Responses degraded to approximate because shards were missing.",
            ),
            rpc_latency: r.histogram(
                "ipm_router_rpc_latency_seconds",
                "Winning shard RPC latency per scatter leg (hedge benefit included).",
            ),
        }
    }
}

/// One replica of one shard: its address and a small idle-connection
/// pool. Pool order is LIFO — the most recently used connection is the
/// least likely to have idled out.
struct Replica {
    addr: String,
    pool: Mutex<Vec<TcpStream>>,
}

impl Replica {
    fn new(addr: String) -> Self {
        Self {
            addr,
            pool: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Option<TcpStream> {
        self.pool.lock().unwrap().pop()
    }

    fn put(&self, stream: TcpStream) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_CAP {
            pool.push(stream);
        }
    }
}

/// One shard's replica set plus its live RPC latency distribution (an
/// unregistered histogram — the adaptive hedge delay's input; the
/// registered aggregate is [`RouterObs::rpc_latency`]).
struct ShardEndpoint {
    replicas: Vec<Replica>,
    rpc_latency: Histogram,
}

struct RouterShared {
    engine: QueryEngine,
    endpoints: Vec<ShardEndpoint>,
    hedge: HedgeConfig,
    rpc_timeout: Duration,
    obs: RouterObs,
    front: Front,
}

impl Tier for RouterShared {
    const NAME: &'static str = "router";

    fn front(&self) -> &Front {
        &self.front
    }

    fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Requests run inline on the connection thread — the scatter's
    /// per-shard threads provide the concurrency, so a router worker pool
    /// would only add a queueing stage in front of one.
    fn serve(shared: &Arc<Self>, req: WireRequest) -> String {
        match req {
            WireRequest::Stats => stats_line(shared),
            WireRequest::Search(req) => route_search(shared, &req),
            _ => wire::error_line(
                ErrorKind::Query,
                "verb not supported by the router: batch, lifecycle and shard_exec \
                 requests go to the shard servers directly",
            ),
        }
    }
}

/// A running router. Dropping the handle shuts it down.
pub struct RouterHandle(Running<RouterShared>);

/// Namespace for spawning [`RouterHandle`]s.
pub struct Router;

impl Router {
    /// Binds, spawns the accept loop, and returns immediately. The
    /// engine must be built from the *same corpus build* as the shard
    /// tier: the router parses queries, computes the NRA seed floor and
    /// derives shard phrase ranges from its own copy, and a shard whose
    /// derived range disagrees rejects the call loudly.
    ///
    /// # Errors
    /// The bind failure, or `InvalidInput` when `config.shards` is empty,
    /// holds more than [`MAX_SHARDS`] shards (a node executes at most that
    /// fanout, so a shard past it would be answered with another shard's
    /// hits) or any shard has no replicas.
    pub fn spawn(engine: QueryEngine, config: RouterConfig) -> std::io::Result<RouterHandle> {
        if config.shards.is_empty() || config.shards.iter().any(Vec::is_empty) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one shard, each with at least one replica",
            ));
        }
        if config.shards.len() > MAX_SHARDS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("router supports at most {MAX_SHARDS} shards"),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let front = Front::new(&engine, RouterShared::NAME, addr);
        let obs = RouterObs::new(&engine);
        let endpoints = config
            .shards
            .into_iter()
            .map(|replicas| ShardEndpoint {
                replicas: replicas.into_iter().map(Replica::new).collect(),
                rpc_latency: Histogram::new(),
            })
            .collect();
        let shared = Arc::new(RouterShared {
            engine,
            endpoints,
            hedge: config.hedge,
            rpc_timeout: config.rpc_timeout,
            obs,
            front,
        });
        Ok(RouterHandle(Running::start(shared, listener, Vec::new())))
    }
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.shared.front.addr()
    }

    /// The router's coordinator engine.
    pub fn engine(&self) -> &QueryEngine {
        &self.0.shared.engine
    }

    /// Counter snapshot (same numbers the `stats` verb reports).
    pub fn stats(&self) -> RouterStats {
        snapshot(&self.0.shared)
    }

    /// Begins (idempotently) and completes a graceful shutdown.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }

    /// Blocks until a shutdown is requested (e.g. by the protocol verb),
    /// then completes it.
    pub fn join(self) {
        self.0.join();
    }
}

fn snapshot(shared: &RouterShared) -> RouterStats {
    RouterStats {
        requests: shared.obs.requests.get(),
        shard_rpcs: shared.obs.shard_rpcs.get(),
        hedges_fired: shared.obs.hedges_fired.get(),
        hedges_won: shared.obs.hedges_won.get(),
        wasted_rpcs: shared.obs.wasted_rpcs.get(),
        shard_failures: shared.obs.shard_failures.get(),
        partial_results: shared.obs.partial_results.get(),
        fanout: shared.endpoints.len(),
    }
}

fn stats_line(shared: &RouterShared) -> String {
    let s = snapshot(shared);
    let mut m = std::collections::BTreeMap::new();
    m.insert("requests".to_owned(), Value::from(s.requests));
    m.insert("shard_rpcs".to_owned(), Value::from(s.shard_rpcs));
    m.insert("hedges_fired".to_owned(), Value::from(s.hedges_fired));
    m.insert("hedges_won".to_owned(), Value::from(s.hedges_won));
    m.insert("wasted_rpcs".to_owned(), Value::from(s.wasted_rpcs));
    m.insert("shard_failures".to_owned(), Value::from(s.shard_failures));
    m.insert("partial_results".to_owned(), Value::from(s.partial_results));
    m.insert("fanout".to_owned(), Value::from(s.fanout as u64));
    let shards: Vec<Value> = shared
        .endpoints
        .iter()
        .map(|e| {
            let mut sm = std::collections::BTreeMap::new();
            sm.insert(
                "replicas".to_owned(),
                Value::Array(
                    e.replicas
                        .iter()
                        .map(|r| Value::from(r.addr.clone()))
                        .collect(),
                ),
            );
            sm.insert("rpc_count".to_owned(), Value::from(e.rpc_latency.count()));
            Value::Object(sm)
        })
        .collect();
    m.insert("shards".to_owned(), Value::Array(shards));
    wire::ok_line(vec![("router", Value::Object(m))])
}

/// One scatter leg: the [`ShardExecutor`] the gather loop drives for a
/// remote shard. Holds everything a retry round needs to rebuild the
/// wire request — the coordinator re-anchors the remaining deadline at
/// every call, so a second over-fetch round ships a smaller budget.
struct RemoteShard {
    shared: Arc<RouterShared>,
    shard: usize,
    query: String,
    options: SearchOptions,
    fanout: usize,
    range: Option<(u32, u32)>,
    deadline: Option<Instant>,
}

impl ShardExecutor for RemoteShard {
    fn stage(&self) -> StageKind {
        StageKind::ShardRpc
    }

    fn run_shard(
        &self,
        _query: &Query,
        fetch: usize,
        floor: f64,
        batch_size: Option<usize>,
    ) -> Result<ShardOutcome, ShardError> {
        let mut req = ShardExecRequest::new(self.query.clone(), self.fanout, self.shard, fetch);
        req.floor = floor;
        req.batch = batch_size;
        req.algorithm = self.options.algorithm;
        req.backend = self.options.backend;
        req.nra_fraction = self.options.nra_fraction;
        req.use_delta = self.options.use_delta;
        req.range = self.range;
        req.deadline_ms = self
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64);
        rpc(&self.shared, self.shard, &req.to_line(), self.deadline)
    }
}

/// Serves a `search` verb by scattering it across the shard tier.
fn route_search(shared: &Arc<RouterShared>, req: &SearchRequest) -> String {
    let arrived = Instant::now();
    shared.obs.requests.inc();
    if req.io_budget.is_some() {
        return wire::error_line(
            ErrorKind::Query,
            "io_budget is a per-node concept and cannot be routed; \
             send it to a shard server directly",
        );
    }
    let query = match shared.engine.miner().parse_query_str(&req.query) {
        Ok(q) => q,
        Err(e) => return wire::error_line(ErrorKind::Query, &e.to_string()),
    };
    let mut options = req.options();
    // The scatter fanout is the router's configured shard set; a
    // client-requested fanout cannot re-partition a fixed tier.
    options.shards = None;
    let budget = wire::budget(arrived, req.deadline_ms, None);
    let deadline = budget.deadline();
    let fanout = shared.endpoints.len();
    let legs: Vec<RemoteShard> = (0..fanout)
        .map(|shard| RemoteShard {
            shared: shared.clone(),
            shard,
            query: req.query.clone(),
            options: options.clone(),
            fanout,
            range: shared.engine.shard_phrase_range(fanout, shard),
            deadline,
        })
        .collect();
    let refs: Vec<&dyn ShardExecutor> = legs.iter().map(|leg| leg as &dyn ShardExecutor).collect();
    match shared
        .engine
        .execute_routed(query, req.k, &options, &budget, &refs)
    {
        Ok(resp) => {
            if matches!(
                resp.completeness,
                Completeness::Approximate {
                    reason: ApproxReason::ShardsMissing { .. }
                }
            ) {
                shared.obs.partial_results.inc();
            }
            let mut router = std::collections::BTreeMap::new();
            router.insert("fanout".to_owned(), Value::from(fanout as u64));
            router.insert(
                "wait_us".to_owned(),
                Value::from(arrived.elapsed().as_micros() as u64),
            );
            wire::ok_line(vec![
                (
                    "result",
                    wire::response_value(&resp, shared.engine.miner().corpus()),
                ),
                ("router", Value::Object(router)),
            ])
        }
        Err(SearchError::DeadlineExceeded) => wire::error_line(
            ErrorKind::DeadlineExceeded,
            "deadline exceeded before the scatter could start",
        ),
        Err(SearchError::Cancelled) => wire::error_line(ErrorKind::Cancelled, "request cancelled"),
        Err(SearchError::Parse(e)) => wire::error_line(ErrorKind::Query, &e.to_string()),
    }
}

/// What one RPC attempt reports back: the decoded outcome or a reason.
type AttemptResult = Result<ShardOutcome, String>;

/// The adaptive hedge delay for one shard: its live RPC p95 clamped to
/// the configured band, or the fixed initial delay until the histogram
/// has [`HEDGE_WARMUP`] samples.
fn hedge_delay(shared: &RouterShared, shard: usize) -> Duration {
    delay_from(
        &shared.endpoints[shard].rpc_latency.snapshot(),
        &shared.hedge,
    )
}

/// Pure core of [`hedge_delay`]: the delay a shard with this latency
/// snapshot gets under this policy. Split from the router state so the
/// feedback rules stay unit-testable without a live cluster.
fn delay_from(snap: &HistogramSnapshot, hedge: &HedgeConfig) -> Duration {
    if snap.count() < HEDGE_WARMUP {
        return hedge.initial_delay;
    }
    let p95 = Duration::from_secs_f64(snap.quantile(0.95).max(0.0));
    p95.clamp(hedge.min_delay, hedge.max_delay)
}

/// Feeds a winning RPC's latency back into its shard's histogram —
/// unless the win was hedged. A hedged win's latency is
/// `hedge delay + fast replica`, so feeding it back would ratchet the
/// p95 (and with it the delay) up one histogram bucket per round until
/// hedging disarmed itself against a persistently slow primary. With
/// every RPC to a slow shard hedged, the histogram stays in warmup and
/// the configured initial delay keeps ruling — exactly the stable
/// outcome we want: a hedged win must be a no-op on the adaptive delay.
fn record_winning_leg(shard_latency: &Histogram, hedged: bool, elapsed: Duration) {
    if !hedged {
        shard_latency.observe(elapsed);
    }
}

/// One shard RPC with pooling, hedging and failover. Returns the first
/// successful outcome, or [`ShardError::Unavailable`] when every replica
/// failed or the deadline/timeout cut the wait short. Never blocks past
/// `min(deadline, now + rpc_timeout)`; abandoned attempts finish on
/// their detached threads and self-count as wasted work.
fn rpc(
    shared: &Arc<RouterShared>,
    shard: usize,
    line: &str,
    deadline: Option<Instant>,
) -> Result<ShardOutcome, ShardError> {
    let started = Instant::now();
    let hard_cutoff = started + shared.rpc_timeout;
    let cutoff = deadline.map_or(hard_cutoff, |d| d.min(hard_cutoff));
    let endpoint = &shared.endpoints[shard];
    let line: Arc<str> = Arc::from(line);
    let (tx, rx) = mpsc::channel::<(usize, AttemptResult)>();

    let spawn_attempt = |replica_idx: usize, attempt_idx: usize| {
        shared.obs.shard_rpcs.inc();
        let shared = shared.clone();
        let line = line.clone();
        let thread_tx = tx.clone();
        if let Err(e) = std::thread::Builder::new()
            .name(format!("ipm-rpc-{shard}-{replica_idx}"))
            .spawn(move || {
                let result = attempt(&shared, shard, replica_idx, &line, cutoff);
                if thread_tx.send((attempt_idx, result)).is_err() {
                    // The winner was chosen (or the wait abandoned)
                    // before this attempt finished: its work is the
                    // price of the hedge.
                    shared.obs.wasted_rpcs.inc();
                }
            })
        {
            // A spawn failure is a failed attempt like any other:
            // report it through the channel so the wait loop runs its
            // normal failover instead of the router thread panicking.
            let _ = tx.send((attempt_idx, Err(format!("spawn rpc thread: {e}"))));
        }
    };

    spawn_attempt(0, 0);
    let mut next_replica = 1;
    let mut next_attempt = 1;
    let mut outstanding = 1usize;
    let mut hedge_attempt: Option<usize> = None;
    let may_hedge = |hedged: &Option<usize>| {
        shared.hedge.enabled && hedged.is_none() && endpoint.replicas.len() > 1
    };
    let hedge_at = started + hedge_delay(shared, shard);
    let mut last_err = String::new();

    loop {
        let now = Instant::now();
        if may_hedge(&hedge_attempt) && now >= hedge_at && next_replica < endpoint.replicas.len() {
            shared.obs.hedges_fired.inc();
            hedge_attempt = Some(next_attempt);
            spawn_attempt(next_replica, next_attempt);
            next_replica += 1;
            next_attempt += 1;
            outstanding += 1;
            continue;
        }
        if now >= cutoff {
            return Err(ShardError::Unavailable(format!(
                "shard {shard}: no replica answered within {:?}{}",
                cutoff.saturating_duration_since(started),
                if last_err.is_empty() {
                    String::new()
                } else {
                    format!(" (last error: {last_err})")
                }
            )));
        }
        let mut wait = cutoff - now;
        if may_hedge(&hedge_attempt) && next_replica < endpoint.replicas.len() {
            wait = wait.min(hedge_at.saturating_duration_since(now));
        }
        match rx.recv_timeout(wait) {
            Ok((attempt_idx, Ok(out))) => {
                let elapsed = started.elapsed();
                // Only un-hedged RPCs feed the adaptive delay; see
                // `record_winning_leg` for why a hedged win must not.
                record_winning_leg(&endpoint.rpc_latency, hedge_attempt.is_some(), elapsed);
                shared.obs.rpc_latency.observe(elapsed);
                if hedge_attempt == Some(attempt_idx) {
                    shared.obs.hedges_won.inc();
                }
                return Ok(out);
            }
            Ok((_, Err(msg))) => {
                shared.obs.shard_failures.inc();
                last_err = msg;
                outstanding -= 1;
                if outstanding == 0 {
                    if next_replica < endpoint.replicas.len() && Instant::now() < cutoff {
                        // Failover: a hard failure skips the hedge delay.
                        spawn_attempt(next_replica, next_attempt);
                        next_replica += 1;
                        next_attempt += 1;
                        outstanding += 1;
                    } else {
                        return Err(ShardError::Unavailable(format!(
                            "shard {shard}: every replica failed (last error: {last_err})"
                        )));
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Unreachable: `tx` lives in this scope, so the channel
            // cannot disconnect while we hold it.
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ShardError::Unavailable(format!(
                    "shard {shard}: rpc channel closed"
                )))
            }
        }
    }
}

/// One attempt against one replica: take a pooled connection (or dial),
/// write the pre-assembled line in a single syscall, read one response
/// line under the remaining deadline, decode. A *pooled* connection that
/// turns out stale (EOF / reset on first use) gets exactly one retry on
/// a fresh dial; a fresh connection's failure is the replica's failure.
fn attempt(
    shared: &RouterShared,
    shard: usize,
    replica_idx: usize,
    line: &str,
    cutoff: Instant,
) -> AttemptResult {
    let replica = &shared.endpoints[shard].replicas[replica_idx];
    let mut from_pool = true;
    let mut stream = match replica.take() {
        Some(s) => s,
        None => {
            from_pool = false;
            dial(&replica.addr, cutoff)?
        }
    };
    loop {
        match roundtrip(&mut stream, line, cutoff) {
            Ok(v) => {
                let out = decode_shard_response(&v)?;
                replica.put(stream);
                return Ok(out);
            }
            Err(e) if from_pool => {
                from_pool = false;
                stream = dial(&replica.addr, cutoff).map_err(|dial_err| {
                    format!("stale pooled connection ({e}); redial failed: {dial_err}")
                })?;
            }
            Err(e) => return Err(e),
        }
    }
}

fn dial(addr: &str, cutoff: Instant) -> Result<TcpStream, String> {
    let remaining = cutoff.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(format!("deadline expired before dialing {addr}"));
    }
    let sock: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}: no addresses"))?;
    let stream = TcpStream::connect_timeout(&sock, remaining)
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Writes the request line in one call and reads exactly one response
/// line, with every read bounded by the remaining time to `cutoff`.
fn roundtrip(stream: &mut TcpStream, line: &str, cutoff: Instant) -> Result<Value, String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write failed: {e}"))?;
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[..pos]);
            return serde_json::from_str(line.trim())
                .map_err(|e| format!("bad response line: {e}"));
        }
        if pending.len() > MAX_LINE_BYTES {
            return Err(format!("response line exceeds {MAX_LINE_BYTES} bytes"));
        }
        let remaining = cutoff.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err("deadline expired waiting for the shard's response".to_owned());
        }
        stream
            .set_read_timeout(Some(remaining))
            .map_err(|e| format!("set read timeout failed: {e}"))?;
        match stream.read(&mut buf) {
            Ok(0) => return Err("shard closed the connection".to_owned()),
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err("read timed out waiting for the shard's response".to_owned());
            }
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

/// Decodes a `shard_exec` response line: `{"ok":true,"shard":{...}}` on
/// success, a structured error otherwise.
fn decode_shard_response(v: &Value) -> AttemptResult {
    if v.get("ok").and_then(Value::as_bool) == Some(true) {
        let shard = v
            .get("shard")
            .ok_or("ok response carries no 'shard' field")?;
        return wire::shard_outcome_from_value(shard);
    }
    let err = v.get("error");
    let kind = err
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    let msg = err
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or("");
    Err(format!("shard error [{kind}]: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedged_win_is_a_no_op_on_the_adaptive_delay() {
        let hedge = HedgeConfig::default();
        let latency = Histogram::new();
        // Warm the shard up with un-hedged wins slow enough that the
        // adaptive delay leaves the initial value for the clamped p95.
        let slow = Duration::from_millis(200);
        for _ in 0..HEDGE_WARMUP {
            record_winning_leg(&latency, false, slow);
        }
        let warmed = delay_from(&latency.snapshot(), &hedge);
        assert!(
            warmed > hedge.initial_delay,
            "p95 of {slow:?} wins must rule"
        );
        assert!(warmed >= hedge.min_delay && warmed <= hedge.max_delay);

        // A storm of fast *hedged* wins changes nothing: not the sample
        // count, not the delay. Feeding them back would drag the p95 —
        // and with it the delay — toward `hedge delay + fast replica`.
        let count_before = latency.count();
        for _ in 0..1000 {
            record_winning_leg(&latency, true, Duration::from_millis(1));
        }
        assert_eq!(
            latency.count(),
            count_before,
            "hedged wins must not feed the histogram"
        );
        assert_eq!(delay_from(&latency.snapshot(), &hedge), warmed);
    }

    #[test]
    fn hedge_delay_stays_initial_through_warmup_then_tracks_clamped_p95() {
        let hedge = HedgeConfig::default();
        let latency = Histogram::new();
        // Below the warmup threshold the configured initial delay rules,
        // whatever the (still untrustworthy) samples say.
        for _ in 0..HEDGE_WARMUP - 1 {
            record_winning_leg(&latency, false, Duration::from_secs(1));
            assert_eq!(delay_from(&latency.snapshot(), &hedge), hedge.initial_delay);
        }
        // The warmup-crossing sample flips it to the adaptive path; a
        // 1 s p95 is far beyond the band, so the upper clamp rules.
        record_winning_leg(&latency, false, Duration::from_secs(1));
        assert_eq!(delay_from(&latency.snapshot(), &hedge), hedge.max_delay);
    }

    #[test]
    fn hedge_config_defaults_are_sane() {
        let h = HedgeConfig::default();
        assert!(h.enabled);
        assert!(h.min_delay <= h.max_delay);
        assert!(h.initial_delay >= h.min_delay && h.initial_delay <= h.max_delay);
    }

    #[test]
    fn replica_pool_is_bounded_lifo() {
        let replica = Replica::new("127.0.0.1:1".to_owned());
        assert!(replica.take().is_none());
        // Self-connected listener streams are the cheapest real TcpStreams.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut accepted = Vec::new();
        for _ in 0..POOL_CAP + 2 {
            let s = TcpStream::connect(addr).unwrap();
            accepted.push(listener.accept().unwrap().0);
            replica.put(s);
        }
        assert_eq!(replica.pool.lock().unwrap().len(), POOL_CAP);
        let mut drained = 0;
        while replica.take().is_some() {
            drained += 1;
        }
        assert_eq!(drained, POOL_CAP);
    }

    #[test]
    fn shard_error_decoding_reports_kind_and_message() {
        let v: Value =
            serde_json::from_str(r#"{"ok":false,"error":{"kind":"overloaded","message":"shed"}}"#)
                .unwrap();
        let err = decode_shard_response(&v).unwrap_err();
        assert!(err.contains("overloaded") && err.contains("shed"), "{err}");
        let ok: Value = serde_json::from_str(r#"{"ok":true}"#).unwrap();
        assert!(decode_shard_response(&ok).is_err(), "missing shard field");
    }
}
