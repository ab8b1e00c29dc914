//! The line-delimited JSON wire format — one schema for the server, the
//! client, and `ipm query --json`.
//!
//! Every request and every response is a single JSON object on a single
//! line (`\n`-terminated). Requests are either a search (the default; the
//! only required field is `"query"`) or a control verb (`"cmd"`:
//! `"stats"`, `"ping"`, `"shutdown"`). Responses always carry an `"ok"`
//! boolean; failures carry a structured `"error"` object whose `"kind"`
//! is machine-readable — `overloaded` is the admission-control shed
//! signal, not a transport error. See `docs/protocol.md`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ipm_core::{
    Algorithm, ApproxReason, BackendChoice, Budget, BudgetKind, Completeness, ExecStats, PhraseHit,
    QueryTrace, RedundancyConfig, SearchOptions, SearchResponse, ShardExecParams, ShardOutcome,
    MAX_SHARDS,
};
use ipm_corpus::Corpus;
use ipm_storage::IoStats;
use serde_json::Value;

/// Most search items a single `{"batch": [...]}` request may carry (the
/// whole batch shares one admission slot, so an unbounded batch would let
/// one client park a worker arbitrarily long).
pub const MAX_BATCH: usize = 64;

/// Machine-readable error kinds carried in `error.kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a valid request shape.
    Parse,
    /// The query string failed to parse against the corpus (unknown word,
    /// mixed operators, ...).
    Query,
    /// Admission control shed the request: the worker queue was full.
    Overloaded,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The request's deadline expired before execution could start —
    /// queue wait counts against the budget, so dead-on-arrival work is
    /// shed instead of executed for nobody.
    DeadlineExceeded,
    /// Execution failed server-side (a worker panic was contained).
    Internal,
}

impl ErrorKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Query => "query",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name back (for clients).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "parse" => ErrorKind::Parse,
            "query" => ErrorKind::Query,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Execute a search.
    Search(SearchRequest),
    /// Execute several searches as one unit: the batch shares a single
    /// admission slot and the response carries per-item results/errors.
    Batch(Vec<SearchRequest>),
    /// Ingest one document into the engine's §4.5.1 side index (protocol
    /// v3). Tokens are plain term strings resolved against the serving
    /// vocabulary; facets are `key:value` strings. Out-of-vocabulary
    /// terms are counted back in the response (`unknown_tokens`) — they
    /// can only enter the index at the next compaction's rebuild.
    Ingest {
        /// The document's tokens, in text order.
        tokens: Vec<String>,
        /// `key:value` facet strings.
        facets: Vec<String>,
    },
    /// Mark one document of the serving corpus deleted (protocol v3).
    Delete {
        /// The document id.
        doc: u64,
    },
    /// Flush the delta into a full offline rebuild and swap it in
    /// (protocol v3). Runs under the admission queue: queries keep being
    /// served from the old generation until the swap.
    Compact,
    /// Execute exactly one shard of a distributed scatter (protocol v5).
    /// Sent by the router to a shard server; never part of the public
    /// client surface.
    ShardExec(ShardExecRequest),
    /// Report server counters.
    Stats,
    /// Render the full metrics registry in Prometheus text exposition
    /// format (protocol v4).
    Metrics,
    /// Liveness check.
    Ping,
    /// Begin graceful shutdown (in-flight and queued work completes).
    Shutdown,
}

/// A search request: the query string plus per-request engine options.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// The query string (`"trade AND reserves"`, `"topic:t04 OR rates"`).
    pub query: String,
    /// Result count.
    pub k: usize,
    /// Retrieval algorithm.
    pub algorithm: Algorithm,
    /// List backend.
    pub backend: BackendChoice,
    /// NRA list fraction (omitted = full lists).
    pub nra_fraction: Option<f64>,
    /// §5.6 redundancy threshold (omitted = no filter).
    pub max_overlap: Option<f64>,
    /// Apply the engine's attached delta index on the NRA path.
    pub use_delta: bool,
    /// Intra-query shard fanout (omitted = the server engine's default).
    pub shards: Option<usize>,
    /// Artificial per-execution service time in milliseconds, applied by
    /// the worker before running the query. A load-testing knob: it makes
    /// coalescing and queue-shed behaviour deterministic to observe. The
    /// server clamps it (5 s) so a client cannot park the worker pool.
    pub delay_ms: u64,
    /// Wall-clock deadline in milliseconds, measured from the moment the
    /// server *receives* the request — queue wait counts against it.
    /// Expired-in-queue requests are shed with `deadline_exceeded`; a
    /// deadline tripping mid-execution returns the anytime result marked
    /// `completeness: truncated`.
    pub deadline_ms: Option<u64>,
    /// Cap on simulated disk page fetches for this request (the §5.5
    /// unit of IO cost; meaningful on the disk backend).
    pub io_budget: Option<u64>,
    /// Return a structured per-stage trace with the result (protocol v4).
    /// Traced requests bypass single-flight coalescing — a shared flight
    /// would hand one request's trace to every coalesced peer.
    pub trace: bool,
}

impl SearchRequest {
    /// A request with default options (`k = 10`, NRA over memory).
    pub fn new(query: impl Into<String>) -> Self {
        Self {
            query: query.into(),
            k: 10,
            algorithm: Algorithm::default(),
            backend: BackendChoice::default(),
            nra_fraction: None,
            max_overlap: None,
            use_delta: false,
            shards: None,
            delay_ms: 0,
            deadline_ms: None,
            io_budget: None,
            trace: false,
        }
    }

    /// Whether this request carries any budget field (budgeted requests
    /// bypass single-flight coalescing: a truncated result reflects one
    /// request's budget and must not be shared with other flights).
    pub fn is_budgeted(&self) -> bool {
        self.deadline_ms.is_some() || self.io_budget.is_some()
    }

    /// The engine options this request maps to.
    pub fn options(&self) -> SearchOptions {
        SearchOptions {
            algorithm: self.algorithm,
            backend: self.backend,
            nra_fraction: self.nra_fraction,
            redundancy: self
                .max_overlap
                .map(|max_overlap| RedundancyConfig { max_overlap }),
            use_delta: self.use_delta,
            shards: self.shards,
            trace: self.trace,
        }
    }

    /// Serializes to the wire object (inverse of [`parse_request`]).
    pub fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("query".to_owned(), Value::from(self.query.clone()));
        map.insert("k".to_owned(), Value::from(self.k));
        map.insert(
            "method".to_owned(),
            Value::from(algorithm_name(self.algorithm)),
        );
        map.insert(
            "backend".to_owned(),
            Value::from(backend_name(self.backend)),
        );
        if let Some(f) = self.nra_fraction {
            map.insert("nra_fraction".to_owned(), Value::from(f));
        }
        if let Some(o) = self.max_overlap {
            map.insert("max_overlap".to_owned(), Value::from(o));
        }
        if self.use_delta {
            map.insert("use_delta".to_owned(), Value::from(true));
        }
        if let Some(n) = self.shards {
            map.insert("shards".to_owned(), Value::from(n as u64));
        }
        if self.delay_ms > 0 {
            map.insert("delay_ms".to_owned(), Value::from(self.delay_ms));
        }
        if let Some(ms) = self.deadline_ms {
            map.insert("deadline_ms".to_owned(), Value::from(ms));
        }
        if let Some(cap) = self.io_budget {
            map.insert("io_budget".to_owned(), Value::from(cap));
        }
        if self.trace {
            map.insert("trace".to_owned(), Value::from(true));
        }
        Value::Object(map)
    }

    /// One request line (newline-terminated).
    pub fn to_line(&self) -> String {
        finish_line(&self.to_value())
    }
}

/// The engine budget of a request that arrived at `arrived`: its wire
/// `deadline_ms` anchored at arrival (queue wait counts against it) and
/// its simulated-IO fetch cap.
pub(crate) fn budget(arrived: Instant, deadline_ms: Option<u64>, io_budget: Option<u64>) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(arrived + Duration::from_millis(ms));
    }
    if let Some(cap) = io_budget {
        budget = budget.with_io_budget(cap);
    }
    budget
}

/// One `{"batch": [...]}` request line for `requests` (newline-
/// terminated). The server runs the items as one unit behind a single
/// admission slot and answers with per-item results/errors.
pub fn batch_line(requests: &[SearchRequest]) -> String {
    let mut map = BTreeMap::new();
    map.insert(
        "batch".to_owned(),
        Value::Array(requests.iter().map(SearchRequest::to_value).collect()),
    );
    finish_line(&Value::Object(map))
}

/// Algorithm wire names (shared with the CLI's `--method`).
pub fn algorithm_from_str(s: &str) -> Result<Algorithm, String> {
    match s {
        "nra" => Ok(Algorithm::Nra),
        "smj" => Ok(Algorithm::Smj),
        "ta" => Ok(Algorithm::Ta),
        "exact" => Ok(Algorithm::Exact),
        other => Err(format!("unknown method: {other} (nra|smj|ta|exact)")),
    }
}

/// The wire name of an algorithm.
pub fn algorithm_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Nra => "nra",
        Algorithm::Smj => "smj",
        Algorithm::Ta => "ta",
        Algorithm::Exact => "exact",
    }
}

/// Backend wire names (shared with the CLI's `--backend`).
pub fn backend_from_str(s: &str) -> Result<BackendChoice, String> {
    match s {
        "memory" => Ok(BackendChoice::Memory),
        "disk" => Ok(BackendChoice::Disk),
        "block" => Ok(BackendChoice::Block),
        other => Err(format!("unknown backend: {other} (memory|disk|block)")),
    }
}

/// The wire name of a backend.
pub fn backend_name(b: BackendChoice) -> &'static str {
    match b {
        BackendChoice::Memory => "memory",
        BackendChoice::Disk => "disk",
        BackendChoice::Block => "block",
    }
}

fn field_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a number")),
    }
}

fn field_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn field_bool(v: &Value, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| format!("field '{key}' must be a boolean")),
    }
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a string")),
    }
}

fn field_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

/// Parses one request line.
///
/// # Errors
/// A human-readable message for malformed JSON or invalid field values
/// (the server maps it to `error.kind = "parse"`).
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let v: Value = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
    if v.as_object().is_none() {
        return Err("request must be a JSON object".into());
    }
    if let Some(cmd) = field_str(&v, "cmd")? {
        return match cmd {
            "query" => Ok(WireRequest::Search(build_search(&v)?)),
            "ingest" => build_ingest(&v),
            "delete" => match v.get("doc").and_then(Value::as_u64) {
                Some(doc) => Ok(WireRequest::Delete { doc }),
                None => Err("delete needs a non-negative integer 'doc' field".into()),
            },
            "compact" => Ok(WireRequest::Compact),
            "shard_exec" => Ok(WireRequest::ShardExec(build_shard_exec(&v)?)),
            "stats" => Ok(WireRequest::Stats),
            "metrics" => Ok(WireRequest::Metrics),
            "ping" => Ok(WireRequest::Ping),
            "shutdown" => Ok(WireRequest::Shutdown),
            other => Err(format!(
                "unknown cmd: {other} \
                 (query|ingest|delete|compact|shard_exec|stats|metrics|ping|shutdown)"
            )),
        };
    }
    if let Some(batch) = v.get("batch") {
        let items = batch
            .as_array()
            .ok_or("field 'batch' must be an array of search objects")?;
        if items.is_empty() {
            return Err("batch must contain at least one search".into());
        }
        if items.len() > MAX_BATCH {
            return Err(format!(
                "batch holds {} items, limit is {MAX_BATCH}",
                items.len()
            ));
        }
        // Top-level deadline_ms / io_budget act as per-item defaults.
        let deadline_default = field_opt_u64(&v, "deadline_ms")?;
        let io_default = field_opt_u64(&v, "io_budget")?;
        let mut parsed = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if item.as_object().is_none() {
                return Err(format!("batch item {i} must be a JSON object"));
            }
            let mut req = build_search(item).map_err(|e| format!("batch item {i}: {e}"))?;
            req.deadline_ms = req.deadline_ms.or(deadline_default);
            req.io_budget = req.io_budget.or(io_default);
            parsed.push(req);
        }
        return Ok(WireRequest::Batch(parsed));
    }
    Ok(WireRequest::Search(build_search(&v)?))
}

/// Parses an ingest verb: tokens come either as a `"tokens"` string array
/// or as a whitespace-split `"text"` string; `"facets"` is an optional
/// array of `key:value` strings.
fn build_ingest(v: &Value) -> Result<WireRequest, String> {
    let mut tokens: Vec<String> = Vec::new();
    if let Some(arr) = v.get("tokens") {
        let arr = arr
            .as_array()
            .ok_or("field 'tokens' must be an array of strings")?;
        for t in arr {
            tokens.push(
                t.as_str()
                    .ok_or("field 'tokens' must be an array of strings")?
                    .to_owned(),
            );
        }
    }
    if let Some(text) = field_str(v, "text")? {
        tokens.extend(text.split_whitespace().map(str::to_owned));
    }
    if tokens.is_empty() {
        return Err("ingest needs a non-empty 'tokens' array or a 'text' string".into());
    }
    let mut facets: Vec<String> = Vec::new();
    if let Some(arr) = v.get("facets") {
        let arr = arr
            .as_array()
            .ok_or("field 'facets' must be an array of key:value strings")?;
        for f in arr {
            facets.push(
                f.as_str()
                    .ok_or("field 'facets' must be an array of key:value strings")?
                    .to_owned(),
            );
        }
    }
    Ok(WireRequest::Ingest { tokens, facets })
}

/// One ingest request line (newline-terminated) — the client-side inverse
/// of the `ingest` arm of [`parse_request`].
pub fn ingest_line(tokens: &[String], facets: &[String]) -> String {
    let mut m = BTreeMap::new();
    m.insert("cmd".to_owned(), Value::from("ingest"));
    m.insert(
        "tokens".to_owned(),
        Value::Array(tokens.iter().map(|t| Value::from(t.clone())).collect()),
    );
    if !facets.is_empty() {
        m.insert(
            "facets".to_owned(),
            Value::Array(facets.iter().map(|f| Value::from(f.clone())).collect()),
        );
    }
    finish_line(&Value::Object(m))
}

/// One delete request line (newline-terminated).
pub fn delete_line(doc: u64) -> String {
    let mut m = BTreeMap::new();
    m.insert("cmd".to_owned(), Value::from("delete"));
    m.insert("doc".to_owned(), Value::from(doc));
    finish_line(&Value::Object(m))
}

fn build_search(v: &Value) -> Result<SearchRequest, String> {
    let query = field_str(v, "query")?
        .ok_or("search request needs a 'query' string")?
        .to_owned();
    let mut req = SearchRequest::new(query);
    req.k = field_u64(v, "k", req.k as u64)? as usize;
    if let Some(m) = field_str(v, "method")? {
        req.algorithm = algorithm_from_str(m)?;
    }
    if let Some(b) = field_str(v, "backend")? {
        req.backend = backend_from_str(b)?;
    }
    req.nra_fraction = field_f64(v, "nra_fraction")?;
    req.max_overlap = field_f64(v, "max_overlap")?;
    req.use_delta = field_bool(v, "use_delta", false)?;
    // `0` means "use the server engine's default fanout", matching the
    // CLI's `--shards 0` convention.
    req.shards = match v.get("shards") {
        None | Some(Value::Null) => None,
        Some(x) => {
            let n = x
                .as_u64()
                .ok_or("field 'shards' must be a non-negative integer")?
                as usize;
            (n > 0).then_some(n)
        }
    };
    req.delay_ms = field_u64(v, "delay_ms", 0)?;
    req.deadline_ms = field_opt_u64(v, "deadline_ms")?;
    req.io_budget = field_opt_u64(v, "io_budget")?;
    req.trace = field_bool(v, "trace", false)?;
    Ok(req)
}

/// Encodes an `f64` as its exact IEEE-754 bit pattern, 16 lowercase hex
/// digits. The wire transports scores, bounds and the seeded NRA floor
/// this way because the distributed merge must be *bit-identical* to the
/// local one: a decimal round-trip can perturb the last ulp and flip a
/// tie, and the floor is routinely `-∞`, which JSON numbers cannot carry
/// at all.
pub fn f64_to_bits_str(f: f64) -> String {
    format!("{:016x}", f.to_bits())
}

/// Decodes [`f64_to_bits_str`].
///
/// # Errors
/// A message when the string is not exactly 16 hex digits.
pub fn f64_from_bits_str(s: &str) -> Result<f64, String> {
    // `from_str_radix` alone would wave through a leading `+` (15 digits
    // plus sign), so require every byte to be a hex digit explicitly.
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bit string must be 16 hex digits, got '{s}'"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bit string must be 16 hex digits, got '{s}'"))
}

fn field_bits_f64(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match field_str(v, key)? {
        None => Ok(default),
        Some(s) => f64_from_bits_str(s).map_err(|e| format!("field '{key}': {e}")),
    }
}

/// One wire-v5 `shard_exec` request: the router's scatter unit. Carries
/// everything [`ipm_core::QueryEngine::execute_shard`] needs — the query,
/// the coordinator's fetch depth / seeded floor / batch scaling, the
/// `(fanout, shard)` coordinates the node uses to carve its partition,
/// and the *remaining* deadline re-anchored at each hop (the router
/// computes it from its own arrival instant just before writing).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardExecRequest {
    /// The query string, parsed against the shard node's own vocabulary
    /// (identical corpus builds yield identical parses).
    pub query: String,
    /// Fetch depth for this over-fetch round.
    pub fetch: usize,
    /// Total shard fanout of the scatter.
    pub fanout: usize,
    /// This node's shard index in `[0, fanout)`.
    pub shard: usize,
    /// Seeded NRA defence line (`-∞` when inactive), bit-exact.
    pub floor: f64,
    /// Fanout-scaled NRA prune batch (`None` keeps the node's default).
    pub batch: Option<usize>,
    /// Retrieval algorithm.
    pub algorithm: Algorithm,
    /// List backend.
    pub backend: BackendChoice,
    /// NRA list fraction (omitted = full lists).
    pub nra_fraction: Option<f64>,
    /// Apply the shard node's attached delta index.
    pub use_delta: bool,
    /// Remaining milliseconds of the query's deadline at send time.
    pub deadline_ms: Option<u64>,
    /// The phrase-id range the router believes this shard owns; the node
    /// rejects the call if its own derived range disagrees (a mis-wired
    /// shard set would otherwise silently drop or duplicate phrases).
    pub range: Option<(u32, u32)>,
}

impl ShardExecRequest {
    /// A request with default options for shard `shard` of `fanout`.
    pub fn new(query: impl Into<String>, fanout: usize, shard: usize, fetch: usize) -> Self {
        Self {
            query: query.into(),
            fetch,
            fanout,
            shard,
            floor: f64::NEG_INFINITY,
            batch: None,
            algorithm: Algorithm::default(),
            backend: BackendChoice::default(),
            nra_fraction: None,
            use_delta: false,
            deadline_ms: None,
            range: None,
        }
    }

    /// The engine options this request maps to. Redundancy filtering and
    /// tracing are coordinator-side concerns and never ride the scatter.
    pub fn options(&self) -> SearchOptions {
        SearchOptions {
            algorithm: self.algorithm,
            backend: self.backend,
            nra_fraction: self.nra_fraction,
            redundancy: None,
            use_delta: self.use_delta,
            shards: None,
            trace: false,
        }
    }

    /// The per-shard execution parameters this request maps to.
    pub fn params(&self) -> ShardExecParams {
        ShardExecParams {
            fetch: self.fetch,
            fanout: self.fanout,
            shard: self.shard,
            floor: self.floor,
            batch_size: self.batch,
        }
    }

    /// One request line (newline-terminated).
    pub fn to_line(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("cmd".to_owned(), Value::from("shard_exec"));
        m.insert("query".to_owned(), Value::from(self.query.clone()));
        m.insert("fetch".to_owned(), Value::from(self.fetch as u64));
        m.insert("fanout".to_owned(), Value::from(self.fanout as u64));
        m.insert("shard".to_owned(), Value::from(self.shard as u64));
        if self.floor != f64::NEG_INFINITY {
            m.insert(
                "floor_bits".to_owned(),
                Value::from(f64_to_bits_str(self.floor)),
            );
        }
        if let Some(b) = self.batch {
            m.insert("batch".to_owned(), Value::from(b as u64));
        }
        m.insert(
            "method".to_owned(),
            Value::from(algorithm_name(self.algorithm)),
        );
        m.insert(
            "backend".to_owned(),
            Value::from(backend_name(self.backend)),
        );
        if let Some(f) = self.nra_fraction {
            m.insert("nra_fraction".to_owned(), Value::from(f));
        }
        if self.use_delta {
            m.insert("use_delta".to_owned(), Value::from(true));
        }
        if let Some(ms) = self.deadline_ms {
            m.insert("deadline_ms".to_owned(), Value::from(ms));
        }
        if let Some((lo, hi)) = self.range {
            m.insert(
                "range".to_owned(),
                Value::Array(vec![Value::from(lo as u64), Value::from(hi as u64)]),
            );
        }
        finish_line(&Value::Object(m))
    }
}

fn build_shard_exec(v: &Value) -> Result<ShardExecRequest, String> {
    let query = field_str(v, "query")?
        .ok_or("shard_exec needs a 'query' string")?
        .to_owned();
    let fanout = field_u64(v, "fanout", 1)?.max(1) as usize;
    let shard = field_u64(v, "shard", 0)? as usize;
    if fanout > MAX_SHARDS {
        return Err(format!(
            "fanout {fanout} exceeds the maximum of {MAX_SHARDS}"
        ));
    }
    if shard >= fanout {
        return Err(format!("shard {shard} out of range for fanout {fanout}"));
    }
    let mut req = ShardExecRequest::new(query, fanout, shard, 10);
    req.fetch = field_u64(v, "fetch", 10)?.max(1) as usize;
    req.floor = field_bits_f64(v, "floor_bits", f64::NEG_INFINITY)?;
    req.batch = field_opt_u64(v, "batch")?.map(|b| b as usize);
    if let Some(m) = field_str(v, "method")? {
        req.algorithm = algorithm_from_str(m)?;
    }
    if let Some(b) = field_str(v, "backend")? {
        req.backend = backend_from_str(b)?;
    }
    req.nra_fraction = field_f64(v, "nra_fraction")?;
    req.use_delta = field_bool(v, "use_delta", false)?;
    req.deadline_ms = field_opt_u64(v, "deadline_ms")?;
    req.range = match v.get("range") {
        None | Some(Value::Null) => None,
        Some(Value::Array(a)) if a.len() == 2 => {
            let lo = a[0]
                .as_u64()
                .ok_or("field 'range' must be [lo, hi] phrase ids")?;
            let hi = a[1]
                .as_u64()
                .ok_or("field 'range' must be [lo, hi] phrase ids")?;
            if lo > u32::MAX as u64 || hi > u32::MAX as u64 || lo >= hi {
                return Err("field 'range' must be [lo, hi] with lo < hi <= u32::MAX".into());
            }
            Some((lo as u32, hi as u32))
        }
        Some(_) => return Err("field 'range' must be [lo, hi] phrase ids".into()),
    };
    Ok(req)
}

/// Encodes a [`ShardOutcome`] — the `"shard"` field of a `shard_exec`
/// response. Scores and bounds travel as bit patterns (see
/// [`f64_to_bits_str`]): the router re-materializes `f64`s that compare
/// exactly like the shard's own, so the gathered merge is bit-identical
/// to the local one.
pub fn shard_outcome_value(out: &ShardOutcome) -> Value {
    let mut m = BTreeMap::new();
    m.insert(
        "hits".to_owned(),
        Value::Array(
            out.hits
                .iter()
                .map(|h| {
                    let mut hm = BTreeMap::new();
                    hm.insert("phrase".to_owned(), Value::from(h.phrase.raw() as u64));
                    hm.insert(
                        "score_bits".to_owned(),
                        Value::from(f64_to_bits_str(h.score)),
                    );
                    hm.insert(
                        "lower_bits".to_owned(),
                        Value::from(f64_to_bits_str(h.lower)),
                    );
                    hm.insert(
                        "upper_bits".to_owned(),
                        Value::from(f64_to_bits_str(h.upper)),
                    );
                    Value::Object(hm)
                })
                .collect(),
        ),
    );
    m.insert("raw".to_owned(), Value::from(out.raw_candidates as u64));
    m.insert("tripped".to_owned(), Value::from(out.tripped));
    m.insert("io_fetches".to_owned(), Value::from(out.io_fetches));
    let mut sm = BTreeMap::new();
    sm.insert(
        "sorted_accesses".to_owned(),
        Value::from(out.stats.sorted_accesses),
    );
    sm.insert(
        "random_probes".to_owned(),
        Value::from(out.stats.random_probes),
    );
    sm.insert("rounds".to_owned(), Value::from(out.stats.rounds));
    m.insert("stats".to_owned(), Value::Object(sm));
    Value::Object(m)
}

/// Decodes [`shard_outcome_value`] (router side).
///
/// # Errors
/// A message when the object is structurally invalid.
pub fn shard_outcome_from_value(v: &Value) -> Result<ShardOutcome, String> {
    let hits_v = v
        .get("hits")
        .and_then(Value::as_array)
        .ok_or("shard outcome needs a 'hits' array")?;
    let mut hits = Vec::with_capacity(hits_v.len());
    for h in hits_v {
        let raw = h
            .get("phrase")
            .and_then(Value::as_u64)
            .filter(|&p| p <= u32::MAX as u64)
            .ok_or("hit needs a 'phrase' id")?;
        let bits = |key: &str| -> Result<f64, String> {
            f64_from_bits_str(
                h.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("hit needs a '{key}' bit string"))?,
            )
        };
        hits.push(PhraseHit {
            phrase: ipm_corpus::PhraseId::new(raw as u32),
            score: bits("score_bits")?,
            lower: bits("lower_bits")?,
            upper: bits("upper_bits")?,
        });
    }
    let stats_v = v.get("stats").cloned().unwrap_or(Value::Null);
    let stat = |key: &str| stats_v.get(key).and_then(Value::as_u64).unwrap_or(0);
    Ok(ShardOutcome {
        hits,
        raw_candidates: v.get("raw").and_then(Value::as_u64).unwrap_or(0) as usize,
        stats: ExecStats {
            sorted_accesses: stat("sorted_accesses"),
            random_probes: stat("random_probes"),
            rounds: stat("rounds"),
        },
        io_fetches: v.get("io_fetches").and_then(Value::as_u64).unwrap_or(0),
        tripped: v.get("tripped").and_then(Value::as_bool).unwrap_or(false),
    })
}

/// Encodes the hits of a response — the part that must be byte-identical
/// between a served response and a direct [`ipm_core::QueryEngine`] call.
pub fn hits_value(resp: &SearchResponse) -> Value {
    Value::Array(
        resp.hits
            .iter()
            .map(|h| {
                let mut m = BTreeMap::new();
                m.insert("phrase".to_owned(), Value::from(h.hit.phrase.raw() as u64));
                m.insert("text".to_owned(), Value::from(h.text.clone()));
                m.insert("score".to_owned(), Value::from(h.hit.score));
                m.insert("lower".to_owned(), Value::from(h.hit.lower));
                m.insert("upper".to_owned(), Value::from(h.hit.upper));
                m.insert("interestingness".to_owned(), Value::from(h.interestingness));
                Value::Object(m)
            })
            .collect(),
    )
}

/// Encodes a [`Completeness`] label: `{"kind": "exact"}`,
/// `{"kind": "approximate", "reason": ...}` or
/// `{"kind": "truncated", "budget": ...}`.
pub fn completeness_value(c: &Completeness) -> Value {
    let mut m = BTreeMap::new();
    match c {
        Completeness::Exact => {
            m.insert("kind".to_owned(), Value::from("exact"));
        }
        Completeness::Approximate { reason } => {
            m.insert("kind".to_owned(), Value::from("approximate"));
            m.insert("reason".to_owned(), Value::from(reason.name()));
            if let ApproxReason::ShardsMissing { missing } = reason {
                m.insert("missing".to_owned(), Value::from(*missing as u64));
            }
        }
        Completeness::Truncated { budget_hit } => {
            m.insert("kind".to_owned(), Value::from("truncated"));
            m.insert("budget".to_owned(), Value::from(budget_hit.name()));
        }
    }
    Value::Object(m)
}

/// Parses a wire completeness object back (for clients).
pub fn completeness_from_value(v: &Value) -> Option<Completeness> {
    match v.get("kind")?.as_str()? {
        "exact" => Some(Completeness::Exact),
        "approximate" => {
            let reason = match v.get("reason")?.as_str()? {
                "partial_lists" => ApproxReason::PartialLists,
                "delta_corrections" => ApproxReason::DeltaCorrections,
                "shards_missing" => ApproxReason::ShardsMissing {
                    missing: v.get("missing")?.as_u64()? as u32,
                },
                _ => return None,
            };
            Some(Completeness::Approximate { reason })
        }
        "truncated" => {
            let budget_hit = match v.get("budget")?.as_str()? {
                "deadline" => BudgetKind::Deadline,
                "io" => BudgetKind::Io,
                "steps" => BudgetKind::Steps,
                _ => return None,
            };
            Some(Completeness::Truncated { budget_hit })
        }
        _ => None,
    }
}

/// Encodes [`IoStats`] counters.
pub fn io_value(io: &IoStats) -> Value {
    let mut m = BTreeMap::new();
    m.insert("cache_hits".to_owned(), Value::from(io.cache_hits));
    m.insert(
        "sequential_fetches".to_owned(),
        Value::from(io.sequential_fetches),
    );
    m.insert("random_fetches".to_owned(), Value::from(io.random_fetches));
    Value::Object(m)
}

/// Encodes a [`QueryTrace`] — the `"trace"` response field of a
/// `trace: true` request (protocol v4).
pub fn trace_value(t: &QueryTrace) -> Value {
    let mut m = BTreeMap::new();
    m.insert("query".to_owned(), Value::from(t.query.clone()));
    m.insert("algorithm".to_owned(), Value::from(t.algorithm));
    m.insert("backend".to_owned(), Value::from(t.backend));
    m.insert("k".to_owned(), Value::from(t.k as u64));
    m.insert("shards".to_owned(), Value::from(t.shards as u64));
    m.insert("epoch".to_owned(), Value::from(t.epoch));
    m.insert(
        "served_from_cache".to_owned(),
        Value::from(t.served_from_cache),
    );
    m.insert(
        "completeness".to_owned(),
        Value::from(t.completeness.clone()),
    );
    m.insert(
        "budget_trip".to_owned(),
        t.budget_trip.map(Value::from).unwrap_or(Value::Null),
    );
    m.insert(
        "total_us".to_owned(),
        Value::from(t.total.as_micros() as u64),
    );
    m.insert(
        "stages".to_owned(),
        Value::Array(
            t.stages
                .iter()
                .map(|s| {
                    let mut sm = BTreeMap::new();
                    sm.insert("stage".to_owned(), Value::from(s.kind.name()));
                    sm.insert(
                        "shard".to_owned(),
                        s.shard
                            .map(|i| Value::from(i as u64))
                            .unwrap_or(Value::Null),
                    );
                    sm.insert("started_us".to_owned(), Value::from(s.started_us));
                    sm.insert(
                        "duration_us".to_owned(),
                        Value::from(s.duration.as_micros() as u64),
                    );
                    Value::Object(sm)
                })
                .collect(),
        ),
    );
    m.insert(
        "shard_stats".to_owned(),
        Value::Array(
            t.shard_totals()
                .iter()
                .map(|s| {
                    let mut sm = BTreeMap::new();
                    sm.insert("shard".to_owned(), Value::from(s.shard as u64));
                    sm.insert("sorted_accesses".to_owned(), Value::from(s.sorted_accesses));
                    sm.insert("random_probes".to_owned(), Value::from(s.random_probes));
                    sm.insert("rounds".to_owned(), Value::from(s.rounds));
                    sm.insert("io_fetches".to_owned(), Value::from(s.io_fetches));
                    Value::Object(sm)
                })
                .collect(),
        ),
    );
    Value::Object(m)
}

/// Encodes a full [`SearchResponse`] in the shared wire shape (used by
/// the server's `result` field and by `ipm query --json`).
pub fn response_value(resp: &SearchResponse, corpus: &Corpus) -> Value {
    let mut m = BTreeMap::new();
    m.insert("query".to_owned(), Value::from(resp.query.render(corpus)));
    m.insert("op".to_owned(), Value::from(resp.query.op.to_string()));
    m.insert("hits".to_owned(), hits_value(resp));
    m.insert(
        "elapsed_us".to_owned(),
        Value::from(resp.elapsed.as_micros() as u64),
    );
    m.insert(
        "served_from_cache".to_owned(),
        Value::from(resp.served_from_cache),
    );
    m.insert("shards".to_owned(), Value::from(resp.shards as u64));
    m.insert(
        "completeness".to_owned(),
        completeness_value(&resp.completeness),
    );
    m.insert(
        "io".to_owned(),
        resp.io.as_ref().map(io_value).unwrap_or(Value::Null),
    );
    if let Some(t) = &resp.trace {
        m.insert("trace".to_owned(), trace_value(t));
    }
    Value::Object(m)
}

/// Serializes one wire object as a newline-terminated line — every line
/// this module builds ends here.
fn finish_line(v: &Value) -> String {
    // lint-allow: server-unwrap — serializing an owned Value tree is infallible; no connection involved
    let mut line = serde_json::to_string(v).expect("infallible");
    line.push('\n');
    line
}

/// The `{"ok": false, "error": {"kind", "message"}}` object: a whole
/// error response, or one failed item of a batch response.
pub(crate) fn error_value(kind: ErrorKind, message: &str) -> Value {
    let mut err = BTreeMap::new();
    err.insert("kind".to_owned(), Value::from(kind.name()));
    err.insert("message".to_owned(), Value::from(message));
    let mut m = BTreeMap::new();
    m.insert("ok".to_owned(), Value::from(false));
    m.insert("error".to_owned(), Value::Object(err));
    Value::Object(m)
}

/// The `{"ok": true, ...}` object with named fields: a whole success
/// response, or one answered item of a batch response.
pub(crate) fn ok_value(fields: Vec<(&str, Value)>) -> Value {
    let mut m = BTreeMap::new();
    m.insert("ok".to_owned(), Value::from(true));
    for (k, v) in fields {
        m.insert(k.to_owned(), v);
    }
    Value::Object(m)
}

/// Builds an error response line.
pub fn error_line(kind: ErrorKind, message: &str) -> String {
    finish_line(&error_value(kind, message))
}

/// Builds a success response line from named top-level fields (always
/// includes `"ok": true`).
pub fn ok_line(fields: Vec<(&str, Value)>) -> String {
    finish_line(&ok_value(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = SearchRequest::new("trade AND reserves");
        req.k = 7;
        req.algorithm = Algorithm::Ta;
        req.backend = BackendChoice::Disk;
        req.nra_fraction = Some(0.5);
        req.max_overlap = Some(0.25);
        req.use_delta = true;
        req.shards = Some(4);
        req.delay_ms = 3;
        req.deadline_ms = Some(250);
        req.io_budget = Some(1_000);
        req.trace = true;
        assert!(req.is_budgeted());
        let line = req.to_line();
        assert!(line.ends_with('\n'));
        match parse_request(&line).unwrap() {
            WireRequest::Search(got) => assert_eq!(got, req),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn batch_roundtrip_and_defaults() {
        let mut a = SearchRequest::new("a");
        a.deadline_ms = Some(9); // explicit: must win over the default
        let b = SearchRequest::new("b");
        let line = batch_line(&[a.clone(), b.clone()]);
        match parse_request(&line).unwrap() {
            WireRequest::Batch(items) => assert_eq!(items, vec![a.clone(), b.clone()]),
            other => panic!("wrong variant: {other:?}"),
        }
        // Top-level budget fields act as per-item defaults.
        let with_defaults = r#"{"batch":[{"query":"a","deadline_ms":9},{"query":"b"}],"deadline_ms":50,"io_budget":7}"#;
        match parse_request(with_defaults).unwrap() {
            WireRequest::Batch(items) => {
                assert_eq!(items[0].deadline_ms, Some(9));
                assert_eq!(items[0].io_budget, Some(7));
                assert_eq!(items[1].deadline_ms, Some(50));
                assert_eq!(items[1].io_budget, Some(7));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn oversized_and_malformed_batches_are_rejected() {
        assert!(parse_request(r#"{"batch":[]}"#).is_err());
        assert!(parse_request(r#"{"batch":"x"}"#).is_err());
        assert!(
            parse_request(r#"{"batch":[{"k":5}]}"#).is_err(),
            "item without query"
        );
        let big = batch_line(&vec![SearchRequest::new("q"); MAX_BATCH + 1]);
        assert!(parse_request(&big).is_err());
        let ok = batch_line(&vec![SearchRequest::new("q"); MAX_BATCH]);
        assert!(parse_request(&ok).is_ok());
    }

    #[test]
    fn completeness_roundtrips_through_the_wire_shape() {
        for c in [
            Completeness::Exact,
            Completeness::Approximate {
                reason: ApproxReason::PartialLists,
            },
            Completeness::Approximate {
                reason: ApproxReason::DeltaCorrections,
            },
            Completeness::Truncated {
                budget_hit: BudgetKind::Deadline,
            },
            Completeness::Truncated {
                budget_hit: BudgetKind::Io,
            },
            Completeness::Truncated {
                budget_hit: BudgetKind::Steps,
            },
        ] {
            let v = completeness_value(&c);
            assert_eq!(completeness_from_value(&v), Some(c), "{c}");
        }
        assert_eq!(completeness_from_value(&Value::from(3u64)), None);
    }

    #[test]
    fn retired_approximation_reason_decodes_to_none() {
        // No server ever emitted this label; it now reads like any other
        // unknown reason.
        let v: Value =
            serde_json::from_str(r#"{"kind":"approximate","reason":"truncated_image"}"#).unwrap();
        assert_eq!(completeness_from_value(&v), None);
    }

    #[test]
    fn retired_error_kind_decodes_to_none() {
        // The wire never had a cancel verb, so no server sent this kind;
        // it now reads like any other unknown kind.
        assert_eq!(ErrorKind::from_name("cancelled"), None);
    }

    #[test]
    fn defaults_apply_to_minimal_request() {
        let req = parse_request(r#"{"query": "a b"}"#).unwrap();
        match req {
            WireRequest::Search(s) => {
                assert_eq!(s.query, "a b");
                assert_eq!(s.k, 10);
                assert_eq!(s.algorithm, Algorithm::Nra);
                assert_eq!(s.backend, BackendChoice::Memory);
                assert_eq!(s.nra_fraction, None);
                assert_eq!(s.max_overlap, None);
                assert!(!s.use_delta);
                assert_eq!(s.shards, None);
                assert_eq!(s.delay_ms, 0);
                assert_eq!(s.deadline_ms, None);
                assert_eq!(s.io_budget, None);
                assert!(!s.trace);
                assert!(!s.is_budgeted());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn zero_shards_means_server_default() {
        match parse_request(r#"{"query":"a","shards":0}"#).unwrap() {
            WireRequest::Search(s) => assert_eq!(s.shards, None),
            other => panic!("wrong variant: {other:?}"),
        }
        match parse_request(r#"{"query":"a","shards":4}"#).unwrap() {
            WireRequest::Search(s) => assert_eq!(s.shards, Some(4)),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"stats"}"#).unwrap(),
            WireRequest::Stats
        );
        assert_eq!(
            parse_request(r#"{"cmd":"metrics"}"#).unwrap(),
            WireRequest::Metrics
        );
        assert_eq!(
            parse_request(r#"{"cmd":"ping"}"#).unwrap(),
            WireRequest::Ping
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            r#"{"cmd":"reboot"}"#,
            r#"{"k": 5}"#,
            r#"{"query":"a","k":"five"}"#,
            r#"{"query":"a","method":"bogus"}"#,
            r#"{"query":"a","backend":"tape"}"#,
            r#"{"query":"a","delay_ms":-1}"#,
            r#"{"query":"a","shards":"many"}"#,
            r#"{"query":"a","deadline_ms":"soon"}"#,
            r#"{"query":"a","io_budget":-5}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted bad request: {bad}");
        }
    }

    #[test]
    fn error_line_shape() {
        let line = error_line(ErrorKind::Overloaded, "queue full");
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["kind"], "overloaded");
        assert_eq!(v["error"]["message"], "queue full");
        assert_eq!(
            ErrorKind::from_name(v["error"]["kind"].as_str().unwrap()),
            Some(ErrorKind::Overloaded)
        );
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for f in [
            0.0,
            -0.0,
            1.5,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            -123.456789e-30,
        ] {
            let s = f64_to_bits_str(f);
            assert_eq!(s.len(), 16);
            assert_eq!(f64_from_bits_str(&s).unwrap().to_bits(), f.to_bits());
        }
        assert!(f64_from_bits_str("xyz").is_err());
        assert!(f64_from_bits_str("0").is_err());
    }

    #[test]
    fn shard_exec_request_roundtrip() {
        let mut req = ShardExecRequest::new("a AND b", 4, 2, 28);
        req.floor = 0.123456789;
        req.batch = Some(64);
        req.algorithm = Algorithm::Nra;
        req.backend = BackendChoice::Block;
        req.nra_fraction = Some(0.5);
        req.use_delta = true;
        req.deadline_ms = Some(75);
        req.range = Some((100, 200));
        let line = req.to_line();
        match parse_request(&line).unwrap() {
            WireRequest::ShardExec(got) => {
                assert_eq!(got.floor.to_bits(), req.floor.to_bits());
                assert_eq!(got, req);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // An inactive floor is omitted from the line and decodes to -inf.
        let plain = ShardExecRequest::new("q", 2, 0, 10);
        assert!(!plain.to_line().contains("floor_bits"));
        match parse_request(&plain.to_line()).unwrap() {
            WireRequest::ShardExec(got) => {
                assert_eq!(got.floor, f64::NEG_INFINITY);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn malformed_shard_exec_is_rejected() {
        for bad in [
            r#"{"cmd":"shard_exec"}"#,
            r#"{"cmd":"shard_exec","query":"a","fanout":2,"shard":2}"#,
            r#"{"cmd":"shard_exec","query":"a","floor_bits":"zz"}"#,
            r#"{"cmd":"shard_exec","query":"a","range":[5,5]}"#,
            r#"{"cmd":"shard_exec","query":"a","range":"all"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn shard_exec_fanout_above_max_shards_is_rejected() {
        // A node executes at most MAX_SHARDS shards: a wider scatter's
        // shards past the cap would all answer with the last shard's hits.
        let top = ShardExecRequest::new("a", MAX_SHARDS, MAX_SHARDS - 1, 10);
        assert!(parse_request(&top.to_line()).is_ok());
        let wide = ShardExecRequest::new("a", MAX_SHARDS + 1, MAX_SHARDS, 10);
        let err = parse_request(&wide.to_line()).unwrap_err();
        assert!(err.contains("fanout"), "{err}");
    }

    #[test]
    fn shard_outcome_roundtrip_is_bit_exact() {
        let out = ShardOutcome {
            hits: vec![
                PhraseHit {
                    phrase: ipm_corpus::PhraseId::new(7),
                    score: -2.5000000000000004,
                    lower: -3.0,
                    upper: -2.0,
                },
                PhraseHit::exact(ipm_corpus::PhraseId::new(9), 0.1 + 0.2),
            ],
            raw_candidates: 5,
            stats: ExecStats {
                sorted_accesses: 11,
                random_probes: 3,
                rounds: 4,
            },
            io_fetches: 17,
            tripped: true,
        };
        let v = shard_outcome_value(&out);
        let line = serde_json::to_string(&v).unwrap();
        let back = shard_outcome_from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.hits.len(), 2);
        for (a, b) in back.hits.iter().zip(&out.hits) {
            assert_eq!(a.phrase, b.phrase);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        }
        assert_eq!(back.raw_candidates, 5);
        assert_eq!(back.stats, out.stats);
        assert_eq!(back.io_fetches, 17);
        assert!(back.tripped);
    }

    #[test]
    fn shard_outcome_from_an_older_shard_ignores_entries_skipped() {
        // Shards built before the always-0 `stats.entries_skipped` field
        // was dropped still send it; the router must read past it.
        let out = ShardOutcome {
            hits: vec![PhraseHit::exact(ipm_corpus::PhraseId::new(3), 0.5)],
            raw_candidates: 1,
            stats: ExecStats {
                sorted_accesses: 2,
                random_probes: 1,
                rounds: 1,
            },
            io_fetches: 0,
            tripped: false,
        };
        let line = serde_json::to_string(&shard_outcome_value(&out)).unwrap();
        assert!(!line.contains("entries_skipped"));
        let old = line.replace(r#""rounds":"#, r#""entries_skipped":0,"rounds":"#);
        assert!(old.contains(r#""entries_skipped":0"#), "{old}");
        let back = shard_outcome_from_value(&serde_json::from_str(&old).unwrap()).unwrap();
        assert_eq!(back.stats, out.stats);
        assert_eq!(back.hits.len(), 1);
    }

    #[test]
    fn shards_missing_completeness_roundtrips() {
        let c = Completeness::Approximate {
            reason: ApproxReason::ShardsMissing { missing: 2 },
        };
        let v = completeness_value(&c);
        assert_eq!(v["reason"], "shards_missing");
        assert_eq!(v["missing"].as_u64(), Some(2));
        assert_eq!(completeness_from_value(&v), Some(c));
    }

    #[test]
    fn options_map_to_engine_options() {
        let mut req = SearchRequest::new("x");
        req.max_overlap = Some(0.4);
        req.nra_fraction = Some(0.2);
        let opts = req.options();
        assert_eq!(opts.nra_fraction, Some(0.2));
        assert_eq!(opts.redundancy.unwrap().max_overlap, 0.4);
    }
}
