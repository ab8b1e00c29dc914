//! A blocking protocol client plus closed- and open-loop load generators.
//!
//! The client speaks exactly the wire format of [`crate::wire`]; the
//! closed-loop generator drives N threads of synchronous request/response
//! traffic (each thread has one request in flight at a time), which is
//! what the serving benchmark and the CI smoke job run. The open-loop
//! generator ([`run_open_loop`]) instead schedules arrivals on a fixed
//! clock regardless of completions — the honest way to measure tail
//! latency, because a slow server cannot slow the arrival process down
//! (coordinated omission).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

use crate::queue::{BoundedQueue, PushError};
use crate::wire::{ErrorKind, SearchRequest};

/// A blocking line-protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects once.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Connects with retries (for freshly spawned servers).
    ///
    /// # Errors
    /// The last connect failure after `attempts` tries.
    pub fn connect_with_retries(
        addr: &str,
        attempts: usize,
        delay: Duration,
    ) -> std::io::Result<Self> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(delay);
        }
        // lint-allow: server-unwrap — the retry loop above runs at least once, so last is always Some
        Err(last.expect("at least one attempt"))
    }

    /// Sends one raw line and reads one response line, parsed as JSON.
    ///
    /// # Errors
    /// Transport failures, EOF, or an unparseable response line.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<Value> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(&response)
            .map_err(|e| std::io::Error::other(format!("bad response line: {e}")))
    }

    /// Executes a search request.
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn search(&mut self, req: &SearchRequest) -> std::io::Result<Value> {
        self.roundtrip(&req.to_line())
    }

    /// Executes several searches as one `{"batch": [...]}` request: the
    /// batch shares a single server admission slot and the response's
    /// `batch` array carries one `{ok, result|error}` object per item, in
    /// order.
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn search_batch(&mut self, reqs: &[SearchRequest]) -> std::io::Result<Value> {
        self.roundtrip(&crate::wire::batch_line(reqs))
    }

    /// Ingests one document over the wire (protocol v3): tokens are plain
    /// term strings, facets are `key:value` strings. The response carries
    /// the new `epoch`, the live `delta_docs` count, and how many terms
    /// were outside the serving vocabulary (`unknown_tokens`).
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn ingest(&mut self, tokens: &[String], facets: &[String]) -> std::io::Result<Value> {
        self.roundtrip(&crate::wire::ingest_line(tokens, facets))
    }

    /// Marks a document of the serving corpus deleted (protocol v3).
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn delete_doc(&mut self, doc: u64) -> std::io::Result<Value> {
        self.roundtrip(&crate::wire::delete_line(doc))
    }

    /// Asks the server to compact: flush the delta into a full offline
    /// rebuild and atomically swap it in (protocol v3). Blocks until the
    /// rebuild completes; queries issued on other connections keep being
    /// served from the pre-swap index throughout.
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn compact(&mut self) -> std::io::Result<Value> {
        self.roundtrip("{\"cmd\":\"compact\"}\n")
    }

    /// Fetches the server counters.
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.roundtrip("{\"cmd\":\"stats\"}\n")
    }

    /// Fetches the metrics exposition (protocol v4): the response's
    /// `metrics` field is one Prometheus-text string covering the engine
    /// and the serving layer.
    ///
    /// # Errors
    /// See [`Client::roundtrip`], plus a protocol error when the
    /// `metrics` field is missing from an ok response.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        let v = self.roundtrip("{\"cmd\":\"metrics\"}\n")?;
        v["metrics"]
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| std::io::Error::other("response carries no metrics field"))
    }

    /// Liveness check.
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn ping(&mut self) -> std::io::Result<Value> {
        self.roundtrip("{\"cmd\":\"ping\"}\n")
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    /// See [`Client::roundtrip`].
    pub fn shutdown_server(&mut self) -> std::io::Result<Value> {
        self.roundtrip("{\"cmd\":\"shutdown\"}\n")
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Successful responses that rode another request's execution.
    pub coalesced: u64,
    /// Requests shed by admission control.
    pub overloaded: u64,
    /// Everything else: transport failures, parse/query/internal errors.
    pub errors: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Completed requests (ok + shed) per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.ok + self.overloaded) as f64 / secs
        }
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent={} ok={} coalesced={} overloaded={} errors={} elapsed_ms={:.1} qps={:.0}",
            self.sent,
            self.ok,
            self.coalesced,
            self.overloaded,
            self.errors,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput(),
        )
    }
}

/// Runs `threads` closed-loop clients, each sending `requests_per_thread`
/// copies of `request` over its own connection. All threads start on a
/// barrier, so the first wave of identical requests arrives as one
/// concurrent burst — the single-flight path, not just the result cache,
/// is exercised.
///
/// # Errors
/// Only connection setup errors; per-request failures are counted in the
/// report instead.
pub fn run_load(
    addr: &str,
    threads: usize,
    requests_per_thread: usize,
    request: &SearchRequest,
) -> std::io::Result<LoadReport> {
    let threads = threads.max(1);
    let mut clients = Vec::with_capacity(threads);
    for _ in 0..threads {
        clients.push(Client::connect_with_retries(
            addr,
            25,
            Duration::from_millis(200),
        )?);
    }
    let ok = Arc::new(AtomicU64::new(0));
    let coalesced = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let started = Instant::now();
    std::thread::scope(|s| {
        for mut client in clients {
            let req = request.clone();
            let (ok, coalesced, overloaded, errors) = (
                ok.clone(),
                coalesced.clone(),
                overloaded.clone(),
                errors.clone(),
            );
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for _ in 0..requests_per_thread {
                    match client.search(&req) {
                        Ok(v) if v["ok"].as_bool() == Some(true) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            if v["server"]["coalesced"].as_bool() == Some(true) {
                                coalesced.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(v) => {
                            let kind = v["error"]["kind"].as_str().and_then(ErrorKind::from_name);
                            if kind == Some(ErrorKind::Overloaded) {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                            } else {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    Ok(LoadReport {
        sent: (threads * requests_per_thread) as u64,
        ok: ok.load(Ordering::Relaxed),
        coalesced: coalesced.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    })
}

/// Configuration of one open-loop run ([`run_open_loop`]).
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Target arrival rate, operations per second. Arrivals are scheduled
    /// deterministically at `start + i/rate` — a slow server makes
    /// operations *late*, it never thins the schedule.
    pub rate: f64,
    /// Wall-clock length of the arrival schedule.
    pub duration: Duration,
    /// Zipf exponent over the word pool: queries draw their two words
    /// rank-proportionally to `1/(rank+1)^s`, so hot words repeat across
    /// concurrent requests — the shared-scan case batching exists for.
    pub zipf_s: f64,
    /// Worker connections draining the pending queue (each synchronous).
    pub conns: usize,
    /// Every `ingest_every`-th operation is a wire ingest of zipfian
    /// tokens instead of a query; `0` disables the write mix.
    pub ingest_every: u64,
    /// Words the sampler draws from, hottest first. Rank 0 is the most
    /// likely word.
    pub word_pool: Vec<String>,
    /// Request template: `k`, algorithm, backend, budgets and the trace
    /// flag are taken from here; the query string is replaced per sample.
    pub template: SearchRequest,
    /// Client-side pending-queue bound: when the workers fall this many
    /// operations behind, further arrivals are shed at the client (the
    /// open-loop analogue of server admission control).
    pub queue_depth: usize,
    /// RNG seed: same seed + pool + schedule → same operation sequence.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            rate: 200.0,
            duration: Duration::from_secs(5),
            zipf_s: 1.1,
            conns: 4,
            ingest_every: 0,
            word_pool: Vec::new(),
            template: SearchRequest::new(String::new()),
            queue_depth: 512,
            seed: 42,
        }
    }
}

/// Aggregated outcome of an open-loop run. Latency is measured from the
/// *scheduled* arrival (not the send) to completion, so client-side queue
/// wait counts — the coordinated-omission-free number.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Arrivals the schedule produced.
    pub scheduled: u64,
    /// Successful responses (queries + ingests).
    pub ok: u64,
    /// Ingest operations among `ok`.
    pub ingests: u64,
    /// Shed operations: client-side queue overflow plus server-side
    /// `overloaded` rejections.
    pub shed: u64,
    /// Transport or structured non-overload errors.
    pub errors: u64,
    /// Completion − scheduled arrival, in milliseconds.
    pub p50_ms: f64,
    /// See `p50_ms`.
    pub p95_ms: f64,
    /// See `p50_ms`.
    pub p99_ms: f64,
    /// Client-side queue wait (worker pickup − scheduled arrival), p95 ms.
    pub queue_wait_p95_ms: f64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl std::fmt::Display for OpenLoopReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduled={} ok={} ingests={} shed={} errors={} \
             p50_ms={:.2} p95_ms={:.2} p99_ms={:.2} queue_wait_p95_ms={:.2} elapsed_ms={:.1}",
            self.scheduled,
            self.ok,
            self.ingests,
            self.shed,
            self.errors,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.queue_wait_p95_ms,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// Nearest-rank percentile of an unsorted sample, in milliseconds.
fn percentile_ms(samples: &mut [Duration], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[rank].as_secs_f64() * 1e3
}

/// One scheduled operation handed from the arrival thread to a worker.
struct OpenLoopOp {
    scheduled: Instant,
    line: String,
    is_ingest: bool,
}

/// Runs an open-loop zipfian workload against a serving process.
///
/// The arrival thread walks a deterministic schedule at `config.rate`,
/// sampling two-word `OR` queries (and, when configured, ingests) from a
/// zipfian word distribution, and pushes each operation into a bounded
/// queue; `config.conns` worker connections drain it synchronously.
/// Because arrivals never wait for completions, the reported p99 reflects
/// what a real open client population would observe.
///
/// # Errors
/// Connection setup and empty-word-pool configuration errors; per-request
/// failures are counted in the report instead.
pub fn run_open_loop(addr: &str, config: &OpenLoopConfig) -> std::io::Result<OpenLoopReport> {
    if config.word_pool.is_empty() {
        return Err(std::io::Error::other("open-loop word pool is empty"));
    }
    if !(config.rate.is_finite() && config.rate > 0.0) {
        return Err(std::io::Error::other("open-loop rate must be positive"));
    }
    let conns = config.conns.max(1);
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(Client::connect_with_retries(
            addr,
            25,
            Duration::from_millis(200),
        )?);
    }

    let zipf = ipm_corpus::synth::Zipf::new(config.word_pool.len(), config.zipf_s);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let queue: BoundedQueue<OpenLoopOp> = BoundedQueue::new(config.queue_depth);

    let scheduled = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let ingests = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let queue_waits: Mutex<Vec<Duration>> = Mutex::new(Vec::new());

    let started = Instant::now();
    std::thread::scope(|s| {
        let (queue, ok, ingests, shed, errors) = (&queue, &ok, &ingests, &shed, &errors);
        let (latencies, queue_waits) = (&latencies, &queue_waits);
        for mut client in clients {
            s.spawn(move || {
                let mut my_lat = Vec::new();
                let mut my_wait = Vec::new();
                while let Some(op) = queue.pop() {
                    my_wait.push(op.scheduled.elapsed());
                    match client.roundtrip(&op.line) {
                        Ok(v) if v["ok"].as_bool() == Some(true) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            if op.is_ingest {
                                ingests.fetch_add(1, Ordering::Relaxed);
                            }
                            my_lat.push(op.scheduled.elapsed());
                        }
                        Ok(v) => {
                            let kind = v["error"]["kind"].as_str().and_then(ErrorKind::from_name);
                            if kind == Some(ErrorKind::Overloaded) {
                                shed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(my_lat);
                queue_waits.lock().unwrap().extend(my_wait);
            });
        }

        // The arrival process: fixed schedule, never blocked by workers.
        let interval = Duration::from_secs_f64(1.0 / config.rate);
        let mut i: u64 = 0;
        loop {
            let due = started + interval * (i.min(u64::from(u32::MAX)) as u32);
            let now = Instant::now();
            if now.duration_since(started) >= config.duration {
                break;
            }
            if due > now {
                std::thread::sleep(due - now);
            }
            scheduled.fetch_add(1, Ordering::Relaxed);
            let is_ingest = config.ingest_every > 0 && (i + 1).is_multiple_of(config.ingest_every);
            let line = if is_ingest {
                // A short zipfian document: hot words dominate writes
                // just like reads, so the delta overlay stays relevant
                // to the queries in flight.
                let tokens: Vec<String> = (0..6)
                    .map(|_| config.word_pool[zipf.sample(&mut rng)].clone())
                    .collect();
                crate::wire::ingest_line(&tokens, &[])
            } else {
                let a = zipf.sample(&mut rng);
                let b = zipf.sample(&mut rng);
                let mut req = config.template.clone();
                req.query = format!("{} OR {}", config.word_pool[a], config.word_pool[b]);
                req.to_line()
            };
            match queue.try_push(OpenLoopOp {
                scheduled: due.max(started),
                line,
                is_ingest,
            }) {
                Ok(()) => {}
                Err(PushError::Full) => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(PushError::Closed) => break,
            }
            i += 1;
        }
        queue.close();
    });

    // lint-allow: server-unwrap — client-side report assembly after every scope thread joined (a worker panic already propagated through the scope), not a serving connection path
    let mut lat = latencies.into_inner().unwrap();
    // lint-allow: server-unwrap — same: post-join client-side mutex teardown, no connection to disconnect
    let mut waits = queue_waits.into_inner().unwrap();
    Ok(OpenLoopReport {
        scheduled: scheduled.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        ingests: ingests.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        p50_ms: percentile_ms(&mut lat, 0.50),
        p95_ms: percentile_ms(&mut lat, 0.95),
        p99_ms: percentile_ms(&mut lat, 0.99),
        queue_wait_p95_ms: percentile_ms(&mut waits, 0.95),
        elapsed: started.elapsed(),
    })
}
