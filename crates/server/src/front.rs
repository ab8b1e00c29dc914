//! The connection front end both serving tiers share: the accept loop,
//! the line-framed connection loop, the shutdown handshake, the handle
//! lifecycle and the control verbs (`ping`, `metrics`, `shutdown`).
//!
//! A tier — the [`crate::server`] worker pool or the [`crate::router`]
//! coordinator — plugs in through [`Tier`]: it answers every other
//! request line, and may hook the start of shutdown (the server closes
//! its admission queue) and unparseable lines (the server counts them as
//! protocol errors). Everything between the socket and those hooks is
//! written once, here.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ipm_core::QueryEngine;
use ipm_obs::{Counter, Gauge};
use serde_json::Value;

use crate::wire::{self, ErrorKind, WireRequest};

/// Longest request line a tier buffers before giving up on the
/// connection — without a cap, a peer that never sends `\n` would grow
/// the per-connection buffer until the process OOMs. The router's shard
/// RPCs bound response lines by the same figure.
pub(crate) const MAX_LINE_BYTES: usize = 256 * 1024;

/// One serving tier behind the shared front end.
pub(crate) trait Tier: Send + Sync + 'static {
    /// The tier's name in its connection metrics (`ipm_<NAME>_…`) and
    /// thread names: `server` or `router`.
    const NAME: &'static str;

    /// The tier's connection-handling state.
    fn front(&self) -> &Front;

    /// The engine whose registry the `metrics` verb renders.
    fn engine(&self) -> &QueryEngine;

    /// Answers one parsed request line that is not a control verb the
    /// front end answers itself.
    fn serve(shared: &Arc<Self>, req: WireRequest) -> String;

    /// Runs once, when shutdown begins, before the acceptor is woken.
    fn on_shutdown(&self) {}

    /// Runs for every request line that cannot be parsed or exceeds
    /// [`MAX_LINE_BYTES`].
    fn on_bad_line(&self) {}
}

/// The connection-handling state every tier carries: the bound address,
/// the shutdown flag, the live connection threads and the connection
/// metrics.
pub(crate) struct Front {
    addr: SocketAddr,
    shutdown: AtomicBool,
    connections: Mutex<Vec<JoinHandle<()>>>,
    accepted: Counter,
    conn_errors: Counter,
    active: Gauge,
}

impl Front {
    /// Registers the tier's connection metrics on `engine`'s registry.
    pub(crate) fn new(engine: &QueryEngine, tier: &str, addr: SocketAddr) -> Self {
        let r = engine.metrics_registry();
        Self {
            addr,
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            accepted: r.counter(
                &format!("ipm_{tier}_connections_total"),
                "TCP connections accepted by the serving loop.",
            ),
            conn_errors: r.counter(
                &format!("ipm_{tier}_connection_errors_total"),
                "Connections dropped by setup failures (thread spawn, stream clone).",
            ),
            active: r.gauge(
                &format!("ipm_{tier}_active_connections"),
                "Connections currently open.",
            ),
        }
    }

    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has begun.
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running tier's threads. Dropping it shuts the tier down.
pub(crate) struct Running<T: Tier> {
    pub(crate) shared: Arc<T>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Tier> Running<T> {
    /// Spawns the acceptor on `listener`. `workers` are the tier's own
    /// threads, joined after the acceptor at shutdown.
    pub(crate) fn start(
        shared: Arc<T>,
        listener: TcpListener,
        workers: Vec<JoinHandle<()>>,
    ) -> Self {
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("ipm-{}-accept", T::NAME))
                .spawn(move || accept_loop(&shared, listener))
                // lint-allow: server-unwrap — startup spawn: a tier that cannot start its acceptor must not come up
                .expect("spawn acceptor")
        };
        Self {
            shared,
            accept: Some(accept),
            workers,
        }
    }

    /// Begins (idempotently) and completes a graceful shutdown: stops
    /// accepting, lets the tier's threads drain, joins every thread.
    pub(crate) fn shutdown(&mut self) {
        begin_shutdown(&self.shared);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let conns: Vec<_> = std::mem::take(&mut *self.shared.front().connections.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
    }

    /// Blocks until a shutdown is requested (e.g. by the protocol verb),
    /// then completes it.
    pub(crate) fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shutdown();
    }
}

impl<T: Tier> Drop for Running<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flips the shutdown flag once: runs the tier's hook and wakes the
/// acceptor.
fn begin_shutdown<T: Tier>(shared: &Arc<T>) {
    if shared.front().shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.on_shutdown();
    // Wake the blocking accept() with a throwaway connection.
    let _ = TcpStream::connect(shared.front().addr);
}

fn accept_loop<T: Tier>(shared: &Arc<T>, listener: TcpListener) {
    let front = shared.front();
    for stream in listener.incoming() {
        if front.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = shared.clone();
        let handle = match std::thread::Builder::new()
            .name(format!("ipm-{}-conn", T::NAME))
            .spawn(move || connection_loop(&conn_shared, stream))
        {
            Ok(h) => h,
            Err(_) => {
                // Thread exhaustion must not take the accept loop (and
                // with it the whole tier) down: drop this connection —
                // the peer sees a clean close — and keep accepting.
                front.conn_errors.inc();
                continue;
            }
        };
        let mut conns = front.connections.lock().unwrap();
        // Reap finished connection threads as we go: a long-lived tier
        // handling many short-lived connections must not accumulate
        // handles (and their thread resources) until shutdown.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        conns.push(handle);
    }
}

fn connection_loop<T: Tier>(shared: &Arc<T>, stream: TcpStream) {
    let front = shared.front();
    front.accepted.inc();
    front.active.inc();
    let _ = stream.set_nodelay(true);
    // A short read timeout lets the loop observe shutdown without a
    // dedicated wakeup channel per connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            // A stream that cannot be cloned cannot be answered; treat
            // it as an immediate disconnect, not a thread panic.
            front.conn_errors.inc();
            front.active.dec();
            return;
        }
    };
    let mut reader = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    'conn: loop {
        // Serve every complete line already buffered.
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = pending.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (response, close) = serve_line(shared, line);
            if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
                break 'conn;
            }
            if close {
                break 'conn;
            }
        }
        if front.is_shutting_down() {
            break;
        }
        match reader.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => {
                pending.extend_from_slice(&buf[..n]);
                if pending.len() > MAX_LINE_BYTES && !pending.contains(&b'\n') {
                    shared.on_bad_line();
                    let err = wire::error_line(
                        ErrorKind::Parse,
                        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    );
                    let _ = writer.write_all(err.as_bytes());
                    let _ = writer.flush();
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    front.active.dec();
}

/// Answers one request line; `true` closes the connection afterwards.
fn serve_line<T: Tier>(shared: &Arc<T>, line: &str) -> (String, bool) {
    match wire::parse_request(line) {
        Err(msg) => {
            shared.on_bad_line();
            (wire::error_line(ErrorKind::Parse, &msg), false)
        }
        Ok(WireRequest::Ping) => (wire::ok_line(vec![("pong", Value::from(true))]), false),
        // Prometheus text exposition, shipped as one JSON string field so
        // the line-delimited framing stays intact (protocol v4).
        Ok(WireRequest::Metrics) => (
            wire::ok_line(vec![(
                "metrics",
                Value::String(shared.engine().render_metrics()),
            )]),
            false,
        ),
        Ok(WireRequest::Shutdown) => {
            begin_shutdown(shared);
            (wire::ok_line(vec![("bye", Value::from(true))]), true)
        }
        Ok(req) => (T::serve(shared, req), false),
    }
}
