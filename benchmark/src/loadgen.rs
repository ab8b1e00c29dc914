//! The load generator: an open loop paced from a fixed schedule and a
//! closed loop of waiting callers, both over plain blocking sockets.
//!
//! The generator shares two cores with the server it measures, so it does
//! as little per operation as it can: lines are pre-rendered, responses
//! are read as raw lines and classified by a substring test, and JSON is
//! parsed only in the verify pass.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::workload::Op;

/// One blocking line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    response: String,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            response: String::new(),
        })
    }

    /// Sends one newline-terminated line and returns the response line.
    pub fn exchange(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(&self.response)
    }

    /// Sends `op` and reports whether every part of it succeeded.
    pub fn send(&mut self, op: &Op) -> bool {
        self.exchange(&op.line).map(answered_ok).unwrap_or(false)
    }
}

/// Whether a response line reports success for the whole request. The
/// server prints objects with sorted keys and no spaces, and a quote
/// inside a string value is escaped, so `"ok":false` can only be a real
/// field — the line's own or one batch member's.
pub fn answered_ok(response: &str) -> bool {
    response.contains("\"ok\":true") && !response.contains("\"ok\":false")
}

/// What one open-loop thread saw.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopSamples {
    /// Completion minus due time of each answered search line, ms.
    pub read_latency_ms: Vec<f64>,
    /// When each of those lines was due, seconds into the phase.
    pub read_due_s: Vec<f64>,
    /// The same for ingest lines.
    pub write_latency_ms: Vec<f64>,
    /// Send minus due time of every line, ms: how late the generator ran.
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl OpenLoopSamples {
    pub fn merge(&mut self, other: OpenLoopSamples) {
        self.read_latency_ms.extend(other.read_latency_ms);
        self.read_due_s.extend(other.read_due_s);
        self.write_latency_ms.extend(other.write_latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

impl OpenLoopSamples {
    /// The `p`-th percentile of read latency within each of `windows`
    /// equal slices of a phase `duration` long (by due time), then the
    /// median of those. One stalled slice — a descheduled VM, a page-cache
    /// flush — moves one window, not the reported number; a slowdown that
    /// lasts moves them all.
    pub fn windowed_percentile_ms(&self, p: f64, windows: usize, duration: Duration) -> f64 {
        let width = duration.as_secs_f64() / windows as f64;
        let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for (&ms, &due) in self.read_latency_ms.iter().zip(&self.read_due_s) {
            by_window[((due / width) as usize).min(windows - 1)].push(ms);
        }
        let per_window: Vec<f64> = by_window
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| {
                crate::stats::sort(w);
                crate::stats::percentile(w, p)
            })
            .collect();
        crate::stats::median(&per_window)
    }
}

/// Runs one thread's share of an open-loop schedule: operation `i` of the
/// whole schedule is due at `start + i / rate`, and this thread owns
/// `i = first, first + stride, ...` until the due time passes `duration`.
/// Latency is completion minus *due* time, so a stall delays — and is
/// charged to — every operation scheduled behind it; nothing is skipped.
pub fn open_loop_thread(
    ops: &[Op],
    first: usize,
    stride: usize,
    rate: f64,
    duration: Duration,
    start: Instant,
    mut send: impl FnMut(&Op) -> bool,
) -> OpenLoopSamples {
    let mut out = OpenLoopSamples::default();
    let mut i = first;
    loop {
        let offset = Duration::from_secs_f64(i as f64 / rate);
        if offset >= duration {
            return out;
        }
        let due = start + offset;
        // Sleep, not spin: the generator shares its core with the server.
        // The timer's overshoot (tens of microseconds) is part of every
        // latency and shows in the lateness samples.
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let op = &ops[i % ops.len()];
        out.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let ok = send(op);
        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        } else if op.is_write() {
            out.write_latency_ms.push(latency_ms);
        } else {
            out.read_latency_ms.push(latency_ms);
            out.read_due_s.push(offset.as_secs_f64());
        }
        i += stride;
    }
}

/// Open loop over `conns` connections to `addr`.
pub fn open_loop(
    addr: &str,
    ops: &[Op],
    rate: f64,
    duration: Duration,
    conns: usize,
) -> std::io::Result<OpenLoopSamples> {
    let mut connections = (0..conns)
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let mut all = OpenLoopSamples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                s.spawn(move || {
                    crate::affinity::pin_to_serving_core();
                    open_loop_thread(ops, t, conns, rate, duration, start, |op| conn.send(op))
                })
            })
            .collect();
        for h in handles {
            all.merge(h.join().expect("open-loop thread panicked"));
        }
    });
    Ok(all)
}

/// What a closed-loop phase saw.
#[derive(Debug, Default, Clone)]
pub struct ClosedLoopResult {
    /// Searches answered in each full window, per second.
    pub window_qps: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// One closed-loop caller: sends `ops` cyclically from `offset`, each
/// after the previous answer, until `start + windows * window`; books each
/// answered line's searches to the window its answer arrived in.
pub fn closed_loop_thread(
    ops: &[Op],
    offset: usize,
    windows: usize,
    window: Duration,
    start: Instant,
    mut send: impl FnMut(&Op) -> bool,
) -> (Vec<u64>, u64, u64) {
    let mut answered = vec![0u64; windows];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut i = offset;
    loop {
        let op = &ops[i % ops.len()];
        let ok = send(op);
        let w = (start.elapsed().as_secs_f64() / window.as_secs_f64()) as usize;
        if w >= windows {
            return (answered, attempted, failed);
        }
        attempted += 1;
        if ok {
            answered[w] += op.searches as u64;
        } else {
            failed += 1;
        }
        i += 1;
    }
}

/// Closed loop of `conns` callers for `windows` windows of `window` each.
/// Callers start evenly spread over the sequence, so they do not send the
/// same line at the same moment (which single-flight would coalesce).
pub fn closed_loop(
    addr: &str,
    ops: &[Op],
    conns: usize,
    windows: usize,
    window: Duration,
) -> std::io::Result<ClosedLoopResult> {
    let mut connections = (0..conns)
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let mut answered = vec![0u64; windows];
    let mut result = ClosedLoopResult::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                let offset = t * ops.len() / conns;
                s.spawn(move || {
                    crate::affinity::pin_to_serving_core();
                    closed_loop_thread(ops, offset, windows, window, start, |op| conn.send(op))
                })
            })
            .collect();
        for h in handles {
            let (a, attempted, failed) = h.join().expect("closed-loop thread panicked");
            for (total, n) in answered.iter_mut().zip(a) {
                *total += n;
            }
            result.attempted += attempted;
            result.failed += failed;
        }
    });
    result.window_qps = answered
        .iter()
        .map(|&n| n as f64 / window.as_secs_f64())
        .collect();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                line: format!("{i}\n"),
                searches: 1,
            })
            .collect()
    }

    #[test]
    fn response_classification() {
        assert!(answered_ok("{\"ok\":true,\"result\":{}}\n"));
        assert!(!answered_ok(
            "{\"error\":{\"kind\":\"overloaded\"},\"ok\":false}\n"
        ));
        // One failed batch member fails the line.
        assert!(!answered_ok(
            "{\"batch\":[{\"ok\":true},{\"error\":{},\"ok\":false}],\"ok\":true}\n"
        ));
        // An escaped quote inside a phrase text is not a field.
        assert!(answered_ok("{\"ok\":true,\"text\":\"\\\"ok\\\":false\"}\n"));
        assert!(!answered_ok(""));
    }

    /// A 50 ms stall on the third operation of a 100/s schedule: the
    /// stalled operation and the four due during the stall are all
    /// charged from their due times, and lateness shows the generator
    /// itself fell behind by the same amounts.
    #[test]
    fn stall_is_charged_from_due_time() {
        let ops = ops(8);
        let stall = Duration::from_millis(50);
        let mut n = 0;
        let out = open_loop_thread(
            &ops,
            0,
            1,
            100.0,
            Duration::from_millis(200),
            Instant::now(),
            |_| {
                n += 1;
                if n == 3 {
                    std::thread::sleep(stall);
                }
                true
            },
        );
        assert_eq!(out.attempted, 20, "nothing is skipped");
        assert_eq!(out.failed, 0);
        let lat = &out.read_latency_ms;
        assert!(lat[1] < 5.0, "before the stall: {lat:?}");
        assert!(lat[2] >= 50.0, "the stalled operation: {lat:?}");
        // Operations 3..=6 were due 10, 20, 30, 40 ms into the stall.
        for (i, want) in [(3, 40.0), (4, 30.0), (5, 20.0), (6, 10.0)] {
            assert!(
                lat[i] >= want && lat[i] < want + 8.0,
                "op {i} waited {} ms, want about {want}",
                lat[i]
            );
            assert!(out.lateness_ms[i] >= want, "lateness of op {i}");
        }
        assert!(
            lat[9] < 5.0 && out.lateness_ms[9] < 5.0,
            "caught up: {lat:?}"
        );
    }

    #[test]
    fn open_loop_threads_partition_the_schedule() {
        let ops = ops(5);
        let mut seen = Vec::new();
        let start = Instant::now();
        for t in 0..2 {
            open_loop_thread(&ops, t, 2, 1000.0, Duration::from_millis(10), start, |op| {
                seen.push(op.line.clone());
                true
            });
        }
        seen.sort();
        assert_eq!(seen.len(), 10);
        assert_eq!(seen.iter().filter(|l| *l == "0\n").count(), 2);
    }

    #[test]
    fn closed_loop_books_answers_to_windows() {
        let ops = vec![
            Op {
                line: "batch\n".into(),
                searches: 16,
            },
            Op {
                line: "ingest\n".into(),
                searches: 0,
            },
        ];
        let (answered, attempted, failed) = closed_loop_thread(
            &ops,
            0,
            2,
            Duration::from_millis(20),
            Instant::now(),
            |op| {
                std::thread::sleep(Duration::from_millis(1));
                !op.is_write()
            },
        );
        assert_eq!(answered.len(), 2);
        assert!(answered.iter().all(|&n| n > 0 && n % 16 == 0));
        assert_eq!(failed * 2, attempted - attempted % 2);
    }
}
