//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans stay in memory while a traced run measures and are written to
//! `benchmark/out/trace-<workload>.json` when it ends. A span's self time
//! is its duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already-measured interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the span's index.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, request))
    }

    /// Opens a span whose end is set later with [`Recorder::close`] — for
    /// a parent that must exist before its children are recorded.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, nanoseconds: duration minus the union of
    /// its children's intervals (clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Per span name: the durations and self times, microseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
        let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = out.entry(s.name).or_default();
            entry.0.push(s.duration_ns() as f64 / 1e3);
            entry.1.push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Writes the spans to `benchmark/out/trace-<workload>.json`.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let self_times = self.self_times_ns();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .zip(self_times)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Value::Object(BTreeMap::from([
                    ("id".to_owned(), Value::from(id)),
                    ("name".to_owned(), Value::from(s.name)),
                    ("start_ns".to_owned(), Value::from(s.start_ns)),
                    ("end_ns".to_owned(), Value::from(s.end_ns)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, Value::from),
                    ),
                    ("request".to_owned(), Value::from(s.request)),
                    ("self_ns".to_owned(), Value::from(self_ns)),
                ]))
            })
            .collect();
        let doc = Value::Object(BTreeMap::from([
            ("workload".to_owned(), Value::from(workload)),
            ("spans".to_owned(), Value::Array(spans)),
        ]));
        let text = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut r = Recorder::new();
        let root = r.record("request", 0, 100, None, 1);
        // Two overlapping children cover [10, 50); a third sticks out past
        // the parent and is clipped to [90, 100).
        let a = r.record("a", 10, 40, Some(root), 1);
        r.record("b", 30, 50, Some(root), 1);
        r.record("c", 90, 120, Some(root), 1);
        // A grandchild only reduces its own parent's self time.
        r.record("a1", 10, 25, Some(a), 1);
        assert_eq!(r.self_times_ns(), vec![50, 15, 20, 30, 15]);
        let by_name = r.by_name();
        assert_eq!(by_name["request"], (vec![0.1], vec![0.05]));
    }

    #[test]
    fn open_spans_close_after_their_children() {
        let mut r = Recorder::new();
        let root = r.open("request", None, 7);
        let ((), child) = r.within("child", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(root);
        let (root, child) = (&r.spans()[root], &r.spans()[child]);
        assert_eq!(child.parent, Some(0));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(child.duration_ns() >= 2_000_000);
        assert_eq!((root.request, child.request), (7, 7));
    }
}
