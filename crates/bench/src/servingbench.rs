//! Schema for `BENCH_serving.json` — the serving-latency artifact written
//! at the repo root by `benches/serving.rs`.
//!
//! The bench drives closed-loop clients over loopback TCP and feeds every
//! request's wall time into an [`ipm_obs::Histogram`] — the same
//! fixed-bucket log-scale histogram the engine exports as
//! `ipm_query_latency_seconds` — so the artifact's p50/p95/p99 are
//! computed by exactly the machinery a metrics scrape would use. The
//! shape is versioned and validated before the write (and the committed
//! file is re-validated in CI), so schema drift fails loudly.

use crate::{obj, ordered_percentiles, rows, uint, Kind, Schema};
use ipm_obs::HistogramSnapshot;
use serde_json::Value;

/// Bump when the JSON shape changes; CI pins the current value.
pub const SCHEMA_VERSION: u64 = 1;

/// One serving-latency cell: a (backend, concurrency level) pair.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Backend name as the wire protocol spells it (`memory|disk|block`).
    pub backend: String,
    /// Closed-loop client threads driving the cell.
    pub clients: usize,
    /// Requests measured (the histogram's sample count).
    pub samples: u64,
    /// Median request latency, microseconds (histogram bucket bound).
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Mean request latency, microseconds (histogram sum / count).
    pub mean_us: f64,
}

impl ServingRow {
    /// Builds a row from a latency histogram snapshot (values in
    /// seconds, as observed by [`ipm_obs::Histogram::observe`]).
    pub fn from_snapshot(backend: &str, clients: usize, snap: &HistogramSnapshot) -> Self {
        let (p50, p95, p99) = snap.percentiles();
        let mean = if snap.count() == 0 {
            0.0
        } else {
            snap.sum() / snap.count() as f64
        };
        Self {
            backend: backend.to_owned(),
            clients,
            samples: snap.count(),
            p50_us: p50 * 1e6,
            p95_us: p95 * 1e6,
            p99_us: p99 * 1e6,
            mean_us: mean * 1e6,
        }
    }
}

/// Assembles the full `BENCH_serving.json` document.
pub fn report(
    corpus: &str,
    k: usize,
    workers: usize,
    queue_depth: usize,
    rows: &[ServingRow],
) -> Value {
    let latency_rows: Vec<Value> = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("clients", Value::from(r.clients)),
                ("samples", Value::from(r.samples)),
                ("p50_us", Value::from(r.p50_us)),
                ("p95_us", Value::from(r.p95_us)),
                ("p99_us", Value::from(r.p99_us)),
                ("mean_us", Value::from(r.mean_us)),
            ])
        })
        .collect();
    obj(vec![
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("corpus", Value::from(corpus)),
        ("k", Value::from(k)),
        ("workers", Value::from(workers)),
        ("queue_depth", Value::from(queue_depth)),
        ("latency_us", Value::Array(latency_rows)),
    ])
}

const SCHEMA: Schema = Schema {
    version: SCHEMA_VERSION,
    fields: &[
        ("corpus", Kind::Str),
        ("k", Kind::UInt),
        ("workers", Kind::UInt),
        ("queue_depth", Kind::UInt),
        (
            "latency_us",
            Kind::Rows(&[
                ("backend", Kind::Str),
                ("clients", Kind::UInt),
                ("samples", Kind::UInt),
                ("p50_us", Kind::Num),
                ("p95_us", Kind::Num),
                ("p99_us", Kind::Num),
                ("mean_us", Kind::Num),
            ]),
        ),
    ],
    invariants,
};

/// Structural check for the artifact — run before every write, and by CI
/// against the committed file.
pub fn validate(v: &Value) -> Result<(), String> {
    SCHEMA.check(v)
}

/// What the field table cannot say: every cell had a client and samples,
/// and its percentiles are ordered.
fn invariants(v: &Value) -> Result<(), String> {
    let latency = rows(v, "latency_us");
    if latency.is_empty() {
        return Err("latency_us is empty".into());
    }
    for row in latency {
        if uint(row, "clients") == 0 {
            return Err("clients must be at least 1".into());
        }
        if uint(row, "samples") == 0 {
            return Err("a latency row with zero samples".into());
        }
        ordered_percentiles(row, &["p50_us", "p95_us", "p99_us"])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_obs::Histogram;
    use std::time::Duration;

    fn sample_rows() -> Vec<ServingRow> {
        let h = Histogram::new();
        for us in [90u64, 120, 150, 400, 2000] {
            h.observe(Duration::from_micros(us));
        }
        vec![ServingRow::from_snapshot("memory", 4, &h.snapshot())]
    }

    #[test]
    fn report_round_trips_and_validates() {
        let v = report("synth-tiny", 5, 8, 256, &sample_rows());
        validate(&v).unwrap();
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back["latency_us"][0]["backend"], "memory");
        assert_eq!(back["latency_us"][0]["samples"].as_u64(), Some(5));
    }

    #[test]
    fn row_percentiles_come_from_the_histogram() {
        let row = &sample_rows()[0];
        assert_eq!(row.samples, 5);
        // Log-scale buckets: each percentile is its bucket's upper bound,
        // and the ordering p50 <= p95 <= p99 is structural.
        assert!(row.p50_us >= 90.0);
        assert!(row.p50_us <= row.p95_us);
        assert!(row.p95_us <= row.p99_us);
        assert!(row.mean_us > 0.0);
    }

    #[test]
    fn validate_rejects_drift() {
        // Wrong version.
        let mut v = report("c", 5, 1, 1, &sample_rows());
        if let Value::Object(map) = &mut v {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        assert!(validate(&v).is_err());
        // Empty latency table.
        assert!(validate(&report("c", 5, 1, 1, &[])).is_err());
        // Zero samples.
        let empty = ServingRow::from_snapshot("memory", 1, &Histogram::new().snapshot());
        assert!(validate(&report("c", 5, 1, 1, &[empty])).is_err());
        // Non-monotone percentiles.
        let mut bad = sample_rows();
        bad[0].p99_us = 0.5;
        assert!(validate(&report("c", 5, 1, 1, &bad)).is_err());
    }
}
