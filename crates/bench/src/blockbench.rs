//! Schema for `BENCH_blocklists.json` — the block-backend benchmark
//! artifact written at the repo root by `benches/blocklists.rs`.
//!
//! The bench target samples end-to-end query latency per algorithm ×
//! backend and records the index footprint of each backend next to the
//! flat 12-byte-per-entry model (§4.2.2), so the compression win and its
//! runtime cost live in one file. The shape is versioned and checked here
//! (unit-tested, and re-validated by the bench before it writes) so CI
//! can fail on schema drift instead of silently shipping a stale file.

use crate::{obj, ordered_percentiles, rows, text, Kind, Schema};
use serde_json::Value;

/// Bump when the JSON shape changes; CI pins the current value.
pub const SCHEMA_VERSION: u64 = 2;

/// One latency measurement: an (algorithm, backend) cell.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Backend name as the wire protocol spells it (`memory|disk|block`).
    pub backend: String,
    /// Algorithm name as the wire protocol spells it.
    pub algorithm: String,
    /// Number of measured iterations behind the percentiles.
    pub samples: usize,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
}

/// One footprint measurement: a backend's resident index bytes against
/// the flat model over the same entries.
#[derive(Debug, Clone)]
pub struct FootprintRow {
    /// Backend name (`memory|disk|block`).
    pub backend: String,
    /// Bytes the backend actually holds.
    pub size_bytes: u64,
    /// The same entries at 12 bytes each (both list orders).
    pub flat_bytes: u64,
    /// `flat_bytes / size_bytes` — > 1 means the backend compresses.
    pub compression_ratio: f64,
}

/// Nearest-rank percentile over an ascending-sorted sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Assembles the full `BENCH_blocklists.json` document.
pub fn report(
    corpus: &str,
    k: usize,
    latencies: &[LatencyRow],
    footprints: &[FootprintRow],
) -> Value {
    let latency_rows: Vec<Value> = latencies
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("algorithm", Value::from(r.algorithm.as_str())),
                ("samples", Value::from(r.samples)),
                ("p50_us", Value::from(r.p50_us)),
                ("p95_us", Value::from(r.p95_us)),
            ])
        })
        .collect();
    let footprint_rows: Vec<Value> = footprints
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("size_bytes", Value::from(r.size_bytes)),
                ("flat_bytes", Value::from(r.flat_bytes)),
                ("compression_ratio", Value::from(r.compression_ratio)),
            ])
        })
        .collect();
    obj(vec![
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("corpus", Value::from(corpus)),
        ("k", Value::from(k)),
        ("latency_us", Value::Array(latency_rows)),
        ("footprint", Value::Array(footprint_rows)),
    ])
}

const SCHEMA: Schema = Schema {
    version: SCHEMA_VERSION,
    fields: &[
        ("corpus", Kind::Str),
        ("k", Kind::UInt),
        (
            "latency_us",
            Kind::Rows(&[
                ("backend", Kind::Str),
                ("algorithm", Kind::Str),
                ("samples", Kind::UInt),
                ("p50_us", Kind::Num),
                ("p95_us", Kind::Num),
            ]),
        ),
        (
            "footprint",
            Kind::Rows(&[
                ("backend", Kind::Str),
                ("size_bytes", Kind::UInt),
                ("flat_bytes", Kind::UInt),
                ("compression_ratio", Kind::Num),
            ]),
        ),
    ],
    invariants,
};

/// Structural check for the artifact — the bench runs this before
/// writing, and `ipm bench-check` runs it against the committed file.
pub fn validate(v: &Value) -> Result<(), String> {
    SCHEMA.check(v)
}

/// What the field table cannot say: latencies were measured and their
/// percentiles are ordered, and the block backend's footprint is on
/// record.
fn invariants(v: &Value) -> Result<(), String> {
    let latency = rows(v, "latency_us");
    if latency.is_empty() {
        return Err("latency_us is empty".into());
    }
    for row in latency {
        ordered_percentiles(row, &["p50_us", "p95_us"])?;
    }
    let footprint = rows(v, "footprint");
    if !footprint.iter().any(|row| text(row, "backend") == "block") {
        return Err("footprint has no block backend row".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        report(
            "synth-tiny",
            10,
            &[LatencyRow {
                backend: "block".into(),
                algorithm: "nra".into(),
                samples: 25,
                p50_us: 140.0,
                p95_us: 300.5,
            }],
            &[FootprintRow {
                backend: "block".into(),
                size_bytes: 4096,
                flat_bytes: 12288,
                compression_ratio: 3.0,
            }],
        )
    }

    #[test]
    fn report_round_trips_and_validates() {
        let v = sample();
        validate(&v).unwrap();
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back["latency_us"][0]["algorithm"], "nra");
        assert_eq!(back["footprint"][0]["compression_ratio"], 3.0);
    }

    #[test]
    fn validate_rejects_drift() {
        // Wrong version.
        let mut v = sample();
        if let Value::Object(map) = &mut v {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        assert!(validate(&v).is_err());
        // Missing block footprint row.
        let lat = [LatencyRow {
            backend: "memory".into(),
            algorithm: "ta".into(),
            samples: 1,
            p50_us: 1.0,
            p95_us: 1.0,
        }];
        let v = report("c", 5, &lat, &[]);
        assert!(validate(&v).is_err());
        // Empty latency table.
        let v = report("c", 5, &[], &[]);
        assert!(validate(&v).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 0.50), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[42.0], 0.5), 42.0);
    }
}
