//! Schema for `BENCH_batch.json` — the shared-scan batch-execution
//! benchmark artifact written at the repo root by `benches/batch.rs`.
//!
//! The bench target runs a zipfian shared-word workload (many concurrent
//! queries drawing their words from the hot head of the vocabulary) two
//! ways: N independent `execute_with_budget` calls (the serial baseline)
//! and one `execute_batch` call (the fused shared-scan path with the
//! decoded-block cache). Each row records the aggregate latency of both
//! and the decode-cache hit rate the fused run achieved. The validator
//! enforces the PR's acceptance bound: on the block backend the fused
//! aggregate must stay at or below 0.6× the serial aggregate, with a
//! decode-cache hit rate above 50% — so CI fails when the fusion win
//! regresses, not just when the schema drifts.

use crate::{num, obj, rows, text, uint, Fields, Kind, Schema};
use serde_json::Value;

/// Bump when the JSON shape changes; CI pins the current value.
pub const SCHEMA_VERSION: u64 = 1;

/// The acceptance bound on the block backend: fused aggregate latency
/// must be ≤ this fraction of the serial aggregate.
pub const MAX_FUSED_RATIO: f64 = 0.6;

/// The acceptance floor for the decode-cache hit rate on block rows.
pub const MIN_HIT_RATE: f64 = 0.5;

/// One workload measurement: a (backend, algorithm) cell of the zipfian
/// shared-word scenario.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Backend name as the wire protocol spells it (`memory|disk|block`).
    pub backend: String,
    /// Algorithm name as the wire protocol spells it.
    pub algorithm: String,
    /// Aggregate latency of the serial per-item baseline, microseconds.
    pub serial_total_us: f64,
    /// Aggregate (wall-clock) latency of the fused batch, microseconds.
    pub fused_total_us: f64,
    /// `serial_total_us / fused_total_us`.
    pub speedup: f64,
    /// Shared-scan groups the planner formed for the batch.
    pub groups: u64,
    /// Decoded-block cache hits during the fused run.
    pub decode_cache_hits: u64,
    /// Decoded-block cache misses during the fused run.
    pub decode_cache_misses: u64,
    /// `hits / (hits + misses)`; 0 when the backend never decodes.
    pub decode_cache_hit_rate: f64,
}

/// Assembles the full `BENCH_batch.json` document.
pub fn report(corpus: &str, k: usize, queries: usize, zipf_s: f64, rows: &[BatchRow]) -> Value {
    let row_values: Vec<Value> = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("backend", Value::from(r.backend.as_str())),
                ("algorithm", Value::from(r.algorithm.as_str())),
                ("serial_total_us", Value::from(r.serial_total_us)),
                ("fused_total_us", Value::from(r.fused_total_us)),
                ("speedup", Value::from(r.speedup)),
                ("groups", Value::from(r.groups)),
                ("decode_cache_hits", Value::from(r.decode_cache_hits)),
                ("decode_cache_misses", Value::from(r.decode_cache_misses)),
                (
                    "decode_cache_hit_rate",
                    Value::from(r.decode_cache_hit_rate),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("corpus", Value::from(corpus)),
        ("k", Value::from(k)),
        ("queries", Value::from(queries)),
        ("zipf_s", Value::from(zipf_s)),
        ("rows", Value::Array(row_values)),
    ])
}

const ROW: Fields = &[
    ("backend", Kind::Str),
    ("algorithm", Kind::Str),
    ("serial_total_us", Kind::Num),
    ("fused_total_us", Kind::Num),
    ("speedup", Kind::Num),
    ("groups", Kind::UInt),
    ("decode_cache_hits", Kind::UInt),
    ("decode_cache_misses", Kind::UInt),
    ("decode_cache_hit_rate", Kind::Num),
];

const SCHEMA: Schema = Schema {
    version: SCHEMA_VERSION,
    fields: &[
        ("corpus", Kind::Str),
        ("k", Kind::UInt),
        ("queries", Kind::UInt),
        ("zipf_s", Kind::Num),
        ("rows", Kind::Rows(ROW)),
    ],
    invariants,
};

/// Structural AND acceptance check for the artifact — the bench runs
/// this before writing, and `ipm bench-check` runs it against the
/// committed file.
pub fn validate(v: &Value) -> Result<(), String> {
    SCHEMA.check(v)
}

/// What the field table cannot say: there is something to fuse, every
/// row's aggregates are positive and its speedup is their ratio, and the
/// block backend meets the acceptance bounds.
fn invariants(v: &Value) -> Result<(), String> {
    if uint(v, "queries") < 2 {
        return Err("queries < 2: nothing to fuse".into());
    }
    let rows = rows(v, "rows");
    if rows.is_empty() {
        return Err("rows is empty".into());
    }
    for row in rows {
        let (serial, fused) = (num(row, "serial_total_us"), num(row, "fused_total_us"));
        if serial <= 0.0 || fused <= 0.0 {
            return Err("non-positive aggregate latency".into());
        }
        let speedup = num(row, "speedup");
        if (speedup - serial / fused).abs() > 1e-6 * speedup.abs().max(1.0) {
            return Err("speedup does not equal serial/fused".into());
        }
        let hit_rate = num(row, "decode_cache_hit_rate");
        if !(0.0..=1.0).contains(&hit_rate) {
            return Err(format!("decode_cache_hit_rate out of range: {hit_rate}"));
        }
        if text(row, "backend") == "block" {
            if uint(row, "groups") == 0 {
                return Err("block row formed no batch groups".into());
            }
            if fused > MAX_FUSED_RATIO * serial {
                return Err(format!(
                    "block backend: fused aggregate {fused:.0} µs exceeds \
                     {MAX_FUSED_RATIO}× serial aggregate {serial:.0} µs"
                ));
            }
            if hit_rate <= MIN_HIT_RATE {
                return Err(format!(
                    "block backend: decode-cache hit rate {hit_rate:.3} not above {MIN_HIT_RATE}"
                ));
            }
        }
    }
    if !rows.iter().any(|row| text(row, "backend") == "block") {
        return Err("rows has no block backend row".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_row() -> BatchRow {
        BatchRow {
            backend: "block".into(),
            algorithm: "smj".into(),
            serial_total_us: 10_000.0,
            fused_total_us: 4_000.0,
            speedup: 2.5,
            groups: 3,
            decode_cache_hits: 900,
            decode_cache_misses: 100,
            decode_cache_hit_rate: 0.9,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let mem = BatchRow {
            backend: "memory".into(),
            serial_total_us: 5_000.0,
            fused_total_us: 4_900.0,
            speedup: 5_000.0 / 4_900.0,
            groups: 3,
            decode_cache_hits: 0,
            decode_cache_misses: 0,
            decode_cache_hit_rate: 0.0,
            ..block_row()
        };
        let v = report("synth-tiny", 10, 64, 1.1, &[block_row(), mem]);
        validate(&v).unwrap();
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back["rows"][0]["backend"], "block");
        assert_eq!(back["zipf_s"], 1.1);
    }

    #[test]
    fn validate_enforces_the_acceptance_bounds() {
        // Fused slower than 0.6× serial on the block backend.
        let mut slow = block_row();
        slow.fused_total_us = 7_000.0;
        slow.speedup = slow.serial_total_us / slow.fused_total_us;
        let v = report("c", 5, 64, 1.1, &[slow]);
        assert!(validate(&v).unwrap_err().contains("exceeds"));
        // Hit rate at or below 50%.
        let mut cold = block_row();
        cold.decode_cache_hit_rate = 0.5;
        let v = report("c", 5, 64, 1.1, &[cold]);
        assert!(validate(&v).unwrap_err().contains("hit rate"));
        // No block row at all.
        let mut mem = block_row();
        mem.backend = "memory".into();
        let v = report("c", 5, 64, 1.1, &[mem]);
        assert!(validate(&v).unwrap_err().contains("no block"));
        // Inconsistent speedup.
        let mut lying = block_row();
        lying.speedup = 99.0;
        let v = report("c", 5, 64, 1.1, &[lying]);
        assert!(validate(&v).unwrap_err().contains("speedup"));
        // Wrong version and a fused-only sanity case.
        let mut v = report("c", 5, 64, 1.1, &[block_row()]);
        if let Value::Object(map) = &mut v {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        assert!(validate(&v).is_err());
        // A single query has nothing to share.
        let v = report("c", 5, 1, 1.1, &[block_row()]);
        assert!(validate(&v).unwrap_err().contains("nothing to fuse"));
    }
}
