//! Schema for `BENCH_router.json` — the distributed scatter-gather
//! latency artifact written at the repo root by `benches/router.rs`.
//!
//! The bench stands up real loopback shard servers plus a router and
//! measures end-to-end routed request latency per cell. Two scenarios:
//!
//! * `uniform` — every replica healthy, fanout 1/2/4, hedging on/off.
//!   Measures the scatter's overhead and shows hedging is near-free when
//!   nothing is slow (the adaptive delay sits above the healthy p95).
//! * `delayed` — one shard's primary replica carries an injected service
//!   delay (`ServerConfig::fault_delay_ms`), its second replica is fast.
//!   The headline claim lives here: with hedging on, the tail (p99) must
//!   not be worse than with hedging off, because the hedge escapes the
//!   slow replica. The validator enforces that ordering, so a hedging
//!   regression fails the artifact check rather than shipping silently.
//!
//! Every row also carries the router's hedge economics — hedges fired,
//! hedges won, wasted RPCs — so the artifact records not just that
//! hedging helps but what it costs.

use crate::{num, obj, ordered_percentiles, rows, text, uint, Kind, Schema};
use ipm_obs::HistogramSnapshot;
use serde_json::Value;
use std::collections::BTreeMap;

/// Bump when the JSON shape changes; CI pins the current value.
pub const SCHEMA_VERSION: u64 = 1;

/// The scenario names the artifact uses.
pub const SCENARIO_UNIFORM: &str = "uniform";
/// See [`SCENARIO_UNIFORM`].
pub const SCENARIO_DELAYED: &str = "delayed";

/// One routed-latency cell: a (scenario, fanout, hedging) triple.
#[derive(Debug, Clone)]
pub struct RouterRow {
    /// `uniform` or `delayed`.
    pub scenario: String,
    /// Scatter fanout (number of shards).
    pub fanout: usize,
    /// Whether hedged requests were enabled.
    pub hedging: bool,
    /// Requests measured (the histogram's sample count).
    pub requests: u64,
    /// Median routed latency, microseconds (histogram bucket bound).
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Mean routed latency, microseconds.
    pub mean_us: f64,
    /// Hedge attempts fired during the cell.
    pub hedges_fired: u64,
    /// Hedge attempts that answered first.
    pub hedges_won: u64,
    /// RPC attempts whose answer arrived after the winner — the measured
    /// cost of hedging.
    pub wasted_rpcs: u64,
}

impl RouterRow {
    /// Builds a row from a latency snapshot (seconds) plus the router's
    /// counter deltas for the cell.
    pub fn from_snapshot(
        scenario: &str,
        fanout: usize,
        hedging: bool,
        snap: &HistogramSnapshot,
        hedges_fired: u64,
        hedges_won: u64,
        wasted_rpcs: u64,
    ) -> Self {
        let (p50, p95, p99) = snap.percentiles();
        let mean = if snap.count() == 0 {
            0.0
        } else {
            snap.sum() / snap.count() as f64
        };
        Self {
            scenario: scenario.to_owned(),
            fanout,
            hedging,
            requests: snap.count(),
            p50_us: p50 * 1e6,
            p95_us: p95 * 1e6,
            p99_us: p99 * 1e6,
            mean_us: mean * 1e6,
            hedges_fired,
            hedges_won,
            wasted_rpcs,
        }
    }
}

/// Assembles the full `BENCH_router.json` document.
pub fn report(corpus: &str, k: usize, delayed_shard_ms: u64, rows: &[RouterRow]) -> Value {
    let latency_rows: Vec<Value> = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("scenario", Value::from(r.scenario.as_str())),
                ("fanout", Value::from(r.fanout)),
                ("hedging", Value::from(r.hedging)),
                ("requests", Value::from(r.requests)),
                ("p50_us", Value::from(r.p50_us)),
                ("p95_us", Value::from(r.p95_us)),
                ("p99_us", Value::from(r.p99_us)),
                ("mean_us", Value::from(r.mean_us)),
                ("hedges_fired", Value::from(r.hedges_fired)),
                ("hedges_won", Value::from(r.hedges_won)),
                ("wasted_rpcs", Value::from(r.wasted_rpcs)),
            ])
        })
        .collect();
    obj(vec![
        ("schema_version", Value::from(SCHEMA_VERSION)),
        ("corpus", Value::from(corpus)),
        ("k", Value::from(k)),
        ("delayed_shard_ms", Value::from(delayed_shard_ms)),
        ("latency_us", Value::Array(latency_rows)),
    ])
}

const SCHEMA: Schema = Schema {
    version: SCHEMA_VERSION,
    fields: &[
        ("corpus", Kind::Str),
        ("k", Kind::UInt),
        ("delayed_shard_ms", Kind::UInt),
        (
            "latency_us",
            Kind::Rows(&[
                ("scenario", Kind::Str),
                ("fanout", Kind::UInt),
                ("hedging", Kind::Bool),
                ("requests", Kind::UInt),
                ("p50_us", Kind::Num),
                ("p95_us", Kind::Num),
                ("p99_us", Kind::Num),
                ("mean_us", Kind::Num),
                ("hedges_fired", Kind::UInt),
                ("hedges_won", Kind::UInt),
                ("wasted_rpcs", Kind::UInt),
            ]),
        ),
    ],
    invariants,
};

/// Structural and semantic check for the artifact — run before every
/// write, and by CI against the committed file.
pub fn validate(v: &Value) -> Result<(), String> {
    SCHEMA.check(v)
}

/// The artifact's claims: percentiles are monotone, hedging-off cells
/// fired no hedges, no cell won more hedges than it fired, and in the
/// `delayed` scenario the hedging-on p99 is no worse than the
/// hedging-off p99 at the same fanout.
fn invariants(v: &Value) -> Result<(), String> {
    if uint(v, "delayed_shard_ms") == 0 {
        return Err("delayed_shard_ms must be positive (the scenario needs a slow replica)".into());
    }
    let latency = rows(v, "latency_us");
    if latency.is_empty() {
        return Err("latency_us is empty".into());
    }
    // (fanout → p99) per hedging setting, delayed scenario only.
    let mut delayed_on: BTreeMap<u64, f64> = BTreeMap::new();
    let mut delayed_off: BTreeMap<u64, f64> = BTreeMap::new();
    for row in latency {
        let scenario = text(row, "scenario");
        if scenario != SCENARIO_UNIFORM && scenario != SCENARIO_DELAYED {
            return Err(format!("unknown scenario: {scenario}"));
        }
        let fanout = uint(row, "fanout");
        if fanout == 0 {
            return Err("fanout must be at least 1".into());
        }
        if uint(row, "requests") == 0 {
            return Err("a latency row with zero requests".into());
        }
        ordered_percentiles(row, &["p50_us", "p95_us", "p99_us"])?;
        let hedging = row["hedging"] == true;
        let (fired, won) = (uint(row, "hedges_fired"), uint(row, "hedges_won"));
        if !hedging && fired != 0 {
            return Err(format!(
                "hedging-off row fired {fired} hedges (scenario {scenario}, fanout {fanout})"
            ));
        }
        if won > fired {
            return Err(format!("hedges_won {won} exceeds hedges_fired {fired}"));
        }
        if scenario == SCENARIO_DELAYED {
            let slot = if hedging {
                &mut delayed_on
            } else {
                &mut delayed_off
            };
            slot.insert(fanout, num(row, "p99_us"));
        }
    }
    if delayed_on.is_empty() && delayed_off.is_empty() {
        return Err("artifact carries no delayed-scenario rows".into());
    }
    for (fanout, on_p99) in &delayed_on {
        if let Some(off_p99) = delayed_off.get(fanout) {
            if on_p99 > off_p99 {
                return Err(format!(
                    "hedging made the delayed tail worse at fanout {fanout}: \
                     p99 {on_p99} us (on) > {off_p99} us (off)"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_obs::Histogram;
    use std::time::Duration;

    fn snap(samples_us: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &us in samples_us {
            h.observe(Duration::from_micros(us));
        }
        h.snapshot()
    }

    fn sample_rows() -> Vec<RouterRow> {
        let fast = snap(&[300, 400, 500, 900, 1500]);
        let slow = snap(&[25_000, 26_000, 27_000, 28_000, 30_000]);
        vec![
            RouterRow::from_snapshot(SCENARIO_UNIFORM, 2, true, &fast, 0, 0, 0),
            RouterRow::from_snapshot(SCENARIO_UNIFORM, 2, false, &fast, 0, 0, 0),
            RouterRow::from_snapshot(SCENARIO_DELAYED, 2, true, &fast, 5, 5, 5),
            RouterRow::from_snapshot(SCENARIO_DELAYED, 2, false, &slow, 0, 0, 0),
        ]
    }

    #[test]
    fn report_round_trips_and_validates() {
        let v = report("synth-tiny", 5, 25, &sample_rows());
        validate(&v).unwrap();
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        validate(&back).unwrap();
        assert_eq!(back["latency_us"][2]["scenario"], "delayed");
        assert_eq!(back["latency_us"][2]["hedges_fired"].as_u64(), Some(5));
    }

    #[test]
    fn validate_enforces_the_hedging_claims() {
        // Hedging-off row must not fire hedges.
        let mut rows = sample_rows();
        rows[1].hedges_fired = 3;
        assert!(validate(&report("c", 5, 25, &rows)).is_err());
        // Hedging-on p99 must not exceed hedging-off p99 in `delayed`.
        let mut rows = sample_rows();
        let (on_row, off_row) = (rows[2].clone(), rows[3].clone());
        rows[2].p50_us = off_row.p50_us;
        rows[2].p95_us = off_row.p95_us;
        rows[2].p99_us = off_row.p99_us * 2.0;
        assert!(validate(&report("c", 5, 25, &rows)).is_err());
        // Restore and drop the delayed rows entirely: also rejected.
        rows[2] = on_row;
        rows.truncate(2);
        assert!(validate(&report("c", 5, 25, &rows)).is_err());
        // hedges_won can never exceed hedges_fired.
        let mut rows = sample_rows();
        rows[2].hedges_won = rows[2].hedges_fired + 1;
        assert!(validate(&report("c", 5, 25, &rows)).is_err());
        // Zero injected delay makes the delayed scenario meaningless.
        assert!(validate(&report("c", 5, 0, &sample_rows())).is_err());
    }

    #[test]
    fn validate_rejects_structural_drift() {
        let mut v = report("c", 5, 25, &sample_rows());
        if let Value::Object(map) = &mut v {
            map.insert("schema_version".into(), Value::from(99u64));
        }
        assert!(validate(&v).is_err());
        assert!(validate(&report("c", 5, 25, &[])).is_err());
        let empty = RouterRow::from_snapshot(
            SCENARIO_DELAYED,
            2,
            true,
            &Histogram::new().snapshot(),
            0,
            0,
            0,
        );
        assert!(validate(&report("c", 5, 25, &[empty])).is_err());
    }
}
