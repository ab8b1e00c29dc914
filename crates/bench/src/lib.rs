//! Shared plumbing for the experiment binaries.
//!
//! Each `src/bin/*.rs` regenerates one table or figure of the paper (see
//! `ipm_eval::experiments` for the full index). Reports print as aligned text; set
//! `IPM_RESULTS=<dir>` to also write one JSON file per report.

use ipm_eval::experiments::Report;
use serde_json::Value;
use std::path::PathBuf;

pub mod batchbench;
pub mod blockbench;
pub mod routerbench;
pub mod servingbench;

/// Prints a report and, when `IPM_RESULTS` is set, writes
/// `<dir>/<slug>.json`.
pub fn emit(report: &Report) {
    report.print();
    if let Ok(dir) = std::env::var("IPM_RESULTS") {
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("[emit] cannot create {}: {e}", dir.display());
            return;
        }
        let slug: String = report
            .title
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let path = dir.join(format!("{slug}.json"));
        match serde_json::to_string_pretty(&report.to_json()) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("[emit] cannot write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("[emit] serialization failed: {e}"),
        }
    }
}

/// The JSON kind a declared artifact field must have.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Str,
    Bool,
    /// A non-negative integer.
    UInt,
    /// Any number (integers included).
    Num,
    /// An array of objects, each carrying exactly these fields' kinds.
    Rows(Fields),
}

/// `field name → kind`, in declaration order.
pub(crate) type Fields = &'static [(&'static str, Kind)];

/// One `BENCH_*.json` artifact, declared: its version, its shape as a
/// field table, and a closure for the claims no table can state (ordered
/// percentiles, cross-row inequalities, acceptance floors). The closure
/// runs only after the shape check passed, so it may read declared fields
/// through the infallible accessors below.
pub(crate) struct Schema {
    pub(crate) version: u64,
    pub(crate) fields: Fields,
    pub(crate) invariants: fn(&Value) -> Result<(), String>,
}

impl Schema {
    /// The one artifact check: version pin, every declared field present
    /// with its kind (recursively for row tables), then the invariants.
    pub(crate) fn check(&self, v: &Value) -> Result<(), String> {
        check_fields(v, &[("schema_version", Kind::UInt)])?;
        let version = uint(v, "schema_version");
        if version != self.version {
            return Err(format!(
                "schema_version {version} != expected {}",
                self.version
            ));
        }
        check_fields(v, self.fields)?;
        (self.invariants)(v)
    }
}

fn check_fields(v: &Value, fields: Fields) -> Result<(), String> {
    for &(key, kind) in fields {
        let field = v.get(key).ok_or_else(|| format!("missing key: {key}"))?;
        let ok = match kind {
            Kind::Str => field.as_str().is_some(),
            Kind::Bool => field.as_bool().is_some(),
            Kind::UInt => field.as_u64().is_some(),
            Kind::Num => field.as_f64().is_some(),
            Kind::Rows(row_fields) => {
                let rows = field
                    .as_array()
                    .ok_or_else(|| format!("{key} is not an array"))?;
                for row in rows {
                    check_fields(row, row_fields)?;
                }
                true
            }
        };
        if !ok {
            return Err(format!("{key} is not a {kind:?}"));
        }
    }
    Ok(())
}

/// Accessors for invariant closures. The field table has already vouched
/// for presence and kind, so a miss here is a bug in the declaration.
pub(crate) fn rows<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v[key].as_array().expect("declared as Rows")
}

/// See [`rows`].
pub(crate) fn num(v: &Value, key: &str) -> f64 {
    v[key].as_f64().expect("declared as Num or UInt")
}

/// See [`rows`].
pub(crate) fn uint(v: &Value, key: &str) -> u64 {
    v[key].as_u64().expect("declared as UInt")
}

/// See [`rows`].
pub(crate) fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    v[key].as_str().expect("declared as Str")
}

/// Percentile fields must not decrease in the order given.
pub(crate) fn ordered_percentiles(row: &Value, keys: &[&str]) -> Result<(), String> {
    let values: Vec<f64> = keys.iter().map(|k| num(row, k)).collect();
    if values.windows(2).any(|w| w[1] < w[0]) {
        return Err(format!("non-monotone percentiles {keys:?}: {values:?}"));
    }
    Ok(())
}

/// Builds a JSON object from `(key, value)` pairs.
pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The partial-list fractions the paper's runtime figures sweep.
pub const RUNTIME_FRACTIONS: &[f64] = &[0.10, 0.20, 0.50, 1.00];

/// The fractions of the quality figures (5/6) and Table 5/7.
pub const QUALITY_FRACTIONS: &[f64] = &[0.20, 0.50];

/// The fractions of the NRA cost break-up figures (9/10).
pub const BREAKDOWN_FRACTIONS: &[f64] = &[0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90];

/// Table 5's fractions.
pub const SIZE_FRACTIONS: &[f64] = &[0.10, 0.20, 0.50];

/// The paper's k.
pub const K: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_json_when_requested() {
        let mut r = Report::new("Emit Test 42", &["a"]);
        r.push_row(vec!["x".into()]);
        let dir = std::env::temp_dir().join("ipm_emit_test");
        let _ = std::fs::remove_dir_all(&dir);
        // emit() reads the env var; guard against parallel tests by using
        // a unique directory and restoring afterwards.
        std::env::set_var("IPM_RESULTS", &dir);
        emit(&r);
        std::env::remove_var("IPM_RESULTS");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1);
        let content = std::fs::read_to_string(files[0].as_ref().unwrap().path()).unwrap();
        assert!(content.contains("Emit Test 42"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn object(v: &mut Value) -> &mut std::collections::BTreeMap<String, Value> {
        match v {
            Value::Object(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }

    /// The `table` row whose `key` equals `want` (`None`: the first row).
    fn row<'v>(v: &'v mut Value, table: &str, pick: Option<(&str, &str)>) -> &'v mut Value {
        match object(v).get_mut(table) {
            Some(Value::Array(rows)) => rows
                .iter_mut()
                .find(|r| pick.is_none_or(|(key, want)| r[key] == want))
                .expect("a matching row"),
            other => panic!("{table} is not a row table: {other:?}"),
        }
    }

    /// The committed artifact passes; a copy with a row field missing, a
    /// copy with that field mistyped and a copy `violate` has broken an
    /// invariant of are each rejected.
    fn committed_passes_and_corruptions_fail(
        file: &str,
        validate: fn(&Value) -> Result<(), String>,
        (table, field): (&str, &str),
        violate: fn(&mut Value),
    ) {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let good = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        validate(&good).unwrap();

        let mut missing = good.clone();
        object(row(&mut missing, table, None)).remove(field);
        assert!(validate(&missing).unwrap_err().contains("missing key"));

        let mut mistyped = good.clone();
        object(row(&mut mistyped, table, None)).insert(field.into(), Value::from("oops"));
        assert!(validate(&mistyped).unwrap_err().contains("is not a"));

        let mut violated = good.clone();
        violate(&mut violated);
        validate(&violated).expect_err("a violated invariant must be rejected");
    }

    #[test]
    fn corrupted_batch_artifact_is_rejected() {
        committed_passes_and_corruptions_fail(
            "BENCH_batch.json",
            batchbench::validate,
            ("rows", "speedup"),
            |v| {
                let block = row(v, "rows", Some(("backend", "block")));
                object(block).insert("decode_cache_hit_rate".into(), Value::from(0.4));
            },
        );
    }

    #[test]
    fn corrupted_blocklists_artifact_is_rejected() {
        committed_passes_and_corruptions_fail(
            "BENCH_blocklists.json",
            blockbench::validate,
            ("footprint", "flat_bytes"),
            |v| {
                object(row(v, "latency_us", None)).insert("p95_us".into(), Value::from(0.0));
            },
        );
    }

    #[test]
    fn corrupted_serving_artifact_is_rejected() {
        committed_passes_and_corruptions_fail(
            "BENCH_serving.json",
            servingbench::validate,
            ("latency_us", "p99_us"),
            |v| {
                object(row(v, "latency_us", None)).insert("samples".into(), Value::from(0u64));
            },
        );
    }

    #[test]
    fn corrupted_router_artifact_is_rejected() {
        committed_passes_and_corruptions_fail(
            "BENCH_router.json",
            routerbench::validate,
            ("latency_us", "hedges_won"),
            |v| {
                // Hedging on must not make the delayed tail worse.
                let on = row(v, "latency_us", Some(("scenario", "delayed")));
                assert!(on["hedging"] == true, "first delayed row hedges");
                object(on).insert("p99_us".into(), Value::from(1e12));
            },
        );
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(K, 5);
        assert!(QUALITY_FRACTIONS.contains(&0.2) && QUALITY_FRACTIONS.contains(&0.5));
        assert_eq!(BREAKDOWN_FRACTIONS.len(), 9);
    }
}
