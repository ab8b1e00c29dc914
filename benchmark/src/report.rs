//! What the benchmark declares and prints: the metric tables behind
//! `BENCHMARK.json`, the result line, and the run-set comparison.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats;
use crate::workload::SPECS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the served miner sees. Every workload reports all of
/// them, and none is ever zero.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Single-layer metrics from the `--trace 1` run. A metric whose layer is
/// not on a workload's path reads `0` there.
pub const PER_LAYER: [Layer; 83] = [
    layer("corpus.synth.generate_s", "s", "lower"),
    layer("index.build_s", "s", "lower"),
    layer("storage.disklists.build_s", "s", "lower"),
    layer("storage.blockimage.build_s", "s", "lower"),
    layer("index.sharding.layout_build_s", "s", "lower"),
    layer("index.wordlists.scan_ns_per_entry", "ns", "lower"),
    layer("index.block.decode_ns_per_entry", "ns", "lower"),
    layer("index.block.skipped_entries_share", "share", "higher"),
    layer("index.block.bytes_per_entry", "bytes", "lower"),
    layer("index.block.compression_ratio", "ratio", "higher"),
    layer("storage.disklists.scan_ns_per_entry", "ns", "lower"),
    layer("storage.pool.hit_share", "share", "higher"),
    layer("storage.pool.seq_fetches_per_query", "count", "lower"),
    layer("storage.pool.random_fetches_per_query", "count", "lower"),
    layer("storage.sim_io_ms_per_query", "ms", "lower"),
    layer("storage.blockcache.hit_share", "share", "higher"),
    layer("core.parse.query_us", "us", "lower"),
    layer("core.plan.resolve_ns", "ns", "lower"),
    layer("core.plan.batch_group_us", "us", "lower"),
    layer("core.nra.run_us", "us", "lower"),
    layer("core.nra.entries_read_per_query", "count", "lower"),
    layer("core.nra.fraction_traversed", "share", "lower"),
    layer("core.smj.run_us", "us", "lower"),
    layer("core.ta.run_us", "us", "lower"),
    layer("core.exact.run_us", "us", "lower"),
    layer("core.engine.run_us", "us", "lower"),
    layer("core.engine.overhead_us", "us", "lower"),
    layer("core.stage.parse_us", "us", "lower"),
    layer("core.stage.plan_us", "us", "lower"),
    layer("core.stage.cache_probe_us", "us", "lower"),
    layer("core.stage.execute_us", "us", "lower"),
    layer("core.stage.shard_exec_us", "us", "lower"),
    layer("core.stage.merge_us", "us", "lower"),
    layer("core.stage.text_resolve_us", "us", "lower"),
    layer("core.cache.hit_share", "share", "higher"),
    layer("core.cache.get_ns", "ns", "lower"),
    layer("core.cache.insert_ns", "ns", "lower"),
    layer("core.fused.batch_us_per_query", "us", "lower"),
    layer("core.fused.serial_us_per_query", "us", "lower"),
    layer("core.fused.groups_per_batch", "count", "lower"),
    layer("core.delta.ingest_us", "us", "lower"),
    layer("core.delta.overlay_overhead_share", "share", "lower"),
    layer("obs.histogram.record_ns", "ns", "lower"),
    layer("obs.registry.render_us", "us", "lower"),
    layer("obs.trace.overhead_share", "share", "lower"),
    layer("server.ping_rtt_us", "us", "lower"),
    layer("server.rtt_p50_us", "us", "lower"),
    layer("server.wire.parse_us", "us", "lower"),
    layer("server.wire.encode_us", "us", "lower"),
    layer("server.wire.request_bytes", "bytes", "lower"),
    layer("server.wire.response_bytes", "bytes", "lower"),
    layer("server.queue.push_pop_ns", "ns", "lower"),
    layer("server.cached_batch_us_per_query", "us", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.unaccounted_us", "us", "lower"),
    layer("server.unaccounted_share", "share", "lower"),
    layer("server.singleflight.coalesced_share", "share", "higher"),
    layer("server.shed_share", "share", "lower"),
    layer("server.router.overhead_us", "us", "lower"),
    layer("server.router.rpcs_per_request", "count", "lower"),
    layer("server.router.hedges_fired", "count", "lower"),
    layer("server.router.hedges_won", "count", "higher"),
    layer("server.router.wasted_rpcs", "count", "lower"),
    layer("server.router.shard_failures", "count", "lower"),
    layer("server.router.partial_results", "count", "lower"),
    layer("server.router.hedge_off_rtt_p50_us", "us", "lower"),
    layer("loadgen.latency_p50_ms", "ms", "lower"),
    layer("loadgen.latency_p95_ms", "ms", "lower"),
    layer("loadgen.latency_p99_ms", "ms", "lower"),
    layer("loadgen.write_latency_p50_ms", "ms", "lower"),
    layer("loadgen.lateness_p99_ms", "ms", "lower"),
    layer("loadgen.samples", "count", "higher"),
    layer("loadgen.offered_rate", "1/s", "higher"),
    layer("loadgen.achieved_rate", "1/s", "higher"),
    layer("loadgen.failed_share", "share", "lower"),
    layer("loadgen.trace_overhead_share", "share", "lower"),
    layer("trace.spans", "count", "higher"),
    layer("trace.self.request_us", "us", "lower"),
    layer("trace.self.roundtrip_us", "us", "lower"),
    layer("trace.self.execute_us", "us", "lower"),
    layer("setup.spawn_s", "s", "lower"),
    layer("setup.total_s", "s", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
];

/// A measured metric: its declared name and the value as measured.
pub type Metric = (&'static str, f64);

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"))
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// One run's outcome, as the contract's result line carries it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run should not be trusted even though its answers were
    /// right (the generator ran late), if so.
    pub invalid: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_value(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_owned(),
                    object([
                        ("value", Value::from(value)),
                        ("unit", Value::from(unit_of(name))),
                    ]),
                )
            })
            .collect();
        object([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  attempted {}  failed {}  correct {}\n",
            self.workload,
            self.seed,
            self.attempted,
            self.failed,
            self.correct()
        );
        for &(name, value) in &self.metrics {
            out += &format!("  {name:<44} {value:>14.4} {}\n", unit_of(name));
        }
        if let Some(why) = &self.invalid {
            out += &format!("  INVALID RUN: {why}\n");
        }
        out
    }
}

/// The document `BENCHMARK.json` must hold, built from the tables above.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|&s| Value::from(s)).collect());
    object([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                SPECS
                    .iter()
                    .map(|s| object([("name", Value::from(s.name)), ("why", Value::from(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better)),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks that the committed `BENCHMARK.json` declares exactly what this
/// harness prints.
pub fn check_schema() -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let committed = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let expected = benchmark_json();
    if committed == expected {
        return Ok(());
    }
    Err(format!(
        "{} does not match the harness's tables; it should read:\n{}",
        path.display(),
        serde_json::to_string_pretty(&expected).expect("infallible")
    ))
}

/// A set of runs as `--out` writes it: workload → metric → one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn run_set(results: &[RunResult]) -> RunSet {
    let mut set = RunSet::new();
    for r in results {
        let by_metric = set.entry(r.workload.to_owned()).or_default();
        for &(name, value) in &r.metrics {
            by_metric.entry(name.to_owned()).or_default().push(value);
        }
    }
    set
}

pub fn run_set_value(set: &RunSet) -> Value {
    Value::Object(
        set.iter()
            .map(|(w, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(m, values)| (m.clone(), Value::from(values.clone())))
                    .collect();
                (w.clone(), Value::Object(metrics))
            })
            .collect(),
    )
}

pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut set = RunSet::new();
    for (w, metrics) in doc.as_object().ok_or("run set is not an object")? {
        for (m, values) in metrics.as_object().ok_or("workload is not an object")? {
            let values = values
                .as_array()
                .ok_or("metric is not an array")?
                .iter()
                .map(|v| v.as_f64().ok_or("value is not a number"))
                .collect::<Result<Vec<_>, _>>()?;
            set.entry(w.clone()).or_default().insert(m.clone(), values);
        }
    }
    Ok(set)
}

/// Median and quartiles of every metric of a run set, one row each.
pub fn summary(set: &RunSet) -> String {
    let mut out = format!(
        "{:<12} {:<44} {:>4} {:>12} {:>12} {:>12} {:>8}\n",
        "workload", "metric", "runs", "q1", "median", "q3", "spread"
    );
    for (w, metrics) in set {
        for (m, values) in metrics {
            let (q1, q2, q3) = stats::quartiles(values);
            out += &format!(
                "{w:<12} {m:<44} {:>4} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.1}%\n",
                values.len(),
                stats::spread(values) * 100.0
            );
        }
    }
    out
}

/// How one end-to-end metric of one workload moved from run set A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The spread of either side is wider than the bound and the sides
    /// overlap: the runs cannot tell.
    Unresolved,
}

/// The rule of the choosing-metrics guide: compare medians against the
/// bound, but report `Unresolved` when a side's interquartile spread is
/// wider than the bound — unless every run of B beats every run of A.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let lower_is_better = m.better == "lower";
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_always_better = if lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    if (stats::spread(a) > m.bound || stats::spread(b) > m.bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// One row per end-to-end metric × workload; `Err` carries the same table
/// when any row regressed.
pub fn compare(a: &RunSet, b: &RunSet) -> Result<String, String> {
    let mut out = format!(
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>7}  {}\n",
        "workload", "metric", "median A", "median B", "change", "bound", "verdict"
    );
    let mut regressed = false;
    for spec in &SPECS {
        for m in &END_TO_END {
            let values = |set: &RunSet| set.get(spec.name).and_then(|w| w.get(m.name)).cloned();
            let (Some(va), Some(vb)) = (values(a), values(b)) else {
                continue;
            };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let v = verdict(m, &va, &vb);
            regressed |= v == Verdict::Regressed;
            out += &format!(
                "{:<12} {:<16} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.0}%  {}\n",
                spec.name,
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if regressed {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = SPECS
            .iter()
            .map(|s| s.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        for s in &SPECS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&SPECS.len()));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        check_schema().unwrap();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "serve_nra",
            seed: 1,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 1.25), ("latency_p50_ms", 0.4)],
            invalid: None,
        };
        let v = r.to_value();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        assert_eq!(v["metrics"]["setup_s"]["value"], 1.25);
        assert_eq!(v["correct"], true);
    }

    #[test]
    fn verdict_applies_bound_and_spread() {
        let m = &EndToEnd {
            name: "latency",
            unit: "ms",
            better: "lower",
            bound: 0.10,
        };
        let a = [1.00, 1.01, 0.99];
        assert_eq!(verdict(m, &a, &[1.05, 1.04, 1.06]), Verdict::Within);
        assert_eq!(verdict(m, &a, &[1.20, 1.21, 1.19]), Verdict::Regressed);
        // B too noisy to tell, and overlapping A.
        assert_eq!(verdict(m, &a, &[0.8, 1.0, 1.4]), Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A.
        assert_eq!(verdict(m, &a, &[0.5, 0.7, 0.9]), Verdict::Within);
        let t = &EndToEnd {
            name: "throughput",
            unit: "1/s",
            better: "higher",
            bound: 0.10,
        };
        let slower = [80.0, 81.0, 79.0];
        assert_eq!(
            verdict(t, &[100.0, 101.0, 99.0], &slower),
            Verdict::Regressed
        );
    }

    #[test]
    fn run_set_round_trips() {
        let r = RunResult {
            workload: "hot_live",
            seed: 7,
            attempted: 1,
            failed: 0,
            metrics: vec![("setup_s", 2.5)],
            invalid: None,
        };
        let set = run_set(&[r.clone(), r]);
        let text = serde_json::to_string(&run_set_value(&set)).unwrap();
        assert_eq!(parse_run_set(&text).unwrap(), set);
        assert_eq!(set["hot_live"]["setup_s"], vec![2.5, 2.5]);
    }
}
