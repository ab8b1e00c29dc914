//! One end-to-end run of one workload: set-up, warm-up, open loop, closed
//! loop, verify pass.

use std::time::Duration;

use crate::loadgen::{self, OpenLoopSamples};
use crate::report::{Metric, RunResult};
use crate::setup::{CorpusChoice, Fixture, SetupTimes, DEFAULT_DOCS};
use crate::stats;
use crate::verify::{self, VerifyOutcome};
use crate::workload::{Spec, Workload};

/// Times the whole set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 2;
/// Warm-up before the timed phases, discarded.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Windows the closed-loop phase is cut into; throughput is their median.
pub const CLOSED_WINDOWS: usize = 8;
/// Windows the open-loop phase is cut into; each latency percentile is
/// the median of the windows' percentiles.
pub const OPEN_WINDOWS: usize = 8;
/// The generator ran too late for the latencies to mean anything.
pub const MAX_LATENESS_P99_MS: f64 = 5.0;
/// The seed whose answers are committed under `benchmark/golden/`.
pub const GOLDEN_SEED: u64 = 42;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Measured seconds: two thirds open loop, one third closed loop.
    pub seconds: f64,
    pub corpus: CorpusChoice,
    pub write_golden: bool,
}

impl RunConfig {
    pub fn open_duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 2.0 / 3.0)
    }

    pub fn closed_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 3.0 / CLOSED_WINDOWS as f64)
    }
}

/// Builds the fixture [`SETUP_REPS`] times, keeps the last one serving,
/// and returns every repetition's step times.
pub fn set_up(config: &RunConfig) -> std::io::Result<(Fixture, Vec<SetupTimes>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let fixture = Fixture::build(config.spec, config.corpus)?;
        times.push(fixture.times);
        fixture.shutdown();
    }
    let fixture = Fixture::build(config.spec, config.corpus)?;
    times.push(fixture.times);
    Ok((fixture, times))
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Warm-up: a closed loop on as many connections as the timed phases
/// use, so pools, caches and the router's hedge histogram are in their
/// steady state before anything is recorded.
pub fn warm_up(fixture: &Fixture, workload: &Workload) -> std::io::Result<()> {
    let conns = workload.spec.open_conns.max(workload.spec.closed_conns);
    loadgen::closed_loop(&fixture.addr, &workload.ops, conns, 1, WARMUP).map(|_| ())
}

/// The verify pass plus, where they apply, the golden digests.
pub fn verify_answers(
    config: &RunConfig,
    fixture: &Fixture,
    workload: &Workload,
) -> std::io::Result<VerifyOutcome> {
    let mut outcome = verify::verify(&fixture.addr, &fixture.engine, workload)?;
    let golden_applies =
        config.seed == GOLDEN_SEED && config.corpus == CorpusChoice::Reuters(DEFAULT_DOCS);
    if golden_applies {
        let corpus = config.corpus.label();
        if config.write_golden {
            verify::write_golden(config.spec.name, &corpus, config.seed, &outcome)?;
        } else if !verify::check_golden(config.spec.name, &corpus, config.seed, &mut outcome) {
            eprintln!("no golden file applies to {}", config.spec.name);
        }
    }
    for note in &outcome.notes {
        eprintln!("WRONG ANSWER: {note}");
    }
    Ok(outcome)
}

pub fn lateness_verdict(samples: &mut OpenLoopSamples) -> (f64, Option<String>) {
    stats::sort(&mut samples.lateness_ms);
    let p99 = stats::percentile(&samples.lateness_ms, 0.99);
    let invalid = (p99 > MAX_LATENESS_P99_MS).then(|| {
        format!(
            "the generator sent its p99 operation {p99:.2} ms late (limit {MAX_LATENESS_P99_MS} ms)"
        )
    });
    (p99, invalid)
}

/// Runs `config` end to end with tracing off and returns the end-to-end
/// metrics.
pub fn end_to_end(config: &RunConfig) -> std::io::Result<RunResult> {
    let (fixture, times) = set_up(config)?;
    let totals: Vec<f64> = times.iter().map(SetupTimes::total_s).collect();
    let workload = Workload::generate(config.spec, &fixture.engine.miner(), config.seed);
    warm_up(&fixture, &workload)?;

    let spec = config.spec;
    let mut open = loadgen::open_loop(
        &fixture.addr,
        &workload.ops,
        spec.rate,
        config.open_duration(),
        spec.open_conns,
    )?;
    let closed = loadgen::closed_loop(
        &fixture.addr,
        &workload.ops,
        spec.closed_conns,
        CLOSED_WINDOWS,
        config.closed_window(),
    )?;
    let outcome = verify_answers(config, &fixture, &workload)?;
    let (lateness_p99, invalid) = lateness_verdict(&mut open);

    let metrics: Vec<Metric> = vec![
        ("setup_s", stats::median(&totals)),
        (
            "latency_p50_ms",
            open.windowed_percentile_ms(0.50, OPEN_WINDOWS, config.open_duration()),
        ),
        (
            "latency_p95_ms",
            open.windowed_percentile_ms(0.95, OPEN_WINDOWS, config.open_duration()),
        ),
        ("throughput_qps", stats::median(&closed.window_qps)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    eprintln!(
        "{}: open loop {} lines at {}/s (lateness p99 {lateness_p99:.3} ms), closed loop windows {:?} qps, verified {} searches",
        spec.name,
        open.attempted,
        spec.rate,
        closed.window_qps,
        outcome.checked
    );
    fixture.shutdown();
    Ok(RunResult {
        workload: spec.name,
        seed: config.seed,
        attempted: open.attempted + closed.attempted + outcome.checked,
        failed: open.failed + closed.failed + outcome.wrong,
        metrics,
        invalid,
    })
}
