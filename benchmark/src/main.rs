//! The benchmark of the served phrase miner. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds N] [--trace [0|1]]
//!     [--runs N] [--out FILE] [--docs N] [--smoke] [--write-golden]
//!     [--check-schema] | compare A.json B.json
//! ```
//!
//! One workload, one run: the last line of standard output is the result
//! object of the benchmark contract. Several workloads or runs: each run
//! is a child process (so `peak_rss_mb` and lazy state start fresh), and
//! the parent prints every result, then medians and quartiles.

mod affinity;
mod layers;
mod loadgen;
mod report;
mod run;
mod setup;
mod spans;
mod stats;
mod verify;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use report::RunResult;
use run::RunConfig;
use setup::{CorpusChoice, DEFAULT_DOCS};
use workload::SPECS;

/// Seconds per run in `--smoke` mode ("2 s phases").
const SMOKE_SECONDS: f64 = 3.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
    docs: usize,
    smoke: bool,
    write_golden: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: ipm-benchmark [--workload {}|all] [--seed N] [--seconds N] [--trace [0|1]] \
         [--runs N] [--out FILE] [--docs N] [--smoke] [--write-golden] [--check-schema]\n       \
         ipm-benchmark compare A.json B.json",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: run::GOLDEN_SEED,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        out: None,
        docs: DEFAULT_DOCS,
        smoke: false,
        write_golden: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => args.seed = number(flag, value("a number")?)?,
            "--seconds" => {
                args.seconds = number(flag, value("a number")?)?;
                seconds_given = true;
            }
            "--runs" => args.runs = number(flag, value("a number")?)?,
            "--docs" => args.docs = number(flag, value("a number")?)?,
            "--out" => args.out = Some(value("a file")?),
            "--smoke" => args.smoke = true,
            "--write-golden" => args.write_golden = true,
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.workload != "all" && workload::spec(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) || args.runs == 0 || args.docs == 0 {
        return Err("--seconds must be at least 1, --runs and --docs at least 1".to_owned());
    }
    if args.smoke && !seconds_given {
        args.seconds = SMOKE_SECONDS;
    }
    Ok(args)
}

/// One run in this process.
fn run_one(args: &Args) -> std::io::Result<RunResult> {
    let config = RunConfig {
        spec: workload::spec(&args.workload).expect("checked by parse_args"),
        seed: args.seed,
        seconds: args.seconds,
        corpus: if args.smoke {
            CorpusChoice::Tiny
        } else {
            CorpusChoice::Reuters(args.docs)
        },
        write_golden: args.write_golden,
    };
    if args.trace {
        layers::traced(&config)
    } else {
        run::end_to_end(&config)
    }
}

/// Runs `workload` with `seed` in a child process and parses its result
/// line back.
fn run_child(args: &Args, workload: &'static str, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--docs", &args.docs.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.write_golden {
        cmd.arg("--write-golden");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: child exited with {}",
            output.status
        ));
    }
    // The child's table (with any INVALID RUN flag) goes through as it
    // is; its last line is the result object.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout.trim_end().rsplit_once('\n').unwrap_or_default();
    println!("{table}");
    let v = serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let declared = report::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(report::PER_LAYER.iter().map(|m| m.name));
    let metrics = declared
        .filter_map(|name| Some((name, v["metrics"][name]["value"].as_f64()?)))
        .collect();
    Ok(RunResult {
        workload,
        seed,
        attempted: v["attempted"].as_u64().unwrap_or(0),
        failed: v["failed"].as_u64().unwrap_or(0),
        metrics,
        invalid: None,
    })
}

fn run_many(args: &Args) -> Result<bool, String> {
    let names: Vec<&'static str> = SPECS
        .iter()
        .map(|s| s.name)
        .filter(|n| args.workload == "all" || *n == args.workload)
        .collect();
    let mut results = Vec::new();
    for r in 0..args.runs {
        for &name in &names {
            // Run r of every set uses seed + r, so two sets of runs
            // (two commits, or the same one twice) see the same inputs.
            results.push(run_child(args, name, args.seed + r as u64)?);
        }
    }
    let set = report::run_set(&results);
    if args.runs > 1 {
        print!("{}", report::summary(&set));
    }
    if let Some(path) = &args.out {
        let text = serde_json::to_string_pretty(&report::run_set_value(&set)).expect("infallible");
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(results.iter().all(RunResult::correct))
}

fn compare(a: &str, b: &str) -> Result<String, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_run_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    report::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    affinity::init();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare(&argv[1], &argv[2]).map(|table| {
            print!("{table}");
            true
        }),
        Some("compare") => Err(usage()),
        Some("--check-schema") => report::check_schema().map(|()| {
            println!("BENCHMARK.json matches the harness");
            true
        }),
        _ => parse_args(&argv).and_then(|args| {
            if args.workload == "all" || args.runs > 1 {
                return run_many(&args);
            }
            let result = run_one(&args).map_err(|e| e.to_string())?;
            print!("{}", result.table());
            println!(
                "{}",
                serde_json::to_string(&result.to_value()).expect("infallible")
            );
            // A printed result exits 0 even when `correct` is false: the
            // line says so, and the contract reserves other codes for runs
            // that print none.
            Ok(true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
    }
}
