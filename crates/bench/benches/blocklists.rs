//! Block-backend benchmark: latency and footprint for the block-compressed
//! lists against the flat in-memory and simulated-disk backends, written to
//! `BENCH_blocklists.json` at the repo root (schema in
//! `ipm_bench::blockbench`, validated before the write).
//!
//! Unlike the criterion-shim benches this target does its own sampling —
//! the artifact needs real p50/p95 numbers, not the shim's text-only
//! timings. `IPM_BLOCKBENCH_SAMPLES` overrides the per-cell iteration
//! count (CI uses a small value; the default is sized for a laptop run).

use ipm_bench::blockbench::{self, FootprintRow, LatencyRow};
use ipm_core::{Algorithm, BackendChoice, EngineConfig, MinerConfig, PhraseMiner, QueryEngine};
use ipm_index::ListBackend;
use ipm_server::wire;
use std::time::Instant;

const K: usize = 10;

fn samples_per_cell() -> usize {
    std::env::var("IPM_BLOCKBENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(25)
}

/// OR of the two highest-df words: the widest lists the corpus has, i.e.
/// the worst case for list traversal and the best case for block skipping.
fn top_query(e: &QueryEngine) -> String {
    let miner = e.miner();
    let c = miner.corpus();
    let top = ipm_corpus::stats::top_words_by_df(c, 2);
    top.iter()
        .map(|&(w, _)| c.words().term(w).unwrap().to_owned())
        .collect::<Vec<_>>()
        .join(" OR ")
}

fn measure(e: &QueryEngine, q: &str, alg: Algorithm, backend: BackendChoice) -> LatencyRow {
    let samples = samples_per_cell();
    let run = || {
        e.request(q.to_owned())
            .k(K)
            .algorithm(alg)
            .backend(backend)
            .run()
            .expect("bench query")
    };
    // Warm up: builds the lazy disk/block images and touches the code paths
    // once so image construction never lands inside a measured iteration.
    for _ in 0..2 {
        run();
    }
    let mut us: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            let resp = run();
            assert!(!resp.served_from_cache, "bench engine must not cache");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    LatencyRow {
        backend: wire::backend_name(backend).to_owned(),
        algorithm: wire::algorithm_name(alg).to_owned(),
        samples,
        p50_us: blockbench::percentile(&us, 0.50),
        p95_us: blockbench::percentile(&us, 0.95),
    }
}

fn footprints(e: &QueryEngine) -> Vec<FootprintRow> {
    let block = e.block();
    let flat = block.lists().flat_bytes() as u64;
    let row = |backend: BackendChoice, size: u64| FootprintRow {
        backend: wire::backend_name(backend).to_owned(),
        size_bytes: size,
        flat_bytes: flat,
        compression_ratio: if size == 0 {
            1.0
        } else {
            flat as f64 / size as f64
        },
    };
    vec![
        row(BackendChoice::Memory, flat),
        row(BackendChoice::Disk, e.disk().size_bytes() as u64),
        row(BackendChoice::Block, block.lists().size_bytes() as u64),
    ]
}

fn main() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    // Cache off: every measured request pays the full traversal.
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    );
    let q = top_query(&engine);
    eprintln!(
        "blocklists bench: {} docs, query \"{q}\", k={K}, {} samples/cell",
        corpus.num_docs(),
        samples_per_cell(),
    );

    let mut latencies = Vec::new();
    for backend in [
        BackendChoice::Memory,
        BackendChoice::Disk,
        BackendChoice::Block,
    ] {
        for alg in [
            Algorithm::Exact,
            Algorithm::Smj,
            Algorithm::Nra,
            Algorithm::Ta,
        ] {
            let row = measure(&engine, &q, alg, backend);
            println!(
                "{:<6} {:<6} p50 {:>9.1} us   p95 {:>9.1} us",
                row.backend, row.algorithm, row.p50_us, row.p95_us
            );
            latencies.push(row);
        }
    }

    let sizes = footprints(&engine);
    for f in &sizes {
        println!(
            "{:<6} {:>10} bytes  ({:>10} flat, {:.2}x)",
            f.backend, f.size_bytes, f.flat_bytes, f.compression_ratio
        );
    }

    let doc = blockbench::report("synth-tiny", K, &latencies, &sizes);
    blockbench::validate(&doc).expect("generated artifact must match its own schema");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_blocklists.json");
    let json = serde_json::to_string_pretty(&doc).expect("serialize artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_blocklists.json");
    println!("wrote {}", path.display());
}
