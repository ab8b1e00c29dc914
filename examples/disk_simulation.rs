//! Disk-resident operation with simulated IO accounting (paper §4.3/§5.5).
//!
//! Serializes the word lists into the paper's on-disk layout (12-byte
//! entries; 50-byte phrase-list slots), then answers queries through a
//! 16-page LRU buffer pool over 32 KiB pages, charging 1 ms per sequential
//! and 10 ms per random page fetch.
//!
//! ```text
//! cargo run --release --example disk_simulation
//! ```

use interesting_phrases::prelude::*;
use ipm_index::ListBackend;

fn main() {
    let mut synth = ipm_corpus::synth::tiny();
    synth.num_docs = 1500;
    let (corpus, _) = ipm_corpus::synth::generate(&synth);
    // Result cache off: every request below must execute and charge IO.
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            ..Default::default()
        },
    );

    let disk = engine.disk();
    println!(
        "simulated image: {} (word lists + phrase region)",
        human_bytes(disk.size_bytes())
    );

    let query = engine
        .miner()
        .parse_query(&["w1", "w2"], Operator::Or)
        .unwrap();
    // One served request on the disk backend: the engine gives it a cold
    // pool of its own (per query, §5.5), runs the algorithm, charges each
    // hit's text lookup to the image's phrase region and reports the IO of
    // all of it.
    let run = |algorithm: Algorithm, fraction: f64| {
        engine
            .request_query(query.clone())
            .k(5)
            .algorithm(algorithm)
            .backend(BackendChoice::Disk)
            .nra_fraction(fraction)
            .run()
            .expect("unbudgeted query")
    };
    let row = |label: String, io: ipm_storage::IoStats| {
        println!(
            "{:>7}  {:>9}  {:>6}  {:>6}  {:>8.1}",
            label,
            io.total_fetches(),
            io.sequential_fetches,
            io.random_fetches,
            io.io_ms(disk.cost_model()),
        );
    };

    println!("\npartial-list NRA sweep (cold cache per query):");
    println!(
        "{:>7}  {:>9}  {:>6}  {:>6}  {:>8}",
        "lists%", "fetches", "seq", "rand", "IO ms"
    );
    for fraction in [0.1, 0.2, 0.5, 1.0] {
        let io = run(Algorithm::Nra, fraction).io.expect("disk run");
        row(format!("{}%", (fraction * 100.0) as u32), io);
    }

    // The disk image serves every list algorithm, not just NRA: SMJ scans
    // the id-ordered file, TA probes it randomly. The IO split makes the
    // paper's §5.5 argument visible — TA's random probes dwarf NRA's
    // sequential traversal.
    println!("\nthe list algorithms over the same disk image (full lists):");
    println!(
        "{:>7}  {:>9}  {:>6}  {:>6}  {:>8}",
        "alg", "fetches", "seq", "rand", "IO ms"
    );
    for algorithm in [Algorithm::Nra, Algorithm::Smj, Algorithm::Ta] {
        let io = run(algorithm, 1.0).io.expect("disk run");
        row(algorithm.name().into(), io);
    }

    // Results come back as phrase IDs; each final text lookup is charged
    // as a read of its fixed-width slot in the image's phrase region (also
    // through the pool — paper Figure 1), and the response's IO includes
    // those lookups. The texts themselves come from the dictionary.
    let resp = run(Algorithm::Nra, 1.0);
    println!("\ntop-5 phrases (each lookup charged to the phrase region):");
    for hit in &resp.hits {
        println!("  {:<30} S = {:.3}", hit.text, hit.hit.score);
    }
    println!(
        "\ntotal simulated IO including text lookups: {:.1} ms",
        resp.io.expect("disk run").io_ms(disk.cost_model())
    );
}

fn human_bytes(v: usize) -> String {
    if v >= 1024 * 1024 {
        format!("{:.1} MiB", v as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1} KiB", v as f64 / 1024.0)
    }
}
