//! Budgeted search through the public `SearchRequest` API: IO caps hold
//! (within one page-batch per shard), deadlines shed dead-on-arrival
//! work, a deadline racing an IO cap trips exactly one of them and leaves
//! no poisoned engine state, and truncated results are
//! anytime-consistent.

use interesting_phrases::prelude::*;
use ipm_storage::PoolConfig;
use std::time::Duration;

/// An engine whose disk image uses tiny (256-byte) pages, so per-query
/// fetch counts are large enough for an IO cap to bite mid-traversal.
fn fine_grained_engine(shards: usize) -> QueryEngine {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            cache: None,
            shards,
            pool: PoolConfig {
                page_size: 256,
                capacity_pages: 8,
                lookahead_pages: 1,
            },
            ..Default::default()
        },
    )
}

fn top_query(engine: &QueryEngine, op: &str) -> String {
    let miner = engine.miner();
    let corpus = miner.corpus();
    let top = ipm_corpus::stats::top_words_by_df(corpus, 2);
    let words: Vec<&str> = top
        .iter()
        .map(|&(w, _)| corpus.words().term(w).unwrap())
        .collect();
    words.join(&format!(" {op} "))
}

/// Acceptance: a disk-backed query with `io_budget` set never exceeds the
/// cap by more than one page-batch per shard. "One page-batch" here is
/// the fetches one shard can perform between two cooperative checkpoints:
/// a round of `r` sorted accesses, each pulling at most one page plus one
/// lookahead prefetch — bounded by 8 pages for the 2-feature queries
/// below.
#[test]
fn io_budget_caps_disk_fetches_within_one_page_batch_per_shard() {
    const PAGE_BATCH: u64 = 8;
    for shards in [1usize, 4] {
        let engine = fine_grained_engine(1);
        let q = top_query(&engine, "OR");

        // The unbudgeted run must be much more expensive than the cap,
        // otherwise the assertion below would be vacuous.
        let free = engine
            .request(q.clone())
            .k(100)
            .backend(BackendChoice::Disk)
            .shards(shards)
            .run()
            .unwrap();
        let free_fetches = free.io.unwrap().total_fetches();
        let cap = 10u64;
        assert!(
            free_fetches > cap * 3,
            "{shards} shards: unbudgeted run only fetched {free_fetches} pages; \
             the cap test would be vacuous"
        );

        let capped = engine
            .request(q.clone())
            .k(100)
            .backend(BackendChoice::Disk)
            .shards(shards)
            .io_budget(cap)
            .run()
            .unwrap();
        let io = capped.io.expect("disk run reports IoStats");
        assert!(
            io.total_fetches() <= cap + PAGE_BATCH * shards as u64,
            "{shards} shards: {} fetches exceed cap {cap} + {PAGE_BATCH}/shard",
            io.total_fetches()
        );
        assert_eq!(
            capped.completeness,
            Completeness::Truncated {
                budget_hit: BudgetKind::Io
            },
            "{shards} shards: a binding IO cap must label the response truncated"
        );
        // The engine is not poisoned: the next unbudgeted query is exact
        // and identical to the pre-cap baseline.
        let again = engine
            .request(q)
            .k(100)
            .backend(BackendChoice::Disk)
            .shards(shards)
            .run()
            .unwrap();
        assert!(again.completeness.is_exact());
        assert_eq!(
            free.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
            again.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>(),
        );
    }
}

/// A generous IO cap never triggers: results and completeness are
/// identical to the unbudgeted run.
#[test]
fn generous_io_budget_changes_nothing() {
    let engine = fine_grained_engine(1);
    let q = top_query(&engine, "AND");
    let free = engine
        .request(q.clone())
        .k(10)
        .backend(BackendChoice::Disk)
        .run()
        .unwrap();
    let budgeted = engine
        .request(q)
        .k(10)
        .backend(BackendChoice::Disk)
        .io_budget(1_000_000)
        .run()
        .unwrap();
    assert!(budgeted.completeness.is_exact());
    assert_eq!(free.hits, budgeted.hits);
}

/// Deadlines: an expired deadline is dead on arrival; a generous one
/// changes nothing.
#[test]
fn deadline_semantics_at_the_engine() {
    let engine = fine_grained_engine(1);
    let q = top_query(&engine, "OR");
    assert!(matches!(
        engine.request(q.clone()).deadline(Duration::ZERO).run(),
        Err(SearchError::DeadlineExceeded)
    ));
    let resp = engine
        .request(q)
        .deadline(Duration::from_secs(3600))
        .run()
        .unwrap();
    assert!(resp.completeness.is_exact());
    assert!(!resp.hits.is_empty());
}

/// A budget-truncated disk response still reports its (partial) IoStats
/// and accumulates into the engine-wide totals — observability survives
/// truncation.
#[test]
fn truncated_responses_keep_io_accounting() {
    let engine = fine_grained_engine(1);
    let q = top_query(&engine, "OR");
    let before = engine.io_totals();
    let resp = engine
        .request(q)
        .k(100)
        .backend(BackendChoice::Disk)
        .io_budget(5)
        .run()
        .unwrap();
    assert!(resp.completeness.is_truncated());
    let io = resp.io.expect("truncated disk run still reports IO");
    assert!(io.total_fetches() > 0);
    let after = engine.io_totals();
    assert_eq!(
        after.total_accesses(),
        before.total_accesses() + io.total_accesses()
    );
}

/// Truncated results are never cached, on an engine *with* a cache: the
/// budgeted run misses, the unbudgeted rerun misses again (nothing was
/// stored) and only then does the exact result populate the cache.
#[test]
fn truncation_never_pollutes_the_cache() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            pool: PoolConfig {
                page_size: 256,
                capacity_pages: 8,
                lookahead_pages: 1,
            },
            ..Default::default()
        },
    );
    let q = top_query(&engine, "OR");
    let truncated = engine
        .request(q.clone())
        .k(100)
        .backend(BackendChoice::Disk)
        .io_budget(5)
        .run()
        .unwrap();
    assert!(truncated.completeness.is_truncated());
    let full = engine
        .request(q.clone())
        .k(100)
        .backend(BackendChoice::Disk)
        .run()
        .unwrap();
    assert!(
        !full.served_from_cache,
        "a truncated result must not satisfy later requests"
    );
    assert!(full.completeness.is_exact());
    let warm = engine
        .request(q)
        .k(100)
        .backend(BackendChoice::Disk)
        .run()
        .unwrap();
    assert!(warm.served_from_cache);
    assert!(warm.completeness.is_exact());
}

/// Lifecycle satellite: a budget-truncated, delta-corrected NRA run must
/// report `Truncated { .. }` — truncation outranks the
/// `Approximate { delta_corrections }` label the same run would carry
/// unbudgeted — and must never land in the result cache.
#[test]
fn delta_budget_truncation_outranks_approximation_and_is_never_cached() {
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    // Cache ENABLED: the point is precisely that truncated delta runs
    // stay out of it.
    let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));
    let q = top_query(&engine, "OR");
    // Make the delta non-empty so the unbudgeted run is genuinely
    // approximate, not a silent no-op.
    let w0 = {
        let miner = engine.miner();
        ipm_corpus::stats::top_words_by_df(miner.corpus(), 1)[0].0
    };
    for _ in 0..5 {
        engine.ingest_document(&[w0], &[]);
    }

    let truncated = engine
        .request(q.clone())
        .k(5)
        .use_delta(true)
        .step_budget(1)
        .run()
        .unwrap();
    assert!(
        matches!(truncated.completeness, Completeness::Truncated { .. }),
        "truncation must outrank delta approximation, got {:?}",
        truncated.completeness
    );

    // The truncated result was not cached: the unbudgeted rerun executes
    // fresh and carries the delta-approximation label.
    let full = engine
        .request(q.clone())
        .k(5)
        .use_delta(true)
        .run()
        .unwrap();
    assert!(
        !full.served_from_cache,
        "a truncated delta run must never be served back from the cache"
    );
    assert!(
        matches!(
            full.completeness,
            Completeness::Approximate {
                reason: ApproxReason::DeltaCorrections
            }
        ),
        "unbudgeted delta NRA stays approximate, got {:?}",
        full.completeness
    );
    // ...and that full (approximate, but budget-untouched) result *is*
    // cacheable and epoch-stable.
    assert!(
        engine
            .request(q.clone())
            .k(5)
            .use_delta(true)
            .run()
            .unwrap()
            .served_from_cache
    );

    // A further ingest bumps the epoch: the cached delta entry stops
    // matching without any cache clear.
    engine.ingest_document(&[w0], &[]);
    assert!(
        !engine
            .request(q)
            .k(5)
            .use_delta(true)
            .run()
            .unwrap()
            .served_from_cache
    );
}

/// Verification satellite: the deadline-vs-io-budget race, checked
/// twice over. First the abstract model from `ipm_check` — the schedule
/// explorer walks **every** interleaving of the deadline clock against
/// workers charging IO, proving the trip cell takes exactly one sticky
/// cause, outcomes agree with it, and stopped results are never cached.
/// Then the real engine runs the same race on a sharded disk query under
/// a sweep of deadlines: each round is either truncated by exactly one
/// of the two limits or shed as dead on arrival, no round populates the
/// result cache, and the unbudgeted answer afterwards is unchanged.
#[test]
fn deadline_vs_io_budget_race_is_sticky_in_model_and_engine() {
    use ipm_check::models::budget_trip as model;
    use ipm_check::sched::Explorer;

    // Model half: the clock + 2 workers x 2 work units, IO cap 3, so
    // both causes are reachable and must race for the one trip cell.
    let report = Explorer::new()
        .explore(
            &model::spec(2, 2),
            || model::init(2, 3),
            model::invariant,
            model::final_check,
        )
        .unwrap_or_else(|f| panic!("model violates stickiness: {f}"));
    assert!(
        report.schedules > 100,
        "expected an exhaustive exploration, got {} schedules",
        report.schedules
    );

    // Engine half: the same race on the real Budget, on an engine *with*
    // a cache so pollution would be visible.
    let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
    let engine = QueryEngine::with_config(
        PhraseMiner::build(&corpus, MinerConfig::default()),
        EngineConfig {
            pool: PoolConfig {
                page_size: 256,
                capacity_pages: 8,
                lookahead_pages: 1,
            },
            ..Default::default()
        },
    );
    let q = top_query(&engine, "OR");
    let unbudgeted = || {
        engine
            .request(q.clone())
            .k(100)
            .backend(BackendChoice::Disk)
            .shards(4)
            .run()
            .unwrap()
    };
    let phrases =
        |resp: &SearchResponse| resp.hits.iter().map(|h| h.hit.phrase).collect::<Vec<_>>();
    let baseline = phrases(&unbudgeted());
    engine.clear_cache();
    let (mut io_seen, mut dead_seen) = (0u32, 0u32);
    for round in 0..30u64 {
        // Sweep the deadline across the race window, from already
        // expired (dead on arrival) to far beyond the IO cap's reach.
        let deadline = Duration::from_micros(round * round * 100);
        let outcome = engine
            .request(q.clone())
            .k(100)
            .backend(BackendChoice::Disk)
            .shards(4)
            .io_budget(5)
            .deadline(deadline)
            .run();
        match outcome {
            Ok(resp) => match resp.completeness {
                Completeness::Truncated {
                    budget_hit: BudgetKind::Io,
                } => io_seen += 1,
                Completeness::Truncated {
                    budget_hit: BudgetKind::Deadline,
                } => {}
                other => panic!("round {round}: io-capped run reported {other:?}"),
            },
            Err(SearchError::DeadlineExceeded) => dead_seen += 1,
            Err(other) => panic!("round {round}: unexpected error {other:?}"),
        }
        // No stopped run may leave a cache entry behind: the next
        // unbudgeted run must compute afresh, and exactly as before.
        let probe = unbudgeted();
        assert!(
            !probe.served_from_cache,
            "round {round}: a stopped run polluted the cache"
        );
        assert!(probe.completeness.is_exact(), "round {round}");
        assert_eq!(phrases(&probe), baseline, "round {round}: answer drifted");
        // The probe itself cached its exact result; reset via the admin
        // hatch so the next round starts cold.
        engine.clear_cache();
    }
    assert!(dead_seen > 0, "an expired deadline must be dead on arrival");
    assert!(
        io_seen > 0,
        "30 rounds never saw the IO cap win; tighten the budget"
    );
}
