//! Model: the sticky budget trip racing the deadline.
//!
//! `ipm_core::Budget` is shared by every shard worker of one query; its
//! deadline passes on the wall clock, independently of every worker. Each
//! worker's `check()` runs tripped? → deadline passed? → io-exhausted?,
//! and `trip()` is a SeqCst compare-and-swap from `TRIP_NONE`, so the
//! **first** cause to land wins and every later observer reports that
//! same cause. The invariant:
//!
//! 2. **A tripped budget never un-trips** — the trip cell is written at
//!    most once per query; once any worker stops with cause `c`, every
//!    worker stops with cause `c`, and a result produced by a stopped
//!    query is never cached (the engine caches `Complete` results only,
//!    see `engine.rs`).
//!
//! The model races two shard workers (shared io meter, shared trip cell)
//! against the deadline clock, exactly the shapes `ShardBudget` fans
//! out. Depending on the schedule the winning cause is `Deadline` or
//! `IoExhausted` — both are reachable and the tests assert
//! so — but within one schedule there is exactly one. Two seeded bugs:
//! a `trip()` that plain-stores instead of CASing (a later cause
//! overwrites the first — the "un-trip"), and a finish path that caches
//! stopped results.

use crate::sched::{Spec, Step, ThreadSpec};

/// Why the budget stopped the query (`BudgetKind` causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The deadline was observed to have passed.
    Deadline,
    /// The shared io meter crossed its cap.
    IoExhausted,
}

/// How one worker's slice of the query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran every step without the budget stopping it.
    Complete,
    /// Stopped by the budget with the (shared, first-to-land) cause.
    Stopped(Cause),
}

/// Shared state: the budget cell, the clock, and per-worker progress.
#[derive(Debug, Clone)]
pub struct State {
    /// The trip cell (`Budget::tripped`, 0 = `TRIP_NONE`).
    pub trip: Option<Cause>,
    /// Every write to the trip cell, in order — the stickiness witness.
    pub trip_writes: Vec<Cause>,
    /// Whether the wall clock has reached the deadline.
    pub deadline_passed: bool,
    /// Shared io meter (`Budget::io_used`).
    pub io_used: u64,
    /// Io cap; crossing it trips `IoExhausted`.
    pub io_limit: u64,
    /// Per-worker outcome (`None` while still running).
    pub outcome: Vec<Option<Outcome>>,
    /// Per-worker count of outcome writes — each must settle exactly once.
    pub outcome_writes: Vec<u64>,
    /// Per-worker: did the finish path cache this worker's result?
    pub cached: Vec<bool>,
    /// Per-worker cause this worker intends to trip with (decided in the
    /// probe step, committed by CAS in the next — the real `check()` is
    /// not atomic: the flag read and the CAS are separate instructions).
    pub intent: Vec<Option<Cause>>,
    /// Seeded bug switches.
    trip_overwrites: bool,
    cache_stopped: bool,
}

impl State {
    fn new(workers: usize, io_limit: u64) -> Self {
        Self {
            trip: None,
            trip_writes: Vec::new(),
            deadline_passed: false,
            io_used: 0,
            io_limit,
            outcome: vec![None; workers],
            outcome_writes: vec![0; workers],
            cached: vec![false; workers],
            intent: vec![None; workers],
            trip_overwrites: false,
            cache_stopped: false,
        }
    }
}

/// `Budget::trip`: CAS from empty, first cause wins, winner returned.
fn trip(s: &mut State, cause: Cause) -> Cause {
    if s.trip_overwrites {
        // Seeded bug: a plain store — the latest cause clobbers the
        // first, so an already-stopped query changes its mind.
        s.trip = Some(cause);
        s.trip_writes.push(cause);
        return cause;
    }
    match s.trip {
        Some(winner) => winner,
        None => {
            s.trip = Some(cause);
            s.trip_writes.push(cause);
            cause
        }
    }
}

fn set_outcome(s: &mut State, tid: usize, outcome: Outcome) {
    s.outcome[tid - 1] = Some(outcome);
    s.outcome_writes[tid - 1] += 1;
}

/// One unit of work followed by the read half of `Budget::check()`, in
/// the real order: already-tripped (one atomic read, reported as-is),
/// then the deadline, then the io meter. The latter two only *decide*
/// a cause here; the CAS that commits it is the next step, so two
/// workers can race distinct causes exactly as two real threads can.
fn probe(s: &mut State, tid: usize) {
    if s.outcome[tid - 1].is_some() {
        return; // this worker already stopped
    }
    s.io_used += 1;
    if let Some(cause) = s.trip {
        set_outcome(s, tid, Outcome::Stopped(cause));
    } else if s.deadline_passed {
        s.intent[tid - 1] = Some(Cause::Deadline);
    } else if s.io_used > s.io_limit {
        s.intent[tid - 1] = Some(Cause::IoExhausted);
    }
}

/// The commit half: CAS the decided cause into the trip cell and stop
/// with whatever cause actually won the race.
fn commit(s: &mut State, tid: usize) {
    if s.outcome[tid - 1].is_some() {
        return;
    }
    if let Some(cause) = s.intent[tid - 1].take() {
        let winner = trip(s, cause);
        set_outcome(s, tid, Outcome::Stopped(winner));
    }
}

/// End of the worker: a still-running worker completes; the engine then
/// caches only `Complete` results (truncated ones are never inserted —
/// the engine's `finish` drops them before the cache).
fn finish(s: &mut State, tid: usize) {
    if s.outcome[tid - 1].is_none() {
        set_outcome(s, tid, Outcome::Complete);
    }
    let complete = s.outcome[tid - 1] == Some(Outcome::Complete);
    if complete || s.cache_stopped {
        s.cached[tid - 1] = true;
    }
}

fn deadline_passes(s: &mut State, _tid: usize) {
    s.deadline_passed = true;
}

/// The deadline clock (thread 0) racing `workers` shard workers of
/// `steps` work units each over a shared `io_limit`-capped budget.
pub fn spec(workers: usize, steps: usize) -> Spec<State> {
    let mut threads = vec![ThreadSpec::new(
        "clock",
        vec![Step::new("deadline passes", deadline_passes)],
    )];
    for _ in 0..workers {
        let mut list: Vec<Step<State>> = Vec::with_capacity(steps * 2 + 1);
        for _ in 0..steps {
            list.push(Step::new("probe", probe));
            list.push(Step::new("commit", commit));
        }
        list.push(Step::new("finish", finish));
        threads.push(ThreadSpec::new("worker", list));
    }
    Spec::new(threads)
}

/// Fresh state: `io_limit` below `workers * steps` keeps `IoExhausted`
/// reachable on schedules where the deadline passes late.
pub fn init(workers: usize, io_limit: u64) -> State {
    State::new(workers, io_limit)
}

/// Seeded bug: `trip()` overwrites instead of CASing.
pub fn overwrite_trip_init(workers: usize, io_limit: u64) -> State {
    let mut s = State::new(workers, io_limit);
    s.trip_overwrites = true;
    s
}

/// Seeded bug: the finish path caches stopped results too.
pub fn cache_stopped_init(workers: usize, io_limit: u64) -> State {
    let mut s = State::new(workers, io_limit);
    s.cache_stopped = true;
    s
}

/// Invariant 2, checked after every step: one trip write ever, the cell
/// still holds it, every stopped worker reports it, outcomes settle once,
/// and nothing stopped is cached.
pub fn invariant(s: &State) -> Result<(), String> {
    if s.trip_writes.len() > 1 {
        return Err(format!(
            "trip cell written {} times ({:?}) — a tripped budget changed its cause",
            s.trip_writes.len(),
            s.trip_writes
        ));
    }
    if let Some(first) = s.trip_writes.first() {
        if s.trip != Some(*first) {
            return Err(format!(
                "trip cell holds {:?} but the first write was {first:?}",
                s.trip
            ));
        }
    }
    for (i, o) in s.outcome.iter().enumerate() {
        if let Some(Outcome::Stopped(c)) = o {
            if s.trip != Some(*c) {
                return Err(format!(
                    "worker {i} stopped with {c:?} but the trip cell says {:?}",
                    s.trip
                ));
            }
        }
        if s.outcome_writes[i] > 1 {
            return Err(format!(
                "worker {i} outcome settled {} times",
                s.outcome_writes[i]
            ));
        }
        if s.cached[i] && *o != Some(Outcome::Complete) {
            return Err(format!("worker {i} cached a stopped result {o:?}"));
        }
    }
    Ok(())
}

/// End-of-schedule check: every worker settled, and if any stopped the
/// trip cell names the (single) cause they all agree on.
pub fn final_check(s: &State) -> Result<(), String> {
    for (i, o) in s.outcome.iter().enumerate() {
        match o {
            None => return Err(format!("worker {i} never settled")),
            Some(Outcome::Stopped(_)) if s.trip.is_none() => {
                return Err(format!("worker {i} stopped but no cause was tripped"))
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{interleavings, Explorer, FailureKind};
    use std::cell::Cell;

    const WORKERS: usize = 2;
    const STEPS: usize = 3;
    // 2 workers x 3 work units = 6 io max; a cap of 4 makes IoExhausted
    // reachable whenever the deadline passes late.
    const IO_LIMIT: u64 = 4;

    #[test]
    fn one_sticky_cause_under_every_schedule_and_both_causes_reachable() {
        let saw_deadline = Cell::new(false);
        let saw_io = Cell::new(false);
        let saw_complete = Cell::new(false);
        let report = Explorer::new()
            .explore(
                &spec(WORKERS, STEPS),
                || init(WORKERS, IO_LIMIT),
                invariant,
                |s| {
                    match s.trip {
                        Some(Cause::Deadline) => saw_deadline.set(true),
                        Some(Cause::IoExhausted) => saw_io.set(true),
                        None => saw_complete.set(true),
                    }
                    final_check(s)
                },
            )
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(
            report.schedules,
            interleavings(&[1, STEPS * 2 + 1, STEPS * 2 + 1]),
            "no schedule was pruned: the spec is guard-free"
        );
        assert!(
            saw_deadline.get(),
            "some schedule must be won by the deadline"
        );
        assert!(saw_io.get(), "some schedule must exhaust io first");
        // With io_limit < workers*steps every full run trips; completion
        // requires a cap at or above the total work.
        assert!(!saw_complete.get(), "io cap below total work always trips");
    }

    #[test]
    fn generous_budget_completes_and_caches() {
        let saw_cached = Cell::new(false);
        Explorer::new()
            .explore(
                &spec(WORKERS, 1),
                || init(WORKERS, 100),
                invariant,
                |s| {
                    if s.cached.iter().all(|&c| c) {
                        saw_cached.set(true);
                    }
                    final_check(s)
                },
            )
            .unwrap_or_else(|f| panic!("{f}"));
        // The deadline can still pass first, but schedules where it
        // passes last run to completion and cache.
        assert!(saw_cached.get(), "deadline-last schedules must cache");
    }

    #[test]
    fn overwriting_trip_is_caught_and_replays() {
        let failure = Explorer::new()
            .explore(
                &spec(WORKERS, STEPS),
                || overwrite_trip_init(WORKERS, IO_LIMIT),
                invariant,
                final_check,
            )
            .expect_err("a last-cause-wins trip must change its mind somewhere");
        assert_eq!(failure.kind, FailureKind::Invariant);
        assert!(
            failure.message.contains("changed its cause"),
            "{}",
            failure.message
        );
        let replayed = Explorer::new()
            .replay_str(
                &spec(WORKERS, STEPS),
                || overwrite_trip_init(WORKERS, IO_LIMIT),
                invariant,
                final_check,
                &failure.schedule_str(),
            )
            .expect_err("replay reproduces the double trip");
        assert_eq!(replayed.message, failure.message);
    }

    #[test]
    fn caching_a_stopped_result_is_caught() {
        let failure = Explorer::new()
            .explore(
                &spec(WORKERS, STEPS),
                || cache_stopped_init(WORKERS, IO_LIMIT),
                invariant,
                final_check,
            )
            .expect_err("caching truncated results must be flagged");
        assert_eq!(failure.kind, FailureKind::Invariant);
        assert!(
            failure.message.contains("cached a stopped result"),
            "{}",
            failure.message
        );
        let replayed = Explorer::new()
            .replay_str(
                &spec(WORKERS, STEPS),
                || cache_stopped_init(WORKERS, IO_LIMIT),
                invariant,
                final_check,
                &failure.schedule_str(),
            )
            .expect_err("replay reproduces the cached stopped result");
        assert_eq!(replayed.message, failure.message);
    }
}
