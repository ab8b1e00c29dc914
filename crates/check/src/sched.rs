//! A deterministic bounded schedule explorer (loom-style, std-only).
//!
//! The engine's hard concurrent state — epoch-keyed cache invalidation
//! racing generation swaps, single-flight coalescing, sticky budget trips
//! racing the deadline, the router's hedge-delay feedback — is defended in
//! the integration suites only by timing-lucky thread schedules. This
//! module replaces luck with enumeration: a concurrent scenario is modeled
//! as a small set of **virtual threads**, each a sequence of atomic
//! **steps** over shared cloneable state, and the explorer runs the
//! scenario under *every* interleaving of those steps (bounded by the step
//! counts), checking an invariant after every step and a final check at
//! the end of each complete schedule.
//!
//! Two modes:
//!
//! * [`Explorer::explore`] — exhaustive DFS over all interleavings. A
//!   scenario with thread step counts `k1..kn` has
//!   `(k1+…+kn)! / (k1!·…·kn!)` schedules; keep the bounds small (the
//!   suites stay under ~100k schedules, milliseconds of work).
//! * [`Explorer::sample`] — seed-replayable random walks for scenarios
//!   whose exhaustive space is too large. The seed is printed on failure.
//!
//! Steps may carry a **guard** (modeling a blocked thread: a condvar wait,
//! a lock acquisition). The scheduler only picks threads whose next step
//! is enabled; if live threads remain but none is enabled, the schedule is
//! reported as a **deadlock**, which is itself a verification failure.
//!
//! Every failure carries the exact schedule that produced it as a
//! comma-separated thread-index string; [`Explorer::replay`] re-runs that
//! single schedule so a reported counterexample is reproducible in a
//! debugger (see `docs/verification.md`).

use std::fmt;

/// One atomic step of a virtual thread: an optional enabling guard plus
/// the state transition. Plain `fn` pointers keep specs `Copy`-cheap and
/// force all mutable state into the shared `S`, which is what makes
/// schedules replayable.
pub struct Step<S> {
    /// Step label, used in failure traces.
    pub name: &'static str,
    /// Enabling condition; `None` = always enabled. Receives the thread
    /// index so N structurally identical threads can share step tables.
    pub guard: Option<fn(&S, usize) -> bool>,
    /// The transition, applied atomically (one scheduler slot).
    pub run: fn(&mut S, usize),
}

impl<S> Step<S> {
    /// An always-enabled step.
    pub fn new(name: &'static str, run: fn(&mut S, usize)) -> Self {
        Self {
            name,
            guard: None,
            run,
        }
    }

    /// A step that only runs once `guard` holds (a modeled blocking wait).
    pub fn guarded(
        name: &'static str,
        guard: fn(&S, usize) -> bool,
        run: fn(&mut S, usize),
    ) -> Self {
        Self {
            name,
            guard: Some(guard),
            run,
        }
    }
}

// `Step` is plain data (fn pointers); hand-written Clone avoids an `S:
// Clone` bound leaking into the spec.
impl<S> Clone for Step<S> {
    fn clone(&self) -> Self {
        Self {
            name: self.name,
            guard: self.guard,
            run: self.run,
        }
    }
}

/// One virtual thread: a named, ordered list of steps.
#[derive(Clone)]
pub struct ThreadSpec<S> {
    /// Thread label, used in failure traces.
    pub name: &'static str,
    /// The steps, executed in order (the scheduler chooses interleaving
    /// *between* threads, never reorders within one).
    pub steps: Vec<Step<S>>,
}

impl<S> ThreadSpec<S> {
    /// A thread from its step list.
    pub fn new(name: &'static str, steps: Vec<Step<S>>) -> Self {
        Self { name, steps }
    }
}

/// A complete scenario: the virtual threads over a shared state `S`.
#[derive(Clone)]
pub struct Spec<S> {
    /// The threads; a schedule is a sequence of indexes into this list.
    pub threads: Vec<ThreadSpec<S>>,
}

impl<S> Spec<S> {
    /// A scenario from its thread list.
    pub fn new(threads: Vec<ThreadSpec<S>>) -> Self {
        Self { threads }
    }

    fn total_steps(&self) -> usize {
        self.threads.iter().map(|t| t.steps.len()).sum()
    }
}

/// Why one explored schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The per-step invariant reported a violation.
    Invariant,
    /// The end-of-schedule check reported a violation.
    FinalCheck,
    /// Live threads remain but none is enabled (a lost wakeup / stuck
    /// waiter in the modeled protocol).
    Deadlock,
}

/// A counterexample: the exact schedule plus what went wrong under it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What class of check failed.
    pub kind: FailureKind,
    /// Thread index chosen at each scheduler slot, in order.
    pub schedule: Vec<usize>,
    /// `thread.step` labels in execution order (parallel to `schedule`).
    pub trace: Vec<String>,
    /// The violation message from the invariant / final check.
    pub message: String,
    /// The sampling seed, when the failure came from [`Explorer::sample`].
    pub seed: Option<u64>,
}

impl Failure {
    /// The schedule as the comma-separated string [`Explorer::replay_str`]
    /// accepts.
    pub fn schedule_str(&self) -> String {
        self.schedule
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FailureKind::Invariant => "invariant violated",
            FailureKind::FinalCheck => "final check failed",
            FailureKind::Deadlock => "deadlock (live threads, none enabled)",
        };
        writeln!(f, "schedule explorer: {kind}: {}", self.message)?;
        writeln!(f, "  schedule: {}", self.schedule_str())?;
        if let Some(seed) = self.seed {
            writeln!(f, "  found by sampling with seed {seed}")?;
        }
        writeln!(f, "  trace:")?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "    {i:>3}: {step}")?;
        }
        write!(
            f,
            "  replay: Explorer::replay_str(&spec, init, inv, final_check, \"{}\")",
            self.schedule_str()
        )
    }
}

/// Summary of a successful exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Complete schedules executed (and checked) end to end.
    pub schedules: u64,
    /// Total steps across all explored schedules.
    pub steps: u64,
}

/// The explorer. Stateless apart from bounds; see the module docs for the
/// two modes.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Abort exhaustive exploration past this many complete schedules
    /// (guards against accidentally unbounded specs; the default is high
    /// enough for every suite in this repo).
    pub max_schedules: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            max_schedules: 2_000_000,
        }
    }
}

/// Splitmix64: tiny, deterministic, good enough to pick branches.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Explorer {
    /// An explorer with default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exhaustively explores every bounded interleaving of `spec`.
    ///
    /// `init` builds a fresh state per schedule; `invariant` runs after
    /// every step; `final_check` runs once per complete schedule. Returns
    /// the first counterexample found (DFS order), or a [`Report`].
    pub fn explore<S: Clone>(
        &self,
        spec: &Spec<S>,
        init: impl Fn() -> S,
        invariant: impl Fn(&S) -> Result<(), String>,
        final_check: impl Fn(&S) -> Result<(), String>,
    ) -> Result<Report, Failure> {
        let mut report = Report {
            schedules: 0,
            steps: 0,
        };
        let mut schedule = Vec::with_capacity(spec.total_steps());
        self.dfs(
            spec,
            &invariant,
            &final_check,
            init(),
            &mut vec![0; spec.threads.len()],
            &mut schedule,
            &mut report,
        )?;
        Ok(report)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs<S: Clone>(
        &self,
        spec: &Spec<S>,
        invariant: &impl Fn(&S) -> Result<(), String>,
        final_check: &impl Fn(&S) -> Result<(), String>,
        state: S,
        next: &mut Vec<usize>,
        schedule: &mut Vec<usize>,
        report: &mut Report,
    ) -> Result<(), Failure> {
        if report.schedules >= self.max_schedules {
            return Ok(());
        }
        let mut any_live = false;
        let mut any_enabled = false;
        for (tid, thread) in spec.threads.iter().enumerate() {
            let Some(step) = thread.steps.get(next[tid]) else {
                continue;
            };
            any_live = true;
            if step.guard.is_none_or(|g| g(&state, tid)) {
                any_enabled = true;
            }
        }
        if !any_live {
            report.schedules += 1;
            report.steps += schedule.len() as u64;
            return final_check(&state).map_err(|message| {
                self.failure(spec, FailureKind::FinalCheck, schedule, message, None)
            });
        }
        if !any_enabled {
            return Err(self.failure(
                spec,
                FailureKind::Deadlock,
                schedule,
                "no enabled thread".to_owned(),
                None,
            ));
        }
        for tid in 0..spec.threads.len() {
            let Some(step) = spec.threads[tid].steps.get(next[tid]) else {
                continue;
            };
            if !step.guard.is_none_or(|g| g(&state, tid)) {
                continue;
            }
            let mut branch = state.clone();
            (step.run)(&mut branch, tid);
            schedule.push(tid);
            next[tid] += 1;
            let res = invariant(&branch)
                .map_err(|message| {
                    self.failure(spec, FailureKind::Invariant, schedule, message, None)
                })
                .and_then(|()| {
                    self.dfs(spec, invariant, final_check, branch, next, schedule, report)
                });
            next[tid] -= 1;
            schedule.pop();
            res?;
        }
        Ok(())
    }

    /// Runs `samples` random schedules drawn from `seed` (deterministic:
    /// the same seed explores the same schedules). For spaces too large to
    /// exhaust; failures carry both the seed and the concrete schedule.
    pub fn sample<S: Clone>(
        &self,
        spec: &Spec<S>,
        init: impl Fn() -> S,
        invariant: impl Fn(&S) -> Result<(), String>,
        final_check: impl Fn(&S) -> Result<(), String>,
        seed: u64,
        samples: u64,
    ) -> Result<Report, Failure> {
        let mut rng = seed;
        let mut report = Report {
            schedules: 0,
            steps: 0,
        };
        for _ in 0..samples {
            let mut state = init();
            let mut next = vec![0usize; spec.threads.len()];
            let mut schedule = Vec::with_capacity(spec.total_steps());
            loop {
                let enabled: Vec<usize> = (0..spec.threads.len())
                    .filter(|&tid| {
                        spec.threads[tid]
                            .steps
                            .get(next[tid])
                            .is_some_and(|s| s.guard.is_none_or(|g| g(&state, tid)))
                    })
                    .collect();
                if enabled.is_empty() {
                    let live = (0..spec.threads.len())
                        .any(|tid| next[tid] < spec.threads[tid].steps.len());
                    if live {
                        let mut failure = self.failure(
                            spec,
                            FailureKind::Deadlock,
                            &schedule,
                            "no enabled thread".to_owned(),
                            Some(seed),
                        );
                        failure.seed = Some(seed);
                        return Err(failure);
                    }
                    break;
                }
                let tid = enabled[(splitmix64(&mut rng) % enabled.len() as u64) as usize];
                (spec.threads[tid].steps[next[tid]].run)(&mut state, tid);
                schedule.push(tid);
                next[tid] += 1;
                invariant(&state).map_err(|message| {
                    self.failure(spec, FailureKind::Invariant, &schedule, message, Some(seed))
                })?;
            }
            report.schedules += 1;
            report.steps += schedule.len() as u64;
            final_check(&state).map_err(|message| {
                self.failure(
                    spec,
                    FailureKind::FinalCheck,
                    &schedule,
                    message,
                    Some(seed),
                )
            })?;
        }
        Ok(report)
    }

    /// Replays exactly one schedule (a counterexample from a failure
    /// report). Errors if the schedule picks a finished or disabled
    /// thread; otherwise returns the invariant/final-check outcome.
    pub fn replay<S: Clone>(
        &self,
        spec: &Spec<S>,
        init: impl Fn() -> S,
        invariant: impl Fn(&S) -> Result<(), String>,
        final_check: impl Fn(&S) -> Result<(), String>,
        schedule: &[usize],
    ) -> Result<(), Failure> {
        let mut state = init();
        let mut next = vec![0usize; spec.threads.len()];
        let mut done = Vec::with_capacity(schedule.len());
        for (slot, &tid) in schedule.iter().enumerate() {
            let step = spec
                .threads
                .get(tid)
                .and_then(|t| t.steps.get(next[tid]))
                .unwrap_or_else(|| panic!("replay slot {slot}: thread {tid} has no step left"));
            assert!(
                step.guard.is_none_or(|g| g(&state, tid)),
                "replay slot {slot}: thread {tid} step '{}' is not enabled",
                step.name
            );
            (step.run)(&mut state, tid);
            done.push(tid);
            next[tid] += 1;
            invariant(&state).map_err(|message| {
                self.failure(spec, FailureKind::Invariant, &done, message, None)
            })?;
        }
        final_check(&state)
            .map_err(|message| self.failure(spec, FailureKind::FinalCheck, &done, message, None))
    }

    /// [`Explorer::replay`] from the comma-separated schedule string a
    /// [`Failure`] prints.
    pub fn replay_str<S: Clone>(
        &self,
        spec: &Spec<S>,
        init: impl Fn() -> S,
        invariant: impl Fn(&S) -> Result<(), String>,
        final_check: impl Fn(&S) -> Result<(), String>,
        schedule: &str,
    ) -> Result<(), Failure> {
        let parsed: Vec<usize> = schedule
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad schedule element '{s}'"))
            })
            .collect();
        self.replay(spec, init, invariant, final_check, &parsed)
    }

    fn failure<S>(
        &self,
        spec: &Spec<S>,
        kind: FailureKind,
        schedule: &[usize],
        message: String,
        seed: Option<u64>,
    ) -> Failure {
        let mut next = vec![0usize; spec.threads.len()];
        let trace = schedule
            .iter()
            .map(|&tid| {
                let step = &spec.threads[tid].steps[next[tid]];
                next[tid] += 1;
                format!("{}.{}", spec.threads[tid].name, step.name)
            })
            .collect();
        Failure {
            kind,
            schedule: schedule.to_vec(),
            trace,
            message,
            seed,
        }
    }
}

/// Multinomial interleaving count for thread step counts `ks` — the
/// number of schedules [`Explorer::explore`] visits for guard-free specs
/// (guards only ever *reduce* the count). Saturates at `u64::MAX`.
pub fn interleavings(ks: &[usize]) -> u64 {
    let mut total: u64 = 1;
    let mut placed: u64 = 0;
    for &k in ks {
        for i in 1..=k as u64 {
            placed += 1;
            // total * placed! / (i! * (placed-i)!) done incrementally:
            // multiply by placed then divide by i keeps exact integers.
            total = total.saturating_mul(placed) / i;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Default)]
    struct Counter {
        value: u64,
        per_thread: Vec<u64>,
    }

    fn incr_spec(threads: usize, steps: usize) -> Spec<Counter> {
        Spec::new(
            (0..threads)
                .map(|_| {
                    ThreadSpec::new(
                        "incr",
                        (0..steps)
                            .map(|_| {
                                Step::new("add", |s: &mut Counter, tid| {
                                    s.value += 1;
                                    s.per_thread[tid] += 1;
                                })
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn exhaustive_schedule_count_matches_multinomial() {
        for (threads, steps) in [(2usize, 2usize), (2, 4), (3, 2)] {
            let spec = incr_spec(threads, steps);
            let report = Explorer::new()
                .explore(
                    &spec,
                    || Counter {
                        value: 0,
                        per_thread: vec![0; threads],
                    },
                    |_| Ok(()),
                    |s| {
                        if s.value == (threads * steps) as u64 {
                            Ok(())
                        } else {
                            Err(format!("lost increments: {}", s.value))
                        }
                    },
                )
                .expect("counter model has no failures");
            assert_eq!(
                report.schedules,
                interleavings(&vec![steps; threads]),
                "{threads} threads x {steps} steps"
            );
        }
    }

    #[test]
    fn invariant_failure_reports_minimal_schedule_and_replays() {
        // A model with a planted race: two unsynchronized read-modify-write
        // pairs. The explorer must find the lost update and the reported
        // schedule must replay to the same failure.
        #[derive(Clone, Default)]
        struct Racy {
            shared: u64,
            local: [u64; 2],
            done: u32,
        }
        let spec = Spec::new(
            (0..2)
                .map(|_| {
                    ThreadSpec::new(
                        "rmw",
                        vec![
                            Step::new("read", |s: &mut Racy, tid| s.local[tid] = s.shared),
                            Step::new("write", |s: &mut Racy, tid| {
                                s.shared = s.local[tid] + 1;
                                s.done += 1;
                            }),
                        ],
                    )
                })
                .collect(),
        );
        let final_check = |s: &Racy| {
            if s.done == 2 && s.shared != 2 {
                Err(format!("lost update: shared = {}", s.shared))
            } else {
                Ok(())
            }
        };
        let failure = Explorer::new()
            .explore(&spec, Racy::default, |_| Ok(()), final_check)
            .expect_err("the lost update must be found");
        assert_eq!(failure.kind, FailureKind::FinalCheck);
        // Replaying the printed schedule reproduces the same violation.
        let replay = Explorer::new()
            .replay_str(
                &spec,
                Racy::default,
                |_| Ok(()),
                final_check,
                &failure.schedule_str(),
            )
            .expect_err("replay must reproduce the failure");
        assert_eq!(replay.message, failure.message);
        let shown = failure.to_string();
        assert!(shown.contains("schedule:"), "failure prints the schedule");
        assert!(shown.contains("rmw.read"), "failure prints a step trace");
    }

    #[test]
    fn guards_model_blocking_and_deadlocks_are_reported() {
        // One producer, one consumer whose only step waits on the flag.
        #[derive(Clone, Default)]
        struct Chan {
            ready: bool,
            got: bool,
        }
        let ok = Spec::new(vec![
            ThreadSpec::new(
                "producer",
                vec![Step::new("publish", |s: &mut Chan, _| s.ready = true)],
            ),
            ThreadSpec::new(
                "consumer",
                vec![Step::guarded(
                    "wait",
                    |s: &Chan, _| s.ready,
                    |s: &mut Chan, _| s.got = true,
                )],
            ),
        ]);
        let report = Explorer::new()
            .explore(
                &ok,
                Chan::default,
                |_| Ok(()),
                |s| {
                    if s.got {
                        Ok(())
                    } else {
                        Err("consumer never ran".into())
                    }
                },
            )
            .expect("guarded consumer always completes");
        // The guard serializes the two steps: exactly one schedule.
        assert_eq!(report.schedules, 1);

        // Remove the producer: the consumer can never be enabled.
        let stuck = Spec::new(vec![ThreadSpec::new(
            "consumer",
            vec![Step::guarded(
                "wait",
                |s: &Chan, _| s.ready,
                |s: &mut Chan, _| s.got = true,
            )],
        )]);
        let failure = Explorer::new()
            .explore(&stuck, Chan::default, |_| Ok(()), |_| Ok(()))
            .expect_err("a waiter with no signaler must deadlock");
        assert_eq!(failure.kind, FailureKind::Deadlock);
    }

    #[test]
    fn sampling_is_seed_deterministic_and_finds_planted_bugs() {
        let spec = incr_spec(3, 3);
        let run = |seed| {
            Explorer::new().sample(
                &spec,
                || Counter {
                    value: 0,
                    per_thread: vec![0; 3],
                },
                |_| Ok(()),
                |_| Ok(()),
                seed,
                64,
            )
        };
        let a = run(7).expect("sampling the counter model succeeds");
        let b = run(7).expect("sampling the counter model succeeds");
        assert_eq!(a, b, "same seed, same walk");

        // A bug that only one specific interleaving exposes: value dips
        // are observable mid-schedule via the invariant.
        #[derive(Clone, Default)]
        struct Spike {
            v: i64,
        }
        let spiky = Spec::new(vec![
            ThreadSpec::new("up", vec![Step::new("up", |s: &mut Spike, _| s.v += 1)]),
            ThreadSpec::new("down", vec![Step::new("down", |s: &mut Spike, _| s.v -= 1)]),
        ]);
        let failure = Explorer::new()
            .sample(
                &spiky,
                Spike::default,
                |s| {
                    if s.v < 0 {
                        Err(format!("v dipped to {}", s.v))
                    } else {
                        Ok(())
                    }
                },
                |_| Ok(()),
                99,
                256,
            )
            .expect_err("256 walks over 2 schedules must hit down-first");
        assert_eq!(failure.seed, Some(99));
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn interleaving_counts() {
        assert_eq!(interleavings(&[1]), 1);
        assert_eq!(interleavings(&[2, 2]), 6);
        assert_eq!(interleavings(&[4, 4]), 70);
        assert_eq!(interleavings(&[3, 3, 3]), 1680);
    }
}
