//! Per-request execution budgets: deadlines, simulated-IO caps and
//! checkpoint caps.
//!
//! The paper's whole premise is bounded work per query — NRA
//! early-termination and partial lists trade completeness for latency
//! (§4.3/§4.4), and §5.5's cost model makes disk IO *the* budgetable
//! resource. [`Budget`] turns that premise into a first-class request
//! parameter: the engine threads one shared budget from the planner into
//! every algorithm loop (NRA rounds, SMJ merge steps, TA rounds, exact
//! scoring chunks) and into every shard of a fanned-out execution.
//!
//! Checks are **cooperative**: each algorithm polls [`ShardBudget::check`]
//! at its natural loop boundary. A deadline or IO trip is *shared and
//! sticky* — the first shard to trip it stops every shard, so a
//! fanned-out query winds down as one unit. The step cap is split
//! instead: each shard's gauge counts its own checkpoints against
//! `ceil(cap / fanout)`, and reaching that quota stops only that gauge's
//! run, so where a step-capped shard stops never depends on how the
//! shard threads interleave. A budget-stopped run returns its current
//! top-k (the paper's anytime envelope: NRA's lower-bound candidates,
//! SMJ/TA's exactly-scored prefix) and the response is marked
//! [`Completeness::Truncated`] with the first cause that tripped.
//!
//! Three independent limits compose:
//!
//! * **deadline** — a wall-clock [`Instant`]; servers start it at request
//!   *arrival* so queue wait counts against it;
//! * **IO budget** — a cap on simulated disk page fetches
//!   (`ipm_storage`'s unit of §5.5 cost); per-shard gauges report each
//!   shard's pool activity into the shared counter;
//! * **step budget** — a cap on cooperative checkpoints passed, split
//!   evenly across a fan-out's shards. A gauge lives for one pass over
//!   one shard (the NRA floor seeding and each redundancy over-fetch
//!   round get fresh gauges), so the quota bounds each pass, not the
//!   request's sum; a step trip ends the over-fetch loop, so a later
//!   round only runs when no quota was reached. Wall clocks and page
//!   counters are environment-dependent; the step cap is the
//!   *deterministic* throttle, which makes truncation reproducible in
//!   tests at every fanout and lets operators bound work on the memory
//!   backend too.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::parse::ParseError;

/// Which budget dimension stopped a truncated execution
/// ([`Completeness::Truncated`]'s `budget_hit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The simulated-IO fetch cap was reached.
    Io,
    /// The cooperative-checkpoint cap was reached.
    Steps,
}

impl BudgetKind {
    /// The wire / display name.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Deadline => "deadline",
            BudgetKind::Io => "io",
            BudgetKind::Steps => "steps",
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_IO: u8 = 2;
const TRIP_STEPS: u8 = 3;

/// A per-request execution budget, shared (by reference) across every
/// shard thread of one query. All state is atomic; the struct never
/// blocks.
///
/// An unlimited budget ([`Budget::unlimited`]) makes every check a single
/// branch, so the unbudgeted path pays nothing.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    io_budget: Option<u64>,
    step_budget: Option<u64>,
    /// Simulated page fetches reported so far (all shards).
    io_used: AtomicU64,
    /// First cause to trip, sticky (`TRIP_*` codes).
    tripped: AtomicU8,
    /// Set by a deadline or IO trip, which stops every shard; a step
    /// trip stops only the gauge that reached its quota.
    halted: AtomicBool,
}

impl Budget {
    /// A budget with no limits attached — every check passes.
    pub const fn unlimited() -> Self {
        Self {
            deadline: None,
            io_budget: None,
            step_budget: None,
            io_used: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
            halted: AtomicBool::new(false),
        }
    }

    /// A shared unlimited budget (the default for the legacy
    /// `execute`/`search_with` shims).
    pub fn none() -> &'static Budget {
        static NONE: Budget = Budget::unlimited();
        &NONE
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Sets the deadline `d` from now.
    pub fn deadline_in(self, d: Duration) -> Self {
        // lint-allow: instant-now — builder runs once at query admission, not inside a scoring loop
        self.with_deadline(Instant::now() + d)
    }

    /// Caps simulated disk page fetches (sequential + random, the §5.5
    /// unit of IO cost) across all shards of the request.
    pub fn with_io_budget(mut self, fetches: u64) -> Self {
        self.io_budget = Some(fetches);
        self
    }

    /// Caps cooperative checkpoints — the deterministic throttle (each
    /// [`ShardBudget::check`] consumes one step of its gauge's
    /// `ceil(checks / fanout)` quota).
    pub fn with_step_budget(mut self, checks: u64) -> Self {
        self.step_budget = Some(checks);
        self
    }

    /// Whether no limit of any kind is attached.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.io_budget.is_none() && self.step_budget.is_none()
    }

    /// Whether an IO cap is attached (shard gauges only poll their pools
    /// when one is).
    pub fn has_io_budget(&self) -> bool {
        self.io_budget.is_some()
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Simulated page fetches reported against the IO cap so far.
    pub fn io_used(&self) -> u64 {
        // lint-allow: relaxed-ordering — advisory stats read; enforcement goes through the SeqCst trip
        self.io_used.load(Ordering::Relaxed)
    }

    /// Records `pages` fetches against the IO cap (no-op without one).
    pub fn charge_io(&self, pages: u64) {
        if self.io_budget.is_some() && pages > 0 {
            // lint-allow: relaxed-ordering — monotonic accumulation; a stale read only delays the trip by one poll
            self.io_used.fetch_add(pages, Ordering::Relaxed);
        }
    }

    fn trip(&self, code: u8) {
        // First cause wins the label; a deadline or IO trip halts every
        // shard even when a step trip already holds the label.
        let _ = self
            .tripped
            .compare_exchange(TRIP_NONE, code, Ordering::SeqCst, Ordering::SeqCst);
        if code != TRIP_STEPS {
            self.halted.store(true, Ordering::SeqCst);
        }
    }

    /// What tripped this budget, if anything did.
    pub fn trip_cause(&self) -> Option<BudgetKind> {
        match self.tripped.load(Ordering::SeqCst) {
            TRIP_DEADLINE => Some(BudgetKind::Deadline),
            TRIP_IO => Some(BudgetKind::Io),
            TRIP_STEPS => Some(BudgetKind::Steps),
            _ => None,
        }
    }

    /// Whether any limit has tripped (sticky): a shared one, or some
    /// shard's step quota.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst) != TRIP_NONE
    }

    /// Whether a deadline or IO trip has stopped every shard (sticky).
    fn is_halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }

    /// The shared half of a checkpoint: `false` once the deadline or the
    /// IO cap has tripped, here or on another shard. Steps are counted
    /// per gauge, by [`ShardBudget::check`].
    fn check_shared(&self) -> bool {
        if self.is_halted() {
            return false;
        }
        if let Some(deadline) = self.deadline {
            // lint-allow: instant-now — deadline enforcement needs the wall clock; polled per check(), not per posting
            if Instant::now() >= deadline {
                self.trip(TRIP_DEADLINE);
                return false;
            }
        }
        if let Some(cap) = self.io_budget {
            // lint-allow: relaxed-ordering — a stale read only delays the trip by one poll; the trip CAS is SeqCst
            if self.io_used.load(Ordering::Relaxed) >= cap {
                self.trip(TRIP_IO);
                return false;
            }
        }
        true
    }

    /// The error to shed a request with *before* doing any work: the
    /// deadline already passed (dead on arrival — e.g. it expired while
    /// the request sat in a server queue). `None` means the request may
    /// start.
    pub fn dead_on_arrival(&self) -> Option<SearchError> {
        if let Some(deadline) = self.deadline {
            // lint-allow: instant-now — runs once at admission to shed dead-on-arrival requests
            if Instant::now() >= deadline {
                self.trip(TRIP_DEADLINE);
                return Some(SearchError::DeadlineExceeded);
            }
        }
        None
    }
}

/// One shard's view of the shared [`Budget`]: carries the closure that
/// reads *this* shard's simulated-IO fetch counter, so each cooperative
/// check also reports the shard's IO delta into the shared cap, and this
/// shard's own count of checkpoints against its share of the step cap.
///
/// Created per shard thread (it is deliberately not `Sync` — the IO
/// watermark and the step count are single-threaded state).
pub struct ShardBudget<'a> {
    budget: &'a Budget,
    /// Reads this shard's total page fetches (e.g. its buffer pool's
    /// counter); `None` when no IO cap is set or the backend does no IO.
    io_now: Option<&'a dyn Fn() -> u64>,
    /// Fetch watermark already reported to the shared budget.
    last_io: Cell<u64>,
    /// This gauge's share of the step cap, `ceil(cap / fanout)`.
    step_quota: Option<u64>,
    /// Checkpoints this gauge has counted against `step_quota`.
    steps: Cell<u64>,
    /// False for unlimited budgets: checks reduce to one branch.
    active: bool,
}

impl<'a> ShardBudget<'a> {
    /// A gauge over `budget` for one shard of a `fanout`-way execution,
    /// with `io_now` reading the shard's fetch counter. The watermark
    /// starts at the counter's *current* value: pool counters are
    /// cumulative per query, and fetches performed before this gauge
    /// existed (the seed phase, an earlier over-fetch round) were already
    /// charged by the gauge that watched them — re-charging them would
    /// trip the cap at a fraction of its value.
    pub fn new(budget: &'a Budget, io_now: &'a dyn Fn() -> u64, fanout: usize) -> Self {
        let watching = budget.has_io_budget();
        Self {
            budget,
            io_now: watching.then_some(io_now),
            last_io: Cell::new(if watching { io_now() } else { 0 }),
            step_quota: budget
                .step_budget
                .map(|cap| cap.div_ceil(fanout.max(1) as u64)),
            steps: Cell::new(0),
            active: !budget.is_unlimited(),
        }
    }

    /// A gauge that never trips (the unbudgeted fast path).
    pub fn unlimited() -> ShardBudget<'static> {
        ShardBudget {
            budget: Budget::none(),
            io_now: None,
            last_io: Cell::new(0),
            step_quota: None,
            steps: Cell::new(0),
            active: false,
        }
    }

    /// Whether any limit is attached (callers may skip check points
    /// entirely when not).
    pub fn active(&self) -> bool {
        self.active
    }

    /// One cooperative checkpoint: reports this shard's IO delta, then
    /// evaluates every limit — the shared deadline and IO cap, then this
    /// gauge's step quota (the checkpoint that reaches the quota fails,
    /// as does every later one). `true` = keep working.
    #[inline]
    pub fn check(&self) -> bool {
        if !self.active {
            return true;
        }
        if let Some(io_now) = self.io_now {
            let now = io_now();
            let delta = now.saturating_sub(self.last_io.get());
            if delta > 0 {
                self.budget.charge_io(delta);
                self.last_io.set(now);
            }
        }
        if !self.budget.check_shared() {
            return false;
        }
        if let Some(quota) = self.step_quota {
            let steps = self.steps.get() + 1;
            self.steps.set(steps);
            if steps >= quota {
                self.budget.trip(TRIP_STEPS);
                return false;
            }
        }
        true
    }

    /// Whether this gauge's run was stopped: by its own step quota, or by
    /// a shared trip. A sibling shard's step trip does not count.
    pub fn stopped(&self) -> bool {
        self.budget.is_halted() || self.step_quota.is_some_and(|q| self.steps.get() >= q)
    }
}

/// How complete a served result is — the paper's exact-vs-partial-list
/// distinction (§4.3/§4.4), surfaced to callers instead of silently
/// degrading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// The result is the exact top-k (paper Eq. 3).
    Exact,
    /// The configuration is inherently approximate: some input list was
    /// partial before the query started.
    Approximate {
        /// Which configuration made the run approximate.
        reason: ApproxReason,
    },
    /// A budget stopped the run early; the hits are the anytime envelope
    /// at the stopping point (never a wrong exact score — only fewer hits
    /// or looser bounds).
    Truncated {
        /// Which budget dimension was exhausted.
        budget_hit: BudgetKind,
    },
}

impl Completeness {
    /// Whether the result is the exact answer.
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }

    /// Whether a budget stopped the run early.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Completeness::Truncated { .. })
    }
}

impl std::fmt::Display for Completeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completeness::Exact => write!(f, "exact"),
            Completeness::Approximate { reason } => {
                write!(f, "approximate ({})", reason.name())
            }
            Completeness::Truncated { budget_hit } => {
                write!(f, "truncated ({} budget)", budget_hit.name())
            }
        }
    }
}

/// Why a configuration is inherently approximate
/// ([`Completeness::Approximate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxReason {
    /// Run-time partial lists (paper §4.3): a list prefix, not the full
    /// list, fed the run.
    PartialLists,
    /// §4.5.1 delta corrections were applied: the stale list order no
    /// longer guarantees NRA's pruning bounds.
    DeltaCorrections,
    /// Distributed scatter-gather answered without some shards (every
    /// replica failed or missed the deadline): the hits are exact over
    /// the surviving phrase-id partitions, but phrases owned by the
    /// missing shards are absent.
    ShardsMissing {
        /// How many shards produced no result.
        missing: u32,
    },
}

impl ApproxReason {
    /// The wire / display name.
    pub fn name(self) -> &'static str {
        match self {
            ApproxReason::PartialLists => "partial_lists",
            ApproxReason::DeltaCorrections => "delta_corrections",
            ApproxReason::ShardsMissing { .. } => "shards_missing",
        }
    }
}

/// Structured failure of a [`crate::request::SearchRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The query string failed to parse (unknown term, mixed operators,
    /// empty query).
    Parse(ParseError),
    /// The deadline expired before execution started (dead on arrival):
    /// not even an anytime partial result could be produced.
    DeadlineExceeded,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Parse(e) => write!(f, "{e}"),
            SearchError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<ParseError> for SearchError {
    fn from(e: ParseError) -> Self {
        SearchError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_io() -> u64 {
        0
    }

    /// The gauge of an unsharded run over a backend that does no IO.
    fn gauge(b: &Budget) -> ShardBudget<'_> {
        ShardBudget::new(b, &no_io, 1)
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        let g = gauge(&b);
        for _ in 0..1000 {
            assert!(g.check());
        }
        assert!(!b.is_tripped());
        assert!(b.dead_on_arrival().is_none());
        // The shared unlimited budget must stay pristine even after use.
        assert_eq!(Budget::none().io_used(), 0);
        assert!(gauge(Budget::none()).check());
    }

    #[test]
    fn step_budget_trips_deterministically() {
        let b = Budget::unlimited().with_step_budget(3);
        let g = gauge(&b);
        assert!(g.check());
        assert!(g.check());
        assert!(!g.check(), "third checkpoint exhausts a 3-step budget");
        assert!(!g.check(), "tripping is sticky");
        assert!(g.stopped());
        assert_eq!(b.trip_cause(), Some(BudgetKind::Steps));
    }

    #[test]
    fn step_quota_is_split_by_fanout_and_stops_only_its_own_shard() {
        let b = Budget::unlimited().with_step_budget(3);
        let (g0, g1) = (
            ShardBudget::new(&b, &no_io, 2),
            ShardBudget::new(&b, &no_io, 2),
        );
        assert!(g0.check());
        assert!(
            !g0.check(),
            "ceil(3 / 2) = 2: the second checkpoint reaches the quota"
        );
        assert!(g0.stopped());
        assert_eq!(b.trip_cause(), Some(BudgetKind::Steps));
        assert!(
            !g1.stopped(),
            "a sibling's step trip leaves this shard running"
        );
        assert!(g1.check());
        assert!(
            !g1.check(),
            "this shard reaches its own quota at the same step"
        );

        // A shared trip stops every shard, whatever its step count.
        let b = Budget::unlimited().with_step_budget(100).with_io_budget(1);
        let (g0, g1) = (
            ShardBudget::new(&b, &no_io, 2),
            ShardBudget::new(&b, &no_io, 2),
        );
        b.charge_io(1);
        assert!(!g0.check());
        assert!(g1.stopped());
        assert!(!g1.check());
        assert_eq!(b.trip_cause(), Some(BudgetKind::Io));
    }

    #[test]
    fn io_budget_trips_after_reported_fetches() {
        let b = Budget::unlimited().with_io_budget(10);
        let g = gauge(&b);
        assert!(g.check());
        b.charge_io(4);
        assert!(g.check());
        b.charge_io(6);
        assert!(!g.check(), "10 fetches meet a 10-fetch cap");
        assert_eq!(b.trip_cause(), Some(BudgetKind::Io));
        assert_eq!(b.io_used(), 10);
    }

    #[test]
    fn deadline_trips_and_is_dead_on_arrival_when_past() {
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.dead_on_arrival(), Some(SearchError::DeadlineExceeded));
        assert!(!gauge(&b).check());
        assert_eq!(b.trip_cause(), Some(BudgetKind::Deadline));
        let future = Budget::unlimited().deadline_in(Duration::from_secs(3600));
        assert!(future.dead_on_arrival().is_none());
        assert!(gauge(&future).check());
    }

    #[test]
    fn first_trip_wins() {
        let b = Budget::unlimited().with_step_budget(1).with_io_budget(1);
        let (g0, g1) = (
            ShardBudget::new(&b, &no_io, 1),
            ShardBudget::new(&b, &no_io, 1),
        );
        assert!(!g0.check(), "1-step budget trips on the first checkpoint");
        b.charge_io(1);
        assert!(!g1.check(), "the IO trip still stops every shard");
        assert_eq!(
            b.trip_cause(),
            Some(BudgetKind::Steps),
            "first cause is sticky"
        );
    }

    #[test]
    fn shard_gauge_reports_io_deltas_once() {
        let b = Budget::unlimited().with_io_budget(100);
        let counter = Cell::new(0u64);
        let read = || counter.get();
        let gauge = ShardBudget::new(&b, &read, 1);
        assert!(gauge.active());
        counter.set(30);
        assert!(gauge.check());
        assert_eq!(b.io_used(), 30);
        // No new fetches: nothing re-reported.
        assert!(gauge.check());
        assert_eq!(b.io_used(), 30);
        counter.set(90);
        assert!(gauge.check());
        assert_eq!(b.io_used(), 90);
        counter.set(120);
        assert!(!gauge.check(), "cap exceeded after the delta lands");
        assert_eq!(b.trip_cause(), Some(BudgetKind::Io));
    }

    #[test]
    fn later_gauges_do_not_recharge_earlier_fetches() {
        // The pool counter is cumulative per query; a gauge created after
        // some fetches already happened (seed phase, earlier over-fetch
        // round) must charge only what happens on *its* watch.
        let b = Budget::unlimited().with_io_budget(100);
        let counter = Cell::new(0u64);
        let read = || counter.get();
        {
            let seed_gauge = ShardBudget::new(&b, &read, 1);
            counter.set(40);
            assert!(seed_gauge.check());
        }
        assert_eq!(b.io_used(), 40);
        // A fresh gauge over the same counter: watermark starts at 40.
        let shard_gauge = ShardBudget::new(&b, &read, 1);
        assert!(shard_gauge.check());
        assert_eq!(b.io_used(), 40, "the seed fetches must not be re-charged");
        counter.set(70);
        assert!(shard_gauge.check());
        assert_eq!(b.io_used(), 70);
    }

    #[test]
    fn unlimited_gauge_is_free() {
        let gauge = ShardBudget::unlimited();
        assert!(!gauge.active());
        for _ in 0..100 {
            assert!(gauge.check());
        }
    }

    #[test]
    fn completeness_display_names() {
        assert_eq!(Completeness::Exact.to_string(), "exact");
        assert_eq!(
            Completeness::Approximate {
                reason: ApproxReason::PartialLists
            }
            .to_string(),
            "approximate (partial_lists)"
        );
        assert_eq!(
            Completeness::Truncated {
                budget_hit: BudgetKind::Io
            }
            .to_string(),
            "truncated (io budget)"
        );
        assert!(Completeness::Exact.is_exact());
        assert!(Completeness::Truncated {
            budget_hit: BudgetKind::Deadline
        }
        .is_truncated());
    }
}
