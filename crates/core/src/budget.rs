//! Per-request execution budgets: deadlines, simulated-IO caps,
//! checkpoint caps and cooperative cancellation.
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
//! at its natural loop boundary. A check that fails is *sticky* — the
//! first shard to trip the budget trips it for every shard, so a
//! fanned-out query winds down as one unit. A budget-stopped run returns
//! its current top-k (the paper's anytime envelope: NRA's lower-bound
//! candidates, SMJ/TA's exactly-scored prefix) and the response is marked
//! [`Completeness::Truncated`]; a cancelled run returns
//! [`SearchError::Cancelled`] instead.
//!
//! Four independent limits compose:
//!
//! * **deadline** — a wall-clock [`Instant`]; servers start it at request
//!   *arrival* so queue wait counts against it;
//! * **IO budget** — a cap on simulated disk page fetches
//!   (`ipm_storage`'s unit of §5.5 cost); per-shard gauges report each
//!   shard's pool activity into the shared counter;
//! * **step budget** — a cap on cooperative checkpoints passed. Wall
//!   clocks and page counters are environment-dependent; the step cap is
//!   the *deterministic* throttle, which makes truncation reproducible in
//!   tests and lets operators bound work on the memory backend too;
//! * **cancellation** — a [`CancelToken`] flipped from any thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::parse::ParseError;

/// A cloneable cancellation handle. Cancelling is idempotent, sticky and
/// thread-safe; every clone observes the flip.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: every execution holding a clone of this
    /// token stops at its next cooperative checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

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

/// What tripped a budget (internal superset of [`BudgetKind`]:
/// cancellation surfaces as [`SearchError::Cancelled`], not as a
/// truncated response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// See [`BudgetKind::Deadline`].
    Deadline,
    /// See [`BudgetKind::Io`].
    Io,
    /// See [`BudgetKind::Steps`].
    Steps,
    /// The request's [`CancelToken`] was cancelled.
    Cancelled,
}

impl Trip {
    /// The truncation kind this trip maps to (`None` for cancellation,
    /// which is an error, not a truncated result).
    pub fn budget_kind(self) -> Option<BudgetKind> {
        match self {
            Trip::Deadline => Some(BudgetKind::Deadline),
            Trip::Io => Some(BudgetKind::Io),
            Trip::Steps => Some(BudgetKind::Steps),
            Trip::Cancelled => None,
        }
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_IO: u8 = 2;
const TRIP_STEPS: u8 = 3;
const TRIP_CANCELLED: u8 = 4;

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
    cancel: Option<CancelToken>,
    /// Simulated page fetches reported so far (all shards).
    io_used: AtomicU64,
    /// Cooperative checkpoints passed so far (all shards).
    steps_used: AtomicU64,
    /// First cause to trip, sticky (`TRIP_*` codes).
    tripped: AtomicU8,
}

impl Budget {
    /// A budget with no limits attached — every check passes.
    pub const fn unlimited() -> Self {
        Self {
            deadline: None,
            io_budget: None,
            step_budget: None,
            cancel: None,
            io_used: AtomicU64::new(0),
            steps_used: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
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
    /// [`ShardBudget::check`] consumes one step).
    pub fn with_step_budget(mut self, checks: u64) -> Self {
        self.step_budget = Some(checks);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether no limit of any kind is attached.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.io_budget.is_none()
            && self.step_budget.is_none()
            && self.cancel.is_none()
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
        // First cause wins; later checks observe the sticky state.
        let _ = self
            .tripped
            .compare_exchange(TRIP_NONE, code, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// What tripped this budget, if anything did.
    pub fn trip_cause(&self) -> Option<Trip> {
        match self.tripped.load(Ordering::SeqCst) {
            TRIP_DEADLINE => Some(Trip::Deadline),
            TRIP_IO => Some(Trip::Io),
            TRIP_STEPS => Some(Trip::Steps),
            TRIP_CANCELLED => Some(Trip::Cancelled),
            _ => None,
        }
    }

    /// Whether any limit has tripped (sticky).
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst) != TRIP_NONE
    }

    /// One cooperative checkpoint: `true` = keep working, `false` = stop
    /// now (some limit tripped — here or on another shard). Consumes one
    /// step against the step cap.
    pub fn check(&self) -> bool {
        if self.is_unlimited() {
            return true;
        }
        if self.is_tripped() {
            return false;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(TRIP_CANCELLED);
                return false;
            }
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
        if let Some(cap) = self.step_budget {
            // lint-allow: relaxed-ordering — step counting tolerates cap overshoot by in-flight increments
            if self.steps_used.fetch_add(1, Ordering::Relaxed) + 1 >= cap {
                self.trip(TRIP_STEPS);
                return false;
            }
        }
        true
    }

    /// The error to shed a request with *before* doing any work: the
    /// deadline already passed (dead on arrival — e.g. it expired while
    /// the request sat in a server queue) or the token is already
    /// cancelled. `None` means the request may start.
    pub fn dead_on_arrival(&self) -> Option<SearchError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(TRIP_CANCELLED);
                return Some(SearchError::Cancelled);
            }
        }
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
/// check also reports the shard's IO delta into the shared cap.
///
/// Created per shard thread (it is deliberately not `Sync` — the IO
/// watermark is single-threaded state).
pub struct ShardBudget<'a> {
    budget: &'a Budget,
    /// Reads this shard's total page fetches (e.g. its buffer pool's
    /// counter); `None` when no IO cap is set or the backend does no IO.
    io_now: Option<&'a dyn Fn() -> u64>,
    /// Fetch watermark already reported to the shared budget.
    last_io: Cell<u64>,
    /// False for unlimited budgets: checks reduce to one branch.
    active: bool,
}

impl<'a> ShardBudget<'a> {
    /// A gauge over `budget` with `io_now` reading the shard's fetch
    /// counter. The watermark starts at the counter's *current* value:
    /// pool counters are cumulative per query, and fetches performed
    /// before this gauge existed (the seed phase, an earlier over-fetch
    /// round) were already charged by the gauge that watched them —
    /// re-charging them would trip the cap at a fraction of its value.
    pub fn new(budget: &'a Budget, io_now: &'a dyn Fn() -> u64) -> Self {
        let watching = budget.has_io_budget();
        Self {
            budget,
            io_now: watching.then_some(io_now),
            last_io: Cell::new(if watching { io_now() } else { 0 }),
            active: !budget.is_unlimited(),
        }
    }

    /// A gauge that never trips (the unbudgeted fast path).
    pub fn unlimited() -> ShardBudget<'static> {
        ShardBudget {
            budget: Budget::none(),
            io_now: None,
            last_io: Cell::new(0),
            active: false,
        }
    }

    /// Whether any limit is attached (callers may skip check points
    /// entirely when not).
    pub fn active(&self) -> bool {
        self.active
    }

    /// One cooperative checkpoint: reports this shard's IO delta, then
    /// evaluates every limit. `true` = keep working.
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
        self.budget.check()
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
    /// The request's [`CancelToken`] was cancelled (before or during
    /// execution). No partial result is returned — cancellation means
    /// the caller stopped caring.
    Cancelled,
    /// The deadline expired before execution started (dead on arrival):
    /// not even an anytime partial result could be produced.
    DeadlineExceeded,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Parse(e) => write!(f, "{e}"),
            SearchError::Cancelled => write!(f, "request cancelled"),
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

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            assert!(b.check());
        }
        assert!(!b.is_tripped());
        assert!(b.dead_on_arrival().is_none());
        // The shared unlimited budget must stay pristine even after use.
        assert_eq!(Budget::none().io_used(), 0);
        assert!(Budget::none().check());
    }

    #[test]
    fn step_budget_trips_deterministically() {
        let b = Budget::unlimited().with_step_budget(3);
        assert!(b.check());
        assert!(b.check());
        assert!(!b.check(), "third checkpoint exhausts a 3-step budget");
        assert!(!b.check(), "tripping is sticky");
        assert_eq!(b.trip_cause(), Some(Trip::Steps));
        assert_eq!(
            b.trip_cause().unwrap().budget_kind(),
            Some(BudgetKind::Steps)
        );
    }

    #[test]
    fn io_budget_trips_after_reported_fetches() {
        let b = Budget::unlimited().with_io_budget(10);
        assert!(b.check());
        b.charge_io(4);
        assert!(b.check());
        b.charge_io(6);
        assert!(!b.check(), "10 fetches meet a 10-fetch cap");
        assert_eq!(b.trip_cause(), Some(Trip::Io));
        assert_eq!(b.io_used(), 10);
    }

    #[test]
    fn deadline_trips_and_is_dead_on_arrival_when_past() {
        let b = Budget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.dead_on_arrival(), Some(SearchError::DeadlineExceeded));
        assert!(!b.check());
        assert_eq!(b.trip_cause(), Some(Trip::Deadline));
        let future = Budget::unlimited().deadline_in(Duration::from_secs(3600));
        assert!(future.dead_on_arrival().is_none());
        assert!(future.check());
    }

    #[test]
    fn cancel_token_trips_from_any_clone() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.check());
        let other = token.clone();
        other.cancel();
        assert!(!b.check());
        assert_eq!(b.trip_cause(), Some(Trip::Cancelled));
        assert_eq!(b.dead_on_arrival(), Some(SearchError::Cancelled));
        assert_eq!(Trip::Cancelled.budget_kind(), None);
    }

    #[test]
    fn first_trip_wins() {
        let token = CancelToken::new();
        let b = Budget::unlimited()
            .with_step_budget(1)
            .with_cancel(token.clone());
        assert!(!b.check(), "1-step budget trips on the first checkpoint");
        token.cancel();
        assert!(!b.check());
        assert_eq!(b.trip_cause(), Some(Trip::Steps), "first cause is sticky");
    }

    #[test]
    fn shard_gauge_reports_io_deltas_once() {
        let b = Budget::unlimited().with_io_budget(100);
        let counter = Cell::new(0u64);
        let read = || counter.get();
        let gauge = ShardBudget::new(&b, &read);
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
        assert_eq!(b.trip_cause(), Some(Trip::Io));
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
            let seed_gauge = ShardBudget::new(&b, &read);
            counter.set(40);
            assert!(seed_gauge.check());
        }
        assert_eq!(b.io_used(), 40);
        // A fresh gauge over the same counter: watermark starts at 40.
        let shard_gauge = ShardBudget::new(&b, &read);
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
