//! Models of the engine's real concurrent cores, checked under every
//! bounded schedule by [`crate::sched`].
//!
//! Each module models one concurrent core *as it actually behaves* in
//! `ipm_core` / `ipm_server` — the chutoro property-testing rule: model
//! the implementation, not an idealized helper. Each exposes the model
//! spec and its invariants as `pub fn`s so the integration suites (e.g.
//! `tests/budget.rs`) can run the same exploration next to the real
//! engine, and carries:
//!
//! * positive tests — the invariant holds under **every** bounded
//!   schedule (exhaustive, schedule count asserted);
//! * at least one negative test — a seeded-bug variant of the model (the
//!   torn read, the forgotten publish, the fed-back hedge win) whose
//!   violating schedule the explorer must find and replay. The negative
//!   tests are what keep the explorer honest: a framework that finds no
//!   planted bug proves nothing about the absence of real ones.
//!
//! The invariant catalogue, per-model schedule bounds and replay
//! instructions live in `docs/verification.md`.

pub mod budget_trip;
pub mod cache_epoch;
pub mod decode_cache;
pub mod hedge_feedback;
pub mod live_swap;
pub mod single_flight;
