//! Model: the batch path's epoch-keyed decoded-block cache.
//!
//! `execute_batch` pins the serving epoch once, then every block-backed
//! member (and the group's fused shared scan) probes and fills one
//! shared `DecodedBlockCache` whose keys carry that **pinned** epoch —
//! the decode itself always reads the block image captured with
//! the same snapshot. Mid-batch mutations bump the live epoch but must
//! never surface inside a running batch:
//!
//! 7. **Decode-cache epoch coherence** — a cache entry keyed
//!    `(epoch = e, offset)` always holds the block decoded from epoch
//!    `e`'s image, and every block a batch consumes is the one decoded
//!    from the batch's *pinned* epoch. (Entries for dead epochs linger
//!    unreachable — same scheme as the result cache, see
//!    [`crate::models::cache_epoch`].)
//!
//! The model mirrors the engine's batch path step for step: pin the
//! epoch, then per block probe-or-decode-and-admit under the pinned key.
//! The seeded-bug variant keys probe/admit with the **live** epoch while
//! still decoding from the pinned snapshot — the mid-batch-bump race the
//! epoch-carrying key exists to prevent (a batch pinned at the new epoch
//! would hit the mis-keyed entry and serve the old epoch's bits) — and
//! the explorer must catch it.

use crate::sched::{Spec, Step, ThreadSpec};

/// Offsets (≈ blocks) each modeled batch touches.
pub const BLOCKS: usize = 2;

/// The decoded bits of block `offset` in epoch `epoch`'s image: a pure
/// function, so a stale block is recognizably another epoch's value.
fn block_value(epoch: u64, offset: u64) -> u64 {
    epoch * 1000 + offset * 10 + 3
}

/// Shared state: live epoch, the decoded-block cache, per-batch pin and
/// consumption log.
#[derive(Debug, Clone)]
pub struct State {
    /// The live head's epoch.
    pub epoch: u64,
    /// Cache entries: `(key_epoch, offset, decoded_value)`.
    pub cache: Vec<(u64, u64, u64)>,
    /// Per-batch pinned epoch (the batch's one live-state snapshot).
    pub pinned: Vec<Option<u64>>,
    /// Per-batch consumed blocks: `(pinned_epoch, offset, value)`.
    pub consumed: Vec<Vec<(u64, u64, u64)>>,
}

impl State {
    fn new(batches: usize) -> Self {
        Self {
            epoch: 0,
            cache: Vec::new(),
            pinned: vec![None; batches],
            consumed: vec![Vec::new(); batches],
        }
    }
}

fn bump(s: &mut State, _tid: usize) {
    s.epoch += 1;
}

fn pin(s: &mut State, tid: usize) {
    s.pinned[tid - 1] = Some(s.epoch);
}

/// One probe-or-decode against the pinned key, consuming block `offset`
/// (derived from how many blocks this batch has already consumed).
fn probe_or_decode_pinned(s: &mut State, tid: usize) {
    let e = s.pinned[tid - 1].expect("pin step ran first");
    let offset = s.consumed[tid - 1].len() as u64;
    let hit = s
        .cache
        .iter()
        .find(|&&(k, o, _)| k == e && o == offset)
        .map(|&(_, _, v)| v);
    let v = match hit {
        Some(v) => v,
        None => {
            // Decode from the pinned image snapshot and admit under the
            // pinned key — the engine's `DecodeBinding { epoch, .. }`.
            let v = block_value(e, offset);
            s.cache.push((e, offset, v));
            v
        }
    };
    s.consumed[tid - 1].push((e, offset, v));
}

/// Seeded bug: probe and admit under the **live** epoch (the decode
/// still reads the pinned snapshot — images are `Arc`-held, the key is
/// what goes wrong first).
fn probe_or_decode_live_key(s: &mut State, tid: usize) {
    let e = s.pinned[tid - 1].expect("pin step ran first");
    let offset = s.consumed[tid - 1].len() as u64;
    let live = s.epoch;
    let hit = s
        .cache
        .iter()
        .find(|&&(k, o, _)| k == live && o == offset)
        .map(|&(_, _, v)| v);
    let v = match hit {
        Some(v) => v,
        None => {
            let v = block_value(e, offset);
            s.cache.push((live, offset, v));
            v
        }
    };
    s.consumed[tid - 1].push((e, offset, v));
}

fn batch(buggy: bool) -> ThreadSpec<State> {
    let mut steps = vec![Step::new("pin-epoch", pin)];
    for _ in 0..BLOCKS {
        steps.push(Step::new(
            "probe-or-decode",
            if buggy {
                probe_or_decode_live_key
            } else {
                probe_or_decode_pinned
            },
        ));
    }
    ThreadSpec::new(if buggy { "live-key-batch" } else { "batch" }, steps)
}

/// `batches` pinned batch executions (each `1 + BLOCKS` steps) racing
/// `bumps` single-step epoch mutations.
pub fn spec(bumps: usize, batches: usize) -> Spec<State> {
    let mut threads = vec![ThreadSpec::new(
        "mutator",
        (0..bumps).map(|_| Step::new("bump-epoch", bump)).collect(),
    )];
    for _ in 0..batches {
        threads.push(batch(false));
    }
    Spec::new(threads)
}

/// The seeded-bug variant: batches key the cache with the live epoch.
pub fn buggy_spec(bumps: usize, batches: usize) -> Spec<State> {
    let mut threads = vec![ThreadSpec::new(
        "mutator",
        (0..bumps).map(|_| Step::new("bump-epoch", bump)).collect(),
    )];
    for _ in 0..batches {
        threads.push(batch(true));
    }
    Spec::new(threads)
}

/// Fresh state for `spec(_, batches)`.
pub fn init(batches: usize) -> State {
    State::new(batches)
}

/// Invariant 7: every cache entry and every consumed block pairs its key
/// epoch with that epoch's decoded bits.
pub fn invariant(s: &State) -> Result<(), String> {
    for &(k, o, v) in &s.cache {
        if v != block_value(k, o) {
            return Err(format!(
                "cache entry (epoch {k}, offset {o}) holds {v}, that image's block is {}",
                block_value(k, o)
            ));
        }
    }
    for (i, consumed) in s.consumed.iter().enumerate() {
        for &(e, o, v) in consumed {
            if v != block_value(e, o) {
                return Err(format!(
                    "batch {i} consumed {v} for (pinned epoch {e}, offset {o}) — expected {}",
                    block_value(e, o)
                ));
            }
        }
    }
    Ok(())
}

/// End-of-schedule check: every batch consumed all its blocks.
pub fn final_check(s: &State) -> Result<(), String> {
    if s.consumed.iter().all(|c| c.len() == BLOCKS) {
        Ok(())
    } else {
        Err("a batch never finished its blocks".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{interleavings, Explorer, FailureKind};

    #[test]
    fn pinned_keys_are_coherent_under_every_schedule() {
        let (bumps, batches) = (3, 2);
        let report = Explorer::new()
            .explore(
                &spec(bumps, batches),
                || init(batches),
                invariant,
                final_check,
            )
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(
            report.schedules,
            interleavings(&[bumps, 1 + BLOCKS, 1 + BLOCKS])
        );
    }

    #[test]
    fn batches_pinned_at_the_same_epoch_share_decodes() {
        // With no mutator, both batches pin epoch 0: the second batch's
        // probes must hit the first's admissions (cache stays minimal).
        let report = Explorer::new()
            .explore(&spec(0, 2), || init(2), invariant, final_check)
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(report.schedules > 0);
    }

    #[test]
    fn live_epoch_keying_is_caught() {
        let failure = Explorer::new()
            .explore(&buggy_spec(2, 1), || init(1), invariant, final_check)
            .expect_err("live-epoch keys must mis-pair some schedule");
        assert_eq!(failure.kind, FailureKind::Invariant);
        let replayed = Explorer::new()
            .replay_str(
                &buggy_spec(2, 1),
                || init(1),
                invariant,
                final_check,
                &failure.schedule_str(),
            )
            .expect_err("replay reproduces the mis-keyed block");
        assert_eq!(replayed.message, failure.message);
    }
}
