//! Algorithm 1: scoring over score-ordered lists, NRA style.
//!
//! Modeled on the No-Random-Access member of the threshold-algorithm family
//! (Fagin et al.), as the paper adapts it (§4.3):
//!
//! * the `r` lists are read round-robin, one entry per list per iteration;
//! * every candidate keeps the sum of its *seen* score terms (its lower
//!   bound for OR; for AND the lower bound stays `-∞` until the phrase has
//!   been seen in all lists, since an absent feature zeroes the product);
//! * per-list *global bounds* — the last score seen on each list — bound
//!   every unseen entry, giving candidate upper bounds and the score ceiling
//!   of hitherto-unseen phrases;
//! * when no unseen phrase can reach the current top-k, the `checknew` flag
//!   turns off and new phrases are no longer admitted (paper line 11);
//! * candidates are pruned and the stop condition tested once per batch of
//!   `b` iterations (the paper's §4.5 batching optimization);
//! * the algorithm stops early when the current top-k is final, and always
//!   returns the top-k *by upper bound* (paper: "the phrases corresponding
//!   to top-k candidates from C based on their upper bounds").
//!
//! The candidate set C is a flat table — a dense `Vec` of live candidates
//! plus a phrase-id-indexed slot array that is trusted only when the
//! entry it points at names the same phrase — so one table per thread is
//! reused across runs without ever resetting the slots. The stop test is
//! order-independent ([`top_k_is_final`]): the k slots go to every
//! candidate above the k-th lower bound, then to the members of that
//! bound's tie group with the highest upper bounds, and the run stops iff
//! every other candidate's upper bound is at most the defended line.
//!
//! Works over any [`ScoredListCursor`] — in-memory slices or the simulated
//! disk of `ipm-storage`.

use crate::budget::ShardBudget;
use crate::query::Operator;
use crate::result::PhraseHit;
use crate::scoring::{absent_score, entry_score};
use ipm_corpus::PhraseId;
use ipm_index::cursor::ScoredListCursor;
use std::cell::Cell;
use std::cmp::Ordering;

/// NRA tuning parameters.
#[derive(Debug, Clone)]
pub struct NraConfig {
    /// Result size `k`.
    pub k: usize,
    /// Batch size `b`: pruning and stop checks run every `b` round-robin
    /// iterations. "While small batch sizes in the order of thousands could
    /// drastically improve run-times, extremely large values can be
    /// detrimental" (paper §4.5).
    pub batch_size: usize,
    /// Whether the cursors expose *partial* (truncated) lists. With full
    /// lists, a list that is exhausted contributes `P = 0` (OR) or `-∞`
    /// (AND) to unseen candidates; with partial lists the tail below the
    /// truncation point may still hold the phrase, so the last seen score
    /// remains the only safe bound.
    pub lists_are_partial: bool,
    /// An externally known lower bound on the k-th best score of the
    /// *final* result this run contributes to (`-∞` = none, the classic
    /// standalone behaviour). The admission gate, pruning and the stop
    /// test all use `max(local kth lower bound, lower_floor)`: candidates
    /// whose ceiling cannot reach the floor are dead even when this run
    /// has not yet found `k` of its own.
    ///
    /// This is the shard-coordination hook of partitioned execution
    /// (TPUT-style): a shard's local k-th score is weaker than the global
    /// one, so without a floor every shard must read far deeper than the
    /// unsharded run to defend its own top-k; seeding the global floor
    /// restores (and divides) the unsharded stopping depth. Safe for
    /// correctness whenever the floor truly lower-bounds the final k-th
    /// score: no phrase the merged result can contain is ever gated,
    /// pruned, or stopped over.
    pub lower_floor: f64,
}

impl Default for NraConfig {
    fn default() -> Self {
        Self {
            k: 5,
            batch_size: 1024,
            lists_are_partial: false,
            lower_floor: f64::NEG_INFINITY,
        }
    }
}

/// Traversal accounting (drives the paper's Figure 11).
#[derive(Debug, Clone, Default)]
pub struct TraversalStats {
    /// Entries read per list.
    pub entries_read: Vec<usize>,
    /// Full (possibly truncated) list lengths.
    pub list_lens: Vec<usize>,
    /// Whether the stop condition fired before the lists were exhausted.
    pub stopped_early: bool,
    /// Largest candidate-set size observed.
    pub peak_candidates: usize,
    /// Number of prune/stop evaluation rounds.
    pub prune_rounds: usize,
}

impl TraversalStats {
    /// Mean fraction of the lists traversed, averaged over non-empty lists
    /// (Figure 11's y-axis).
    pub fn fraction_traversed(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for (&read, &len) in self.entries_read.iter().zip(&self.list_lens) {
            if len > 0 {
                total += read as f64 / len as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Total entries read across lists.
    pub fn total_entries_read(&self) -> usize {
        self.entries_read.iter().sum()
    }
}

/// The result of an NRA run.
#[derive(Debug, Clone)]
pub struct NraOutcome {
    /// Top-k hits, ranked by upper bound (desc), then lower bound, then id.
    pub hits: Vec<PhraseHit>,
    /// Traversal accounting.
    pub stats: TraversalStats,
}

/// One live member of the candidate set C.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    sum_seen: f64,
    phrase: PhraseId,
    seen_mask: u32,
}

/// The candidate set C as a sparse set: `live` holds the candidates
/// densely and `slot[p]` the index of phrase `p` in `live`. A slot is
/// believed only when the entry it points at names `p`, so stale slots —
/// pruned candidates, earlier runs, a run that unwound mid-traversal —
/// are harmless, and a run starts by clearing `live` alone instead of
/// touching the `O(|P|)` slot array.
#[derive(Debug, Default)]
struct CandidateTable {
    live: Vec<Candidate>,
    slot: Vec<u32>,
    /// `(lower, upper)` per live candidate for the current prune round,
    /// aligned with `live`.
    bounds: Vec<(f64, f64)>,
    /// Selection scratch for the k-th lower bound.
    lowers: Vec<f64>,
}

thread_local! {
    /// This thread's table, taken for the length of a run and put back
    /// after it. A run that panics drops its table; a re-entrant run (a
    /// cursor that itself runs NRA) finds the cell empty — either way the
    /// run works on a fresh local table instead of shared state.
    static TABLE: Cell<CandidateTable> = const { Cell::new(CandidateTable::new()) };
}

impl CandidateTable {
    const fn new() -> Self {
        Self {
            live: Vec::new(),
            slot: Vec::new(),
            bounds: Vec::new(),
            lowers: Vec::new(),
        }
    }

    /// Records score `s` of `phrase` on the list with seen-bit `bit`;
    /// admits the phrase as a new candidate only when `admit` holds.
    #[inline]
    fn see(&mut self, phrase: PhraseId, bit: u32, s: f64, admit: bool) {
        let p = phrase.index();
        if let Some(&at) = self.slot.get(p) {
            if let Some(c) = self.live.get_mut(at as usize) {
                if c.phrase == phrase {
                    if c.seen_mask & bit == 0 {
                        c.sum_seen += s;
                        c.seen_mask |= bit;
                    }
                    return;
                }
            }
        }
        if admit {
            if p >= self.slot.len() {
                self.grow(p);
            }
            self.slot[p] = self.live.len() as u32;
            self.live.push(Candidate {
                sum_seen: s,
                phrase,
                seen_mask: bit,
            });
        }
    }

    /// Grows the slot array to cover phrase `p`. Slot contents need no
    /// initial value, so the new array is a fresh zeroed allocation (its
    /// untouched pages are never written) pointed at the live candidates.
    #[cold]
    fn grow(&mut self, p: usize) {
        self.slot = vec![0; (p + 1).max(2 * self.slot.len())];
        for (at, c) in self.live.iter().enumerate() {
            self.slot[c.phrase.index()] = at as u32;
        }
    }

    /// Keeps the candidates whose upper bound from this round's bounds
    /// pass satisfies `keep`, compacting `live` and re-pointing the slots
    /// of the entries that moved.
    fn retain_upper(&mut self, keep: impl Fn(f64) -> bool) {
        let mut w = 0;
        for at in 0..self.live.len() {
            if keep(self.bounds[at].1) {
                if w != at {
                    let c = self.live[at];
                    self.live[w] = c;
                    self.slot[c.phrase.index()] = w as u32;
                }
                w += 1;
            }
        }
        self.live.truncate(w);
    }

    /// Prunes hopeless candidates, refreshes `checknew`, and reports
    /// whether the current top-k is final. `bounds` are the per-list
    /// unseen-entry bounds from [`list_bounds`].
    fn prune_and_check(
        &mut self,
        checknew: &mut bool,
        op: Operator,
        config: &NraConfig,
        full_mask: u32,
        bounds: &[f64],
    ) -> bool {
        // Upper bound of a completely unseen phrase.
        let unseen_upper: f64 = bounds.iter().sum();

        // One bounds pass, then the k-th best lower bound.
        self.bounds.clear();
        self.bounds.extend(
            self.live
                .iter()
                .map(|c| candidate_bounds(c, op, full_mask, bounds)),
        );
        let kth_lower = kth_lower(&self.bounds, config.k, &mut self.lowers);
        // The effective defence line: the local k-th lower bound or the
        // externally seeded floor, whichever is stronger.
        let kth_eff = kth_lower.max(config.lower_floor);

        // Line 11: no new candidates once they cannot reach the top-k. `>=`
        // keeps admitting score ties (conservative).
        *checknew = unseen_upper >= kth_eff;

        // Line 13, over every candidate of this round: the current
        // candidates are final when (a) no unseen phrase can reach the
        // defended line and (b) no candidate outside the local top-k can
        // overtake it. With a seeded floor and fewer than k local
        // candidates, (b) is vacuous — everything retained is already in
        // the returned set, and the floor alone defends against the
        // unseen.
        let done = kth_eff > f64::NEG_INFINITY
            && unseen_upper <= kth_eff
            && others_below_line(&self.bounds, config.k, kth_lower, kth_eff);

        // Line 12: drop candidates whose ceiling is below the k-th floor.
        if kth_eff > f64::NEG_INFINITY {
            self.retain_upper(|upper| upper >= kth_eff);
        } else if matches!(op, Operator::And) {
            // Even without k candidates yet, AND candidates that can never
            // be completed (missing from a fully-read list) are dead.
            self.retain_upper(|upper| upper > f64::NEG_INFINITY);
        }
        done
    }

    /// The final ranking (paper §4.3): the top-k by upper bound, ties by
    /// lower bound, then by phrase id — selected, then only those k sorted.
    fn rank(&self, op: Operator, full_mask: u32, bounds: &[f64], k: usize) -> Vec<PhraseHit> {
        let mut ranked: Vec<PhraseHit> = self
            .live
            .iter()
            .map(|c| {
                let (lower, upper) = candidate_bounds(c, op, full_mask, bounds);
                let score = if lower.is_finite() { lower } else { upper };
                PhraseHit {
                    phrase: c.phrase,
                    score,
                    lower,
                    upper,
                }
            })
            .filter(|h| h.upper > f64::NEG_INFINITY)
            .collect();
        // A total order: phrase ids are unique within the table.
        let order = |a: &PhraseHit, b: &PhraseHit| {
            b.upper
                .partial_cmp(&a.upper)
                .unwrap_or(Ordering::Equal)
                .then(b.lower.partial_cmp(&a.lower).unwrap_or(Ordering::Equal))
                .then(a.phrase.cmp(&b.phrase))
        };
        if ranked.len() > k {
            ranked.select_nth_unstable_by(k - 1, order);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(order);
        ranked
    }
}

/// Runs NRA over `cursors` (one per query feature, score-ordered) with no
/// execution budget.
///
/// # Panics
/// Panics if more than 32 cursors are supplied (queries are 2–6 words in
/// practice; the seen-set is a `u32` bitmask) or if `k == 0`.
pub fn run_nra<C: ScoredListCursor>(
    cursors: Vec<C>,
    op: Operator,
    config: &NraConfig,
) -> NraOutcome {
    run_nra_with(cursors, op, config, &ShardBudget::unlimited())
}

/// [`run_nra`] under a cooperative execution budget: the budget is
/// checked once per round-robin round (the tightest boundary that still
/// amortizes the check), and a failed check stops the traversal — the
/// final ranking then returns the *current* top-k by upper bound, which
/// is exactly the paper's anytime envelope (every candidate's `[lower,
/// upper]` interval still brackets its true aggregate).
///
/// # Panics
/// See [`run_nra`].
pub fn run_nra_with<C: ScoredListCursor>(
    mut cursors: Vec<C>,
    op: Operator,
    config: &NraConfig,
    budget: &ShardBudget<'_>,
) -> NraOutcome {
    let r = cursors.len();
    assert!(r <= 32, "at most 32 query features supported");
    assert!(config.k > 0, "k must be positive");
    let full_mask: u32 = if r == 32 { u32::MAX } else { (1u32 << r) - 1 };

    let list_lens: Vec<usize> = cursors.iter().map(|c| c.len()).collect();

    // Per-list state. Before any entry is read the best possible score of a
    // list entry is entry_score(op, 1.0) (probabilities never exceed 1).
    let mut last_seen: Vec<f64> = vec![entry_score(op, 1.0); r];
    let mut exhausted: Vec<bool> = cursors.iter().map(|c| c.is_empty()).collect();
    let mut bounds: Vec<f64> = Vec::with_capacity(r);

    let mut table = TABLE.try_with(Cell::take).unwrap_or_default();
    table.live.clear();
    let mut checknew = true;
    let mut stats = TraversalStats {
        entries_read: vec![0; r],
        list_lens,
        ..Default::default()
    };

    let batch = config.batch_size.max(1);
    let mut iter_in_batch = 0usize;

    loop {
        let mut progressed = false;
        for i in 0..r {
            if exhausted[i] {
                continue;
            }
            match cursors[i].next_entry() {
                Some(entry) => {
                    progressed = true;
                    stats.entries_read[i] += 1;
                    let s = entry_score(op, entry.prob);
                    last_seen[i] = s;
                    table.see(entry.phrase, 1u32 << i, s, checknew);
                }
                None => exhausted[i] = true,
            }
        }
        stats.peak_candidates = stats.peak_candidates.max(table.live.len());

        if !budget.check() {
            // Budget exhausted (or tripped by a sibling shard): stop here
            // and fall through to the final anytime ranking.
            stats.stopped_early = true;
            break;
        }

        let all_exhausted = exhausted.iter().all(|&e| e);
        iter_in_batch += 1;
        if iter_in_batch >= batch || all_exhausted {
            iter_in_batch = 0;
            stats.prune_rounds += 1;
            list_bounds(op, config, &last_seen, &exhausted, &mut bounds);
            let done = table.prune_and_check(&mut checknew, op, config, full_mask, &bounds);
            if done && !all_exhausted {
                stats.stopped_early = true;
                break;
            }
        }
        if all_exhausted || !progressed {
            break;
        }
    }

    list_bounds(op, config, &last_seen, &exhausted, &mut bounds);
    let hits = table.rank(op, full_mask, &bounds, config.k);
    // Ignored only during thread teardown, when the table just goes away.
    let _ = TABLE.try_with(|cell| cell.set(table));
    NraOutcome { hits, stats }
}

/// Per-list bound on the score of an entry not yet seen on that list,
/// written into `out`.
fn list_bounds(
    op: Operator,
    config: &NraConfig,
    last_seen: &[f64],
    exhausted: &[bool],
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend(last_seen.iter().zip(exhausted).map(|(&s, &ex)| {
        if ex && !config.lists_are_partial {
            // Fully read: any phrase not seen there is truly absent.
            absent_score(op)
        } else {
            s
        }
    }));
}

/// `(lower, upper)` bounds of one candidate given per-list bounds.
fn candidate_bounds(c: &Candidate, op: Operator, full_mask: u32, bounds: &[f64]) -> (f64, f64) {
    let mut upper = c.sum_seen;
    for (i, &b) in bounds.iter().enumerate() {
        if c.seen_mask & (1 << i) == 0 {
            upper += b;
        }
    }
    let lower = match op {
        Operator::Or => c.sum_seen,
        Operator::And => {
            if c.seen_mask == full_mask {
                c.sum_seen
            } else {
                f64::NEG_INFINITY
            }
        }
    };
    (lower, upper)
}

/// The k-th largest lower bound of `pairs` (`-∞` with fewer than `k`),
/// selected in `scratch`.
fn kth_lower(pairs: &[(f64, f64)], k: usize, scratch: &mut Vec<f64>) -> f64 {
    if pairs.len() < k {
        return f64::NEG_INFINITY;
    }
    scratch.clear();
    scratch.extend(pairs.iter().map(|&(lower, _)| lower));
    *scratch
        .select_nth_unstable_by(k - 1, |a, b| {
            b.partial_cmp(a).expect("bounds are never NaN")
        })
        .1
}

/// Whether the k slots can be filled so that every candidate left out has
/// an upper bound `<= kth_eff`. The slots go to every candidate whose
/// lower bound is above `kth_lower`, then to the members of the tie group
/// at `kth_lower` with the highest upper bounds — so the answer depends on
/// the multiset of pairs only, never on their order. One pass: below the
/// tie group every upper bound must fit under the line, and inside it no
/// more members may exceed the line than there are slots left. With at
/// most `k` pairs every pair gets a slot, so the answer is `true`.
fn others_below_line(pairs: &[(f64, f64)], k: usize, kth_lower: f64, kth_eff: f64) -> bool {
    let mut above = 0usize;
    let mut tied_over = 0usize;
    for &(lower, upper) in pairs {
        if lower > kth_lower {
            above += 1;
        } else if upper > kth_eff {
            if lower < kth_lower {
                return false;
            }
            tied_over += 1;
        }
    }
    tied_over <= k - above
}

/// Whether the current top-k of the candidates `pairs` (each a `(lower,
/// upper)` bound pair) is final against the candidates outside it, given
/// the defended line `kth_eff` — NRA's stop test (paper line 13) minus its
/// unseen-phrase half. True with at most `k` candidates; otherwise true iff
/// some k-subset a lower-bound ranking could hold (every member's lower
/// bound `>=` every non-member's) leaves only upper bounds `<= kth_eff`
/// outside. Candidates that tie at the k-th lower bound therefore never
/// make the answer depend on the order they are listed in.
///
/// # Panics
/// If `k == 0` or a bound is NaN.
pub fn top_k_is_final(pairs: &[(f64, f64)], k: usize, kth_eff: f64) -> bool {
    assert!(k > 0, "k must be positive");
    others_below_line(pairs, k, kth_lower(pairs, k, &mut Vec::new()), kth_eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_index::cursor::MemoryCursor;
    use ipm_index::wordlists::ListEntry;

    fn entries(pairs: &[(u32, f64)]) -> Vec<ListEntry> {
        pairs
            .iter()
            .map(|&(id, prob)| ListEntry {
                phrase: PhraseId(id),
                prob,
            })
            .collect()
    }

    fn run(
        lists: &[Vec<ListEntry>],
        op: Operator,
        k: usize,
        batch: usize,
        partial: bool,
    ) -> NraOutcome {
        let cursors: Vec<MemoryCursor> = lists.iter().map(|l| MemoryCursor::new(l)).collect();
        run_nra(
            cursors,
            op,
            &NraConfig {
                k,
                batch_size: batch,
                lists_are_partial: partial,
                ..Default::default()
            },
        )
    }

    /// The paper's worked example (Figure 3): OR query, two lists, k = 2;
    /// after reading three entries each the algorithm can stop and declare
    /// {P1, P103}.
    #[test]
    fn paper_figure3_example() {
        let l1 = entries(&[
            (103, 0.26),
            (5, 0.113),
            (1, 0.0333),
            (77, 0.01),
            (78, 0.005),
        ]);
        let l2 = entries(&[(1, 0.121), (2, 0.0539), (3, 0.0445), (4, 0.04), (6, 0.01)]);
        // Scores: P1 = 0.0333 + 0.121 = 0.1543 (paper rounds to 0.15467 with
        // slightly different values); P103 in [0.26, 0.26 + last2].
        let out = run(&[l1, l2], Operator::Or, 2, 1, false);
        let ids: Vec<u32> = out.hits.iter().map(|h| h.phrase.raw()).collect();
        assert!(ids.contains(&1) && ids.contains(&103), "got {ids:?}");
        assert!(
            out.stats.stopped_early,
            "should stop before exhausting lists"
        );
        assert!(out.stats.total_entries_read() < 10);
    }

    #[test]
    fn or_scores_are_sums_when_lists_fully_read() {
        let l1 = entries(&[(1, 0.5), (2, 0.4), (3, 0.1)]);
        let l2 = entries(&[(2, 0.6), (1, 0.2)]);
        let out = run(&[l1, l2], Operator::Or, 3, 1024, false);
        // P2 = 1.0, P1 = 0.7, P3 = 0.1
        assert_eq!(out.hits[0].phrase, PhraseId(2));
        assert!((out.hits[0].score - 1.0).abs() < 1e-12);
        assert_eq!(out.hits[1].phrase, PhraseId(1));
        assert!((out.hits[1].score - 0.7).abs() < 1e-12);
        assert_eq!(out.hits[2].phrase, PhraseId(3));
        assert!((out.hits[2].score - 0.1).abs() < 1e-12);
        // Fully resolved: bounds collapsed.
        for h in &out.hits {
            assert!(h.is_resolved(), "{h:?}");
        }
    }

    #[test]
    fn and_requires_presence_in_all_lists() {
        let l1 = entries(&[(1, 0.5), (2, 0.4)]);
        let l2 = entries(&[(1, 0.5), (3, 0.9)]);
        let out = run(&[l1, l2], Operator::And, 5, 1024, false);
        // Only phrase 1 appears in both; 2 and 3 have -inf AND scores.
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].phrase, PhraseId(1));
        assert!((out.hits[0].score - (0.5f64.ln() * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn and_orders_by_product_of_probs() {
        let l1 = entries(&[(1, 0.9), (2, 0.8), (3, 0.1)]);
        let l2 = entries(&[(3, 0.9), (2, 0.7), (1, 0.1)]);
        let out = run(&[l1, l2], Operator::And, 3, 1024, false);
        // products: p1 = .09, p2 = .56, p3 = .09 -> p2 first, tie p1/p3 by id
        assert_eq!(out.hits[0].phrase, PhraseId(2));
        assert_eq!(out.hits[1].phrase, PhraseId(1));
        assert_eq!(out.hits[2].phrase, PhraseId(3));
    }

    #[test]
    fn early_stop_does_not_change_top_k() {
        // Top entries dominate; stop should fire long before the tail.
        let l1: Vec<ListEntry> = entries(
            &std::iter::once((1000, 0.9))
                .chain((0..500).map(|i| (i, 0.001 / (i + 1) as f64)))
                .collect::<Vec<_>>(),
        );
        let l2: Vec<ListEntry> = entries(
            &std::iter::once((1000, 0.8))
                .chain((500..1000).map(|i| (i, 0.001 / (i - 499) as f64)))
                .collect::<Vec<_>>(),
        );
        let eager = run(&[l1.clone(), l2.clone()], Operator::Or, 1, 4, false);
        assert!(eager.stats.stopped_early);
        assert_eq!(eager.hits[0].phrase, PhraseId(1000));
        assert!((eager.hits[0].score - 1.7).abs() < 1e-9);
        assert!(eager.stats.fraction_traversed() < 0.2);
    }

    #[test]
    fn batch_size_changes_work_not_results() {
        let l1 = entries(&[(1, 0.5), (2, 0.45), (3, 0.3), (4, 0.2), (5, 0.1)]);
        let l2 = entries(&[(3, 0.5), (1, 0.45), (5, 0.3), (2, 0.2), (4, 0.1)]);
        let small = run(&[l1.clone(), l2.clone()], Operator::Or, 2, 1, false);
        let large = run(&[l1, l2], Operator::Or, 2, 1_000_000, false);
        let ids = |o: &NraOutcome| o.hits.iter().map(|h| h.phrase).collect::<Vec<_>>();
        assert_eq!(ids(&small), ids(&large));
        for (a, b) in small.hits.iter().zip(&large.hits) {
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn checknew_blocks_late_arrivals() {
        // After k strong candidates are resolved, weak tail phrases must
        // not enter the candidate set.
        let l1: Vec<ListEntry> = entries(
            &(0..100)
                .map(|i| (i, if i < 2 { 0.9 - 0.1 * i as f64 } else { 1e-6 }))
                .collect::<Vec<_>>(),
        );
        let l2: Vec<ListEntry> = entries(
            &(0..100)
                .map(|i| (i, if i < 2 { 0.9 - 0.1 * i as f64 } else { 1e-6 }))
                .collect::<Vec<_>>(),
        );
        let out = run(&[l1, l2], Operator::Or, 2, 8, false);
        assert!(
            out.stats.peak_candidates < 100,
            "peak {}",
            out.stats.peak_candidates
        );
        assert_eq!(out.hits[0].phrase, PhraseId(0));
        assert_eq!(out.hits[1].phrase, PhraseId(1));
    }

    #[test]
    fn partial_lists_keep_last_seen_bound() {
        // With partial lists, candidates unseen on an exhausted list keep a
        // non-trivial upper bound instead of being zeroed out.
        let l1 = entries(&[(1, 0.6), (2, 0.5)]); // truncated list
        let l2 = entries(&[(3, 0.55), (2, 0.5), (1, 0.4)]);
        let out = run(&[l1, l2], Operator::Or, 3, 1, true);
        let h3 = out.hits.iter().find(|h| h.phrase == PhraseId(3)).unwrap();
        // P3 unseen on (exhausted) l1: upper must include l1's last seen 0.5.
        assert!((h3.upper - (0.55 + 0.5)).abs() < 1e-12);
        assert!((h3.lower - 0.55).abs() < 1e-12);
        assert!(!h3.is_resolved());
    }

    #[test]
    fn full_lists_zero_exhausted_bound() {
        let l1 = entries(&[(1, 0.6), (2, 0.5)]);
        let l2 = entries(&[(3, 0.55), (2, 0.5), (1, 0.4)]);
        let out = run(&[l1, l2], Operator::Or, 3, 1024, false);
        let h3 = out.hits.iter().find(|h| h.phrase == PhraseId(3)).unwrap();
        assert!(h3.is_resolved());
        assert!((h3.score - 0.55).abs() < 1e-12);
    }

    #[test]
    fn empty_lists_yield_empty_results() {
        let out = run(&[vec![], vec![]], Operator::Or, 5, 16, false);
        assert!(out.hits.is_empty());
        assert_eq!(out.stats.fraction_traversed(), 0.0);
    }

    #[test]
    fn single_list_query() {
        let l1 = entries(&[(7, 0.9), (8, 0.5)]);
        let out = run(&[l1], Operator::And, 1, 1024, false);
        assert_eq!(out.hits[0].phrase, PhraseId(7));
        assert!((out.hits[0].score - 0.9f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_candidates() {
        let l1 = entries(&[(1, 0.5)]);
        let l2 = entries(&[(1, 0.5), (2, 0.3)]);
        let out = run(&[l1, l2], Operator::Or, 10, 1024, false);
        assert_eq!(out.hits.len(), 2);
    }

    #[test]
    fn duplicate_phrase_in_same_list_counted_once() {
        // Defensive: malformed list with a repeated phrase must not double
        // its score.
        let l1 = entries(&[(1, 0.5), (1, 0.5)]);
        let l2 = entries(&[(1, 0.4)]);
        let out = run(&[l1, l2], Operator::Or, 1, 1024, false);
        assert!((out.hits[0].score - 0.9).abs() < 1e-12);
    }

    #[test]
    fn traversal_stats_track_reads() {
        let l1 = entries(&[(1, 0.5), (2, 0.4), (3, 0.3)]);
        let l2 = entries(&[(1, 0.5), (2, 0.4), (3, 0.3)]);
        let out = run(&[l1, l2], Operator::Or, 3, 1024, false);
        assert_eq!(out.stats.entries_read, vec![3, 3]);
        assert_eq!(out.stats.list_lens, vec![3, 3]);
        assert!((out.stats.fraction_traversed() - 1.0).abs() < 1e-12);
        assert!(!out.stats.stopped_early);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = run(&[vec![]], Operator::Or, 0, 1, false);
    }

    fn run_floor(
        lists: &[Vec<ListEntry>],
        op: Operator,
        k: usize,
        batch: usize,
        floor: f64,
    ) -> NraOutcome {
        let cursors: Vec<MemoryCursor> = lists.iter().map(|l| MemoryCursor::new(l)).collect();
        run_nra(
            cursors,
            op,
            &NraConfig {
                k,
                batch_size: batch,
                lists_are_partial: false,
                lower_floor: floor,
            },
        )
    }

    #[test]
    fn valid_floor_preserves_results_without_extra_reads() {
        // A floor at the true k-th score must never change the result and
        // never force deeper reads than the standalone run.
        let l1: Vec<ListEntry> = entries(
            &std::iter::once((1000, 0.9))
                .chain((0..400).map(|i| (i, 0.4 - 0.0005 * i as f64)))
                .collect::<Vec<_>>(),
        );
        let l2: Vec<ListEntry> = entries(
            &std::iter::once((1000, 0.8))
                .chain((400..800).map(|i| (i, 0.4 - 0.0005 * (i - 400) as f64)))
                .collect::<Vec<_>>(),
        );
        let plain = run(&[l1.clone(), l2.clone()], Operator::Or, 2, 4, false);
        // Floor at the true 2nd-best OR score (phrase 0: 0.4 + nothing in
        // l2? phrase 1000 = 1.7 is 1st; 2nd best is 0.4).
        let floored = run_floor(&[l1, l2], Operator::Or, 2, 4, 0.4);
        assert_eq!(
            plain.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
            floored.hits.iter().map(|h| h.phrase).collect::<Vec<_>>(),
            "a valid floor must not change the result set"
        );
        assert!(
            floored.stats.total_entries_read() <= plain.stats.total_entries_read(),
            "floor {} vs plain {}",
            floored.stats.total_entries_read(),
            plain.stats.total_entries_read()
        );
    }

    #[test]
    fn floor_allows_stopping_with_fewer_than_k_candidates() {
        // A "shard" holding only one phrase above the global floor: the
        // run must stop (and return just that phrase) instead of scanning
        // its whole tail defending a k it can never fill.
        let l1: Vec<ListEntry> = entries(
            &std::iter::once((7, 0.9))
                .chain((0..500).map(|i| (i, 1e-4)))
                .collect::<Vec<_>>(),
        );
        let l2: Vec<ListEntry> = entries(&[(7, 0.8)]);
        let out = run_floor(&[l1, l2], Operator::Or, 5, 4, 0.5);
        assert_eq!(out.hits[0].phrase, PhraseId(7));
        assert!(
            out.stats.stopped_early,
            "floor must allow early stop below k candidates: {:?}",
            out.stats
        );
        assert!(out.stats.total_entries_read() < 100);
    }

    #[test]
    fn neg_infinity_floor_is_the_default_behaviour() {
        let l1 = entries(&[(1, 0.5), (2, 0.45), (3, 0.3), (4, 0.2), (5, 0.1)]);
        let l2 = entries(&[(3, 0.5), (1, 0.45), (5, 0.3), (2, 0.2), (4, 0.1)]);
        let plain = run(&[l1.clone(), l2.clone()], Operator::Or, 2, 1, false);
        let floored = run_floor(&[l1, l2], Operator::Or, 2, 1, f64::NEG_INFINITY);
        let ids = |o: &NraOutcome| o.hits.iter().map(|h| h.phrase).collect::<Vec<_>>();
        assert_eq!(ids(&plain), ids(&floored));
        assert_eq!(
            plain.stats.total_entries_read(),
            floored.stats.total_entries_read()
        );
    }
}
