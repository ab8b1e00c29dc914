//! Shared-scan fused SMJ: each *distinct* feature list of a batch group
//! is walked (and, on the block backend, decoded) exactly once, then
//! every member query merges the materialized slices with a specialized
//! kernel.
//!
//! Serial batch execution walks each shared word list once **per member**
//! — a group of 64 two-word queries over 16 hot words performs 128
//! cursor traversals, each paying the backend's per-entry cost (block
//! decode, buffer-pool charge, budget polling). The fused pass performs
//! 16: one draining walk per distinct feature materializes the entries,
//! and the per-member merges then run over plain in-memory slices — the
//! two-list OR case (the dominant shape of word-sharing batches) through
//! a branch-lean two-pointer kernel, everything else through the regular
//! [`run_smj_cursors_counted`] walker over slice cursors.
//!
//! **Bit-exactness contract.** Every member's hits are bit-identical to
//! its own [`crate::smj::run_smj_cursors_counted`] pass over the same
//! lists:
//!
//! * materialization preserves entries exactly — a member's merge sees
//!   the identical id-ordered `(phrase, prob)` sequence the backend
//!   cursor would have produced;
//! * the two-pointer OR kernel replays the serial float-op order: a
//!   phrase present in one list scores `0.0 + s` (which is bitwise `s`
//!   for the non-negative scores lists carry), one present in both
//!   scores `(0.0 + s₁) + s₂` with the member's own feature order
//!   deciding which term is `s₁` — exactly the serial accumulation;
//! * the bounded top-k selector keeps exactly the set a full
//!   sort-and-truncate would keep (the [`sort_hits`] order is total over
//!   distinct ids) and presents it under the same deterministic order
//!   (score desc, ties by ascending id);
//! * all other member shapes (AND, fan-in ≠ 2) run the *actual* serial
//!   walker over the materialized slices, so their hits — and their
//!   [`SmjStats`] — match by construction. The OR kernel's stats match
//!   the serial pass too: a full two-list OR merge reads every entry of
//!   both lists and takes one step per distinct phrase id.

use crate::budget::ShardBudget;
use crate::query::Operator;
use crate::result::{sort_hits, PhraseHit};
use crate::scoring::entry_score;
use crate::smj::{run_smj_cursors_counted, SmjStats};
use ipm_corpus::PhraseId;
use ipm_index::cursor::{IdListCursor, MemoryIdCursor};
use ipm_index::wordlists::ListEntry;

/// One member query of a fused group, described against the group's
/// distinct-cursor table.
#[derive(Debug, Clone)]
pub(crate) struct FusedSpec {
    /// Cursor index per query feature position, **in query feature
    /// order** (duplicate features repeat their cursor index).
    pub positions: Vec<usize>,
    /// The member's operator.
    pub op: Operator,
    /// The member's result size.
    pub k: usize,
}

/// Runs the fused pass: `cursors` holds one id-ordered cursor per
/// distinct feature of the group; `members[i].positions` indexes into it.
/// Returns per-member `(hits, stats)` in member order.
pub(crate) fn run_fused_smj<C: IdListCursor>(
    cursors: Vec<C>,
    members: &[FusedSpec],
) -> Vec<(Vec<PhraseHit>, SmjStats)> {
    let f = cursors.len();
    for m in members {
        assert!(m.k > 0, "k must be positive");
        assert!(
            m.positions.iter().all(|&ci| ci < f),
            "positions must index the cursor table"
        );
    }
    // The shared scan: drain every distinct cursor exactly once. On the
    // block backend this is where each encoded block is decoded a single
    // time for the whole group (the cursor's weighted decode tally books
    // the per-member reuse).
    let lists: Vec<Vec<ListEntry>> = cursors
        .into_iter()
        .map(|mut c| {
            let mut out = Vec::with_capacity(c.len());
            while let Some(e) = c.next_entry() {
                out.push(e);
            }
            out
        })
        .collect();

    members
        .iter()
        .map(|m| match (m.op, m.positions.len()) {
            (Operator::Or, 2) => {
                merge_or2(&lists[m.positions[0]], &lists[m.positions[1]], m.op, m.k)
            }
            _ => {
                // The serial walker itself, over slice cursors: hits and
                // stats match by construction (AND members gallop via the
                // slice cursor's binary-search seek, like the backend
                // cursor's landing-entry accounting).
                let cursors: Vec<MemoryIdCursor<'_>> = m
                    .positions
                    .iter()
                    .map(|&ci| MemoryIdCursor::new(&lists[ci]))
                    .collect();
                run_smj_cursors_counted(cursors, m.op, m.k, &ShardBudget::unlimited())
            }
        })
        .collect()
}

/// The two-list disjunctive merge kernel: a branch-lean two-pointer pass
/// over id-ordered slices, streaming each merged `(id, score)` through a
/// bounded top-k selector instead of materializing the full union — with
/// distinct phrase ids the [`sort_hits`] order is total, so the selected
/// set (and its final ordering) is identical to a full sort-and-truncate.
/// Scores replay the serial accumulation order (`a`'s term before `b`'s
/// on a shared phrase — callers pass slices in the member's feature
/// order), and the stats equal the serial pass: a full OR merge reads
/// every entry of both lists (`entries_read`) and takes one step per
/// distinct phrase id (`merge_steps`).
fn merge_or2(
    a: &[ListEntry],
    b: &[ListEntry],
    op: Operator,
    k: usize,
) -> (Vec<PhraseHit>, SmjStats) {
    let mut top = TopK::new(k, a.len() + b.len());
    let mut steps: u64 = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ea, eb) = (a[i], b[j]);
        if ea.phrase < eb.phrase {
            top.offer(ea.phrase, entry_score(op, ea.prob));
            i += 1;
        } else if eb.phrase < ea.phrase {
            top.offer(eb.phrase, entry_score(op, eb.prob));
            j += 1;
        } else {
            top.offer(
                ea.phrase,
                entry_score(op, ea.prob) + entry_score(op, eb.prob),
            );
            i += 1;
            j += 1;
        }
        steps += 1;
    }
    for e in &a[i..] {
        top.offer(e.phrase, entry_score(op, e.prob));
    }
    for e in &b[j..] {
        top.offer(e.phrase, entry_score(op, e.prob));
    }
    steps += (a.len() - i + b.len() - j) as u64;
    let stats = SmjStats {
        entries_read: (a.len() + b.len()) as u64,
        merge_steps: steps,
    };
    (top.finish(), stats)
}

/// Whether hit `(s_a, id_a)` ranks strictly *worse* (later) than
/// `(s_b, id_b)` under the [`sort_hits`] presentation order: score
/// descending, ties by ascending phrase id. Scores here are exact SMJ
/// aggregates (never NaN), so this is a total order over distinct ids.
#[inline]
fn ranks_below(s_a: f64, id_a: PhraseId, s_b: f64, id_b: PhraseId) -> bool {
    s_a < s_b || (s_a == s_b && id_a > id_b)
}

/// A bounded top-k selector over `(score, id)` candidates: a min-heap of
/// at most `k` entries keyed by the [`sort_hits`] rank, root = the worst
/// kept hit. A full scan's surviving set is exactly the set a
/// sort-and-truncate would keep; [`TopK::finish`] then applies the same
/// final ordering.
struct TopK {
    k: usize,
    heap: Vec<(f64, PhraseId)>,
}

impl TopK {
    /// A selector keeping the best `k` of at most `candidates` offers.
    /// The buffer is sized by what it can actually hold: `k` is the
    /// caller's and unbounded, and reserving it up front would abort the
    /// process on an allocation the scan could never fill.
    fn new(k: usize, candidates: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(candidates)),
        }
    }

    #[inline]
    fn offer(&mut self, id: PhraseId, score: f64) {
        if self.heap.len() < self.k {
            self.heap.push((score, id));
            if self.heap.len() == self.k {
                // Heapify once the buffer is full: sift each internal
                // node down, leaves upward.
                for i in (0..self.k / 2).rev() {
                    self.sift_down(i);
                }
            }
            return;
        }
        let (ws, wid) = self.heap[0];
        if ranks_below(ws, wid, score, id) {
            self.heap[0] = (score, id);
            self.sift_down(0);
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            for c in [l, r] {
                if c < self.heap.len()
                    && ranks_below(
                        self.heap[c].0,
                        self.heap[c].1,
                        self.heap[worst].0,
                        self.heap[worst].1,
                    )
                {
                    worst = c;
                }
            }
            if worst == i {
                return;
            }
            self.heap.swap(i, worst);
            i = worst;
        }
    }

    fn finish(self) -> Vec<PhraseHit> {
        let mut hits: Vec<PhraseHit> = self
            .heap
            .into_iter()
            .map(|(score, id)| PhraseHit::exact(id, score))
            .collect();
        sort_hits(&mut hits);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(u32, f64)]) -> Vec<ListEntry> {
        pairs
            .iter()
            .map(|&(id, prob)| ListEntry {
                phrase: PhraseId(id),
                prob,
            })
            .collect()
    }

    /// Deterministic pseudo-random id-ordered lists (no external RNG).
    fn synth_list(seed: u64, len: usize) -> Vec<ListEntry> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut ids: Vec<u32> = (0..len).map(|_| (next() % 512) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| ListEntry {
                phrase: PhraseId(id),
                prob: ((next() % 1000) as f64 + 1.0) / 1001.0,
            })
            .collect()
    }

    /// Fused output must be bit-identical to a per-member serial SMJ pass
    /// over the same lists, for every member — AND and OR mixed, shared
    /// and private features, overlapping and disjoint id ranges.
    #[test]
    fn fused_matches_serial_smj_bit_for_bit() {
        let lists: Vec<Vec<ListEntry>> = (0..5)
            .map(|i| synth_list(i + 1, 64 + i as usize * 17))
            .collect();
        // (positions into `lists`, op, k)
        let specs: Vec<(Vec<usize>, Operator, usize)> = vec![
            (vec![0, 1], Operator::Or, 5),
            (vec![1, 2], Operator::And, 7),
            (vec![0, 3, 4], Operator::Or, 3),
            (vec![2], Operator::And, 4),
            (vec![3, 0], Operator::Or, 9),
            (vec![4, 4], Operator::And, 6), // duplicated feature
            (vec![1, 0], Operator::Or, 5),  // shared pair, swapped order
        ];
        let members: Vec<FusedSpec> = specs
            .iter()
            .map(|(p, op, k)| FusedSpec {
                positions: p.clone(),
                op: *op,
                k: *k,
            })
            .collect();
        let cursors: Vec<MemoryIdCursor<'_>> =
            lists.iter().map(|l| MemoryIdCursor::new(l)).collect();
        let fused = run_fused_smj(cursors, &members);

        for ((positions, op, k), (got, _)) in specs.iter().zip(&fused) {
            let cursors: Vec<MemoryIdCursor<'_>> = positions
                .iter()
                .map(|&i| MemoryIdCursor::new(&lists[i]))
                .collect();
            let (want, _) = run_smj_cursors_counted(cursors, *op, *k, &ShardBudget::unlimited());
            assert_eq!(got.len(), want.len(), "{positions:?} {op:?}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.phrase, w.phrase, "{positions:?} {op:?}");
                assert_eq!(
                    g.score.to_bits(),
                    w.score.to_bits(),
                    "{positions:?} {op:?} phrase {:?}",
                    g.phrase
                );
            }
        }
    }

    #[test]
    fn or_member_stats_match_serial() {
        let l0 = entries(&[(1, 0.2), (3, 0.5), (9, 0.4)]);
        let l1 = entries(&[(1, 0.3), (2, 0.9)]);
        let members = [FusedSpec {
            positions: vec![0, 1],
            op: Operator::Or,
            k: 10,
        }];
        let fused = run_fused_smj(
            vec![MemoryIdCursor::new(&l0), MemoryIdCursor::new(&l1)],
            &members,
        );
        let (_, serial) = run_smj_cursors_counted(
            vec![MemoryIdCursor::new(&l0), MemoryIdCursor::new(&l1)],
            Operator::Or,
            10,
            &ShardBudget::unlimited(),
        );
        assert_eq!(fused[0].1.entries_read, serial.entries_read);
        assert_eq!(fused[0].1.merge_steps, serial.merge_steps);
    }

    #[test]
    fn empty_lists_and_empty_members() {
        let empty: Vec<ListEntry> = Vec::new();
        let members = [FusedSpec {
            positions: vec![0],
            op: Operator::Or,
            k: 3,
        }];
        let fused = run_fused_smj(vec![MemoryIdCursor::new(&empty)], &members);
        assert!(fused[0].0.is_empty());
        let none: Vec<(Vec<PhraseHit>, SmjStats)> =
            run_fused_smj(Vec::<MemoryIdCursor<'_>>::new(), &[]);
        assert!(none.is_empty());
    }
}
