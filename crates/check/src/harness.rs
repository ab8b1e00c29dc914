//! Bounded proof harnesses for the engine's algorithmic contracts.
//!
//! Each harness is a `check_*` function that takes a *bounded* input and
//! asserts a contract of real workspace code — the kani discipline: state
//! the property over all inputs of a small shape, then let a checker
//! enumerate the shape. The container has no kani toolchain, so every
//! harness runs two ways:
//!
//! * as an ordinary `#[test]` that enumerates its input domain
//!   **exhaustively** (the domains are chosen small enough that this is
//!   complete, not sampled); and
//! * as a `#[kani::proof]` in the `proofs` module, compiled only under
//!   `--cfg kani`, where the same `check_*` is driven by symbolic values.
//!
//! The properties:
//!
//! * **Block-max bound soundness** ([`check_block_roundtrip_and_bounds`])
//!   — a `BlockLists` encode/decode round-trips bit-exactly, every
//!   `block_max_hint` upper-bounds all entries it stands for (so pruning
//!   on it never drops a qualifying phrase), and `probe` agrees with the
//!   source list.
//! * **Merge-order determinism** ([`check_sort_hits_total`]) — result
//!   ordering (score desc, ties id asc) is a total order on NaN-free
//!   hits: permutation-invariant, and `truncate_top_k` is its prefix.
//! * **NRA stop-test order independence** ([`check_top_k_final`]) —
//!   whether NRA's current top-k is final depends on the multiset of
//!   candidate bounds only, never on the order the candidate table lists
//!   them in, and equals its brute-force definition.
//! * **Histogram monotonicity** ([`check_histogram_contract`]) —
//!   cumulative bucket counts are non-decreasing, reproduce the exact
//!   per-bucket assignment, and `quantile` is monotone in `q` and never
//!   under-reports the nearest-rank observation (the property the
//!   router's hedge delay and the serving report lean on).
//! * **Wire float totality** ([`check_f64_hex_roundtrip`],
//!   [`check_f64_hex_rejects`]) — the 16-hex-digit f64 encoding
//!   round-trips *every* bit pattern (NaN payloads, `-0.0`, infinities)
//!   and the decoder rejects every malformed string instead of guessing.

use ipm_core::nra::top_k_is_final;
use ipm_core::result::{sort_hits, truncate_top_k, PhraseHit};
use ipm_corpus::{Feature, PhraseId, WordId};
use ipm_index::{
    BlockLists, IdListCursor, IdOrderedLists, ListBackend, ListEntry, ScoredListCursor,
    WordPhraseLists,
};
use ipm_obs::Histogram;
use ipm_server::wire::{f64_from_bits_str, f64_to_bits_str};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Block-max bound soundness
// ---------------------------------------------------------------------------

/// Builds a one-feature `BlockLists` over phrases `0..counts.len()` where
/// phrase `i` has co-occurrence count `counts[i]` and document frequency
/// `dfs[i]` (`1 <= count <= df`, the miner's Eq. 13 contract), then
/// asserts, for the score- and id-ordered runs:
///
/// * decode round-trips the exact `(phrase, count/df)` entries in order;
/// * at every score-cursor position, `block_max_hint()` bounds every
///   entry the cursor has not yet yielded (block-max pruning soundness);
/// * `probe(phrase)` returns the exact stored probability, and `0.0` for
///   absent phrases.
///
/// # Panics
/// On any violation (the harness convention: panics are the property).
pub fn check_block_roundtrip_and_bounds(counts: &[u32], dfs: &[u32]) {
    assert_eq!(counts.len(), dfs.len(), "harness input shape");
    for (&c, &d) in counts.iter().zip(dfs) {
        assert!(1 <= c && c <= d, "harness inputs must satisfy 1<=count<=df");
    }
    let entries: Vec<ListEntry> = counts
        .iter()
        .zip(dfs)
        .enumerate()
        .map(|(i, (&c, &d))| ListEntry {
            phrase: PhraseId(i as u32),
            prob: f64::from(c) / f64::from(d),
        })
        .collect();
    let feature = Feature::Word(WordId(0));

    // Score order: prob desc, id asc on ties (the list builder's order).
    let mut by_score = entries.clone();
    by_score.sort_by(|a, b| {
        b.prob
            .partial_cmp(&a.prob)
            .expect("counts/dfs produce finite probs")
            .then(a.phrase.cmp(&b.phrase))
    });
    let by_id = entries; // already ascending by construction

    let lists = WordPhraseLists::from_feature_lists(vec![(feature, by_score.clone())]);
    let id_lists = IdOrderedLists::from_feature_lists(vec![(feature, by_id.clone())]);
    let blocks = BlockLists::build(&lists, &id_lists, Arc::new(dfs.to_vec()));

    // Round-trip, both orders, bit-exact.
    let mut cur = blocks.score_cursor(feature, 1.0);
    let mut decoded = Vec::new();
    while let Some(e) = cur.next_entry() {
        decoded.push(e);
    }
    assert_eq!(decoded, by_score, "score run must decode bit-exactly");
    let mut cur = blocks.id_cursor(feature);
    let mut decoded = Vec::new();
    while let Some(e) = cur.next_entry() {
        decoded.push(e);
    }
    assert_eq!(decoded, by_id, "id run must decode bit-exactly");

    // Hint soundness: before each yield, the hint bounds the whole
    // remaining suffix.
    let mut cur = blocks.score_cursor(feature, 1.0);
    for pos in 0..by_score.len() {
        let hint = cur
            .block_max_hint()
            .expect("entries remain, hint must exist");
        for rest in &by_score[pos..] {
            assert!(
                rest.prob <= hint,
                "hint {hint} at position {pos} under-bounds remaining prob {}",
                rest.prob
            );
        }
        cur.next_entry().expect("cursor agrees entries remain");
    }
    assert!(
        cur.block_max_hint().is_none(),
        "exhausted cursor hints None"
    );

    // Probe agreement, present and absent.
    for e in &by_id {
        let got = blocks.probe(feature, e.phrase);
        assert!(
            got == e.prob,
            "probe({:?}) = {got}, stored {}",
            e.phrase,
            e.prob
        );
    }
    let absent = PhraseId(counts.len() as u32);
    assert_eq!(blocks.probe(feature, absent), 0.0);
}

// ---------------------------------------------------------------------------
// Merge-order determinism
// ---------------------------------------------------------------------------

fn is_result_order(hits: &[PhraseHit]) -> bool {
    hits.windows(2).all(|w| {
        w[0].score > w[1].score || (w[0].score == w[1].score && w[0].phrase <= w[1].phrase)
    })
}

/// Asserts the result-order contract on one (NaN-free) hit multiset:
/// `sort_hits` yields score-descending, id-ascending-on-ties order; the
/// sorted sequence is identical for *every* permutation of the input
/// (the distributed merge must not depend on shard arrival order); and
/// `truncate_top_k(k)` equals the sorted prefix for every `k`.
///
/// # Panics
/// On any violation.
pub fn check_sort_hits_total(hits: &[PhraseHit]) {
    assert!(
        hits.iter().all(|h| !h.score.is_nan()),
        "the order is total on NaN-free scores only (scorers never emit NaN)"
    );
    let mut canonical = hits.to_vec();
    sort_hits(&mut canonical);
    assert!(is_result_order(&canonical), "sort_hits output out of order");

    // Permutation invariance via exhaustive permutation (inputs are <= 6).
    let mut perm = hits.to_vec();
    permute(&mut perm, 0, &mut |p| {
        let mut sorted = p.to_vec();
        sort_hits(&mut sorted);
        assert_eq!(
            sorted, canonical,
            "sort_hits depends on input order (non-deterministic merge)"
        );
    });

    for k in 0..=hits.len() + 1 {
        let mut truncated = hits.to_vec();
        truncate_top_k(&mut truncated, k);
        assert_eq!(
            truncated[..],
            canonical[..k.min(canonical.len())],
            "truncate_top_k({k}) is not the sorted prefix"
        );
    }
}

/// Heap-style permutation visitor (bounded inputs keep this cheap).
fn permute<T>(v: &mut [T], at: usize, visit: &mut impl FnMut(&[T])) {
    if at == v.len() {
        visit(v);
        return;
    }
    for i in at..v.len() {
        v.swap(at, i);
        permute(v, at + 1, visit);
        v.swap(at, i);
    }
}

// ---------------------------------------------------------------------------
// NRA stop-test order independence
// ---------------------------------------------------------------------------

/// The stop test's definition, by enumeration: with more than `k`
/// candidates, is there a k-subset a lower-bound ranking could hold
/// (every member's lower bound `>=` every non-member's) whose complement
/// has every upper bound `<= kth_eff`?
fn top_k_is_final_by_definition(pairs: &[(f64, f64)], k: usize, kth_eff: f64) -> bool {
    let n = pairs.len();
    if n <= k {
        return true;
    }
    (0u32..1 << n)
        .filter(|set| set.count_ones() as usize == k)
        .any(|set| {
            let inside = |i: usize| set & (1 << i) != 0;
            let min_in = (0..n)
                .filter(|&i| inside(i))
                .map(|i| pairs[i].0)
                .fold(f64::INFINITY, f64::min);
            let ranked = (0..n).filter(|&i| !inside(i)).all(|i| pairs[i].0 <= min_in);
            ranked
                && (0..n)
                    .filter(|&i| !inside(i))
                    .all(|i| pairs[i].1 <= kth_eff)
        })
}

/// Asserts that [`top_k_is_final`] on the candidate bounds `pairs`
/// (`lower <= upper`, as every NRA candidate's are) gives the same answer
/// under every permutation of `pairs` — the candidate table's order must
/// never decide when NRA stops — and that the answer equals the
/// brute-force definition.
///
/// # Panics
/// On any violation. `pairs` must hold at most 6 NaN-free pairs and `k`
/// must be positive.
pub fn check_top_k_final(pairs: &[(f64, f64)], k: usize, kth_eff: f64) {
    assert!(pairs.len() <= 6 && k > 0, "harness input shape");
    let want = top_k_is_final_by_definition(pairs, k, kth_eff);
    let mut perm = pairs.to_vec();
    permute(&mut perm, 0, &mut |p| {
        assert_eq!(
            top_k_is_final(p, k, kth_eff),
            want,
            "stop test on {p:?} (k {k}, line {kth_eff}) disagrees with its definition"
        );
    });
}

// ---------------------------------------------------------------------------
// Histogram monotonicity
// ---------------------------------------------------------------------------

/// Observes `samples` into a histogram over `bounds` and asserts:
///
/// * the snapshot's cumulative counts are non-decreasing and end at the
///   observation count;
/// * each bucket holds exactly the samples `partition_point` assigns it
///   (first bound `>= v`, `+Inf` past the last);
/// * `quantile` is monotone in `q`; and
/// * `quantile(q)` never under-reports: at least `ceil(q·n)` samples are
///   `<=` the reported value whenever the rank lands in a finite bucket
///   (past the last finite bound the histogram reports its largest bound
///   — the documented saturation).
///
/// # Panics
/// On any violation. `bounds` must be strictly ascending and non-empty;
/// `samples` must be finite and non-negative (latencies).
pub fn check_histogram_contract(bounds: &[f64], samples: &[f64]) {
    let hist = Histogram::with_bounds(bounds.iter().copied().collect::<Arc<[f64]>>());
    for &s in samples {
        assert!(s.is_finite() && s >= 0.0, "latency samples only");
        hist.observe_seconds(s);
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count(), samples.len() as u64);

    let cumulative = snap.cumulative();
    assert_eq!(cumulative.len(), bounds.len() + 1, "finite buckets + Inf");
    assert!(
        cumulative.windows(2).all(|w| w[0] <= w[1]),
        "cumulative counts must be non-decreasing: {cumulative:?}"
    );
    assert_eq!(*cumulative.last().expect("non-empty"), snap.count());

    // Exact per-bucket assignment.
    let mut expected = vec![0u64; bounds.len() + 1];
    for &s in samples {
        expected[bounds.partition_point(|&b| b < s)] += 1;
    }
    let mut acc = 0;
    for (i, &e) in expected.iter().enumerate() {
        acc += e;
        assert_eq!(
            cumulative[i], acc,
            "bucket {i} cumulative mismatch (expected per-bucket {expected:?})"
        );
    }

    // Quantile monotonicity over a q-grid, plus rank soundness.
    let grid = [0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
    for w in grid.windows(2) {
        assert!(
            snap.quantile(w[0]) <= snap.quantile(w[1]),
            "quantile not monotone between {} and {}",
            w[0],
            w[1]
        );
    }
    if !samples.is_empty() {
        let last_bound = *bounds.last().expect("non-empty");
        for &q in &grid {
            let v = snap.quantile(q);
            let rank = ((q * samples.len() as f64).ceil() as u64).max(1);
            let at_or_below = samples.iter().filter(|&&s| s <= v).count() as u64;
            if v < last_bound || samples.iter().all(|&s| s <= last_bound) {
                assert!(
                    at_or_below >= rank,
                    "quantile({q}) = {v} under-reports: {at_or_below} samples <= it, rank {rank}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire float totality
// ---------------------------------------------------------------------------

/// Round-trip: encoding any f64 bit pattern and decoding it returns the
/// identical bits — including NaN payloads, `-0.0` and the infinities
/// (`==` would conflate `0.0`/`-0.0` and reject NaN, so bits are
/// compared).
///
/// # Panics
/// On any violation.
pub fn check_f64_hex_roundtrip(bits: u64) {
    let f = f64::from_bits(bits);
    let s = f64_to_bits_str(f);
    assert_eq!(s.len(), 16, "encoding must be exactly 16 digits");
    assert!(
        s.bytes().all(|b| b.is_ascii_hexdigit()),
        "encoding must be hex: {s}"
    );
    let back = f64_from_bits_str(&s).expect("own encoding must decode");
    assert_eq!(back.to_bits(), bits, "round-trip must be bit-identical");
}

/// Decoder totality: every input is either exactly 16 hex digits (and
/// accepted) or rejected with an error — never a panic, never a guess.
///
/// # Panics
/// On any violation.
pub fn check_f64_hex_rejects(s: &str) {
    let well_formed = s.len() == 16
        && s.is_ascii()
        && s.bytes().all(|b| b.is_ascii_hexdigit())
        // `from_str_radix` tolerates a leading `+`; the wire must not.
        && !s.starts_with('+');
    assert_eq!(
        f64_from_bits_str(s).is_ok(),
        well_formed,
        "decoder accepted/rejected '{s}' wrongly"
    );
}

// ---------------------------------------------------------------------------
// Kani proof harnesses (compiled only under `--cfg kani`; the same
// properties the tests below enumerate exhaustively).
// ---------------------------------------------------------------------------

#[cfg(kani)]
mod proofs {
    use super::*;

    #[kani::proof]
    #[kani::unwind(6)]
    fn block_bounds_small() {
        let dfs: [u32; 3] = kani::any();
        let counts: [u32; 3] = kani::any();
        for i in 0..3 {
            kani::assume(1 <= dfs[i] && dfs[i] <= 4);
            kani::assume(1 <= counts[i] && counts[i] <= dfs[i]);
        }
        check_block_roundtrip_and_bounds(&counts, &dfs);
    }

    #[kani::proof]
    #[kani::unwind(8)]
    fn sort_hits_total_small() {
        let scores: [u8; 3] = kani::any();
        let ids: [u8; 3] = kani::any();
        let hits: Vec<PhraseHit> = (0..3)
            .map(|i| PhraseHit::exact(PhraseId(ids[i] as u32 % 3), f64::from(scores[i] % 3)))
            .collect();
        check_sort_hits_total(&hits);
    }

    #[kani::proof]
    #[kani::unwind(8)]
    fn top_k_final_small() {
        let raw: [u8; 3] = kani::any();
        let k: u8 = kani::any();
        kani::assume(1 <= k && k <= 4);
        let pairs: Vec<(f64, f64)> = raw
            .iter()
            .map(|&r| {
                let (lower, upper) = (f64::from(r % 3), f64::from(r / 3 % 3));
                (lower.min(upper), lower.max(upper))
            })
            .collect();
        check_top_k_final(&pairs, usize::from(k), 1.0);
    }

    #[kani::proof]
    #[kani::unwind(8)]
    fn histogram_small() {
        let raw: [u8; 3] = kani::any();
        let samples: Vec<f64> = raw.iter().map(|&r| f64::from(r % 8) * 0.5).collect();
        check_histogram_contract(&[1.0, 2.0, 3.0], &samples);
    }

    #[kani::proof]
    fn f64_hex_roundtrip_total() {
        check_f64_hex_roundtrip(kani::any());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 stream for the large (but fixed) block
    /// inputs; no RNG dependency, no flakiness.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn block_bounds_hold_on_multi_block_lists() {
        // 300 entries = 3 blocks (BLOCK_SIZE = 128): hints cross block
        // boundaries.
        let mut seed = 42;
        let dfs: Vec<u32> = (0..300)
            .map(|_| 1 + (splitmix(&mut seed) % 1000) as u32)
            .collect();
        let counts: Vec<u32> = dfs
            .iter()
            .map(|&d| 1 + (splitmix(&mut seed) % u64::from(d)) as u32)
            .collect();
        check_block_roundtrip_and_bounds(&counts, &dfs);
    }

    #[test]
    fn block_bounds_hold_exhaustively_on_tiny_lists() {
        // Every (count, df) list of length <= 2 with df <= 3 — complete
        // over the shape, including all-equal probs (tie handling) and
        // prob = 1.0 endpoints.
        let mut pairs = Vec::new();
        for df in 1..=3u32 {
            for count in 1..=df {
                pairs.push((count, df));
            }
        }
        for &(c, d) in &pairs {
            check_block_roundtrip_and_bounds(&[c], &[d]);
        }
        for &(c0, d0) in &pairs {
            for &(c1, d1) in &pairs {
                check_block_roundtrip_and_bounds(&[c0, c1], &[d0, d1]);
            }
        }
    }

    #[test]
    fn block_bounds_hold_on_degenerate_shapes() {
        // All-identical probs (every tie path) and a single entry per
        // boundary condition.
        check_block_roundtrip_and_bounds(&[1; 200], &[2; 200]);
        check_block_roundtrip_and_bounds(&[5], &[5]);
    }

    #[test]
    fn sort_hits_is_total_on_every_small_multiset() {
        // Exhaustive: every hit sequence of length <= 3 over a 6-element
        // alphabet (2 scores x 3 ids) — covers all tie shapes, duplicate
        // hits and duplicate ids; each sequence is checked under all of
        // its permutations inside the harness.
        let alphabet: Vec<PhraseHit> = [0.5f64, 2.0]
            .iter()
            .flat_map(|&s| (0..3).map(move |id| PhraseHit::exact(PhraseId(id), s)))
            .collect();
        let n = alphabet.len();
        for len in 0..=3usize {
            let combos = n.pow(len as u32);
            for mut code in 0..combos {
                let mut hits = Vec::with_capacity(len);
                for _ in 0..len {
                    hits.push(alphabet[code % n]);
                    code /= n;
                }
                check_sort_hits_total(&hits);
            }
        }
    }

    #[test]
    fn sort_hits_handles_negative_and_infinite_scores() {
        // AND-semantics scores are log-probs (negative); NRA seeds ship
        // -inf floors. The order must stay total there too.
        let hits = vec![
            PhraseHit::exact(PhraseId(3), f64::NEG_INFINITY),
            PhraseHit::exact(PhraseId(1), -2.5),
            PhraseHit::exact(PhraseId(0), -2.5),
            PhraseHit::exact(PhraseId(2), 0.0),
        ];
        check_sort_hits_total(&hits);
    }

    #[test]
    fn nra_stop_test_is_order_independent_on_every_small_multiset() {
        // Exhaustive: every multiset of <= 6 candidate bound pairs over
        // {-inf, 0, 1} with lower <= upper (ties everywhere, AND's -inf
        // lower bounds included), every k up to one past the candidate
        // count and every defended line in the alphabet; each multiset is
        // checked under all of its permutations inside the harness.
        let values = [f64::NEG_INFINITY, 0.0, 1.0];
        let alphabet: Vec<(f64, f64)> = values
            .iter()
            .flat_map(|&lower| values.iter().map(move |&upper| (lower, upper)))
            .filter(|&(lower, upper)| lower <= upper)
            .collect();
        let mut multisets: Vec<Vec<usize>> = vec![Vec::new()];
        let mut frontier = multisets.clone();
        for _ in 0..6 {
            // Extend each multiset of the last size by a type no smaller
            // than its last one: each multiset appears exactly once.
            frontier = frontier
                .iter()
                .flat_map(|m| {
                    let from = m.last().copied().unwrap_or(0);
                    (from..alphabet.len()).map(move |t| {
                        let mut next = m.clone();
                        next.push(t);
                        next
                    })
                })
                .collect();
            multisets.extend(frontier.iter().cloned());
        }
        assert_eq!(
            multisets.len(),
            924,
            "C(12, 6) multisets of <= 6 of 6 types"
        );
        for m in &multisets {
            let pairs: Vec<(f64, f64)> = m.iter().map(|&t| alphabet[t]).collect();
            for k in 1..=pairs.len() + 1 {
                for &line in &values {
                    check_top_k_final(&pairs, k, line);
                }
            }
        }
    }

    #[test]
    fn histogram_contract_holds_exhaustively_on_small_domains() {
        // Exhaustive: every sample vector of length <= 3 over an 8-value
        // grid that straddles each bucket boundary of [1.0, 2.0, 4.0]
        // (below/at/above every bound, plus past-the-last saturation).
        let values = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0];
        let bounds = [1.0, 2.0, 4.0];
        let n = values.len();
        for len in 0..=3usize {
            let combos = n.pow(len as u32);
            for mut code in 0..combos {
                let mut samples = Vec::with_capacity(len);
                for _ in 0..len {
                    samples.push(values[code % n]);
                    code /= n;
                }
                check_histogram_contract(&bounds, &samples);
            }
        }
    }

    #[test]
    fn histogram_contract_holds_on_latency_shaped_streams() {
        // The real default bounds and a long mixed stream.
        let bounds: Vec<f64> = (0..26).map(|i| 1e-6 * f64::from(1u32 << i)).collect();
        let mut seed = 7;
        let samples: Vec<f64> = (0..500)
            .map(|_| (splitmix(&mut seed) % 40_000_000) as f64 / 1e9)
            .collect();
        check_histogram_contract(&bounds, &samples);
    }

    #[test]
    fn f64_hex_roundtrips_every_high_word() {
        // Exhaustive over the 2^16 sign/exponent/top-mantissa patterns —
        // every exponent (subnormals, infinities, NaNs included) under
        // three low-word fills. Bit-identity, not numeric equality.
        for hi in 0..=u16::MAX {
            let hi = u64::from(hi) << 48;
            check_f64_hex_roundtrip(hi);
            check_f64_hex_roundtrip(hi | 0x0000_ffff_ffff_ffff);
            check_f64_hex_roundtrip(hi | 0x0000_dead_beef_cafe);
        }
    }

    #[test]
    fn f64_hex_roundtrips_the_wire_specials() {
        for f in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
        ] {
            check_f64_hex_roundtrip(f.to_bits());
        }
    }

    #[test]
    fn f64_hex_decoder_rejects_every_malformed_single_byte_corruption() {
        // Take a valid encoding and corrupt each position with every
        // byte value — the decoder must accept exactly the hex digits.
        let valid = f64_to_bits_str(std::f64::consts::PI);
        check_f64_hex_rejects(&valid);
        for pos in 0..16 {
            for b in 0u8..=255 {
                let Some(c) = char::from_u32(u32::from(b)) else {
                    continue;
                };
                let mut s = valid.clone();
                s.replace_range(pos..pos + 1, &c.to_string());
                check_f64_hex_rejects(&s);
            }
        }
        // Length violations, both sides, and the sign cases
        // `from_str_radix` would otherwise wave through.
        for s in [
            "",
            "0",
            &valid[..15],
            &format!("{valid}0"),
            "+123456789abcdef",
            "-123456789abcdef",
        ] {
            check_f64_hex_rejects(s);
        }
    }
}
