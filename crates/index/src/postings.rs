//! Sorted document-id postings lists and set algebra over them.
//!
//! Queries define `D'` as the union (OR) or intersection (AND) of
//! per-feature document sets (paper Eq. 2); the exact scorer and all
//! baselines materialize `D'` through these operations.

use ipm_corpus::DocId;

/// A strictly increasing list of document ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Postings {
    docs: Vec<DocId>,
}

impl Postings {
    /// Creates an empty postings list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from an arbitrary vector: sorts and deduplicates.
    pub fn from_unsorted(mut docs: Vec<DocId>) -> Self {
        docs.sort_unstable();
        docs.dedup();
        Self { docs }
    }

    /// Builds from a vector that is already strictly increasing.
    ///
    /// # Panics
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted(docs: Vec<DocId>) -> Self {
        debug_assert!(
            docs.windows(2).all(|w| w[0] < w[1]),
            "postings not strictly sorted"
        );
        Self { docs }
    }

    /// Appends a document id that must be greater than the current last.
    ///
    /// # Panics
    /// Panics in debug builds if `doc` is not strictly greater.
    #[inline]
    pub fn push(&mut self, doc: DocId) {
        debug_assert!(self.docs.last().is_none_or(|&last| last < doc));
        self.docs.push(doc);
    }

    /// Document count (this is `freq(·, D)` under document-frequency
    /// semantics, see [`crate::occurrence`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[DocId] {
        &self.docs
    }

    /// Membership test, O(log n).
    #[inline]
    pub fn contains(&self, doc: DocId) -> bool {
        self.docs.binary_search(&doc).is_ok()
    }

    /// Intersection with another list.
    ///
    /// Chooses between a linear merge and a galloping search automatically:
    /// when one list is much shorter, galloping (exponential probing into
    /// the longer list) is asymptotically better — `O(s · log(l/s))`.
    pub fn intersect(&self, other: &Postings) -> Postings {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.is_empty() {
            return Postings::new();
        }
        // Galloping pays off when the size ratio is large; 16 is a common
        // threshold (used e.g. by Lucene's intersection).
        if large.len() / small.len().max(1) >= 16 {
            intersect_gallop(small.as_slice(), large.as_slice())
        } else {
            intersect_merge(small.as_slice(), large.as_slice())
        }
    }

    /// Cardinality of the intersection without materializing it.
    pub fn intersect_len(&self, other: &Postings) -> usize {
        // Reuses the same adaptive strategy; the allocation for small
        // outputs is cheap, but hot callers (P(q|p) construction) use the
        // counting pass in `wordlists` instead.
        self.intersect(other).len()
    }

    /// Union with another list.
    pub fn union(&self, other: &Postings) -> Postings {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Postings { docs: out }
    }

    /// Intersection of many lists (AND query with `r` features, Eq. 2).
    ///
    /// Processes smallest-first so intermediate results only shrink.
    /// Returns the full document universe error-free only for `lists`
    /// non-empty; an empty input yields an empty result (an AND of zero
    /// features selects nothing in this system).
    pub fn intersect_many(lists: &[&Postings]) -> Postings {
        match lists.len() {
            0 => Postings::new(),
            1 => lists[0].clone(),
            _ => {
                let mut order: Vec<&Postings> = lists.to_vec();
                order.sort_by_key(|p| p.len());
                let mut acc = order[0].intersect(order[1]);
                for p in &order[2..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc = acc.intersect(p);
                }
                acc
            }
        }
    }

    /// Union of many lists (OR query, Eq. 2) via a k-way merge.
    pub fn union_many(lists: &[&Postings]) -> Postings {
        match lists.len() {
            0 => Postings::new(),
            1 => lists[0].clone(),
            2 => lists[0].union(lists[1]),
            _ => {
                // Pairwise balanced merging keeps each element copied
                // O(log k) times.
                let mut layer: Vec<Postings> = lists.iter().map(|p| (*p).clone()).collect();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    let mut it = layer.chunks(2);
                    for chunk in it.by_ref() {
                        next.push(if chunk.len() == 2 {
                            chunk[0].union(&chunk[1])
                        } else {
                            chunk[0].clone()
                        });
                    }
                    layer = next;
                }
                layer.pop().unwrap()
            }
        }
    }

    /// Iterates over the documents.
    pub fn iter(&self) -> impl Iterator<Item = DocId> + '_ {
        self.docs.iter().copied()
    }
}

impl FromIterator<DocId> for Postings {
    fn from_iter<T: IntoIterator<Item = DocId>>(iter: T) -> Self {
        Postings::from_unsorted(iter.into_iter().collect())
    }
}

fn intersect_merge(a: &[DocId], b: &[DocId]) -> Postings {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    Postings { docs: out }
}

fn intersect_gallop(small: &[DocId], large: &[DocId]) -> Postings {
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &needle in small {
        // Exponential probe from `lo`: grow the window until its last
        // element is >= needle (or the list ends), then binary search it.
        let mut bound = 1usize;
        while lo + bound <= large.len() && large[lo + bound - 1] < needle {
            bound <<= 1;
        }
        let hi = (lo + bound).min(large.len());
        match large[lo..hi].binary_search(&needle) {
            Ok(pos) => {
                out.push(needle);
                lo += pos + 1;
            }
            Err(pos) => {
                lo += pos;
            }
        }
        if lo >= large.len() {
            break;
        }
    }
    Postings { docs: out }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ids: &[u32]) -> Postings {
        Postings::from_unsorted(ids.iter().map(|&i| DocId(i)).collect())
    }

    fn ids(p: &Postings) -> Vec<u32> {
        p.iter().map(|d| d.raw()).collect()
    }

    #[test]
    fn from_unsorted_normalizes() {
        let x = p(&[5, 1, 3, 1, 5]);
        assert_eq!(ids(&x), vec![1, 3, 5]);
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(ids(&p(&[1, 2, 3]).intersect(&p(&[2, 3, 4]))), vec![2, 3]);
        assert_eq!(ids(&p(&[1, 2]).intersect(&p(&[3, 4]))), Vec::<u32>::new());
        assert!(p(&[]).intersect(&p(&[1])).is_empty());
    }

    #[test]
    fn intersect_is_commutative() {
        let a = p(&[1, 4, 9, 16, 25]);
        let b = p(&[2, 4, 8, 16, 32]);
        assert_eq!(ids(&a.intersect(&b)), ids(&b.intersect(&a)));
    }

    #[test]
    fn galloping_path_matches_merge_path() {
        // Force the galloping path with a large size ratio.
        let small = p(&[3, 500, 997]);
        let large = Postings::from_sorted((0..1000).map(DocId).collect());
        let got = small.intersect(&large);
        assert_eq!(ids(&got), vec![3, 500, 997]);

        let small2 = p(&[1001, 2000]);
        assert!(small2.intersect(&large).is_empty());
    }

    #[test]
    fn galloping_with_misses_between_hits() {
        let small = p(&[0, 10, 20, 999, 1500]);
        let large = Postings::from_sorted((0..1000).filter(|i| i % 2 == 0).map(DocId).collect());
        let got = small.intersect(&large);
        assert_eq!(ids(&got), vec![0, 10, 20]);
    }

    #[test]
    fn union_basic() {
        assert_eq!(ids(&p(&[1, 3]).union(&p(&[2, 3, 4]))), vec![1, 2, 3, 4]);
        assert_eq!(ids(&p(&[]).union(&p(&[7]))), vec![7]);
    }

    #[test]
    fn intersect_many_orders_by_size() {
        let a = p(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = p(&[2, 4, 6, 8]);
        let c = p(&[4, 8]);
        let got = Postings::intersect_many(&[&a, &b, &c]);
        assert_eq!(ids(&got), vec![4, 8]);
    }

    #[test]
    fn intersect_many_edge_cases() {
        assert!(Postings::intersect_many(&[]).is_empty());
        let a = p(&[1, 2]);
        assert_eq!(ids(&Postings::intersect_many(&[&a])), vec![1, 2]);
        let empty = p(&[]);
        assert!(Postings::intersect_many(&[&a, &empty, &a]).is_empty());
    }

    #[test]
    fn union_many_kway() {
        let a = p(&[1, 5]);
        let b = p(&[2, 5]);
        let c = p(&[3]);
        let d = p(&[4, 1]);
        let got = Postings::union_many(&[&a, &b, &c, &d]);
        assert_eq!(ids(&got), vec![1, 2, 3, 4, 5]);
        assert!(Postings::union_many(&[]).is_empty());
        assert_eq!(ids(&Postings::union_many(&[&c])), vec![3]);
    }

    #[test]
    fn contains_and_len() {
        let a = p(&[10, 20, 30]);
        assert!(a.contains(DocId(20)));
        assert!(!a.contains(DocId(25)));
        assert_eq!(a.len(), 3);
        assert_eq!(a.intersect_len(&p(&[20, 30, 40])), 2);
    }

    #[test]
    fn push_maintains_order() {
        let mut a = Postings::new();
        a.push(DocId(1));
        a.push(DocId(5));
        assert_eq!(ids(&a), vec![1, 5]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn push_out_of_order_panics_in_debug() {
        let mut a = Postings::new();
        a.push(DocId(5));
        a.push(DocId(5));
    }

    #[test]
    fn from_iterator() {
        let a: Postings = [DocId(3), DocId(1), DocId(3)].into_iter().collect();
        assert_eq!(ids(&a), vec![1, 3]);
    }

    #[test]
    fn randomized_against_naive() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a: Vec<u32> = (0..rng.gen_range(0..200))
                .map(|_| rng.gen_range(0..300))
                .collect();
            let b: Vec<u32> = (0..rng.gen_range(0..2000))
                .map(|_| rng.gen_range(0..3000))
                .collect();
            let pa = p(&a);
            let pb = p(&b);
            use std::collections::BTreeSet;
            let sa: BTreeSet<u32> = a.into_iter().collect();
            let sb: BTreeSet<u32> = b.into_iter().collect();
            let want_i: Vec<u32> = sa.intersection(&sb).copied().collect();
            let want_u: Vec<u32> = sa.union(&sb).copied().collect();
            assert_eq!(ids(&pa.intersect(&pb)), want_i);
            assert_eq!(ids(&pa.union(&pb)), want_u);
        }
    }
}
