//! Cursor abstraction over word-specific phrase lists.
//!
//! The top-k algorithms (crate `ipm-core`) consume lists one entry at a
//! time — NRA and TA in score order ([`ScoredListCursor`]), SMJ in
//! phrase-id order ([`IdListCursor`]) — regardless of whether the list
//! lives in memory ([`crate::wordlists::WordPhraseLists`]) or behind the
//! simulated disk (crate `ipm-storage`). These traits are the seam between
//! the two; [`crate::backend::ListBackend`] bundles them with random-probe
//! access into one pluggable backend.

use crate::wordlists::{IdOrderedLists, ListEntry, WordPhraseLists};
use ipm_corpus::{Feature, PhraseId};

/// A forward-only cursor over one feature's score-ordered list.
pub trait ScoredListCursor {
    /// Next `[phrase, prob]` entry, or `None` when the (possibly partial)
    /// list is exhausted.
    fn next_entry(&mut self) -> Option<ListEntry>;

    /// Total entries this cursor will yield (after partial truncation).
    fn len(&self) -> usize;

    /// Whether the cursor yields no entries at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries yielded so far.
    fn position(&self) -> usize;

    /// An upper bound on the probability of every entry this cursor has
    /// *not yet* yielded, when the backend can provide one more cheaply
    /// than reading ahead — block-compressed lists answer from the next
    /// block's skip metadata without fetching it. `None` (the default)
    /// means "no hint"; callers must fall back to the last seen score,
    /// which bounds the remainder of any score-ordered list.
    fn block_max_hint(&self) -> Option<f64> {
        None
    }
}

/// In-memory cursor over a slice of a score-ordered list.
#[derive(Debug, Clone)]
pub struct MemoryCursor<'a> {
    entries: &'a [ListEntry],
    pos: usize,
}

impl<'a> MemoryCursor<'a> {
    /// Cursor over a full in-memory list.
    pub fn new(entries: &'a [ListEntry]) -> Self {
        Self { entries, pos: 0 }
    }

    /// Cursor over the top-`fraction` prefix of `lists`' entry for `feature`
    /// (run-time partial lists, paper §4.3).
    pub fn partial(lists: &'a WordPhraseLists, feature: Feature, fraction: f64) -> Self {
        let full = lists.list(feature);
        let keep = prefix_len(full.len(), fraction);
        Self {
            entries: &full[..keep],
            pos: 0,
        }
    }
}

impl ScoredListCursor for MemoryCursor<'_> {
    #[inline]
    fn next_entry(&mut self) -> Option<ListEntry> {
        let e = self.entries.get(self.pos).copied();
        if e.is_some() {
            self.pos += 1;
        }
        e
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn position(&self) -> usize {
        self.pos
    }
}

/// A forward-only cursor over one feature's phrase-ID-ordered list (the
/// SMJ access path, paper §4.4).
pub trait IdListCursor {
    /// Next entry in ascending phrase-id order, or `None` at the end.
    fn next_entry(&mut self) -> Option<ListEntry>;

    /// Total entries this cursor will yield.
    fn len(&self) -> usize;

    /// Whether the cursor yields no entries at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advances past every entry with id below `target` and consumes the
    /// first entry with `phrase >= target`, returning it (`None` when the
    /// list holds no such entry). Equivalent to calling [`next_entry`]
    /// until it yields an id `>= target` — the default does exactly that —
    /// but backends with skip metadata jump without decoding: the SMJ
    /// gallop path on skewed AND merges.
    ///
    /// [`next_entry`]: IdListCursor::next_entry
    fn seek(&mut self, target: PhraseId) -> Option<ListEntry> {
        loop {
            let e = self.next_entry()?;
            if e.phrase >= target {
                return Some(e);
            }
        }
    }
}

/// In-memory cursor over a slice of an ID-ordered list.
#[derive(Debug, Clone)]
pub struct MemoryIdCursor<'a> {
    entries: &'a [ListEntry],
    pos: usize,
}

impl<'a> MemoryIdCursor<'a> {
    /// Cursor over an in-memory id-ordered slice.
    pub fn new(entries: &'a [ListEntry]) -> Self {
        Self { entries, pos: 0 }
    }

    /// Cursor over `lists`' entry for `feature`.
    pub fn over(lists: &'a IdOrderedLists, feature: Feature) -> Self {
        Self::new(lists.list(feature))
    }
}

impl IdListCursor for MemoryIdCursor<'_> {
    #[inline]
    fn next_entry(&mut self) -> Option<ListEntry> {
        let e = self.entries.get(self.pos).copied();
        if e.is_some() {
            self.pos += 1;
        }
        e
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn seek(&mut self, target: PhraseId) -> Option<ListEntry> {
        // Id-ordered slice: binary-search the remaining suffix instead of
        // walking it entry by entry.
        self.pos += self.entries[self.pos..].partition_point(|e| e.phrase < target);
        self.next_entry()
    }
}

/// Number of entries in the top-`fraction` prefix of a list of `len`
/// entries: `ceil(len · fraction)`, at least 1 for non-empty lists, clamped
/// to `len`. Shared by the in-memory and disk cursors so partial semantics
/// agree everywhere.
pub fn prefix_len(len: usize, fraction: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let fraction = fraction.clamp(f64::MIN_POSITIVE, 1.0);
    ((len as f64 * fraction).ceil() as usize).clamp(1, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_corpus::PhraseId;

    fn entries(n: usize) -> Vec<ListEntry> {
        (0..n)
            .map(|i| ListEntry {
                phrase: PhraseId(i as u32),
                prob: 1.0 / (i + 1) as f64,
            })
            .collect()
    }

    #[test]
    fn memory_cursor_yields_all_in_order() {
        let es = entries(4);
        let mut c = MemoryCursor::new(&es);
        assert_eq!(c.len(), 4);
        let mut got = Vec::new();
        while let Some(e) = c.next_entry() {
            got.push(e.phrase.raw());
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(c.position(), 4);
        assert!(c.next_entry().is_none());
    }

    #[test]
    fn empty_cursor() {
        let es = entries(0);
        let mut c = MemoryCursor::new(&es);
        assert!(c.is_empty());
        assert!(c.next_entry().is_none());
        assert_eq!(c.position(), 0);
    }

    #[test]
    fn id_cursor_yields_all_in_order() {
        let es = entries(3);
        let mut c = MemoryIdCursor::new(&es);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        let mut got = Vec::new();
        while let Some(e) = c.next_entry() {
            got.push(e.phrase.raw());
        }
        assert_eq!(got, vec![0, 1, 2]);
        assert!(c.next_entry().is_none());
    }

    #[test]
    fn seek_consumes_through_target() {
        let es = entries(10); // ids 0..10
        let mut c = MemoryIdCursor::new(&es);
        let hit = c.seek(PhraseId(4)).unwrap();
        assert_eq!(hit.phrase, PhraseId(4));
        assert_eq!(c.next_entry().unwrap().phrase, PhraseId(5));
        // Seeking backwards never rewinds: the cursor stays forward-only.
        let hit = c.seek(PhraseId(2)).unwrap();
        assert_eq!(hit.phrase, PhraseId(6));
        assert!(c.seek(PhraseId(99)).is_none());
    }

    #[test]
    fn default_hooks_are_inert() {
        let es = entries(3);
        let c = MemoryCursor::new(&es);
        assert_eq!(c.block_max_hint(), None);
    }

    #[test]
    fn prefix_len_boundaries() {
        assert_eq!(prefix_len(0, 0.5), 0);
        assert_eq!(prefix_len(10, 1.0), 10);
        assert_eq!(prefix_len(10, 0.5), 5);
        assert_eq!(prefix_len(10, 0.01), 1); // at least one entry
        assert_eq!(prefix_len(10, 0.11), 2); // ceil
        assert_eq!(prefix_len(3, 2.0), 3); // clamped
        assert_eq!(prefix_len(7, -1.0), 1); // clamped up from nonsense
    }
}
