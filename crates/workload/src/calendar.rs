//! The driver's due table and the calendar that finds its due entries.

use crate::processor::IDLE;

/// Cycles the calendar's buckets span: entry `i` due at cycle `d` has
/// its bit in bucket `d % SPAN`.
const SPAN: u64 = 64;

/// The cycle each driver entry (memories `0..P`, then processors
/// `P..2P`) is next visited, or [`IDLE`], and a calendar over it: one
/// bitset of the entries per cycle modulo [`SPAN`].
///
/// Every write of an entry's cycle sets its bit in that cycle's bucket
/// (or in the bucket of the cycle being run, for a cycle already past).
/// Bits are never cleared when an entry moves: [`next`](Self::next)
/// drops a bit whose entry has moved to another bucket and keeps one
/// whose entry is a whole span or more ahead, so the table stays the
/// one truth and a bit is only ever a hint to look.
#[derive(Debug, Default)]
pub(crate) struct Calendar {
    at: Vec<u64>,
    /// Bucket `b`'s word `w` at `b * words + w`.
    buckets: Vec<u64>,
    words: usize,
    /// Entries read by [`next`](Self::next) since the last
    /// [`take_examined`](Self::take_examined) (host work).
    examined: u64,
}

impl Calendar {
    /// Whether the table is unbuilt (before the first cycle, and after
    /// a restore).
    pub(crate) fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Forgets every entry.
    pub(crate) fn clear(&mut self) {
        self.at.clear();
        self.buckets.clear();
    }

    /// Builds the table from `at` at cycle `now`: an entry already past
    /// is due now.
    pub(crate) fn build(&mut self, at: impl Iterator<Item = u64>, now: u64) {
        self.at.clear();
        self.at.extend(at);
        self.words = self.at.len().div_ceil(64);
        self.buckets.clear();
        self.buckets.resize(SPAN as usize * self.words, 0);
        for i in 0..self.at.len() {
            self.mark(i, self.at[i].max(now));
        }
    }

    /// The cycle entry `i` is next due at.
    pub(crate) fn get(&self, i: usize) -> u64 {
        self.at[i]
    }

    /// The entries' cycles, in index order.
    pub(crate) fn entries(&self) -> &[u64] {
        &self.at
    }

    fn mark(&mut self, i: usize, d: u64) {
        if d != IDLE {
            let b = (d % SPAN) as usize;
            self.buckets[b * self.words + i / 64] |= 1 << (i % 64);
        }
    }

    /// Entry `i` is next due at `d` ([`IDLE`]: not until woken). A `d`
    /// at or before the cycle being run must be at or ahead of the
    /// cursor of its walk, or it waits for the next cycle's bucket.
    pub(crate) fn set(&mut self, i: usize, d: u64) {
        self.at[i] = d;
        self.mark(i, d);
    }

    /// Entry `i` is due by `d` at the latest.
    pub(crate) fn lower(&mut self, i: usize, d: u64) {
        if d < self.at[i] {
            self.set(i, d);
        }
    }

    /// The first entry in `from..end` due at or before `now`, its bit
    /// cleared; bits on the way whose entry moved to another cycle are
    /// dropped, and those of entries a whole span ahead kept. The bucket
    /// word is re-read on every call, so an entry set due at `now`
    /// ahead of the caller's cursor is found in the same walk.
    pub(crate) fn next(&mut self, from: usize, end: usize, now: u64) -> Option<usize> {
        let base = (now % SPAN) as usize * self.words;
        let mut w = from / 64;
        let mut bits = self.buckets.get(base + w)? & (!0 << (from % 64));
        loop {
            if w * 64 + 64 > end {
                bits &= (1 << (end % 64)) - 1;
            }
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i = w * 64 + k;
                self.examined += 1;
                let d = self.at[i];
                if d <= now {
                    self.buckets[base + w] &= !(1 << k);
                    return Some(i);
                }
                if d == IDLE || d % SPAN != now % SPAN {
                    self.buckets[base + w] &= !(1 << k);
                }
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.buckets[base + w];
        }
    }

    /// Entries read since the last call, and resets the count.
    pub(crate) fn take_examined(&mut self) -> u64 {
        std::mem::take(&mut self.examined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(cal: &mut Calendar, end: usize, now: u64) -> Vec<usize> {
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = cal.next(from, end, now) {
            seen.push(i);
            from = i + 1;
        }
        seen
    }

    #[test]
    fn finds_exactly_the_due_entries_in_order() {
        let mut cal = Calendar::default();
        // 130 entries: three words, the last partly used.
        cal.build((0..130).map(|i| if i % 7 == 0 { 5 } else { IDLE }), 5);
        let due: Vec<usize> = (0..130).filter(|i| i % 7 == 0).collect();
        assert_eq!(walk(&mut cal, 130, 5), due);
        // Walked bits are gone: nothing is due twice.
        assert!(walk(&mut cal, 130, 5).is_empty());
        // A range stops at its end, mid-word.
        cal.set(3, 6);
        cal.set(70, 6);
        assert_eq!(walk(&mut cal, 65, 6), [3]);
        assert_eq!(cal.next(65, 130, 6), Some(70));
    }

    #[test]
    fn moved_and_far_entries_are_dropped_or_kept() {
        let mut cal = Calendar::default();
        cal.build([IDLE; 3].into_iter(), 0);
        cal.set(0, 10);
        cal.set(0, 12); // moved: bucket 10 keeps a stale bit
        cal.set(1, 10 + SPAN); // a whole span ahead: same bucket
        cal.set(2, 10);
        assert_eq!(walk(&mut cal, 3, 10), [2]);
        assert_eq!(cal.take_examined(), 3);
        // The stale bit went, the far one stayed.
        assert!(walk(&mut cal, 3, 10).is_empty());
        assert_eq!(cal.take_examined(), 1);
        assert_eq!(walk(&mut cal, 3, 12), [0]);
        assert_eq!(walk(&mut cal, 3, 10 + SPAN), [1]);
    }

    #[test]
    fn an_entry_set_due_ahead_of_the_cursor_is_found_in_the_same_walk() {
        let mut cal = Calendar::default();
        cal.build([4, IDLE, IDLE, IDLE].into_iter(), 4);
        assert_eq!(cal.next(0, 4, 4), Some(0));
        cal.set(2, 4);
        assert_eq!(cal.next(1, 4, 4), Some(2));
        assert_eq!(cal.next(3, 4, 4), None);
    }

    #[test]
    fn a_built_entry_already_past_is_due_now() {
        let mut cal = Calendar::default();
        cal.build([3, 9].into_iter(), 7);
        assert_eq!(walk(&mut cal, 2, 7), [0]);
    }
}
