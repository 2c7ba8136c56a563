//! Bounded event ledgers — in-memory transition logs that cannot grow
//! without bound.
//!
//! Several subsystems keep an inspectable, in-order record of their state
//! transitions next to the monotonic counters they reconcile against: the
//! supervised runtime's breaker ledger, the fleet layer's bulkhead and
//! site-health logs.
//! A session serving a fleet runs indefinitely, so those `Vec`s are a
//! slow leak. [`BoundedLedger`] is the shared fix: a fixed-capacity ring
//! that evicts the *oldest* entries and counts what it evicted, so the
//! reconciliation invariant survives bounding:
//!
//! ```text
//! resident entries + evicted() == total() == matching counter sum
//! ```
//!
//! Soak gates compare `total()` (not `len()`) against the obs counters;
//! the resident window still carries the most recent transitions for
//! diagnosis.

use std::collections::VecDeque;

/// A fixed-capacity, oldest-first-evicting transition log with an
/// eviction counter, so bounded ledgers still reconcile exactly against
/// monotonic counters (`len() + evicted() == total()`).
#[derive(Debug, Clone)]
pub struct BoundedLedger<T> {
    items: VecDeque<T>,
    capacity: usize,
    evicted: u64,
}

impl<T> BoundedLedger<T> {
    /// A ledger retaining at most `capacity` resident entries (a zero
    /// capacity is clamped to 1 — a ledger that can hold nothing cannot
    /// witness anything).
    pub fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Appends one entry, evicting (and counting) the oldest resident
    /// entry if the ledger is at capacity.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.evicted += 1;
        }
        self.items.push_back(item);
    }

    /// Resident entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been recorded (and nothing evicted).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty() && self.evicted == 0
    }

    /// Entries evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Every entry ever pushed: resident plus evicted. This is the
    /// number a monotonic transition counter must equal.
    pub fn total(&self) -> u64 {
        self.items.len() as u64 + self.evicted
    }

    /// The configured resident capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The `i`-th resident entry (0 = oldest resident), if present.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }
}

impl<T: Clone> BoundedLedger<T> {
    /// The resident entries as an owned `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }
}

impl<T> std::ops::Index<usize> for BoundedLedger<T> {
    type Output = T;

    /// Indexes the resident window (0 = oldest resident entry).
    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

impl<'a, T> IntoIterator for &'a BoundedLedger<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_capacity_nothing_evicts() {
        let mut l = BoundedLedger::new(4);
        for i in 0..3 {
            l.push(i);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.evicted(), 0);
        assert_eq!(l.total(), 3);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn eviction_drops_oldest_and_totals_reconcile() {
        let mut l = BoundedLedger::new(3);
        for i in 0..10 {
            l.push(i);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.evicted(), 7);
        assert_eq!(l.total(), 10);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(l.items.back(), Some(&9));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut l = BoundedLedger::new(0);
        l.push("a");
        l.push("b");
        assert_eq!(l.capacity(), 1);
        assert_eq!(l.len(), 1);
        assert_eq!(l.total(), 2);
        assert_eq!(l.items.back(), Some(&"b"));
    }
}
