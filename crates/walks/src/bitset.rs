use core::fmt;

/// A fixed-capacity bit set backed by `u64` words.
///
/// Used pervasively for visited-node sets, informed-agent sets, and rumor
/// sets. The capacity is fixed at construction; all operations are
/// bounds-checked in debug builds.
///
/// # Examples
///
/// ```
/// use sparsegossip_walks::BitSet;
///
/// let mut s = BitSet::new(100);
/// assert!(s.insert(42));
/// assert!(!s.insert(42)); // already present
/// assert!(s.contains(42));
/// assert_eq!(s.count_ones(), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for bits `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The capacity (number of addressable bits).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` in debug builds.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`, returning `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` in debug builds.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Clears bit `i`, returning `true` if it was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` in debug builds.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// The number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets every bit of `self` that is set in `other` (`self |= other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Whether every bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Clears all bits, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Makes `self` an exact copy of `other` without allocating — the
    /// hot-path alternative to `*self = other.clone()`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Sets all bits in `0..len`.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.trim_tail();
    }

    /// Whether all `len` bits are set.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Zeroes the bits above `len` in the last word so `count_ones` stays
    /// exact after `set_all`.
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet({} of {} set)", self.count_ones(), self.len)
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized to the largest index plus one.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |m| m + 1);
        let mut s = Self::new(len);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    /// Inserts indices; panics in debug builds on out-of-range indices.
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set-bit indices, produced by [`BitSet::iter_ones`].
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_round_trip() {
        let mut s = BitSet::new(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!s.contains(i));
            assert!(s.insert(i));
            assert!(s.contains(i));
        }
        assert_eq!(s.count_ones(), 8);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count_ones(), 7);
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        a.insert(5);
        b.insert(150);
        b.insert(5);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        a.union_with(&b);
        assert!(b.is_subset(&a));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn copy_from_matches_clone() {
        let mut src = BitSet::new(130);
        src.insert(0);
        src.insert(129);
        let mut dst = BitSet::new(130);
        dst.insert(64);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn copy_from_rejects_capacity_mismatch() {
        let mut a = BitSet::new(10);
        a.copy_from(&BitSet::new(11));
    }

    #[test]
    fn set_all_respects_capacity() {
        let mut s = BitSet::new(70);
        s.set_all();
        assert_eq!(s.count_ones(), 70);
        assert!(s.is_full());
        s.clear();
        assert!(s.is_clear());
        assert!(!s.is_full());
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let idx = [3usize, 64, 67, 128, 191];
        let mut s = BitSet::new(192);
        for &i in &idx {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter_ones().collect();
        assert_eq!(got, idx);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [2usize, 9, 4].into_iter().collect();
        assert_eq!(s.len(), 10);
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn empty_set_behaves() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.is_clear());
        assert!(s.is_full()); // vacuously: all zero of zero bits set
        assert_eq!(s.iter_ones().count(), 0);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = BitSet::new(10);
        assert!(!format!("{s:?}").is_empty());
    }

    #[test]
    fn extend_inserts() {
        let mut s = BitSet::new(16);
        s.extend([1usize, 3, 5]);
        assert_eq!(s.count_ones(), 3);
    }
}
