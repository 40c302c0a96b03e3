//! A compact fixed-capacity bitset over vertex indices.
//!
//! The lower-bound machinery manipulates many vertex sets (ancestors,
//! descendants, partitions, wavefronts). `std::collections::HashSet` would
//! dominate both time and memory on CDAGs with millions of vertices, so we
//! use a word-packed bitset with the usual bulk operations. The layout is a
//! plain `Vec<u64>` plus the logical capacity, which also makes it trivially
//! serde-serializable.

use serde::{Deserialize, Serialize};

/// `dst |= src`, word by word, over two equal-length `u64` slices.
///
/// This is the inner step of the word-parallel reachability sweeps in
/// [`crate::reach::BatchReach`]: each vertex owns a fixed-width row of words
/// (one bit per anchor in the batch), and propagating a closure along an edge
/// is a single `union_words` over the two rows.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn union_words(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "union_words length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

/// `dst &= src`, word by word, over two equal-length `u64` slices — the
/// AND-sweep counterpart of [`union_words`], used to compute per-anchor
/// frontier rows ("all successors inside the region") in
/// [`crate::reach::BatchReach`].
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn intersect_words(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len(), "intersect_words length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= *s;
    }
}

/// A fixed-capacity set of `usize` indices packed into 64-bit words.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    /// Logical capacity (indices `0..capacity` are addressable).
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.trim_tail();
        s
    }

    /// Builds a set from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, it: I) -> Self {
        let mut s = Self::new(capacity);
        for i in it {
            s.insert(i);
        }
        s
    }

    /// Logical capacity of the set.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "BitSet index {i} out of range {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test. Out-of-range indices are reported absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// `self ∪= other`. Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// `self \= other`. Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// In-place complement with respect to `0..capacity`.
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim_tail();
    }

    /// `true` if `self` and `other` share no element. Panics if capacities
    /// differ (a silent `zip` would ignore the longer set's tail words).
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Read-only view of the packed 64-bit words (block `i` covers indices
    /// `64*i .. 64*i + 64`). Bits at or beyond `capacity` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the 64-bit block `i` (indices `64*i .. 64*i + 64`) with
    /// `word`. Bits at or beyond `capacity` are masked off, preserving the
    /// tail invariant relied on by `len`/`is_empty`/`complement`.
    ///
    /// # Panics
    /// Panics if `i` is not a valid block index.
    #[inline]
    pub fn set_block(&mut self, i: usize, word: u64) {
        assert!(
            i < self.words.len(),
            "BitSet block {i} out of range {}",
            self.words.len()
        );
        self.words[i] = word;
        if i + 1 == self.words.len() {
            self.trim_tail();
        }
    }

    /// Iterates `(block_index, word)` pairs for the **non-zero** blocks, in
    /// increasing block order. Useful for sparse scans over large sets.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w != 0)
    }

    /// Iterates `(block_index, xor_word)` for blocks where `self` and
    /// `other` differ (the symmetric difference, word at a time). This is
    /// how the warm-started flow solver finds the few vertices whose
    /// source/sink side changed between adjacent anchors without scanning
    /// either set element-wise.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn xor_blocks<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = (usize, u64)> + 'a {
        assert_eq!(self.capacity, other.capacity, "BitSet capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .filter_map(|(i, (a, b))| {
                let d = a ^ b;
                (d != 0).then_some((i, d))
            })
    }

    /// Iterates over the contained indices in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Zeroes the bits beyond `capacity` in the last word.
    fn trim_tail(&mut self) {
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set sized to the maximum element + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(it: I) -> Self {
        let items: Vec<usize> = it.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        Self::from_indices(cap, items)
    }
}

/// Iterator over set bits; see [`BitSet::iter`].
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn full_and_complement() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        s.complement();
        assert!(s.is_empty());
        s.complement();
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(100, [1, 2, 3, 50]);
        let b = BitSet::from_indices(100, [2, 3, 99]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 50, 99]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 50]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_indices(64, [3, 5]);
        let b = BitSet::from_indices(64, [3, 5, 7]);
        let c = BitSet::from_indices(64, [8]);
        // a ⊆ b exactly when a \ b is empty.
        let mut d = a.clone();
        d.difference_with(&b);
        assert!(d.is_empty());
        let mut d = b.clone();
        d.difference_with(&a);
        assert!(!d.is_empty());
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn subset_rejects_capacity_mismatch() {
        // The subset test `a \ b = ∅` must not zip silently: a longer
        // `a` would have its tail words ignored, so {100} ⊆ {} would
        // come back `true`.
        let mut a = BitSet::from_indices(128, [100]);
        let b = BitSet::new(64);
        a.difference_with(&b);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn disjoint_rejects_capacity_mismatch() {
        let a = BitSet::from_indices(128, [100]);
        let b = BitSet::from_indices(64, [1]);
        let _ = a.is_disjoint(&b);
    }

    #[test]
    fn iter_order_and_empty() {
        let s = BitSet::from_indices(200, [199, 0, 63, 64, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
        let e = BitSet::new(0);
        assert_eq!(e.iter().count(), 0);
        assert!(e.is_empty());
    }

    #[test]
    fn union_words_ors_in_place() {
        let mut dst = [0b0011u64, 0];
        union_words(&mut dst, &[0b0101, 1 << 63]);
        assert_eq!(dst, [0b0111, 1 << 63]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_words_rejects_length_mismatch() {
        let mut dst = [0u64];
        union_words(&mut dst, &[0, 0]);
    }

    #[test]
    fn words_and_set_block_roundtrip() {
        let mut s = BitSet::new(100);
        s.set_block(0, u64::MAX);
        s.set_block(1, u64::MAX);
        // Tail bits beyond capacity are masked: 100 = 64 + 36.
        assert_eq!(s.len(), 100);
        assert_eq!(s.words()[0], u64::MAX);
        assert_eq!(s.words()[1], (1u64 << 36) - 1);
        assert!(s.contains(99));
        assert!(!s.contains(100));
    }

    #[test]
    fn blocks_skips_zero_words() {
        let s = BitSet::from_indices(200, [1, 130]);
        let blocks: Vec<_> = s.blocks().collect();
        assert_eq!(blocks, vec![(0, 1u64 << 1), (2, 1u64 << 2)]);
    }

    #[test]
    fn xor_blocks_reports_symmetric_difference() {
        let a = BitSet::from_indices(200, [1, 64, 130]);
        let b = BitSet::from_indices(200, [1, 65, 130]);
        let diff: Vec<_> = a.xor_blocks(&b).collect();
        assert_eq!(diff, vec![(1, (1u64 << 0) | (1u64 << 1))]);
        assert_eq!(a.xor_blocks(&a).count(), 0);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [5usize, 9, 2].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.len(), 3);
    }
}
