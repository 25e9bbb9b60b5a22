//! A growable bitset over `u64` words.
//!
//! Used for color labels (a coloring assigns each query variable a set of
//! colors), adjacency rows in dense graph algorithms, and vertex subsets in
//! the branch-and-bound treewidth solver.

use std::fmt;

/// A growable set of `usize` indices backed by `u64` words.
///
/// All binary operations (`union_with`, `intersect_with`, ...) tolerate
/// operands of different lengths; the receiver grows as needed.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// Creates an empty bitset with capacity for indices `< n` without
    /// reallocation.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a bitset containing exactly the indices `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = BitSet::with_capacity(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Builds a bitset from an iterator of indices.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator below
    pub fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }

    fn ensure(&mut self, bit: usize) {
        let w = bit / WORD_BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
    }

    /// Trims trailing zero words so that `Eq`/`Hash` are structural on the
    /// *set*, not on historical capacity.
    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Inserts `bit`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, bit: usize) -> bool {
        self.ensure(bit);
        let (w, b) = (bit / WORD_BITS, bit % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `bit`; returns `true` if it was present.
    pub fn remove(&mut self, bit: usize) -> bool {
        let (w, b) = (bit / WORD_BITS, bit % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.normalize();
        was
    }

    /// Tests membership.
    pub fn contains(&self, bit: usize) -> bool {
        let (w, b) = (bit / WORD_BITS, bit % WORD_BITS);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// In-place union: `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
        self.normalize();
    }

    /// In-place intersection: `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
        self.normalize();
    }

    /// Returns `self | other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self & other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self - other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        for (a, b) in s.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
        s.normalize();
        s
    }

    /// `true` when every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// `true` when the sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * WORD_BITS + b)
                }
            })
        })
    }

    /// Smallest element, if any.
    pub fn min(&self) -> Option<usize> {
        self.iter().next()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        BitSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(200));
        assert!(s.contains(3));
        assert!(s.contains(200));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter([1, 2, 3, 64]);
        let b = BitSet::from_iter([2, 3, 4, 128]);
        assert_eq!(a.union(&b), BitSet::from_iter([1, 2, 3, 4, 64, 128]));
        assert_eq!(a.intersection(&b), BitSet::from_iter([2, 3]));
        assert_eq!(a.difference(&b), BitSet::from_iter([1, 64]));
        assert!(BitSet::from_iter([2, 3]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&BitSet::from_iter([5, 6])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn different_lengths() {
        let mut a = BitSet::from_iter([1]);
        let b = BitSet::from_iter([500]);
        a.union_with(&b);
        assert!(a.contains(500));
        let mut c = BitSet::from_iter([500, 1]);
        c.intersect_with(&BitSet::from_iter([1]));
        assert_eq!(c, BitSet::from_iter([1]));
    }

    #[test]
    fn iter_sorted() {
        let s = BitSet::from_iter([66, 0, 5, 65, 1000]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 65, 66, 1000]);
        assert_eq!(s.min(), Some(0));
        assert_eq!(BitSet::new().min(), None);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn equality_ignores_capacity_only_when_words_match() {
        // Two sets with the same elements built differently must be equal if
        // trailing words are identical; we never shrink, so construct equal.
        let a = BitSet::from_iter([1, 2]);
        let b = BitSet::from_iter([1, 2]);
        assert_eq!(a, b);
    }
}
