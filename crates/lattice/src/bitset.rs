//! A compact dynamic bitset with copy-on-write storage.
//!
//! [`BitVecSet`] is the backing representation for sets of states over a
//! finite universe: each state has an index, and a concrete property is the
//! bitset of indices it contains. All binary operations require both
//! operands to have the same capacity (they always do in practice because a
//! universe fixes the capacity once).
//!
//! # Storage and cost model
//!
//! The word block lives behind an [`Arc`], so `clone()` is one reference
//! bump — cache keys, memo values and the point vectors of the repair
//! engines copy sets constantly, and none of those copies touch the words.
//! Mutating methods ([`insert`](BitVecSet::insert),
//! [`union_with`](BitVecSet::union_with), …) copy the block first only when
//! it is shared (`Arc::make_mut`).
//!
//! The block also carries a lazily computed, cached hash: the first
//! [`Hash`] of a set walks the words once, every later hash of any clone is
//! a single load. Equality short-circuits on pointer identity and on
//! *differing* cached hashes before it ever compares words. Both make
//! memo-table lookups keyed on sets O(1) in the set size after first use.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::order::{JoinSemilattice, MeetSemilattice, Poset};

const WORD_BITS: usize = 64;

/// The shared word block: the bits plus a cached hash of the whole set
/// (`0` = not computed yet; a computed hash of `0` is stored as `1`).
struct Words {
    bits: Vec<u64>,
    hash: AtomicU64,
}

impl Clone for Words {
    fn clone(&self) -> Self {
        Words {
            bits: self.bits.clone(),
            // The copy holds identical bits, so the cached hash stays valid;
            // mutators reset it after `make_mut` regardless.
            hash: AtomicU64::new(self.hash.load(Ordering::Relaxed)),
        }
    }
}

/// A fixed-capacity set of `usize` indices backed by a shared `Vec<u64>`.
///
/// # Example
///
/// ```
/// use air_lattice::bitset::BitVecSet;
///
/// let mut s = BitVecSet::new(100);
/// s.insert(3);
/// s.insert(97);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(97));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone)]
pub struct BitVecSet {
    nbits: usize,
    words: Arc<Words>,
}

impl BitVecSet {
    fn from_words(nbits: usize, bits: Vec<u64>) -> Self {
        BitVecSet {
            nbits,
            words: Arc::new(Words {
                bits,
                hash: AtomicU64::new(0),
            }),
        }
    }

    /// Creates an empty set with capacity for indices `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        Self::from_words(nbits, vec![0; nbits.div_ceil(WORD_BITS)])
    }

    /// Creates the full set `{0, …, nbits-1}`.
    pub fn full(nbits: usize) -> Self {
        let mut bits = vec![u64::MAX; nbits.div_ceil(WORD_BITS)];
        let rem = nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = bits.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        Self::from_words(nbits, bits)
    }

    /// Creates a set from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= nbits`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(nbits: usize, indices: I) -> Self {
        let mut s = Self::new(nbits);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The capacity (number of representable indices).
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// The words, read-only.
    #[inline]
    fn bits(&self) -> &[u64] {
        &self.words.bits
    }

    /// The words for mutation: unshares the block if needed and resets the
    /// cached hash (the caller is about to change the contents).
    #[inline]
    fn bits_mut(&mut self) -> &mut Vec<u64> {
        let w = Arc::make_mut(&mut self.words);
        *w.hash.get_mut() = 0;
        &mut w.bits
    }

    /// The cached whole-set hash, computing and storing it on first use.
    /// A pure function of `(nbits, words)`, so equal sets always agree.
    fn cached_hash(&self) -> u64 {
        let h = self.words.hash.load(Ordering::Relaxed);
        if h != 0 {
            return h;
        }
        let mut hasher = std::hash::DefaultHasher::new();
        self.nbits.hash(&mut hasher);
        self.words.bits.hash(&mut hasher);
        let h = hasher.finish().max(1); // 0 is the "unset" sentinel
        self.words.hash.store(h, Ordering::Relaxed);
        h
    }

    /// Zeroes any bits beyond `nbits` in the last word.
    fn trim(&mut self) {
        let nbits = self.nbits;
        let rem = nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.bits_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `index`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.nbits,
            "index {index} out of capacity {}",
            self.nbits
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        if self.bits()[w] & (1 << b) != 0 {
            return false; // already present: no unsharing, no hash reset
        }
        self.bits_mut()[w] |= 1 << b;
        true
    }

    /// Removes `index`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(
            index < self.nbits,
            "index {index} out of capacity {}",
            self.nbits
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        if self.bits()[w] & (1 << b) == 0 {
            return false;
        }
        self.bits_mut()[w] &= !(1 << b);
        true
    }

    /// Returns `true` if `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.nbits {
            return false;
        }
        self.bits()[index / WORD_BITS] & (1 << (index % WORD_BITS)) != 0
    }

    /// Number of elements (word-parallel popcount).
    pub fn len(&self) -> usize {
        self.bits().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.bits().iter().all(|&w| w == 0)
    }

    /// Returns `true` if the set contains every index in `0..capacity()`.
    pub fn is_full(&self) -> bool {
        self.len() == self.nbits
    }

    fn check_same_capacity(&self, other: &Self) {
        assert_eq!(
            self.nbits, other.nbits,
            "bitset capacity mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union(&self, other: &Self) -> Self {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return self.clone();
        }
        let words = self
            .bits()
            .iter()
            .zip(other.bits())
            .map(|(a, b)| a | b)
            .collect();
        Self::from_words(self.nbits, words)
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersection(&self, other: &Self) -> Self {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return self.clone();
        }
        let words = self
            .bits()
            .iter()
            .zip(other.bits())
            .map(|(a, b)| a & b)
            .collect();
        Self::from_words(self.nbits, words)
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference(&self, other: &Self) -> Self {
        self.check_same_capacity(other);
        let words = self
            .bits()
            .iter()
            .zip(other.bits())
            .map(|(a, b)| a & !b)
            .collect();
        Self::from_words(self.nbits, words)
    }

    /// Complement within the capacity.
    pub fn complement(&self) -> Self {
        let mut s = Self::from_words(self.nbits, self.bits().iter().map(|w| !w).collect());
        s.trim();
        s
    }

    /// Returns `true` if every element of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return true;
        }
        self.bits()
            .iter()
            .zip(other.bits())
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share no element.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.check_same_capacity(other);
        self.bits()
            .iter()
            .zip(other.bits())
            .all(|(a, b)| a & b == 0)
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &Self) {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return;
        }
        for (a, b) in self.bits_mut().iter_mut().zip(other.bits()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &Self) {
        self.check_same_capacity(other);
        if Arc::ptr_eq(&self.words, &other.words) {
            return;
        }
        for (a, b) in self.bits_mut().iter_mut().zip(other.bits()) {
            *a &= b;
        }
    }

    /// Iterates over the indices in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        let words = self.bits();
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Calls `f` on every index in ascending order. The word-chunked inner
    /// loop avoids the iterator's per-element state machine — use this in
    /// hot paths that visit whole sets (transfer functions, α/γ sweeps).
    #[inline]
    pub fn for_each_index(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.bits().iter().enumerate() {
            let mut cur = w;
            let base = wi * WORD_BITS;
            while cur != 0 {
                let b = cur.trailing_zeros() as usize;
                cur &= cur - 1;
                f(base + b);
            }
        }
    }

    /// The smallest index in the set, if any.
    pub fn min_index(&self) -> Option<usize> {
        self.bits()
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| wi * WORD_BITS + w.trailing_zeros() as usize)
    }

    // Range kernels. Each works on the inclusive index range `[a, b]` one
    // word at a time: a masked edge word at either end and whole words in
    // between. `a > b` is the empty range.

    /// The words overlapping `[a, b]`, each paired with the mask of its
    /// bits inside the range, in ascending word order.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    fn range_masks(&self, a: usize, b: usize) -> impl DoubleEndedIterator<Item = (usize, u64)> {
        assert!(
            a > b || b < self.nbits,
            "range [{a}, {b}] out of capacity {}",
            self.nbits
        );
        let (first, last) = (a / WORD_BITS, b / WORD_BITS);
        let count = if a > b { 0 } else { last - first + 1 };
        (first..first + count).map(move |w| {
            let lo = if w == first { a % WORD_BITS } else { 0 };
            let hi = if w == last {
                b % WORD_BITS
            } else {
                WORD_BITS - 1
            };
            (w, (u64::MAX << lo) & (u64::MAX >> (WORD_BITS - 1 - hi)))
        })
    }

    /// Inserts every index in `[a, b]`, returning `true` if any was absent.
    /// Like [`insert`](Self::insert), a call that changes nothing neither
    /// unshares the words nor resets the cached hash.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn fill_range(&mut self, a: usize, b: usize) -> bool {
        if self.all_in_range(a, b) {
            return false;
        }
        let masks = self.range_masks(a, b);
        let bits = self.bits_mut();
        for (w, m) in masks {
            bits[w] |= m;
        }
        true
    }

    /// Removes every index in `[a, b]`, returning `true` if any was
    /// present. Like [`remove`](Self::remove), a call that changes nothing
    /// neither unshares the words nor resets the cached hash.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn clear_range(&mut self, a: usize, b: usize) -> bool {
        if !self.any_in_range(a, b) {
            return false;
        }
        let masks = self.range_masks(a, b);
        let bits = self.bits_mut();
        for (w, m) in masks {
            bits[w] &= !m;
        }
        true
    }

    /// Returns `true` if every index in `[a, b]` is in the set (vacuously
    /// for an empty range).
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn all_in_range(&self, a: usize, b: usize) -> bool {
        let bits = self.bits();
        self.range_masks(a, b).all(|(w, m)| bits[w] & m == m)
    }

    /// Returns `true` if some index in `[a, b]` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn any_in_range(&self, a: usize, b: usize) -> bool {
        self.first_set_in(a, b).is_some()
    }

    /// The smallest member in `[a, b]`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn first_set_in(&self, a: usize, b: usize) -> Option<usize> {
        self.first_in(a, b, 0)
    }

    /// The largest member in `[a, b]`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn last_set_in(&self, a: usize, b: usize) -> Option<usize> {
        self.last_in(a, b, 0)
    }

    /// The smallest non-member in `[a, b]`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn first_clear_in(&self, a: usize, b: usize) -> Option<usize> {
        self.first_in(a, b, u64::MAX)
    }

    /// The largest non-member in `[a, b]`, if any.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn last_clear_in(&self, a: usize, b: usize) -> Option<usize> {
        self.last_in(a, b, u64::MAX)
    }

    /// The maximal runs of members inside `[a, b]`, as inclusive
    /// `(start, end)` pairs in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and `b >= capacity()`.
    pub fn runs_in(&self, a: usize, b: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut from = a;
        std::iter::from_fn(move || {
            let start = self.first_set_in(from, b)?;
            let end = self.first_clear_in(start, b).map_or(b, |c| c - 1);
            from = end + 1;
            Some((start, end))
        })
    }

    /// The first index in `[a, b]` whose bit, XOR-ed with `flip`, is set
    /// (`flip = 0` finds members, `u64::MAX` non-members).
    fn first_in(&self, a: usize, b: usize, flip: u64) -> Option<usize> {
        let bits = self.bits();
        self.range_masks(a, b).find_map(|(w, m)| {
            let x = (bits[w] ^ flip) & m;
            (x != 0).then(|| w * WORD_BITS + x.trailing_zeros() as usize)
        })
    }

    /// The last index in `[a, b]` whose bit, XOR-ed with `flip`, is set.
    fn last_in(&self, a: usize, b: usize, flip: u64) -> Option<usize> {
        let bits = self.bits();
        self.range_masks(a, b).rev().find_map(|(w, m)| {
            let x = (bits[w] ^ flip) & m;
            (x != 0).then(|| w * WORD_BITS + (WORD_BITS - 1) - x.leading_zeros() as usize)
        })
    }
}

impl fmt::Debug for BitVecSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl PartialEq for BitVecSet {
    fn eq(&self, other: &Self) -> bool {
        if self.nbits != other.nbits {
            return false;
        }
        if Arc::ptr_eq(&self.words, &other.words) {
            return true;
        }
        let (ha, hb) = (
            self.words.hash.load(Ordering::Relaxed),
            other.words.hash.load(Ordering::Relaxed),
        );
        if ha != 0 && hb != 0 && ha != hb {
            return false;
        }
        self.bits() == other.bits()
    }
}

impl Eq for BitVecSet {}

impl Hash for BitVecSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.cached_hash());
    }
}

impl PartialOrd for BitVecSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic order on the word representation — a total order used only
/// for deterministic sorting and map keys, *not* the subset order (use
/// [`Poset::leq`] for that).
impl Ord for BitVecSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.nbits
            .cmp(&other.nbits)
            .then_with(|| self.bits().cmp(other.bits()))
    }
}

/// Iterator over set indices in ascending order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
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
        Some(self.word_idx * WORD_BITS + bit)
    }
}

impl<'a> IntoIterator for &'a BitVecSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Poset for BitVecSet {
    fn leq(&self, other: &Self) -> bool {
        self.is_subset(other)
    }
}

impl JoinSemilattice for BitVecSet {
    fn join(&self, other: &Self) -> Self {
        self.union(other)
    }
}

impl MeetSemilattice for BitVecSet {
    fn meet(&self, other: &Self) -> Self {
        self.intersection(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::laws;

    #[test]
    fn empty_and_full() {
        let e = BitVecSet::new(130);
        let f = BitVecSet::full(130);
        assert!(e.is_empty());
        assert!(f.is_full());
        assert_eq!(f.len(), 130);
        assert_eq!(e.complement(), f);
        assert_eq!(f.complement(), e);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitVecSet::new(70);
        assert!(s.insert(0));
        assert!(s.insert(69));
        assert!(!s.insert(69));
        assert!(s.contains(0) && s.contains(69) && !s.contains(35));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitVecSet::new(4).insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        assert!(!BitVecSet::full(4).contains(100));
    }

    #[test]
    fn set_algebra() {
        let a = BitVecSet::from_indices(100, [1, 2, 3, 64, 65]);
        let b = BitVecSet::from_indices(100, [3, 64, 99]);
        assert_eq!(a.intersection(&b), BitVecSet::from_indices(100, [3, 64]));
        assert_eq!(
            a.union(&b),
            BitVecSet::from_indices(100, [1, 2, 3, 64, 65, 99])
        );
        assert_eq!(a.difference(&b), BitVecSet::from_indices(100, [1, 2, 65]));
        assert!(BitVecSet::from_indices(100, [3]).is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&BitVecSet::from_indices(100, [0, 50])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn complement_respects_capacity() {
        // Capacity not a multiple of 64: complement must not set ghost bits.
        let s = BitVecSet::from_indices(67, [0, 66]);
        let c = s.complement();
        assert_eq!(c.len(), 65);
        assert!(!c.contains(66));
        assert!(c.contains(65));
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn iter_ascending() {
        let s = BitVecSet::from_indices(200, [199, 0, 63, 64, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
        assert_eq!(s.min_index(), Some(0));
        assert_eq!(BitVecSet::new(8).min_index(), None);
    }

    #[test]
    fn in_place_ops() {
        let mut a = BitVecSet::from_indices(10, [1, 2]);
        a.union_with(&BitVecSet::from_indices(10, [2, 3]));
        assert_eq!(a, BitVecSet::from_indices(10, [1, 2, 3]));
        a.intersect_with(&BitVecSet::from_indices(10, [3, 4]));
        assert_eq!(a, BitVecSet::from_indices(10, [3]));
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let mut a = BitVecSet::from_indices(200, [5, 100]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.words, &b.words));
        a.insert(7);
        assert!(!Arc::ptr_eq(&a.words, &b.words), "mutation unshares");
        assert!(!b.contains(7), "the clone is unaffected");
        assert!(a.contains(7));
        // Re-inserting a present bit is a no-op and must not unshare.
        let c = a.clone();
        let mut d = a.clone();
        assert!(!d.insert(7));
        assert!(Arc::ptr_eq(&c.words, &d.words));
    }

    #[test]
    fn cached_hash_tracks_mutation() {
        use std::collections::hash_map::DefaultHasher;
        fn h(s: &BitVecSet) -> u64 {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        }
        let mut a = BitVecSet::from_indices(100, [1, 2, 3]);
        let before = h(&a);
        assert_eq!(before, h(&a.clone()), "clones hash equal");
        a.insert(50);
        assert_ne!(before, h(&a), "hash invalidated by mutation");
        a.remove(50);
        assert_eq!(before, h(&a), "equal contents, equal hash");
        assert_eq!(a, BitVecSet::from_indices(100, [1, 2, 3]));
        // The range mutators invalidate exactly like insert/remove: a
        // change resets the hash, a no-op keeps the shared block.
        assert!(a.fill_range(60, 70));
        assert_ne!(before, h(&a), "hash invalidated by fill_range");
        let filled = h(&a);
        let shared = a.clone();
        assert!(!a.fill_range(62, 68), "already full: no change");
        assert!(
            Arc::ptr_eq(&a.words, &shared.words),
            "no-op fill keeps sharing"
        );
        assert_eq!(filled, h(&a));
        assert!(a.clear_range(60, 70));
        assert_ne!(filled, h(&a), "hash invalidated by clear_range");
        assert_eq!(before, h(&a), "equal contents, equal hash");
        let shared = a.clone();
        assert!(!a.clear_range(40, 99), "already clear: no change");
        assert!(
            Arc::ptr_eq(&a.words, &shared.words),
            "no-op clear keeps sharing"
        );
        assert_eq!(a, BitVecSet::from_indices(100, [1, 2, 3]));
    }

    #[test]
    fn range_kernels_on_word_seams() {
        let s = BitVecSet::from_indices(200, [0, 63, 64, 127, 128, 199]);
        assert_eq!(s.first_set_in(1, 199), Some(63));
        assert_eq!(s.last_set_in(0, 126), Some(64));
        assert_eq!(s.first_clear_in(63, 64), None);
        assert_eq!(s.first_clear_in(63, 65), Some(65));
        assert_eq!(s.last_clear_in(0, 64), Some(62));
        assert!(s.all_in_range(127, 128));
        assert!(!s.any_in_range(129, 198));
        // An empty range (a > b) is vacuous.
        assert!(s.all_in_range(5, 4) && !s.any_in_range(5, 4));
        assert_eq!(s.first_set_in(5, 4), None);
        let mut f = BitVecSet::new(130);
        assert!(f.fill_range(0, 129));
        assert!(f.is_full());
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn range_past_capacity_panics() {
        BitVecSet::new(70).any_in_range(0, 70);
    }

    #[test]
    fn equality_after_hashing_both_sides() {
        // Exercise the differing-cached-hash fast path.
        let a = BitVecSet::from_indices(100, [1]);
        let b = BitVecSet::from_indices(100, [2]);
        let _ = a.cached_hash();
        let _ = b.cached_hash();
        assert_ne!(a, b);
        let c = BitVecSet::from_indices(100, [1]);
        let _ = c.cached_hash();
        assert_eq!(a, c);
    }

    #[test]
    fn for_each_index_matches_iter() {
        let s = BitVecSet::from_indices(300, [0, 1, 63, 64, 65, 128, 299]);
        let mut via_fn = Vec::new();
        s.for_each_index(|i| via_fn.push(i));
        assert_eq!(via_fn, s.iter().collect::<Vec<_>>());
        let empty = BitVecSet::new(300);
        empty.for_each_index(|_| panic!("no indices in the empty set"));
    }

    #[test]
    fn lattice_laws_on_small_powerset() {
        let sample: Vec<BitVecSet> = (0u8..16)
            .map(|m| BitVecSet::from_indices(4, (0..4).filter(move |i| m & (1 << i) != 0)))
            .collect();
        laws::check_poset(&sample).unwrap();
        laws::check_join(&sample).unwrap();
        laws::check_meet(&sample).unwrap();
        laws::check_absorption(&sample).unwrap();
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        BitVecSet::new(4).union(&BitVecSet::new(5));
    }
}
