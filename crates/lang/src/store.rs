//! Program stores and finite universes.
//!
//! A *store* `σ : V → ℤ` assigns values to the program's variables; the
//! concrete domain is `℘(Σ)` where `Σ` is the set of all stores. The
//! enumerative repair engine (like the paper's pilot implementation,
//! Section 8) works on a *finite* slice of `Σ`: a [`Universe`] fixes, for
//! each variable, a bounded integer range, and enumerates all stores in the
//! resulting box. State sets are bitsets over store indices.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use air_lattice::bitset::BitVecSet;

/// A program store: one `i64` value per universe variable, in universe
/// variable order.
pub type Store = Vec<i64>;

/// A set of universe stores, as a bitset over store indices.
///
/// `StateSet` is the concrete complete lattice `℘(Σ)` of the paper:
/// `∪`/`∩`/`⊆` are [`BitVecSet::union`], [`BitVecSet::intersection`] and
/// [`BitVecSet::is_subset`].
pub type StateSet = BitVecSet;

/// Errors from universe construction and store indexing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniverseError {
    /// A variable was declared twice.
    DuplicateVar(String),
    /// A variable range was empty (`lo > hi`).
    EmptyRange {
        /// The offending variable.
        var: String,
        /// Declared lower bound.
        lo: i64,
        /// Declared upper bound.
        hi: i64,
    },
    /// The universe would contain more than [`Universe::MAX_SIZE`] stores.
    TooLarge {
        /// The number of stores the declaration implies.
        size: u128,
    },
    /// No variables were declared.
    NoVars,
}

impl fmt::Display for UniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniverseError::DuplicateVar(v) => write!(f, "duplicate variable `{v}`"),
            UniverseError::EmptyRange { var, lo, hi } => {
                write!(f, "empty range [{lo}, {hi}] for variable `{var}`")
            }
            UniverseError::TooLarge { size } => {
                write!(
                    f,
                    "universe has {size} stores, exceeding the {} cap",
                    Universe::MAX_SIZE
                )
            }
            UniverseError::NoVars => write!(f, "universe must declare at least one variable"),
        }
    }
}

impl std::error::Error for UniverseError {}

#[derive(Clone, Debug)]
struct VarInfo {
    name: Arc<str>,
    lo: i64,
    hi: i64,
}

/// A finite universe of stores: each declared variable ranges over a
/// bounded integer interval, and the universe is the Cartesian product.
///
/// Stores are indexed in mixed-radix order (last variable varies fastest),
/// so `℘(Σ)` is represented as a [`BitVecSet`] of capacity [`Universe::size`].
///
/// # Example
///
/// ```
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -2, 2), ("y", 0, 1)])?;
/// assert_eq!(u.size(), 10);
/// let evens = u.filter(|s| s[0] % 2 == 0);
/// assert_eq!(evens.len(), 6); // x ∈ {-2, 0, 2}, y ∈ {0, 1}
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Universe {
    /// All universe data sits behind one `Arc`: a universe is immutable
    /// after construction and is cloned into every domain, engine and
    /// warm-cache entry, so `clone()` must be a reference bump, not a
    /// deep copy of the variable table and its `HashMap`.
    inner: Arc<UniverseInner>,
}

#[derive(Debug)]
struct UniverseInner {
    vars: Vec<VarInfo>,
    index: HashMap<Arc<str>, usize>,
    /// Mixed-radix strides: `strides[i]` = product of later ranges.
    strides: Vec<usize>,
    size: usize,
}

impl Universe {
    /// The largest store count a universe may have; guards against
    /// accidental combinatorial explosions.
    pub const MAX_SIZE: usize = 1 << 24;

    /// Declares a universe from `(name, lo, hi)` triples.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate variables, empty ranges, an empty
    /// declaration list, or a universe larger than [`Self::MAX_SIZE`].
    pub fn new(decls: &[(&str, i64, i64)]) -> Result<Universe, UniverseError> {
        if decls.is_empty() {
            return Err(UniverseError::NoVars);
        }
        let mut vars = Vec::with_capacity(decls.len());
        let mut index = HashMap::with_capacity(decls.len());
        let mut size: u128 = 1;
        for &(name, lo, hi) in decls {
            if lo > hi {
                return Err(UniverseError::EmptyRange {
                    var: name.to_owned(),
                    lo,
                    hi,
                });
            }
            let name: Arc<str> = Arc::from(name);
            if index.insert(name.clone(), vars.len()).is_some() {
                return Err(UniverseError::DuplicateVar(name.to_string()));
            }
            size = size.saturating_mul((hi - lo + 1) as u128);
            vars.push(VarInfo { name, lo, hi });
        }
        if size > Self::MAX_SIZE as u128 {
            return Err(UniverseError::TooLarge { size });
        }
        let size = size as usize;
        let mut strides = vec![1usize; vars.len()];
        for i in (0..vars.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * (vars[i + 1].hi - vars[i + 1].lo + 1) as usize;
        }
        Ok(Universe {
            inner: Arc::new(UniverseInner {
                vars,
                index,
                strides,
                size,
            }),
        })
    }

    /// Number of stores in the universe.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.inner.vars.len()
    }

    /// The declared variable names, in declaration order.
    pub fn var_names(&self) -> impl Iterator<Item = &str> {
        self.inner.vars.iter().map(|v| &*v.name)
    }

    /// Index of a variable in store order, if declared.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.inner.index.get(name).copied()
    }

    /// Declared range `[lo, hi]` of the `i`-th variable.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn var_range(&self, i: usize) -> (i64, i64) {
        (self.inner.vars[i].lo, self.inner.vars[i].hi)
    }

    /// Returns `true` if `store` lies inside every declared range.
    pub fn contains_store(&self, store: &[i64]) -> bool {
        store.len() == self.inner.vars.len()
            && self
                .inner
                .vars
                .iter()
                .zip(store)
                .all(|(v, &x)| v.lo <= x && x <= v.hi)
    }

    /// The index of an in-range store, or `None` if it escapes the universe.
    pub fn store_index(&self, store: &[i64]) -> Option<usize> {
        if !self.contains_store(store) {
            return None;
        }
        let mut idx = 0;
        for (i, (v, &x)) in self.inner.vars.iter().zip(store).enumerate() {
            idx += (x - v.lo) as usize * self.inner.strides[i];
        }
        Some(idx)
    }

    /// The store at a given index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= size()`.
    pub fn store_at(&self, idx: usize) -> Store {
        assert!(
            idx < self.inner.size,
            "store index {idx} out of universe size {}",
            self.inner.size
        );
        let mut rem = idx;
        let mut store = Vec::with_capacity(self.inner.vars.len());
        for (i, v) in self.inner.vars.iter().enumerate() {
            let q = rem / self.inner.strides[i];
            rem %= self.inner.strides[i];
            store.push(v.lo + q as i64);
        }
        store
    }

    /// Iterates over all stores, paired with their indices.
    pub fn iter_stores(&self) -> impl Iterator<Item = (usize, Store)> + '_ {
        (0..self.inner.size).map(|i| (i, self.store_at(i)))
    }

    /// The rows of a box: for per-variable bounds `bounds[i] = (lo, hi)`,
    /// yields the inclusive index range `(start, end)` of each run of the
    /// box's stores that agree on every variable but the last. The last
    /// variable varies fastest, so each such run is contiguous; rows come
    /// in ascending index order. A box with some `lo > hi` has no rows.
    /// Set kernels that work a row at a time (see
    /// [`BitVecSet::fill_range`] and its siblings) use this instead of
    /// decoding one store per index.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` has the wrong arity or a non-empty bound leaves
    /// its variable's declared range.
    pub fn rows<'a>(&'a self, bounds: &'a [(i64, i64)]) -> Rows<'a> {
        let vars = &self.inner.vars;
        assert_eq!(bounds.len(), vars.len(), "box arity mismatch");
        let empty = bounds.iter().any(|&(lo, hi)| lo > hi);
        for (v, &(lo, hi)) in vars.iter().zip(bounds) {
            assert!(
                empty || (v.lo <= lo && hi <= v.hi),
                "box bound [{lo}, {hi}] leaves `{}` ∈ [{}, {}]",
                v.name,
                v.lo,
                v.hi
            );
        }
        Rows {
            universe: self,
            bounds,
            prefix: bounds[..bounds.len() - 1].iter().map(|b| b.0).collect(),
            done: empty,
        }
    }

    /// The empty state set `⊥ = ∅`.
    pub fn empty(&self) -> StateSet {
        BitVecSet::new(self.inner.size)
    }

    /// The full state set `⊤ = Σ`.
    pub fn full(&self) -> StateSet {
        BitVecSet::full(self.inner.size)
    }

    /// The set of stores satisfying a predicate.
    pub fn filter(&self, pred: impl Fn(&[i64]) -> bool) -> StateSet {
        let mut set = self.empty();
        for (i, s) in self.iter_stores() {
            if pred(&s) {
                set.insert(i);
            }
        }
        set
    }

    /// Builds a state set from explicit stores.
    ///
    /// # Errors
    ///
    /// Returns the first store that is not in the universe.
    pub fn state_set<'a, I>(&self, stores: I) -> Result<StateSet, Store>
    where
        I: IntoIterator<Item = &'a [i64]>,
    {
        let mut set = self.empty();
        for s in stores {
            match self.store_index(s) {
                Some(i) => {
                    set.insert(i);
                }
                None => return Err(s.to_vec()),
            }
        }
        Ok(set)
    }

    /// A one-variable convenience: the set of stores where the single
    /// declared variable takes one of the given values (values outside the
    /// range are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the universe has more than one variable.
    pub fn of_values<I: IntoIterator<Item = i64>>(&self, values: I) -> StateSet {
        assert_eq!(
            self.inner.vars.len(),
            1,
            "of_values requires a single-variable universe"
        );
        let mut set = self.empty();
        for v in values {
            if let Some(i) = self.store_index(&[v]) {
                set.insert(i);
            }
        }
        set
    }

    /// Renders a store as `x=1, y=2`.
    pub fn display_store(&self, store: &[i64]) -> String {
        self.inner
            .vars
            .iter()
            .zip(store)
            .map(|(v, x)| format!("{}={}", v.name, x))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// The row iterator of a box; see [`Universe::rows`].
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    universe: &'a Universe,
    bounds: &'a [(i64, i64)],
    /// The values of every variable but the last for the next row.
    prefix: Vec<i64>,
    done: bool,
}

impl Iterator for Rows<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.done {
            return None;
        }
        let inner = &self.universe.inner;
        let last = self.bounds.len() - 1;
        let (lo, hi) = self.bounds[last];
        let mut start = (lo - inner.vars[last].lo) as usize;
        for (i, &x) in self.prefix.iter().enumerate() {
            start += (x - inner.vars[i].lo) as usize * inner.strides[i];
        }
        // Advance the prefix odometer; the row just built was the last
        // one when every digit wraps.
        self.done = true;
        for i in (0..last).rev() {
            if self.prefix[i] < self.bounds[i].1 {
                self.prefix[i] += 1;
                self.done = false;
                break;
            }
            self.prefix[i] = self.bounds[i].0;
        }
        Some((start, start + (hi - lo) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_per_store_enumeration() {
        let u = Universe::new(&[("x", -1, 2), ("y", 0, 2), ("z", 3, 7)]).unwrap();
        let bounds = [(0, 2), (1, 1), (4, 6)];
        let rows: Vec<(usize, usize)> = u.rows(&bounds).collect();
        let mut expect: Vec<(usize, usize)> = Vec::new();
        for (i, s) in u.iter_stores() {
            let inside = s
                .iter()
                .zip(&bounds)
                .all(|(&v, &(lo, hi))| lo <= v && v <= hi);
            if !inside {
                continue;
            }
            match expect.last_mut() {
                Some(row) if row.1 + 1 == i && s[2] != bounds[2].0 => row.1 = i,
                _ => expect.push((i, i)),
            }
        }
        assert_eq!(rows, expect);
        assert_eq!(u.rows(&[(0, 2), (2, 1), (4, 6)]).count(), 0, "empty box");
        let one = Universe::new(&[("x", 0, 9)]).unwrap();
        assert_eq!(one.rows(&[(2, 5)]).collect::<Vec<_>>(), vec![(2, 5)]);
    }

    #[test]
    #[should_panic(expected = "leaves")]
    fn rows_reject_out_of_range_boxes() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let _ = u.rows(&[(0, 4)]);
    }

    #[test]
    fn universe_size_and_indexing_roundtrip() {
        let u = Universe::new(&[("x", -3, 3), ("y", 0, 4)]).unwrap();
        assert_eq!(u.size(), 35);
        for (i, s) in u.iter_stores() {
            assert_eq!(u.store_index(&s), Some(i));
            assert!(u.contains_store(&s));
        }
    }

    #[test]
    fn out_of_range_stores_have_no_index() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        assert_eq!(u.store_index(&[4]), None);
        assert_eq!(u.store_index(&[-1]), None);
        assert_eq!(u.store_index(&[0, 0]), None); // wrong arity
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(Universe::new(&[]), Err(UniverseError::NoVars)));
        assert!(matches!(
            Universe::new(&[("x", 2, 1)]),
            Err(UniverseError::EmptyRange { .. })
        ));
        assert!(matches!(
            Universe::new(&[("x", 0, 1), ("x", 0, 1)]),
            Err(UniverseError::DuplicateVar(_))
        ));
        assert!(matches!(
            Universe::new(&[("x", 0, i64::MAX - 1)]),
            Err(UniverseError::TooLarge { .. })
        ));
    }

    #[test]
    fn filter_and_of_values() {
        let u = Universe::new(&[("x", -5, 5)]).unwrap();
        let odds = u.filter(|s| s[0].rem_euclid(2) == 1);
        assert_eq!(odds.len(), 6); // -5, -3, -1, 1, 3, 5
        let odd_vals: Vec<i64> = odds.iter().map(|i| u.store_at(i)[0]).collect();
        assert_eq!(odd_vals, vec![-5, -3, -1, 1, 3, 5]);
        let some = u.of_values([0, 2, 99]);
        assert_eq!(some.len(), 2); // 99 silently out of range
    }

    #[test]
    fn var_metadata() {
        let u = Universe::new(&[("a", 0, 1), ("b", 2, 3)]).unwrap();
        assert_eq!(u.num_vars(), 2);
        assert_eq!(u.var_index("b"), Some(1));
        assert_eq!(u.var_index("c"), None);
        assert_eq!(u.var_range(1), (2, 3));
        assert_eq!(u.var_names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(u.display_store(&[0, 3]), "a=0, b=3");
    }

    #[test]
    fn state_set_from_stores() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        let s = u.state_set([&[1][..], &[3][..]]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(u.state_set([&[9][..]]), Err(vec![9]));
    }

    #[test]
    fn empty_and_full() {
        let u = Universe::new(&[("x", 0, 9)]).unwrap();
        assert!(u.empty().is_empty());
        assert_eq!(u.full().len(), 10);
    }
}
