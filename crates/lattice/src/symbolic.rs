//! Symbolic state sets: canonical interval decision diagrams (IDDs).
//!
//! [`SymState`] represents a set of stores over a fixed mixed-radix
//! [`SymShape`] (one `[lo, hi]` range per variable, most-significant
//! variable first, matching the index order of `air_lang::Universe`).
//! Instead of one bit per store, the set is a decision diagram: each level
//! holds a sorted list of disjoint value segments `(lo, hi, child)`, where
//! adjacent segments with equal children are merged and empty children are
//! never stored. This canonical form makes **structural equality coincide
//! with set equality**, which is what the symbolic engine's fixpoint loops
//! rely on for convergence checks, and keeps common sets (boxes, unions of
//! a few boxes) at a size independent of the universe cardinality — the
//! whole point of the symbolic backend: a `10^6`-store universe costs a
//! handful of segments, not `10^6` bits.
//!
//! The operations come in three groups:
//!
//! - lattice ops: [`union`](SymState::union), [`intersect`](SymState::intersect),
//!   [`difference`](SymState::difference), [`complement`](SymState::complement),
//!   [`is_subset`](SymState::is_subset) — the meet/join/leq/complement surface;
//! - level transforms used by the symbolic transfer functions:
//!   [`restrict`](SymState::restrict), [`cylindrify`](SymState::cylindrify),
//!   [`assign_value`](SymState::assign_value), [`fiber`](SymState::fiber),
//!   [`shift`](SymState::shift), [`meet_over_level`](SymState::meet_over_level);
//! - explicit-form bridges for the differential oracle:
//!   [`from_bitset`](SymState::from_bitset) / [`to_bitset`](SymState::to_bitset)
//!   and index enumeration ([`for_each_index`](SymState::for_each_index),
//!   [`min_index`](SymState::min_index)).

use crate::bitset::BitVecSet;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The mixed-radix shape of a universe: one inclusive `[lo, hi]` range per
/// level, most-significant level first (level `0` has the largest stride,
/// the last level has stride `1`), matching `Universe` store indexing.
#[derive(Clone, Debug)]
pub struct SymShape {
    inner: Arc<ShapeInner>,
}

#[derive(Debug)]
struct ShapeInner {
    ranges: Vec<(i64, i64)>,
    /// `strides[i]` = product of the spans of all levels below `i`.
    strides: Vec<u128>,
    size: u128,
}

impl SymShape {
    /// Builds a shape from per-level inclusive ranges.
    ///
    /// # Panics
    ///
    /// Panics if any range has `lo > hi`.
    pub fn new(ranges: &[(i64, i64)]) -> Self {
        for &(lo, hi) in ranges {
            assert!(lo <= hi, "SymShape range has lo {lo} > hi {hi}");
        }
        let mut strides = vec![1u128; ranges.len()];
        let mut size = 1u128;
        for i in (0..ranges.len()).rev() {
            strides[i] = size;
            size *= span(ranges[i]);
        }
        SymShape {
            inner: Arc::new(ShapeInner {
                ranges: ranges.to_vec(),
                strides,
                size,
            }),
        }
    }

    /// Number of levels (variables).
    pub fn levels(&self) -> usize {
        self.inner.ranges.len()
    }

    /// The inclusive range of level `i`.
    pub fn range(&self, i: usize) -> (i64, i64) {
        self.inner.ranges[i]
    }

    /// Total number of stores described by the shape.
    pub fn size(&self) -> u128 {
        self.inner.size
    }

    fn stride(&self, i: usize) -> u128 {
        self.inner.strides[i]
    }
}

impl PartialEq for SymShape {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.ranges == other.inner.ranges
    }
}

impl Eq for SymShape {}

fn span((lo, hi): (i64, i64)) -> u128 {
    (hi as i128 - lo as i128 + 1) as u128
}

/// A child pointer in the diagram: `Leaf` below the last level, otherwise a
/// shared interior node.
#[derive(Clone, Debug)]
enum Child {
    Leaf,
    Node(Arc<Node>),
}

/// An interior node: sorted, disjoint, maximally-merged value segments.
#[derive(Debug)]
struct Node {
    segs: Vec<(i64, i64, Child)>,
}

impl PartialEq for Child {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Child::Leaf, Child::Leaf) => true,
            (Child::Node(a), Child::Node(b)) => {
                Arc::ptr_eq(a, b)
                    || (a.segs.len() == b.segs.len()
                        && a.segs
                            .iter()
                            .zip(&b.segs)
                            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2 == y.2))
            }
            _ => false,
        }
    }
}

impl Eq for Child {}

impl Hash for Child {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Child::Leaf => state.write_u8(0),
            Child::Node(n) => {
                state.write_u8(1);
                state.write_usize(n.segs.len());
                for (a, b, c) in &n.segs {
                    a.hash(state);
                    b.hash(state);
                    c.hash(state);
                }
            }
        }
    }
}

/// A symbolic set of stores over a [`SymShape`].
///
/// Canonical: structural equality is set equality. Cloning is `O(1)`
/// (interior nodes are `Arc`-shared).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SymState {
    shape: SymShape,
    /// `None` is the empty set.
    root: Option<Child>,
}

impl Hash for SymState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.root.hash(state);
    }
}

/// Pushes a segment onto a canonical segment list, merging with the previous
/// segment when contiguous with an equal child.
fn push_seg(out: &mut Vec<(i64, i64, Child)>, lo: i64, hi: i64, child: Child) {
    if let Some(last) = out.last_mut() {
        if last.1.checked_add(1) == Some(lo) && last.2 == child {
            last.1 = hi;
            return;
        }
    }
    out.push((lo, hi, child));
}

fn mk(segs: Vec<(i64, i64, Child)>) -> Option<Child> {
    if segs.is_empty() {
        None
    } else {
        Some(Child::Node(Arc::new(Node { segs })))
    }
}

fn union_child(x: &Child, y: &Child) -> Child {
    if x == y {
        return x.clone();
    }
    match (x, y) {
        (Child::Leaf, _) | (_, Child::Leaf) => Child::Leaf,
        (Child::Node(a), Child::Node(b)) => {
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            let mut xf = a.segs.first().map(|s| (s.0, s.1));
            let mut yf = b.segs.first().map(|s| (s.0, s.1));
            loop {
                match (xf, yf) {
                    (None, None) => break,
                    (Some((lo, hi)), None) => {
                        push_seg(&mut out, lo, hi, a.segs[i].2.clone());
                        i += 1;
                        xf = a.segs.get(i).map(|s| (s.0, s.1));
                    }
                    (None, Some((lo, hi))) => {
                        push_seg(&mut out, lo, hi, b.segs[j].2.clone());
                        j += 1;
                        yf = b.segs.get(j).map(|s| (s.0, s.1));
                    }
                    (Some((xa, xb)), Some((ya, yb))) => {
                        if xb < ya {
                            push_seg(&mut out, xa, xb, a.segs[i].2.clone());
                            i += 1;
                            xf = a.segs.get(i).map(|s| (s.0, s.1));
                        } else if yb < xa {
                            push_seg(&mut out, ya, yb, b.segs[j].2.clone());
                            j += 1;
                            yf = b.segs.get(j).map(|s| (s.0, s.1));
                        } else if xa < ya {
                            push_seg(&mut out, xa, ya - 1, a.segs[i].2.clone());
                            xf = Some((ya, xb));
                        } else if ya < xa {
                            push_seg(&mut out, ya, xa - 1, b.segs[j].2.clone());
                            yf = Some((xa, yb));
                        } else {
                            let end = xb.min(yb);
                            push_seg(&mut out, xa, end, union_child(&a.segs[i].2, &b.segs[j].2));
                            if end < xb {
                                xf = Some((end + 1, xb));
                            } else {
                                i += 1;
                                xf = a.segs.get(i).map(|s| (s.0, s.1));
                            }
                            if end < yb {
                                yf = Some((end + 1, yb));
                            } else {
                                j += 1;
                                yf = b.segs.get(j).map(|s| (s.0, s.1));
                            }
                        }
                    }
                }
            }
            Child::Node(Arc::new(Node { segs: out }))
        }
    }
}

fn intersect_child(x: &Child, y: &Child) -> Option<Child> {
    if x == y {
        return Some(x.clone());
    }
    match (x, y) {
        (Child::Leaf, _) | (_, Child::Leaf) => Some(Child::Leaf),
        (Child::Node(a), Child::Node(b)) => {
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.segs.len() && j < b.segs.len() {
                let (xa, xb, ref xc) = a.segs[i];
                let (ya, yb, ref yc) = b.segs[j];
                if xb < ya {
                    i += 1;
                } else if yb < xa {
                    j += 1;
                } else {
                    let lo = xa.max(ya);
                    let hi = xb.min(yb);
                    if let Some(c) = intersect_child(xc, yc) {
                        push_seg(&mut out, lo, hi, c);
                    }
                    if xb <= yb {
                        i += 1;
                    }
                    if yb <= xb {
                        j += 1;
                    }
                }
            }
            mk(out)
        }
    }
}

fn difference_child(x: &Child, y: &Child) -> Option<Child> {
    if x == y {
        return None;
    }
    match (x, y) {
        (Child::Leaf, Child::Leaf) => None,
        (Child::Node(a), Child::Node(b)) => {
            let mut out = Vec::new();
            let mut j = 0usize;
            for seg in &a.segs {
                let (mut xa, xb, ref xc) = *seg;
                while xa <= xb {
                    while j < b.segs.len() && b.segs[j].1 < xa {
                        j += 1;
                    }
                    match b.segs.get(j) {
                        None => {
                            push_seg(&mut out, xa, xb, xc.clone());
                            break;
                        }
                        Some(&(ya, yb, ref yc)) => {
                            if xb < ya {
                                push_seg(&mut out, xa, xb, xc.clone());
                                break;
                            }
                            if xa < ya {
                                push_seg(&mut out, xa, ya - 1, xc.clone());
                                xa = ya;
                            }
                            let end = xb.min(yb);
                            if let Some(c) = difference_child(xc, yc) {
                                push_seg(&mut out, xa, end, c);
                            }
                            if end == i64::MAX {
                                break;
                            }
                            xa = end + 1;
                        }
                    }
                }
            }
            mk(out)
        }
        // Mixed Leaf/Node at equal depth cannot happen on well-formed inputs.
        _ => None,
    }
}

fn subset_child(x: &Child, y: &Child) -> bool {
    if x == y {
        return true;
    }
    match (x, y) {
        (Child::Leaf, Child::Leaf) => true,
        (Child::Node(a), Child::Node(b)) => {
            let mut j = 0usize;
            for &(xa, xb, ref xc) in &a.segs {
                let mut pos = xa;
                while pos <= xb {
                    while j < b.segs.len() && b.segs[j].1 < pos {
                        j += 1;
                    }
                    let Some(&(ya, yb, ref yc)) = b.segs.get(j) else {
                        return false;
                    };
                    if ya > pos {
                        return false;
                    }
                    if !subset_child(xc, yc) {
                        return false;
                    }
                    if yb >= xb || yb == i64::MAX {
                        break;
                    }
                    pos = yb + 1;
                }
            }
            true
        }
        _ => false,
    }
}

fn count_child(child: &Child) -> u128 {
    match child {
        Child::Leaf => 1,
        Child::Node(n) => n
            .segs
            .iter()
            .map(|&(a, b, ref c)| span((a, b)) * count_child(c))
            .sum(),
    }
}

impl SymState {
    /// The empty set over `shape`.
    pub fn empty(shape: &SymShape) -> Self {
        SymState {
            shape: shape.clone(),
            root: None,
        }
    }

    /// The full set (every store of the shape).
    pub fn full(shape: &SymShape) -> Self {
        let ranges: Vec<(i64, i64)> = (0..shape.levels()).map(|i| shape.range(i)).collect();
        SymState::from_box(shape, &ranges)
    }

    /// The product box `b`, clamped to the shape's ranges; empty if any
    /// clamped component is empty. `bx` must have one entry per level.
    pub fn from_box(shape: &SymShape, bx: &[(i64, i64)]) -> Self {
        debug_assert_eq!(bx.len(), shape.levels());
        let mut child = Child::Leaf;
        for i in (0..shape.levels()).rev() {
            let (rlo, rhi) = shape.range(i);
            let lo = bx[i].0.max(rlo);
            let hi = bx[i].1.min(rhi);
            if lo > hi {
                return SymState::empty(shape);
            }
            child = Child::Node(Arc::new(Node {
                segs: vec![(lo, hi, child)],
            }));
        }
        SymState {
            shape: shape.clone(),
            root: Some(child),
        }
    }

    /// The shape this set ranges over.
    pub fn shape(&self) -> &SymShape {
        &self.shape
    }

    /// True iff the set has no stores.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// True iff the set contains every store of the shape.
    pub fn is_full(&self) -> bool {
        self.count() == self.shape.size()
    }

    /// Number of stores in the set.
    pub fn count(&self) -> u128 {
        self.root.as_ref().map_or(0, count_child)
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        debug_assert_eq!(self.shape, other.shape);
        let root = match (&self.root, &other.root) {
            (None, r) | (r, None) => r.clone(),
            (Some(a), Some(b)) => Some(union_child(a, b)),
        };
        SymState {
            shape: self.shape.clone(),
            root,
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &Self) -> Self {
        debug_assert_eq!(self.shape, other.shape);
        let root = match (&self.root, &other.root) {
            (Some(a), Some(b)) => intersect_child(a, b),
            _ => None,
        };
        SymState {
            shape: self.shape.clone(),
            root,
        }
    }

    /// Set difference `self ∖ other`.
    pub fn difference(&self, other: &Self) -> Self {
        debug_assert_eq!(self.shape, other.shape);
        let root = match (&self.root, &other.root) {
            (None, _) => None,
            (r @ Some(_), None) => r.clone(),
            (Some(a), Some(b)) => difference_child(a, b),
        };
        SymState {
            shape: self.shape.clone(),
            root,
        }
    }

    /// Set complement relative to the full shape.
    pub fn complement(&self) -> Self {
        SymState::full(&self.shape).difference(self)
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        debug_assert_eq!(self.shape, other.shape);
        match (&self.root, &other.root) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => subset_child(a, b),
        }
    }

    /// True iff the set contains the store with the given per-level values.
    pub fn contains(&self, values: &[i64]) -> bool {
        debug_assert_eq!(values.len(), self.shape.levels());
        let mut cur = match &self.root {
            None => return false,
            Some(c) => c.clone(),
        };
        for &v in values {
            let Child::Node(n) = cur else {
                return false;
            };
            match n.segs.iter().find(|&&(a, b, _)| a <= v && v <= b) {
                Some((_, _, c)) => cur = c.clone(),
                None => return false,
            }
        }
        true
    }

    /// The per-level bounding box `[min, max]` of the members, or `None`
    /// for the empty set. This is exactly the interval-domain closure
    /// `γ(α(·))` of the set.
    pub fn hull(&self) -> Option<Vec<(i64, i64)>> {
        let root = self.root.as_ref()?;
        let levels = self.shape.levels();
        let mut out = vec![(i64::MAX, i64::MIN); levels];
        let mut seen: HashSet<(usize, *const Node)> = HashSet::new();
        fn walk(
            child: &Child,
            depth: usize,
            out: &mut [(i64, i64)],
            seen: &mut HashSet<(usize, *const Node)>,
        ) {
            if let Child::Node(n) = child {
                if !seen.insert((depth, Arc::as_ptr(n))) {
                    return;
                }
                for &(a, b, ref c) in &n.segs {
                    out[depth].0 = out[depth].0.min(a);
                    out[depth].1 = out[depth].1.max(b);
                    walk(c, depth + 1, out, seen);
                }
            }
        }
        walk(root, 0, &mut out, &mut seen);
        Some(out)
    }

    /// Keeps only stores whose value at `level` lies in `[lo, hi]`.
    pub fn restrict(&self, level: usize, lo: i64, hi: i64) -> Self {
        self.map_at(level, |n| {
            let mut out = Vec::new();
            for &(a, b, ref c) in &n.segs {
                let s = a.max(lo);
                let e = b.min(hi);
                if s <= e {
                    push_seg(&mut out, s, e, c.clone());
                }
            }
            mk(out)
        })
    }

    /// Projects out `level`: `{σ[x := v] | σ ∈ self, v ∈ range(level)}`.
    pub fn cylindrify(&self, level: usize) -> Self {
        let (rlo, rhi) = self.shape.range(level);
        self.map_at(level, |n| {
            let mut acc: Option<Child> = None;
            for (_, _, c) in &n.segs {
                acc = Some(match acc {
                    None => c.clone(),
                    Some(a) => union_child(&a, c),
                });
            }
            acc.map(|c| {
                Child::Node(Arc::new(Node {
                    segs: vec![(rlo, rhi, c)],
                }))
            })
        })
    }

    /// The image of assigning the constant `v` at `level`:
    /// `{σ[x := v] | σ ∈ self}`. Returns the empty set if `v` is outside
    /// the level's range.
    pub fn assign_value(&self, level: usize, v: i64) -> Self {
        let (rlo, rhi) = self.shape.range(level);
        if v < rlo || v > rhi {
            return SymState::empty(&self.shape);
        }
        self.map_at(level, |n| {
            let mut acc: Option<Child> = None;
            for (_, _, c) in &n.segs {
                acc = Some(match acc {
                    None => c.clone(),
                    Some(a) => union_child(&a, c),
                });
            }
            acc.map(|c| {
                Child::Node(Arc::new(Node {
                    segs: vec![(v, v, c)],
                }))
            })
        })
    }

    /// The preimage of assigning `v` at `level`:
    /// `{σ | σ[x := v] ∈ self}` — the fiber of the set over `x = v`,
    /// cylindrified at `x`. Empty if `v` is outside the level's range.
    pub fn fiber(&self, level: usize, v: i64) -> Self {
        let (rlo, rhi) = self.shape.range(level);
        if v < rlo || v > rhi {
            return SymState::empty(&self.shape);
        }
        self.map_at(level, |n| {
            n.segs
                .iter()
                .find(|&&(a, b, _)| a <= v && v <= b)
                .map(|(_, _, c)| {
                    Child::Node(Arc::new(Node {
                        segs: vec![(rlo, rhi, c.clone())],
                    }))
                })
        })
    }

    /// Shifts the value at `level` by `delta`, dropping stores whose
    /// shifted value leaves the level's range:
    /// `{σ[x := σ(x)+δ] | σ ∈ self, σ(x)+δ ∈ range(level)}`.
    pub fn shift(&self, level: usize, delta: i64) -> Self {
        let (rlo, rhi) = self.shape.range(level);
        self.map_at(level, |n| {
            let mut out = Vec::new();
            for &(a, b, ref c) in &n.segs {
                let s = (a as i128 + delta as i128).max(rlo as i128);
                let e = (b as i128 + delta as i128).min(rhi as i128);
                if s <= e {
                    push_seg(&mut out, s as i64, e as i64, c.clone());
                }
            }
            mk(out)
        })
    }

    /// `{σ | ∀ v ∈ range(level). σ[x := v] ∈ self}` — the universal
    /// projection at `level` (the weakest precondition of `havoc x`).
    pub fn meet_over_level(&self, level: usize) -> Self {
        let (rlo, rhi) = self.shape.range(level);
        self.map_at(level, |n| {
            // Every value of the range must be covered, and the result
            // child is the meet of all children.
            let mut next = rlo;
            let mut covered = false;
            let mut acc: Option<Child> = None;
            for &(a, b, ref c) in &n.segs {
                if a > next {
                    return None;
                }
                acc = Some(match acc {
                    None => c.clone(),
                    Some(prev) => intersect_child(&prev, c)?,
                });
                if b >= rhi {
                    covered = true;
                    break;
                }
                next = b + 1;
            }
            if !covered {
                return None;
            }
            acc.map(|c| {
                Child::Node(Arc::new(Node {
                    segs: vec![(rlo, rhi, c)],
                }))
            })
        })
    }

    /// Applies `f` to the node at `level`, rebuilding (and re-merging)
    /// every level above it.
    fn map_at(&self, level: usize, f: impl Fn(&Node) -> Option<Child>) -> Self {
        debug_assert!(level < self.shape.levels());
        fn go(
            child: &Child,
            depth: usize,
            target: usize,
            f: &impl Fn(&Node) -> Option<Child>,
        ) -> Option<Child> {
            let Child::Node(n) = child else {
                debug_assert!(false, "map_at descended past the leaf level");
                return None;
            };
            if depth == target {
                return f(n);
            }
            let mut out = Vec::new();
            for &(a, b, ref c) in &n.segs {
                if let Some(nc) = go(c, depth + 1, target, f) {
                    push_seg(&mut out, a, b, nc);
                }
            }
            mk(out)
        }
        let root = self.root.as_ref().and_then(|r| go(r, 0, level, &f));
        SymState {
            shape: self.shape.clone(),
            root,
        }
    }

    /// The smallest store index in the set, or `None` if empty.
    pub fn min_index(&self) -> Option<u128> {
        let mut cur = self.root.as_ref()?;
        let mut idx = 0u128;
        for level in 0..self.shape.levels() {
            let Child::Node(n) = cur else {
                return None;
            };
            let &(a, _, ref c) = n.segs.first()?;
            let (rlo, _) = self.shape.range(level);
            idx += (a as i128 - rlo as i128) as u128 * self.shape.stride(level);
            cur = c;
        }
        Some(idx)
    }

    /// Calls `f` with every member index in ascending order.
    pub fn for_each_index(&self, mut f: impl FnMut(u128)) {
        fn go(shape: &SymShape, child: &Child, depth: usize, base: u128, f: &mut impl FnMut(u128)) {
            match child {
                Child::Leaf => f(base),
                Child::Node(n) => {
                    let (rlo, _) = shape.range(depth);
                    let stride = shape.stride(depth);
                    for &(a, b, ref c) in &n.segs {
                        for v in a..=b {
                            let off = (v as i128 - rlo as i128) as u128 * stride;
                            go(shape, c, depth + 1, base + off, f);
                            if v == i64::MAX {
                                break;
                            }
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            go(&self.shape, root, 0, 0, &mut f);
        }
    }

    /// All member indices, ascending. Intended for tests and small sets.
    pub fn indices(&self) -> Vec<u128> {
        let mut out = Vec::new();
        self.for_each_index(|i| out.push(i));
        out
    }

    /// The member store at the set's minimum index, as per-level values.
    pub fn min_values(&self) -> Option<Vec<i64>> {
        let mut cur = self.root.as_ref()?;
        let mut out = Vec::with_capacity(self.shape.levels());
        for _ in 0..self.shape.levels() {
            let Child::Node(n) = cur else {
                return None;
            };
            let &(a, _, ref c) = n.segs.first()?;
            out.push(a);
            cur = c;
        }
        Some(out)
    }

    /// Builds a symbolic set from an explicit bitset over the same shape
    /// (bit `i` set ⇔ store with index `i` is a member). The bitset's
    /// capacity must equal the shape's size.
    ///
    /// Works a row at a time: each row of the last level becomes the leaf
    /// segments of its runs of members, found with the bitset's range
    /// kernels; empty blocks are skipped whole.
    pub fn from_bitset(shape: &SymShape, set: &BitVecSet) -> Self {
        debug_assert_eq!(set.capacity() as u128, shape.size());
        SymState {
            shape: shape.clone(),
            root: build_from_bitset(shape, set, 0, 0),
        }
    }

    /// Materializes the set as an explicit bitset. Only valid when the
    /// shape's size fits in `usize`. Each leaf segment is filled as one
    /// index range.
    pub fn to_bitset(&self) -> BitVecSet {
        fn go(shape: &SymShape, child: &Child, depth: usize, base: usize, out: &mut BitVecSet) {
            let Child::Node(n) = child else {
                out.insert(base); // a zero-level shape's single store
                return;
            };
            let (rlo, _) = shape.range(depth);
            let stride = shape.stride(depth) as usize;
            let offset = |v: i64| base + (v as i128 - rlo as i128) as usize * stride;
            for &(a, b, ref c) in &n.segs {
                if depth + 1 == shape.levels() {
                    out.fill_range(offset(a), offset(b));
                } else {
                    for v in a..=b {
                        go(shape, c, depth + 1, offset(v), out);
                    }
                }
            }
        }
        let nbits = usize::try_from(self.shape.size()).unwrap_or(usize::MAX);
        let mut out = BitVecSet::new(nbits);
        if let Some(root) = &self.root {
            go(&self.shape, root, 0, 0, &mut out);
        }
        out
    }
}

/// The diagram of `set`'s members in the block of indices that starts at
/// `base` and spans levels `level..` of the shape.
fn build_from_bitset(
    shape: &SymShape,
    set: &BitVecSet,
    level: usize,
    base: usize,
) -> Option<Child> {
    if level == shape.levels() {
        return set.contains(base).then_some(Child::Leaf);
    }
    let (rlo, rhi) = shape.range(level);
    let stride = shape.stride(level) as usize;
    let span = span((rlo, rhi)) as usize;
    let end = base + span * stride - 1;
    if !set.any_in_range(base, end) {
        return None;
    }
    let value = |i: usize| (rlo as i128 + ((i - base) / stride) as i128) as i64;
    let mut out = Vec::new();
    if level + 1 == shape.levels() {
        out.extend(
            set.runs_in(base, end)
                .map(|(a, b)| (value(a), value(b), Child::Leaf)),
        );
    } else {
        for d in 0..span {
            if let Some(child) = build_from_bitset(shape, set, level + 1, base + d * stride) {
                let v = value(base + d * stride);
                push_seg(&mut out, v, v, child);
            }
        }
    }
    mk(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> SymShape {
        SymShape::new(&[(-2, 2), (0, 3)])
    }

    fn naive(s: &SymState) -> Vec<u128> {
        s.indices()
    }

    #[test]
    fn shape_strides_match_mixed_radix() {
        let sh = shape();
        assert_eq!(sh.size(), 20);
        assert_eq!(sh.stride(0), 4);
        assert_eq!(sh.stride(1), 1);
    }

    #[test]
    fn empty_and_full() {
        let sh = shape();
        let e = SymState::empty(&sh);
        let f = SymState::full(&sh);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        assert!(f.is_full());
        assert_eq!(f.count(), 20);
        assert_eq!(naive(&f), (0..20).collect::<Vec<u128>>());
        assert_eq!(e.complement(), f);
        assert_eq!(f.complement(), e);
    }

    #[test]
    fn box_and_contains() {
        let sh = shape();
        let b = SymState::from_box(&sh, &[(0, 1), (1, 2)]);
        assert_eq!(b.count(), 4);
        assert!(b.contains(&[0, 1]));
        assert!(b.contains(&[1, 2]));
        assert!(!b.contains(&[-1, 1]));
        assert!(!b.contains(&[0, 3]));
        assert_eq!(b.hull(), Some(vec![(0, 1), (1, 2)]));
    }

    #[test]
    fn set_ops_match_naive_model() {
        let sh = shape();
        let a = SymState::from_box(&sh, &[(-1, 1), (0, 2)]);
        let b = SymState::from_box(&sh, &[(0, 2), (1, 3)]);
        let union: Vec<u128> = {
            let mut v = naive(&a);
            v.extend(naive(&b));
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(naive(&a.union(&b)), union);
        let inter: Vec<u128> = naive(&a)
            .into_iter()
            .filter(|i| naive(&b).contains(i))
            .collect();
        assert_eq!(naive(&a.intersect(&b)), inter);
        let diff: Vec<u128> = naive(&a)
            .into_iter()
            .filter(|i| !naive(&b).contains(i))
            .collect();
        assert_eq!(naive(&a.difference(&b)), diff);
        assert!(a.intersect(&b).is_subset(&a));
        assert!(a.intersect(&b).is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn canonical_equality_is_set_equality() {
        let sh = shape();
        let left = SymState::from_box(&sh, &[(-2, 0), (0, 3)]);
        let right = SymState::from_box(&sh, &[(1, 2), (0, 3)]);
        let glued = left.union(&right);
        assert_eq!(glued, SymState::full(&sh));
        let a = SymState::from_box(&sh, &[(0, 1), (1, 1)]);
        let b = SymState::from_box(&sh, &[(0, 1), (2, 2)]);
        let c = SymState::from_box(&sh, &[(0, 1), (1, 2)]);
        assert_eq!(a.union(&b), c);
    }

    #[test]
    fn level_ops() {
        let sh = shape();
        let b = SymState::from_box(&sh, &[(0, 1), (1, 2)]);
        // restrict
        assert_eq!(
            b.restrict(0, 1, 2),
            SymState::from_box(&sh, &[(1, 1), (1, 2)])
        );
        assert_eq!(
            b.restrict(1, 2, 3),
            SymState::from_box(&sh, &[(0, 1), (2, 2)])
        );
        // cylindrify
        assert_eq!(b.cylindrify(0), SymState::from_box(&sh, &[(-2, 2), (1, 2)]));
        // assign_value
        assert_eq!(
            b.assign_value(1, 0),
            SymState::from_box(&sh, &[(0, 1), (0, 0)])
        );
        assert!(b.assign_value(1, 9).is_empty());
        // fiber: {σ | σ[y:=2] ∈ b} = x∈[0,1], any y
        assert_eq!(b.fiber(1, 2), SymState::from_box(&sh, &[(0, 1), (0, 3)]));
        assert!(b.fiber(1, 3).is_empty());
        // shift y by +2: y∈[1,2] -> y∈[3,4] clamped to [3,3]
        assert_eq!(b.shift(1, 2), SymState::from_box(&sh, &[(0, 1), (3, 3)]));
        // meet_over_level: only stores where EVERY y value is present
        let tall = SymState::from_box(&sh, &[(0, 0), (0, 3)]);
        let partial = SymState::from_box(&sh, &[(1, 1), (0, 2)]);
        let both = tall.union(&partial);
        assert_eq!(
            both.meet_over_level(1),
            SymState::from_box(&sh, &[(0, 0), (0, 3)])
        );
    }

    #[test]
    fn meet_over_level_intersects_children() {
        let sh = SymShape::new(&[(0, 1), (0, 4)]);
        // x=0 present for y in [0,4]; y-child differs per y? Build with
        // third level to exercise child meets.
        let sh3 = SymShape::new(&[(0, 2), (0, 1), (0, 4)]);
        let a = SymState::from_box(&sh3, &[(0, 1), (0, 0), (0, 4)]);
        let b = SymState::from_box(&sh3, &[(1, 2), (1, 1), (0, 4)]);
        let u = a.union(&b);
        // ∀v at level 1: only x=1 has both children, meet of z-children is [0,4]
        assert_eq!(
            u.meet_over_level(1),
            SymState::from_box(&sh3, &[(1, 1), (0, 1), (0, 4)])
        );
        let _ = sh;
    }

    #[test]
    fn bitset_round_trip() {
        let sh = shape();
        let bits = BitVecSet::from_indices(20, [0, 1, 5, 6, 7, 13, 19]);
        let sym = SymState::from_bitset(&sh, &bits);
        assert_eq!(sym.count(), 7);
        assert_eq!(sym.to_bitset(), bits);
        assert_eq!(naive(&sym), vec![0u128, 1, 5, 6, 7, 13, 19]);
        assert_eq!(sym.min_index(), Some(0));
        assert_eq!(sym.min_values(), Some(vec![-2, 0]));
    }

    #[test]
    fn min_index_and_values() {
        let sh = shape();
        let b = SymState::from_box(&sh, &[(1, 2), (2, 3)]);
        // index of (1,2): (1-(-2))*4 + (2-0)*1 = 14
        assert_eq!(b.min_index(), Some(14));
        assert_eq!(b.min_values(), Some(vec![1, 2]));
    }

    #[test]
    fn complement_difference_laws() {
        let sh = shape();
        let a = SymState::from_box(&sh, &[(-1, 1), (1, 2)]);
        assert_eq!(a.complement().complement(), a);
        assert!(a.intersect(&a.complement()).is_empty());
        assert_eq!(a.union(&a.complement()), SymState::full(&sh));
    }

    #[test]
    fn single_level_shape() {
        let sh = SymShape::new(&[(0, 9)]);
        let a = SymState::from_box(&sh, &[(2, 5)]);
        assert_eq!(a.count(), 4);
        assert_eq!(naive(&a), vec![2u128, 3, 4, 5]);
        assert_eq!(a.shift(0, 7), SymState::from_box(&sh, &[(9, 9)]));
        assert_eq!(a.cylindrify(0), SymState::full(&sh));
    }

    #[test]
    fn zero_level_shape() {
        let sh = SymShape::new(&[]);
        assert_eq!(sh.size(), 1);
        let f = SymState::full(&sh);
        let e = SymState::empty(&sh);
        assert!(f.is_full());
        assert_eq!(f.count(), 1);
        assert_eq!(f.complement(), e);
        assert_eq!(naive(&f), vec![0u128]);
    }
}
