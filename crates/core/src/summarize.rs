//! Rendering state sets as unions of interval boxes.
//!
//! Repaired abstract elements are plain state sets; to present them like
//! the paper's symbolic points (`P̄ = i ∈ [1,6] ∧ j ∈ [0, T_{i-1}]`,
//! `V̄ = (i ∈ [1,5] ∧ j ∈ [0,∞]) ∨ (i = 6 ∧ j ∈ [0,15])`, …), this module
//! greedily covers a set with maximal axis-aligned boxes and pretty-prints
//! the disjunction. The cover is exact (its union is the set), not
//! necessarily minimal.

use air_lang::{StateSet, Universe};

/// One axis-aligned box: a closed interval per variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxSummary {
    /// Per-variable `[lo, hi]` bounds, in universe variable order.
    pub bounds: Vec<(i64, i64)>,
}

impl BoxSummary {
    /// Renders against the universe's variable names, eliding variables
    /// that span their full declared range.
    pub fn display(&self, universe: &Universe) -> String {
        let parts: Vec<String> = universe
            .var_names()
            .enumerate()
            .filter_map(|(i, name)| {
                let (lo, hi) = self.bounds[i];
                let (ulo, uhi) = universe.var_range(i);
                if (lo, hi) == (ulo, uhi) {
                    None // unconstrained
                } else if lo == hi {
                    Some(format!("{name} = {lo}"))
                } else {
                    Some(format!("{name} ∈ [{lo}, {hi}]"))
                }
            })
            .collect();
        if parts.is_empty() {
            "⊤".to_owned()
        } else {
            parts.join(" ∧ ")
        }
    }

    /// Membership test for the box.
    pub fn contains(&self, store: &[i64]) -> bool {
        self.bounds
            .iter()
            .zip(store)
            .all(|(&(lo, hi), &v)| lo <= v && v <= hi)
    }
}

/// Greedily covers `set` with maximal boxes: repeatedly grow a box from
/// the smallest uncovered store, expanding one dimension at a time as far
/// as the set allows.
///
/// The work runs on rows (see [`Universe::rows`]): a slab check is one
/// all-set range check per row, covering a box clears its rows, the seed
/// search resumes from the previous seed, and growth along the last
/// variable reads each row once — the nearest non-member above and below
/// the box in every row bounds the growth exactly where a slab-by-slab
/// walk would stop.
///
/// # Example
///
/// ```
/// use air_core::summarize;
/// use air_lang::Universe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = Universe::new(&[("x", -4, 4)])?;
/// let z_nonzero = u.filter(|s| s[0] != 0);
/// let boxes = summarize(&u, &z_nonzero);
/// assert_eq!(boxes.len(), 2); // [-4,-1] ∪ [1,4]
/// # Ok(())
/// # }
/// ```
pub fn summarize(universe: &Universe, set: &StateSet) -> Vec<BoxSummary> {
    let last = universe.num_vars() - 1;
    let top = set.capacity() - 1;
    let mut remaining = set.clone();
    let mut boxes = Vec::new();
    // Covering only removes stores, so the smallest uncovered index never
    // decreases: each seed search resumes where the previous one stopped.
    let mut cursor = 0;
    while let Some(seed_idx) = remaining.first_set_in(cursor, top) {
        cursor = seed_idx;
        let seed = universe.store_at(seed_idx);
        let mut bounds: Vec<(i64, i64)> = seed.iter().map(|&v| (v, v)).collect();
        // Expand each dimension upward and downward while the whole grown
        // box stays inside the *original* set (maximality w.r.t. the set,
        // not the remainder, gives nicer overlapping covers).
        let mut changed = true;
        while changed {
            changed = false;
            for d in 0..bounds.len() {
                let before = bounds[d];
                if d == last {
                    bounds[d] = grow_last(universe, set, &bounds);
                } else {
                    let (ulo, uhi) = universe.var_range(d);
                    while bounds[d].1 < uhi
                        && slab_inside(universe, set, &bounds, d, bounds[d].1 + 1)
                    {
                        bounds[d].1 += 1;
                    }
                    while bounds[d].0 > ulo
                        && slab_inside(universe, set, &bounds, d, bounds[d].0 - 1)
                    {
                        bounds[d].0 -= 1;
                    }
                }
                changed |= bounds[d] != before;
            }
        }
        for (a, b) in universe.rows(&bounds) {
            remaining.clear_range(a, b);
        }
        boxes.push(BoxSummary { bounds });
    }
    boxes
}

/// Checks that the slab `bounds` with dimension `d` pinned to `v` lies
/// inside `set`, one all-set check per row.
fn slab_inside(
    universe: &Universe,
    set: &StateSet,
    bounds: &[(i64, i64)],
    d: usize,
    v: i64,
) -> bool {
    let mut slab = bounds.to_vec();
    slab[d] = (v, v);
    universe.rows(&slab).all(|(a, b)| set.all_in_range(a, b))
}

/// The last variable's bounds once grown as far as `set` allows: up to
/// just below the nearest non-member above the box over all rows, and
/// down to just above the nearest non-member below it. These are the
/// bounds a slab-by-slab walk reaches, since growing the last variable
/// leaves the rows themselves unchanged.
fn grow_last(universe: &Universe, set: &StateSet, bounds: &[(i64, i64)]) -> (i64, i64) {
    let last = bounds.len() - 1;
    let (ulo, uhi) = universe.var_range(last);
    let (lo, hi) = bounds[last];
    let (mut new_lo, mut new_hi) = (ulo, uhi);
    for (start, _) in universe.rows(bounds) {
        // Index of the store with the last variable at `x` in this row.
        let at = |x: i64| (start as i64 + (x - lo)) as usize;
        if new_hi > hi {
            if let Some(c) = set.first_clear_in(at(hi + 1), at(new_hi)) {
                new_hi = hi + (c - at(hi)) as i64 - 1;
            }
        }
        if new_lo < lo {
            if let Some(c) = set.last_clear_in(at(new_lo), at(lo - 1)) {
                new_lo = lo - (at(lo) - c) as i64 + 1;
            }
        }
        if new_hi == hi && new_lo == lo {
            break;
        }
    }
    (new_lo, new_hi)
}

/// Renders a full summary as a disjunction of boxes.
pub fn display_set(universe: &Universe, set: &StateSet) -> String {
    if set.is_empty() {
        return "⊥".to_owned();
    }
    let boxes = summarize(universe, set);
    boxes
        .iter()
        .map(|b| {
            let s = b.display(universe);
            if boxes.len() > 1 && s.contains('∧') {
                format!("({s})")
            } else {
                s
            }
        })
        .collect::<Vec<_>>()
        .join(" ∨ ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_lang::gen::XorShift;

    /// The per-store summarizer the row kernels replaced, kept as the
    /// reference: every slab check and removal decodes one store at a
    /// time.
    fn reference_summarize(universe: &Universe, set: &StateSet) -> Vec<BoxSummary> {
        let mut remaining = set.clone();
        let mut boxes = Vec::new();
        while let Some(seed_idx) = remaining.min_index() {
            let seed = universe.store_at(seed_idx);
            let mut bounds: Vec<(i64, i64)> = seed.iter().map(|&v| (v, v)).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for d in 0..bounds.len() {
                    let (ulo, uhi) = universe.var_range(d);
                    while bounds[d].1 < uhi && slab_ref(universe, set, &bounds, d, bounds[d].1 + 1)
                    {
                        bounds[d].1 += 1;
                        changed = true;
                    }
                    while bounds[d].0 > ulo && slab_ref(universe, set, &bounds, d, bounds[d].0 - 1)
                    {
                        bounds[d].0 -= 1;
                        changed = true;
                    }
                }
            }
            let bx = BoxSummary { bounds };
            for (i, s) in universe.iter_stores() {
                if bx.contains(&s) {
                    remaining.remove(i);
                }
            }
            boxes.push(bx);
        }
        boxes
    }

    fn slab_ref(
        universe: &Universe,
        set: &StateSet,
        bounds: &[(i64, i64)],
        d: usize,
        v: i64,
    ) -> bool {
        universe.iter_stores().all(|(i, s)| {
            let in_slab = s.iter().enumerate().all(|(k, &x)| {
                let (lo, hi) = if k == d { (v, v) } else { bounds[k] };
                lo <= x && x <= hi
            });
            !in_slab || set.contains(i)
        })
    }

    /// Universe shapes that stress the row kernels: one to four
    /// variables, a last variable of range 1, and rows of exactly 64 and
    /// 128 stores (word-aligned rows).
    fn shapes() -> Vec<Universe> {
        [
            &[("x", -3, 9)][..],
            &[("x", 0, 127)][..],
            &[("x", 0, 4), ("y", -2, 2)][..],
            &[("x", 0, 3), ("y", 0, 63)][..],
            &[("x", 0, 2), ("y", 0, 127)][..],
            &[("x", 0, 6), ("y", 5, 5)][..],
            &[("a", 0, 2), ("b", -1, 1), ("c", 0, 4)][..],
            &[("a", 0, 3), ("b", 0, 2), ("c", 0, 0)][..],
            &[("a", 0, 1), ("b", 0, 2), ("c", 0, 1), ("d", 0, 3)][..],
        ]
        .iter()
        .map(|decls| Universe::new(decls).unwrap())
        .collect()
    }

    /// Seeded sets of several densities, plus unions of random boxes (the
    /// shapes repaired points actually take).
    fn random_sets(u: &Universe, rng: &mut XorShift) -> Vec<StateSet> {
        let mut out = vec![u.empty(), u.full()];
        for density in [2, 4, 8, 16] {
            let picks: Vec<usize> = (0..u.size()).filter(|_| rng.below(16) < density).collect();
            out.push(StateSet::from_indices(u.size(), picks));
        }
        for nboxes in 1..=3 {
            let boxes: Vec<Vec<(i64, i64)>> = (0..nboxes)
                .map(|_| {
                    (0..u.num_vars())
                        .map(|i| {
                            let (lo, hi) = u.var_range(i);
                            let a = rng.range_i64(lo, hi);
                            let b = rng.range_i64(lo, hi);
                            (a.min(b), a.max(b))
                        })
                        .collect()
                })
                .collect();
            out.push(u.filter(|s| {
                boxes
                    .iter()
                    .any(|b| b.iter().zip(s).all(|(&(lo, hi), &x)| lo <= x && x <= hi))
            }));
        }
        out
    }

    #[test]
    fn row_summarizer_matches_per_store_reference() {
        let mut rng = XorShift::new(0x5eed);
        for u in shapes() {
            for _ in 0..4 {
                for set in random_sets(&u, &mut rng) {
                    let boxes = summarize(&u, &set);
                    assert_eq!(boxes, reference_summarize(&u, &set), "on {set:?}");
                    let covered = u.filter(|st| boxes.iter().any(|b| b.contains(st)));
                    assert_eq!(covered, set, "cover must be exact");
                }
            }
        }
    }

    #[test]
    fn single_box_summary() {
        let u = Universe::new(&[("x", 0, 9), ("y", 0, 9)]).unwrap();
        let s = u.filter(|st| (2..=4).contains(&st[0]) && (1..=3).contains(&st[1]));
        let boxes = summarize(&u, &s);
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].bounds, vec![(2, 4), (1, 3)]);
        assert_eq!(boxes[0].display(&u), "x ∈ [2, 4] ∧ y ∈ [1, 3]");
    }

    #[test]
    fn hole_produces_two_boxes() {
        let u = Universe::new(&[("x", -4, 4)]).unwrap();
        let s = u.filter(|st| st[0] != 0);
        let boxes = summarize(&u, &s);
        assert_eq!(boxes.len(), 2);
        assert_eq!(display_set(&u, &s), "x ∈ [-4, -1] ∨ x ∈ [1, 4]");
    }

    #[test]
    fn cover_is_exact() {
        let u = Universe::new(&[("x", 0, 5), ("y", 0, 5)]).unwrap();
        // A diagonal: stress the box cover.
        let s = u.filter(|st| st[0] == st[1]);
        let boxes = summarize(&u, &s);
        let covered = u.filter(|st| boxes.iter().any(|b| b.contains(st)));
        assert_eq!(covered, s);
        assert_eq!(boxes.len(), 6); // each diagonal point is its own box
    }

    #[test]
    fn full_and_empty() {
        let u = Universe::new(&[("x", 0, 3)]).unwrap();
        assert_eq!(display_set(&u, &u.full()), "⊤");
        assert_eq!(display_set(&u, &u.empty()), "⊥");
    }

    #[test]
    fn singleton_renders_as_equality() {
        let u = Universe::new(&[("x", 0, 3), ("y", 0, 3)]).unwrap();
        let s = u.filter(|st| st[0] == 2 && st[1] == 2);
        assert_eq!(display_set(&u, &s), "x = 2 ∧ y = 2");
    }

    #[test]
    fn three_variable_boxes() {
        let u = Universe::new(&[("a", 0, 2), ("b", 0, 2), ("c", 0, 2)]).unwrap();
        let s = u.filter(|st| st[0] == 1 && st[2] >= 1);
        let boxes = summarize(&u, &s);
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].display(&u), "a = 1 ∧ c ∈ [1, 2]");
        // An L-shaped region needs two boxes but stays exact.
        let l = u.filter(|st| st[0] == 0 || st[1] == 0);
        let cover = summarize(&u, &l);
        let covered = u.filter(|st| cover.iter().any(|b| b.contains(st)));
        assert_eq!(covered, l);
        assert!(cover.len() >= 2);
    }

    #[test]
    fn paper_v_element_shape() {
        // V̄ = (i ∈ [1,5] ∧ j ∈ [0,∞]) ∨ (i = 6 ∧ j ∈ [0,15]) over a
        // finite universe: j's "∞" is the universe top 20.
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let v = u.filter(|s| ((1..=5).contains(&s[0])) || (s[0] == 6 && s[1] <= 15));
        let shown = display_set(&u, &v);
        // The greedy cover renders the same region as
        // (i ∈ [1,6] ∧ j ∈ [0,15]) ∨ (i ∈ [1,5]) — equivalent to the
        // paper's two disjuncts.
        assert!(shown.contains("i ∈ [1, 5]"), "{shown}");
        assert!(shown.contains("j ∈ [0, 15]"), "{shown}");
        let boxes = summarize(&u, &v);
        let covered = u.filter(|st| boxes.iter().any(|b| b.contains(st)));
        assert_eq!(covered, v);
    }
}
