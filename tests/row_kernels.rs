//! Seeded property tests for the row kernels: the bitset range kernels,
//! the universe row walker, the nonrelational `α`/`γ` closures and the
//! bitset↔diagram bridges, each against a per-bit or per-store model.
//!
//! The universe shapes cover one to four variables, a last variable of
//! range 1 (rows of one store), and rows of exactly 64 and 128 stores
//! (rows that start and end on word seams).

use air::domains::{
    Abstraction, CongruenceEnv, ConstantEnv, IntervalEnv, ParityEnv, SignEnv, Transfer,
};
use air::lang::gen::XorShift;
use air::lang::{parse_bexp, StateSet, Universe};
use air::lattice::{BitVecSet, SymShape, SymState};

fn shapes() -> Vec<Universe> {
    [
        &[("x", -5, 20)][..],
        &[("x", 0, 63)][..],
        &[("x", -7, 0), ("y", 0, 0)][..],
        &[("x", 0, 2), ("y", 0, 63)][..],
        &[("x", -1, 1), ("y", 0, 127)][..],
        &[("x", 0, 4), ("y", -3, 3), ("z", 1, 1)][..],
        &[("a", -1, 2), ("b", 0, 2), ("c", -2, 2)][..],
        &[("a", 0, 1), ("b", 0, 2), ("c", 0, 1), ("d", -2, 1)][..],
    ]
    .iter()
    .map(|decls| Universe::new(decls).unwrap())
    .collect()
}

/// Sets of several densities, single stores, and unions of random boxes.
fn random_sets(u: &Universe, rng: &mut XorShift) -> Vec<StateSet> {
    let mut out = vec![u.empty(), u.full()];
    for density in [1, 3, 8, 15] {
        let picks: Vec<usize> = (0..u.size()).filter(|_| rng.below(16) < density).collect();
        out.push(StateSet::from_indices(u.size(), picks));
    }
    out.push(StateSet::from_indices(u.size(), [rng.below(u.size())]));
    for nboxes in 1..=3 {
        let boxes: Vec<Vec<(i64, i64)>> = (0..nboxes).map(|_| random_box(u, rng)).collect();
        out.push(u.filter(|s| boxes.iter().any(|b| inside(b, s))));
    }
    out
}

fn random_box(u: &Universe, rng: &mut XorShift) -> Vec<(i64, i64)> {
    (0..u.num_vars())
        .map(|i| {
            let (lo, hi) = u.var_range(i);
            let (a, b) = (rng.range_i64(lo, hi), rng.range_i64(lo, hi));
            (a.min(b), a.max(b))
        })
        .collect()
}

fn inside(bounds: &[(i64, i64)], store: &[i64]) -> bool {
    bounds
        .iter()
        .zip(store)
        .all(|(&(lo, hi), &x)| lo <= x && x <= hi)
}

#[test]
fn range_kernels_match_per_bit_model() {
    let mut rng = XorShift::new(12);
    for nbits in [1, 2, 63, 64, 65, 127, 128, 129, 200, 320] {
        for _ in 0..40 {
            let density = rng.below(17);
            let model: Vec<bool> = (0..nbits).map(|_| rng.below(16) < density).collect();
            let set = BitVecSet::from_indices(nbits, (0..nbits).filter(|&i| model[i]));
            let a = rng.below(nbits);
            let b = rng.below(nbits);
            // Both orders: `a > b` is the empty range.
            for (a, b) in [(a, b), (b, a)] {
                let range: Vec<usize> = (a..=b).collect();
                let members: Vec<usize> = range.iter().copied().filter(|&i| model[i]).collect();
                let holes: Vec<usize> = range.iter().copied().filter(|&i| !model[i]).collect();
                assert_eq!(set.all_in_range(a, b), holes.is_empty(), "all [{a},{b}]");
                assert_eq!(set.any_in_range(a, b), !members.is_empty(), "any [{a},{b}]");
                assert_eq!(set.first_set_in(a, b), members.first().copied());
                assert_eq!(set.last_set_in(a, b), members.last().copied());
                assert_eq!(set.first_clear_in(a, b), holes.first().copied());
                assert_eq!(set.last_clear_in(a, b), holes.last().copied());
                let mut runs: Vec<(usize, usize)> = Vec::new();
                for &i in &members {
                    match runs.last_mut() {
                        Some(run) if run.1 + 1 == i => run.1 = i,
                        _ => runs.push((i, i)),
                    }
                }
                assert_eq!(
                    set.runs_in(a, b).collect::<Vec<_>>(),
                    runs,
                    "runs [{a},{b}]"
                );

                let mut filled = set.clone();
                assert_eq!(filled.fill_range(a, b), !holes.is_empty());
                let expect: Vec<usize> = (0..nbits)
                    .filter(|&i| model[i] || (a..=b).contains(&i))
                    .collect();
                assert_eq!(filled.iter().collect::<Vec<_>>(), expect, "fill [{a},{b}]");

                let mut cleared = set.clone();
                assert_eq!(cleared.clear_range(a, b), !members.is_empty());
                let expect: Vec<usize> = (0..nbits)
                    .filter(|&i| model[i] && !(a..=b).contains(&i))
                    .collect();
                assert_eq!(
                    cleared.iter().collect::<Vec<_>>(),
                    expect,
                    "clear [{a},{b}]"
                );
                // Ghost bits past the capacity stay clear.
                assert_eq!(filled.complement().complement(), filled);
            }
        }
    }
}

#[test]
fn rows_tile_every_box_in_index_order() {
    let mut rng = XorShift::new(3);
    for u in shapes() {
        for _ in 0..20 {
            let bounds = random_box(&u, &mut rng);
            let from_rows: Vec<usize> = u.rows(&bounds).flat_map(|(a, b)| a..=b).collect();
            let per_store: Vec<usize> = u
                .iter_stores()
                .filter(|(_, s)| inside(&bounds, s))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(from_rows, per_store, "rows of {bounds:?}");
            let last = u.num_vars() - 1;
            let width = (bounds[last].1 - bounds[last].0) as usize;
            assert!(u.rows(&bounds).all(|(a, b)| b - a == width));
        }
    }
}

/// An abstraction that answers `alpha_set`/`gamma_set`/`closure_set` with
/// the trait's per-store defaults, delegating only the required methods.
struct Defaults<'a, A>(&'a A);

impl<A: Abstraction> Abstraction for Defaults<'_, A> {
    type Elem = A::Elem;
    fn name(&self) -> &str {
        self.0.name()
    }
    fn top(&self) -> A::Elem {
        self.0.top()
    }
    fn bottom(&self) -> A::Elem {
        self.0.bottom()
    }
    fn is_bottom(&self, e: &A::Elem) -> bool {
        self.0.is_bottom(e)
    }
    fn leq(&self, a: &A::Elem, b: &A::Elem) -> bool {
        self.0.leq(a, b)
    }
    fn join(&self, a: &A::Elem, b: &A::Elem) -> A::Elem {
        self.0.join(a, b)
    }
    fn meet(&self, a: &A::Elem, b: &A::Elem) -> A::Elem {
        self.0.meet(a, b)
    }
    fn alpha_store(&self, store: &[i64]) -> A::Elem {
        self.0.alpha_store(store)
    }
    fn gamma_contains(&self, e: &A::Elem, store: &[i64]) -> bool {
        self.0.gamma_contains(e, store)
    }
}

fn check_against_defaults<A: Transfer>(dom: &A, u: &Universe, rng: &mut XorShift) {
    let reference = Defaults(dom);
    let name = dom.name().to_owned();
    for set in random_sets(u, rng) {
        let alpha = dom.alpha_set(u, &set);
        assert_eq!(alpha, reference.alpha_set(u, &set), "{name}: α of {set:?}");
        assert_eq!(
            dom.gamma_set(u, &alpha),
            reference.gamma_set(u, &alpha),
            "{name}: γ of {alpha:?}"
        );
        assert_eq!(
            dom.closure_set(u, &set),
            reference.closure_set(u, &set),
            "{name}: γα of {set:?}"
        );
    }
    // Elements that no α produces: ⊤, ⊥ and guard refinements that reach
    // past the universe's ranges.
    let var = u.var_names().next().unwrap().to_owned();
    let guards = [
        format!("{var} >= 1"),
        format!("{var} != 0 && {var} <= 100"),
        format!("{var} < -1000"),
    ];
    let mut elems = vec![dom.top(), dom.bottom()];
    for g in &guards {
        elems.push(dom.assume(&dom.top(), &parse_bexp(g).unwrap()));
    }
    for e in elems {
        assert_eq!(
            dom.gamma_set(u, &e),
            reference.gamma_set(u, &e),
            "{name}: γ of {e:?}"
        );
    }
}

#[test]
fn env_domain_kernels_equal_the_trait_defaults() {
    let mut rng = XorShift::new(0xa1fa);
    for u in shapes() {
        check_against_defaults(&IntervalEnv::new(&u), &u, &mut rng);
        check_against_defaults(&SignEnv::new(&u), &u, &mut rng);
        check_against_defaults(&ParityEnv::new(&u), &u, &mut rng);
        check_against_defaults(&ConstantEnv::new(&u), &u, &mut rng);
        check_against_defaults(&CongruenceEnv::new(&u), &u, &mut rng);
    }
}

#[test]
fn bitset_diagram_bridges_round_trip() {
    let mut rng = XorShift::new(77);
    for u in shapes() {
        let ranges: Vec<(i64, i64)> = (0..u.num_vars()).map(|i| u.var_range(i)).collect();
        let shape = SymShape::new(&ranges);
        for set in random_sets(&u, &mut rng) {
            let sym = SymState::from_bitset(&shape, &set);
            assert_eq!(sym.count(), set.len() as u128);
            let per_index: Vec<usize> = sym.indices().into_iter().map(|i| i as usize).collect();
            assert_eq!(
                per_index,
                set.iter().collect::<Vec<_>>(),
                "members of {set:?}"
            );
            assert_eq!(sym.to_bitset(), set, "round trip of {set:?}");
            // Canonical form: rebuilding from the per-store diagram union
            // gives a structurally equal diagram.
            let rebuilt = set.iter().fold(SymState::empty(&shape), |acc, i| {
                let store = u.store_at(i);
                let bx: Vec<(i64, i64)> = store.iter().map(|&v| (v, v)).collect();
                acc.union(&SymState::from_box(&shape, &bx))
            });
            assert_eq!(sym, rebuilt, "canonical diagram of {set:?}");
        }
    }
}
