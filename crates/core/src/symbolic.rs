//! Native symbolic backward repair — Algorithm 2 on decision diagrams.
//!
//! The generic engines in this crate run on explicit [`StateSet`] bitsets
//! and [`EnumDomain`](crate::EnumDomain) closures; routing their
//! *semantic* queries through a
//! symbolic [`SemCache`](air_lang::SemCache) (the Level-A backend switch)
//! accelerates `exec`/`wlp`/`sat` but still pays `O(|Σ|)` per abstract
//! closure, because `EnumDomain` wraps an enumerated `γ∘α`. On universes
//! with 10⁶+ states that closure cost dominates and the bitset pipeline
//! cannot finish within any reasonable budget.
//!
//! This module is the Level-B replacement for the one base domain whose
//! closure has a cheap symbolic form: intervals. [`SymDomain`] represents
//! the pointed refinement `Int ⊞ N` directly on [`SymState`] diagrams —
//! the base closure is the bounding box of the diagram (exactly
//! `γ(α(c))` of `IntervalEnv` on a finite universe), and added points are
//! themselves diagrams, so the refined closure
//! `A_N(c) = A(c) ∩ ⋂{p ∈ N | c ⊆ p}` never enumerates a store.
//! [`SymbolicAbsint`] and [`SymbolicBackward`] are line-by-line ports of
//! [`AbstractSemantics`](crate::AbstractSemantics) and
//! [`BackwardRepair`](crate::BackwardRepair) over that representation;
//! every intermediate set they compute equals the bitset engines'
//! (the symbolic concrete semantics is exact, the closures coincide, and
//! the fixpoint loops mirror each other bound for bound), so verdicts are
//! byte-identical — the property the differential fuzz axis 9 and the
//! backend-agreement suites check on enumerable universes.

use std::collections::HashMap;

use air_lang::ast::Reg;
use air_lang::{StateSet, SymEngine, Universe};
use air_lattice::{ExhaustReason, Exhaustion, Governor, SymShape, SymState};
use air_trace::{EventKind, Tracer};

use crate::absint::StarStrategy;
use crate::backward::{BackwardOutcome, UnrollStrategy};
use crate::forward::RepairError;

/// Arena id of a discovered refinement point within one repair run.
type PointId = u32;

/// The pointed refinement `Int ⊞ N` over decision diagrams.
///
/// The base closure is the bounding box `γ(α(c))` of the interval
/// abstraction: on a finite universe `IntervalEnv`'s `α` is the per-variable
/// hull and `γ` clamps to the variable ranges, which is exactly
/// [`SymState::hull`] re-materialized with [`SymState::from_box`]. Points
/// refine it by meets, as in Section 3.1 of the paper.
#[derive(Clone, Debug)]
pub struct SymDomain {
    shape: SymShape,
    var_ranges: Vec<(i64, i64)>,
    points: Vec<SymState>,
}

impl SymDomain {
    /// The interval base domain (no added points) over `universe`.
    pub fn interval(universe: &Universe) -> Self {
        let var_ranges: Vec<(i64, i64)> = (0..universe.num_vars())
            .map(|i| universe.var_range(i))
            .collect();
        SymDomain {
            shape: SymShape::new(&var_ranges),
            var_ranges,
            points: Vec::new(),
        }
    }

    /// The added points `N`, in insertion order.
    pub fn points(&self) -> &[SymState] {
        &self.points
    }

    /// The base closure `Int(c)`: the bounding box of `c`.
    pub fn base_close(&self, c: &SymState) -> SymState {
        match c.hull() {
            Some(bx) => SymState::from_box(&self.shape, &bx),
            None => SymState::empty(&self.shape),
        }
    }

    /// The refined closure `A_N(c) = Int(c) ∩ ⋂{p ∈ N | c ⊆ p}`.
    pub fn close(&self, c: &SymState) -> SymState {
        let mut acc = self.base_close(c);
        for p in &self.points {
            if c.is_subset(p) {
                acc = acc.intersect(p);
            }
        }
        acc
    }

    /// Returns `true` if `c` is expressible: `A_N(c) = c`.
    pub fn is_expressible(&self, c: &SymState) -> bool {
        self.close(c) == *c
    }

    /// Adds a point (the pointed refinement `A ⊞ {p}`). Returns `false`
    /// if `p` was already expressible (no-op), mirroring
    /// [`EnumDomain::add_point`](crate::EnumDomain::add_point).
    pub fn add_point(&mut self, p: SymState) -> bool {
        if self.is_expressible(&p) {
            return false;
        }
        self.points.push(p);
        true
    }

    /// A fresh domain with the given extra points (`self` unchanged).
    pub fn with_points<I: IntoIterator<Item = SymState>>(&self, ps: I) -> SymDomain {
        let mut d = self.clone();
        for p in ps {
            d.add_point(p);
        }
        d
    }

    /// Abstract join `x ∨_{A_N} y = A_N(x ∪ y)`.
    pub fn join(&self, x: &SymState, y: &SymState) -> SymState {
        self.close(&x.union(y))
    }

    /// The base widening `γ(α(x) ∇_Int α(y))`: per variable, an unstable
    /// lower bound drops to `-∞` and an unstable upper bound to `+∞`
    /// (clamped by `γ` to the variable's universe range), exactly the
    /// interval widening `EnumDomain` enumerates. Empty sides pass
    /// through (the env widening forwards `⊥` unchanged).
    pub fn base_widen(&self, x: &SymState, y: &SymState) -> SymState {
        let Some(xh) = x.hull() else {
            return self.base_close(y);
        };
        let Some(yh) = y.hull() else {
            return self.base_close(x);
        };
        let bx: Vec<(i64, i64)> = self
            .var_ranges
            .iter()
            .enumerate()
            .map(|(i, &(vlo, vhi))| {
                let lo = if xh[i].0 <= yh[i].0 { xh[i].0 } else { vlo };
                let hi = if yh[i].1 <= xh[i].1 { xh[i].1 } else { vhi };
                (lo, hi)
            })
            .collect();
        SymState::from_box(&self.shape, &bx)
    }

    /// The pointed widening `∇_N` of Definition 7.11.
    pub fn pointed_widen(&self, x: &SymState, y: &SymState) -> SymState {
        let mut acc = self.base_widen(x, y);
        for p in &self.points {
            if x.is_subset(p) && y.is_subset(p) {
                acc = acc.intersect(p);
            }
        }
        acc
    }
}

/// The abstract semantics `⟦·⟧♯_{Int⊞N}` over decision diagrams — the
/// symbolic counterpart of [`AbstractSemantics`](crate::AbstractSemantics),
/// mirroring its star fixpoint loop bound for bound (including the
/// `absint.star` governor check at every loop head).
#[derive(Clone, Debug)]
pub struct SymbolicAbsint<'u> {
    engine: SymEngine<'u>,
    strategy: StarStrategy,
    trace: Tracer,
    governor: Governor,
}

impl<'u> SymbolicAbsint<'u> {
    /// Creates the symbolic abstract interpreter with exact star
    /// fixpoints.
    pub fn new(universe: &'u Universe) -> Self {
        SymbolicAbsint {
            engine: SymEngine::new(universe),
            strategy: StarStrategy::Lfp,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Selects the star acceleration strategy.
    pub fn star_strategy(mut self, strategy: StarStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Emits `widening` events through `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.trace = tracer;
        self
    }

    /// Enforces `governor` at the star fixpoint's loop head, exactly like
    /// the enumerative interpreter.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// The underlying symbolic engine.
    pub fn engine(&self) -> &SymEngine<'u> {
        &self.engine
    }

    /// `⟦r⟧♯_{Int⊞N} a` (callers pass `dom.close`d inputs; basic-command
    /// outputs are closed here, as in the enumerative interpreter).
    ///
    /// # Errors
    ///
    /// Propagates [`SemError`](air_lang::SemError) from the symbolic
    /// transfer functions — the same universe escapes and overflows the
    /// enumerative path reports, because [`SymEngine`] is exact.
    pub fn exec(
        &self,
        dom: &SymDomain,
        r: &Reg,
        a: &SymState,
    ) -> Result<SymState, air_lang::SemError> {
        match r {
            Reg::Basic(e) => Ok(dom.close(&self.engine.exec_exp(false, e, a)?)),
            Reg::Seq(r1, r2) => {
                let mid = self.exec(dom, r1, a)?;
                self.exec(dom, r2, &mid)
            }
            Reg::Choice(r1, r2) => {
                let l = self.exec(dom, r1, a)?;
                let rr = self.exec(dom, r2, a)?;
                Ok(dom.close(&l.union(&rr)))
            }
            Reg::Star(body) => {
                let mut x = dom.close(a);
                // Strictly increasing on a finite lattice, same bound as
                // the enumerative loop.
                for _ in 0..=self.engine.universe().size() {
                    self.governor.check_with(|| "absint.star".to_string())?;
                    let step = self.exec(dom, body, &x)?;
                    let grown = dom.close(&x.union(&step));
                    if grown.is_subset(&x) {
                        return Ok(x);
                    }
                    x = match self.strategy {
                        StarStrategy::Lfp => grown,
                        StarStrategy::PointedWidening => {
                            self.trace.emit_detail_with(|| EventKind::Widening {
                                site: "absint.star".to_string(),
                            });
                            dom.pointed_widen(&x, &grown)
                        }
                    };
                }
                Err(air_lang::SemError::Divergence)
            }
        }
    }
}

/// Per-repair mutable state (the symbolic mirror of the bitset engine's
/// context): a point arena plus the in-flight `N` as id lists.
struct Ctx {
    calls: usize,
    inv_iterations: usize,
    max_calls: usize,
    points: Vec<SymState>,
    ids: HashMap<SymState, PointId>,
    best_points: Vec<PointId>,
}

impl Ctx {
    fn point_id(&mut self, p: &SymState) -> PointId {
        if let Some(&id) = self.ids.get(p) {
            return id;
        }
        let id = PointId::try_from(self.points.len()).expect("point arena overflow");
        self.points.push(p.clone());
        self.ids.insert(p.clone(), id);
        id
    }

    fn push(&mut self, n: &mut Vec<PointId>, p: &SymState) -> bool {
        let id = self.point_id(p);
        if n.contains(&id) {
            false
        } else {
            n.push(id);
            true
        }
    }

    fn union_ids(a: Vec<PointId>, b: Vec<PointId>) -> Vec<PointId> {
        let mut out = a;
        for id in b {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    fn materialize(&self, n: &[PointId]) -> Vec<SymState> {
        n.iter()
            .map(|&id| self.points[id as usize].clone())
            .collect()
    }

    fn domain(&self, base: &SymDomain, n: &[PointId]) -> SymDomain {
        base.with_points(n.iter().map(|&id| self.points[id as usize].clone()))
    }
}

/// Backward repair (Algorithm 2) running natively on decision diagrams.
///
/// A line-by-line port of [`BackwardRepair`](crate::BackwardRepair) with
/// [`SymState`] for state sets and [`SymDomain`] for the refinement — the
/// entry point the [`Verifier`](crate::Verifier) dispatches to when its
/// semantic cache runs the symbolic backend and the base domain is `Int`.
/// Outcomes are materialized back to bitsets so verdict assembly (and
/// every downstream consumer) is backend-agnostic.
#[derive(Clone, Debug)]
pub struct SymbolicBackward<'u> {
    universe: &'u Universe,
    engine: SymEngine<'u>,
    strategy: UnrollStrategy,
    max_calls: usize,
    trace: Tracer,
    governor: Governor,
}

impl<'u> SymbolicBackward<'u> {
    /// Creates the strategy with exact joins and the same generous call
    /// budget as the bitset engine.
    pub fn new(universe: &'u Universe) -> Self {
        SymbolicBackward {
            universe,
            engine: SymEngine::new(universe),
            strategy: UnrollStrategy::Join,
            max_calls: 1_000_000,
            trace: Tracer::disabled(),
            governor: Governor::unlimited(),
        }
    }

    /// Emits `incompleteness`/`shell_point`/`widening` events through
    /// `tracer`.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.trace = tracer;
        self
    }

    /// Selects the star unroll strategy.
    pub fn unroll_strategy(mut self, strategy: UnrollStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the recursion budget.
    pub fn max_calls(mut self, max: usize) -> Self {
        self.max_calls = max;
        self
    }

    /// Enforces `governor` at every `bRepair` entry, `inv` iteration and
    /// star fixpoint round: exhaustion surfaces as
    /// [`RepairError::Exhausted`] carrying the best partial refinement
    /// and a sound partial invariant, exactly like the bitset engine.
    pub fn governor(mut self, governor: Governor) -> Self {
        self.governor = governor;
        self
    }

    /// Algorithm 2 entry point over diagrams: `bRepair_A(∅, A(P), r, S)`
    /// for `A = Int ⊞ base_points`.
    ///
    /// `base_points` carries the pre-existing refinement of the caller's
    /// domain (usually empty); `p` and `spec` are explicit sets converted
    /// at this boundary — the recursion itself never enumerates a store.
    ///
    /// # Errors
    ///
    /// [`RepairError::Sem`] on evaluation failures;
    /// [`RepairError::Exhausted`] on budget cutoffs, carrying the deepest
    /// point set reached and a sound partial invariant in that refinement.
    pub fn repair(
        &self,
        base_points: &[StateSet],
        p: &StateSet,
        r: &Reg,
        spec: &StateSet,
    ) -> Result<BackwardOutcome, RepairError> {
        let _span = self.trace.span(|| "repair.backward".to_string());
        let base = SymDomain::interval(self.universe)
            .with_points(base_points.iter().map(|b| self.engine.from_set(b)));
        let p_sym = self.engine.from_set(p);
        let spec_sym = self.engine.from_set(spec);
        let mut ctx = Ctx {
            calls: 0,
            inv_iterations: 0,
            max_calls: self.max_calls,
            points: Vec::new(),
            ids: HashMap::new(),
            best_points: Vec::new(),
        };
        let p_hat = base.close(&p_sym);
        let (valid_input, points) =
            match self.brepair(&base, Vec::new(), p_hat, r, &spec_sym, &mut ctx) {
                Ok((v, n)) => (v, ctx.materialize(&n)),
                Err(e) => return Err(self.exhausted(e, &base, &ctx, r, &p_sym)),
            };
        self.trace.emit_detail_with(|| EventKind::Counter {
            name: "backward.calls".to_string(),
            delta: ctx.calls as u64,
        });
        self.trace.emit_detail_with(|| EventKind::Counter {
            name: "backward.inv_iterations".to_string(),
            delta: ctx.inv_iterations as u64,
        });
        Ok(BackwardOutcome {
            valid_input: self.engine.to_set(&valid_input),
            points: points.iter().map(|p| self.engine.to_set(p)).collect(),
            calls: ctx.calls,
            inv_iterations: ctx.inv_iterations,
        })
    }

    /// Enriches a budget cutoff with the best partial result, mirroring
    /// the bitset engine: the deepest point set reached plus a sound
    /// partial invariant (an ungoverned symbolic analysis in the partial
    /// refinement — over-approximating in *any* pointed refinement).
    fn exhausted(
        &self,
        err: RepairError,
        base: &SymDomain,
        ctx: &Ctx,
        r: &Reg,
        p: &SymState,
    ) -> RepairError {
        let RepairError::Exhausted(mut partial) = err else {
            return err;
        };
        if partial.points.is_empty() {
            partial.points = ctx
                .materialize(&ctx.best_points)
                .iter()
                .map(|p| self.engine.to_set(p))
                .collect();
        }
        if partial.invariant.is_none() {
            let dom = ctx.domain(base, &ctx.best_points);
            let sem = SymbolicAbsint::new(self.universe);
            partial.invariant = sem
                .exec(&dom, r, &dom.close(p))
                .ok()
                .map(|inv| self.engine.to_set(&inv));
        }
        self.trace.emit_with(|| EventKind::BudgetExhausted {
            phase: partial.exhaustion.phase.clone(),
            spent: partial.exhaustion.spent,
            reason: partial.exhaustion.reason.name().to_string(),
        });
        RepairError::Exhausted(partial)
    }

    /// `⟦r⟧♯_{A⊞N} P` in the current refinement (closing `p` first, as
    /// the bitset engine does).
    fn abs_exec(
        &self,
        base: &SymDomain,
        ctx: &Ctx,
        n: &[PointId],
        r: &Reg,
        p: &SymState,
    ) -> Result<SymState, RepairError> {
        let dom = ctx.domain(base, n);
        let a = dom.close(p);
        Ok(SymbolicAbsint::new(self.universe)
            .governor(self.governor.clone())
            .exec(&dom, r, &a)?)
    }

    /// `V⟨P, r, S⟩ = P ∩ wlp(r, S)`, fully symbolic.
    fn valid_input(&self, p: &SymState, r: &Reg, s: &SymState) -> Result<SymState, RepairError> {
        let w = self.engine.wlp_reg(r, s).map_err(RepairError::from)?;
        Ok(p.intersect(&w))
    }

    fn trace_point(&self, rule: &str, exp: &impl std::fmt::Display, point: &SymState) {
        self.trace.emit_detail_with(|| EventKind::ShellPoint {
            rule: rule.to_string(),
            exp: exp.to_string(),
            point_size: point.count() as usize,
        });
    }

    fn brepair(
        &self,
        base: &SymDomain,
        mut n: Vec<PointId>,
        p: SymState,
        r: &Reg,
        s: &SymState,
        ctx: &mut Ctx,
    ) -> Result<(SymState, Vec<PointId>), RepairError> {
        ctx.calls += 1;
        self.governor.check_with(|| "repair.backward".to_string())?;
        if ctx.calls > ctx.max_calls {
            return Err(Exhaustion {
                phase: "repair.backward.max_calls".to_string(),
                spent: ctx.calls as u64,
                reason: ExhaustReason::Fuel,
            }
            .into());
        }
        if n.len() > ctx.best_points.len() {
            ctx.best_points = n.clone();
        }
        // Line 2: if ⟦r⟧♯_{A⊞N} P ≤ S then return ⟨P, N⟩.
        if self.abs_exec(base, ctx, &n, r, &p)?.is_subset(s) {
            return Ok((p, n));
        }
        match r {
            // Lines 4–6: basic expression.
            Reg::Basic(e) => {
                self.trace.emit_detail_with(|| EventKind::Incompleteness {
                    exp: e.to_string(),
                    input_size: p.count() as usize,
                });
                let v = self.valid_input(&p, r, s)?;
                let q = s.intersect(&self.abs_exec(base, ctx, &n, r, &p)?);
                if ctx.push(&mut n, &v) {
                    self.trace_point("bRepair basic: V⟨P,e,S⟩ (Alg 2 l.5)", e, &v);
                }
                if ctx.push(&mut n, &q) {
                    self.trace_point("bRepair basic: S ∧ ⟦e⟧♯P (Alg 2 l.5)", e, &q);
                }
                Ok((v, n))
            }
            // Lines 7–10: sequential composition.
            Reg::Seq(r0, r1) => {
                let mid = self.abs_exec(base, ctx, &n, r0, &p)?;
                let (v1, n1) = self.brepair(base, n.clone(), mid, r1, s, ctx)?;
                let (v0, n0) = self.brepair(base, n, p, r0, &v1, ctx)?;
                Ok((v0, Ctx::union_ids(n0, n1)))
            }
            // Lines 11–15: choice.
            Reg::Choice(r0, r1) => {
                let (v0, n0) = self.brepair(base, n.clone(), p.clone(), r0, s, ctx)?;
                let (v1, n1) = self.brepair(base, n.clone(), p.clone(), r1, s, ctx)?;
                let q = s.intersect(&self.abs_exec(base, ctx, &n, r, &p)?);
                let mut out = Ctx::union_ids(n0, n1);
                if ctx.push(&mut out, &q) {
                    self.trace_point("bRepair choice: S ∧ ⟦r⟧♯P (Alg 2 l.14)", r, &q);
                }
                Ok((v0.intersect(&v1), out))
            }
            // Lines 16–21: Kleene star.
            Reg::Star(r0) => {
                let r_step = self.abs_exec(base, ctx, &n, r0, &p)?;
                if r_step.is_subset(&p) {
                    self.inv(base, n, p, r0, s.clone(), ctx)
                } else {
                    let dom = ctx.domain(base, &n);
                    let grown = dom.join(&p, &r_step);
                    let unrolled = match self.strategy {
                        UnrollStrategy::Join => grown,
                        UnrollStrategy::PointedWidening => {
                            self.trace.emit_detail_with(|| EventKind::Widening {
                                site: "backward.star".to_string(),
                            });
                            dom.pointed_widen(&p, &grown)
                        }
                    };
                    let (v1, n1) = self.brepair(base, n, unrolled, r, s, ctx)?;
                    Ok((p.intersect(&v1), n1))
                }
            }
        }
    }

    /// Lines 22–27: the loop-invariant fixpoint `inv_A`.
    fn inv(
        &self,
        base: &SymDomain,
        n: Vec<PointId>,
        p: SymState,
        r: &Reg,
        mut v1: SymState,
        ctx: &mut Ctx,
    ) -> Result<(SymState, Vec<PointId>), RepairError> {
        loop {
            ctx.inv_iterations += 1;
            self.governor
                .check_with(|| "repair.backward.inv".to_string())?;
            let v0 = p.intersect(&v1);
            let mut n0 = n.clone();
            if ctx.push(&mut n0, &v0) {
                self.trace_point("bRepair inv: P ∧ V₁ (Alg 2 l.24)", r, &v0);
            }
            let (next_v1, n1) = self.brepair(base, n0, v0.clone(), r, &v0, ctx)?;
            if next_v1 == v0 {
                return Ok((next_v1, n1));
            }
            v1 = next_v1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::BackwardRepair;
    use crate::domain::EnumDomain;
    use air_domains::IntervalEnv;
    use air_lang::parse_program;

    fn int_dom(u: &Universe) -> EnumDomain {
        EnumDomain::from_abstraction(u, IntervalEnv::new(u))
    }

    #[test]
    fn sym_domain_close_matches_enum_domain() {
        let u = Universe::new(&[("x", -8, 8), ("y", 0, 3)]).unwrap();
        let edom = int_dom(&u);
        let sdom = SymDomain::interval(&u);
        let eng = SymEngine::new(&u);
        let probes = [
            u.empty(),
            u.full(),
            u.filter(|s| s[0] % 2 != 0),
            u.filter(|s| s[0] * s[0] + s[1] < 10),
            u.filter(|s| s[0] == 3 && s[1] == 1),
        ];
        for c in &probes {
            assert_eq!(
                eng.to_set(&sdom.close(&eng.from_set(c))),
                edom.close(c),
                "base closures must coincide"
            );
        }
        // With points: add the nonzero set and an odd-ish scatter.
        let nz = u.filter(|s| s[0] != 0);
        let scatter = u.filter(|s| s[0] % 3 == 1);
        let edom2 = edom.with_points([nz.clone(), scatter.clone()]);
        let sdom2 = sdom.with_points([eng.from_set(&nz), eng.from_set(&scatter)]);
        for c in &probes {
            assert_eq!(
                eng.to_set(&sdom2.close(&eng.from_set(c))),
                edom2.close(c),
                "refined closures must coincide"
            );
        }
        for (a, b) in probes.iter().zip(probes.iter().rev()) {
            assert_eq!(
                eng.to_set(&sdom2.pointed_widen(&eng.from_set(a), &eng.from_set(b))),
                edom2.pointed_widen(a, b),
                "pointed widenings must coincide"
            );
        }
    }

    #[test]
    fn symbolic_absint_matches_enumerative() {
        let u = Universe::new(&[("i", 0, 8), ("j", 0, 20)]).unwrap();
        let edom = int_dom(&u);
        let sdom = SymDomain::interval(&u);
        let asem = crate::absint::AbstractSemantics::new(&u);
        let ssem = SymbolicAbsint::new(&u);
        let eng = SymEngine::new(&u);
        let prog =
            parse_program("i := 1; j := 0; while (i <= 5) do { j := j + i; i := i + 1 }").unwrap();
        for input in [u.full(), u.filter(|s| s[0] <= 2), u.empty()] {
            let e = asem.exec(&edom, &prog, &edom.close(&input)).unwrap();
            let s = ssem
                .exec(&sdom, &prog, &sdom.close(&eng.from_set(&input)))
                .unwrap();
            assert_eq!(eng.to_set(&s), e);
        }
    }

    #[test]
    fn symbolic_backward_matches_enumerative() {
        let u = Universe::new(&[("x", -2, 6), ("y", -2, 6)]).unwrap();
        let edom = int_dom(&u);
        let prog = parse_program("while (x > 0) do { x := x - 1; y := y - 1 }").unwrap();
        let pre = u.filter(|s| s[0] > 0 && s[0] <= 3);
        let spec = u.filter(|s| s[1] == 0);
        let enm = BackwardRepair::new(&u)
            .repair(&edom, &pre, &prog, &spec)
            .unwrap();
        let sym = SymbolicBackward::new(&u)
            .repair(&[], &pre, &prog, &spec)
            .unwrap();
        assert_eq!(sym.valid_input, enm.valid_input);
        assert_eq!(sym.points, enm.points, "identical point discovery order");
        assert_eq!(sym.calls, enm.calls);
        assert_eq!(sym.inv_iterations, enm.inv_iterations);
    }

    #[test]
    fn symbolic_backward_max_calls_exhaustion_matches() {
        let u = Universe::new(&[("x", 0, 4)]).unwrap();
        let prog = parse_program("while (x < 4) do { x := x + 1 }").unwrap();
        let err = SymbolicBackward::new(&u)
            .max_calls(1)
            .repair(&[], &u.of_values([0]), &prog, &u.empty())
            .unwrap_err();
        let Some(exhaustion) = err.exhaustion() else {
            panic!("expected exhaustion, got {err:?}");
        };
        assert_eq!(exhaustion.phase, "repair.backward.max_calls");
        assert_eq!(exhaustion.reason, ExhaustReason::Fuel);
    }
}
