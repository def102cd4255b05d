//! Seeded verification instances drawn from the repository's parametric
//! program families.
//!
//! Programs and universes come from the existing generators
//! (`air_bench::{countdown_workload, triangular_program,
//! branch_chain_workload, verification_corpus}` and the checked-in
//! `corpus/large/countdown-cube.imp`); this module only chooses sizes,
//! pre-conditions and specs. Every instance carries its universe as a
//! `vars` declaration and its pre/spec as surface syntax, so the same
//! instance can be verified through the library or sent over the
//! `air serve` wire.

use air_bench::{
    branch_chain_program, branch_chain_workload, countdown_program, countdown_workload,
    triangular_number, triangular_program, triangular_universe, verification_corpus,
};
use air_lang::gen::XorShift;
use air_lang::{parse_program, Reg, Universe};

/// Repair strategy of one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    Backward,
    Forward,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Backward => "backward",
            Strategy::Forward => "forward",
        }
    }
}

/// One verification task: `⟦program⟧pre ⊆ spec` over the universe
/// `vars`, repaired from the base domain `domain` by `strategy`.
#[derive(Clone, Debug)]
pub struct Instance {
    pub family: &'static str,
    /// The family's size parameter (loop bound, range or chain length).
    pub param: i64,
    pub program: Reg,
    pub vars: Vec<(String, i64, i64)>,
    pub pre: String,
    pub spec: String,
    /// `int`, `oct` or `karr` (the `air verify --domain` names).
    pub domain: &'static str,
    pub strategy: Strategy,
}

impl Instance {
    /// A stable one-line description; equal lists render equally.
    pub fn label(&self) -> String {
        format!(
            "{}({}) {} {} states={} pre[{}] spec[{}]",
            self.family,
            self.param,
            self.domain,
            self.strategy.name(),
            self.states(),
            self.pre,
            self.spec
        )
    }

    /// Number of stores in the universe.
    pub fn states(&self) -> u64 {
        self.vars
            .iter()
            .map(|(_, lo, hi)| (hi - lo + 1) as u64)
            .product()
    }

    /// The `vars` declaration in CLI/wire syntax (`x:-2..7,y:0..9`).
    pub fn vars_decl(&self) -> String {
        self.vars
            .iter()
            .map(|(n, lo, hi)| format!("{n}:{lo}..{hi}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Builds the universe (`Universe::new`).
    pub fn universe(&self) -> Universe {
        let decls: Vec<(&str, i64, i64)> = self
            .vars
            .iter()
            .map(|(n, lo, hi)| (n.as_str(), *lo, *hi))
            .collect();
        Universe::new(&decls).expect("instance universes are valid")
    }
}

/// The program families. Each maps a size parameter and an intended
/// truth value to (program, vars, pre, spec); whether the spec really
/// holds is decided later by the concrete semantics, never by this table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `air_bench::countdown_program` on `countdown_workload(k)`'s universe.
    Countdown,
    /// `air_bench::triangular_program(k)`: `j` ends at exactly `T_k`.
    Triangular,
    /// The corpus `gauss.imp` (`T_5 = 15`) in a `j` range of `param`.
    Gauss,
    /// The corpus `two_phase.imp` with `n` ranging over `0..param`.
    TwoPhase,
    /// The corpus `division.imp` with `x` ranging over `0..param`.
    Division,
    /// `air_bench::branch_chain_program(n)`: `y` ends at `2x - n`.
    BranchChain,
    /// `corpus/large/countdown-cube.imp` with side `0..param`.
    CountdownCube,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Countdown => "countdown",
            Family::Triangular => "triangular",
            Family::Gauss => "gauss",
            Family::TwoPhase => "two_phase",
            Family::Division => "division",
            Family::BranchChain => "branch_chain",
            Family::CountdownCube => "countdown-cube",
        }
    }

    /// The instance of size `param` whose spec is meant to hold (`holds`)
    /// or to fail on some input.
    pub fn instance(
        self,
        param: i64,
        holds: bool,
        domain: &'static str,
        strategy: Strategy,
    ) -> Instance {
        let (program, vars, pre, spec) = match self {
            Family::Countdown => {
                let (u, _, _) = countdown_workload(param);
                let spec = if holds { "y = 0" } else { "y = 1" };
                (
                    countdown_program(),
                    decls(&u),
                    format!("x > 0 && x <= {param} && y = x"),
                    spec.to_string(),
                )
            }
            Family::Triangular => {
                let t = triangular_number(param);
                let spec = if holds {
                    format!("j = {t}")
                } else {
                    format!("j = {}", t - 1)
                };
                (
                    triangular_program(param),
                    decls(&triangular_universe(param)),
                    "true".to_string(),
                    spec,
                )
            }
            Family::Gauss => {
                let spec = if holds { "j <= 15" } else { "j <= 14" };
                (
                    corpus_program("gauss"),
                    vec![("i".into(), 0, 8), ("j".into(), 0, param)],
                    "true".to_string(),
                    spec.to_string(),
                )
            }
            Family::TwoPhase => {
                let spec = if holds {
                    "j = n".to_string()
                } else {
                    format!("j = n && n <= {}", param - 1)
                };
                (
                    corpus_program("two_phase"),
                    vec![
                        ("n".into(), 0, param),
                        ("i".into(), 0, param + 1),
                        ("j".into(), 0, param + 1),
                    ],
                    "i = 0 && j = 0 && n >= 0".to_string(),
                    spec,
                )
            }
            Family::Division => {
                let spec = if holds {
                    "x = 3 * q + r && r <= 2"
                } else {
                    "x = 3 * q + r && r <= 1"
                };
                (
                    corpus_program("division"),
                    vec![
                        ("x".into(), 0, param),
                        ("q".into(), 0, param / 3 + 1),
                        ("r".into(), 0, param),
                    ],
                    "x >= 0".to_string(),
                    spec.to_string(),
                )
            }
            Family::BranchChain => {
                let n = param as usize;
                let (u, _, _) = branch_chain_workload(n);
                let spec = if holds {
                    format!("y >= {} && y <= {param}", 2 - param)
                } else {
                    format!("y >= {} && y <= {param}", 3 - param)
                };
                (
                    branch_chain_program(n),
                    decls(&u),
                    format!("x >= 1 && x <= {param} && y = 0"),
                    spec,
                )
            }
            Family::CountdownCube => {
                let spec = if holds {
                    format!("x = {param} && y = 0")
                } else {
                    format!("x = {param} && y = 1")
                };
                (
                    parse_program(COUNTDOWN_CUBE).expect("corpus program parses"),
                    ["x", "y", "z"]
                        .iter()
                        .map(|v| (v.to_string(), 0, param))
                        .collect(),
                    format!("x = 0 && y = {param}"),
                    spec,
                )
            }
        };
        Instance {
            family: self.name(),
            param,
            program,
            vars,
            pre,
            spec,
            domain,
            strategy,
        }
    }
}

const COUNTDOWN_CUBE: &str = include_str!("../../corpus/large/countdown-cube.imp");

fn decls(u: &Universe) -> Vec<(String, i64, i64)> {
    u.var_names()
        .enumerate()
        .map(|(i, n)| {
            let (lo, hi) = u.var_range(i);
            (n.to_string(), lo, hi)
        })
        .collect()
}

fn corpus_program(name: &str) -> Reg {
    verification_corpus()
        .into_iter()
        .find(|t| t.name == name)
        .map(|t| t.prog)
        .expect("corpus program present")
}

/// A seeded jitter of `nominal` within ±`pct`% (none below 100/`pct`).
pub fn jitter(rng: &mut XorShift, nominal: i64, pct: i64) -> i64 {
    let span = nominal * pct / 100;
    rng.range_i64(nominal - span, nominal + span)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut XorShift, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}
