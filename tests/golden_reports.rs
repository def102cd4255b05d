//! Golden verdict reports: the rendered `Verdict::report` of
//! `corpus/large/countdown-cube.imp` must stay byte-identical on both
//! engines. The report runs the box summarizer over every repaired point,
//! so a change to the summarizer, the closures behind the points or the
//! bitset↔diagram bridges that alters one byte of the output fails here.
//!
//! The goldens were rendered by the per-store implementations that the
//! row kernels replaced. `tests/golden/countdown-cube-100-symbolic.stdout`
//! is the full `air verify --engine symbolic` output at side 100; CI diffs
//! it against the CLI.

use air::core::{EnumDomain, Verifier};
use air::domains::IntervalEnv;
use air::lang::{parse_bexp, parse_program, Concrete, SemCache, Universe};

const GOLDEN_40: &str = include_str!("golden/countdown-cube-40.report");

#[test]
fn countdown_cube_side_40_report_is_golden_on_both_engines() {
    let u = Universe::new(&[("x", 0, 40), ("y", 0, 40), ("z", 0, 40)]).unwrap();
    let prog = parse_program(include_str!("../corpus/large/countdown-cube.imp")).unwrap();
    let sem = Concrete::new(&u);
    let pre = sem.sat(&parse_bexp("x = 0 && y = 40").unwrap()).unwrap();
    let spec = sem.sat(&parse_bexp("x = 40 && y = 0").unwrap()).unwrap();
    for (engine, cache) in [
        ("symbolic", SemCache::symbolic()),
        ("enumerative", SemCache::new()),
    ] {
        let dom = EnumDomain::from_abstraction(&u, IntervalEnv::new(&u));
        let verdict = Verifier::with_cache(&u, cache)
            .backward(dom, &prog, &pre, &spec)
            .unwrap();
        assert_eq!(
            verdict.report(&u),
            GOLDEN_40,
            "{engine} engine's report drifted from the golden"
        );
    }
}
