//! `verify-enum` and `verify-sym`: one-shot, cold-cache verification of a
//! seeded instance set through the library, timed from the `Verifier`
//! call to the rendered report.

use std::time::{Duration, Instant};

use air_core::{EnumDomain, Verdict, Verifier};
use air_domains::{AffineDomain, IntervalEnv, OctagonDomain};
use air_lang::gen::XorShift;
use air_lang::{parse_bexp, Concrete, SemCache, StateSet, SymEngine, Universe};
use air_lattice::{Budget, Governor};
use air_trace::Tracer;

use crate::gauge::Gauge;
use crate::instances::{jitter, shuffle, Family, Instance, Strategy};
use crate::ledger::{LayerSink, Totals};
use crate::stats::{median, ms, quantile, Outcome};
use crate::Args;

/// Which engine the workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The default memoized bitset engine (`SemCache::new`).
    Enumerative,
    /// The diagram engine (`SemCache::symbolic`, `air verify --engine symbolic`).
    Symbolic,
}

/// Governed ticks one instance may spend (the heaviest instance of
/// either workload spends a few thousand); an instance that runs out
/// fails, and does so on every run.
const FUEL: u64 = 1_000_000;

/// (domain, strategy) pairs of `verify-enum`.
const ENUM_COMBOS: [(&str, Strategy); 4] = [
    ("int", Strategy::Backward),
    ("oct", Strategy::Backward),
    ("karr", Strategy::Backward),
    ("int", Strategy::Forward),
];

/// Nominal sizes of `verify-enum`, one per family and combo in
/// [`ENUM_COMBOS`] order, chosen so each instance takes milliseconds to
/// tens of milliseconds: universes of roughly 10^2 to 5·10^3 stores.
const ENUM_GRID: [(Family, [i64; 4]); 6] = [
    (Family::Countdown, [16, 28, 26, 26]),
    (Family::Triangular, [9, 9, 8, 8]),
    (Family::Gauss, [220, 180, 350, 500]),
    (Family::TwoPhase, [10, 10, 8, 6]),
    (Family::Division, [19, 19, 22, 14]),
    (Family::BranchChain, [26, 26, 11, 26]),
];

/// Nominal sizes of `verify-sym` (Int domain, backward repair — the
/// configuration `air verify --engine symbolic` runs natively on
/// diagrams). Triangular and gauss are left out: their diagram shape is
/// pathological (minutes at 10^4 stores).
const SYM_GRID: [(Family, [i64; 2]); 5] = [
    (Family::Countdown, [18, 30]),
    (Family::TwoPhase, [8, 11]),
    (Family::Division, [14, 20]),
    (Family::BranchChain, [18, 30]),
    (Family::CountdownCube, [10, 16]),
];

/// Least number of set-ups per run (`setup_s` is their median).
pub const SETUPS: usize = 7;

/// Side of the `countdown-cube` anchor (`101^3 = 1,030,301` stores).
const SYM_ANCHOR: i64 = 100;

/// The seeded instance list of a workload: a stratified draw (every
/// family, size class, combo and intended truth value appears in every
/// draw; the seed jitters each size and the order).
pub fn draw(engine: Engine, seed: u64) -> Vec<Instance> {
    let mut rng = XorShift::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut out = Vec::new();
    match engine {
        Engine::Enumerative => {
            for scale in [60, 80, 100] {
                for (family, sizes) in ENUM_GRID {
                    for ((domain, strategy), nominal) in ENUM_COMBOS.iter().zip(sizes) {
                        for holds in [true, false] {
                            let param = jitter(&mut rng, nominal * scale / 100, 5);
                            out.push(family.instance(param, holds, domain, *strategy));
                        }
                    }
                }
            }
        }
        Engine::Symbolic => {
            for _ in 0..5 {
                for (family, sizes) in SYM_GRID {
                    for nominal in sizes {
                        for holds in [true, false] {
                            let param = jitter(&mut rng, nominal, 5);
                            out.push(family.instance(param, holds, "int", Strategy::Backward));
                        }
                    }
                }
            }
            let side = jitter(&mut rng, SYM_ANCHOR, 1);
            out.push(Family::CountdownCube.instance(side, true, "int", Strategy::Backward));
        }
    }
    shuffle(&mut rng, &mut out);
    out
}

/// An instance with everything set-up builds: universe, pre/spec sets
/// and base domain.
struct Prepared {
    inst: Instance,
    universe: Universe,
    pre: StateSet,
    spec: StateSet,
    domain: EnumDomain,
}

/// Set-up time split by layer.
#[derive(Default)]
struct SetupCost {
    universe_ms: f64,
    sat_ms: f64,
    domain_ms: f64,
}

fn build_domain(name: &str, u: &Universe) -> EnumDomain {
    match name {
        "int" => EnumDomain::from_abstraction(u, IntervalEnv::new(u)),
        "oct" => EnumDomain::from_abstraction(u, OctagonDomain::new(u)),
        "karr" => EnumDomain::from_abstraction(u, AffineDomain::new(u)),
        other => panic!("no domain `{other}` in the benchmark grid"),
    }
}

/// Repeated set-ups of one instance list: each builds every instance
/// afresh and records its wall time at the reference speed.
struct Setup<'a> {
    instances: &'a [Instance],
    times_s: Vec<f64>,
    /// The split of the latest set-up.
    cost: SetupCost,
}

impl<'a> Setup<'a> {
    fn new(instances: &'a [Instance]) -> Self {
        Setup {
            instances,
            times_s: Vec::new(),
            cost: SetupCost::default(),
        }
    }

    fn run(&mut self) -> Vec<Prepared> {
        self.cost = SetupCost::default();
        let mut gauge = Gauge::start(1);
        let t = Instant::now();
        let prepared = prepare(self.instances, &mut self.cost);
        let measured = t.elapsed().as_secs_f64();
        self.times_s.push(measured / gauge.lap());
        prepared
    }
}

fn prepare(instances: &[Instance], cost: &mut SetupCost) -> Vec<Prepared> {
    instances
        .iter()
        .map(|inst| {
            let t = Instant::now();
            let universe = inst.universe();
            cost.universe_ms += ms(t.elapsed());
            let t = Instant::now();
            let sem = Concrete::new(&universe);
            let sat = |text: &str| {
                sem.sat(&parse_bexp(text).expect("instance formulas parse"))
                    .expect("instance formulas evaluate")
            };
            let pre = sat(&inst.pre);
            let spec = sat(&inst.spec);
            cost.sat_ms += ms(t.elapsed());
            let t = Instant::now();
            let domain = build_domain(inst.domain, &universe);
            cost.domain_ms += ms(t.elapsed());
            Prepared {
                inst: inst.clone(),
                universe,
                pre,
                spec,
                domain,
            }
        })
        .collect()
}

/// The ground truth: `⟦r⟧pre ⊆ spec` by the concrete collecting
/// semantics, with the time it took.
fn ground_truth(p: &Prepared) -> (bool, Duration) {
    let t = Instant::now();
    let post = Concrete::new(&p.universe)
        .exec(&p.inst.program, &p.pre)
        .expect("ground truth evaluates");
    (post.is_subset(&p.spec), t.elapsed())
}

/// One timed verification: fresh caches, a per-instance fuel budget,
/// the `Verifier` call and the report.
struct Run {
    verdict: Result<Verdict, String>,
    elapsed: Duration,
    summarize: Duration,
    fuel: u64,
}

fn verify_one(p: &Prepared, engine: Engine, tracer: &Tracer) -> Run {
    let domain = p.domain.clone_fresh_caches();
    let cache = match engine {
        Engine::Enumerative => SemCache::new(),
        Engine::Symbolic => SemCache::symbolic(),
    };
    let governor = Governor::new(Budget::fuel(FUEL));
    let mut verifier = Verifier::with_cache(&p.universe, cache).governor(governor.clone());
    if tracer.is_enabled() {
        domain.set_tracer(tracer);
        verifier = verifier.tracer(tracer.clone());
    }
    let started = Instant::now();
    let result = match p.inst.strategy {
        Strategy::Backward => verifier.backward(domain, &p.inst.program, &p.pre, &p.spec),
        Strategy::Forward => verifier.forward(domain, &p.inst.program, &p.pre, &p.spec),
    };
    let before_report = Instant::now();
    let verdict = result.map_err(|e| e.to_string()).inspect(|v| {
        std::hint::black_box(v.report(&p.universe));
    });
    let done = Instant::now();
    Run {
        verdict,
        elapsed: done - started,
        summarize: done - before_report,
        fuel: governor.spent(),
    }
}

/// Totals of one measurement phase (a run of whole passes).
#[derive(Default)]
struct Phase {
    /// Per pass, the summed time to verdict of its instances as
    /// measured (the traced spans it is split into are measured too).
    pass_s: Vec<f64>,
    /// Per pass, its wall time including its set-up.
    wall_s: Vec<f64>,
    /// Per instance, its time to verdict in each pass (ms at the
    /// reference speed).
    samples_ms: Vec<Vec<f64>>,
    /// Per instance and pass, the host's slowness over it.
    slowness: Vec<f64>,
    summarize_ms: f64,
    points: u64,
    fuel: u64,
    /// The instances of the last pass and, per instance, its repair
    /// points.
    last_prepared: Vec<Prepared>,
    last_points: Vec<Vec<StateSet>>,
}

/// Whole passes over the instance set while the next one still fits in
/// `budget` (at least one). Each pass starts with a fresh set-up, so the
/// set-ups of a run are spread over it like its passes.
fn measure(
    setup: &mut Setup,
    truth: &[bool],
    engine: Engine,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase {
        samples_ms: vec![Vec::new(); setup.instances.len()],
        ..Phase::default()
    };
    let started = Instant::now();
    while fits(&phase.wall_s, started, budget) {
        let pass_started = Instant::now();
        let prepared = setup.run();
        let mut pass = 0.0;
        phase.last_points.clear();
        let mut gauge = Gauge::start(1);
        for (i, (p, &holds)) in prepared.iter().zip(truth).enumerate() {
            let run = verify_one(p, engine, tracer);
            let slowness = gauge.lap();
            out.attempted += 1;
            let points = match &run.verdict {
                Ok(v) => v.added_points().to_vec(),
                Err(_) => Vec::new(),
            };
            match &run.verdict {
                Ok(v) if v.is_proved() == holds => {}
                Ok(v) => out.fail(format!(
                    "{}: verdict {} but the spec {}",
                    p.inst.label(),
                    if v.is_proved() { "proved" } else { "refuted" },
                    if holds { "holds" } else { "fails" }
                )),
                Err(e) => out.fail(format!("{}: {e}", p.inst.label())),
            }
            let t = ms(run.elapsed);
            pass += t;
            phase.samples_ms[i].push(t / slowness);
            phase.slowness.push(slowness);
            phase.summarize_ms += ms(run.summarize);
            phase.fuel += run.fuel;
            phase.points += points.len() as u64;
            phase.last_points.push(points);
        }
        phase.pass_s.push(pass / 1e3);
        phase.wall_s.push(pass_started.elapsed().as_secs_f64());
        phase.last_prepared = prepared;
    }
    phase
}

/// Whether another pass fits: always the first; afterwards only while
/// the elapsed time plus the longest pass so far stays within `budget`.
pub fn fits(passes_s: &[f64], started: Instant, budget: Duration) -> bool {
    let longest = passes_s.iter().copied().fold(0.0, f64::max);
    passes_s.is_empty() || started.elapsed().as_secs_f64() + longest <= budget.as_secs_f64()
}

/// `from_bitset`/`to_bitset` round trips of every instance's pre, spec
/// and repair points; a round trip that changes the set is a failure.
fn sym_convert(prepared: &[Prepared], points: &[Vec<StateSet>], out: &mut Outcome) -> f64 {
    let mut total = Duration::ZERO;
    for (p, points) in prepared.iter().zip(points) {
        let sym = SymEngine::new(&p.universe);
        for set in [&p.pre, &p.spec].into_iter().chain(points) {
            let t = Instant::now();
            let back = sym.to_set(&sym.from_set(set));
            total += t.elapsed();
            out.attempted += 1;
            if &back != set {
                out.fail(format!("{}: bitset/diagram round trip", p.inst.label()));
            }
        }
    }
    ms(total)
}

pub fn run(engine: Engine, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let instances = draw(engine, args.seed);
    let mut setup = Setup::new(&instances);
    let prepared = setup.run();
    let mut exec_ref_ms = 0.0;
    let truth: Vec<bool> = prepared
        .iter()
        .map(|p| {
            let (holds, t) = ground_truth(p);
            exec_ref_ms += ms(t);
            holds
        })
        .collect();
    eprintln!(
        "{}: {} instances, {} with specs that hold, {}..{} stores",
        args.workload,
        instances.len(),
        truth.iter().filter(|&&h| h).count(),
        instances.iter().map(Instance::states).min().unwrap_or(0),
        instances.iter().map(Instance::states).max().unwrap_or(0),
    );

    drop(prepared);
    let budget = args.seconds;
    if !args.trace {
        let phase = measure(
            &mut setup,
            &truth,
            engine,
            budget,
            &Tracer::disabled(),
            &mut out,
        );
        while setup.times_s.len() < SETUPS {
            setup.run();
        }
        report_e2e(&mut out, median(&setup.times_s), &phase);
        return out;
    }

    // Traced run: untraced passes first (the tracing overhead baseline),
    // then traced passes whose sink totals give the layer rows.
    let plain = measure(
        &mut setup,
        &truth,
        engine,
        budget / 2,
        &Tracer::disabled(),
        &mut out,
    );
    let sink = LayerSink::new();
    let traced = measure(
        &mut setup,
        &truth,
        engine,
        budget / 2,
        &sink.tracer(),
        &mut out,
    );
    let totals = sink.take();
    let passes = traced.pass_s.len() as f64;
    let convert_ms = sym_convert(&traced.last_prepared, &traced.last_points, &mut out);
    layer_metrics(&mut out, &totals, &traced, passes);
    out.set("lang.exec_ref_ms", exec_ref_ms, "ms");
    let cost = &setup.cost;
    out.set("lang.sat_ms", cost.sat_ms, "ms");
    out.set("domains.build_ms", cost.domain_ms, "ms");
    out.set("lattice.sym_convert_ms", convert_ms, "ms");
    let base: f64 = per_instance(&plain).iter().sum();
    let with_trace: f64 = per_instance(&traced).iter().sum();
    out.set(
        "trace.overhead_pct",
        (with_trace - base) / base * 100.0,
        "%",
    );
    eprintln!(
        "set-up (last): universes {:.1} ms, pre/spec sat {:.1} ms, domains {:.1} ms",
        cost.universe_ms, cost.sat_ms, cost.domain_ms
    );
    out
}

/// End-to-end metrics, at the reference speed (see `gauge`). Each
/// instance's time to verdict is the median over its passes.
fn report_e2e(out: &mut Outcome, setup_s: f64, phase: &Phase) {
    let typical_ms = per_instance(phase);
    let work_ms: f64 = typical_ms.iter().sum();
    out.set("setup_s", setup_s, "s");
    out.set("work_s", work_ms / 1e3, "s");
    out.set("latency_p50_ms", quantile(&typical_ms, 0.5), "ms");
    out.set("latency_p90_ms", quantile(&typical_ms, 0.9), "ms");
    eprintln!(
        "verify: {} passes {:?} s as measured, host slowness p10/p50/p90 {:.2}/{:.2}/{:.2}, {} instances (p90 has {} beyond it)",
        phase.pass_s.len(),
        phase.pass_s,
        quantile(&phase.slowness, 0.1),
        quantile(&phase.slowness, 0.5),
        quantile(&phase.slowness, 0.9),
        typical_ms.len(),
        typical_ms.len() / 10
    );
}

/// Per instance, the median of its times to verdict at the reference
/// speed.
fn per_instance(phase: &Phase) -> Vec<f64> {
    phase.samples_ms.iter().map(|runs| median(runs)).collect()
}

/// Per-pass layer rows from the traced passes. The ledger rows —
/// repair, verify-other, summarize and other — add up to the traced
/// time to verdict of one pass.
fn layer_metrics(out: &mut Outcome, t: &Totals, traced: &Phase, passes: f64) {
    let per_pass = |v: f64| v / passes;
    let count = |v: u64| v as f64 / passes;
    let verify = t.span_ms("verify.backward") + t.span_ms("verify.forward");
    let repair_b = t.span_ms("repair.backward");
    let repair_f = t.span_ms("repair.forward");
    let e2e: f64 = traced.pass_s.iter().sum::<f64>() * 1e3;
    out.set("core.verify_ms", per_pass(verify), "ms");
    out.set("core.repair_backward_ms", per_pass(repair_b), "ms");
    out.set("core.repair_forward_ms", per_pass(repair_f), "ms");
    out.set(
        "core.verify_other_ms",
        per_pass(verify - repair_b - repair_f),
        "ms",
    );
    out.set("core.summarize_ms", per_pass(traced.summarize_ms), "ms");
    out.set("ledger.e2e_ms", per_pass(e2e), "ms");
    out.set(
        "ledger.other_ms",
        per_pass(e2e - verify - traced.summarize_ms),
        "ms",
    );
    for table in ["exec", "wlp", "sat"] {
        out.set(
            &format!("lang.{table}_hits"),
            count(t.cache(table, "hit")),
            "count",
        );
        out.set(
            &format!("lang.{table}_misses"),
            count(t.cache(table, "miss")),
            "count",
        );
    }
    let bypasses = ["exec", "wlp", "sat"]
        .iter()
        .map(|table| t.cache(table, "bypass"))
        .sum::<u64>();
    out.set("lang.cache_bypasses", count(bypasses), "count");
    out.set(
        "lang.exec_hit_rate",
        rate(t.cache("exec", "hit"), t.cache("exec", "miss")),
        "ratio",
    );
    out.set(
        "core.closure_hits",
        count(t.cache("closure", "hit")),
        "count",
    );
    out.set(
        "core.closure_misses",
        count(t.cache("closure", "miss")),
        "count",
    );
    out.set(
        "core.closure_hit_rate",
        rate(t.cache("closure", "hit"), t.cache("closure", "miss")),
        "ratio",
    );
    out.set(
        "core.backward_calls",
        count(t.counter("backward.calls")),
        "count",
    );
    out.set(
        "core.inv_iterations",
        count(t.counter("backward.inv_iterations")),
        "count",
    );
    out.set(
        "core.incompleteness",
        count(t.kind("incompleteness")),
        "count",
    );
    out.set("core.shell_points", count(t.kind("shell_point")), "count");
    out.set("core.points_added", count(traced.points), "count");
    out.set("core.fuel_spent", count(traced.fuel), "count");
}

pub fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(instances: &[Instance]) -> Vec<String> {
        instances.iter().map(Instance::label).collect()
    }

    #[test]
    fn same_seed_same_instance_list() {
        for engine in [Engine::Enumerative, Engine::Symbolic] {
            assert_eq!(labels(&draw(engine, 3)), labels(&draw(engine, 3)));
            assert_ne!(labels(&draw(engine, 3)), labels(&draw(engine, 4)));
        }
        // Enough instances that p90 has ten beyond it.
        assert!(draw(Engine::Enumerative, 1).len() >= 100);
        assert!(draw(Engine::Symbolic, 1).len() >= 100);
    }

    #[test]
    fn instances_round_trip_through_surface_syntax() {
        for engine in [Engine::Enumerative, Engine::Symbolic] {
            for inst in draw(engine, 1) {
                let text = inst.program.to_source();
                assert_eq!(
                    air_lang::parse_program(&text).as_ref(),
                    Ok(&inst.program),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn counts_and_verdicts_repeat_exactly() {
        let mut small = draw(Engine::Enumerative, 9);
        small.sort_by_key(Instance::states);
        small.truncate(8);
        let mut setup = Setup::new(&small);
        let truth: Vec<bool> = setup.run().iter().map(|p| ground_truth(p).0).collect();
        let mut counts = || {
            let sink = LayerSink::new();
            let mut out = Outcome::default();
            let phase = measure(
                &mut setup,
                &truth,
                Engine::Enumerative,
                Duration::ZERO,
                &sink.tracer(),
                &mut out,
            );
            assert_eq!(out.failed, 0, "{:?}", out.errors);
            let t = sink.take();
            (
                phase.points,
                phase.fuel,
                t.cache("closure", "miss"),
                t.cache("exec", "miss"),
                t.counter("backward.calls"),
                t.kind("shell_point"),
            )
        };
        let first = counts();
        assert!(first.0 > 0 && first.2 > 0);
        assert_eq!(first, counts());
    }
}
