//! `campaign`: `air fuzz run --shards 2 --no-shrink` over seeded case
//! ranges, each report checked byte for byte against the in-process
//! `air_fuzz::run_campaign` of the same seeds.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use air_fuzz::{diff, oracles, run_campaign, FuzzCase, FuzzOptions};
use air_lang::gen::XorShift;
use air_trace::json::{self, Value};

use crate::gauge::Gauge;
use crate::stats::{ms, quantile, Outcome};
use crate::verify::fits;
use crate::Args;

/// Worker processes of the sharded campaign.
const SHARDS: u64 = 2;
/// Distinct case ranges per run; invocations cycle through them.
const CHUNKS: usize = 8;
/// Cases per invocation.
const CASES: u64 = 200;
/// Cases of a set-up invocation: one per worker, so each set-up spawns
/// the whole fleet, hands every worker a lease and shuts it down.
const SETUP_CASES: u64 = SHARDS;
/// Set-up invocations per run (`setup_s` is their mean).
const SETUP_RUNS: usize = 21;

/// The seeded case ranges: `CHUNKS` consecutive ranges from a base
/// drawn from the seed.
pub fn chunks(seed: u64) -> Vec<u64> {
    let mut rng = XorShift::new(seed ^ 0xA076_1D64_78BD_642F);
    let base = rng.below(1 << 30) as u64 * 1000;
    (0..CHUNKS as u64).map(|k| base + k * CASES).collect()
}

fn options(base_seed: u64, cases: u64) -> FuzzOptions {
    FuzzOptions {
        base_seed,
        cases,
        shrink: false,
        ..FuzzOptions::default()
    }
}

/// One sharded invocation: wall time, the report line and the fleet
/// events of its trace (when traced).
struct Invocation {
    wall: Duration,
    report: Option<String>,
    error: Option<String>,
    fleet: [u64; 3],
}

fn invoke(air: &Path, base: u64, cases: u64, temp: &Path, trace: Option<&Path>) -> Invocation {
    let mut cmd = Command::new(air);
    cmd.args(["fuzz", "run", "--no-shrink", "--stats-json"])
        .args(["--seed", &base.to_string(), "--cases", &cases.to_string()])
        .args(["--shards", &SHARDS.to_string()])
        .arg("--corpus-dir")
        .arg(temp.join("fuzz-failures"));
    if let Some(t) = trace {
        cmd.arg("--trace").arg(t);
    }
    let started = Instant::now();
    let output = cmd.output();
    let wall = started.elapsed();
    let mut inv = Invocation {
        wall,
        report: None,
        error: None,
        fleet: [0; 3],
    };
    match output {
        Err(e) => inv.error = Some(format!("cannot run {}: {e}", air.display())),
        Ok(o) if !o.status.success() => {
            inv.error = Some(format!(
                "`air fuzz run --seed {base}` exited with {}: {}",
                o.status,
                String::from_utf8_lossy(&o.stderr).trim()
            ))
        }
        Ok(o) => {
            inv.report = String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .map(str::to_string)
        }
    }
    if let Some(t) = trace {
        inv.fleet = fleet_events(t);
    }
    inv
}

/// Counts one invocation and fails it unless it succeeded with exactly
/// the in-process report.
fn check(inv: &Invocation, base: u64, expected: &str, out: &mut Outcome) {
    out.attempted += 1;
    if let Some(e) = &inv.error {
        out.fail(e.clone());
    } else if inv.report.as_deref() != Some(expected) {
        out.fail(format!(
            "sharded report for seeds {base}.. differs from the in-process one: {:?}",
            inv.report
        ));
    }
}

/// `lease_issued`, `lease_stolen` and `worker_lost` events of a
/// coordinator trace.
fn fleet_events(trace: &Path) -> [u64; 3] {
    let text = std::fs::read_to_string(trace).unwrap_or_default();
    let mut counts = [0; 3];
    for line in text.lines() {
        let kind = json::parse(line)
            .ok()
            .and_then(|v| v.get("kind").and_then(Value::as_str).map(str::to_string));
        match kind.as_deref() {
            Some("lease_issued") => counts[0] += 1,
            Some("lease_stolen") => counts[1] += 1,
            Some("worker_lost") => counts[2] += 1,
            _ => {}
        }
    }
    counts
}

/// Sharded invocations over the chunks until the budget is spent.
struct Tally {
    walls_s: Vec<f64>,
    /// Per chunk, its fastest invocation at the reference speed (gauged
    /// over the invocation). Every invocation of a chunk does the same
    /// work; a run repeats each chunk only three or four times, too few
    /// for a steady median.
    best_s: Vec<f64>,
    /// Per chunk, its fastest invocation as measured (the ledger splits
    /// this one: its rows are measured times).
    best_measured_s: Vec<f64>,
    /// Per invocation, the host's slowness over it.
    slowness: Vec<f64>,
    fleet: [u64; 3],
}

impl Tally {
    /// One pass over every chunk at its fastest.
    fn pass_s(&self) -> f64 {
        self.best_s.iter().sum()
    }
}

fn measure(
    air: &Path,
    bases: &[u64],
    expected: &[String],
    temp: &Path,
    traced: bool,
    budget: Duration,
    out: &mut Outcome,
) -> Tally {
    let mut tally = Tally {
        walls_s: Vec::new(),
        best_s: vec![f64::INFINITY; bases.len()],
        best_measured_s: vec![f64::INFINITY; bases.len()],
        slowness: Vec::new(),
        fleet: [0; 3],
    };
    let started = Instant::now();
    let mut k = 0;
    while k < bases.len() || fits(&tally.walls_s, started, budget) {
        let chunk = k % bases.len();
        let trace = temp.join(format!("trace-{k}.jsonl"));
        k += 1;
        let mut gauge = Gauge::start(SHARDS as usize);
        let inv = invoke(
            air,
            bases[chunk],
            CASES,
            temp,
            traced.then_some(trace.as_path()),
        );
        let slowness = gauge.lap();
        check(&inv, bases[chunk], &expected[chunk], out);
        tally.walls_s.push(inv.wall.as_secs_f64());
        tally.slowness.push(slowness);
        tally.best_s[chunk] = tally.best_s[chunk].min(inv.wall.as_secs_f64() / slowness);
        tally.best_measured_s[chunk] = tally.best_measured_s[chunk].min(inv.wall.as_secs_f64());
        for (total, n) in tally.fleet.iter_mut().zip(inv.fleet) {
            *total += n;
        }
        let _ = std::fs::remove_file(&trace);
    }
    tally
}

/// Per-case layer costs of the in-process replay: the calls
/// `air_fuzz::replay_case` makes, each timed from outside.
#[derive(Default)]
struct Replay {
    case_ms: f64,
    build_ms: f64,
    oracle_ms: Vec<f64>,
    diff_ms: f64,
    oracle_runs: u64,
}

fn replay(bases: &[u64], cases: u64) -> Replay {
    let registry = oracles::registry();
    let mut r = Replay {
        oracle_ms: vec![0.0; registry.len()],
        ..Replay::default()
    };
    for &base in bases {
        for seed in base..base + cases {
            let started = Instant::now();
            let case = FuzzCase::generate(seed);
            let t = Instant::now();
            let built = case.build();
            r.build_ms += ms(t.elapsed());
            if let Ok(built) = built {
                for (i, (name, _)) in registry.iter().enumerate() {
                    let t = Instant::now();
                    let verdict = oracles::run(name, &built);
                    r.oracle_ms[i] += ms(t.elapsed());
                    r.oracle_runs += u64::from(matches!(verdict, Some(Ok(_))));
                }
                let t = Instant::now();
                std::hint::black_box(diff::differential_sweep(&built).ok());
                r.diff_ms += ms(t.elapsed());
            }
            r.case_ms += ms(started.elapsed());
        }
    }
    r
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(air) = args.air.as_deref() else {
        out.fail("the campaign workload needs --air PATH (the `air` binary)".into());
        return out;
    };
    // The differential sweep injects panics on purpose and catches them;
    // silence their backtraces exactly as `air fuzz` does.
    air_resilience::install_quiet_fault_hook();
    let temp = args.temp_dir.join("campaign");
    std::fs::create_dir_all(&temp).expect("create the temp directory");
    let bases = chunks(args.seed);
    // Set-up: a sharded invocation with one case per worker — process
    // start, spawning and handshaking the fleet, one lease each, shutdown
    // and the merge — checked like every other invocation. The shutdown
    // waits for exiting workers in 20 ms polls, so a set-up takes one
    // poll or none, and which one varies from set-up to set-up: the
    // median of a few set-ups jumps between the two, so `setup_s` is the
    // mean of many.
    let setup_expected = run_campaign(&options(bases[0], SETUP_CASES)).to_json();
    let setups: Vec<f64> = (0..SETUP_RUNS)
        .map(|_| {
            let mut gauge = Gauge::start(SHARDS as usize);
            let inv = invoke(air, bases[0], SETUP_CASES, &temp, None);
            let slowness = gauge.lap();
            check(&inv, bases[0], &setup_expected, &mut out);
            inv.wall.as_secs_f64() / slowness
        })
        .collect();
    // Ground truth: the single-process reports of the same seeds.
    let expected: Vec<String> = bases
        .iter()
        .map(|&b| {
            let report = run_campaign(&options(b, CASES));
            if !report.is_clean() {
                out.fail(format!(
                    "campaign from seed {b} is not clean: {}",
                    report.to_json()
                ));
            }
            report.to_json()
        })
        .collect();
    eprintln!(
        "campaign: {CHUNKS} ranges of {CASES} cases from seed {}, {SHARDS} shards; set-ups {setups:?} s",
        bases[0]
    );
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let plain = measure(air, &bases, &expected, &temp, false, budget, &mut out);
    if !args.trace {
        let best_ms: Vec<f64> = plain.best_s.iter().map(|s| s * 1e3).collect();
        out.set(
            "setup_s",
            setups.iter().sum::<f64>() / setups.len() as f64,
            "s",
        );
        out.set("work_s", plain.pass_s(), "s");
        out.set("latency_p50_ms", quantile(&best_ms, 0.5), "ms");
        out.set("latency_p90_ms", quantile(&best_ms, 0.9), "ms");
        eprintln!(
            "campaign: {} sharded invocations, fastest per range at the reference speed {best_ms:?} ms, host slowness {:?}",
            plain.walls_s.len(),
            plain.slowness
        );
        return out;
    }

    let traced = measure(air, &bases, &expected, &temp, true, budget, &mut out);
    let r = replay(&bases, CASES);
    let cases = (bases.len() as u64 * CASES) as f64;
    let per_case = |v: f64| v / cases;
    // Ledger per case: shards × sharded wall = in-process case time
    // (build + oracles + diff + other) + dist overhead.
    let measured_s: f64 = traced.best_measured_s.iter().sum();
    let e2e = SHARDS as f64 * measured_s * 1e3 / cases;
    let oracles_ms: f64 = r.oracle_ms.iter().sum();
    out.set("fuzz.case_ms", per_case(r.case_ms), "ms");
    out.set("fuzz.build_ms", per_case(r.build_ms), "ms");
    for ((name, _), t) in oracles::registry().iter().zip(&r.oracle_ms) {
        out.set(&format!("fuzz.oracle.{name}_ms"), per_case(*t), "ms");
    }
    out.set("fuzz.diff_ms", per_case(r.diff_ms), "ms");
    out.set("fuzz.oracle_runs", r.oracle_runs as f64, "count");
    let invocations = traced.walls_s.len() as f64;
    out.set(
        "dist.leases_issued",
        traced.fleet[0] as f64 / invocations,
        "count",
    );
    out.set(
        "dist.leases_stolen",
        traced.fleet[1] as f64 / invocations,
        "count",
    );
    out.set(
        "dist.workers_lost",
        traced.fleet[2] as f64 / invocations,
        "count",
    );
    out.set("dist.efficiency", per_case(r.case_ms) / e2e, "ratio");
    out.set("dist.overhead_ms_per_case", e2e - per_case(r.case_ms), "ms");
    out.set("ledger.e2e_ms", e2e, "ms");
    out.set(
        "ledger.other_ms",
        per_case(r.case_ms - r.build_ms - oracles_ms - r.diff_ms),
        "ms",
    );
    let base = plain.pass_s();
    out.set(
        "trace.overhead_pct",
        (traced.pass_s() - base) / base * 100.0,
        "%",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case_ranges() {
        assert_eq!(chunks(7), chunks(7));
        assert_ne!(chunks(7), chunks(8));
        assert_eq!(chunks(7).len(), CHUNKS);
    }

    #[test]
    fn oracle_runs_repeat_exactly() {
        air_resilience::install_quiet_fault_hook();
        let bases = [chunks(3)[0]];
        let (a, b) = (replay(&bases, 4), replay(&bases, 4));
        assert!(a.oracle_runs > 0);
        assert_eq!(a.oracle_runs, b.oracle_runs);
    }
}
