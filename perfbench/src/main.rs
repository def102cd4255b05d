//! The repository benchmark.
//!
//! ```text
//! perfbench --workload verify-enum|verify-sym|serve-edit|campaign
//!           --seed N --seconds S --trace 0|1 [--air PATH] [--temp-dir DIR]
//! ```
//!
//! Draws the workload's inputs from `--seed`, measures for `--seconds`,
//! checks every verdict, response and report against ground truth
//! computed outside the timed region, and prints one JSON result line
//! last on standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics (see `perfbench/README.md`).
//! Exits 1 when any operation failed, 2 on a usage error.

mod campaign;
mod gauge;
mod instances;
mod ledger;
mod serve;
mod stats;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::Outcome;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Throughput is not among them: each workload does a fixed number of
/// operations, so operations per second is that number over `work_s`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("core.verify_ms", "ms"),
    ("core.repair_backward_ms", "ms"),
    ("core.repair_forward_ms", "ms"),
    ("core.verify_other_ms", "ms"),
    ("core.summarize_ms", "ms"),
    ("lang.exec_hits", "count"),
    ("lang.exec_misses", "count"),
    ("lang.wlp_hits", "count"),
    ("lang.wlp_misses", "count"),
    ("lang.sat_hits", "count"),
    ("lang.sat_misses", "count"),
    ("lang.cache_bypasses", "count"),
    ("lang.exec_hit_rate", "ratio"),
    ("core.closure_hits", "count"),
    ("core.closure_misses", "count"),
    ("core.closure_hit_rate", "ratio"),
    ("core.backward_calls", "count"),
    ("core.inv_iterations", "count"),
    ("core.incompleteness", "count"),
    ("core.shell_points", "count"),
    ("core.points_added", "count"),
    ("core.fuel_spent", "count"),
    ("lang.exec_ref_ms", "ms"),
    ("lattice.sym_convert_ms", "ms"),
    ("lang.sat_ms", "ms"),
    ("domains.build_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.admit_queue_encode_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.warm_share", "ratio"),
    ("core.session_reuse_ratio", "ratio"),
    ("fuzz.case_ms", "ms"),
    ("fuzz.build_ms", "ms"),
    ("fuzz.oracle.forward_repair_ms", "ms"),
    ("fuzz.oracle.backward_repair_ms", "ms"),
    ("fuzz.oracle.soundness_ms", "ms"),
    ("fuzz.oracle.sup_l_ms", "ms"),
    ("fuzz.oracle.pointed_shell_ms", "ms"),
    ("fuzz.oracle.guard_shell_ms", "ms"),
    ("fuzz.oracle.convexity_ms", "ms"),
    ("fuzz.oracle.pointed_widening_ms", "ms"),
    ("fuzz.oracle.lcl_spec_ms", "ms"),
    ("fuzz.oracle.cegar_spuriousness_ms", "ms"),
    ("fuzz.diff_ms", "ms"),
    ("fuzz.oracle_runs", "count"),
    ("dist.leases_issued", "count"),
    ("dist.leases_stolen", "count"),
    ("dist.workers_lost", "count"),
    ("dist.efficiency", "ratio"),
    ("dist.overhead_ms_per_case", "ms"),
    ("trace.overhead_pct", "%"),
    ("ledger.e2e_ms", "ms"),
    ("ledger.other_ms", "ms"),
];

/// Per workload, the ledger rows: disjoint shares of `ledger.e2e_ms`
/// that, with `ledger.other_ms`, add up to it.
fn ledger_rows(workload: &str) -> Vec<&'static str> {
    match workload {
        "serve-edit" => vec![
            "serve.job_ms",
            "serve.admit_queue_encode_ms",
            "serve.wire_ms",
        ],
        "campaign" => PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| {
                n.starts_with("fuzz.oracle.") || *n == "fuzz.build_ms" || *n == "fuzz.diff_ms"
            })
            .chain(["dist.overhead_ms_per_case"])
            .collect(),
        _ => vec![
            "core.repair_backward_ms",
            "core.repair_forward_ms",
            "core.verify_other_ms",
            "core.summarize_ms",
        ],
    }
}

/// Prints the ledger of a traced run: every row, `other`, and their sum
/// beside the end-to-end time they split.
fn print_ledger(workload: &str, out: &Outcome) {
    let value = |n: &str| out.metrics.get(n).map_or(0.0, |m| m.value);
    let mut sum = 0.0;
    eprintln!(
        "ledger ({workload}, ms per {}):",
        match workload {
            "serve-edit" => "request",
            "campaign" => "case",
            _ => "pass",
        }
    );
    for row in ledger_rows(workload).into_iter().chain(["ledger.other_ms"]) {
        sum += value(row);
        eprintln!("  {row:<38} {:>14.4}", value(row));
    }
    eprintln!(
        "  {:<38} {sum:>14.4} (ledger.e2e_ms {:.4})",
        "sum",
        value("ledger.e2e_ms")
    );
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["verify-enum", "verify-sym", "serve-edit", "campaign"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `air` binary (the campaign workload runs it).
    pub air: Option<PathBuf>,
    /// Where runs may write temporary files.
    pub temp_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        air: None,
        temp_dir: PathBuf::from(".bench_build/perfbench-tmp"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(value)?,
            "--seconds" => args.seconds = Duration::from_secs(num(value)?.max(1)),
            "--trace" => args.trace = num(value)? != 0,
            "--air" => args.air = Some(PathBuf::from(value)),
            "--temp-dir" => args.temp_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Outcome {
    let mut out = match args.workload.as_str() {
        "verify-enum" => verify::run(verify::Engine::Enumerative, args),
        "verify-sym" => verify::run(verify::Engine::Symbolic, args),
        "serve-edit" => serve::run(args),
        "campaign" => campaign::run(args),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    if args.trace {
        print_ledger(&args.workload, &out);
        // Every declared layer metric appears; idle layers read 0.
        for (name, unit) in PER_LAYER {
            out.metrics
                .entry(name.to_string())
                .or_insert(stats::Metric { value: 0.0, unit });
        }
        out.metrics
            .retain(|name, _| PER_LAYER.iter().any(|(n, _)| n == name));
    } else {
        out.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        out.metrics
            .retain(|name, _| END_TO_END.iter().any(|(n, _)| n == name));
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    for (name, m) in &out.metrics {
        eprintln!("  {name:<38} {:>14.4} {}", m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed (failed_share {:.4})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", out.result_line());
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use air_trace::json::{self, Value};

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(well_formed(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn usage_errors_are_rejected() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--workload", "campaign", "--seed"])).is_err());
        let ok = parse_args(&argv(&[
            "--workload",
            "campaign",
            "--seed",
            "4",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert!(ok.trace && ok.seed == 4);
    }
}
