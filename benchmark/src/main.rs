//! The one benchmark for the whole ROX stack.
//!
//! ```text
//! rox-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result as JSON
//!     (--trace 0: the end-to-end metrics, --trace 1: the per-layer ones)
//! rox-benchmark [--seed <n>] [--seconds <s>] [--smoke]
//!     every workload untraced then traced; prints one
//!     `workload metric value unit` line per metric and writes
//!     out/results.json
//! rox-benchmark --repeat <k> [--seed <n>] [--seconds <s>]
//!     k untraced runs per workload on seeds n, n+1, ...; prints each
//!     end-to-end metric's quartile spread against its bound
//! rox-benchmark --compare <a.json> <b.json>
//!     per-metric relative difference; exits 1 on a bound breach
//! ```
//!
//! See the README beside this package for what the workloads are and why.

mod compare;
mod gen;
mod json;
mod metrics;
mod phases;
mod probes;
mod procfs;
mod stats;
mod trace;
mod walio;
mod workloads;

use metrics::{MetricDef, END_TO_END};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome, NAMES};

/// Window length when `--seconds` is not given (what `BENCHMARK.json`
/// passes).
const DEFAULT_SECONDS: f64 = 16.0;

/// Window length of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    compare: Option<(String, String)>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: None,
        compare: None,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one workload in its own scratch directory, which is removed again.
fn run_one(name: &str, args: &Args, seed: u64, trace: bool) -> Result<Outcome, String> {
    let scratch = args.out.join(format!("tmp-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let outcome = workloads::run(name, &ctx);
    std::fs::remove_dir_all(&scratch).ok();
    let outcome = outcome.ok_or_else(|| format!("unknown workload {name:?}; one of {NAMES:?}"))?;
    if let Some(trace) = &outcome.trace {
        let path = args.out.join(format!("trace-{name}.json"));
        trace
            .write_json(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for broken in &outcome.invariants {
        eprintln!("INVARIANT BROKEN ({name}): {broken}");
    }
    Ok(outcome)
}

fn correct(outcome: &Outcome) -> bool {
    outcome.tally.failed == 0 && outcome.invariants.is_empty() && outcome.tally.attempted > 0
}

fn metrics_json(values: &[(&'static MetricDef, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The builder contract's result line.
fn result_line(outcome: &Outcome) -> Result<String, String> {
    let values = outcome.values.complete()?;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct(outcome),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_json(&values)
    ))
}

fn single(name: &str, args: &Args) -> Result<ExitCode, String> {
    let outcome = run_one(name, args, args.seed, args.trace)?;
    println!("{}", result_line(&outcome)?);
    Ok(ExitCode::SUCCESS)
}

/// Every workload, untraced then traced; human-readable lines plus
/// `results.json`.
fn full(args: &Args) -> Result<ExitCode, String> {
    let mut json = String::new();
    let mut all_correct = true;
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"seed\": {}, \"smoke\": {}, \"cores\": {},",
        args.seed,
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
    .unwrap();
    writeln!(json, "  \"workloads\": {{").unwrap();
    for (i, name) in NAMES.iter().enumerate() {
        let untraced = run_one(name, args, args.seed, false)?;
        let traced = run_one(name, args, args.seed, true)?;
        let attempted = untraced.tally.attempted + traced.tally.attempted;
        let failed = untraced.tally.failed + traced.tally.failed;
        all_correct &= correct(&untraced) && correct(&traced);
        let e2e = untraced.values.complete()?;
        let layer = traced.values.complete()?;
        for (d, v) in e2e.iter().chain(&layer) {
            println!("{name} {} {v} {}", d.name, d.unit);
        }
        let failed_share = failed as f64 / attempted.max(1) as f64;
        println!("{name} failed_share {failed_share} share");
        writeln!(
            json,
            "    \"{name}\": {{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"failed_share\": {failed_share},",
            correct(&untraced) && correct(&traced)
        )
        .unwrap();
        writeln!(json, "      \"end_to_end\": {},", metrics_json(&e2e)).unwrap();
        writeln!(json, "      \"per_layer\": {}", metrics_json(&layer)).unwrap();
        let comma = if i + 1 < NAMES.len() { "," } else { "" };
        writeln!(json, "    }}{comma}").unwrap();
    }
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();
    let path = args.out.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `k` untraced runs per workload on consecutive seeds: the quartile
/// spread of every end-to-end metric against its bound.
fn repeat(k: usize, args: &Args) -> Result<ExitCode, String> {
    let mut steady = true;
    println!(
        "{:<16} {:<28} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    for name in NAMES
        .iter()
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == **n))
    {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for r in 0..k {
            let outcome = run_one(name, args, args.seed + r as u64, false)?;
            if !correct(&outcome) {
                return Err(format!(
                    "{name} seed {} was not correct",
                    args.seed + r as u64
                ));
            }
            for (slot, (_, v)) in samples.iter_mut().zip(outcome.values.complete()?) {
                slot.push(v);
            }
        }
        for (d, values) in END_TO_END.iter().zip(&samples) {
            let spread = stats::quartile_spread(values);
            let wide = d.name != "setup_s" && spread > d.bound / 3.0;
            steady &= !wide;
            println!(
                "{name:<16} {:<28} {:>14.5} {:>8.2}% {:>6.1}%{}",
                d.name,
                stats::median(values),
                spread * 100.0,
                d.bound * 100.0,
                if wide { "  WIDE" } else { "" }
            );
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            eprintln!("  {name} {}: {}", d.name, listed.join(" "));
        }
    }
    Ok(if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rox-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare::compare(a, b).map(|breaches| {
            if breaches == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        })
    } else {
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("{}: {e}", args.out.display()))
            .and_then(|()| match (&args.repeat, &args.workload) {
                (Some(k), _) => repeat(*k, &args),
                (None, Some(name)) => single(name, &args),
                (None, None) => full(&args),
            })
    };
    result.unwrap_or_else(|e| {
        eprintln!("rox-benchmark: {e}");
        ExitCode::from(2)
    })
}
