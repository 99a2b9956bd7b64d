//! The benchmark command.
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench run       [--seed <n>] [--seconds <s>]
//! bench stability [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form measures one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). `run` measures all five workloads and writes
//! `benchmark/results/run.json`; `stability` runs the set twice and holds
//! the two sets of medians against the bounds.

use std::process::ExitCode;

use maritime_benchmark::measure::{describe, measure, RunRecord};
use maritime_benchmark::report::{flag_value, parse_seed, write_result, Meta};
use maritime_benchmark::stats::relative_difference;
use maritime_benchmark::workloads::{Workload, DEFAULT_SEED};
use maritime_benchmark::{trace, DEFAULT_SECONDS, END_TO_END};
use serde_json::{json, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args),
        Some("stability") => stability(&args),
        _ => run_one(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn seed_and_seconds(args: &[String]) -> Result<(u64, f64), String> {
    let seed = flag_value(args, "--seed").map_or(Ok(DEFAULT_SEED), parse_seed)?;
    let seconds = match flag_value(args, "--seconds") {
        Some(text) => text
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or(format!("invalid --seconds {text:?}"))?,
        None => DEFAULT_SECONDS,
    };
    Ok((seed, seconds))
}

/// The driver's form: one workload, one result line.
fn run_one(args: &[String]) -> Result<(), String> {
    let name = flag_value(args, "--workload").ok_or(
        "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | stability",
    )?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let (seed, seconds) = seed_and_seconds(args)?;
    match flag_value(args, "--trace").unwrap_or("0") {
        "0" => {
            let record = measure(workload, seed, seconds)?;
            eprint!("{}", describe(&record));
            println!("{}", to_line(&record.result_line())?);
            fail_on_failures(&[record])
        }
        "1" => {
            let traced = trace::trace_workload(workload, seed, seconds)?;
            eprint!("{}", traced.describe());
            trace::write_traces(std::slice::from_ref(&traced), &Meta::collect())?;
            // A workload that lost its layer is a broken benchmark: no result.
            traced.check()?;
            println!("{}", to_line(&traced.result_line())?);
            Ok(())
        }
        other => Err(format!("invalid --trace {other:?} (0 or 1)")),
    }
}

fn to_line(value: &Value) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("encode result: {e}"))
}

/// A non-zero `failed_share` on any workload fails the command.
fn fail_on_failures(records: &[RunRecord]) -> Result<(), String> {
    let failing: Vec<String> = records
        .iter()
        .filter(|r| r.failed > 0)
        .map(|r| format!("{} (failed_share {})", r.workload.name(), r.failed_share()))
        .collect();
    if failing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "outputs differ from the reference on: {}",
            failing.join(", ")
        ))
    }
}

/// Measures all five workloads; prints every metric; writes `file`.
fn run_set(seed: u64, seconds: f64, meta: &Meta, file: &str) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    for workload in Workload::ALL {
        let record = measure(workload, seed, seconds)?;
        print!("{}", describe(&record));
        records.push(record);
    }
    let value = json!({
        "records": Value::Array(records.iter().map(|r| r.to_json(meta)).collect()),
    });
    let path = write_result(file, &value)?;
    println!("wrote {}", path.display());
    Ok(records)
}

fn run_all(args: &[String]) -> Result<(), String> {
    let (seed, seconds) = seed_and_seconds(args)?;
    fail_on_failures(&run_set(seed, seconds, &Meta::collect(), "run.json")?)
}

/// Runs the whole set twice back to back and prints, per (metric,
/// workload), the two medians, their relative difference and the fixed
/// bound; any breach or failure exits non-zero. The differences seen here
/// are what the bounds in `BENCHMARK.json` were fixed from.
fn stability(args: &[String]) -> Result<(), String> {
    let (seed, seconds) = seed_and_seconds(args)?;
    let meta = Meta::collect();
    let first = run_set(seed, seconds, &meta, "stability-1.json")?;
    let second = run_set(seed, seconds, &meta, "stability-2.json")?;
    println!(
        "\n{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "workload", "set 1", "set 2", "rel.diff", "bound"
    );
    let mut breaches = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        for ((name, _, va), (_, _, vb)) in a.metrics().into_iter().zip(b.metrics()) {
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.bound);
            let diff = relative_difference(va, vb);
            let breach = diff > bound;
            println!(
                "{name:<20} {:<18} {va:>14.4} {vb:>14.4} {diff:>9.4} {bound:>7.2}{}",
                a.workload.name(),
                if breach { "  BREACH" } else { "" }
            );
            if breach {
                breaches.push(format!("{name} on {}", a.workload.name()));
            }
        }
    }
    fail_on_failures(&first)?;
    fail_on_failures(&second)?;
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two sets of the same code disagree beyond the bound: {}",
            breaches.join(", ")
        ))
    }
}
