//! The traced run over the whole set (or one `--workload`): prints each
//! workload's waterfall and per-layer metrics, writes
//! `benchmark/results/trace.json` (Chrome trace format) and
//! `benchmark/results/waterfall.json`, and fails when a workload no
//! longer stresses the layer it exists for.
//!
//! ```text
//! trace [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```

use std::process::ExitCode;

use maritime_benchmark::report::{flag_value, parse_seed, Meta};
use maritime_benchmark::trace::{trace_workload, write_traces};
use maritime_benchmark::workloads::{Workload, DEFAULT_SEED};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let seed = flag_value(args, "--seed").map_or(Ok(DEFAULT_SEED), parse_seed)?;
    // One ladder round per workload unless asked for more.
    let seconds = match flag_value(args, "--seconds") {
        Some(text) => text
            .parse::<f64>()
            .map_err(|e| format!("invalid --seconds {text:?}: {e}"))?,
        None => 0.0,
    };
    let workloads = match flag_value(args, "--workload") {
        Some(name) => vec![Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?],
        None => Workload::ALL.to_vec(),
    };
    let mut traced = Vec::new();
    for workload in workloads {
        let t = trace_workload(workload, seed, seconds)?;
        print!("{}", t.describe());
        traced.push(t);
    }
    write_traces(&traced, &Meta::collect())?;
    let lost: Vec<String> = traced.iter().filter_map(|t| t.check().err()).collect();
    if lost.is_empty() {
        Ok(())
    } else {
        Err(lost.join("; "))
    }
}
