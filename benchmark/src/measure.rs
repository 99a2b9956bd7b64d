//! The end-to-end measurement of one workload: set-up (generate, compute
//! the reference, pre-render, warm up), timed repetitions with tracing
//! off, and the record of what was seen.

use std::time::Instant;

use serde_json::{json, Value};

use crate::passes::{run_blast, run_inprocess, run_paced, BlastBuffer, PacedBuffers, Pass};
use crate::report::{metrics_json, summary_json, Meta};
use crate::stats::{median, percentile, sorted, supports_percentile, Summary};
use crate::workloads::{Input, Mode, Trigger, Workload, DEFAULT_SEED, PACED_RATE};

/// Timed repetitions per run, at least; more while `--seconds` lasts.
pub const MIN_REPETITIONS: usize = 5;

/// Repetitions a run reports from: its fastest. Interference on a shared
/// box is one-sided — a neighbour or the scheduler only ever slows a
/// repetition — and a server at saturation flips between scheduling modes
/// that differ by a quarter, so the median over *all* repetitions of a run
/// moves by more than any bound while the fastest few do not. Every
/// repetition is still checked against the reference and kept in the
/// record.
pub const KEPT_REPETITIONS: usize = 3;

/// Times the whole set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPETITIONS: usize = 3;

/// A paced pass whose generator ran later than this at p90 did not offer
/// the schedule it claims: void, not a result.
pub const MAX_GENERATOR_LATE_MS_P90: f64 = 5.0;

/// Fewest delay samples a run may report percentiles from.
pub const MIN_DELAY_SAMPLES: usize = 140;

/// The pre-rendered wire form of an input, per mode.
enum Rendered {
    InProcess,
    Blast(BlastBuffer),
    Paced(PacedBuffers),
}

/// Everything a timed pass needs, built before the clock starts.
pub struct Prepared {
    pub workload: Workload,
    pub input: Input,
    pub triggers: Vec<Trigger>,
    /// Output of the in-process, single-band, from-scratch run.
    pub reference: Pass,
    rendered: Rendered,
}

impl Prepared {
    /// Generates the input from `seed`, computes the reference output and
    /// pre-renders the wire form.
    pub fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        let input = workload.generate(seed);
        let triggers = input.triggers();
        let (reference, _) = run_inprocess(&input, &input.reference_config(), &triggers)?;
        let rendered = match workload.mode() {
            Mode::InProcess => Rendered::InProcess,
            Mode::Blast => Rendered::Blast(BlastBuffer::render(&input.lines)),
            Mode::Paced => Rendered::Paced(PacedBuffers::render(&input.lines)),
        };
        let prepared = Self {
            workload,
            input,
            triggers,
            reference,
            rendered,
        };
        if seed == DEFAULT_SEED {
            prepared.check_pinned()?;
        }
        Ok(prepared)
    }

    /// One pass of the workload, as its mode offers it.
    pub fn pass(&self) -> Result<Pass, String> {
        match &self.rendered {
            Rendered::InProcess => {
                run_inprocess(&self.input, &self.input.config, &self.triggers).map(|(p, _)| p)
            }
            Rendered::Blast(buffer) => run_blast(&self.input, buffer, &self.triggers),
            Rendered::Paced(buffers) => run_paced(&self.input, buffers, &self.triggers, PACED_RATE),
        }
    }

    /// The default seed's input must be the pinned one.
    fn check_pinned(&self) -> Result<(), String> {
        let pinned = self.workload.pinned();
        let seen = (
            self.input.lines.len(),
            self.reference.digest.queries,
            self.reference.digest.ce_count,
        );
        if seen != (pinned.lines, pinned.queries, pinned.ce_count) {
            return Err(format!(
                "{}: default-seed input drifted: lines/queries/CEs {seen:?}, pinned {:?}",
                self.workload.name(),
                (pinned.lines, pinned.queries, pinned.ce_count)
            ));
        }
        Ok(())
    }
}

/// What one run of one workload measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: Workload,
    pub seed: u64,
    pub lines: usize,
    pub vessels: usize,
    pub hours: i64,
    pub queries: u64,
    pub ce_count: u64,
    pub fingerprint: u64,
    /// Lines offered over all timed repetitions.
    pub ops: u64,
    /// Admitted-line differences plus wire events missing or differing.
    pub failed: u64,
    /// One throughput sample per repetition.
    pub lines_per_s: Vec<f64>,
    /// One wall time per repetition, seconds.
    pub wall_s: Vec<f64>,
    /// Alert delays of each repetition, milliseconds.
    pub delays_ms: Vec<Vec<f64>>,
    /// One sample per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// p90 of the generator's lateness per repetition (paced only).
    pub generator_late_ms_p90: Vec<f64>,
}

impl RunRecord {
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.ops as f64
    }

    /// Indices of the [`KEPT_REPETITIONS`] fastest repetitions.
    #[must_use]
    pub fn kept(&self) -> Vec<usize> {
        fastest(&self.wall_s, KEPT_REPETITIONS)
    }

    /// Throughput of the kept repetitions.
    #[must_use]
    pub fn kept_lines_per_s(&self) -> Vec<f64> {
        self.kept()
            .into_iter()
            .map(|i| self.lines_per_s[i])
            .collect()
    }

    /// Alert delays pooled over the kept repetitions, ascending.
    #[must_use]
    pub fn kept_delays_ms(&self) -> Vec<f64> {
        let pooled: Vec<f64> = self
            .kept()
            .into_iter()
            .flat_map(|i| self.delays_ms[i].iter().copied())
            .collect();
        sorted(&pooled)
    }

    /// The end-to-end metrics by the names of `BENCHMARK.json`.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let delays = self.kept_delays_ms();
        vec![
            ("lines_per_s", "1/s", median(&self.kept_lines_per_s())),
            ("alert_delay_ms_p50", "ms", percentile(&delays, 50.0)),
            ("alert_delay_ms_p90", "ms", percentile(&delays, 90.0)),
            ("setup_s", "s", median(&self.setup_s)),
        ]
    }

    /// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_line(&self) -> Value {
        json!({
            "correct": self.failed == 0,
            "attempted": self.ops,
            "failed": self.failed,
            "metrics": metrics_json(&self.metrics()),
        })
    }

    /// The full record: metrics with their dispersion and sample counts,
    /// the input size, and where and on what it was measured.
    #[must_use]
    pub fn to_json(&self, meta: &Meta) -> Value {
        let delays = self.kept_delays_ms();
        json!({
            "workload": self.workload.name(),
            "why": self.workload.why(),
            "meta": meta.to_json(self.workload, self.seed),
            "input": {
                "lines": self.lines,
                "vessels": self.vessels,
                "hours": self.hours,
                "queries": self.queries,
                "ce_count": self.ce_count,
                "fingerprint": format!("{:016x}", self.fingerprint),
            },
            "ops": self.ops,
            "failed": self.failed,
            "failed_share": self.failed_share(),
            "lines_per_s": summary_json(&self.kept_lines_per_s()),
            "lines_per_s_all_repetitions": summary_json(&self.lines_per_s),
            "repetition_wall_s": summary_json(&self.wall_s),
            "alert_delay_ms": {
                "samples": delays.len(),
                "p50": percentile(&delays, 50.0),
                "p90": percentile(&delays, 90.0),
                "min": delays[0],
                "max": delays[delays.len() - 1],
            },
            "setup_s": summary_json(&self.setup_s),
            "generator_late_ms_p90": summary_json(&self.generator_late_ms_p90),
        })
    }
}

/// Measures `workload`: [`SETUP_REPETITIONS`] set-ups (each ending in one
/// untimed warm-up pass), then timed repetitions until at least
/// [`MIN_REPETITIONS`] ran and `seconds` passed. Every pass is checked
/// against the reference.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<RunRecord, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPETITIONS);
    let mut prepared = None;
    for _ in 0..SETUP_REPETITIONS {
        let started = Instant::now();
        let p = Prepared::new(workload, seed)?;
        let warm_up = p.pass()?;
        setup_s.push(started.elapsed().as_secs_f64());
        let failures = warm_up.failures(&p.reference);
        if failures > 0 {
            return Err(format!(
                "{}: warm-up pass differs from the reference: admitted {} vs {}, {} of {} wire \
                 events missing or differing",
                workload.name(),
                warm_up.admitted,
                p.reference.admitted,
                warm_up.digest.mismatches(&p.reference.digest),
                p.reference.digest.events.len(),
            ));
        }
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up ran");

    let lines = p.input.lines.len();
    let mut record = RunRecord {
        workload,
        seed,
        lines,
        vessels: p.input.fleet.vessels,
        hours: p.input.fleet.hours,
        queries: p.reference.digest.queries,
        ce_count: p.reference.digest.ce_count,
        fingerprint: p.reference.digest.fingerprint(),
        ops: 0,
        failed: 0,
        lines_per_s: Vec::new(),
        wall_s: Vec::new(),
        delays_ms: Vec::new(),
        setup_s,
        generator_late_ms_p90: Vec::new(),
    };
    let started = Instant::now();
    while record.wall_s.len() < MIN_REPETITIONS || started.elapsed().as_secs_f64() < seconds {
        let pass = p.pass()?;
        record.ops += lines as u64;
        record.failed += pass.failures(&p.reference);
        record.lines_per_s.push(lines as f64 / pass.wall_s);
        record.wall_s.push(pass.wall_s);
        record.delays_ms.push(pass.delays_ms);
        if !pass.late_ms.is_empty() {
            let late = percentile(&sorted(&pass.late_ms), 90.0);
            if late > MAX_GENERATOR_LATE_MS_P90 {
                return Err(format!(
                    "{}: void: the generator ran {late:.2} ms late at p90 (limit \
                     {MAX_GENERATOR_LATE_MS_P90} ms), so the schedule was not offered",
                    workload.name()
                ));
            }
            record.generator_late_ms_p90.push(late);
        }
    }
    let samples = record.kept_delays_ms().len();
    if samples < MIN_DELAY_SAMPLES || !supports_percentile(samples, 90.0) {
        return Err(format!(
            "{}: {samples} alert-delay samples cannot carry a p90",
            workload.name()
        ));
    }
    Ok(record)
}

/// Indices of the `keep` smallest of `wall_s` (all of them when fewer).
#[must_use]
pub fn fastest(wall_s: &[f64], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..wall_s.len()).collect();
    order.sort_by(|&a, &b| {
        wall_s[a]
            .partial_cmp(&wall_s[b])
            .expect("wall times are finite")
    });
    order.truncate(keep);
    order
}

/// Human-readable lines for one record: every metric by name with its
/// unit, dispersion and sample count.
#[must_use]
pub fn describe(record: &RunRecord) -> String {
    let mut out = format!(
        "{} (seed {:#x}): {} lines, {} vessels x {} h, {} queries, {} CEs, fingerprint {:016x}\n",
        record.workload.name(),
        record.seed,
        record.lines,
        record.vessels,
        record.hours,
        record.queries,
        record.ce_count,
        record.fingerprint,
    );
    let row = |name: &str, unit: &str, values: &[f64]| -> String {
        match Summary::of(values) {
            Some(s) => format!(
                "  {name:<22} {:>14.4} {unit:<4} min {:.4} q1 {:.4} q3 {:.4} max {:.4} (n={})\n",
                s.median, s.min, s.q1, s.q3, s.max, s.n
            ),
            None => String::new(),
        }
    };
    out += &row("lines_per_s", "1/s", &record.kept_lines_per_s());
    out += &row("  all repetitions", "1/s", &record.lines_per_s);
    out += &row("repetition_wall_s", "s", &record.wall_s);
    let delays = record.kept_delays_ms();
    for p in [50.0, 90.0] {
        out += &format!(
            "  {:<22} {:>14.4} ms   (n={})\n",
            format!("alert_delay_ms_p{p:.0}"),
            percentile(&delays, p),
            delays.len()
        );
    }
    out += &row("setup_s", "s", &record.setup_s);
    out += &row("generator_late_ms_p90", "ms", &record.generator_late_ms_p90);
    out += &format!(
        "  {:<22} {:>14} of {} ops (failed_share {})\n",
        "failed",
        record.failed,
        record.ops,
        record.failed_share()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fastest_repetitions_are_kept() {
        assert_eq!(fastest(&[2.0, 1.0, 3.0, 1.5, 2.5], 3), vec![1, 3, 0]);
        assert_eq!(fastest(&[2.0, 1.0], 3), vec![1, 0]);
        assert!(fastest(&[], 3).is_empty());
    }
}
