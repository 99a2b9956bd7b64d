//! Where and on what a result was measured, and the result files.

use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::stats::Summary;
use crate::workloads::{Mode, Workload};

/// The environment every result record carries.
#[derive(Debug, Clone)]
pub struct Meta {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl Meta {
    #[must_use]
    pub fn collect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: rustc_version(),
            commit: git_commit(&repo_root()),
        }
    }

    #[must_use]
    pub fn to_json(&self, workload: Workload, seed: u64) -> Value {
        let (threads, connections) = generator_footprint(workload.mode());
        json!({
            "nproc": self.nproc,
            "generator_threads": threads,
            "connections": connections,
            "rustc": self.rustc.as_str(),
            "commit": self.commit.as_str(),
            "seed": format!("{seed:#x}"),
        })
    }
}

/// Threads and socket connections the benchmark itself uses to drive a
/// workload (generator + subscriber; feeds + subscriber). Never more than
/// `nproc` threads plus connections on the 2-core reference box.
fn generator_footprint(mode: Mode) -> (usize, usize) {
    match mode {
        Mode::InProcess => (1, 0),
        Mode::Blast => (2, 2),
        Mode::Paced => (2, 3),
    }
}

/// `rustc --version`, or `unknown` when the compiler is not on the path.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout this package was built from.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` in an exported tree.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// Writes `value` as pretty JSON to `benchmark/results/<name>` (created
/// on demand; everything the benchmark writes lands there).
pub fn write_result(name: &str, value: &Value) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("results directory: {e}"))?;
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("encode {name}: {e}"))?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// A sample's summary as JSON (`null` when there is no sample).
#[must_use]
pub fn summary_json(values: &[f64]) -> Value {
    match Summary::of(values) {
        Some(s) => json!({
            "n": s.n,
            "min": s.min,
            "q1": s.q1,
            "median": s.median,
            "q3": s.q3,
            "max": s.max,
        }),
        None => Value::Null,
    }
}

/// Metrics as the result line carries them: `{name: {value, unit}}`.
#[must_use]
pub fn metrics_json(metrics: &[(&'static str, &'static str, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, unit, value)| (name.to_string(), json!({"value": *value, "unit": *unit})))
            .collect(),
    )
}

/// The value following `flag` in `args`.
#[must_use]
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses a seed: decimal, or hexadecimal with a `0x` prefix.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("invalid seed {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("0xEDB72015"), Ok(0xEDB7_2015));
        assert_eq!(parse_seed("0xedb7_2015"), Ok(0xEDB7_2015));
        assert!(parse_seed("seed").is_err());
    }

    #[test]
    fn flags_take_the_following_argument() {
        let args: Vec<String> = ["--seed", "7", "--trace"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--seed"), Some("7"));
        assert_eq!(flag_value(&args, "--trace"), None);
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn an_exported_tree_has_no_commit() {
        assert_eq!(git_commit(Path::new("/nonexistent-checkout")), "unknown");
    }
}
