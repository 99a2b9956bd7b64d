//! The repository's end-to-end benchmark (see `benchmark/README.md`).
//!
//! Five workloads drive the system through its stable outer surface —
//! `LiveIngest`, `serve::start` + `ServerHandle`, the SERVING.md socket
//! framing and wire protocol, the `maritime_chaos` generators — and every
//! pass is checked against an in-process, single-band, from-scratch
//! reference. End-to-end metrics are measured with tracing off
//! ([`measure`]); per-layer numbers come from a separate traced run that
//! times calls into each layer's public functions from outside
//! ([`trace`]).

pub mod fingerprint;
pub mod measure;
pub mod passes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// How long one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 6.0;

/// End-to-end metrics with unit, direction and the share of the parent's
/// median by which each may worsen before a change counts as a
/// regression; mirrored in `BENCHMARK.json` (a test keeps them equal).
pub const END_TO_END: [Metric; 4] = [
    Metric {
        name: "lines_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    Metric {
        name: "alert_delay_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "alert_delay_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("expected an array, got {}", other.kind()),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::Int(i) => *i as f64,
            Value::UInt(u) => *u as f64,
            Value::Float(f) => *f,
            other => panic!("expected a number, got {}", other.kind()),
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the code is what runs.
    #[test]
    fn benchmark_json_mirrors_the_code() {
        let path = report::repo_root().join("BENCHMARK.json");
        let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");

        let keys: Vec<&str> = match &doc {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {}", other.kind()),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(number(field(&doc, "run_seconds")), DEFAULT_SECONDS);
        let paths: Vec<&str> = items(field(&doc, "paths")).iter().map(text).collect();
        assert_eq!(paths, ["benchmark"]);

        let workloads: Vec<(&str, &str)> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| (text(field(w, "name")), text(field(w, "why"))))
            .collect();
        let expected: Vec<(&str, &str)> = workloads::Workload::ALL
            .iter()
            .map(|w| (w.name(), w.why()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(&str, &str, &str, f64)> = items(field(&doc, "end_to_end"))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")),
                    text(field(m, "unit")),
                    text(field(m, "better")),
                    number(field(m, "bound")),
                )
            })
            .collect();
        let expected: Vec<(&str, &str, &str, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, m.bound))
            .collect();
        assert_eq!(end_to_end, expected);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));

        let per_layer: Vec<(&str, &str, &str)> = items(field(&doc, "per_layer"))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")),
                    text(field(m, "unit")),
                    text(field(m, "better")),
                )
            })
            .collect();
        assert_eq!(per_layer, trace::PER_LAYER);
    }
}
