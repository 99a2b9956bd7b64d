//! The declarative SLO health engine behind `/healthz`.
//!
//! The serve driver samples the full metric registry into a
//! [`SampleRing`] every `--sample-secs`; the
//! engine reads consecutive samples and judges the *interval* between
//! them against a small table of SLO rules ([`SLO_RULES`]):
//!
//! * `rate_collapse` — sources are connected but no lines arrived for
//!   `--slo-stale` consecutive intervals (a half-open feed: the socket is
//!   alive, the data is not);
//! * `watermark_lag` — the mean admission-to-alert latency over the
//!   interval exceeded `--slo-max-lag-ms`;
//! * `subscriber_eviction` — more than `--slo-max-evictions` slow
//!   subscribers were evicted in the interval;
//! * `decode_errors` — the interval's filtered + malformed + bad-checksum
//!   ratio exceeded `--slo-error-ratio` (judged only past a minimum line
//!   volume, so a single stray line cannot degrade a quiet server).
//!
//! Any breach degrades the server; `--slo-critical-after` *consecutive*
//! breaching evaluations escalate to critical (`/healthz` starts
//! answering 503); one clean evaluation recovers to ok. Every transition
//! increments `serve_health_transitions_total`, lands in the flight
//! recorder, and is broadcast to every subscriber as a machine-readable
//! `{"type":"ops",...}` wire line — the operator's pager feed.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use maritime_obs::timeseries::counter_delta;
use maritime_obs::{flight, names, FlightKind, LazyCounter, LazyGauge, Sample, SampleRing};

static OBS_STATE: LazyGauge = LazyGauge::new(names::SERVE_HEALTH_STATE);
static OBS_TRANSITIONS: LazyCounter = LazyCounter::new(names::SERVE_HEALTH_TRANSITIONS);

/// Minimum lines an interval must carry before the decode-error ratio is
/// judged at all.
const MIN_ERROR_VOLUME: u64 = 8;

/// The server's SLO health, as exposed on `/healthz` and the
/// `serve_health_state` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Every SLO held in the last evaluated interval.
    Ok,
    /// At least one SLO rule is breaching.
    Degraded,
    /// The breach persisted for `critical_after` consecutive evaluations.
    Critical,
}

impl HealthState {
    /// Stable wire/dashboard name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// Encoding on the `serve_health_state` gauge.
    #[must_use]
    pub fn as_gauge(self) -> i64 {
        match self {
            HealthState::Ok => 0,
            HealthState::Degraded => 1,
            HealthState::Critical => 2,
        }
    }

    /// The `/healthz` status line: degraded still answers 200 (the server
    /// serves; probes that only check liveness keep passing), critical
    /// answers 503 so load balancers stop routing to it.
    #[must_use]
    pub fn http_status(self) -> &'static str {
        match self {
            HealthState::Ok | HealthState::Degraded => "200 OK",
            HealthState::Critical => "503 Service Unavailable",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => HealthState::Ok,
            1 => HealthState::Degraded,
            _ => HealthState::Critical,
        }
    }
}

/// SLO bounds the health engine judges each sampling interval against.
/// Defaults match the flag defaults documented in `SERVING.md`.
#[derive(Debug, Clone, Copy)]
pub struct SloThresholds {
    /// Consecutive zero-line intervals (with sources connected) before
    /// `rate_collapse` breaches.
    pub stale_intervals: u32,
    /// Slow-subscriber evictions tolerated per interval.
    pub max_evictions: u64,
    /// Decode-error ratio (errors / lines) tolerated per interval.
    pub error_ratio: f64,
    /// Mean admission-to-alert latency tolerated, milliseconds.
    pub max_lag_ms: u64,
    /// Consecutive breaching evaluations before degraded escalates to
    /// critical.
    pub critical_after: u32,
}

impl Default for SloThresholds {
    fn default() -> Self {
        Self {
            stale_intervals: 3,
            max_evictions: 0,
            error_ratio: 0.5,
            max_lag_ms: 5_000,
            critical_after: 5,
        }
    }
}

/// One row of the declarative rule table: the stable rule name (as it
/// appears in ops alerts and `/healthz` detail lines) and what it guards.
#[derive(Debug, Clone, Copy)]
pub struct SloRule {
    /// Stable rule name.
    pub name: &'static str,
    /// One-line description, mirrored in `SERVING.md`.
    pub help: &'static str,
}

/// Every SLO rule the engine evaluates, in evaluation order.
pub const SLO_RULES: &[SloRule] = &[
    SloRule {
        name: "rate_collapse",
        help: "sources connected but no lines for --slo-stale consecutive intervals",
    },
    SloRule {
        name: "watermark_lag",
        help: "mean admission-to-alert latency over the interval above --slo-max-lag-ms",
    },
    SloRule {
        name: "subscriber_eviction",
        help: "more than --slo-max-evictions slow subscribers evicted in the interval",
    },
    SloRule {
        name: "decode_errors",
        help: "filtered+malformed ratio over the interval above --slo-error-ratio",
    },
];

/// One breaching rule in one evaluated interval.
#[derive(Debug, Clone)]
pub struct Breach {
    /// Which [`SLO_RULES`] row breached.
    pub rule: &'static str,
    /// Human-readable specifics (`rule: figures vs bound`).
    pub detail: String,
}

/// What one [`HealthEngine::evaluate`] call concluded.
#[derive(Debug)]
pub struct Evaluation {
    /// The state after this interval.
    pub state: HealthState,
    /// Every rule that breached (empty when ok).
    pub breaches: Vec<Breach>,
    /// The `{"type":"ops",...}` wire line to broadcast — present only
    /// when the state *changed*.
    pub ops_alert: Option<String>,
}

/// Judges consecutive registry samples against [`SloThresholds`]. Owned
/// by the serve driver; everything here is plain single-threaded state.
#[derive(Debug)]
pub struct HealthEngine {
    slo: SloThresholds,
    state: HealthState,
    breach_streak: u32,
    silent_intervals: u32,
}

impl HealthEngine {
    /// An engine starting in the ok state.
    #[must_use]
    pub fn new(slo: SloThresholds) -> Self {
        Self {
            slo,
            state: HealthState::Ok,
            breach_streak: 0,
            silent_intervals: 0,
        }
    }

    /// The state after the most recent evaluation.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Judges the interval between two consecutive samples, updates the
    /// `serve_health_state` / `serve_health_transitions_total` metrics,
    /// and flight-records any transition.
    pub fn evaluate(&mut self, prev: &Sample, cur: &Sample) -> Evaluation {
        let breaches = self.check_rules(prev, cur);
        if breaches.is_empty() {
            self.breach_streak = 0;
        } else {
            self.breach_streak = self.breach_streak.saturating_add(1);
        }
        let next = if self.breach_streak == 0 {
            HealthState::Ok
        } else if self.breach_streak >= self.slo.critical_after {
            HealthState::Critical
        } else {
            HealthState::Degraded
        };
        let prev_state = self.state;
        self.state = next;
        OBS_STATE.set(next.as_gauge());
        let ops_alert = (next != prev_state).then(|| {
            OBS_TRANSITIONS.inc();
            let line = ops_alert_line(cur.at_ns, prev_state, next, &breaches);
            let flight_line = line.clone();
            flight::record(FlightKind::Note, move || {
                format!("health {} -> {}: {flight_line}", prev_state.as_str(), next.as_str())
            });
            line
        });
        Evaluation {
            state: next,
            breaches,
            ops_alert,
        }
    }

    fn check_rules(&mut self, prev: &Sample, cur: &Sample) -> Vec<Breach> {
        let mut breaches = Vec::new();
        let p = &prev.snapshot;
        let c = &cur.snapshot;
        let delta = |name: &str| counter_delta(p.counter(name), c.counter(name));

        // rate_collapse: a half-open feed — connections alive, data dead.
        let connected = c.gauge(names::SERVE_SOURCES_CONNECTED);
        let lines = delta(names::SERVE_SENTENCES);
        if connected > 0 && lines == 0 {
            self.silent_intervals = self.silent_intervals.saturating_add(1);
        } else {
            self.silent_intervals = 0;
        }
        if self.silent_intervals >= self.slo.stale_intervals {
            breaches.push(Breach {
                rule: "rate_collapse",
                detail: format!(
                    "rate_collapse: {connected} source(s) connected but no lines for {} intervals",
                    self.silent_intervals
                ),
            });
        }

        // watermark_lag: interval-mean end-to-end latency.
        if let (Some(ph), Some(ch)) = (
            p.histogram(names::SERVE_E2E_LATENCY_NS),
            c.histogram(names::SERVE_E2E_LATENCY_NS),
        ) {
            let count = counter_delta(ph.count, ch.count);
            let sum = counter_delta(ph.sum, ch.sum);
            if let Some(mean_ms) = sum.checked_div(count).map(|ns| ns / 1_000_000) {
                if mean_ms > self.slo.max_lag_ms {
                    breaches.push(Breach {
                        rule: "watermark_lag",
                        detail: format!(
                            "watermark_lag: mean end-to-end latency {mean_ms} ms > {} ms",
                            self.slo.max_lag_ms
                        ),
                    });
                }
            }
        }

        // subscriber_eviction: slow consumers thrown off the hub.
        let evictions = delta(names::SERVE_SLOW_EVICTIONS);
        if evictions > self.slo.max_evictions {
            breaches.push(Breach {
                rule: "subscriber_eviction",
                detail: format!(
                    "subscriber_eviction: {evictions} eviction(s) this interval > {}",
                    self.slo.max_evictions
                ),
            });
        }

        // decode_errors: the feed is up but mostly garbage.
        let errors = delta(names::SERVE_FILTERED_LINES)
            + delta(names::AIS_MALFORMED)
            + delta(names::AIS_BAD_CHECKSUM);
        if lines >= MIN_ERROR_VOLUME {
            #[allow(clippy::cast_precision_loss)]
            let ratio = errors as f64 / lines as f64;
            if ratio > self.slo.error_ratio {
                breaches.push(Breach {
                    rule: "decode_errors",
                    detail: format!(
                        "decode_errors: {errors}/{lines} lines rejected ({ratio:.2} > {:.2})",
                        self.slo.error_ratio
                    ),
                });
            }
        }
        breaches
    }
}

/// Renders the `{"type":"ops",...}` wire line for one state transition.
/// Details are plain ASCII by construction; quotes/backslashes are
/// escaped anyway so the line is always valid JSON.
fn ops_alert_line(
    at_ns: u64,
    prev: HealthState,
    next: HealthState,
    breaches: &[Breach],
) -> String {
    let rules: Vec<String> = breaches
        .iter()
        .map(|b| format!("\"{}\"", b.rule))
        .collect();
    let detail = if breaches.is_empty() {
        "recovered".to_string()
    } else {
        breaches
            .iter()
            .map(|b| b.detail.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    };
    format!(
        "{{\"type\":\"ops\",\"at_ns\":{at_ns},\"state\":\"{}\",\"prev\":\"{}\",\
         \"rules\":[{}],\"detail\":\"{}\"}}",
        next.as_str(),
        prev.as_str(),
        rules.join(","),
        json_escape(&detail),
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Telemetry shared between the serve driver (writer) and the HTTP layer
/// (readers): the sample ring behind `/metrics/history` and the health
/// verdict behind `/healthz` and `/dashboard`.
#[derive(Debug)]
pub struct ServeTelemetry {
    ring: SampleRing,
    state: AtomicU8,
    detail: Mutex<String>,
}

impl ServeTelemetry {
    /// Telemetry with a ring retaining the newest `history_capacity`
    /// samples.
    #[must_use]
    pub fn new(history_capacity: usize) -> Self {
        Self {
            ring: SampleRing::new(history_capacity),
            state: AtomicU8::new(HealthState::Ok.as_gauge() as u8),
            detail: Mutex::new(String::new()),
        }
    }

    /// The time-series ring the driver samples into.
    #[must_use]
    pub fn ring(&self) -> &SampleRing {
        &self.ring
    }

    /// The current health state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Publishes the verdict of one evaluation (driver side).
    pub fn set_state(&self, state: HealthState, breaches: &[Breach]) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.state.store(state.as_gauge() as u8, Ordering::Relaxed);
        let mut detail = self.detail.lock().expect("health detail mutex poisoned");
        detail.clear();
        for b in breaches {
            detail.push_str(&b.detail);
            detail.push('\n');
        }
    }

    /// The `/healthz` body: the state on the first line, one detail line
    /// per breaching rule after it.
    #[must_use]
    pub fn healthz_body(&self) -> String {
        let mut body = String::from(self.state().as_str());
        body.push('\n');
        body.push_str(&self.detail.lock().expect("health detail mutex poisoned"));
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_obs::MetricsRegistry;
    use std::sync::Arc;

    /// A sample whose snapshot reads the given serve counters.
    fn sample(
        seq: u64,
        lines: u64,
        connected: i64,
        evictions: u64,
        filtered: u64,
    ) -> Arc<Sample> {
        let reg = MetricsRegistry::with_catalog(names::CATALOG);
        reg.counter(names::SERVE_SENTENCES).add(lines);
        reg.gauge(names::SERVE_SOURCES_CONNECTED).set(connected);
        reg.counter(names::SERVE_SLOW_EVICTIONS).add(evictions);
        reg.counter(names::SERVE_FILTERED_LINES).add(filtered);
        Arc::new(Sample {
            seq,
            at_ns: seq * 1_000_000_000,
            snapshot: reg.snapshot(),
        })
    }

    #[test]
    fn silent_sources_degrade_then_recover() {
        let mut engine = HealthEngine::new(SloThresholds {
            stale_intervals: 2,
            ..SloThresholds::default()
        });
        // Interval 1: lines flowing — ok.
        let e = engine.evaluate(&sample(0, 0, 1, 0, 0), &sample(1, 50, 1, 0, 0));
        assert_eq!(e.state, HealthState::Ok);
        assert!(e.ops_alert.is_none());
        // Intervals 2-3: connected but silent; breaches on the 2nd.
        let e = engine.evaluate(&sample(1, 50, 1, 0, 0), &sample(2, 50, 1, 0, 0));
        assert_eq!(e.state, HealthState::Ok, "one silent interval tolerated");
        let e = engine.evaluate(&sample(2, 50, 1, 0, 0), &sample(3, 50, 1, 0, 0));
        assert_eq!(e.state, HealthState::Degraded);
        let alert = e.ops_alert.expect("transition broadcasts an ops alert");
        assert!(alert.starts_with("{\"type\":\"ops\""), "{alert}");
        assert!(alert.contains("\"state\":\"degraded\""), "{alert}");
        assert!(alert.contains("\"rules\":[\"rate_collapse\"]"), "{alert}");
        // Traffic resumes: immediate recovery, with a recovery alert.
        let e = engine.evaluate(&sample(3, 50, 1, 0, 0), &sample(4, 90, 1, 0, 0));
        assert_eq!(e.state, HealthState::Ok);
        let alert = e.ops_alert.expect("recovery is a transition too");
        assert!(alert.contains("\"state\":\"ok\"") && alert.contains("\"prev\":\"degraded\""));
        assert!(alert.contains("recovered"));
    }

    #[test]
    fn disconnected_quiet_server_stays_ok() {
        // No sources connected: silence is idleness, not collapse.
        let mut engine = HealthEngine::new(SloThresholds {
            stale_intervals: 1,
            ..SloThresholds::default()
        });
        for seq in 1..6 {
            let e = engine.evaluate(
                &sample(seq - 1, 100, 0, 0, 0),
                &sample(seq, 100, 0, 0, 0),
            );
            assert_eq!(e.state, HealthState::Ok);
        }
    }

    #[test]
    fn evictions_breach_immediately_and_escalate_to_critical() {
        let mut engine = HealthEngine::new(SloThresholds {
            critical_after: 2,
            ..SloThresholds::default()
        });
        let e = engine.evaluate(&sample(0, 0, 0, 0, 0), &sample(1, 0, 0, 3, 0));
        assert_eq!(e.state, HealthState::Degraded);
        assert_eq!(e.breaches[0].rule, "subscriber_eviction");
        assert_eq!(e.state.http_status(), "200 OK", "degraded still serves");
        let e = engine.evaluate(&sample(1, 0, 0, 3, 0), &sample(2, 0, 0, 9, 0));
        assert_eq!(e.state, HealthState::Critical);
        assert_eq!(e.state.http_status(), "503 Service Unavailable");
        let alert = e.ops_alert.expect("degraded -> critical is a transition");
        assert!(alert.contains("\"prev\":\"degraded\""));
    }

    #[test]
    fn decode_error_ratio_needs_volume() {
        let mut engine = HealthEngine::new(SloThresholds::default());
        // 2 lines, both filtered: below MIN_ERROR_VOLUME, not judged.
        let e = engine.evaluate(&sample(0, 0, 0, 0, 0), &sample(1, 2, 0, 0, 2));
        assert_eq!(e.state, HealthState::Ok);
        // 20 lines, 18 filtered: judged and breaching.
        let e = engine.evaluate(&sample(1, 2, 0, 0, 2), &sample(2, 22, 0, 0, 20));
        assert_eq!(e.state, HealthState::Degraded);
        assert_eq!(e.breaches[0].rule, "decode_errors");
    }

    #[test]
    fn telemetry_publishes_state_and_detail() {
        let telemetry = ServeTelemetry::new(8);
        assert_eq!(telemetry.state(), HealthState::Ok);
        assert_eq!(telemetry.healthz_body(), "ok\n");
        telemetry.set_state(
            HealthState::Degraded,
            &[Breach {
                rule: "rate_collapse",
                detail: "rate_collapse: 1 source(s) silent".to_string(),
            }],
        );
        assert_eq!(telemetry.state(), HealthState::Degraded);
        let body = telemetry.healthz_body();
        assert!(body.starts_with("degraded\n"), "{body}");
        assert!(body.contains("rate_collapse"), "{body}");
        telemetry.set_state(HealthState::Ok, &[]);
        assert_eq!(telemetry.healthz_body(), "ok\n");
    }

    #[test]
    fn rule_table_matches_rule_names() {
        // The declarative table is what SERVING.md documents; the engine
        // must only ever emit rules from it.
        let names: Vec<&str> = SLO_RULES.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["rate_collapse", "watermark_lag", "subscriber_eviction", "decode_errors"]
        );
    }
}
