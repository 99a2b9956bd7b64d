//! Chrome Trace Event timeline export.
//!
//! Converts the pipeline's stage spans into the Chrome Trace Event
//! format — the JSON schema understood by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) — so one sliding-window run can be
//! inspected as a per-thread timeline: every window slide shows its
//! decode / track / slide / recognize phases, and work on other threads
//! (recognition bands, the live server's threads) appears as parallel
//! lanes (one `tid` per OS thread).
//!
//! The collector is *installed*, not merely enabled: until
//! [`install`] is called the per-span cost is a single relaxed
//! atomic load (asserted by `obs_overhead` in `crates/bench`). Spans feed
//! the timeline through the existing [`SpanTimer`](crate::SpanTimer)
//! drop path, so instrumented sites pay nothing extra — the same clock
//! reads serve both the latency histograms and the timeline.
//!
//! Timestamps are microseconds relative to the install instant (the
//! trace-viewer convention); thread ids are small ordinals assigned on
//! first use per OS thread.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::encode::json_str;

/// Spans kept before the timeline stops collecting (a safety valve for
/// very long runs; ~56 MB at the cap).
pub const MAX_SPANS: usize = 1 << 20;

/// One completed stage span on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSpan {
    /// Stage name (normally a histogram name from [`crate::names`]).
    pub name: &'static str,
    /// Ordinal of the OS thread the span ran on.
    pub tid: u64,
    /// Start, in microseconds since the timeline epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

struct Timeline {
    epoch: Instant,
    spans: Mutex<Vec<TimelineSpan>>,
    dropped: AtomicU64,
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: OnceLock<Timeline> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Installs the global timeline collector and starts the trace epoch.
/// Idempotent; there is deliberately no uninstall (a timeline covers one
/// process run, exported once at the end).
pub fn install() {
    TIMELINE.get_or_init(|| Timeline {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
    });
    INSTALLED.store(true, Ordering::Release);
}

/// Whether the timeline collector is installed. One relaxed load — this
/// is the whole cost a span pays when timelines are off.
#[inline]
pub fn is_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Records one completed span. No-op until [`install`] has run. `start`
/// is the span's own clock reading, so the histogram and the timeline
/// share a single pair of clock reads.
pub fn record(name: &'static str, start: Instant, elapsed: Duration) {
    if !is_installed() {
        return;
    }
    let Some(timeline) = TIMELINE.get() else {
        return;
    };
    let ts_us = u64::try_from(
        start
            .checked_duration_since(timeline.epoch)
            .unwrap_or_default()
            .as_micros(),
    )
    .unwrap_or(u64::MAX);
    let dur_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    let span = TimelineSpan {
        name,
        tid: TID.with(|t| *t),
        ts_us,
        dur_us,
    };
    let mut spans = timeline.spans.lock().expect("timeline poisoned");
    if spans.len() >= MAX_SPANS {
        drop(spans);
        timeline.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    spans.push(span);
    drop(spans);
    crate::counter(crate::names::TRACE_TIMELINE_SPANS).inc();
}

/// Takes a sorted snapshot of every span collected so far (clearing
/// nothing — export is repeatable). Empty when not installed.
#[must_use]
pub fn spans() -> Vec<TimelineSpan> {
    let Some(timeline) = TIMELINE.get() else {
        return Vec::new();
    };
    let mut out = timeline.spans.lock().expect("timeline poisoned").clone();
    out.sort_by(|a, b| {
        (a.ts_us, a.tid, a.name, a.dur_us).cmp(&(b.ts_us, b.tid, b.name, b.dur_us))
    });
    out
}

/// Spans rejected after the [`MAX_SPANS`] safety cap was hit.
#[must_use]
pub fn dropped() -> u64 {
    TIMELINE
        .get()
        .map_or(0, |t| t.dropped.load(Ordering::Relaxed))
}

/// Encodes spans as a Chrome Trace Event JSON document (`ph:"X"`
/// complete events, microsecond timestamps), loadable in Perfetto or
/// `chrome://tracing`. Deterministic for a given span list.
#[must_use]
pub fn encode(spans: &[TimelineSpan]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":{},\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            json_str(s.name),
            s.ts_us,
            s.dur_us,
            s.tid
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Encodes the installed timeline's collected spans. An empty (but still
/// loadable) document when nothing was collected.
#[must_use]
pub fn export_json() -> String {
    encode(&spans())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_deterministic_and_wellformed() {
        let spans = vec![
            TimelineSpan { name: "pipeline_tracking_ns", tid: 1, ts_us: 0, dur_us: 250 },
            TimelineSpan { name: "pipeline_recognition_ns", tid: 1, ts_us: 250, dur_us: 90 },
        ];
        let a = encode(&spans);
        let b = encode(&spans);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":250"));
        assert!(a.trim_end().ends_with("]}"));
    }

    #[test]
    fn encode_empty_is_loadable() {
        assert_eq!(
            encode(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
        );
    }

    #[test]
    fn install_collects_spans() {
        install();
        assert!(is_installed());
        let start = Instant::now();
        record("tracker_slide_ns", start, Duration::from_micros(42));
        let collected = spans();
        assert!(
            collected
                .iter()
                .any(|s| s.name == "tracker_slide_ns" && s.dur_us == 42),
            "span not collected: {collected:?}"
        );
        assert!(export_json().contains("tracker_slide_ns"));
    }
}
