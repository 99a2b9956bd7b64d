//! The canonical metric catalog.
//!
//! Every metric the pipeline emits is declared exactly once here, with its
//! kind, unit, and a one-line help string. The global registry pre-seeds
//! itself from [`CATALOG`] so a snapshot always lists the full set (zeros
//! included), the encoders have help/unit text to hand, and the
//! `OBSERVABILITY.md` handbook can be diffed against this list by a test.
//!
//! Naming follows Prometheus conventions: `snake_case`, a stage prefix
//! (`ais_`, `tracker_`, `stream_`, `geo_`, `modstore_`, `rtec_`, `cer_`,
//! `pipeline_`, `trace_`, `chaos_`, `serve_`), `_total` suffix on
//! counters, `_ns` suffix on nanosecond histograms.

//!
//! Labeled families ([`FAMILIES`]) follow the same conventions on their
//! base name; members carry the label in braces
//! (`serve_source_lines_total{source="3"}`) and inherit the family's
//! unit/help.

use crate::registry::{Descriptor, FamilyDescriptor, MetricKind};

// ---- AIS decode ----------------------------------------------------------

/// NMEA sentences scanned by the AIS decoder.
pub const AIS_SENTENCES: &str = "ais_sentences_total";
/// Position reports decoded and admitted downstream.
pub const AIS_POSITIONS: &str = "ais_positions_total";
/// Sentences rejected as structurally malformed.
pub const AIS_MALFORMED: &str = "ais_malformed_total";
/// Sentences rejected on NMEA checksum mismatch.
pub const AIS_BAD_CHECKSUM: &str = "ais_bad_checksum_total";
/// Static/voyage declarations (message type 5) decoded.
pub const AIS_VOYAGE_DECLARATIONS: &str = "ais_voyage_declarations_total";
/// Multi-fragment messages abandoned with fragments missing (truncated).
pub const AIS_TRUNCATED_FRAGMENTS: &str = "ais_truncated_fragments_total";

// ---- Trajectory tracker --------------------------------------------------

/// Raw position updates ingested by the mobility tracker.
pub const TRACKER_POINTS_INGESTED: &str = "tracker_points_ingested_total";
/// Critical points emitted (the compressed trajectory synopsis).
pub const TRACKER_CRITICAL_POINTS: &str = "tracker_critical_points_total";
/// Position updates dropped by the noise/outlier filter.
pub const TRACKER_NOISE_DROPS: &str = "tracker_noise_drops_total";
/// Vessels currently tracked.
pub const TRACKER_ACTIVE_VESSELS: &str = "tracker_active_vessels";
/// Critical points currently resident in the tracking window.
pub const TRACKER_WINDOW_POINTS: &str = "tracker_window_points";
/// Critical points evicted as the tracking window slid forward.
pub const TRACKER_EVICTED_POINTS: &str = "tracker_evicted_points_total";
/// Wall time per tracker window slide.
pub const TRACKER_SLIDE_NS: &str = "tracker_slide_ns";

// ---- Stream windowing ----------------------------------------------------

/// Window slide operations across all sliding windows.
pub const STREAM_WINDOW_SLIDES: &str = "stream_window_slides_total";
/// Items evicted from sliding windows by slides.
pub const STREAM_WINDOW_EVICTIONS: &str = "stream_window_evictions_total";
/// Input batches formed by the slide batcher.
pub const STREAM_BATCHES: &str = "stream_batches_total";
/// Items admitted past the watermark by the admission buffer (late).
pub const STREAM_LATE_ADMISSIONS: &str = "stream_late_admissions_total";
/// Event-time lag (watermark minus item timestamp) of items released by
/// the admission buffer, in nanoseconds of event time.
pub const STREAM_ADMISSION_LAG_NS: &str = "stream_admission_lag_ns";
/// Items currently held back by the admission buffer.
pub const STREAM_ADMISSION_BUFFERED: &str = "stream_admission_buffered";

// ---- Geo spatial index ---------------------------------------------------

/// Neighbour-candidate lookups served by the grid index.
pub const GEO_GRID_LOOKUPS: &str = "geo_grid_lookups_total";

// ---- Trajectory store ----------------------------------------------------

/// Critical points staged into the trajectory store.
pub const MODSTORE_POINTS_STAGED: &str = "modstore_points_staged_total";
/// Reconstructed trips loaded out of the trajectory store.
pub const MODSTORE_TRIPS_LOADED: &str = "modstore_trips_loaded_total";

// ---- RTEC engine ---------------------------------------------------------

/// Recognition queries answered by the RTEC engine.
pub const RTEC_QUERIES: &str = "rtec_queries_total";
/// Queries answered via the incremental (checkpoint-replay) path.
pub const RTEC_QUERIES_INCREMENTAL: &str = "rtec_queries_incremental_total";
/// Rule trigger evaluations performed.
pub const RTEC_RULE_EVALUATIONS: &str = "rtec_rule_evaluations_total";
/// Trigger evaluations skipped by replaying cached results.
pub const RTEC_CACHE_REPLAYS: &str = "rtec_cache_replays_total";
/// Cached entries invalidated by changed keys and re-evaluated.
pub const RTEC_CACHE_INVALIDATIONS: &str = "rtec_cache_invalidations_total";
/// Wall time per recognition query.
pub const RTEC_QUERY_NS: &str = "rtec_query_ns";
/// Events resident in the engine's working memory (window).
pub const RTEC_WORKING_MEMORY_EVENTS: &str = "rtec_working_memory_events";
/// Distinct fluent keys interned in engine symbol tables.
pub const RTEC_INTERNED_KEYS: &str = "rtec_interned_keys";

// ---- Complex event recognition -------------------------------------------

/// Low-level events fed into the maritime recognizer.
pub const CER_INPUT_EVENTS: &str = "cer_input_events_total";
/// Composite-event intervals recognized (suspicious + illegal fishing).
pub const CER_CE_RECOGNIZED: &str = "cer_ce_recognized_total";
/// Instantaneous alerts raised (illegal shipping, dangerous shipping).
pub const CER_ALERTS: &str = "cer_alerts_total";
/// Vessels handed off between longitude bands by the partition coordinator.
pub const CER_PARTITION_MIGRATIONS: &str = "cer_partition_migrations_total";
/// Size of the most recent engine checkpoint written, bytes.
pub const CER_CHECKPOINT_BYTES: &str = "cer_checkpoint_bytes";
/// Wall time to serialize an engine checkpoint.
pub const CER_CHECKPOINT_WRITE_NS: &str = "cer_checkpoint_write_ns";
/// Wall time to restore an engine from a checkpoint.
pub const CER_CHECKPOINT_RESTORE_NS: &str = "cer_checkpoint_restore_ns";

// ---- Pipeline orchestration ----------------------------------------------

/// Window slides completed by the surveillance pipeline.
pub const PIPELINE_SLIDES: &str = "pipeline_slides_total";
/// Wall time of the tracking phase per slide.
pub const PIPELINE_TRACKING_NS: &str = "pipeline_tracking_ns";
/// Wall time of the store-staging phase per slide.
pub const PIPELINE_STAGING_NS: &str = "pipeline_staging_ns";
/// Wall time of the trip-reconstruction phase per slide.
pub const PIPELINE_RECONSTRUCTION_NS: &str = "pipeline_reconstruction_ns";
/// Wall time of the recognizer-loading phase per slide.
pub const PIPELINE_LOADING_NS: &str = "pipeline_loading_ns";
/// Wall time of the recognition phase per slide.
pub const PIPELINE_RECOGNITION_NS: &str = "pipeline_recognition_ns";
/// End-to-end wall time per slide (all phases).
pub const PIPELINE_SLIDE_NS: &str = "pipeline_slide_ns";
/// Recognition phases that exceeded the configured deadline.
pub const PIPELINE_DEADLINE_OVERRUNS: &str = "pipeline_deadline_overruns_total";

// ---- Tracing -------------------------------------------------------------

/// Structured events captured by the flight recorder.
pub const TRACE_FLIGHT_EVENTS: &str = "trace_flight_events_total";
/// Flight-recorder JSON dumps written (triggered or on demand).
pub const TRACE_FLIGHT_DUMPS: &str = "trace_flight_dumps_total";
/// Stage spans collected onto the Chrome-trace timeline.
pub const TRACE_TIMELINE_SPANS: &str = "trace_timeline_spans_total";
/// CE provenance chains assembled by traced recognition.
pub const TRACE_PROVENANCE_CHAINS: &str = "trace_provenance_chains_total";

// ---- Chaos harness -------------------------------------------------------

/// Perturbation ops applied to sentence streams by the chaos harness.
pub const CHAOS_OPS_APPLIED: &str = "chaos_ops_applied_total";
/// Sentences removed by drop / gap / vessel-drop perturbations.
pub const CHAOS_SENTENCES_DROPPED: &str = "chaos_sentences_dropped_total";
/// Sentences re-sent by the duplication perturbation.
pub const CHAOS_SENTENCES_DUPLICATED: &str = "chaos_sentences_duplicated_total";
/// Sentences damaged by truncation or payload corruption.
pub const CHAOS_SENTENCES_CORRUPTED: &str = "chaos_sentences_corrupted_total";
/// Sentences displaced in arrival time (reorder, jitter, late arrival).
pub const CHAOS_SENTENCES_DELAYED: &str = "chaos_sentences_delayed_total";
/// Metamorphic oracle checks evaluated.
pub const CHAOS_ORACLE_CHECKS: &str = "chaos_oracle_checks_total";
/// Metamorphic oracle checks that found a violation.
pub const CHAOS_ORACLE_FAILURES: &str = "chaos_oracle_failures_total";

// ---- Live server (`surveil serve`) ---------------------------------------

/// NMEA sources (TCP connections / UDP peers) currently connected.
pub const SERVE_SOURCES_CONNECTED: &str = "serve_sources_connected";
/// NMEA sources ever accepted since server start.
pub const SERVE_SOURCES: &str = "serve_sources_total";
/// Raw lines received across all sources (pre-filter).
pub const SERVE_SENTENCES: &str = "serve_sentences_total";
/// Lines dropped by the per-source syntactic filter.
pub const SERVE_FILTERED_LINES: &str = "serve_filtered_lines_total";
/// Lines dropped as cross-source duplicates within the dedup window.
pub const SERVE_DEDUP_DROPS: &str = "serve_dedup_drops_total";
/// Ingest-channel sends that blocked on a full pipeline (backpressure).
pub const SERVE_INGEST_STALLS: &str = "serve_ingest_stalls_total";
/// CE subscribers (TCP + SSE) currently connected.
pub const SERVE_SUBSCRIBERS_CONNECTED: &str = "serve_subscribers_connected";
/// CE subscribers ever accepted since server start.
pub const SERVE_SUBSCRIBERS: &str = "serve_subscribers_total";
/// Events enqueued to subscriber queues (one per event per subscriber).
pub const SERVE_EVENTS_BROADCAST: &str = "serve_events_broadcast_total";
/// Subscribers evicted for not draining their bounded queue.
pub const SERVE_SLOW_EVICTIONS: &str = "serve_slow_evictions_total";
/// Events discarded because a subscriber was evicted mid-stream.
pub const SERVE_DROPPED_EVENTS: &str = "serve_dropped_events_total";
/// HTTP requests answered by the metrics/SSE endpoint.
pub const SERVE_HTTP_REQUESTS: &str = "serve_http_requests_total";
/// End-of-stream flushes processed (`#flush` control lines).
pub const SERVE_FLUSHES: &str = "serve_flushes_total";
/// Wall-clock latency from sentence admission to alert emission, per
/// recognizing slide.
pub const SERVE_E2E_LATENCY_NS: &str = "serve_e2e_latency_ns";
/// Current SLO health state (0 = ok, 1 = degraded, 2 = critical).
pub const SERVE_HEALTH_STATE: &str = "serve_health_state";
/// SLO health state transitions since server start.
pub const SERVE_HEALTH_TRANSITIONS: &str = "serve_health_transitions_total";
/// Telemetry ring samples recorded by the serve driver.
pub const SERVE_SAMPLES: &str = "serve_samples_total";
/// Machine-readable ops alerts broadcast on health transitions.
pub const SERVE_OPS_ALERTS: &str = "serve_ops_alerts_total";

// ---- Labeled families ----------------------------------------------------

/// Raw lines received per source (`source` label).
pub const SERVE_SOURCE_LINES: FamilyDescriptor = fc(
    "serve_source_lines_total",
    "source",
    "lines",
    "Raw lines received from one source (pre-filter)",
);
/// Lines accepted past filter and dedup per source.
pub const SERVE_SOURCE_ACCEPTED: FamilyDescriptor = fc(
    "serve_source_accepted_total",
    "source",
    "lines",
    "Lines from one source accepted past filter and dedup",
);
/// Lines dropped by the syntactic filter per source.
pub const SERVE_SOURCE_FILTERED: FamilyDescriptor = fc(
    "serve_source_filtered_total",
    "source",
    "lines",
    "Lines from one source dropped by the syntactic filter",
);
/// Lines dropped as cross-source duplicates per source.
pub const SERVE_SOURCE_DUPLICATES: FamilyDescriptor = fc(
    "serve_source_duplicates_total",
    "source",
    "lines",
    "Lines from one source dropped as cross-source duplicates",
);
/// Complex events recognized per CE rule (`rule` label).
pub const CER_RULE_RECOGNIZED: FamilyDescriptor = fc(
    "cer_rule_recognized_total",
    "rule",
    "events",
    "Complex events recognized, by CE rule",
);
/// Recognition-phase wall time of slides in which the rule fired.
pub const CER_RULE_LATENCY_NS: FamilyDescriptor = fh(
    "cer_rule_latency_ns",
    "rule",
    "ns",
    "Recognition-phase wall time of slides in which one rule fired",
);

/// Every labeled family the pipeline can emit. Families register members
/// on first use, so a snapshot lists only the label values actually seen.
pub const FAMILIES: &[FamilyDescriptor] = &[
    SERVE_SOURCE_LINES,
    SERVE_SOURCE_ACCEPTED,
    SERVE_SOURCE_FILTERED,
    SERVE_SOURCE_DUPLICATES,
    CER_RULE_RECOGNIZED,
    CER_RULE_LATENCY_NS,
];

/// One catalog row.
const fn c(name: &'static str, unit: &'static str, help: &'static str) -> Descriptor {
    Descriptor {
        name,
        kind: MetricKind::Counter,
        unit,
        help,
    }
}

/// One gauge row.
const fn g(name: &'static str, unit: &'static str, help: &'static str) -> Descriptor {
    Descriptor {
        name,
        kind: MetricKind::Gauge,
        unit,
        help,
    }
}

/// One histogram row.
const fn h(name: &'static str, unit: &'static str, help: &'static str) -> Descriptor {
    Descriptor {
        name,
        kind: MetricKind::Histogram,
        unit,
        help,
    }
}

/// One counter family.
const fn fc(
    name: &'static str,
    label: &'static str,
    unit: &'static str,
    help: &'static str,
) -> FamilyDescriptor {
    FamilyDescriptor {
        name,
        label,
        kind: MetricKind::Counter,
        unit,
        help,
    }
}

/// One histogram family.
const fn fh(
    name: &'static str,
    label: &'static str,
    unit: &'static str,
    help: &'static str,
) -> FamilyDescriptor {
    FamilyDescriptor {
        name,
        label,
        kind: MetricKind::Histogram,
        unit,
        help,
    }
}

/// Every metric the pipeline can emit, in stage order.
pub const CATALOG: &[Descriptor] = &[
    // AIS decode
    c(AIS_SENTENCES, "sentences", "NMEA sentences scanned by the AIS decoder"),
    c(AIS_POSITIONS, "reports", "Position reports decoded and admitted downstream"),
    c(AIS_MALFORMED, "sentences", "Sentences rejected as structurally malformed"),
    c(AIS_BAD_CHECKSUM, "sentences", "Sentences rejected on NMEA checksum mismatch"),
    c(AIS_VOYAGE_DECLARATIONS, "messages", "Static/voyage declarations (type 5) decoded"),
    c(AIS_TRUNCATED_FRAGMENTS, "messages", "Multi-fragment messages abandoned incomplete"),
    // Tracker
    c(TRACKER_POINTS_INGESTED, "points", "Raw position updates ingested by the tracker"),
    c(TRACKER_CRITICAL_POINTS, "points", "Critical points emitted (compressed synopsis)"),
    c(TRACKER_NOISE_DROPS, "points", "Position updates dropped by the noise filter"),
    g(TRACKER_ACTIVE_VESSELS, "vessels", "Vessels currently tracked"),
    g(TRACKER_WINDOW_POINTS, "points", "Critical points resident in the tracking window"),
    c(TRACKER_EVICTED_POINTS, "points", "Critical points evicted by window slides"),
    h(TRACKER_SLIDE_NS, "ns", "Wall time per tracker window slide"),
    // Stream windowing
    c(STREAM_WINDOW_SLIDES, "slides", "Window slide operations across sliding windows"),
    c(STREAM_WINDOW_EVICTIONS, "items", "Items evicted from sliding windows"),
    c(STREAM_BATCHES, "batches", "Input batches formed by the slide batcher"),
    c(STREAM_LATE_ADMISSIONS, "items", "Items admitted past the watermark (late)"),
    h(STREAM_ADMISSION_LAG_NS, "ns", "Event-time lag of items released by admission"),
    g(STREAM_ADMISSION_BUFFERED, "items", "Items currently held back by admission"),
    // Geo
    c(GEO_GRID_LOOKUPS, "lookups", "Neighbour-candidate lookups on the grid index"),
    // Store
    c(MODSTORE_POINTS_STAGED, "points", "Critical points staged into the trajectory store"),
    c(MODSTORE_TRIPS_LOADED, "trips", "Reconstructed trips loaded from the store"),
    // RTEC
    c(RTEC_QUERIES, "queries", "Recognition queries answered by the RTEC engine"),
    c(RTEC_QUERIES_INCREMENTAL, "queries", "Queries answered via the incremental path"),
    c(RTEC_RULE_EVALUATIONS, "evaluations", "Rule trigger evaluations performed"),
    c(RTEC_CACHE_REPLAYS, "evaluations", "Trigger evaluations skipped via cached results"),
    c(RTEC_CACHE_INVALIDATIONS, "entries", "Cached entries invalidated and re-evaluated"),
    h(RTEC_QUERY_NS, "ns", "Wall time per recognition query"),
    g(RTEC_WORKING_MEMORY_EVENTS, "events", "Events resident in engine working memory"),
    g(RTEC_INTERNED_KEYS, "keys", "Distinct fluent keys interned in engine symbol tables"),
    // CER
    c(CER_INPUT_EVENTS, "events", "Low-level events fed into the maritime recognizer"),
    c(CER_CE_RECOGNIZED, "intervals", "Composite-event intervals recognized"),
    c(CER_ALERTS, "alerts", "Instantaneous alerts raised"),
    c(CER_PARTITION_MIGRATIONS, "vessels", "Vessels handed off between longitude bands"),
    g(CER_CHECKPOINT_BYTES, "bytes", "Size of the most recent engine checkpoint written"),
    h(CER_CHECKPOINT_WRITE_NS, "ns", "Wall time to serialize an engine checkpoint"),
    h(CER_CHECKPOINT_RESTORE_NS, "ns", "Wall time to restore an engine from a checkpoint"),
    // Pipeline
    c(PIPELINE_SLIDES, "slides", "Window slides completed by the pipeline"),
    h(PIPELINE_TRACKING_NS, "ns", "Tracking-phase wall time per slide"),
    h(PIPELINE_STAGING_NS, "ns", "Store-staging-phase wall time per slide"),
    h(PIPELINE_RECONSTRUCTION_NS, "ns", "Trip-reconstruction-phase wall time per slide"),
    h(PIPELINE_LOADING_NS, "ns", "Recognizer-loading-phase wall time per slide"),
    h(PIPELINE_RECOGNITION_NS, "ns", "Recognition-phase wall time per slide"),
    h(PIPELINE_SLIDE_NS, "ns", "End-to-end wall time per slide"),
    c(PIPELINE_DEADLINE_OVERRUNS, "slides", "Recognition phases exceeding the deadline"),
    // Tracing
    c(TRACE_FLIGHT_EVENTS, "events", "Structured events captured by the flight recorder"),
    c(TRACE_FLIGHT_DUMPS, "dumps", "Flight-recorder JSON dumps written"),
    c(TRACE_TIMELINE_SPANS, "spans", "Stage spans collected onto the Chrome-trace timeline"),
    c(TRACE_PROVENANCE_CHAINS, "chains", "CE provenance chains assembled by traced recognition"),
    // Chaos harness
    c(CHAOS_OPS_APPLIED, "ops", "Perturbation ops applied to sentence streams"),
    c(CHAOS_SENTENCES_DROPPED, "sentences", "Sentences removed by drop perturbations"),
    c(CHAOS_SENTENCES_DUPLICATED, "sentences", "Sentences re-sent by duplication"),
    c(CHAOS_SENTENCES_CORRUPTED, "sentences", "Sentences truncated or payload-corrupted"),
    c(CHAOS_SENTENCES_DELAYED, "sentences", "Sentences displaced in arrival time"),
    c(CHAOS_ORACLE_CHECKS, "checks", "Metamorphic oracle checks evaluated"),
    c(CHAOS_ORACLE_FAILURES, "checks", "Metamorphic oracle checks that found a violation"),
    // Live server
    g(SERVE_SOURCES_CONNECTED, "sources", "NMEA sources currently connected"),
    c(SERVE_SOURCES, "sources", "NMEA sources ever accepted since server start"),
    c(SERVE_SENTENCES, "lines", "Raw lines received across all sources (pre-filter)"),
    c(SERVE_FILTERED_LINES, "lines", "Lines dropped by the per-source syntactic filter"),
    c(SERVE_DEDUP_DROPS, "lines", "Lines dropped as cross-source duplicates"),
    c(SERVE_INGEST_STALLS, "sends", "Ingest sends that blocked on a full pipeline"),
    g(SERVE_SUBSCRIBERS_CONNECTED, "subscribers", "CE subscribers currently connected"),
    c(SERVE_SUBSCRIBERS, "subscribers", "CE subscribers ever accepted since server start"),
    c(SERVE_EVENTS_BROADCAST, "events", "Events enqueued to subscriber queues"),
    c(SERVE_SLOW_EVICTIONS, "subscribers", "Subscribers evicted for not draining their queue"),
    c(SERVE_DROPPED_EVENTS, "events", "Events discarded because a subscriber was evicted"),
    c(SERVE_HTTP_REQUESTS, "requests", "HTTP requests answered by the metrics endpoint"),
    c(SERVE_FLUSHES, "flushes", "End-of-stream flushes processed (#flush control)"),
    h(SERVE_E2E_LATENCY_NS, "ns", "Admission-to-alert wall latency per recognizing slide"),
    g(SERVE_HEALTH_STATE, "state", "SLO health state (0 ok, 1 degraded, 2 critical)"),
    c(SERVE_HEALTH_TRANSITIONS, "transitions", "SLO health state transitions"),
    c(SERVE_SAMPLES, "samples", "Telemetry ring samples recorded by the serve driver"),
    c(SERVE_OPS_ALERTS, "alerts", "Machine-readable ops alerts broadcast on transitions"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_names_are_unique() {
        let mut seen = HashSet::new();
        for d in CATALOG {
            assert!(seen.insert(d.name), "duplicate catalog name {}", d.name);
        }
    }

    #[test]
    fn catalog_follows_conventions() {
        let prefixes = [
            "ais_", "tracker_", "stream_", "geo_", "modstore_", "rtec_", "cer_", "pipeline_",
            "trace_", "chaos_", "serve_",
        ];
        for d in CATALOG {
            assert!(
                prefixes.iter().any(|p| d.name.starts_with(p)),
                "{} lacks a stage prefix",
                d.name
            );
            match d.kind {
                MetricKind::Counter => assert!(
                    d.name.ends_with("_total"),
                    "counter {} must end in _total",
                    d.name
                ),
                MetricKind::Histogram => assert!(
                    d.name.ends_with("_ns"),
                    "histogram {} must end in _ns",
                    d.name
                ),
                MetricKind::Gauge => assert!(
                    !d.name.ends_with("_total"),
                    "gauge {} must not end in _total",
                    d.name
                ),
            }
            assert!(!d.help.is_empty() && !d.unit.is_empty());
        }
    }

    #[test]
    fn families_follow_conventions() {
        let prefixes = [
            "ais_", "tracker_", "stream_", "geo_", "modstore_", "rtec_", "cer_", "pipeline_",
            "trace_", "chaos_", "serve_",
        ];
        let mut seen = HashSet::new();
        for f in FAMILIES {
            assert!(seen.insert(f.name), "duplicate family name {}", f.name);
            assert!(
                CATALOG.iter().all(|d| d.name != f.name),
                "family {} collides with a plain catalog metric",
                f.name
            );
            assert!(
                prefixes.iter().any(|p| f.name.starts_with(p)),
                "{} lacks a stage prefix",
                f.name
            );
            match f.kind {
                MetricKind::Counter => assert!(
                    f.name.ends_with("_total"),
                    "counter family {} must end in _total",
                    f.name
                ),
                MetricKind::Histogram => assert!(
                    f.name.ends_with("_ns"),
                    "histogram family {} must end in _ns",
                    f.name
                ),
                MetricKind::Gauge => assert!(
                    !f.name.ends_with("_total"),
                    "gauge family {} must not end in _total",
                    f.name
                ),
            }
            assert!(!f.help.is_empty() && !f.unit.is_empty() && !f.label.is_empty());
            assert_eq!(
                f.member_name("7"),
                format!("{}{{{}=\"7\"}}", f.name, f.label)
            );
        }
    }

    #[test]
    fn catalog_spans_required_stages() {
        // The acceptance criteria require >= 20 metrics spanning these
        // stage prefixes.
        assert!(CATALOG.len() >= 20);
        for p in ["ais_", "tracker_", "stream_", "rtec_", "cer_"] {
            assert!(
                CATALOG.iter().any(|d| d.name.starts_with(p)),
                "no metric with prefix {p}"
            );
        }
    }
}
