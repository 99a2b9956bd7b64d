//! The traced run: per-layer numbers, measured from outside.
//!
//! Never part of the end-to-end timing. For a workload's input it mirrors
//! `LiveIngest`'s data path with the public pieces — `SourceMux::admit` →
//! `AdmissionBuffer::push` → `DataScanner::scan_from` → `LiveBatcher::push`
//! → `SurveillancePipeline::slide` → `WireEncoder::encode_outcome` →
//! `BroadcastHub::broadcast` — stage at a time over chunks of
//! [`CHUNK_LINES`] lines, one span per (chunk, stage), so the clock is
//! read a few times per chunk instead of a few times per line. Slide
//! spans take the program's own `PhaseTimings` as children; a span's self
//! time is its duration minus its children's. The mirror's wire output
//! must be byte-identical to `LiveIngest`'s over the same input.
//!
//! The cost of the layers the mirror cannot see — ingest channel and
//! sockets — comes from a three-rung ladder over the same log:
//! in-process → `ServerHandle::inject` → TCP.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use maritime::pipeline::{PhaseTimings, SlideOutcome, SurveillancePipeline};
use maritime::serve::{BroadcastHub, LiveBatcher, ServeOptions, WireEncoder};
use maritime::LiveIngest;
use maritime_ais::{DataScanner, PositionTuple};
use maritime_obs::names;
use maritime_stream::{AdmissionBuffer, SourceId, SourceMux, SourceVerdict, Timestamp};
use serde_json::{json, Value};

use crate::fingerprint::WireDigest;
use crate::measure::fastest;
use crate::passes::{run_blast, run_inject, run_inprocess, BlastBuffer};
use crate::report::{metrics_json, write_result, Meta};
use crate::stats::{median, percentile, sorted};
use crate::workloads::{Input, Mode, Offered, Workload};

/// Lines per stage-at-a-time chunk.
pub const CHUNK_LINES: usize = 256;

/// TCP passes per ladder round.
const TCP_PASSES: usize = 3;

/// Per-layer metrics, in the order of `BENCHMARK.json`: name, unit and
/// which direction is better.
/// Every workload reports every one; a metric of a layer the workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("ais.scan_ns_per_line", "ns/line", "lower"),
    ("ais.decode_errors", "count", "lower"),
    ("ais.fragments_joined", "count", "higher"),
    ("stream.mux_ns_per_line", "ns/line", "lower"),
    ("stream.dup_share", "share", "lower"),
    ("stream.admission_ns_per_line", "ns/line", "lower"),
    ("stream.admission_late", "count", "lower"),
    ("stream.admission_peak_buffered", "count", "lower"),
    ("tracker.ns_per_line", "ns/line", "lower"),
    ("tracker.slide_ms_p50", "ms", "lower"),
    ("tracker.critical_share", "share", "lower"),
    ("modstore.maintain_ns_per_line", "ns/line", "lower"),
    ("modstore.maintain_ns_per_line_q1", "ns/line", "lower"),
    ("modstore.maintain_ns_per_line_q4", "ns/line", "lower"),
    ("cer.query_ms_p50", "ms", "lower"),
    ("cer.query_ms_p90", "ms", "lower"),
    ("cer.ns_per_me", "ns/me", "lower"),
    ("cer.ce_count", "count", "higher"),
    ("cer.incremental_full_share", "share", "lower"),
    ("cer.migrations", "count", "lower"),
    ("pipeline.self_ns_per_line", "ns/line", "lower"),
    ("wire.encode_us_per_query", "us/query", "lower"),
    ("hub.broadcast_ns_per_event", "ns/event", "lower"),
    ("hub.evictions", "count", "lower"),
    ("net.channel_ns_per_line", "ns/line", "lower"),
    ("net.socket_ns_per_line", "ns/line", "lower"),
    ("net.write_blocked_share", "share", "lower"),
    ("net.ingest_stalls", "count", "lower"),
    ("ckpt.bytes", "bytes", "lower"),
    ("ckpt.write_ms", "ms", "lower"),
    ("ckpt.restore_ms", "ms", "lower"),
    ("obs.snapshot_us", "us", "lower"),
    ("proc.rss_growth_mb", "MB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.busy_to_untraced_ratio", "ratio", "higher"),
    ("share.ais_stream_tracker", "share", "higher"),
    ("share.cer", "share", "higher"),
    ("net.tcp_to_inprocess_ratio", "ratio", "lower"),
];

/// One span: a call into a layer, timed from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.add(name, now, now, parent)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a span whose interval is already known.
    fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }
}

/// The layer a span's self time is charged to: the repository module its
/// name is prefixed with. Chunk and flush spans are the mirror's own loop
/// (`harness`); the batcher lives with the pipeline driver.
#[must_use]
pub fn layer_of(span_name: &str) -> &'static str {
    match span_name.split('.').next().unwrap_or("") {
        "ais" => "ais",
        "stream" => "stream",
        "tracker" => "tracker",
        "modstore" => "modstore",
        "cer" => "cer",
        "pipeline" | "live" => "pipeline",
        "wire" => "wire",
        "hub" => "hub",
        _ => "harness",
    }
}

/// Self time per span: duration minus the part its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Busy nanoseconds per layer: the self times of its spans.
#[must_use]
pub fn layer_busy(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut busy = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *busy.entry(layer_of(span.name)).or_insert(0) += own;
    }
    busy
}

/// What the mirror learned about one slide.
struct SlideFacts {
    admitted: usize,
    fresh_critical: usize,
    ce_count: Option<usize>,
    timings: PhaseTimings,
}

/// The mirrored data path (see the module docs).
struct Mirror {
    mux: SourceMux,
    admission: AdmissionBuffer<(String, u32, u64)>,
    scanner: DataScanner,
    batcher: LiveBatcher,
    pipeline: SurveillancePipeline,
    encoder: WireEncoder,
    hub: Arc<BroadcastHub>,
    subscriber: maritime::serve::hub::EventReceiver,
    origin: Instant,
    last_t: Timestamp,
    duplicates: u64,
    events: Vec<String>,
    slides: Vec<SlideFacts>,
}

impl Mirror {
    fn new(input: &Input) -> Result<Self, String> {
        let pipeline =
            SurveillancePipeline::new(&input.config, input.vessels.clone(), input.areas.clone())
                .map_err(|e| format!("configuration rejected: {e}"))?;
        let hub = BroadcastHub::new(ServeOptions::default().queue_bound);
        let (_, subscriber) = hub.subscribe();
        Ok(Self {
            mux: SourceMux::new(input.dedup),
            admission: AdmissionBuffer::new(input.skew),
            scanner: DataScanner::new(),
            batcher: LiveBatcher::new(input.config.tracking_window, Timestamp::ZERO),
            pipeline,
            encoder: WireEncoder::new(),
            hub,
            subscriber,
            origin: Instant::now(),
            last_t: Timestamp::ZERO,
            duplicates: 0,
            events: Vec::new(),
            slides: Vec::new(),
        })
    }

    /// One chunk, stage at a time.
    fn chunk(&mut self, lines: &[Offered], tr: &mut Tracer) {
        let chunk = tr.open("chunk", None);

        let id = tr.open("stream.mux", Some(chunk));
        let mut accepted: Vec<&Offered> = Vec::with_capacity(lines.len());
        for l in lines {
            match self.mux.admit(SourceId(l.source), Timestamp(l.t), &l.line) {
                SourceVerdict::Accepted => accepted.push(l),
                SourceVerdict::Duplicate => self.duplicates += 1,
                SourceVerdict::Filtered => {}
            }
        }
        tr.close(id);

        let id = tr.open("stream.admission", Some(chunk));
        let mut released = Vec::with_capacity(accepted.len());
        for l in accepted {
            self.last_t = self.last_t.max(Timestamp(l.t));
            let stamp = self.origin.elapsed().as_nanos() as u64;
            released.extend(
                self.admission
                    .push(Timestamp(l.t), (l.line.clone(), l.source, stamp)),
            );
        }
        tr.close(id);

        self.downstream(&released, chunk, tr);
        tr.close(chunk);
    }

    /// Scan → batch/slide → encode → broadcast for released lines.
    fn downstream(
        &mut self,
        released: &[(Timestamp, (String, u32, u64))],
        parent: usize,
        tr: &mut Tracer,
    ) {
        let id = tr.open("ais.scan", Some(parent));
        let tuples: Vec<PositionTuple> = released
            .iter()
            .filter_map(|(t, (line, source, _))| self.scanner.scan_from(*source, line, *t))
            .collect();
        tr.close(id);

        let batch = tr.open("live.batch", Some(parent));
        let mut outcomes: Vec<SlideOutcome> = Vec::new();
        let pipeline = &mut self.pipeline;
        for tuple in tuples {
            self.batcher.push(tuple, |q, items| {
                outcomes.push(traced_slide(tr, batch, || pipeline.slide(q, &items)));
            });
        }
        tr.close(batch);
        self.emit(outcomes, None, parent, tr);
    }

    /// Encodes and broadcasts the outcomes of some slides (plus an
    /// optional trailing marker), then drains the in-process subscriber.
    fn emit(
        &mut self,
        outcomes: Vec<SlideOutcome>,
        marker: Option<String>,
        parent: usize,
        tr: &mut Tracer,
    ) {
        if outcomes.is_empty() && marker.is_none() {
            return;
        }
        let id = tr.open("wire.encode", Some(parent));
        let mut events: Vec<String> = Vec::new();
        for outcome in &outcomes {
            events.extend(self.encoder.encode_outcome(outcome));
        }
        events.extend(marker);
        tr.close(id);

        let id = tr.open("hub.broadcast", Some(parent));
        for event in &events {
            self.hub.broadcast(event);
        }
        tr.close(id);

        self.events
            .extend(self.subscriber.try_iter().map(|event| event.to_string()));
        self.slides.extend(outcomes.into_iter().map(|o| SlideFacts {
            admitted: o.admitted,
            fresh_critical: o.fresh_critical,
            ce_count: o.recognition.as_ref().map(|s| s.ce_count),
            timings: o.timings,
        }));
    }

    /// Mirrors `LiveIngest::flush`.
    fn flush(&mut self, tr: &mut Tracer) {
        let flush = tr.open("flush", None);
        let id = tr.open("stream.admission", Some(flush));
        let released = self.admission.flush();
        tr.close(id);
        self.downstream(&released, flush, tr);

        self.scanner.finish(self.last_t);
        let batch = tr.open("live.batch", Some(flush));
        let mut outcomes: Vec<SlideOutcome> = Vec::new();
        let pipeline = &mut self.pipeline;
        let final_q = self.batcher.finish(|q, items| {
            outcomes.push(traced_slide(tr, batch, || pipeline.slide(q, &items)));
        });
        outcomes.push(traced_slide(tr, batch, || pipeline.finish(final_q)));
        tr.close(batch);
        let marker = WireEncoder::flushed_marker(final_q.as_secs());
        self.emit(outcomes, Some(marker), flush, tr);
        tr.close(flush);
    }
}

/// Times one slide (or the final pass) and lays the program's own
/// `PhaseTimings` under it as children, end to end in phase order.
fn traced_slide(
    tr: &mut Tracer,
    parent: usize,
    slide: impl FnOnce() -> SlideOutcome,
) -> SlideOutcome {
    let start = tr.now();
    let outcome = slide();
    let end = tr.now();
    let id = tr.add("pipeline.slide", start, end, Some(parent));
    let t = &outcome.timings;
    let mut at = start;
    for (name, duration) in [
        ("tracker.slide", t.tracking),
        ("modstore.staging", t.staging),
        ("modstore.reconstruction", t.reconstruction),
        ("modstore.loading", t.loading),
        ("cer.recognition", t.recognition),
    ] {
        let ns = duration.as_nanos() as u64;
        if ns > 0 {
            let until = (at + ns).min(end);
            tr.add(name, at, until, Some(id));
            at = until;
        }
    }
    outcome
}

/// A finished mirror run.
struct Mirrored {
    wall_s: f64,
    tracer: Tracer,
    mirror: Mirror,
}

fn run_mirror(input: &Input) -> Result<Mirrored, String> {
    let mut mirror = Mirror::new(input)?;
    let mut tracer = Tracer::default();
    let started = Instant::now();
    for chunk in input.lines.chunks(CHUNK_LINES) {
        mirror.chunk(chunk, &mut tracer);
    }
    mirror.flush(&mut tracer);
    Ok(Mirrored {
        wall_s: started.elapsed().as_secs_f64(),
        tracer,
        mirror,
    })
}

/// Resident set size of this process, MB (0 where /proc is absent).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics of one ladder round, by name.
type RoundMetrics = BTreeMap<&'static str, f64>;

/// One round: untraced in-process pass, traced mirror, inject, TCP.
fn round(
    workload: Workload,
    input: &Input,
    ladder: &Input,
    buffer: &BlastBuffer,
) -> Result<(RoundMetrics, Mirrored), String> {
    let mut m = RoundMetrics::new();
    let n = input.lines.len() as f64;

    // Rung 1 and the mirror's twin: the untraced in-process pass.
    let rss_before = rss_mb();
    let (untraced, live) = run_inprocess(input, &input.config, &[])?;
    m.insert("proc.rss_growth_mb", rss_mb() - rss_before);
    checkpoint_metrics(&mut m, input, &live)?;
    drop(live);

    let mirrored = run_mirror(input)?;
    let mirror = &mirrored.mirror;
    if WireDigest::of(mirror.events.iter().map(String::as_str)) != untraced.digest {
        return Err(format!(
            "{}: the traced mirror's wire output differs from LiveIngest's",
            workload.name()
        ));
    }
    mirror_metrics(&mut m, &mirrored, n, untraced.wall_s);

    // Rungs 2 and 3 over the ladder log (the input itself, except on the
    // paced workload, whose two-source disorder cannot be blasted
    // deterministically: its ladder is the same fleet's clean log).
    let ladder_n = ladder.lines.len() as f64;
    let inprocess_s = if std::ptr::eq(input, ladder) {
        untraced.wall_s
    } else {
        run_inprocess(ladder, &ladder.config, &[])?.0.wall_s
    };
    let inject = run_inject(ladder)?;
    // A saturated server flips between scheduling modes a quarter apart:
    // the TCP rung is the pass with the median wall of three.
    let mut tcp_passes = Vec::with_capacity(TCP_PASSES);
    for _ in 0..TCP_PASSES {
        let stalls_before = maritime_obs::snapshot().counter(names::SERVE_INGEST_STALLS);
        let pass = run_blast(ladder, buffer, &[])?;
        let stalls = maritime_obs::snapshot().counter(names::SERVE_INGEST_STALLS) - stalls_before;
        tcp_passes.push((pass, stalls));
    }
    let walls: Vec<f64> = tcp_passes.iter().map(|(pass, _)| pass.wall_s).collect();
    let (tcp, stalls) = tcp_passes.swap_remove(fastest(&walls, TCP_PASSES)[TCP_PASSES / 2]);
    if tcp.digest != inject.digest {
        return Err(format!(
            "{}: TCP and inject rungs disagree",
            workload.name()
        ));
    }
    m.insert(
        "net.channel_ns_per_line",
        (inject.wall_s - inprocess_s) * 1e9 / ladder_n,
    );
    m.insert(
        "net.socket_ns_per_line",
        (tcp.wall_s - inject.wall_s) * 1e9 / ladder_n,
    );
    m.insert("net.write_blocked_share", tcp.write_blocked_s / tcp.wall_s);
    m.insert("net.ingest_stalls", stalls as f64);
    m.insert("net.tcp_to_inprocess_ratio", tcp.wall_s / inprocess_s);
    m.insert("hub.evictions", tcp.evictions as f64);

    let started = Instant::now();
    let snapshots = 5;
    for _ in 0..snapshots {
        std::hint::black_box(maritime_obs::snapshot());
    }
    m.insert(
        "obs.snapshot_us",
        started.elapsed().as_secs_f64() * 1e6 / f64::from(snapshots),
    );
    Ok((m, mirrored))
}

/// `ckpt.*`: checkpoint the finished live path, restore it into a fresh one.
fn checkpoint_metrics(
    m: &mut RoundMetrics,
    input: &Input,
    live: &LiveIngest,
) -> Result<(), String> {
    let started = Instant::now();
    let bytes = live.checkpoint();
    m.insert("ckpt.write_ms", started.elapsed().as_secs_f64() * 1e3);
    m.insert("ckpt.bytes", bytes.len() as f64);
    let mut fresh = input.live_ingest(&input.config)?;
    let started = Instant::now();
    fresh
        .restore_checkpoint(&bytes)
        .map_err(|e| format!("checkpoint does not restore: {e}"))?;
    m.insert("ckpt.restore_ms", started.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// Everything the mirror's spans and the program's public counters give.
fn mirror_metrics(m: &mut RoundMetrics, mirrored: &Mirrored, n: f64, untraced_s: f64) {
    let mirror = &mirrored.mirror;
    let spans = &mirrored.tracer.spans;
    let own = self_times(spans);
    let span_total = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, own)| *own as f64)
            .sum()
    };
    let busy = layer_busy(spans);
    let layer = |name: &str| busy.get(name).copied().unwrap_or(0) as f64;
    let traced_ns = mirrored.wall_s * 1e9;

    let scan = mirror.scanner.stats();
    m.insert("ais.scan_ns_per_line", span_total("ais.scan") / n);
    m.insert(
        "ais.decode_errors",
        (scan.malformed + scan.bad_checksum + scan.bad_payload) as f64,
    );
    m.insert("ais.fragments_joined", scan.voyage_declarations as f64);

    let admission = mirror.admission.stats();
    m.insert("stream.mux_ns_per_line", span_total("stream.mux") / n);
    m.insert("stream.dup_share", mirror.duplicates as f64 / n);
    m.insert(
        "stream.admission_ns_per_line",
        span_total("stream.admission") / n,
    );
    m.insert("stream.admission_late", admission.late as f64);
    m.insert(
        "stream.admission_peak_buffered",
        admission.peak_buffered as f64,
    );

    let slides = &mirror.slides;
    let ns = |d: std::time::Duration| d.as_nanos() as f64;
    let admitted: f64 = slides.iter().map(|s| s.admitted as f64).sum();
    let critical: f64 = slides.iter().map(|s| s.fresh_critical as f64).sum();
    let tracking_ms: Vec<f64> = slides
        .iter()
        .map(|s| ns(s.timings.tracking) / 1e6)
        .collect();
    m.insert("tracker.ns_per_line", layer("tracker") / n);
    m.insert(
        "tracker.slide_ms_p50",
        percentile(&sorted(&tracking_ms), 50.0),
    );
    m.insert("tracker.critical_share", critical / admitted.max(1.0));

    // The archive grows over the run: maintenance cost per admitted line
    // in the first and the last quarter of the slides.
    let maintain = |part: &[SlideFacts]| -> f64 {
        let cost: f64 = part
            .iter()
            .map(|s| ns(s.timings.staging) + ns(s.timings.reconstruction) + ns(s.timings.loading))
            .sum();
        let lines: f64 = part.iter().map(|s| s.admitted as f64).sum();
        cost / lines.max(1.0)
    };
    let quarter = (slides.len() / 4).max(1);
    m.insert("modstore.maintain_ns_per_line", layer("modstore") / n);
    m.insert(
        "modstore.maintain_ns_per_line_q1",
        maintain(&slides[..quarter]),
    );
    m.insert(
        "modstore.maintain_ns_per_line_q4",
        maintain(&slides[slides.len() - quarter..]),
    );

    let query_ms: Vec<f64> = slides
        .iter()
        .filter(|s| s.ce_count.is_some())
        .map(|s| ns(s.timings.recognition) / 1e6)
        .collect();
    let query_ms = sorted(&query_ms);
    let queries = query_ms.len() as f64;
    let incremental = mirror.pipeline.incremental_stats();
    m.insert("cer.query_ms_p50", percentile(&query_ms, 50.0));
    m.insert("cer.query_ms_p90", percentile(&query_ms, 90.0));
    m.insert("cer.ns_per_me", layer("cer") / critical.max(1.0));
    m.insert(
        "cer.ce_count",
        slides.iter().filter_map(|s| s.ce_count).sum::<usize>() as f64,
    );
    m.insert(
        "cer.incremental_full_share",
        incremental.full as f64 / ((incremental.full + incremental.incremental).max(1)) as f64,
    );
    m.insert(
        "cer.migrations",
        mirror.pipeline.partition_migrations() as f64,
    );

    m.insert(
        "pipeline.self_ns_per_line",
        span_total("pipeline.slide") / n,
    );
    m.insert(
        "wire.encode_us_per_query",
        layer("wire") / 1e3 / queries.max(1.0),
    );
    m.insert(
        "hub.broadcast_ns_per_event",
        layer("hub") / (mirror.events.len().max(1)) as f64,
    );

    let harness = layer("harness");
    m.insert("trace.overhead_ratio", mirrored.wall_s / untraced_s);
    m.insert(
        "trace.busy_to_untraced_ratio",
        (traced_ns - harness) / 1e9 / untraced_s,
    );
    m.insert(
        "share.ais_stream_tracker",
        (layer("ais") + layer("stream") + layer("tracker")) / traced_ns,
    );
    m.insert("share.cer", layer("cer") / traced_ns);
}

/// The result of tracing one workload: per-layer metrics (medians over the
/// rounds) and the last round's spans.
pub struct Traced {
    pub workload: Workload,
    pub seed: u64,
    pub lines: usize,
    pub rounds: usize,
    /// Every metric of [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub spans: Vec<Span>,
    traced_wall_s: f64,
}

/// Traces `workload`: ladder rounds until `seconds` passed (at least one).
pub fn trace_workload(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let input = workload.generate(seed);
    let clean;
    let ladder = if workload.mode() == Mode::Paced {
        clean = input.clean_log(seed);
        &clean
    } else {
        &input
    };
    let buffer = BlastBuffer::render(&ladder.lines);

    let mut rounds: Vec<RoundMetrics> = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (metrics, mirrored) = round(workload, &input, ladder, &buffer)?;
        rounds.push(metrics);
        last = Some(mirrored);
    }
    let last = last.expect("at least one round ran");
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            // Memory grows once: only the first round sees it.
            let value = if name == "proc.rss_growth_mb" {
                values.first().copied().unwrap_or(0.0)
            } else if values.is_empty() {
                0.0
            } else {
                median(&values)
            };
            (name, unit, value)
        })
        .collect();
    Ok(Traced {
        workload,
        seed,
        lines: input.lines.len(),
        rounds: rounds.len(),
        metrics,
        spans: last.tracer.spans,
        traced_wall_s: last.wall_s,
    })
}

impl Traced {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, v)| *v)
    }

    /// The waterfall: per layer, busy ns per line and share of the traced
    /// wall (last round), then every per-layer metric.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} (seed {:#x}): traced run, {} lines, {} round(s), {} spans\n  {:<10} {:>12} {:>8}\n",
            self.workload.name(),
            self.seed,
            self.lines,
            self.rounds,
            self.spans.len(),
            "layer",
            "ns/line",
            "share"
        );
        let total_ns = self.traced_wall_s * 1e9;
        for (layer, busy) in layer_busy(&self.spans) {
            out += &format!(
                "  {layer:<10} {:>12.1} {:>7.1}%\n",
                busy as f64 / self.lines as f64,
                100.0 * busy as f64 / total_ns
            );
        }
        for (name, unit, value) in &self.metrics {
            out += &format!("  {name:<34} {value:>16.4} {unit}\n");
        }
        out
    }

    /// The driver's result line for `--trace 1`.
    #[must_use]
    pub fn result_line(&self) -> Value {
        json!({
            "correct": true,
            "attempted": self.lines * self.rounds,
            "failed": 0,
            "metrics": metrics_json(&self.metrics),
        })
    }

    /// Layer-dominance self-check: a workload that stops stressing its
    /// layer is a broken benchmark, not a result.
    pub fn check(&self) -> Result<(), String> {
        let front = self.metric("share.ais_stream_tracker");
        let cer = self.metric("share.cer");
        let tcp_ratio = self.metric("net.tcp_to_inprocess_ratio");
        let complaint = match self.workload {
            Workload::TrackFleet if front < 0.60 => Some(format!(
                "ais+stream+tracker do {:.1}% of the work (< 60%)",
                front * 100.0
            )),
            Workload::TrackFleet if cer > 0.15 => {
                Some(format!("cer does {:.1}% of the work (> 15%)", cer * 100.0))
            }
            Workload::RecognizeDense if cer < 0.50 => {
                Some(format!("cer does {:.1}% of the work (< 50%)", cer * 100.0))
            }
            Workload::ServeBlast if tcp_ratio < 1.5 => Some(format!(
                "the TCP wall is {tcp_ratio:.2}x the in-process wall (< 1.5x)"
            )),
            _ => None,
        };
        match complaint {
            Some(c) => Err(format!(
                "{}: layer dominance lost: {c}",
                self.workload.name()
            )),
            None => Ok(()),
        }
    }

    /// Chrome trace events of the last round (`pid` tells workloads apart
    /// when several share a file).
    #[must_use]
    pub fn chrome_events(&self, pid: usize) -> Vec<Value> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "cat": layer_of(s.name),
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.duration_ns() as f64 / 1e3,
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "id": id,
                        "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                        "workload": self.workload.name(),
                    },
                })
            })
            .collect()
    }

    /// The waterfall and metrics as JSON.
    #[must_use]
    pub fn to_json(&self, meta: &Meta) -> Value {
        let total_ns = self.traced_wall_s * 1e9;
        let waterfall: Vec<Value> = layer_busy(&self.spans)
            .into_iter()
            .map(|(layer, busy)| {
                json!({
                    "layer": layer,
                    "busy_ns": busy,
                    "ns_per_line": busy as f64 / self.lines as f64,
                    "share": busy as f64 / total_ns,
                })
            })
            .collect();
        json!({
            "workload": self.workload.name(),
            "meta": meta.to_json(self.workload, self.seed),
            "lines": self.lines,
            "rounds": self.rounds,
            "waterfall": Value::Array(waterfall),
            "metrics": metrics_json(&self.metrics),
        })
    }
}

/// Writes `benchmark/results/trace.json` (Chrome trace format, loads in
/// Perfetto) and `benchmark/results/waterfall.json` for the traced workloads.
pub fn write_traces(traced: &[Traced], meta: &Meta) -> Result<(), String> {
    let events: Vec<Value> = traced
        .iter()
        .enumerate()
        .flat_map(|(pid, t)| t.chrome_events(pid + 1))
        .collect();
    write_result(
        "trace.json",
        &json!({"traceEvents": Value::Array(events), "displayTimeUnit": "ms"}),
    )?;
    write_result(
        "waterfall.json",
        &json!({"workloads": Value::Array(traced.iter().map(|t| t.to_json(meta)).collect())}),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("chunk", 0, 100, None),
            span("ais.scan", 10, 40, Some(0)),
            span("live.batch", 40, 90, Some(0)),
            span("pipeline.slide", 50, 80, Some(2)),
            span("cer.recognition", 50, 70, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 10, 20]);
        let busy = layer_busy(&spans);
        assert_eq!(busy["harness"], 20);
        assert_eq!(busy["ais"], 30);
        assert_eq!(busy["pipeline"], 30);
        assert_eq!(busy["cer"], 20);
        assert_eq!(
            busy.values().sum::<u64>(),
            100,
            "self times partition the root span"
        );
    }

    #[test]
    fn spans_map_to_the_repository_modules() {
        for (name, layer) in [
            ("ais.scan", "ais"),
            ("stream.mux", "stream"),
            ("stream.admission", "stream"),
            ("tracker.slide", "tracker"),
            ("modstore.loading", "modstore"),
            ("cer.recognition", "cer"),
            ("pipeline.slide", "pipeline"),
            ("live.batch", "pipeline"),
            ("wire.encode", "wire"),
            ("hub.broadcast", "hub"),
            ("chunk", "harness"),
            ("flush", "harness"),
        ] {
            assert_eq!(layer_of(name), layer, "{name}");
        }
    }

    #[test]
    fn per_layer_names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in PER_LAYER {
            assert!(better == "lower" || better == "higher");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(name.chars().all(ok) && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
