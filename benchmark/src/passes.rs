//! One pass of a workload's input through the system, three ways:
//! in-process (`LiveIngest`), through a real server at full speed (one
//! TCP feed, or `ServerHandle::inject`), and through a real server on an
//! open-loop schedule. Only the system's stable outer surface is used.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use maritime::serve::{self, IngestStats, ServerHandle};
use maritime::{LiveIngest, SurveillanceConfig};
use maritime_stream::{SourceId, Timestamp};

use crate::fingerprint::{event_type, int_field, WireDigest};
use crate::workloads::{due_count, due_secs, render_line, trigger_of, Input, Offered, Trigger};

/// Lines per write of the blast feed (≈16 KiB): small enough that the
/// instant before a write is a fair "offered" time for every line in it,
/// large enough that clock reads cost nothing.
const BLAST_CHUNK_LINES: usize = 256;

/// Sleep between wake-ups of the paced generator.
const PACED_TICK: StdDuration = StdDuration::from_micros(500);

/// A socket that makes no progress for this long fails the pass instead
/// of hanging the benchmark.
const IO_TIMEOUT: StdDuration = StdDuration::from_secs(60);

/// A wire line and the instant the subscriber had it.
pub type Received = Vec<(Instant, String)>;

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds from the first line offered until the `flushed` marker was
    /// in the subscriber's hands.
    pub wall_s: f64,
    /// Digest of the recognition output.
    pub digest: WireDigest,
    /// Lines past the syntactic filter: accepted plus suppressed
    /// duplicates. Counted together because the split is timing-dependent
    /// under cross-connection jitter: the mux prunes its dedup table when
    /// full, and a duplicate whose original was pruned in between is
    /// accepted (and then ignored by the tracker as a stale fix).
    pub admitted: u64,
    /// One alert delay per triggered query, milliseconds.
    pub delays_ms: Vec<f64>,
    /// Paced passes: how late each line was written, milliseconds.
    pub late_ms: Vec<f64>,
    /// Seconds the generator spent inside `write`.
    pub write_blocked_s: f64,
    /// Subscribers the hub evicted during the pass.
    pub evictions: u64,
}

impl Pass {
    /// Failures of this pass against the reference: admitted-line
    /// difference plus wire events missing or differing.
    #[must_use]
    pub fn failures(&self, reference: &Pass) -> u64 {
        self.admitted.abs_diff(reference.admitted) + self.digest.mismatches(&reference.digest)
    }
}

/// Turns offered instants and received lines into the pass record.
fn finish_pass(
    started: Instant,
    triggers: &[Trigger],
    offered_at: &[Instant],
    received: &Received,
    stats: IngestStats,
) -> Result<Pass, String> {
    let (flushed_at, last) = received.last().ok_or("no wire events received")?;
    if event_type(last) != Some("flushed") {
        return Err(format!(
            "stream ended before the flushed marker ({} events)",
            received.len()
        ));
    }
    let mut delays_ms = Vec::with_capacity(triggers.len());
    for (at, line) in received {
        if event_type(line) != Some("query") {
            continue;
        }
        let Some(k) = int_field(line, "at").and_then(|q| trigger_of(triggers, q)) else {
            continue; // released by flush: no trigger line, no sample
        };
        let Some(offered) = offered_at.get(k) else {
            continue;
        };
        delays_ms.push(at.saturating_duration_since(*offered).as_secs_f64() * 1e3);
    }
    Ok(Pass {
        wall_s: flushed_at.duration_since(started).as_secs_f64(),
        digest: WireDigest::of(received.iter().map(|(_, l)| l.as_str())),
        admitted: stats.accepted + stats.duplicates,
        delays_ms,
        ..Pass::default()
    })
}

/// In-process pass: every line through `LiveIngest::push_line`, then
/// `flush`. The clock is read only before a trigger line and after a push
/// that returned events, so timing costs nothing per line.
pub fn run_inprocess(
    input: &Input,
    config: &SurveillanceConfig,
    triggers: &[Trigger],
) -> Result<(Pass, LiveIngest), String> {
    let mut live = input.live_ingest(config)?;
    let mut offered_at: Vec<Instant> = Vec::with_capacity(triggers.len());
    let mut received: Received = Vec::new();
    let mut next_trigger = 0;
    let started = Instant::now();
    for (i, l) in input.lines.iter().enumerate() {
        while triggers.get(next_trigger).is_some_and(|t| t.line == i) {
            offered_at.push(Instant::now());
            next_trigger += 1;
        }
        let events = live.push_line(SourceId(l.source), Timestamp(l.t), &l.line);
        if !events.is_empty() {
            let now = Instant::now();
            received.extend(events.into_iter().map(|e| (now, e)));
        }
    }
    let events = live.flush();
    let now = Instant::now();
    received.extend(events.into_iter().map(|e| (now, e)));
    let pass = finish_pass(started, triggers, &offered_at, &received, live.stats())?;
    Ok((pass, live))
}

/// A TCP subscriber: connected, registered with the hub, and reading on
/// its own thread until the `flushed` marker.
struct Subscriber {
    reader: JoinHandle<Result<Received, String>>,
}

impl Subscriber {
    fn connect(handle: &ServerHandle) -> Result<Self, String> {
        let addr = handle.subscribe.ok_or("subscribe port disabled")?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("subscriber connect: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("subscriber timeout: {e}"))?;
        // Registration happens on a server thread after accept; events
        // broadcast before it are not delivered.
        let deadline = Instant::now() + StdDuration::from_secs(10);
        while handle.hub().subscriber_count() < 1 {
            if Instant::now() > deadline {
                return Err("hub never registered the subscriber".into());
            }
            std::thread::sleep(StdDuration::from_millis(1));
        }
        let reader = std::thread::Builder::new()
            .name("bench-subscriber".into())
            .spawn(move || read_until_flushed(BufReader::new(stream)))
            .map_err(|e| format!("subscriber thread: {e}"))?;
        Ok(Self { reader })
    }

    fn finish(self) -> Result<Received, String> {
        self.reader
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?
    }
}

/// Reads wire lines, stamping each with its receive instant, up to and
/// including the `flushed` marker.
fn read_until_flushed(mut reader: impl BufRead) -> Result<Received, String> {
    let mut received: Received = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("subscriber read after {} events: {e}", received.len()))?;
        let now = Instant::now();
        if n == 0 {
            return Ok(received); // closed early: finish_pass reports it
        }
        line.truncate(line.trim_end().len());
        let done = event_type(&line) == Some("flushed");
        received.push((now, line));
        if done {
            return Ok(received);
        }
    }
}

/// Stops a server and waits for its threads.
fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Runs `feed` against a freshly booted server with one TCP subscriber,
/// then stops the server whatever happened.
fn with_server<T>(
    input: &Input,
    feed: impl FnOnce(&ServerHandle) -> Result<T, String>,
) -> Result<(T, Received, IngestStats, u64), String> {
    let handle = serve::start(input.serve_options()).map_err(|e| format!("server start: {e}"))?;
    let outcome = Subscriber::connect(&handle).and_then(|subscriber| {
        let fed = feed(&handle);
        if fed.is_err() {
            // Unblock the reader: shutting down closes the hub.
            handle.shutdown();
        }
        let received = subscriber.finish();
        Ok((fed?, received?))
    });
    let stats = handle.ingest_stats();
    let evictions = handle.hub().evicted_count();
    stop(handle);
    let (fed, received) = outcome?;
    Ok((fed, received, stats, evictions))
}

/// A log pre-rendered for one blasting TCP feed: the whole byte buffer in
/// the SERVING.md framing, cut into chunks at line boundaries.
#[derive(Debug, Clone)]
pub struct BlastBuffer {
    bytes: Vec<u8>,
    /// End offset of each chunk in `bytes`; chunk `c` starts at line
    /// `c * BLAST_CHUNK_LINES`.
    chunk_ends: Vec<usize>,
}

impl BlastBuffer {
    #[must_use]
    pub fn render(lines: &[Offered]) -> Self {
        let mut bytes = Vec::with_capacity(lines.len() * 64);
        let mut chunk_ends = Vec::with_capacity(lines.len() / BLAST_CHUNK_LINES + 1);
        for chunk in lines.chunks(BLAST_CHUNK_LINES) {
            for l in chunk {
                render_line(&mut bytes, l.t, &l.line);
            }
            chunk_ends.push(bytes.len());
        }
        Self { bytes, chunk_ends }
    }
}

/// Blast pass: one TCP feed writes the whole buffer as fast as
/// backpressure allows, then `#flush`; one TCP subscriber reads to the
/// marker. A line's offered instant is the instant before the write of
/// its chunk.
pub fn run_blast(
    input: &Input,
    buffer: &BlastBuffer,
    triggers: &[Trigger],
) -> Result<Pass, String> {
    let ((started, chunk_at, blocked), received, stats, evictions) =
        with_server(input, |handle| {
            let addr = handle.nmea_tcp.ok_or("nmea port disabled")?;
            let mut feed = TcpStream::connect(addr).map_err(|e| format!("feed connect: {e}"))?;
            feed.set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| format!("feed timeout: {e}"))?;
            let mut chunk_at: Vec<Instant> = Vec::with_capacity(buffer.chunk_ends.len());
            let started = Instant::now();
            let mut from = 0;
            for &end in &buffer.chunk_ends {
                chunk_at.push(Instant::now());
                feed.write_all(&buffer.bytes[from..end])
                    .map_err(|e| format!("feed write: {e}"))?;
                from = end;
            }
            feed.write_all(b"#flush\n")
                .and_then(|()| feed.flush())
                .map_err(|e| format!("feed flush: {e}"))?;
            // All but the clock reads of this loop is time inside `write`.
            let blocked = started.elapsed().as_secs_f64();
            Ok((started, chunk_at, blocked))
        })?;
    let offered_at: Vec<Instant> = triggers
        .iter()
        .map(|t| chunk_at[t.line / BLAST_CHUNK_LINES])
        .collect();
    let mut pass = finish_pass(started, triggers, &offered_at, &received, stats)?;
    pass.write_blocked_s = blocked;
    pass.evictions = evictions;
    Ok(pass)
}

/// Inject pass: the same lines through `ServerHandle::inject` — the
/// ingest channel, driver thread and hub without any socket — with an
/// in-process hub subscriber. The middle rung of the `net.*` ladder.
pub fn run_inject(input: &Input) -> Result<Pass, String> {
    let mut options = input.serve_options();
    options.nmea_tcp_port = None;
    options.subscribe_port = None;
    options.http_port = None;
    let handle = serve::start(options).map_err(|e| format!("server start: {e}"))?;
    let (_, rx) = handle.hub().subscribe();
    let started = Instant::now();
    let fed = input
        .lines
        .iter()
        .all(|l| handle.inject(l.source, l.t, &l.line))
        && handle.inject_flush();
    let mut received: Received = Vec::new();
    if fed {
        while let Ok(event) = rx.recv_timeout(IO_TIMEOUT) {
            let now = Instant::now();
            let done = event_type(&event) == Some("flushed");
            received.push((now, event.to_string()));
            if done {
                break;
            }
        }
    }
    let stats = handle.ingest_stats();
    stop(handle);
    if !fed {
        return Err("the driver went away mid-inject".into());
    }
    finish_pass(started, &[], &[], &received, stats)
}

/// A log pre-rendered for the paced generator: one byte buffer per feed
/// connection, and for every schedule position the end offsets reached in
/// both buffers, so "everything due by now" is two contiguous slices.
#[derive(Debug, Clone)]
pub struct PacedBuffers {
    conns: [Vec<u8>; 2],
    /// `ends[k]`: buffer offsets after schedule position `k`.
    ends: Vec<[usize; 2]>,
}

impl PacedBuffers {
    #[must_use]
    pub fn render(lines: &[Offered]) -> Self {
        let mut conns = [Vec::new(), Vec::new()];
        let mut ends = Vec::with_capacity(lines.len());
        for l in lines {
            render_line(&mut conns[l.source as usize % 2], l.t, &l.line);
            ends.push([conns[0].len(), conns[1].len()]);
        }
        Self { conns, ends }
    }
}

/// Paced pass, open loop: line `k` is due `k / rate` seconds after the
/// start whatever the server does. The generator wakes every
/// [`PACED_TICK`], writes everything due to the two feed connections, and
/// records how late it ran. Delays are measured from due instants.
pub fn run_paced(
    input: &Input,
    buffers: &PacedBuffers,
    triggers: &[Trigger],
    rate: f64,
) -> Result<Pass, String> {
    let n = input.lines.len();
    let ((started, late_ms, blocked), received, stats, evictions) = with_server(input, |handle| {
        let addr = handle.nmea_tcp.ok_or("nmea port disabled")?;
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(addr).map_err(|e| format!("feed connect: {e}"))?;
            s.set_nodelay(true)
                .map_err(|e| format!("feed nodelay: {e}"))?;
            s.set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| format!("feed timeout: {e}"))?;
            Ok(s)
        };
        let mut feeds = [connect()?, connect()?];
        let mut late_ms: Vec<f64> = Vec::with_capacity(n);
        let mut blocked = StdDuration::ZERO;
        let mut sent = 0;
        let mut from = [0usize; 2];
        let started = Instant::now();
        while sent < n {
            let now = started.elapsed().as_secs_f64();
            let due = due_count(now, rate, n);
            if due > sent {
                let write_started = Instant::now();
                let upto = buffers.ends[due - 1];
                for c in 0..2 {
                    feeds[c]
                        .write_all(&buffers.conns[c][from[c]..upto[c]])
                        .map_err(|e| format!("feed write: {e}"))?;
                }
                blocked += write_started.elapsed();
                from = upto;
                late_ms.extend((sent..due).map(|k| (now - due_secs(k, rate)) * 1e3));
                sent = due;
            }
            std::thread::sleep(PACED_TICK);
        }
        // `#flush` on one connection must not overtake lines still in
        // flight on the other: wait until the driver has seen them all.
        let deadline = Instant::now() + IO_TIMEOUT;
        while handle.ingest_stats().lines < n as u64 {
            if Instant::now() > deadline {
                return Err("the server never ingested every offered line".into());
            }
            std::thread::sleep(StdDuration::from_micros(200));
        }
        feeds[0]
            .write_all(b"#flush\n")
            .and_then(|()| feeds[0].flush())
            .map_err(|e| format!("feed flush: {e}"))?;
        Ok((started, late_ms, blocked.as_secs_f64()))
    })?;
    let offered_at: Vec<Instant> = triggers
        .iter()
        .map(|t| started + StdDuration::from_secs_f64(due_secs(t.line, rate)))
        .collect();
    let mut pass = finish_pass(started, triggers, &offered_at, &received, stats)?;
    pass.late_ms = late_ms;
    pass.write_blocked_s = blocked;
    pass.evictions = evictions;
    Ok(pass)
}
