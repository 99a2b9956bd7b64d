//! Socket plumbing for `surveil serve`: NMEA ingest (TCP/UDP), CE-out
//! subscribers, and the HTTP metrics/SSE endpoint.
//!
//! Every accept loop is non-blocking with a short sleep so the shutdown
//! flag is honored within ~100 ms; every connection thread reads/writes
//! with timeouts for the same reason. Reader threads frame the byte
//! stream into lines themselves (rather than `BufRead::read_line`) so a
//! connection cut mid-sentence leaves a well-defined partial buffer that
//! is discarded and counted — the behavior the socket-level chaos mode
//! exercises.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use maritime_obs::{names, LazyCounter, LazyGauge};

use super::health::ServeTelemetry;
use super::hub::BroadcastHub;
use super::live::LiveIngest;
use super::wire::{sse_frame, CONTROL_FLUSH, CONTROL_SHUTDOWN};
use super::{dashboard, send_ingest, Ingest};

static OBS_SOURCES_CONNECTED: LazyGauge = LazyGauge::new(names::SERVE_SOURCES_CONNECTED);
static OBS_SOURCES: LazyCounter = LazyCounter::new(names::SERVE_SOURCES);
static OBS_FILTERED: LazyCounter = LazyCounter::new(names::SERVE_FILTERED_LINES);
static OBS_HTTP_REQUESTS: LazyCounter = LazyCounter::new(names::SERVE_HTTP_REQUESTS);

const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(25);
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(100);
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Accepts NMEA-in TCP connections; each gets a fresh source id and a
/// reader thread for the connection's lifetime.
pub(crate) fn tcp_ingest_loop(
    listener: &TcpListener,
    tx: &SyncSender<Ingest>,
    shutdown: &Arc<AtomicBool>,
    next_source: &Arc<AtomicU32>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let source = next_source.fetch_add(1, Ordering::Relaxed);
                OBS_SOURCES.inc();
                OBS_SOURCES_CONNECTED.add(1);
                let tx = tx.clone();
                let shutdown = Arc::clone(shutdown);
                let _ = std::thread::Builder::new()
                    .name(format!("serve-src-{source}"))
                    .spawn(move || {
                        ingest_reader(&stream, source, &tx, &shutdown);
                        OBS_SOURCES_CONNECTED.add(-1);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Reads one NMEA-in connection to EOF (or shutdown), framing lines and
/// forwarding them to the driver. A partial line left when the peer
/// disconnects — the mid-sentence cut — is discarded and counted as
/// filtered, never forwarded.
fn ingest_reader(
    stream: &TcpStream,
    source: u32,
    tx: &SyncSender<Ingest>,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let started = Instant::now();
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    let mut reader = stream;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => {
                pending.extend_from_slice(&buf[..n]);
                if !drain_lines(&mut pending, source, &started, tx) {
                    return; // driver gone
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // reset mid-stream: same as a cut
        }
    }
    if !pending.is_empty() {
        // Mid-sentence disconnect: the unterminated tail is not a
        // sentence. Count it so the operator sees flaky feeds.
        OBS_FILTERED.inc();
    }
}

/// Splits complete lines out of `pending` and forwards each. Returns
/// `false` when the driver has gone away.
fn drain_lines(
    pending: &mut Vec<u8>,
    source: u32,
    started: &Instant,
    tx: &SyncSender<Ingest>,
) -> bool {
    while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
        let raw: Vec<u8> = pending.drain(..=nl).collect();
        let line = String::from_utf8_lossy(&raw[..nl]);
        let line = line.trim_end_matches('\r').trim();
        if line.is_empty() {
            continue;
        }
        let Some(msg) = frame_line(line, source, started) else {
            continue;
        };
        if !send_ingest(tx, msg) {
            return false;
        }
    }
    true
}

/// Parses one framed line into an ingest message: `#flush`/`#shutdown`
/// controls, `<epoch-secs> <sentence>` timestamped lines, or a bare
/// sentence stamped with the connection's wall-clock age (documented in
/// `SERVING.md`; deterministic feeds always send explicit timestamps).
fn frame_line(line: &str, source: u32, started: &Instant) -> Option<Ingest> {
    if let Some(control) = line.strip_prefix('#') {
        return match format!("#{}", control.trim()).as_str() {
            CONTROL_FLUSH => Some(Ingest::Flush),
            CONTROL_SHUTDOWN => Some(Ingest::Shutdown),
            _ => None, // unknown controls are comments
        };
    }
    let (t, sentence) = match line.split_once(' ') {
        Some((ts, rest)) => match ts.parse::<i64>() {
            Ok(t) => (t, rest.trim_start()),
            Err(_) => (started.elapsed().as_secs() as i64, line),
        },
        None => (started.elapsed().as_secs() as i64, line),
    };
    Some(Ingest::Line {
        source,
        t,
        line: sentence.to_string(),
    })
}

/// Drains NMEA-in UDP datagrams. Each distinct peer address is a source;
/// datagrams carry one or more complete lines (no cross-datagram
/// fragments — UDP preserves message boundaries).
pub(crate) fn udp_ingest_loop(
    socket: &UdpSocket,
    tx: &SyncSender<Ingest>,
    shutdown: &Arc<AtomicBool>,
    next_source: &Arc<AtomicU32>,
) {
    let started = Instant::now();
    let mut peers: HashMap<SocketAddr, u32> = HashMap::new();
    let mut buf = [0u8; 65536];
    while !shutdown.load(Ordering::SeqCst) {
        match socket.recv_from(&mut buf) {
            Ok((n, peer)) => {
                let source = *peers.entry(peer).or_insert_with(|| {
                    OBS_SOURCES.inc();
                    OBS_SOURCES_CONNECTED.add(1);
                    next_source.fetch_add(1, Ordering::Relaxed)
                });
                let text = String::from_utf8_lossy(&buf[..n]);
                for line in text.lines() {
                    let line = line.trim_end_matches('\r').trim();
                    if line.is_empty() {
                        continue;
                    }
                    let Some(msg) = frame_line(line, source, &started) else {
                        continue;
                    };
                    if !send_ingest(tx, msg) {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => {}
        }
    }
    OBS_SOURCES_CONNECTED.add(-(peers.len() as i64));
}

/// Accepts CE-out TCP subscribers: each connection gets a hub queue and a
/// writer thread streaming line-delimited JSON until the client hangs up,
/// the hub evicts it, or the server shuts down.
pub(crate) fn subscriber_loop(
    listener: &TcpListener,
    hub: &Arc<BroadcastHub>,
    shutdown: &Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let hub = Arc::clone(hub);
                let _ = std::thread::Builder::new()
                    .name("serve-sub".into())
                    .spawn(move || {
                        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                        let (id, rx) = hub.subscribe();
                        let mut w = stream;
                        for event in rx.iter() {
                            if w.write_all(event.as_bytes())
                                .and_then(|()| w.write_all(b"\n"))
                                .and_then(|()| w.flush())
                                .is_err()
                            {
                                break;
                            }
                        }
                        hub.unsubscribe(id);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves the HTTP surface: `/metrics` (Prometheus text), `/metrics.json`,
/// `/metrics/history` (the telemetry ring), `/sources` (per-source mux
/// counters), `/healthz` (SLO verdict), `/dashboard` (the operator page),
/// and `/events` (SSE stream of the same wire events TCP subscribers
/// get).
pub(crate) fn http_loop(
    listener: &TcpListener,
    hub: &Arc<BroadcastHub>,
    live: &Arc<Mutex<LiveIngest>>,
    telemetry: &Arc<ServeTelemetry>,
    shutdown: &Arc<AtomicBool>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let hub = Arc::clone(hub);
                let live = Arc::clone(live);
                let telemetry = Arc::clone(telemetry);
                let _ = std::thread::Builder::new()
                    .name("serve-http-conn".into())
                    .spawn(move || http_connection(stream, &hub, &live, &telemetry));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn http_connection(
    mut stream: TcpStream,
    hub: &Arc<BroadcastHub>,
    live: &Mutex<LiveIngest>,
    telemetry: &ServeTelemetry,
) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Some(path) = read_request_path(&mut stream) else {
        return;
    };
    OBS_HTTP_REQUESTS.inc();
    match path.as_str() {
        "/metrics" => {
            let body = maritime_obs::encode::prometheus_text(&maritime_obs::snapshot());
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        "/metrics.json" => {
            let body = maritime_obs::encode::json(&maritime_obs::snapshot());
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/metrics/history" => {
            let body = maritime_obs::timeseries::history_json(telemetry.ring());
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/healthz" => {
            let state = telemetry.state();
            respond(
                &mut stream,
                state.http_status(),
                "text/plain",
                &telemetry.healthz_body(),
            );
        }
        "/dashboard" => {
            let body = dashboard::render(telemetry);
            respond(&mut stream, "200 OK", "text/html; charset=utf-8", &body);
        }
        "/sources" => {
            let body = sources_json(live);
            respond(&mut stream, "200 OK", "application/json", &body);
        }
        "/events" => {
            let (id, rx) = hub.subscribe();
            let header = "HTTP/1.0 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-store\r\nconnection: close\r\n\r\n";
            if stream.write_all(header.as_bytes()).is_err() {
                hub.unsubscribe(id);
                return;
            }
            for event in rx.iter() {
                if stream
                    .write_all(sse_frame(&event).as_bytes())
                    .and_then(|()| stream.flush())
                    .is_err()
                {
                    break;
                }
            }
            hub.unsubscribe(id);
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Reads the request head and returns the path of `GET <path> HTTP/1.x`.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the blank line ending the header block (or 8 KiB).
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next()?.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(path.to_string())
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

/// Renders the per-source mux counters as a JSON array.
fn sources_json(live: &Mutex<LiveIngest>) -> String {
    let live = live.lock().expect("live ingest mutex poisoned");
    let rows: Vec<String> = live
        .sources()
        .map(|(id, s)| {
            format!(
                "{{\"source\":{},\"lines\":{},\"accepted\":{},\"filtered\":{},\
                 \"duplicates\":{},\"sentences_per_sec\":{:.3}}}",
                id.0,
                s.lines,
                s.accepted,
                s.filtered,
                s.duplicates,
                s.sentences_per_sec()
            )
        })
        .collect();
    format!("[{}]\n", rows.join(","))
}
