//! `surveil` — run the maritime surveillance pipeline over an NMEA log.
//!
//! ```text
//! surveil --demo 60 24                 # simulate 60 vessels for 24 h
//! surveil --input ais.log              # replay a timestamped NMEA log
//! surveil --demo 60 24 --kml out.kml --archive trips.json --audit
//! surveil --demo 60 24 --metrics-json m.json --metrics-every 12
//! surveil --demo 60 24 --trace         # provenance chains -> ce-chains.json
//! surveil explain 'suspicious/area3@7200'   # proof tree for one CE
//! surveil --demo 60 24 --trace-out trace.json --flight-dump flight.json
//! surveil watch --http 127.0.0.1:9090       # live vitals of a server
//! ```
//!
//! Log format: one message per line, `<epoch-seconds> <!AIVDM sentence>`.
//! Corrupt lines are discarded by the data scanner exactly as in the
//! paper's §2; type-5 voyage declarations are collected for the
//! declared-vs-derived destination audit (`--audit`).
//!
//! Tracing (see `OBSERVABILITY.md`): `--trace`/`--trace-ce` capture a
//! derivation chain per recognized CE and write them as JSON for
//! `surveil explain`; `--trace-out` records per-stage timeline spans in
//! Chrome Trace Event format (load in Perfetto or `chrome://tracing`);
//! `--flight-dump` writes the flight recorder's recent-event ring on
//! exit and arms it to dump on anomalies (deadline overruns, panics).

use std::io::BufRead;

use maritime::prelude::*;
use maritime_ais::nmea::encode_report;
use maritime_ais::voyage::encode_static_voyage;
use maritime_ais::StaticVoyageData;
use maritime_geo::kml::KmlWriter;
use maritime_modstore::audit_destinations;
use maritime_obs::flight;
use maritime_tracker::synopsis::per_vessel_synopses;

/// Default path `--trace` writes chains to and `explain` reads from.
const DEFAULT_CHAINS_PATH: &str = "ce-chains.json";

struct Options {
    demo: Option<(usize, i64)>,
    input: Option<String>,
    kml: Option<String>,
    archive: Option<String>,
    dump_log: Option<String>,
    audit: bool,
    bands: usize,
    incremental: bool,
    metrics_json: Option<String>,
    metrics_prom: Option<String>,
    metrics_every: Option<usize>,
    no_metrics: bool,
    trace_ce: Option<String>,
    trace_out: Option<String>,
    flight_dump: Option<String>,
    deadline_ms: Option<u64>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        demo: None,
        input: None,
        kml: None,
        archive: None,
        dump_log: None,
        audit: false,
        bands: 1,
        incremental: false,
        metrics_json: None,
        metrics_prom: None,
        metrics_every: None,
        no_metrics: false,
        trace_ce: None,
        trace_out: None,
        flight_dump: None,
        deadline_ms: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("explain") {
        cmd_explain(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        cmd_chaos(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        cmd_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("feed") {
        cmd_feed(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("watch") {
        cmd_watch(&args[1..]);
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--demo" => {
                let vessels = it.next().and_then(|v| v.parse().ok()).unwrap_or(60);
                let hours = it.next().and_then(|v| v.parse().ok()).unwrap_or(24);
                opts.demo = Some((vessels, hours));
            }
            "--input" => opts.input = it.next().cloned(),
            "--kml" => opts.kml = it.next().cloned(),
            "--archive" => opts.archive = it.next().cloned(),
            "--dump-log" => opts.dump_log = it.next().cloned(),
            "--audit" => opts.audit = true,
            "--incremental" => opts.incremental = true,
            "--metrics-json" => opts.metrics_json = it.next().cloned(),
            "--metrics-prom" => opts.metrics_prom = it.next().cloned(),
            "--metrics-every" => {
                opts.metrics_every =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--metrics-every needs a positive slide count");
                        std::process::exit(2);
                    }));
            }
            "--no-metrics" => opts.no_metrics = true,
            "--trace" => {
                opts.trace_ce.get_or_insert_with(|| DEFAULT_CHAINS_PATH.to_string());
            }
            "--trace-ce" => opts.trace_ce = it.next().cloned(),
            "--trace-out" => opts.trace_out = it.next().cloned(),
            "--flight-dump" => opts.flight_dump = it.next().cloned(),
            "--deadline-ms" => {
                opts.deadline_ms =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--deadline-ms needs a positive millisecond count");
                        std::process::exit(2);
                    }));
            }
            "--bands" => {
                opts.bands = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--bands needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: surveil (--demo [vessels] [hours] | --input FILE) \
                     [--bands N] [--incremental] [--kml FILE] \
                     [--archive FILE] [--dump-log FILE] [--audit] \
                     [--metrics-json FILE] [--metrics-prom FILE] \
                     [--metrics-every N-SLIDES] [--no-metrics] \
                     [--trace | --trace-ce FILE] [--trace-out FILE] \
                     [--flight-dump FILE] [--deadline-ms N]\n       \
                     surveil explain [CE-ID] [--chains FILE]\n       \
                     surveil chaos [--seed N] [--plans N] [--vessels N] \
                     [--hours N] [--skew SECS] [--plan FILE] [--out DIR]\n       \
                     surveil serve [FLAGS]   (see SERVING.md)\n       \
                     surveil feed (--demo V H | --input FILE | --control NAME) \
                     --to HOST:PORT [--rate N] [--flush]\n       \
                     surveil watch --http HOST:PORT [--interval-ms MS] [--samples N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if opts.demo.is_none() && opts.input.is_none() {
        opts.demo = Some((60, 24));
    }
    opts
}

/// `surveil explain [CE-ID] [--chains FILE]`: renders the proof tree of
/// one traced CE (or lists the available ids) from a chain file written
/// by a `--trace` run.
fn cmd_explain(args: &[String]) -> ! {
    let mut id: Option<String> = None;
    let mut path = DEFAULT_CHAINS_PATH.to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--chains" => {
                path = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--chains needs a file path");
                    std::process::exit(2);
                });
            }
            other if !other.starts_with('-') && id.is_none() => id = Some(other.to_string()),
            other => {
                eprintln!("explain: unexpected argument {other}");
                std::process::exit(2);
            }
        }
    }
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e} (produce it with `surveil --trace`)");
        std::process::exit(1);
    });
    let log = TraceLog::from_json(&json).unwrap_or_else(|e| {
        eprintln!("{path} is not a chain file: {e}");
        std::process::exit(1);
    });
    match id {
        Some(id) => match log.get(&id) {
            Some(chain) => {
                print!("{}", render_proof_tree(chain));
                std::process::exit(0);
            }
            None => {
                eprintln!("no CE with id {id:?} in {path}; traced ids:");
                for known in log.ids() {
                    eprintln!("  {known}");
                }
                std::process::exit(1);
            }
        },
        None => {
            for known in log.ids() {
                println!("{known}");
            }
            std::process::exit(0);
        }
    }
}

/// `surveil chaos`: generate seeded fault-injection plans, apply each to
/// the deterministic chaos world, and hold the recognized CEs to the
/// metamorphic oracles. On the first violation the op list is
/// delta-debugged to a minimal reproducing plan, written (with a flight
/// recorder dump) to the artifact directory, and the process exits 1 —
/// `surveil chaos --plan <artifact>` replays it.
fn cmd_chaos(args: &[String]) -> ! {
    use maritime::chaos::ChaosHarness;
    use maritime_chaos::{shrink_plan, ChaosPlan};

    let mut harness = ChaosHarness::default();
    let mut seed = harness.seed;
    let mut plans = 6usize;
    let mut replay: Option<String> = None;
    let mut out_dir = "chaos-artifacts".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // Seeds are echoed in hex, so accept them back in hex too.
        let mut num = |name: &str| -> u64 {
            it.next()
                .and_then(|v| match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                })
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a number");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--seed" => seed = num("--seed"),
            "--plans" => plans = num("--plans") as usize,
            "--vessels" => harness.vessels = num("--vessels") as usize,
            "--hours" => harness.hours = num("--hours") as i64,
            "--skew" => harness.admission_skew_secs = num("--skew") as i64,
            "--plan" => replay = it.next().cloned(),
            "--out" => out_dir = it.next().cloned().unwrap_or(out_dir),
            other => {
                eprintln!("chaos: unexpected argument {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    flight::install_panic_hook();
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create {out_dir}: {e}");
        std::process::exit(1);
    });
    flight::arm_dump(format!("{out_dir}/flight.json"));

    let fail = |plan: &ChaosPlan, violation: &maritime_chaos::OracleViolation| -> ! {
        eprintln!("VIOLATION: {violation}");
        eprintln!("shrinking {}-op plan to a minimal reproduction...", plan.ops.len());
        let shrunk = shrink_plan(plan, |p| harness.check_plan(p).is_err());
        let plan_path = format!("{out_dir}/minimized-plan.json");
        std::fs::write(&plan_path, shrunk.to_json()).expect("write minimized plan");
        let dump = flight::trigger_dump("chaos oracle violation");
        eprintln!(
            "minimized to {} op(s): {}\nreplay with: surveil chaos --plan {plan_path}{}",
            shrunk.ops.len(),
            shrunk.to_json(),
            dump.map_or(String::new(), |p| format!("\nflight dump: {}", p.display())),
        );
        std::process::exit(1);
    };

    if let Some(path) = replay {
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        // Accept both a bare plan (the minimized-plan.json artifact) and
        // the golden fixture's `{"plan": ..., "fingerprint_fnv64": ...}`
        // wrapper.
        let plan = ChaosPlan::from_json(&body)
            .or_else(|outer| -> Result<ChaosPlan, String> {
                let v: serde_json::Value =
                    serde_json::from_str(&body).map_err(|_| outer.to_string())?;
                let inner = v.get("plan").ok_or_else(|| outer.to_string())?;
                let inner = serde_json::to_string(inner).map_err(|e| e.to_string())?;
                ChaosPlan::from_json(&inner).map_err(|e| e.to_string())
            })
            .unwrap_or_else(|e| {
                eprintln!("{path} is not a chaos plan: {e}");
                std::process::exit(1);
            });
        eprintln!("replaying {}-op plan from {path}", plan.ops.len());
        match harness.check_plan(&plan) {
            Ok(()) => {
                eprintln!("plan passes every applicable oracle");
                std::process::exit(0);
            }
            Err(v) => fail(&plan, &v),
        }
    }

    eprintln!(
        "chaos: {plans} plan batches, seed {seed:#x}, {} vessels x {} h, skew {} s",
        harness.vessels, harness.hours, harness.admission_skew_secs
    );
    for i in 0..plans as u64 {
        let batch = [
            ChaosPlan::equivalence(seed ^ i, harness.admission_skew_secs),
            ChaosPlan::hostile(seed ^ i),
            ChaosPlan::vessel_drop(seed ^ i),
            ChaosPlan::kill_restore(seed ^ i, harness.hours * 3_600),
        ];
        for plan in &batch {
            if let Err(v) = harness.check_plan(plan) {
                fail(plan, &v);
            }
        }
        eprintln!(
            "batch {}/{plans}: equivalence+hostile+vessel-drop+kill-restore ok",
            i + 1
        );
    }
    eprintln!("all oracles held on {} plans", plans * 4);
    std::process::exit(0);
}

/// `surveil serve`: the resident live-ingestion server. Binds the flagged
/// listeners, prints each bound address on stderr, and runs until a
/// `#shutdown` control line arrives (or `--run-secs` elapses). All
/// protocol semantics are specified in `SERVING.md`.
fn cmd_serve(args: &[String]) -> ! {
    use maritime::serve::cli::{demo_fleet, parse_fleet_json, ServeCli};

    let cli = ServeCli::parse(args).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    let vessels = match (&cli.demo_fleet, &cli.fleet) {
        (Some(n), _) => {
            eprintln!("serve: knowledge base = demo fleet of {n} vessel(s)");
            demo_fleet(*n)
        }
        (None, Some(path)) => {
            let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("serve: cannot read {path}: {e}");
                std::process::exit(1);
            });
            let fleet = parse_fleet_json(&body).unwrap_or_else(|e| {
                eprintln!("serve: {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("serve: knowledge base = {} vessel(s) from {path}", fleet.len());
            fleet
        }
        (None, None) => {
            eprintln!(
                "serve: no --demo-fleet/--fleet; vessel-knowledge predicates \
                 (shallow, fishing designation) stay inert"
            );
            Vec::new()
        }
    };
    let areas = generate_areas(&AreaGenConfig::default());
    let opts = cli.serve_options(vessels, areas).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    flight::install_panic_hook();
    let handle = maritime::serve::start(opts).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    if let Some(addr) = handle.nmea_tcp {
        eprintln!("serve: nmea-in tcp on {addr}");
    }
    if let Some(addr) = handle.nmea_udp {
        eprintln!("serve: nmea-in udp on {addr}");
    }
    if let Some(addr) = handle.subscribe {
        eprintln!("serve: ce-out subscribers on {addr}");
    }
    if let Some(addr) = handle.http {
        eprintln!("serve: http (/metrics, /metrics/history, /dashboard, /events) on {addr}");
    }
    let deadline = cli
        .run_secs
        .map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s));
    while !handle.is_shutdown() {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            eprintln!("serve: --run-secs elapsed, shutting down");
            handle.shutdown();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("serve: draining ({} subscriber(s) connected)", handle.hub().subscriber_count());
    let stats = handle.ingest_stats();
    handle.join();
    eprintln!(
        "serve: done — {} lines, {} accepted, {} filtered, {} duplicates, {} queries, {} CEs",
        stats.lines, stats.accepted, stats.filtered, stats.duplicates, stats.queries, stats.ce_total
    );
    std::process::exit(0);
}

/// `surveil watch`: a terminal vitals loop over a running server's HTTP
/// endpoint. Each poll fetches `/metrics/history` and `/healthz` and
/// prints one line: the health state, the newest sample's sequence
/// number, per-second rates derived from the last two ring samples, and
/// the current connection/buffer levels. `--samples N` bounds the run
/// for scripting; the default polls until interrupted.
fn cmd_watch(args: &[String]) -> ! {
    use maritime::serve::cli::WatchCli;

    let cli = WatchCli::parse(args).unwrap_or_else(|e| {
        eprintln!("watch: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "watch: polling http://{} every {} ms{}",
        cli.http,
        cli.interval_ms,
        if cli.samples > 0 { format!(" for {} sample(s)", cli.samples) } else { String::new() }
    );
    let interval = std::time::Duration::from_millis(cli.interval_ms);
    let mut polls = 0u64;
    let mut failures = 0u32;
    loop {
        match watch_vitals_line(&cli.http) {
            Ok(line) => {
                failures = 0;
                println!("{line}");
            }
            Err(e) => {
                failures += 1;
                eprintln!("watch: {e}");
                // A restarting server deserves patience; a dead one does not.
                if failures >= 5 {
                    eprintln!("watch: {failures} consecutive failures, giving up");
                    std::process::exit(1);
                }
            }
        }
        polls += 1;
        if cli.samples > 0 && polls >= cli.samples {
            std::process::exit(0);
        }
        std::thread::sleep(interval);
    }
}

/// Per-second rate of a named counter, derived from the last two samples.
type RateFn<'a> = Box<dyn Fn(&str) -> f64 + 'a>;

/// One vitals line from the server: health state + derived rates/levels.
fn watch_vitals_line(addr: &str) -> Result<String, String> {
    use serde_json::Value;

    let history = watch_http_get(addr, "/metrics/history")?;
    let v: Value = serde_json::from_str(&history)
        .map_err(|e| format!("/metrics/history is not JSON: {e}"))?;
    let Some(Value::Array(samples)) = v.get("samples") else {
        return Err("/metrics/history has no samples array".to_string());
    };
    let metric = |sample: &Value, name: &str| -> f64 {
        watch_num(sample.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")))
    };
    let (cur, rate): (&Value, RateFn) = match samples.len() {
        0 => return Err("/metrics/history is empty".to_string()),
        1 => (&samples[0], Box::new(|_| 0.0)),
        n => {
            let (prev, cur) = (&samples[n - 2], &samples[n - 1]);
            let dt = (watch_num(cur.get("at_ns")) - watch_num(prev.get("at_ns"))) / 1e9;
            let rate = move |name: &str| {
                if dt > 0.0 {
                    ((metric(cur, name) - metric(prev, name)).max(0.0)) / dt
                } else {
                    0.0
                }
            };
            (cur, Box::new(rate))
        }
    };
    // /healthz answers 503 when critical; the state is still in the body.
    let state = watch_http_get(addr, "/healthz")
        .unwrap_or_else(|_| "unreachable".to_string())
        .lines()
        .next()
        .unwrap_or("unreachable")
        .to_string();
    Ok(format!(
        "health={state} seq={} | lines/s={:.1} positions/s={:.1} CE/s={:.2} alerts/s={:.2} \
         | sources={} subscribers={} buffered={} vessels={}",
        watch_num(cur.get("seq")) as u64,
        rate("serve_sentences_total"),
        rate("ais_positions_total"),
        rate("cer_ce_recognized_total"),
        rate("cer_alerts_total"),
        metric(cur, "serve_sources_connected"),
        metric(cur, "serve_subscribers_connected"),
        metric(cur, "stream_admission_buffered"),
        metric(cur, "tracker_active_vessels"),
    ))
}

/// A JSON number as `f64`; 0 for absent or non-numeric values.
fn watch_num(v: Option<&serde_json::Value>) -> f64 {
    use serde_json::Value;
    match v {
        Some(Value::Int(i)) => *i as f64,
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

/// Minimal HTTP/1.0 GET returning the response body. The watch loop only
/// talks to `surveil serve`'s own endpoint surface, so a hand-rolled
/// client keeps the binary dependency-free.
fn watch_http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| format!("socket setup: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nhost: watch\r\n\r\n").as_bytes())
        .map_err(|e| format!("{path}: send failed: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{path}: read failed: {e}"))?;
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| format!("{path}: malformed HTTP response"))
}

/// `surveil feed`: streams an NMEA log (demo or file) to a running server
/// over TCP in the `<epoch-secs> <sentence>` line format, or sends a bare
/// control line (`--control flush|shutdown`).
fn cmd_feed(args: &[String]) -> ! {
    use maritime::serve::cli::FeedCli;
    use std::io::Write;

    let cli = FeedCli::parse(args).unwrap_or_else(|e| {
        eprintln!("feed: {e}");
        std::process::exit(2);
    });
    let addr = cli.to.as_deref().expect("parse enforces --to");
    // The server may still be binding when a scripted feed starts; retry
    // briefly before declaring it unreachable.
    let mut stream = None;
    for _ in 0..40 {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(250)),
        }
    }
    let Some(stream) = stream else {
        eprintln!("feed: cannot connect to {addr}");
        std::process::exit(1);
    };
    let mut stream = std::io::BufWriter::new(stream);

    if let Some(name) = &cli.control {
        let line = match name.as_str() {
            "flush" => maritime::serve::CONTROL_FLUSH,
            "shutdown" => maritime::serve::CONTROL_SHUTDOWN,
            other => {
                eprintln!("feed: unknown control {other:?} (flush, shutdown)");
                std::process::exit(2);
            }
        };
        writeln!(stream, "{line}").and_then(|()| stream.flush()).unwrap_or_else(|e| {
            eprintln!("feed: send failed: {e}");
            std::process::exit(1);
        });
        eprintln!("feed: sent {line} to {addr}");
        std::process::exit(0);
    }

    let lines = match (&cli.demo, &cli.input) {
        (Some((v, h)), _) => {
            eprintln!("feed: demo stream, {v} vessels over {h} h");
            demo_log(*v, *h).0
        }
        (None, Some(path)) => read_log(path),
        (None, None) => unreachable!("parse enforces a source"),
    };
    let pause = (cli.rate > 0).then(|| std::time::Duration::from_nanos(1_000_000_000 / cli.rate));
    let mut sent = 0u64;
    for (t, sentence) in &lines {
        if let Err(e) = writeln!(stream, "{t} {sentence}") {
            eprintln!("feed: connection lost after {sent} lines: {e}");
            std::process::exit(1);
        }
        sent += 1;
        if let Some(pause) = pause {
            // BufWriter batching defeats a throttle; flush per line.
            let _ = stream.flush();
            std::thread::sleep(pause);
        }
    }
    if cli.flush {
        let _ = writeln!(stream, "{}", maritime::serve::CONTROL_FLUSH);
    }
    stream.flush().unwrap_or_else(|e| {
        eprintln!("feed: final flush failed: {e}");
        std::process::exit(1);
    });
    eprintln!("feed: {sent} line(s) sent to {addr}{}", if cli.flush { " + #flush" } else { "" });
    std::process::exit(0);
}

/// Builds a demo NMEA log: the synthetic fleet's position reports plus a
/// type-5 voyage declaration per vessel (some deliberately wrong or blank,
/// mirroring the unreliable crew-entered field of §3.2).
fn demo_log(vessels: usize, hours: i64) -> (Vec<(i64, String)>, FleetSimulator) {
    let sim = FleetSimulator::new(FleetConfig {
        vessels,
        duration: Duration::hours(hours),
        seed: 0x5EAF00D,
        ..FleetConfig::default()
    });
    let mut lines: Vec<(i64, String)> = Vec::new();
    let port_names: Vec<&str> = ports().iter().map(|p| p.name).collect();
    for (i, profile) in sim.profiles().iter().enumerate() {
        let destination = match i % 5 {
            0 => String::new(), // missing
            1 => "FOR ORDERS".to_string(), // the classic junk value
            _ => port_names[i % port_names.len()].to_uppercase(),
        };
        let data = StaticVoyageData {
            mmsi: profile.mmsi,
            imo: 9_000_000 + i as u32,
            callsign: format!("SV{i:04}"),
            name: format!("DEMO VESSEL {i}"),
            // Real AIS ship-type codes: 30 = fishing, 70 = cargo.
            ship_type: if profile.is_fishing { 30 } else { 70 },
            draught_m: profile.draft_m,
            destination,
        };
        let [s1, s2] = encode_static_voyage(&data, (i % 10) as u8);
        lines.push((0, s1));
        lines.push((0, s2));
    }
    for report in sim.generate() {
        lines.push((report.timestamp.as_secs(), encode_report(&report)));
    }
    lines.sort_by_key(|(t, _)| *t);
    (lines, sim)
}

fn read_log(path: &str) -> Vec<(i64, String)> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut lines = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let Ok(line) = line else { continue };
        let Some((ts, sentence)) = line.split_once(' ') else {
            continue;
        };
        let Ok(t) = ts.parse::<i64>() else { continue };
        lines.push((t, sentence.to_string()));
    }
    lines.sort_by_key(|(t, _)| *t);
    lines
}

/// One line of operational vitals from the global metrics registry, shown
/// on stderr every `--metrics-every` slides. Reads counters/gauges only —
/// cheap enough to run inside the slide loop.
fn metrics_summary_line(query_secs: i64) -> String {
    use maritime_obs::names;
    let s = maritime_obs::snapshot();
    let c = |name: &str| s.counter(name);
    let g = |name: &str| s.gauge(name);
    format!(
        "t={query_secs}s slides={} | tracker in={} cp={} drops={} vessels={} window={} | \
         rtec q={} evals={} replays={} | cer in={} ce={} alerts={}",
        c(names::PIPELINE_SLIDES),
        c(names::TRACKER_POINTS_INGESTED),
        c(names::TRACKER_CRITICAL_POINTS),
        c(names::TRACKER_NOISE_DROPS),
        g(names::TRACKER_ACTIVE_VESSELS),
        g(names::TRACKER_WINDOW_POINTS),
        c(names::RTEC_QUERIES),
        c(names::RTEC_RULE_EVALUATIONS),
        c(names::RTEC_CACHE_REPLAYS),
        c(names::CER_INPUT_EVENTS),
        c(names::CER_CE_RECOGNIZED),
        c(names::CER_ALERTS),
    )
}

fn main() {
    let opts = parse_args();
    // Flip the switch before NMEA decoding so the ais_* counters honor
    // the opt-out too; the pipeline constructor re-applies it from config.
    maritime_obs::set_enabled(!opts.no_metrics);
    // A panic mid-run records a flight event and, when a dump is armed,
    // writes the ring before the process dies.
    flight::install_panic_hook();
    if let Some(path) = &opts.flight_dump {
        flight::arm_dump(path);
    }
    if opts.trace_out.is_some() {
        // Install before any work so every stage span lands on the timeline.
        maritime_obs::chrome::install();
    }

    let (lines, sim) = match (&opts.demo, &opts.input) {
        (Some((v, h)), _) => {
            eprintln!("demo mode: {v} vessels over {h} h");
            let (lines, sim) = demo_log(*v, *h);
            (lines, Some(sim))
        }
        (None, Some(path)) => (read_log(path), None),
        (None, None) => unreachable!("parse_args sets a default"),
    };
    eprintln!("{} NMEA sentences to scan", lines.len());

    if let Some(path) = &opts.dump_log {
        let body: String = lines
            .iter()
            .map(|(t, l)| format!("{t} {l}\n"))
            .collect();
        std::fs::write(path, body).expect("write NMEA log");
        eprintln!("NMEA log written to {path}");
    }

    // Data scanner: decode, clean, reassemble, collect voyage declarations.
    let mut scanner = DataScanner::new();
    let tuples: Vec<PositionTuple> = lines
        .iter()
        .filter_map(|(t, line)| scanner.scan(line, Timestamp(*t)))
        .collect();
    let stats = scanner.stats();
    eprintln!(
        "scanner: {} accepted, {} voyage declarations, {} discarded",
        stats.accepted,
        stats.voyage_declarations,
        stats.total - stats.accepted - stats.voyage_declarations - stats.fragments_pending
    );

    // Static knowledge: areas always from the Aegean catalogue; vessel
    // facts from the simulator when available, else from the declarations.
    let areas = generate_areas(&AreaGenConfig::default());
    let vessels: Vec<VesselInfo> = match &sim {
        Some(sim) => sim.profiles().iter().map(VesselInfo::from).collect(),
        None => tuples
            .iter()
            .map(|t| t.mmsi)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|mmsi| {
                let declared = scanner.voyages().latest(mmsi);
                VesselInfo {
                    mmsi,
                    draft_m: declared.map_or(5.0, |d| d.draught_m),
                    // AIS ship-type code 30 designates fishing vessels.
                    is_fishing: declared.is_some_and(|d| d.ship_type == 30),
                }
            })
            .collect(),
    };

    // The pipeline.
    let config = SurveillanceConfig {
        parallelism: Parallelism { recognition_bands: opts.bands },
        incremental_recognition: opts.incremental,
        metrics: if opts.no_metrics {
            MetricsMode::Off
        } else {
            MetricsMode::On
        },
        trace: if opts.trace_ce.is_some() {
            TraceMode::Full
        } else {
            TraceMode::Off
        },
        recognition_deadline_ms: opts.deadline_ms,
        ..SurveillanceConfig::default()
    };
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    }
    if opts.bands > 1 {
        eprintln!("parallelism: {} recognition band(s)", opts.bands);
    }
    if opts.incremental {
        eprintln!("recognition: checkpointed incremental evaluation");
    }
    if opts.trace_ce.is_some() {
        eprintln!("tracing: per-CE provenance chains (forces from-scratch evaluation)");
    }
    let mut pipeline =
        SurveillancePipeline::new(&config, vessels, areas.clone()).expect("validated config");
    let mut slides_seen = 0usize;
    let mut last_query_secs = 0i64;
    let mut trace_log = TraceLog::new();
    let report = pipeline.run_with_observer(tuples, |outcome| {
        slides_seen += 1;
        last_query_secs = outcome.query_time.as_secs();
        if !outcome.chains.is_empty() {
            trace_log.record(outcome.chains.clone());
        }
        if let Some(every) = opts.metrics_every {
            if every > 0 && slides_seen.is_multiple_of(every) {
                eprintln!(
                    "metrics: {}",
                    metrics_summary_line(outcome.query_time.as_secs())
                );
            }
        }
    });
    // Final flush: the last partial period would otherwise never be
    // reported, leaving the stderr log short of the run's end state.
    if opts.metrics_every.is_some_and(|every| every > 0) {
        eprintln!("metrics (final): {}", metrics_summary_line(last_query_secs));
    }

    println!("=== surveil run report ===");
    println!("raw positions ........ {}", report.raw_positions);
    println!("critical points ...... {}", report.critical_points);
    println!(
        "compression .......... {:.1}%",
        report.compression_ratio * 100.0
    );
    println!("complex events ....... {}", report.ce_total);
    println!("alert records ........ {}", report.alerts);
    println!();
    println!("{}", report.archive);
    println!();
    for record in pipeline.alerts().records() {
        println!("ALERT {}", record.render());
    }

    if opts.audit {
        let audit = audit_destinations(pipeline.archive(), scanner.voyages());
        println!();
        println!("--- declared-vs-derived destination audit (§3.2) ---");
        println!("trips audited ........ {}", audit.trips);
        println!("with declaration ..... {}", audit.declared);
        println!("matching ............. {}", audit.matching);
        println!("mismatching .......... {}", audit.mismatching);
        println!("undeclared ........... {}", audit.undeclared);
        if let Some(acc) = audit.declared_accuracy() {
            println!("declared accuracy .... {:.0}%", acc * 100.0);
        }
    }

    if let Some(path) = &opts.kml {
        let mut kml = KmlWriter::new();
        for area in &areas {
            kml.add_area(area);
        }
        let archived: Vec<CriticalPoint> = pipeline
            .archive()
            .trips()
            .iter()
            .flat_map(|t| t.points.iter().copied())
            .collect();
        for (mmsi, synopsis) in per_vessel_synopses(&archived) {
            kml.add_polyline(&format!("vessel {mmsi}"), &synopsis.polyline());
        }
        std::fs::write(path, kml.finish()).expect("write KML");
        eprintln!("KML written to {path}");
    }

    if let Some(path) = &opts.archive {
        let file = std::fs::File::create(path).expect("create archive file");
        pipeline
            .archive()
            .save_json(std::io::BufWriter::new(file))
            .expect("serialize archive");
        eprintln!("archive written to {path}");
    }

    if opts.metrics_json.is_some() || opts.metrics_prom.is_some() {
        let snapshot = maritime_obs::snapshot();
        if let Some(path) = &opts.metrics_json {
            std::fs::write(path, maritime_obs::encode::json(&snapshot))
                .expect("write metrics JSON");
            eprintln!("metrics snapshot (JSON) written to {path}");
        }
        if let Some(path) = &opts.metrics_prom {
            std::fs::write(path, maritime_obs::encode::prometheus_text(&snapshot))
                .expect("write metrics exposition");
            eprintln!("metrics snapshot (Prometheus text) written to {path}");
        }
    }

    if let Some(path) = &opts.trace_ce {
        std::fs::write(path, trace_log.to_json()).expect("write provenance chains");
        eprintln!(
            "{} provenance chain(s) written to {path}; inspect with `surveil explain <ce-id> \
             --chains {path}`",
            trace_log.len()
        );
    }

    if let Some(path) = &opts.trace_out {
        std::fs::write(path, maritime_obs::chrome::export_json()).expect("write Chrome trace");
        let dropped = maritime_obs::chrome::dropped();
        if dropped > 0 {
            eprintln!("timeline: {dropped} span(s) dropped past the ring capacity");
        }
        eprintln!("Chrome-trace timeline written to {path} (load in Perfetto)");
    }

    if let Some(path) = &opts.flight_dump {
        flight::dump_to(std::path::Path::new(path), "on-demand").expect("write flight dump");
        eprintln!("flight recorder dumped to {path}");
    }
}
