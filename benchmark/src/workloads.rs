//! The five workloads: what each offers the system, why it exists, and
//! the seed-determined generators behind them.
//!
//! Everything here runs before the clock starts. The program under test
//! receives only the generated lines (and the static fleet facts any
//! deployment configures) — never the seed or a workload name.

use maritime::serve::ServeOptions;
use maritime::{LiveIngest, Parallelism, SurveillanceConfig};
use maritime_cer::VesselInfo;
use maritime_chaos::{calm_sentences, demo_sentences, sourced_demo_sentences, ChaosRng};
use maritime_geo::aegean::{generate_areas, AreaGenConfig};
use maritime_geo::Area;
use maritime_stream::{Duration, WindowSpec};

/// Seed used when `--seed` is not given; the pinned counts in
/// [`Workload::pinned`] belong to it.
pub const DEFAULT_SEED: u64 = 0xEDB7_2015;

/// Held-out seed: never used while a change is being written, only to
/// verify a claimed gain afterwards (`--seed 0x5EED0FF`).
pub const HELD_OUT_SEED: u64 = 0x5EE_D0FF;

/// Open-loop offered rate of `serve-paced`, lines per wall second: about a
/// quarter of what `serve-blast` sustains on the 2-core reference box.
pub const PACED_RATE: f64 = 100_000.0;

/// Wall-clock width of `serve-paced`'s admission skew. The event-time
/// skew handed to the server is this much of the schedule, so scheduler
/// jitter between the two source connections stays inside it and the
/// output stays deterministic.
pub const PACED_SKEW_WALL_SECS: f64 = 0.25;

/// Every how many scheduled lines `serve-paced` re-offers one on the
/// other source (two receivers hearing the same transmission).
pub const PACED_REOFFER_EVERY: usize = 16;

/// How a workload reaches the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `LiveIngest::push_line` in this process, closed loop.
    InProcess,
    /// One TCP feed writing as fast as backpressure allows, closed loop.
    Blast,
    /// Two TCP feeds written on a fixed schedule, open loop.
    Paced,
}

/// Fleet behaviour of the generated log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// `calm_sentences`: no deliberate gaps.
    Calm,
    /// `demo_sentences`: everyone takes gaps, half the fleet fishes.
    Rogue,
}

/// Input size, reported next to every throughput number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    pub kind: FleetKind,
    pub vessels: usize,
    pub hours: i64,
}

/// One benchmark workload. Names are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrackFleet,
    RecognizeDense,
    RecognizeBands2,
    ServeBlast,
    ServePaced,
}

/// Counts pinned for [`DEFAULT_SEED`]: a generator or recognition change
/// that moves them is a different benchmark, not a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub lines: usize,
    pub queries: u64,
    pub ce_count: u64,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TrackFleet,
        Workload::RecognizeDense,
        Workload::RecognizeBands2,
        Workload::ServeBlast,
        Workload::ServePaced,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrackFleet => "track-fleet",
            Workload::RecognizeDense => "recognize-dense",
            Workload::RecognizeBands2 => "recognize-bands2",
            Workload::ServeBlast => "serve-blast",
            Workload::ServePaced => "serve-paced",
        }
    }

    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrackFleet => {
                "calm fleet in-process at default windows: ais/stream/tracker dominate, cer is small; \
                 the no-socket baseline on which a recognition-only change must not move"
            }
            Workload::RecognizeDense => {
                "rogue fleet in-process, recognition window 9 h / 5 min, incremental, one band: \
                 cer/rtec do most of the work"
            }
            Workload::RecognizeBands2 => {
                "recognize-dense's input with two recognition bands: the coordinator, migrations and \
                 border strip must pay for themselves"
            }
            Workload::ServeBlast => {
                "track-fleet's log through a real server over one TCP feed at full speed: socket, \
                 ingest channel and hub are the whole difference"
            }
            Workload::ServePaced => {
                "open loop at a fixed rate over two TCP sources with duplicates, reordering and \
                 fragments: alert delay, and the disordered paths a fast path must not slow"
            }
        }
    }

    #[must_use]
    pub fn mode(self) -> Mode {
        match self {
            Workload::TrackFleet | Workload::RecognizeDense | Workload::RecognizeBands2 => {
                Mode::InProcess
            }
            Workload::ServeBlast => Mode::Blast,
            Workload::ServePaced => Mode::Paced,
        }
    }

    /// Input size. Chosen so one repetition takes 1–3 s on the 2-core
    /// reference box and a whole run (set-up three times, five or more
    /// repetitions) stays near 20 s; hours are kept at the paper's scale
    /// and vessels cut, because the query count follows the hours.
    #[must_use]
    pub fn fleet(self) -> Fleet {
        match self {
            Workload::TrackFleet | Workload::ServeBlast => Fleet {
                kind: FleetKind::Calm,
                vessels: 250,
                hours: 48,
            },
            Workload::RecognizeDense | Workload::RecognizeBands2 => Fleet {
                kind: FleetKind::Rogue,
                vessels: 200,
                hours: 36,
            },
            Workload::ServePaced => Fleet {
                kind: FleetKind::Rogue,
                vessels: 140,
                hours: 12,
            },
        }
    }

    /// The pipeline configuration: the program's `Default` except for the
    /// knobs the workload is about, so a changed default is measured as
    /// users would feel it.
    #[must_use]
    pub fn config(self) -> SurveillanceConfig {
        let window = |hours, slide_min| {
            WindowSpec::new(Duration::hours(hours), Duration::minutes(slide_min))
                .expect("valid recognition window")
        };
        match self {
            Workload::TrackFleet | Workload::ServeBlast => SurveillanceConfig::default(),
            Workload::RecognizeDense => SurveillanceConfig {
                recognition_window: window(9, 5),
                incremental_recognition: true,
                ..SurveillanceConfig::default()
            },
            Workload::RecognizeBands2 => SurveillanceConfig {
                recognition_window: window(9, 5),
                incremental_recognition: true,
                parallelism: Parallelism {
                    recognition_bands: 2,
                    ..Parallelism::default()
                },
                ..SurveillanceConfig::default()
            },
            Workload::ServePaced => SurveillanceConfig {
                recognition_window: window(2, 5),
                ..SurveillanceConfig::default()
            },
        }
    }

    /// Lines, queries and CE total for [`DEFAULT_SEED`].
    #[must_use]
    pub fn pinned(self) -> Pinned {
        match self {
            Workload::TrackFleet | Workload::ServeBlast => Pinned {
                lines: 1_112_271,
                queries: 49,
                ce_count: 282,
            },
            Workload::RecognizeDense | Workload::RecognizeBands2 => Pinned {
                lines: 672_896,
                queries: 433,
                ce_count: 2_967,
            },
            Workload::ServePaced => Pinned {
                lines: 161_739,
                queries: 145,
                ce_count: 96,
            },
        }
    }

    /// Generates the workload's input from `seed`.
    #[must_use]
    pub fn generate(self, seed: u64) -> Input {
        let fleet = self.fleet();
        let defaults = ServeOptions::default();
        let areas = generate_areas(&AreaGenConfig::default());
        let config = self.config();
        match self.mode() {
            Mode::InProcess | Mode::Blast => {
                let (lines, vessels) = match fleet.kind {
                    FleetKind::Calm => calm_sentences(seed, fleet.vessels, fleet.hours),
                    FleetKind::Rogue => demo_sentences(seed, fleet.vessels, fleet.hours),
                };
                Input {
                    lines: round_robin(lines, 3),
                    vessels,
                    areas,
                    config,
                    skew: defaults.skew,
                    dedup: defaults.dedup_window,
                    fleet,
                }
            }
            Mode::Paced => {
                let (sourced, vessels, _) =
                    sourced_demo_sentences(seed, fleet.vessels, fleet.hours, 2);
                let offered = sourced.len() + sourced.len() / PACED_REOFFER_EVERY;
                let skew_secs = paced_skew_secs(
                    offered,
                    fleet.hours * 3600,
                    PACED_RATE,
                    PACED_SKEW_WALL_SECS,
                );
                let lines = sourced
                    .into_iter()
                    .map(|(conn, t, line)| Offered {
                        // Connection ids are `source * SOURCE_STRIDE`, sources 1 and 2.
                        source: conn / maritime_chaos::socket::SOURCE_STRIDE - 1,
                        t,
                        line,
                    })
                    .collect();
                let lines = reoffer(shuffle(lines, skew_secs / 2, seed), PACED_REOFFER_EVERY);
                Input {
                    lines,
                    vessels,
                    areas,
                    config,
                    skew: Duration::secs(skew_secs),
                    dedup: defaults.dedup_window,
                    fleet,
                }
            }
        }
    }
}

/// One line as offered to the system: on which source, stamped with which
/// event time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offered {
    /// Source index, from 0. In-process passes use it as the `SourceId`;
    /// `serve-paced` as the index of the feed connection.
    pub source: u32,
    /// Event time, epoch seconds.
    pub t: i64,
    /// The NMEA sentence.
    pub line: String,
}

/// A generated workload input: the offered lines in offered order plus
/// everything needed to build the system around them.
#[derive(Debug, Clone)]
pub struct Input {
    pub lines: Vec<Offered>,
    pub vessels: Vec<VesselInfo>,
    pub areas: Vec<Area>,
    pub config: SurveillanceConfig,
    /// Admission skew (the server default except on `serve-paced`).
    pub skew: Duration,
    /// Cross-source duplicate window (always the server default).
    pub dedup: Duration,
    pub fleet: Fleet,
}

impl Input {
    /// The reference configuration every workload's output must equal:
    /// one band, from-scratch recognition, same windows.
    #[must_use]
    pub fn reference_config(&self) -> SurveillanceConfig {
        SurveillanceConfig {
            parallelism: Parallelism::default(),
            incremental_recognition: false,
            ..self.config.clone()
        }
    }

    /// The in-process live path over this input's fleet, under `config`.
    pub fn live_ingest(&self, config: &SurveillanceConfig) -> Result<LiveIngest, String> {
        LiveIngest::new(
            config,
            self.vessels.clone(),
            self.areas.clone(),
            self.skew,
            self.dedup,
        )
        .map_err(|e| format!("configuration rejected: {e}"))
    }

    /// Server options for this input: defaults plus the workload's knobs.
    #[must_use]
    pub fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            config: self.config.clone(),
            vessels: self.vessels.clone(),
            areas: self.areas.clone(),
            skew: self.skew,
            dedup_window: self.dedup,
            ..ServeOptions::default()
        }
    }

    /// The same fleet's log as one in-order source delivers it: no
    /// duplicates, no reordering, one connection. `serve-paced`'s
    /// two-source disorder cannot be blasted deterministically, so the
    /// `net.*` ladder of its traced run uses this log instead.
    #[must_use]
    pub fn clean_log(&self, seed: u64) -> Input {
        let (lines, _) = demo_sentences(seed, self.fleet.vessels, self.fleet.hours);
        Input {
            lines: round_robin(lines, 1),
            ..self.clone()
        }
    }

    /// The triggers of this input's recognition queries.
    #[must_use]
    pub fn triggers(&self) -> Vec<Trigger> {
        triggers(
            self.lines.iter().map(|l| l.t),
            self.config.recognition_window.slide.as_secs(),
            self.skew.as_secs(),
        )
    }
}

/// `(fragment number, fragment total)` of an AIVDM sentence, from its
/// second and third comma-separated fields.
#[must_use]
pub fn fragment_part(line: &str) -> Option<(u8, u8)> {
    let mut fields = line.split(',').skip(1);
    let total = fields.next()?.parse().ok()?;
    let number = fields.next()?.parse().ok()?;
    Some((number, total))
}

/// Whether `line` belongs to a multi-fragment message.
fn is_fragment(line: &str) -> bool {
    fragment_part(line).is_some_and(|(_, total)| total > 1)
}

/// Spreads a time-ordered log round-robin over `sources` sources. A
/// continuation fragment rides its predecessor's source, because
/// reassembly is keyed per source and a declaration split across two
/// would never complete.
fn round_robin(lines: Vec<(i64, String)>, sources: u32) -> Vec<Offered> {
    let mut out: Vec<Offered> = Vec::with_capacity(lines.len());
    for (i, (t, line)) in lines.into_iter().enumerate() {
        let continuation = fragment_part(&line).is_some_and(|(number, _)| number > 1);
        let source = match out.last() {
            Some(prev) if continuation => prev.source,
            _ => i as u32 % sources,
        };
        out.push(Offered { source, t, line });
    }
    out
}

/// Event-time skew that spans `wall_secs` of an open-loop schedule
/// offering `lines` lines covering `event_secs` of event time at `rate`
/// lines per second, rounded up to a whole minute.
#[must_use]
pub fn paced_skew_secs(lines: usize, event_secs: i64, rate: f64, wall_secs: f64) -> i64 {
    let schedule_secs = lines as f64 / rate;
    let skew = wall_secs * event_secs as f64 / schedule_secs;
    ((skew / 60.0).ceil() as i64).max(1) * 60
}

/// Bounded event-time shuffle: every line is displaced by a seeded amount
/// of at most `max_displacement` seconds and the log re-sorted on the
/// displaced times (stably, so ties keep their order).
fn shuffle(lines: Vec<Offered>, max_displacement: i64, seed: u64) -> Vec<Offered> {
    let mut rng = ChaosRng::new(seed ^ 0x5AFF_1E00);
    let mut keyed: Vec<(i64, Offered)> = lines
        .into_iter()
        .map(|l| (l.t + rng.range_i64(0, max_displacement.max(0)), l))
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, l)| l).collect()
}

/// Re-offers every `every`-th line on the other of two sources, right
/// after the original. Fragments of multi-part messages are not
/// re-offered: which copy of a duplicate wins is a race between the two
/// connections, and a declaration whose halves won on different sources
/// would not reassemble.
fn reoffer(lines: Vec<Offered>, every: usize) -> Vec<Offered> {
    let mut out = Vec::with_capacity(lines.len() + lines.len() / every + 1);
    for (i, line) in lines.into_iter().enumerate() {
        let copy = (i % every == every - 1 && !is_fragment(&line.line)).then(|| Offered {
            source: 1 - line.source,
            ..line.clone()
        });
        out.push(line);
        out.extend(copy);
    }
    out
}

/// The line whose arrival lets the watermark release a recognition query:
/// the first offered line whose event time reaches `query_at + skew`. No
/// correct implementation can answer the query before it arrives, so
/// alert delay is measured from the instant this line was due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// Index of the trigger line in offered order.
    pub line: usize,
    /// Query time it releases, epoch seconds.
    pub query_at: i64,
}

/// Triggers of every query `k · slide` (k ≥ 1) that some offered line
/// releases, ascending. Queries only end-of-stream flush can release have
/// no trigger line and no delay sample.
#[must_use]
pub fn triggers(
    event_times: impl IntoIterator<Item = i64>,
    slide_secs: i64,
    skew_secs: i64,
) -> Vec<Trigger> {
    let mut out = Vec::new();
    let mut next_q = slide_secs;
    let mut watermark = i64::MIN;
    for (line, t) in event_times.into_iter().enumerate() {
        watermark = watermark.max(t);
        while watermark >= next_q + skew_secs {
            out.push(Trigger {
                line,
                query_at: next_q,
            });
            next_q += slide_secs;
        }
    }
    out
}

/// The trigger of the query at `query_at`, if a line releases it.
#[must_use]
pub fn trigger_of(triggers: &[Trigger], query_at: i64) -> Option<usize> {
    triggers
        .binary_search_by_key(&query_at, |t| t.query_at)
        .ok()
}

/// Open-loop schedule: seconds after the start at which line `k` is due.
#[must_use]
pub fn due_secs(k: usize, rate: f64) -> f64 {
    k as f64 / rate
}

/// Open-loop schedule: how many of `n` lines are due `elapsed_secs` after
/// the start (line `k` is due at `k / rate`, so line 0 is due at once).
#[must_use]
pub fn due_count(elapsed_secs: f64, rate: f64, n: usize) -> usize {
    if elapsed_secs < 0.0 {
        return 0;
    }
    ((elapsed_secs * rate).floor() as usize)
        .saturating_add(1)
        .min(n)
}

/// The `<epoch-secs> <sentence>\n` framing of SERVING.md.
pub fn render_line(out: &mut Vec<u8>, t: i64, line: &str) {
    out.extend_from_slice(t.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offered(source: u32, t: i64, line: &str) -> Offered {
        Offered {
            source,
            t,
            line: line.to_string(),
        }
    }

    #[test]
    fn names_round_trip_and_are_the_final_five() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "track-fleet",
                "recognize-dense",
                "recognize-bands2",
                "serve-blast",
                "serve-paced"
            ]
        );
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: why is {} chars",
                w.name(),
                w.why().len()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn triggers_are_the_first_line_reaching_query_plus_skew() {
        // slide 10, skew 5: query 10 needs a line at >= 15, query 20 one at >= 25.
        let times = [1, 9, 12, 14, 15, 16, 24, 26, 30];
        let got = triggers(times, 10, 5);
        assert_eq!(
            got,
            vec![
                Trigger {
                    line: 4,
                    query_at: 10
                },
                Trigger {
                    line: 7,
                    query_at: 20
                },
            ]
        );
        // Query 30 would need a line at >= 35: only flush releases it.
        assert_eq!(trigger_of(&got, 10), Some(0));
        assert_eq!(trigger_of(&got, 20), Some(1));
        assert_eq!(trigger_of(&got, 30), None);
    }

    #[test]
    fn one_line_can_trigger_several_queries_across_a_gap() {
        let got = triggers([1, 2, 47], 10, 5);
        let lines: Vec<(usize, i64)> = got.iter().map(|t| (t.line, t.query_at)).collect();
        assert_eq!(lines, vec![(2, 10), (2, 20), (2, 30), (2, 40)]);
    }

    #[test]
    fn triggers_follow_the_watermark_not_the_line_time() {
        // The out-of-order 3 after 16 does not lower the watermark; the
        // trigger of query 10 is still the line that first reached 15.
        let got = triggers([1, 16, 3, 26], 10, 5);
        assert_eq!(
            got[0],
            Trigger {
                line: 1,
                query_at: 10
            }
        );
        assert_eq!(
            got[1],
            Trigger {
                line: 3,
                query_at: 20
            }
        );
    }

    #[test]
    fn open_loop_schedule_is_fixed_rate_from_zero() {
        assert_eq!(due_secs(0, 1000.0), 0.0);
        assert_eq!(due_secs(1500, 1000.0), 1.5);
        assert_eq!(due_count(-0.1, 1000.0, 10), 0);
        assert_eq!(due_count(0.0, 1000.0, 10), 1);
        assert_eq!(due_count(0.0045, 1000.0, 10), 5);
        assert_eq!(due_count(1.0, 1000.0, 10), 10);
        // Every line is due no later than the instant it is counted due.
        for k in 0..10 {
            assert!(due_count(due_secs(k, 1000.0), 1000.0, 10) > k);
        }
    }

    #[test]
    fn paced_skew_spans_the_wall_clock_width() {
        // 150k lines at 100k/s = 1.5 s for 12 h: 0.25 s of wall is 2 h.
        assert_eq!(paced_skew_secs(150_000, 12 * 3600, 100_000.0, 0.25), 7200);
        // Rounded up to a whole minute, never zero.
        assert_eq!(paced_skew_secs(150_001, 12 * 3600, 100_000.0, 0.25), 7200);
        assert_eq!(paced_skew_secs(1_000_000, 10, 100_000.0, 0.25), 60);
    }

    #[test]
    fn fragment_fields_parse() {
        assert_eq!(
            fragment_part("!AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0*24"),
            Some((1, 1))
        );
        assert_eq!(
            fragment_part("!AIVDM,2,2,3,A,88888888880,2*27"),
            Some((2, 2))
        );
        assert_eq!(fragment_part("garbage"), None);
        assert!(is_fragment("!AIVDM,2,1,3,A,xyz,0*00"));
        assert!(!is_fragment("!AIVDM,1,1,,A,xyz,0*00"));
    }

    #[test]
    fn round_robin_keeps_fragment_pairs_on_one_source() {
        let lines = vec![
            (0, "!AIVDM,1,1,,A,a,0*00".to_string()),
            (1, "!AIVDM,2,1,3,A,b,0*00".to_string()),
            (1, "!AIVDM,2,2,3,A,c,0*00".to_string()),
            (2, "!AIVDM,1,1,,A,d,0*00".to_string()),
        ];
        let sources: Vec<u32> = round_robin(lines, 3).iter().map(|l| l.source).collect();
        assert_eq!(sources, vec![0, 1, 1, 0]);
    }

    #[test]
    fn shuffle_is_seeded_and_bounded() {
        let lines: Vec<Offered> = (0..200)
            .map(|i| offered(0, i * 10, &format!("l{i}")))
            .collect();
        let a = shuffle(lines.clone(), 50, 7);
        assert_eq!(a, shuffle(lines.clone(), 50, 7), "same seed, same order");
        assert_ne!(
            a, lines,
            "a 50 s bound over 10 s spacing reorders something"
        );
        // Displacement bound: no line is overtaken by one more than 50 s younger.
        let mut watermark = i64::MIN;
        for l in &a {
            watermark = watermark.max(l.t);
            assert!(
                watermark - l.t <= 50,
                "line at {} arrived behind {}",
                l.t,
                watermark
            );
        }
        let mut sorted = a.clone();
        sorted.sort_by_key(|l| l.t);
        assert_eq!(sorted, lines, "a permutation of the input");
    }

    #[test]
    fn reoffer_duplicates_every_nth_line_on_the_other_source_but_no_fragments() {
        let mut lines: Vec<Offered> = (0..8)
            .map(|i| offered(i % 2, i64::from(i), "!AIVDM,1,1,,A,x,0*00"))
            .collect();
        lines[3].line = "!AIVDM,2,1,3,A,y,0*00".to_string();
        let out = reoffer(lines.clone(), 4);
        // Position 3 is a fragment (skipped); position 7 is re-offered.
        assert_eq!(out.len(), 9);
        assert_eq!(out[..8], lines[..]);
        assert_eq!(
            out[8],
            Offered {
                source: 1 - lines[7].source,
                ..lines[7].clone()
            }
        );
    }

    #[test]
    fn render_line_uses_the_serving_md_framing() {
        let mut out = Vec::new();
        render_line(&mut out, 7200, "!AIVDM,1,1,,A,x,0*00");
        assert_eq!(out, b"7200 !AIVDM,1,1,,A,x,0*00\n");
    }
}
