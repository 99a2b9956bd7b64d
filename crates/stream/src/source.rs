//! Per-source admission control for multi-feed live ingestion.
//!
//! `surveil serve` drains many physical feeds at once — TCP connections
//! and UDP peers, each a [`SourceId`]. Real NMEA routers sit exactly here:
//! they tag, filter, and de-duplicate sentences per input before the
//! merged stream reaches any consumer. [`SourceMux`] is that layer: a
//! cheap syntactic filter (only AIVDM/AIVDO sentences of plausible length
//! pass), a cross-source duplicate suppressor (two receivers hearing the
//! same transmission forward byte-identical sentences seconds apart), and
//! per-source counters for the operator's `/sources` endpoint.
//!
//! The mux is deliberately *upstream* of the
//! [`AdmissionBuffer`](crate::AdmissionBuffer): it judges raw lines, not
//! decoded positions, so junk never costs a decode and duplicates never
//! occupy admission slots.

use std::collections::{BTreeMap, HashMap};

use crate::{Duration, Timestamp};

/// Identifies one physical feed (a TCP connection or a UDP peer) for the
/// lifetime of that feed. Ids are never reused within a server run: a
/// reconnecting client is a *new* source, which is what keeps per-source
/// defragmenter state from mixing pre- and post-reconnect fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

/// The mux's ruling on one raw line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceVerdict {
    /// Forward to admission/decoding.
    Accepted,
    /// Dropped by the syntactic filter: not an AIVDM/AIVDO sentence, or
    /// implausibly long for one.
    Filtered,
    /// Dropped as a cross-source duplicate: the identical sentence was
    /// already accepted within the dedup window.
    Duplicate,
}

/// Per-source counters, snapshot for the `/sources` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Raw lines presented by this source.
    pub lines: u64,
    /// Lines forwarded to the pipeline.
    pub accepted: u64,
    /// Lines dropped by the syntactic filter.
    pub filtered: u64,
    /// Lines dropped as cross-source duplicates.
    pub duplicates: u64,
    /// Event time of the first line seen (`None` before any line).
    pub first_seen: Option<Timestamp>,
    /// Event time of the most recent line.
    pub last_seen: Option<Timestamp>,
}

impl SourceStats {
    /// Accepted sentences per event-time second, the "sentences/s per
    /// source" figure of the handbook. At least one second of span is
    /// assumed so a single-line source reads as its own count, not ∞.
    #[must_use]
    pub fn sentences_per_sec(&self) -> f64 {
        let span = match (self.first_seen, self.last_seen) {
            (Some(a), Some(b)) => b.0.saturating_sub(a.0).max(1),
            _ => 1,
        };
        self.accepted as f64 / span as f64
    }
}

/// Longest line the filter accepts. An AIVDM sentence is bounded by the
/// NMEA 82-character frame; anything past this is line noise or a
/// protocol confusion (an HTTP request aimed at the NMEA port, say).
pub const MAX_SENTENCE_BYTES: usize = 256;

/// Upper bound on the dedup table before old hashes are pruned.
const DEDUP_TABLE_CAP: usize = 1 << 16;

/// Multi-source line admission: filter, cross-source dedup, per-source
/// accounting. See the module docs for where this sits in the serve
/// pipeline.
#[derive(Debug)]
pub struct SourceMux {
    dedup_window: Duration,
    /// sentence-hash → event time it was last accepted.
    seen: HashMap<u64, Timestamp>,
    stats: BTreeMap<SourceId, SourceStats>,
}

impl SourceMux {
    /// Creates a mux suppressing byte-identical sentences that recur
    /// within `dedup_window` (event time). A zero window disables dedup —
    /// every well-formed line passes, which is what batch replay wants.
    #[must_use]
    pub fn new(dedup_window: Duration) -> Self {
        Self {
            dedup_window,
            seen: HashMap::new(),
            stats: BTreeMap::new(),
        }
    }

    /// Judges one raw line from `source` carrying event time `t`.
    pub fn admit(&mut self, source: SourceId, t: Timestamp, line: &str) -> SourceVerdict {
        let stat = self.stats.entry(source).or_default();
        stat.lines += 1;
        if stat.first_seen.is_none() {
            stat.first_seen = Some(t);
        }
        stat.last_seen = Some(t);
        if !plausible_sentence(line) {
            stat.filtered += 1;
            return SourceVerdict::Filtered;
        }
        if self.dedup_window.0 > 0 {
            let h = fnv1a(line.as_bytes());
            if let Some(&prev) = self.seen.get(&h) {
                if t.0.abs_diff(prev.0) <= self.dedup_window.0.unsigned_abs() {
                    stat.duplicates += 1;
                    return SourceVerdict::Duplicate;
                }
            }
            if self.seen.len() >= DEDUP_TABLE_CAP {
                let window = self.dedup_window.0.unsigned_abs();
                self.seen.retain(|_, &mut prev| t.0.abs_diff(prev.0) <= window);
            }
            self.seen.insert(h, t);
        }
        stat.accepted += 1;
        SourceVerdict::Accepted
    }

    /// Per-source counters, ordered by source id.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &SourceStats)> {
        self.stats.iter().map(|(id, s)| (*id, s))
    }

    /// Counters for one source, if it has ever sent a line.
    #[must_use]
    pub fn stats(&self, source: SourceId) -> Option<&SourceStats> {
        self.stats.get(&source)
    }

    /// Number of sources that have ever sent a line.
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.stats.len()
    }
}

/// The syntactic filter: AIVDM/AIVDO framing and a plausible length.
/// Checksum and field validation stay with the scanner — this only keeps
/// obvious non-AIS traffic away from the decode path.
#[must_use]
pub fn plausible_sentence(line: &str) -> bool {
    (line.starts_with("!AIVDM,") || line.starts_with("!AIVDO,"))
        && line.len() <= MAX_SENTENCE_BYTES
}

/// FNV-1a, enough to key byte-identical sentence suppression.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "!AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0*24";

    #[test]
    fn filter_drops_non_ais_traffic() {
        let mut mux = SourceMux::new(Duration(10));
        let s = SourceId(1);
        assert_eq!(mux.admit(s, Timestamp(0), LINE), SourceVerdict::Accepted);
        assert_eq!(
            mux.admit(s, Timestamp(1), "GET /metrics HTTP/1.1"),
            SourceVerdict::Filtered
        );
        assert_eq!(
            mux.admit(s, Timestamp(2), "$GPGGA,junk*7F"),
            SourceVerdict::Filtered
        );
        let long = format!("!AIVDM,{}", "x".repeat(MAX_SENTENCE_BYTES));
        assert_eq!(mux.admit(s, Timestamp(3), &long), SourceVerdict::Filtered);
        let st = *mux.stats(s).unwrap();
        assert_eq!((st.lines, st.accepted, st.filtered), (4, 1, 3));
    }

    #[test]
    fn duplicate_across_sources_is_suppressed_within_window() {
        let mut mux = SourceMux::new(Duration(10));
        assert_eq!(
            mux.admit(SourceId(1), Timestamp(100), LINE),
            SourceVerdict::Accepted
        );
        // Second receiver heard the same transmission 3 s later.
        assert_eq!(
            mux.admit(SourceId(2), Timestamp(103), LINE),
            SourceVerdict::Duplicate
        );
        // Out-of-order duplicate (earlier event time) is still a duplicate.
        assert_eq!(
            mux.admit(SourceId(3), Timestamp(97), LINE),
            SourceVerdict::Duplicate
        );
        // Far outside the window it is a legitimate retransmission.
        assert_eq!(
            mux.admit(SourceId(2), Timestamp(200), LINE),
            SourceVerdict::Accepted
        );
        assert_eq!(mux.source_count(), 3);
    }

    #[test]
    fn zero_window_disables_dedup() {
        let mut mux = SourceMux::new(Duration(0));
        assert_eq!(
            mux.admit(SourceId(1), Timestamp(0), LINE),
            SourceVerdict::Accepted
        );
        assert_eq!(
            mux.admit(SourceId(1), Timestamp(0), LINE),
            SourceVerdict::Accepted
        );
    }

    #[test]
    fn extreme_stamps_neither_overflow_dedup_nor_prune() {
        let mut mux = SourceMux::new(Duration(10));
        let s = SourceId(1);
        let min = Timestamp(i64::MIN);
        assert_eq!(mux.admit(s, Timestamp(100), LINE), SourceVerdict::Accepted);
        assert_eq!(mux.admit(s, min, LINE), SourceVerdict::Accepted);
        assert_eq!(mux.admit(s, Timestamp(i64::MIN + 1), LINE), SourceVerdict::Duplicate);
        // Fill the table so the next admission prunes across the full range.
        for i in 0..DEDUP_TABLE_CAP {
            mux.admit(s, min, &format!("!AIVDM,{i}"));
        }
        let max = Timestamp(i64::MAX);
        assert_eq!(mux.admit(s, max, "!AIVDM,late"), SourceVerdict::Accepted);
        assert_eq!(mux.seen.len(), 1);
        // A source spanning the whole range still reports a rate.
        let r = SourceId(2);
        mux.admit(r, min, LINE);
        mux.admit(r, max, LINE);
        assert!(mux.stats(r).unwrap().sentences_per_sec() >= 0.0);
    }

    #[test]
    fn sentences_per_sec_uses_event_time_span() {
        let mut mux = SourceMux::new(Duration(0));
        let s = SourceId(7);
        for t in 0..20 {
            mux.admit(s, Timestamp(t * 5), LINE);
        }
        let st = mux.stats(s).unwrap();
        assert_eq!(st.accepted, 20);
        let rate = st.sentences_per_sec();
        assert!((rate - 20.0 / 95.0).abs() < 1e-9, "{rate}");
    }
}
