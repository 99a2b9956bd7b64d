//! FNV-64 fingerprints of the CE-out wire stream, and the event-by-event
//! comparison against a reference stream that counts failures.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit hash of `bytes`.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// Whether a subscriber line is part of the recognition output. The
/// server also broadcasts `ops` lines (health transitions) whose timing
/// depends on the wall clock; they are not recognition results and stay
/// out of the fingerprint.
#[must_use]
pub fn is_recognition_event(line: &str) -> bool {
    matches!(event_type(line), Some("alert" | "query" | "flushed"))
}

/// The `type` field of a wire line in the pinned `{"type":"…",` framing.
#[must_use]
pub fn event_type(line: &str) -> Option<&str> {
    line.strip_prefix("{\"type\":\"")?.split('"').next()
}

/// The integer field `name` of a wire line (`"name":123`).
#[must_use]
pub fn int_field(line: &str, name: &str) -> Option<i64> {
    let key = format!("\"{name}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Digest of one pass's recognition output: a hash per event (so two
/// streams can be compared event by event), the fingerprint of the whole
/// stream, and the totals the `query` events carry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireDigest {
    /// FNV-64 of each recognition event line, in stream order.
    pub events: Vec<u64>,
    /// `query` events seen.
    pub queries: u64,
    /// Sum of the `ce_count` fields of the `query` events.
    pub ce_count: u64,
}

impl WireDigest {
    /// Adds one subscriber line; non-recognition lines are skipped.
    pub fn push(&mut self, line: &str) {
        if !is_recognition_event(line) {
            return;
        }
        self.events.push(fnv64(line.as_bytes()));
        if event_type(line) == Some("query") {
            self.queries += 1;
            self.ce_count += int_field(line, "ce_count").map_or(0, |n| n.max(0) as u64);
        }
    }

    /// Digest of a whole stream.
    #[must_use]
    pub fn of<'a>(lines: impl IntoIterator<Item = &'a str>) -> Self {
        let mut d = Self::default();
        for line in lines {
            d.push(line);
        }
        d
    }

    /// FNV-64 over the whole stream: the per-event hashes folded in order,
    /// so it changes when any event changes, moves, or goes missing.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.events
            .iter()
            .fold(FNV_OFFSET, |h, e| fnv_fold(h, &e.to_le_bytes()))
    }

    /// Events of `self` that are missing from or differ from `reference`,
    /// position by position, plus surplus events on either side.
    #[must_use]
    pub fn mismatches(&self, reference: &Self) -> u64 {
        let differing = self
            .events
            .iter()
            .zip(&reference.events)
            .filter(|(a, b)| a != b)
            .count();
        (differing + self.events.len().abs_diff(reference.events.len())) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALERT: &str =
        "{\"type\":\"alert\",\"at\":6505,\"kind\":\"illegal_shipping\",\"mmsi\":237000001,\"area\":29}";
    const QUERY: &str =
        "{\"type\":\"query\",\"at\":7200,\"ce_count\":3,\"alerts\":1,\"summary\":[]}";
    const FLUSHED: &str = "{\"type\":\"flushed\",\"at\":7500}";
    const OPS: &str = "{\"type\":\"ops\",\"state\":\"degraded\"}";

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fields_parse_from_the_pinned_framing() {
        assert_eq!(event_type(QUERY), Some("query"));
        assert_eq!(event_type("garbage"), None);
        assert_eq!(int_field(QUERY, "at"), Some(7200));
        assert_eq!(int_field(QUERY, "ce_count"), Some(3));
        assert_eq!(int_field(QUERY, "missing"), None);
        assert_eq!(int_field(FLUSHED, "at"), Some(7500));
    }

    #[test]
    fn ops_lines_stay_out_of_the_digest() {
        let with_ops = WireDigest::of([ALERT, OPS, QUERY, FLUSHED]);
        let without = WireDigest::of([ALERT, QUERY, FLUSHED]);
        assert_eq!(with_ops, without);
        assert_eq!(without.events.len(), 3);
        assert_eq!((without.queries, without.ce_count), (1, 3));
    }

    #[test]
    fn fingerprint_sees_content_order_and_loss() {
        let base = WireDigest::of([ALERT, QUERY, FLUSHED]);
        assert_eq!(
            base.fingerprint(),
            WireDigest::of([ALERT, QUERY, FLUSHED]).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            WireDigest::of([QUERY, ALERT, FLUSHED]).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            WireDigest::of([ALERT, QUERY]).fingerprint()
        );
        let changed = QUERY.replace("\"ce_count\":3", "\"ce_count\":4");
        assert_ne!(
            base.fingerprint(),
            WireDigest::of([ALERT, changed.as_str(), FLUSHED]).fingerprint()
        );
    }

    #[test]
    fn mismatches_count_differing_and_missing_events() {
        let reference = WireDigest::of([ALERT, QUERY, FLUSHED]);
        assert_eq!(reference.mismatches(&reference), 0);
        assert_eq!(WireDigest::of([ALERT, QUERY]).mismatches(&reference), 1);
        assert_eq!(
            WireDigest::of([QUERY, ALERT, FLUSHED]).mismatches(&reference),
            2
        );
        assert_eq!(
            WireDigest::of([ALERT, QUERY, FLUSHED, FLUSHED]).mismatches(&reference),
            1
        );
        assert_eq!(WireDigest::default().mismatches(&reference), 3);
    }
}
