//! NMEA 0183 `!AIVDM` sentence codec for AIS position reports.
//!
//! Implements the transport the Data Scanner of Figure 1 consumes: sentence
//! framing, checksum validation (corrupt messages are discarded, §2:
//! "discard messages with bad checksum"), multi-fragment reassembly, and
//! the ITU-R M.1371 bit layouts for message types 1, 2, 3, 18 and 19.

use maritime_geo::GeoPoint;
use maritime_stream::Timestamp;

use crate::mmsi::Mmsi;
use crate::sixbit::{BitCursor, BitWriter};
use crate::types::{AisMessageType, PositionReport};

/// Longitude/latitude wire resolution: 1/10000 arc-minute.
const COORD_SCALE: f64 = 600_000.0;
/// "Not available" sentinels.
const LON_NA: i32 = 0x6791AC0; // 181 degrees
const LAT_NA: i32 = 0x3412140; // 91 degrees
const SOG_NA: u32 = 1023;
const COG_NA: u32 = 3600;

/// A parsed `!AIVDM` sentence (one fragment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AivdmSentence {
    /// Total number of fragments in the message.
    pub total: u8,
    /// This fragment's 1-based index.
    pub number: u8,
    /// Sequential message id for multi-fragment messages (empty for single).
    pub seq_id: Option<u8>,
    /// Radio channel, 'A' or 'B'.
    pub channel: char,
    /// Armoured payload.
    pub payload: String,
    /// Fill bits in the final six-bit group.
    pub fill_bits: u8,
}

impl AivdmSentence {
    /// The borrowed view of this sentence, for APIs on the zero-copy path.
    #[must_use]
    pub fn as_fragment(&self) -> AivdmFragment<'_> {
        AivdmFragment {
            total: self.total,
            number: self.number,
            seq_id: self.seq_id,
            channel: self.channel,
            payload: &self.payload,
            fill_bits: self.fill_bits,
        }
    }
}

/// A parsed `!AIVDM` fragment borrowing its payload from the input line —
/// the zero-copy form the scanner hot path consumes. [`AivdmSentence`] is
/// the owned counterpart for callers that outlive the line buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AivdmFragment<'a> {
    /// Total number of fragments in the message.
    pub total: u8,
    /// This fragment's 1-based index.
    pub number: u8,
    /// Sequential message id for multi-fragment messages (empty for single).
    pub seq_id: Option<u8>,
    /// Radio channel, 'A' or 'B'.
    pub channel: char,
    /// Armoured payload, borrowed from the input line.
    pub payload: &'a str,
    /// Fill bits in the final six-bit group.
    pub fill_bits: u8,
}

impl AivdmFragment<'_> {
    /// Copies into the owned sentence form.
    #[must_use]
    pub fn to_sentence(&self) -> AivdmSentence {
        AivdmSentence {
            total: self.total,
            number: self.number,
            seq_id: self.seq_id,
            channel: self.channel,
            payload: self.payload.to_string(),
            fill_bits: self.fill_bits,
        }
    }
}

/// Errors from sentence parsing or payload decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NmeaError {
    /// Sentence does not start with `!AIVDM` / `!AIVDO`.
    BadPrefix,
    /// Missing or malformed `*hh` checksum suffix.
    MissingChecksum,
    /// Checksum mismatch: transmission corruption.
    ChecksumMismatch {
        /// Checksum computed over the sentence body.
        computed: u8,
        /// Checksum carried by the sentence.
        declared: u8,
    },
    /// Wrong number of comma-separated fields.
    BadFieldCount(usize),
    /// A numeric field failed to parse.
    BadField(&'static str),
    /// Payload contains a character outside the six-bit alphabet, or is
    /// shorter than the message type requires.
    BadPayload,
    /// Message type is not a position report we consume (1, 2, 3, 18, 19).
    UnsupportedType(u8),
    /// Position field carries the "not available" sentinel or is outside
    /// WGS-84 bounds.
    PositionUnavailable,
    /// MMSI field exceeds nine digits.
    BadMmsi(u32),
}

impl std::fmt::Display for NmeaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadPrefix => write!(f, "not an AIVDM/AIVDO sentence"),
            Self::MissingChecksum => write!(f, "missing *hh checksum"),
            Self::ChecksumMismatch { computed, declared } => {
                write!(f, "checksum mismatch: computed {computed:02X}, declared {declared:02X}")
            }
            Self::BadFieldCount(n) => write!(f, "expected 6 fields, got {n}"),
            Self::BadField(name) => write!(f, "malformed field: {name}"),
            Self::BadPayload => write!(f, "payload not decodable"),
            Self::UnsupportedType(t) => write!(f, "unsupported message type {t}"),
            Self::PositionUnavailable => write!(f, "position not available"),
            Self::BadMmsi(v) => write!(f, "invalid MMSI {v}"),
        }
    }
}

impl std::error::Error for NmeaError {}

/// XOR checksum over the sentence body (between `!` and `*`).
#[must_use]
pub fn checksum(body: &str) -> u8 {
    body.bytes().fold(0, |acc, b| acc ^ b)
}

/// Hex-digit values for the `*hh` checksum suffix, `-1` for non-hex
/// bytes. A 256-entry const table turns the declared-checksum decode
/// into two indexed loads on the zero-copy scan path, replacing the
/// generic radix parser (which also tolerated `+` signs and arbitrary
/// digit counts that NMEA 0183 does not allow).
const HEX_VAL: [i8; 256] = {
    let mut t = [-1i8; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = match b as u8 {
            b'0'..=b'9' => (b as u8 - b'0') as i8,
            b'a'..=b'f' => (b as u8 - b'a' + 10) as i8,
            b'A'..=b'F' => (b as u8 - b'A' + 10) as i8,
            _ => -1,
        };
        b += 1;
    }
    t
};

/// Decodes the two-hex-digit declared checksum, table-driven. `None` for
/// anything but exactly two hex digits (NMEA 0183 `*hh`).
#[inline]
#[must_use]
fn declared_checksum(field: &str) -> Option<u8> {
    let [hi, lo] = field.as_bytes() else {
        return None;
    };
    let (hi, lo) = (HEX_VAL[usize::from(*hi)], HEX_VAL[usize::from(*lo)]);
    if hi < 0 || lo < 0 {
        return None;
    }
    #[allow(clippy::cast_sign_loss)] // both verified non-negative above
    Some(((hi as u8) << 4) | lo as u8)
}

/// Parses one `!AIVDM,...*hh` sentence into a borrowed fragment,
/// validating the checksum. Performs no heap allocation: the payload is a
/// slice of `line`, and the six comma-separated fields are walked with a
/// split iterator instead of being collected.
pub fn parse_fragment(line: &str) -> Result<AivdmFragment<'_>, NmeaError> {
    let line = line.trim_end();
    let rest = line
        .strip_prefix("!AIVDM,")
        .or_else(|| line.strip_prefix("!AIVDO,"))
        .ok_or(NmeaError::BadPrefix)?;
    let (body, declared) = rest.rsplit_once('*').ok_or(NmeaError::MissingChecksum)?;
    let declared = declared_checksum(declared).ok_or(NmeaError::MissingChecksum)?;
    // The checksum covers everything between '!' and '*': "AIVDM," + body.
    let prefix = &line[1..7]; // "AIVDM," or "AIVDO,"
    let computed = checksum(prefix) ^ checksum(body);
    if computed != declared {
        return Err(NmeaError::ChecksumMismatch { computed, declared });
    }

    let mut fields = body.split(',');
    let (
        (Some(f_total), Some(f_number), Some(f_seq)),
        (Some(f_channel), Some(f_payload), Some(f_fill), None),
    ) = (
        (fields.next(), fields.next(), fields.next()),
        (fields.next(), fields.next(), fields.next(), fields.next()),
    )
    else {
        return Err(NmeaError::BadFieldCount(body.split(',').count()));
    };
    let total: u8 = f_total.parse().map_err(|_| NmeaError::BadField("total"))?;
    let number: u8 = f_number.parse().map_err(|_| NmeaError::BadField("number"))?;
    let seq_id = if f_seq.is_empty() {
        None
    } else {
        Some(f_seq.parse().map_err(|_| NmeaError::BadField("seq_id"))?)
    };
    let channel = f_channel.chars().next().unwrap_or('A');
    let fill_bits: u8 = f_fill.parse().map_err(|_| NmeaError::BadField("fill"))?;
    Ok(AivdmFragment {
        total,
        number,
        seq_id,
        channel,
        payload: f_payload,
        fill_bits,
    })
}

/// Parses one `!AIVDM,...*hh` sentence, validating the checksum.
pub fn parse_sentence(line: &str) -> Result<AivdmSentence, NmeaError> {
    parse_fragment(line).map(|f| f.to_sentence())
}

/// Renders a payload as a single `!AIVDM` sentence with a valid checksum.
#[must_use]
pub fn format_sentence(payload: &str, fill_bits: u8, channel: char) -> String {
    let body = format!("AIVDM,1,1,,{channel},{payload},{fill_bits}");
    format!("!{body}*{:02X}", checksum(&body))
}

/// Encodes a [`PositionReport`] into the bit layout of its message type and
/// wraps it in a single `!AIVDM` sentence.
///
/// The `timestamp` field of the report is *not* on the wire (AIS carries
/// only a UTC-second hint); receivers timestamp messages on arrival, which
/// is what the simulator's replay layer does too.
#[must_use]
pub fn encode_report(report: &PositionReport) -> String {
    let mut w = BitWriter::new();
    let t = report.msg_type;
    w.put_u32(u32::from(t.as_u8()), 6);
    w.put_u32(0, 2); // repeat indicator
    w.put_u32(report.mmsi.0, 30);

    let lon_raw = (report.position.lon * COORD_SCALE).round() as i32;
    let lat_raw = (report.position.lat * COORD_SCALE).round() as i32;
    let sog_raw = report
        .sog_knots
        .map_or(SOG_NA, |v| ((v * 10.0).round() as u32).min(1022));
    let cog_raw = report
        .cog_deg
        .map_or(COG_NA, |v| ((v.rem_euclid(360.0) * 10.0).round() as u32).min(3599));
    let utc_second = (report.timestamp.as_secs().rem_euclid(60)) as u32;

    match t {
        AisMessageType::PositionReportClassA
        | AisMessageType::PositionReportClassAAssigned
        | AisMessageType::PositionReportClassAResponse => {
            w.put_u32(0, 4); // navigation status
            w.put_i32(-128, 8); // rate of turn: not available
            w.put_u32(sog_raw, 10);
            w.put_u32(0, 1); // position accuracy
            w.put_i32(lon_raw, 28);
            w.put_i32(lat_raw, 27);
            w.put_u32(cog_raw, 12);
            w.put_u32(511, 9); // true heading: not available
            w.put_u32(utc_second, 6);
            w.put_u32(0, 2); // maneuver indicator
            w.put_u32(0, 3); // spare
            w.put_u32(0, 1); // RAIM
            w.put_u32(0, 19); // radio status
        }
        AisMessageType::StandardClassB | AisMessageType::ExtendedClassB => {
            w.put_u32(0, 8); // reserved
            w.put_u32(sog_raw, 10);
            w.put_u32(0, 1); // position accuracy
            w.put_i32(lon_raw, 28);
            w.put_i32(lat_raw, 27);
            w.put_u32(cog_raw, 12);
            w.put_u32(511, 9); // true heading
            w.put_u32(utc_second, 6);
            if t == AisMessageType::StandardClassB {
                w.put_u32(0, 2); // spare
                w.put_u32(0, 24); // flags + radio status (condensed)
            } else {
                // Type 19 continues with name/type/dimension fields.
                w.put_u32(0, 4); // spare
                for _ in 0..20 {
                    w.put_u32(0, 6); // name: 20 six-bit chars, all '@'
                }
                w.put_u32(0, 8); // ship type
                w.put_u32(0, 30); // dimensions
                w.put_u32(0, 4); // fix type
                w.put_u32(0, 5); // flags
            }
        }
    }
    let (payload, fill) = w.finish();
    format_sentence(&payload, fill, 'A')
}

/// Decodes an armoured payload into a [`PositionReport`].
///
/// `received_at` supplies the stream timestamp τ, since the wire format
/// carries only a UTC-second hint. Decoding reads bit fields directly off
/// the payload bytes via [`BitCursor`] — no heap allocation; the
/// `#[cfg(test)]` twin `decode_payload_reference` runs the same layout
/// through the reference `BitReader` (test support) as the differential
/// oracle.
pub fn decode_payload(
    payload: &str,
    fill_bits: u8,
    received_at: Timestamp,
) -> Result<PositionReport, NmeaError> {
    let mut r = BitCursor::new(payload.as_bytes(), fill_bits).ok_or(NmeaError::BadPayload)?;
    let type_raw = r.get_u32(6).ok_or(NmeaError::BadPayload)? as u8;
    let msg_type =
        AisMessageType::from_u8(type_raw).ok_or(NmeaError::UnsupportedType(type_raw))?;
    r.skip(2).ok_or(NmeaError::BadPayload)?; // repeat indicator
    let mmsi_raw = r.get_u32(30).ok_or(NmeaError::BadPayload)?;
    let mmsi = Mmsi::try_new(mmsi_raw).map_err(|e| NmeaError::BadMmsi(e.0))?;

    let (sog_raw, lon_raw, lat_raw, cog_raw) = match msg_type {
        AisMessageType::PositionReportClassA
        | AisMessageType::PositionReportClassAAssigned
        | AisMessageType::PositionReportClassAResponse => {
            r.skip(4 + 8).ok_or(NmeaError::BadPayload)?; // status + ROT
            let sog = r.get_u32(10).ok_or(NmeaError::BadPayload)?;
            r.skip(1).ok_or(NmeaError::BadPayload)?; // accuracy
            let lon = r.get_i32(28).ok_or(NmeaError::BadPayload)?;
            let lat = r.get_i32(27).ok_or(NmeaError::BadPayload)?;
            let cog = r.get_u32(12).ok_or(NmeaError::BadPayload)?;
            (sog, lon, lat, cog)
        }
        AisMessageType::StandardClassB | AisMessageType::ExtendedClassB => {
            r.skip(8).ok_or(NmeaError::BadPayload)?; // reserved
            let sog = r.get_u32(10).ok_or(NmeaError::BadPayload)?;
            r.skip(1).ok_or(NmeaError::BadPayload)?;
            let lon = r.get_i32(28).ok_or(NmeaError::BadPayload)?;
            let lat = r.get_i32(27).ok_or(NmeaError::BadPayload)?;
            let cog = r.get_u32(12).ok_or(NmeaError::BadPayload)?;
            (sog, lon, lat, cog)
        }
    };

    if lon_raw == LON_NA || lat_raw == LAT_NA {
        return Err(NmeaError::PositionUnavailable);
    }
    let position = GeoPoint::try_new(lon_raw as f64 / COORD_SCALE, lat_raw as f64 / COORD_SCALE)
        .map_err(|_| NmeaError::PositionUnavailable)?;

    Ok(PositionReport {
        mmsi,
        msg_type,
        position,
        sog_knots: (sog_raw != SOG_NA).then(|| f64::from(sog_raw) / 10.0),
        cog_deg: (cog_raw != COG_NA).then(|| f64::from(cog_raw) / 10.0),
        timestamp: received_at,
    })
}

/// Reference decode: identical layout walk through the reference
/// `BitReader` (`tests/support/bit_reader.rs`). Compiled only for tests, where
/// it serves as the oracle of the decoder differential suite.
#[cfg(test)]
pub fn decode_payload_reference(
    payload: &str,
    fill_bits: u8,
    received_at: Timestamp,
) -> Result<PositionReport, NmeaError> {
    let mut r = crate::bit_reader::BitReader::from_payload(payload, fill_bits)
        .ok_or(NmeaError::BadPayload)?;
    let type_raw = r.get_u32(6).ok_or(NmeaError::BadPayload)? as u8;
    let msg_type =
        AisMessageType::from_u8(type_raw).ok_or(NmeaError::UnsupportedType(type_raw))?;
    r.skip(2).ok_or(NmeaError::BadPayload)?; // repeat indicator
    let mmsi_raw = r.get_u32(30).ok_or(NmeaError::BadPayload)?;
    let mmsi = Mmsi::try_new(mmsi_raw).map_err(|e| NmeaError::BadMmsi(e.0))?;

    let (sog_raw, lon_raw, lat_raw, cog_raw) = match msg_type {
        AisMessageType::PositionReportClassA
        | AisMessageType::PositionReportClassAAssigned
        | AisMessageType::PositionReportClassAResponse => {
            r.skip(4 + 8).ok_or(NmeaError::BadPayload)?; // status + ROT
            let sog = r.get_u32(10).ok_or(NmeaError::BadPayload)?;
            r.skip(1).ok_or(NmeaError::BadPayload)?; // accuracy
            let lon = r.get_i32(28).ok_or(NmeaError::BadPayload)?;
            let lat = r.get_i32(27).ok_or(NmeaError::BadPayload)?;
            let cog = r.get_u32(12).ok_or(NmeaError::BadPayload)?;
            (sog, lon, lat, cog)
        }
        AisMessageType::StandardClassB | AisMessageType::ExtendedClassB => {
            r.skip(8).ok_or(NmeaError::BadPayload)?; // reserved
            let sog = r.get_u32(10).ok_or(NmeaError::BadPayload)?;
            r.skip(1).ok_or(NmeaError::BadPayload)?;
            let lon = r.get_i32(28).ok_or(NmeaError::BadPayload)?;
            let lat = r.get_i32(27).ok_or(NmeaError::BadPayload)?;
            let cog = r.get_u32(12).ok_or(NmeaError::BadPayload)?;
            (sog, lon, lat, cog)
        }
    };

    if lon_raw == LON_NA || lat_raw == LAT_NA {
        return Err(NmeaError::PositionUnavailable);
    }
    let position = GeoPoint::try_new(lon_raw as f64 / COORD_SCALE, lat_raw as f64 / COORD_SCALE)
        .map_err(|_| NmeaError::PositionUnavailable)?;

    Ok(PositionReport {
        mmsi,
        msg_type,
        position,
        sog_knots: (sog_raw != SOG_NA).then(|| f64::from(sog_raw) / 10.0),
        cog_deg: (cog_raw != COG_NA).then(|| f64::from(cog_raw) / 10.0),
        timestamp: received_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(t: AisMessageType) -> PositionReport {
        PositionReport {
            mmsi: Mmsi(237_004_321),
            msg_type: t,
            position: GeoPoint::new(23.6178, 37.9415),
            sog_knots: Some(14.3),
            cog_deg: Some(231.7),
            timestamp: Timestamp(3_601),
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_types() {
        for t in [
            AisMessageType::PositionReportClassA,
            AisMessageType::PositionReportClassAAssigned,
            AisMessageType::PositionReportClassAResponse,
            AisMessageType::StandardClassB,
            AisMessageType::ExtendedClassB,
        ] {
            let report = sample_report(t);
            let sentence = encode_report(&report);
            let parsed = parse_sentence(&sentence).unwrap();
            let decoded =
                decode_payload(&parsed.payload, parsed.fill_bits, report.timestamp).unwrap();
            assert_eq!(decoded.mmsi, report.mmsi);
            assert_eq!(decoded.msg_type, t);
            // Wire resolution: 1/10000 arc-minute ~ 0.18 m.
            assert!((decoded.position.lon - report.position.lon).abs() < 1e-5);
            assert!((decoded.position.lat - report.position.lat).abs() < 1e-5);
            assert!((decoded.sog_knots.unwrap() - 14.3).abs() < 0.051);
            assert!((decoded.cog_deg.unwrap() - 231.7).abs() < 0.051);
        }
    }

    #[test]
    fn corrupted_sentence_fails_checksum() {
        let sentence = encode_report(&sample_report(AisMessageType::PositionReportClassA));
        // Flip one payload character.
        let pos = sentence.find(',').unwrap() + 15;
        let mut corrupted: Vec<u8> = sentence.clone().into_bytes();
        corrupted[pos] = if corrupted[pos] == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(matches!(
            parse_sentence(&corrupted),
            Err(NmeaError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn missing_checksum_rejected() {
        assert_eq!(
            parse_sentence("!AIVDM,1,1,,A,15M67F001,0"),
            Err(NmeaError::MissingChecksum)
        );
    }

    #[test]
    fn wrong_prefix_rejected() {
        assert_eq!(parse_sentence("$GPGGA,foo*00"), Err(NmeaError::BadPrefix));
    }

    #[test]
    fn checksum_suffix_must_be_two_hex_digits() {
        let sentence = encode_report(&sample_report(AisMessageType::PositionReportClassA));
        let (body, hex) = sentence.rsplit_once('*').unwrap();
        // Lowercase hex is valid NMEA and must verify.
        assert!(parse_sentence(&format!("{body}*{}", hex.to_lowercase())).is_ok());
        // Anything but exactly two hex digits is a malformed suffix; the
        // old radix parser tolerated some of these (`+` signs, one digit).
        for bad in [String::new(), "7".into(), format!("+{hex}"), format!("0{hex}"), "G0".into()]
        {
            assert_eq!(
                parse_sentence(&format!("{body}*{bad}")),
                Err(NmeaError::MissingChecksum),
                "suffix {bad:?}"
            );
        }
    }

    #[test]
    fn unavailable_position_rejected() {
        let report = PositionReport {
            sog_knots: None,
            cog_deg: None,
            ..sample_report(AisMessageType::PositionReportClassA)
        };
        // Encode with sentinel coordinates by hand.
        let mut w = BitWriter::new();
        w.put_u32(1, 6);
        w.put_u32(0, 2);
        w.put_u32(report.mmsi.0, 30);
        w.put_u32(0, 4);
        w.put_i32(-128, 8);
        w.put_u32(SOG_NA, 10);
        w.put_u32(0, 1);
        w.put_i32(LON_NA, 28);
        w.put_i32(LAT_NA, 27);
        w.put_u32(COG_NA, 12);
        w.put_u32(511, 9);
        w.put_u32(0, 6);
        w.put_u32(0, 2 + 3 + 1 + 19);
        let (payload, fill) = w.finish();
        assert_eq!(
            decode_payload(&payload, fill, Timestamp(0)),
            Err(NmeaError::PositionUnavailable)
        );
    }

    #[test]
    fn unavailable_sog_cog_decode_as_none() {
        let report = PositionReport {
            sog_knots: None,
            cog_deg: None,
            ..sample_report(AisMessageType::StandardClassB)
        };
        let sentence = encode_report(&report);
        let parsed = parse_sentence(&sentence).unwrap();
        let decoded = decode_payload(&parsed.payload, parsed.fill_bits, Timestamp(0)).unwrap();
        assert_eq!(decoded.sog_knots, None);
        assert_eq!(decoded.cog_deg, None);
    }

    #[test]
    fn unsupported_message_type_rejected() {
        let mut w = BitWriter::new();
        w.put_u32(5, 6); // static voyage data, not a position report
        w.put_u32(0, 2);
        w.put_u32(123, 30);
        let (payload, fill) = w.finish();
        assert_eq!(
            decode_payload(&payload, fill, Timestamp(0)),
            Err(NmeaError::UnsupportedType(5))
        );
    }

    #[test]
    fn negative_coordinates_roundtrip() {
        let report = PositionReport {
            position: GeoPoint::new(-71.0589, -33.0472),
            ..sample_report(AisMessageType::PositionReportClassA)
        };
        let sentence = encode_report(&report);
        let parsed = parse_sentence(&sentence).unwrap();
        let decoded = decode_payload(&parsed.payload, parsed.fill_bits, Timestamp(0)).unwrap();
        assert!((decoded.position.lon - report.position.lon).abs() < 1e-5);
        assert!((decoded.position.lat - report.position.lat).abs() < 1e-5);
    }

    #[test]
    fn sentence_fields_parse() {
        let sentence = encode_report(&sample_report(AisMessageType::PositionReportClassA));
        let parsed = parse_sentence(&sentence).unwrap();
        assert_eq!(parsed.total, 1);
        assert_eq!(parsed.number, 1);
        assert_eq!(parsed.seq_id, None);
        assert_eq!(parsed.channel, 'A');
    }

    #[test]
    fn fragment_parse_matches_sentence_parse() {
        let sentence = encode_report(&sample_report(AisMessageType::PositionReportClassA));
        let frag = parse_fragment(&sentence).unwrap();
        let owned = parse_sentence(&sentence).unwrap();
        assert_eq!(frag.to_sentence(), owned);
        assert_eq!(owned.as_fragment(), frag);
        // The fragment payload is a slice of the input, not a copy.
        let line_range = sentence.as_ptr() as usize..sentence.as_ptr() as usize + sentence.len();
        assert!(line_range.contains(&(frag.payload.as_ptr() as usize)));
    }

    #[test]
    fn cursor_decode_matches_reference_on_fixtures() {
        // Clean payloads of every supported type, plus malformed ones:
        // the production cursor decoder and the reference BitReader
        // decoder must agree byte-for-byte, including on the error.
        let mut cases: Vec<(String, u8)> = Vec::new();
        for t in [
            AisMessageType::PositionReportClassA,
            AisMessageType::PositionReportClassAAssigned,
            AisMessageType::PositionReportClassAResponse,
            AisMessageType::StandardClassB,
            AisMessageType::ExtendedClassB,
        ] {
            let parsed = parse_sentence(&encode_report(&sample_report(t))).unwrap();
            cases.push((parsed.payload, parsed.fill_bits));
        }
        cases.push((String::new(), 0)); // empty payload
        cases.push((String::new(), 3)); // fill exceeding payload bits
        cases.push(("1".into(), 0)); // truncated after message type
        cases.push(("1 3".into(), 0)); // invalid armour char
        cases.push(("5".repeat(20), 2)); // unsupported type 5
        for (payload, fill) in cases {
            let fast = decode_payload(&payload, fill, Timestamp(7));
            let slow = decode_payload_reference(&payload, fill, Timestamp(7));
            assert_eq!(fast, slow, "payload {payload:?} fill {fill}");
        }
    }

    #[test]
    fn aivdo_prefix_also_accepted() {
        let sentence = encode_report(&sample_report(AisMessageType::PositionReportClassA));
        let own = sentence.replacen("!AIVDM", "!AIVDO", 1);
        // Recompute checksum for the modified prefix.
        let body = &own[1..own.rfind('*').unwrap()];
        let fixed = format!("!{body}*{:02X}", checksum(body));
        assert!(parse_sentence(&fixed).is_ok());
    }
}
