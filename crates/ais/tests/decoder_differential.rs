//! Differential suite: table-driven decoder vs the reference decoder.
//!
//! The hot path reads bit fields straight off the armored payload bytes
//! through [`BitCursor`] and the precomputed `UNARMOR` table; the original
//! per-character [`BitReader`] (test support) is the reference oracle.
//! Every test here runs both over the same input and demands *identical*
//! results — construction success, remaining bit counts, every read, and
//! full decoded reports bit for bit — across golden fixtures and arbitrary
//! armored payloads including the fill-bit padding edge cases.

use maritime_ais::nmea::{self, decode_payload, encode_report, NmeaError};
use maritime_ais::sixbit::BitCursor;
use maritime_ais::{AisMessageType, Mmsi, PositionReport};
use maritime_geo::GeoPoint;
use maritime_stream::Timestamp;
use proptest::prelude::*;

#[path = "support/bit_reader.rs"]
mod bit_reader;
use bit_reader::BitReader;

/// Reference decode: the same ITU-R M.1371 layout walk as
/// `nmea::decode_payload`, but through the per-character [`BitReader`].
/// Kept in the test crate so the differential holds even if the library's
/// internal twin drifts.
fn decode_payload_reference(
    payload: &str,
    fill_bits: u8,
    received_at: Timestamp,
) -> Result<PositionReport, NmeaError> {
    const COORD_SCALE: f64 = 600_000.0;
    const LON_NA: i32 = 0x679_1AC0;
    const LAT_NA: i32 = 0x341_2140;
    const SOG_NA: u32 = 1023;
    const COG_NA: u32 = 3600;

    let mut r = BitReader::from_payload(payload, fill_bits).ok_or(NmeaError::BadPayload)?;
    let type_raw = r.get_u32(6).ok_or(NmeaError::BadPayload)? as u8;
    let msg_type =
        AisMessageType::from_u8(type_raw).ok_or(NmeaError::UnsupportedType(type_raw))?;
    r.skip(2).ok_or(NmeaError::BadPayload)?;
    let mmsi_raw = r.get_u32(30).ok_or(NmeaError::BadPayload)?;
    let mmsi = Mmsi::try_new(mmsi_raw).map_err(|e| NmeaError::BadMmsi(e.0))?;

    let (sog_raw, lon_raw, lat_raw, cog_raw) = match msg_type {
        AisMessageType::PositionReportClassA
        | AisMessageType::PositionReportClassAAssigned
        | AisMessageType::PositionReportClassAResponse => {
            r.skip(4 + 8).ok_or(NmeaError::BadPayload)?;
            let sog = r.get_u32(10).ok_or(NmeaError::BadPayload)?;
            r.skip(1).ok_or(NmeaError::BadPayload)?;
            let lon = r.get_i32(28).ok_or(NmeaError::BadPayload)?;
            let lat = r.get_i32(27).ok_or(NmeaError::BadPayload)?;
            let cog = r.get_u32(12).ok_or(NmeaError::BadPayload)?;
            (sog, lon, lat, cog)
        }
        AisMessageType::StandardClassB | AisMessageType::ExtendedClassB => {
            r.skip(8).ok_or(NmeaError::BadPayload)?;
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

/// Asserts the fast and reference decoders agree exactly on one payload,
/// including bit-level equality of the floating-point fields.
fn assert_identical_decode(payload: &str, fill_bits: u8) {
    let fast = decode_payload(payload, fill_bits, Timestamp(42));
    let slow = decode_payload_reference(payload, fill_bits, Timestamp(42));
    assert_eq!(fast, slow, "payload {payload:?} fill {fill_bits}");
    if let (Ok(f), Ok(s)) = (&fast, &slow) {
        assert_eq!(f.position.lon.to_bits(), s.position.lon.to_bits());
        assert_eq!(f.position.lat.to_bits(), s.position.lat.to_bits());
        assert_eq!(
            f.sog_knots.map(f64::to_bits),
            s.sog_knots.map(f64::to_bits)
        );
        assert_eq!(f.cog_deg.map(f64::to_bits), s.cog_deg.map(f64::to_bits));
    }
}

fn golden_reports() -> Vec<PositionReport> {
    let types = [
        AisMessageType::PositionReportClassA,
        AisMessageType::PositionReportClassAAssigned,
        AisMessageType::PositionReportClassAResponse,
        AisMessageType::StandardClassB,
        AisMessageType::ExtendedClassB,
    ];
    types
        .iter()
        .enumerate()
        .map(|(i, &msg_type)| PositionReport {
            mmsi: Mmsi(237_000_001 + i as u32),
            msg_type,
            position: GeoPoint::new(23.6 + i as f64 * 0.1, 37.9 - i as f64 * 0.05),
            sog_knots: Some(11.5 + i as f64),
            cog_deg: Some(183.2),
            timestamp: Timestamp(1_000 + i as i64),
        })
        .collect()
}

#[test]
fn golden_fixtures_decode_identically() {
    for report in golden_reports() {
        let sentence = encode_report(&report);
        let parsed = nmea::parse_sentence(&sentence).unwrap();
        assert_identical_decode(&parsed.payload, parsed.fill_bits);
        // And the fast path actually round-trips the fixture.
        let decoded = decode_payload(&parsed.payload, parsed.fill_bits, report.timestamp).unwrap();
        assert_eq!(decoded.mmsi, report.mmsi);
        assert_eq!(decoded.msg_type, report.msg_type);
    }
}

#[test]
fn malformed_payloads_rejected_identically() {
    // Truncated, empty, whitespace, chars outside the armoring alphabet,
    // and over-padded payloads must fail (or succeed) the same way.
    let cases: &[(&str, u8)] = &[
        ("", 0),
        ("", 5),
        ("1", 0),
        ("1", 7),
        ("1 3", 0),
        ("13~b", 0), // `~` (0x7E) is outside the armoring alphabet
        ("13\u{e9}b", 0),
        ("177KQ", 2),
        ("55555555555555555555", 0),
    ];
    for &(payload, fill) in cases {
        assert_identical_decode(payload, fill);
        assert_eq!(
            BitCursor::new(payload.as_bytes(), fill).is_some(),
            BitReader::from_payload(payload, fill).is_some(),
            "constructibility differs on {payload:?} fill {fill}"
        );
    }
}

/// One armored character: the 64-symbol alphabet is `0..=39 -> +48`,
/// `40..=63 -> +56`.
fn arb_armored_char() -> impl Strategy<Value = char> {
    (0u8..64).prop_map(|v| {
        let c = if v < 40 { v + 48 } else { v + 56 };
        c as char
    })
}

/// A read script: each op is (kind, width). Widths beyond the remaining
/// bit budget exercise the out-of-bits paths.
fn arb_script() -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0u8..3, 1usize..33), 0..12)
}

proptest! {
    /// Over arbitrary armored payloads and fill bits (including the
    /// padding edge cases fill 6/7 and fill > total bits), the cursor and
    /// the reference reader must agree on construction, remaining bits,
    /// and the result of every scripted read.
    #[test]
    fn cursor_and_reader_agree_on_arbitrary_payloads(
        chars in prop::collection::vec(arb_armored_char(), 0..30),
        fill in 0u8..8,
        script in arb_script(),
    ) {
        let payload: String = chars.into_iter().collect();
        let cursor = BitCursor::new(payload.as_bytes(), fill);
        let reader = BitReader::from_payload(&payload, fill);
        prop_assert_eq!(cursor.is_some(), reader.is_some());
        let (Some(mut cursor), Some(mut reader)) = (cursor, reader) else { return Ok(()); };
        prop_assert_eq!(cursor.remaining(), reader.remaining());
        for (kind, width) in script {
            match kind {
                0 => prop_assert_eq!(cursor.get_u32(width), reader.get_u32(width)),
                1 => prop_assert_eq!(cursor.get_i32(width), reader.get_i32(width)),
                _ => prop_assert_eq!(cursor.skip(width), reader.skip(width)),
            }
            prop_assert_eq!(cursor.remaining(), reader.remaining());
        }
    }

    /// Corrupting one byte of a valid payload never makes the two decoders
    /// disagree — the fast path rejects exactly what the reference rejects.
    #[test]
    fn corrupted_payload_bytes_decode_identically(
        fixture in 0usize..5,
        pos_frac in 0.0f64..1.0,
        byte in 0u8..128,
    ) {
        let report = golden_reports()[fixture];
        let sentence = encode_report(&report);
        let parsed = nmea::parse_sentence(&sentence).unwrap();
        let mut bytes = parsed.payload.into_bytes();
        prop_assert!(!bytes.is_empty());
        let idx = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[idx] = byte;
        let Ok(payload) = String::from_utf8(bytes) else { return Ok(()); };
        assert_identical_decode(&payload, parsed.fill_bits);
    }
}
