//! Property-based tests for the AIS codec and scanner.

use maritime_ais::nmea::{decode_payload, encode_report, parse_sentence};
use maritime_ais::sixbit::{BitCursor, BitWriter};
use maritime_ais::{AisMessageType, DataScanner, Mmsi, PositionReport};
use maritime_geo::GeoPoint;
use maritime_stream::Timestamp;
use proptest::prelude::*;

fn arb_msg_type() -> impl Strategy<Value = AisMessageType> {
    prop_oneof![
        Just(AisMessageType::PositionReportClassA),
        Just(AisMessageType::PositionReportClassAAssigned),
        Just(AisMessageType::PositionReportClassAResponse),
        Just(AisMessageType::StandardClassB),
        Just(AisMessageType::ExtendedClassB),
    ]
}

fn arb_report() -> impl Strategy<Value = PositionReport> {
    (
        0u32..=Mmsi::MAX,
        arb_msg_type(),
        -179.9f64..179.9,
        -89.9f64..89.9,
        prop::option::of(0.0f64..102.0),
        prop::option::of(0.0f64..359.9),
        0i64..100_000,
    )
        .prop_map(|(mmsi, ty, lon, lat, sog, cog, t)| PositionReport {
            mmsi: Mmsi(mmsi),
            msg_type: ty,
            position: GeoPoint::new(lon, lat),
            sog_knots: sog,
            cog_deg: cog,
            timestamp: Timestamp(t),
        })
}

proptest! {
    #[test]
    fn nmea_roundtrip_preserves_semantics(report in arb_report()) {
        let sentence = encode_report(&report);
        let parsed = parse_sentence(&sentence).unwrap();
        let decoded = decode_payload(&parsed.payload, parsed.fill_bits, report.timestamp).unwrap();
        prop_assert_eq!(decoded.mmsi, report.mmsi);
        prop_assert_eq!(decoded.msg_type, report.msg_type);
        // Wire resolution: 1/10000 arc-minute for coordinates, 0.1 kn /
        // 0.1 deg for SOG/COG.
        prop_assert!((decoded.position.lon - report.position.lon).abs() < 2e-6 + 1e-9);
        prop_assert!((decoded.position.lat - report.position.lat).abs() < 2e-6 + 1e-9);
        match (decoded.sog_knots, report.sog_knots) {
            (Some(d), Some(o)) => prop_assert!((d - o.min(102.2)).abs() <= 0.051),
            (None, None) => {}
            other => prop_assert!(false, "sog mismatch {other:?}"),
        }
        match (decoded.cog_deg, report.cog_deg) {
            (Some(d), Some(o)) => prop_assert!((d - o).abs() <= 0.051),
            (None, None) => {}
            other => prop_assert!(false, "cog mismatch {other:?}"),
        }
    }

    #[test]
    fn scanner_never_accepts_single_char_corruption(
        report in arb_report(), pos_seed in any::<usize>(), new_char in any::<u8>()
    ) {
        // Flip exactly one character of the sentence (anywhere before the
        // checksum): the scanner must either reject it, or — if the flip
        // hit a comma-separated field boundary producing another valid
        // framing — still never produce a *wrong* position silently. We
        // assert rejection, which holds because the XOR checksum detects
        // every single-character change unless the replacement equals the
        // original.
        let sentence = encode_report(&report);
        let star = sentence.rfind('*').unwrap();
        let idx = 1 + pos_seed % (star - 1); // skip the leading '!'
        let mut bytes = sentence.clone().into_bytes();
        let replacement = if new_char == bytes[idx] { new_char ^ 1 } else { new_char };
        bytes[idx] = replacement;
        let Ok(corrupted) = String::from_utf8(bytes) else {
            return Ok(()); // non-UTF8 corruption: parse_sentence can't even see it
        };
        let mut scanner = DataScanner::new();
        let out = scanner.scan(&corrupted, Timestamp(0));
        prop_assert!(out.is_none(), "accepted corrupted sentence {corrupted:?}");
    }

    #[test]
    fn bitfields_roundtrip(fields in prop::collection::vec((any::<u32>(), 1usize..=32), 1..20)) {
        let mut w = BitWriter::new();
        for (value, width) in &fields {
            let masked = if *width == 32 { *value } else { value & ((1 << width) - 1) };
            w.put_u32(masked, *width);
        }
        let (payload, fill) = w.finish();
        let mut r = BitCursor::new(payload.as_bytes(), fill).unwrap();
        for (value, width) in &fields {
            let masked = if *width == 32 { *value } else { value & ((1 << width) - 1) };
            prop_assert_eq!(r.get_u32(*width), Some(masked));
        }
    }

    #[test]
    fn signed_bitfields_roundtrip(
        fields in prop::collection::vec((any::<i32>(), 2usize..=32), 1..20)
    ) {
        let mut w = BitWriter::new();
        let clamped: Vec<(i32, usize)> = fields
            .iter()
            .map(|(v, width)| {
                let lo = -(1i64 << (width - 1));
                let hi = (1i64 << (width - 1)) - 1;
                (((*v as i64).clamp(lo, hi)) as i32, *width)
            })
            .collect();
        for (v, width) in &clamped {
            w.put_i32(*v, *width);
        }
        let (payload, fill) = w.finish();
        let mut r = BitCursor::new(payload.as_bytes(), fill).unwrap();
        for (v, width) in &clamped {
            prop_assert_eq!(r.get_i32(*width), Some(*v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fleet_simulation_is_seed_deterministic(seed in any::<u64>()) {
        use maritime_ais::{FleetConfig, FleetSimulator};
        let cfg = FleetConfig { vessels: 4, ..FleetConfig::tiny(seed) };
        let a = FleetSimulator::new(cfg.clone()).generate();
        let b = FleetSimulator::new(cfg).generate();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.timestamp, y.timestamp);
            prop_assert_eq!(x.mmsi, y.mmsi);
            prop_assert_eq!(x.position, y.position);
        }
    }
}
