//! Property-based tests for the maritime recognizer.

use maritime_ais::Mmsi;
use maritime_cer::recognizer::summarize;
use maritime_cer::{
    CoordinatedRecognizer, GeoPartitioner, InputEvent, InputKind, Knowledge, MaritimeRecognizer,
    SpatialMode, VesselInfo,
};
use maritime_geo::{Area, AreaId, AreaKind, GeoPoint, Polygon};
use maritime_rtec::{Duration, Timestamp, WindowSpec};
use proptest::prelude::*;

fn areas() -> Vec<Area> {
    vec![
        Area::new(
            AreaId(0),
            "west-park",
            AreaKind::Protected,
            Polygon::rectangle(GeoPoint::new(21.0, 37.0), GeoPoint::new(21.4, 37.4)),
        ),
        Area::new(
            AreaId(1),
            "east-bank",
            AreaKind::ForbiddenFishing,
            Polygon::rectangle(GeoPoint::new(26.0, 38.0), GeoPoint::new(26.4, 38.4)),
        ),
        Area::new(
            AreaId(2),
            "shoal",
            AreaKind::Shallow { depth_m: 4.0 },
            Polygon::rectangle(GeoPoint::new(23.0, 39.0), GeoPoint::new(23.4, 39.4)),
        ),
    ]
}

fn vessels() -> Vec<VesselInfo> {
    (0..8)
        .map(|i| VesselInfo {
            mmsi: Mmsi(100 + i),
            draft_m: 3.0 + f64::from(i),
            is_fishing: i % 2 == 0,
        })
        .collect()
}

fn spec() -> WindowSpec {
    WindowSpec::new(Duration::hours(9), Duration::hours(1)).unwrap()
}

/// Arbitrary *physically coherent* ME streams: each vessel operates at a
/// fixed hotspot (vessels do not teleport mid-run, so the paired
/// start/end markers of durative MEs stay co-located).
fn arb_events() -> impl Strategy<Value = Vec<(Timestamp, InputEvent)>> {
    let kind = prop_oneof![
        Just(InputKind::StopStart),
        Just(InputKind::StopEnd),
        Just(InputKind::SlowMotionStart),
        Just(InputKind::SlowMotionEnd),
        Just(InputKind::GapStart),
        Just(InputKind::GapEnd),
        Just(InputKind::SpeedChange),
        Just(InputKind::Turn),
    ];
    fn hotspot_of(vessel: u32) -> GeoPoint {
        match vessel % 4 {
            0 => GeoPoint::new(21.2, 37.2), // inside the protected area
            1 => GeoPoint::new(26.2, 38.2), // inside the fishing ban
            2 => GeoPoint::new(23.2, 39.2), // on the shoal
            _ => GeoPoint::new(24.5, 36.5), // open sea
        }
    }
    prop::collection::vec((0i64..30_000, 0u32..8, kind), 0..60).prop_map(|items| {
        let mut v: Vec<(Timestamp, InputEvent)> = items
            .into_iter()
            .map(|(t, vi, kind)| {
                (
                    Timestamp(t),
                    InputEvent {
                        mmsi: Mmsi(100 + vi),
                        kind,
                        position: hotspot_of(vi),
                        close_areas: None,
                    },
                )
            })
            .collect();
        v.sort_by_key(|(t, e)| (*t, e.mmsi));
        v
    })
}

fn run(events: &[(Timestamp, InputEvent)], mode: SpatialMode) -> (usize, usize, usize) {
    let mut events = events.to_vec();
    if mode == SpatialMode::Precomputed {
        let kb = Knowledge::standard(vessels(), areas());
        maritime_cer::spatial::annotate_with_spatial_facts(&mut events, &kb);
    }
    let kb = Knowledge::new(vessels(), areas(), 2_000.0, mode);
    let mut r = MaritimeRecognizer::new(kb, spec());
    r.add_events(events);
    let s = r.recognize_and_summarize(Timestamp(30_000));
    (s.ce_count, s.suspicious.len(), s.alerts.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recognition_is_deterministic(events in arb_events()) {
        prop_assert_eq!(
            run(&events, SpatialMode::OnDemand),
            run(&events, SpatialMode::OnDemand)
        );
    }

    #[test]
    fn spatial_modes_agree(events in arb_events()) {
        let a = run(&events, SpatialMode::OnDemand);
        let b = run(&events, SpatialMode::OnDemandIndexed);
        let c = run(&events, SpatialMode::Precomputed);
        prop_assert_eq!(a, b, "linear vs indexed diverged");
        prop_assert_eq!(a, c, "on-demand vs precomputed diverged");
    }

    #[test]
    fn durative_ce_intervals_are_well_formed(events in arb_events()) {
        let kb = Knowledge::standard(vessels(), areas());
        let mut r = MaritimeRecognizer::new(kb, spec());
        r.add_events(events);
        let s = r.recognize_and_summarize(Timestamp(30_000));
        for (_, il) in s.suspicious.iter().chain(&s.illegal_fishing) {
            for iv in il.intervals() {
                if let Some(u) = iv.until {
                    prop_assert!(u > iv.since, "empty interval {iv:?}");
                }
            }
            // Disjoint and ordered.
            for w in il.intervals().windows(2) {
                prop_assert!(w[0].until.expect("non-final closed") < w[1].since);
            }
        }
    }

    #[test]
    fn suspicious_implies_enough_stopped_vessels(events in arb_events()) {
        use maritime_cer::FluentKey;
        let kb = Knowledge::standard(vessels(), areas());
        let mut r = MaritimeRecognizer::new(kb, spec());
        r.add_events(events);
        let recognition = r.recognize_at(Timestamp(30_000));
        let summary = summarize(&recognition);
        for (area, il) in &summary.suspicious {
            for iv in il.intervals() {
                // Just after the interval starts, at least 4 vessels must
                // be stopped near that area.
                let probe = Timestamp(iv.since.as_secs() + 1);
                let n = recognition
                    .fluents
                    .iter()
                    .filter(|(k, il)| {
                        matches!(k, FluentKey::StoppedNear(_, a) if a == area)
                            && il.holds_at(probe)
                    })
                    .count();
                prop_assert!(n >= 4, "suspicious at {area:?} with only {n} stopped");
            }
        }
    }

    #[test]
    fn partitioned_matches_single(events in arb_events()) {
        let single = run(&events, SpatialMode::OnDemand);
        let mut two = CoordinatedRecognizer::new(
            GeoPartitioner::east_west(),
            &vessels(),
            &areas(),
            2_000.0,
            SpatialMode::OnDemand,
            spec(),
        );
        two.add_events(events);
        let s = two.recognize_and_summarize(Timestamp(30_000));
        prop_assert_eq!((s.ce_count, s.suspicious.len(), s.alerts.len()), single);
    }

    #[test]
    fn alerts_only_from_gap_or_slow_motion(events in arb_events()) {
        use maritime_cer::AlertKind;
        let kb = Knowledge::standard(vessels(), areas());
        let mut r = MaritimeRecognizer::new(kb, spec());
        r.add_events(events.clone());
        let s = r.recognize_and_summarize(Timestamp(30_000));
        for (at, alert) in &s.alerts {
            // Every alert must be backed by a triggering input event of the
            // right kind from the right vessel at the same time.
            let expected_kind = match alert.kind {
                AlertKind::IllegalShipping => InputKind::GapStart,
                AlertKind::DangerousShipping => InputKind::SlowMotionStart,
            };
            prop_assert!(
                events.iter().any(|(t, e)| *t == *at
                    && e.mmsi == alert.vessel
                    && e.kind == expected_kind),
                "alert {alert:?} at {at:?} has no backing event"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn balanced_partitioner_boundaries_ascend(
        events in arb_events(),
        n in 1usize..9,
    ) {
        let p = GeoPartitioner::balanced(n, &events);
        for w in p.boundaries().windows(2) {
            prop_assert!(w[0] <= w[1], "boundaries out of order: {:?}", p.boundaries());
        }
        for b in p.boundaries() {
            prop_assert!(b.is_finite());
        }
    }

    #[test]
    fn balanced_partitioner_routes_every_event_exactly_once(
        events in arb_events(),
        n in 1usize..9,
    ) {
        let p = GeoPartitioner::balanced(n, &events);
        let routed = p.route_events(&events);
        prop_assert_eq!(routed.len(), p.partitions());
        let total: usize = routed.iter().map(Vec::len).sum();
        prop_assert_eq!(total, events.len(), "events dropped or duplicated");
        // Each event landed in the band its longitude indexes to.
        for (band, batch) in routed.iter().enumerate() {
            for (_, e) in batch {
                prop_assert_eq!(p.index_of(e.position.lon), band);
            }
        }
    }

    #[test]
    fn balanced_partition_count_is_consistent(
        events in arb_events(),
        n in 1usize..9,
    ) {
        let p = GeoPartitioner::balanced(n, &events);
        // `balanced` may merge bands only when the sample is empty;
        // otherwise it must produce exactly the requested count.
        if events.is_empty() {
            prop_assert_eq!(p.partitions(), 1);
        } else {
            prop_assert_eq!(p.partitions(), n);
        }
        prop_assert_eq!(p.partitions(), p.boundaries().len() + 1);
        prop_assert_eq!(p.route_areas(&areas()).len(), p.partitions());
        // index_of never escapes the band range, even at the extremes.
        for lon in [-180.0, -1.0, 0.0, 24.7, 179.9] {
            prop_assert!(p.index_of(lon) < p.partitions());
        }
    }
}
