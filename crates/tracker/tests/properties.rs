//! Property-based tests for the trajectory detection component.

use maritime_ais::{FleetConfig, FleetSimulator, Mmsi, PositionTuple};
use maritime_geo::{destination, GeoPoint};
use maritime_stream::{Duration, Timestamp};
use maritime_tracker::compression::measure_compression;
use maritime_tracker::synopsis::TrajectorySynopsis;
use maritime_tracker::vessel::VesselTracker;
use maritime_tracker::{Annotation, CriticalPoint, TrackerParams};
use proptest::prelude::*;

/// A random but physically plausible single-vessel trace: piecewise legs
/// with varying speeds/bearings, occasional dwell.
fn arb_trace() -> impl Strategy<Value = Vec<(GeoPoint, Timestamp)>> {
    let leg = (0.0f64..360.0, 0.5f64..20.0, 3usize..25, 20i64..120);
    prop::collection::vec(leg, 1..8).prop_map(|legs| {
        let mut pos = GeoPoint::new(24.0, 38.0);
        let mut t = Timestamp(0);
        let mut out = vec![(pos, t)];
        for (bearing, knots, n, step) in legs {
            let step_m = maritime_geo::knots_to_mps(knots) * step as f64;
            for _ in 0..n {
                pos = destination(pos, bearing, step_m);
                t = t + Duration::secs(step);
                out.push((pos, t));
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn critical_points_are_a_time_ordered_subset_window(trace in arb_trace()) {
        let mut tracker = VesselTracker::new(Mmsi(1), TrackerParams::default());
        let mut cps: Vec<CriticalPoint> = trace
            .iter()
            .flat_map(|(p, t)| tracker.process(*p, *t))
            .collect();
        cps.extend(tracker.finish());
        // Timestamps never exceed the trace horizon and are non-negative.
        let horizon = trace.last().unwrap().1;
        for cp in &cps {
            prop_assert!(cp.timestamp >= Timestamp(0));
            prop_assert!(cp.timestamp <= horizon);
        }
        // Compression never *increases* data: at most one critical point
        // per raw fix plus the durative closers.
        prop_assert!(cps.len() <= trace.len() * 2 + 2);
    }

    #[test]
    fn stop_intervals_are_well_formed(trace in arb_trace()) {
        let mut tracker = VesselTracker::new(Mmsi(1), TrackerParams::default());
        let mut cps: Vec<CriticalPoint> = trace
            .iter()
            .flat_map(|(p, t)| tracker.process(*p, *t))
            .collect();
        cps.extend(tracker.finish());
        // stop_start and stop_end alternate, starts first.
        let mut open = false;
        for cp in &cps {
            match cp.annotation {
                Annotation::StopStart => {
                    prop_assert!(!open, "nested stop start");
                    open = true;
                }
                Annotation::StopEnd { duration, .. } => {
                    prop_assert!(open, "stop end without start");
                    prop_assert!(duration.as_secs() >= 0);
                    open = false;
                }
                _ => {}
            }
        }
        prop_assert!(!open, "unclosed stop after finish()");
    }

    #[test]
    fn processing_is_deterministic(trace in arb_trace()) {
        let run = || {
            let mut tracker = VesselTracker::new(Mmsi(1), TrackerParams::default());
            let mut cps: Vec<CriticalPoint> = trace
                .iter()
                .flat_map(|(p, t)| tracker.process(*p, *t))
                .collect();
            cps.extend(tracker.finish());
            cps.iter()
                .map(|c| (c.timestamp, c.annotation.label()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn synopsis_interpolation_is_bounded_by_trace_extent(trace in arb_trace()) {
        let mut tracker = VesselTracker::new(Mmsi(1), TrackerParams::default());
        let mut cps: Vec<CriticalPoint> = trace
            .iter()
            .flat_map(|(p, t)| tracker.process(*p, *t))
            .collect();
        cps.extend(tracker.finish());
        let synopsis = TrajectorySynopsis::new(cps);
        if synopsis.is_empty() {
            return Ok(());
        }
        let bbox = maritime_geo::BoundingBox::around(
            &synopsis.polyline(),
        ).unwrap().inflated(1e-9);
        // Interpolated positions stay within the synopsis bounding box
        // (linear interpolation cannot extrapolate).
        for probe in (0..=trace.last().unwrap().1.as_secs()).step_by(97) {
            let p = synopsis.position_at(Timestamp(probe)).unwrap();
            prop_assert!(bbox.contains(p), "{p:?} outside {bbox:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fleet_compression_ratio_in_unit_range_and_counts_conserve(seed in any::<u64>()) {
        let sim = FleetSimulator::new(FleetConfig { vessels: 5, ..FleetConfig::tiny(seed) });
        let stream: Vec<PositionTuple> = sim
            .generate()
            .into_iter()
            .map(PositionTuple::from)
            .collect();
        let (report, critical) = measure_compression(&stream, TrackerParams::default());
        prop_assert!((0.0..=1.0).contains(&report.ratio));
        prop_assert_eq!(report.raw_positions as usize, stream.len());
        prop_assert_eq!(report.critical_points as usize, critical.len());
        // Per-vessel counts conserve.
        let raw_sum: u64 = report.per_vessel.values().map(|(r, _)| *r).sum();
        prop_assert_eq!(raw_sum, report.raw_positions);
    }
}
