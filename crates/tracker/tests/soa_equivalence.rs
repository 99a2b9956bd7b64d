//! Differential property: tracking over the struct-of-arrays history ring
//! is observationally identical across serial and sharded execution.
//!
//! The [`HistoryRing`] caches pair distances and sums them instead of
//! re-walking the fix deque with fresh Haversine evaluations; its module
//! proptest already pins the mean-speed value bit for bit. This suite
//! closes the loop at the *output* level: across random multi-vessel
//! voyages, the serial windowed tracker and the [`ShardedTracker`] at
//! 1, 2, 4, and 8 shards must produce byte-identical critical-point streams
//! under JSON serialization — the same oracle as the fixed-fleet
//! `tests/sharded_equivalence.rs`, here over arbitrary trajectories.
//!
//! [`HistoryRing`]: maritime_tracker::history::HistoryRing
//! [`ShardedTracker`]: maritime_tracker::ShardedTracker

use maritime_ais::{Mmsi, PositionTuple};
use maritime_geo::{destination, knots_to_mps, GeoPoint};
use maritime_stream::{Duration, SlideBatches, Timestamp, WindowSpec};
use maritime_tracker::{
    canonical_order, CriticalPoint, ShardedTracker, TrackerParams, WindowedTracker,
};
use proptest::prelude::*;

/// A random but physically plausible voyage: piecewise legs with varying
/// bearings and speeds, fixed reporting cadence.
fn arb_voyage() -> impl Strategy<Value = Vec<(GeoPoint, Timestamp)>> {
    let leg = (0.0f64..360.0, 0.5f64..20.0, 3usize..20, 20i64..120);
    prop::collection::vec(leg, 1..6).prop_map(|legs| {
        let mut pos = GeoPoint::new(24.0, 38.0);
        let mut t = Timestamp(0);
        let mut out = vec![(pos, t)];
        for (bearing, knots, n, step) in legs {
            let step_m = knots_to_mps(knots) * step as f64;
            for _ in 0..n {
                pos = destination(pos, bearing, step_m);
                t = t + Duration::secs(step);
                out.push((pos, t));
            }
        }
        out
    })
}

/// Interleaves per-vessel voyages into one time-ordered fleet stream.
fn fleet_stream(voyages: Vec<Vec<(GeoPoint, Timestamp)>>) -> Vec<(Timestamp, PositionTuple)> {
    let mut stream: Vec<(Timestamp, PositionTuple)> = voyages
        .into_iter()
        .enumerate()
        .flat_map(|(v, voyage)| {
            let mmsi = Mmsi(237_000_001 + v as u32);
            voyage.into_iter().map(move |(position, timestamp)| {
                (timestamp, PositionTuple { mmsi, position, timestamp })
            })
        })
        .collect();
    stream.sort_by_key(|(t, tuple)| (*t, tuple.mmsi));
    stream
}

fn window() -> WindowSpec {
    WindowSpec::new(Duration::minutes(10), Duration::minutes(5)).unwrap()
}

fn serial_trace(stream: &[(Timestamp, PositionTuple)]) -> String {
    let w = window();
    let mut tracker = WindowedTracker::new(TrackerParams::default(), w);
    let mut fresh: Vec<CriticalPoint> = Vec::new();
    for batch in SlideBatches::new(stream.iter().copied(), w, Timestamp::ZERO) {
        let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
        let mut f = tracker.slide(batch.query_time, &tuples).fresh_critical;
        canonical_order(&mut f);
        fresh.extend(f);
    }
    let (mut last, _residual) = tracker.finish();
    canonical_order(&mut last);
    fresh.extend(last);
    serde_json::to_string(&fresh).unwrap()
}

fn sharded_trace(stream: &[(Timestamp, PositionTuple)], shards: usize) -> String {
    let w = window();
    let mut tracker = ShardedTracker::new(TrackerParams::default(), w, shards);
    let mut fresh: Vec<CriticalPoint> = Vec::new();
    for batch in SlideBatches::new(stream.iter().copied(), w, Timestamp::ZERO) {
        let tuples: Vec<_> = batch.items.iter().map(|(_, t)| *t).collect();
        fresh.extend(tracker.slide(batch.query_time, &tuples).merged.fresh_critical);
    }
    let (last, _residual) = tracker.finish();
    fresh.extend(last);
    serde_json::to_string(&fresh).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_voyages_track_identically_at_any_shard_count(
        voyages in prop::collection::vec(arb_voyage(), 1..6),
    ) {
        let stream = fleet_stream(voyages);
        let serial = serial_trace(&stream);
        for shards in [1usize, 2, 4, 8] {
            let sharded = sharded_trace(&stream, shards);
            prop_assert_eq!(
                &serial, &sharded,
                "critical-point stream diverged at {} shard(s)", shards
            );
        }
    }
}
