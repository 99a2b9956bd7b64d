//! The fleet-level Mobility Tracker of Figure 1.
//!
//! "Working entirely in main memory and without any index support, the
//! Mobility Tracker checks when and how velocity changes with time" (§2).
//! It maintains one [`VesselTracker`] per MMSI and fans incoming positional
//! tuples out to them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use maritime_ais::{Mmsi, PositionTuple};
use maritime_obs::{names, LazyCounter};
use maritime_stream::Timestamp;

use crate::events::CriticalPoint;
use crate::params::TrackerParams;
use crate::vessel::{VesselStats, VesselTracker};

/// Finalizer-style hasher for `Mmsi` keys (splitmix64). MMSIs are
/// nine-digit identifiers already spread over their domain, and the fleet
/// map is probed once per position — DoS-resistant SipHash buys nothing
/// here and costs measurably on the hot path. Safe for determinism:
/// everything that iterates the vessel map ([`MobilityTracker::sweep_gaps`],
/// [`MobilityTracker::finish`]) sorts by MMSI first, and the stats sums
/// are order-independent.
#[derive(Debug, Default, Clone, Copy)]
pub struct MmsiHasher(u64);

impl Hasher for MmsiHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not taken by `Mmsi`, whose derived Hash writes one
        // u32): FNV-1a fold.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        let mut x = self.0 ^ u64::from(v);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash-state builder for the fleet map.
pub type MmsiHashBuilder = BuildHasherDefault<MmsiHasher>;

/// Global tracking metrics (see `OBSERVABILITY.md`). Counters sum across
/// every live tracker in the process.
static OBS_INGESTED: LazyCounter = LazyCounter::new(names::TRACKER_POINTS_INGESTED);
static OBS_CRITICAL: LazyCounter = LazyCounter::new(names::TRACKER_CRITICAL_POINTS);

/// Aggregated counters across the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Vessels seen so far.
    pub vessels: usize,
    /// Raw positional tuples processed.
    pub raw: u64,
    /// Critical points emitted.
    pub critical: u64,
    /// Off-course positions discarded.
    pub outliers: u64,
    /// Stale tuples ignored.
    pub stale: u64,
}

impl FleetStats {
    /// The compression ratio: fraction of raw positions *not* retained as
    /// critical points ("A compression ratio close to 1 signifies stronger
    /// data reduction", §5.1). 0.0 for an empty stream.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.raw == 0 {
            0.0
        } else {
            1.0 - self.critical as f64 / self.raw as f64
        }
    }
}

/// The fleet-level mobility tracker.
#[derive(Debug)]
pub struct MobilityTracker {
    params: TrackerParams,
    vessels: HashMap<Mmsi, VesselTracker, MmsiHashBuilder>,
}

impl MobilityTracker {
    /// Creates a tracker for a fleet with the given parameters.
    #[must_use]
    pub fn new(params: TrackerParams) -> Self {
        Self {
            params,
            vessels: HashMap::default(),
        }
    }

    /// The tracker's parameters.
    #[must_use]
    pub fn params(&self) -> TrackerParams {
        self.params
    }

    /// Processes one positional tuple.
    pub fn process(&mut self, tuple: PositionTuple) -> Vec<CriticalPoint> {
        OBS_INGESTED.inc();
        let out = self
            .vessel_mut(tuple.mmsi)
            .process(tuple.position, tuple.timestamp);
        OBS_CRITICAL.add(out.len() as u64);
        out
    }

    /// Processes one positional tuple, appending its critical points to
    /// `out` — the allocation-free form of [`MobilityTracker::process`]
    /// for callers that reuse one buffer across a batch.
    pub fn process_into(&mut self, tuple: PositionTuple, out: &mut Vec<CriticalPoint>) {
        OBS_INGESTED.inc();
        let before = out.len();
        self.vessel_mut(tuple.mmsi)
            .process_into(tuple.position, tuple.timestamp, out);
        OBS_CRITICAL.add((out.len() - before) as u64);
    }

    /// Processes a time-ordered batch, concatenating all critical points in
    /// detection order.
    pub fn process_batch<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a PositionTuple>,
    ) -> Vec<CriticalPoint> {
        let mut out = Vec::new();
        self.process_batch_into(tuples, &mut out);
        out
    }

    /// Processes a time-ordered batch, appending all critical points to
    /// `out` in detection order. With a buffer grown to the batch
    /// high-water mark, steady-state batches perform no tracker-side heap
    /// allocation.
    pub fn process_batch_into<'a>(
        &mut self,
        tuples: impl IntoIterator<Item = &'a PositionTuple>,
        out: &mut Vec<CriticalPoint>,
    ) {
        let before = out.len();
        let mut admitted = 0u64;
        for t in tuples {
            admitted += 1;
            self.vessel_mut(t.mmsi)
                .process_into(t.position, t.timestamp, out);
        }
        OBS_INGESTED.add(admitted);
        OBS_CRITICAL.add((out.len() - before) as u64);
    }

    /// Checks every tracked vessel for a communication gap at time `now`:
    /// vessels silent for more than ΔT whose gap has not yet been reported
    /// emit a [`crate::events::Annotation::GapStart`]. A vessel that never
    /// reports again would otherwise never trigger its gap, since gaps are
    /// normally detected on the *next* fix — exactly the case that matters
    /// for scenario 3 of §4.1, where the transmitter stays off.
    pub fn sweep_gaps(&mut self, now: Timestamp) -> Vec<CriticalPoint> {
        let mut out = Vec::new();
        let mut vessels: Vec<_> = self.vessels.values_mut().collect();
        vessels.sort_by_key(|v| v.mmsi());
        for v in vessels {
            v.sweep_gap_into(now, &mut out);
        }
        OBS_CRITICAL.add(out.len() as u64);
        out
    }

    /// Flushes open durative states for every vessel (end of stream).
    pub fn finish(&mut self) -> Vec<CriticalPoint> {
        let mut out = Vec::new();
        let mut vessels: Vec<_> = self.vessels.values_mut().collect();
        vessels.sort_by_key(|v| v.mmsi());
        for v in vessels {
            v.finish_into(&mut out);
        }
        OBS_CRITICAL.add(out.len() as u64);
        out
    }

    /// Counters aggregated across the fleet.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats {
            vessels: self.vessels.len(),
            ..FleetStats::default()
        };
        for v in self.vessels.values() {
            let VesselStats { raw, critical, outliers, stale } = v.stats();
            s.raw += raw;
            s.critical += critical;
            s.outliers += outliers;
            s.stale += stale;
        }
        s
    }

    /// Number of vessels seen so far (O(1), unlike [`Self::stats`]).
    #[must_use]
    pub fn vessel_count(&self) -> usize {
        self.vessels.len()
    }

    /// Access to a single vessel's tracker, if seen.
    #[must_use]
    pub fn vessel(&self, mmsi: Mmsi) -> Option<&VesselTracker> {
        self.vessels.get(&mmsi)
    }

    fn vessel_mut(&mut self, mmsi: Mmsi) -> &mut VesselTracker {
        let params = self.params;
        self.vessels
            .entry(mmsi)
            .or_insert_with(|| VesselTracker::new(mmsi, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_ais::replay::to_tuple_stream;
    use maritime_ais::{FleetConfig, FleetSimulator};

    #[test]
    fn tracks_multiple_vessels_independently() {
        let mut tracker = MobilityTracker::new(TrackerParams::default());
        let a = PositionTuple {
            mmsi: Mmsi(1),
            position: maritime_geo::GeoPoint::new(24.0, 37.0),
            timestamp: Timestamp(0),
        };
        let b = PositionTuple {
            mmsi: Mmsi(2),
            position: maritime_geo::GeoPoint::new(25.0, 38.0),
            timestamp: Timestamp(0),
        };
        let cps = tracker.process_batch([&a, &b]);
        // Each vessel gets its own TrackStart.
        assert_eq!(cps.len(), 2);
        assert_eq!(tracker.stats().vessels, 2);
    }

    #[test]
    fn fleet_compression_on_synthetic_stream() {
        let sim = FleetSimulator::new(FleetConfig::tiny(21));
        let reports = sim.generate();
        let stream = to_tuple_stream(&reports);
        let mut tracker = MobilityTracker::new(TrackerParams::default());
        for (_, tuple) in &stream {
            tracker.process(*tuple);
        }
        tracker.finish();
        let stats = tracker.stats();
        assert_eq!(stats.raw as usize, stream.len());
        assert!(stats.critical > 0);
        let ratio = stats.compression_ratio();
        // The paper reports ~94%; synthetic noise levels may vary the exact
        // figure, but compression must be strong.
        assert!(ratio > 0.6, "compression ratio {ratio}");
    }

    #[test]
    fn finish_is_deterministic_order() {
        let sim = FleetSimulator::new(FleetConfig::tiny(22));
        let reports = sim.generate();
        let run = |reports: &[maritime_ais::PositionReport]| {
            let mut tracker = MobilityTracker::new(TrackerParams::default());
            for r in reports {
                tracker.process(PositionTuple::from(*r));
            }
            tracker.finish()
        };
        let a = run(&reports);
        let b = run(&reports);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mmsi, y.mmsi);
            assert_eq!(x.timestamp, y.timestamp);
        }
    }

    #[test]
    fn empty_stream_stats() {
        let tracker = MobilityTracker::new(TrackerParams::default());
        let s = tracker.stats();
        assert_eq!(s.raw, 0);
        assert_eq!(s.compression_ratio(), 0.0);
    }
}
