//! Struct-of-arrays ring buffer of a vessel's recent accepted fixes.
//!
//! The per-vessel tracker keeps the last `m` positions for the mean-speed
//! query of the off-course outlier test (§3.1). The original layout was a
//! `VecDeque<(GeoPoint, Timestamp)>` that was copied into a scratch `Vec`
//! and re-walked with fresh Haversine evaluations on *every* incoming fix
//! — m−1 trigonometric distance computations plus one allocation per
//! position, the single hottest block of the tracking path. This ring
//! stores the coordinates as parallel arrays (contiguous, cache-friendly)
//! and caches the Haversine distance of each consecutive pair at insertion
//! time, so the mean-speed query is a bounded sum over at most m−1 floats.
//!
//! Bit-exactness: [`HistoryRing::mean_speed_knots`] must return exactly
//! the same `f64` as [`crate::velocity::mean_speed_knots`] over the same
//! logical sequence, because the result feeds threshold comparisons that
//! decide whether a critical point is emitted. The cached step distances
//! are the very values the reference would recompute (Haversine is a pure
//! function of the two endpoints), and they are summed in the same
//! logical order with the same `0.0`-seeded left fold, so the floating-
//! point result is identical bit for bit. A proptest in this module and
//! the golden trace (`tests/golden_trace.rs`) hold this invariant.

use maritime_geo::{haversine_distance_m, mps_to_knots, GeoPoint};
use maritime_stream::Timestamp;

/// Fixed-capacity struct-of-arrays ring of timestamped positions with
/// cached consecutive-pair distances.
#[derive(Debug)]
pub struct HistoryRing {
    lon: Box<[f64]>,
    lat: Box<[f64]>,
    t: Box<[i64]>,
    /// Haversine metres from the logically previous fix to this one;
    /// meaningless (0.0) for the logically first entry.
    step_m: Box<[f64]>,
    /// Physical index of the logically first entry.
    head: usize,
    len: usize,
}

impl HistoryRing {
    /// Creates an empty ring holding at most `cap` fixes.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            lon: vec![0.0; cap].into_boxed_slice(),
            lat: vec![0.0; cap].into_boxed_slice(),
            t: vec![0; cap].into_boxed_slice(),
            step_m: vec![0.0; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Number of retained fixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no fixes are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical slot of the `i`-th logical entry.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let cap = self.t.len();
        let s = self.head + i;
        if s >= cap {
            s - cap
        } else {
            s
        }
    }

    /// The `i`-th logical fix (0 = oldest).
    #[must_use]
    pub fn get(&self, i: usize) -> Option<(GeoPoint, Timestamp)> {
        (i < self.len).then(|| {
            let s = self.slot(i);
            (
                GeoPoint {
                    lon: self.lon[s],
                    lat: self.lat[s],
                },
                Timestamp(self.t[s]),
            )
        })
    }

    /// The most recent fix.
    #[must_use]
    pub fn back(&self) -> Option<(GeoPoint, Timestamp)> {
        self.get(self.len.checked_sub(1)?)
    }

    /// Appends a fix, computing and caching its Haversine distance from
    /// the previous most-recent fix; evicts the oldest when full.
    pub fn push(&mut self, p: GeoPoint, t: Timestamp) {
        let step = match self.back() {
            Some((prev, _)) => haversine_distance_m(prev, p),
            None => 0.0,
        };
        let cap = self.t.len();
        if self.len == cap {
            // Overwrite the oldest slot; the step cache of every retained
            // entry is unaffected (each step belongs to its *own* pair).
            self.head = if self.head + 1 == cap { 0 } else { self.head + 1 };
            self.len -= 1;
        }
        let s = self.slot(self.len);
        self.lon[s] = p.lon;
        self.lat[s] = p.lat;
        self.t[s] = t.0;
        self.step_m[s] = step;
        self.len += 1;
    }

    /// Forgets all retained fixes (the ring stays allocated).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Mean speed over the retained fixes: total along-track distance over
    /// elapsed time, exactly as [`crate::velocity::mean_speed_knots`]
    /// computes it — same pair distances, same summation order — but from
    /// the cached steps instead of m−1 fresh Haversine evaluations.
    #[must_use]
    pub fn mean_speed_knots(&self) -> Option<f64> {
        if self.len < 2 {
            return None;
        }
        let dt = (self.t[self.slot(self.len - 1)] - self.t[self.slot(0)]) as f64;
        if dt <= 0.0 {
            return None;
        }
        let mut dist = 0.0f64;
        for i in 1..self.len {
            dist += self.step_m[self.slot(i)];
        }
        Some(mps_to_knots(dist / dt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::velocity::mean_speed_knots;
    use proptest::prelude::*;

    fn reference(ring: &HistoryRing) -> Option<f64> {
        let track: Vec<_> = (0..ring.len()).map(|i| ring.get(i).unwrap()).collect();
        mean_speed_knots(&track)
    }

    #[test]
    fn empty_and_single_fix_have_no_mean() {
        let mut ring = HistoryRing::new(4);
        assert!(ring.is_empty());
        assert_eq!(ring.mean_speed_knots(), None);
        ring.push(GeoPoint::new(24.0, 37.0), Timestamp(0));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.mean_speed_knots(), None);
        assert_eq!(ring.back().unwrap().1, Timestamp(0));
    }

    #[test]
    fn eviction_keeps_last_cap_fixes() {
        let mut ring = HistoryRing::new(3);
        for i in 0..5 {
            ring.push(GeoPoint::new(24.0 + f64::from(i) * 0.01, 37.0), Timestamp(i64::from(i)));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.get(0).unwrap().1, Timestamp(2));
        assert_eq!(ring.get(2).unwrap().1, Timestamp(4));
        assert_eq!(ring.get(3), None);
    }

    #[test]
    fn clear_resets_without_touching_capacity() {
        let mut ring = HistoryRing::new(3);
        ring.push(GeoPoint::new(24.0, 37.0), Timestamp(0));
        ring.clear();
        assert!(ring.is_empty());
        ring.push(GeoPoint::new(25.0, 38.0), Timestamp(9));
        assert_eq!(ring.get(0).unwrap().1, Timestamp(9));
    }

    #[test]
    fn zero_elapsed_time_has_no_mean() {
        let mut ring = HistoryRing::new(3);
        ring.push(GeoPoint::new(24.0, 37.0), Timestamp(5));
        ring.push(GeoPoint::new(24.1, 37.0), Timestamp(5));
        assert_eq!(ring.mean_speed_knots(), None);
        assert_eq!(reference(&ring), None);
    }

    proptest! {
        /// The cached-step mean must be bit-identical to the reference
        /// recompute across arbitrary pushes, evictions, and clears.
        #[test]
        fn mean_speed_is_bit_identical_to_reference(
            cap in 2usize..12,
            ops in prop::collection::vec(
                (
                    -180.0f64..180.0, -85.0f64..85.0,
                    0i64..10_000, 0u32..20,
                ),
                1..64,
            ),
        ) {
            let mut ring = HistoryRing::new(cap);
            let mut t_acc = 0i64;
            for (lon, lat, dt, clear_roll) in ops {
                // Roughly 1-in-20 operations interleave a clear.
                if clear_roll == 0 {
                    ring.clear();
                }
                t_acc += dt;
                ring.push(GeoPoint::new(lon, lat), Timestamp(t_acc));
                let fast = ring.mean_speed_knots();
                let slow = reference(&ring);
                // Bit-level equality, not approximate: the value feeds
                // threshold comparisons.
                prop_assert_eq!(fast.map(f64::to_bits), slow.map(f64::to_bits));
            }
        }
    }
}
