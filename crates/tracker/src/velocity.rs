//! Instantaneous velocity vectors.
//!
//! "In order to identify significant changes in movement, [the system]
//! first computes the instantaneous velocity vector v_now from the two most
//! recent positions reported by each vessel" (§3.1). Linear interpolation
//! between consecutive fixes is assumed (footnote 2), with Haversine
//! distances in the locally Euclidean plane.

use maritime_geo::{haversine_distance_m, initial_bearing_deg, mps_to_knots, GeoPoint};
use maritime_stream::Timestamp;
use serde::{Deserialize, Serialize};

/// A velocity vector: speed plus heading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VelocityVector {
    /// Speed in knots.
    pub speed_knots: f64,
    /// Heading in degrees clockwise from true north, `[0, 360)`.
    pub heading_deg: f64,
}

impl VelocityVector {
    /// Velocity implied by moving from `(p1, t1)` to `(p2, t2)`.
    ///
    /// Returns `None` when `t2 <= t1`: a zero or negative time base cannot
    /// define a velocity (duplicate or out-of-order fix).
    #[must_use]
    pub fn between(p1: GeoPoint, t1: Timestamp, p2: GeoPoint, t2: Timestamp) -> Option<Self> {
        let dt = t2.since(t1).as_secs() as f64;
        if dt <= 0.0 {
            return None;
        }
        let dist = haversine_distance_m(p1, p2);
        Some(Self {
            speed_knots: mps_to_knots(dist / dt),
            heading_deg: initial_bearing_deg(p1, p2),
        })
    }

    /// A vessel at rest (zero speed, heading north by convention).
    #[must_use]
    pub fn stationary() -> Self {
        Self {
            speed_knots: 0.0,
            heading_deg: 0.0,
        }
    }

    /// Relative speed deviation `|v_now − v_prev| / v_now` — the left side
    /// of the speed-change test of §3.1. `None` when `self` is (near) zero
    /// speed, where the ratio is undefined; pause detection covers that
    /// regime instead.
    #[must_use]
    pub fn relative_speed_change(self, prev: VelocityVector) -> Option<f64> {
        if self.speed_knots.abs() < 1e-9 {
            return None;
        }
        Some(((self.speed_knots - prev.speed_knots) / self.speed_knots).abs())
    }

    /// Unsigned heading difference from `prev`, in `[0, 180]` degrees.
    #[must_use]
    pub fn heading_change_deg(self, prev: VelocityVector) -> f64 {
        maritime_geo::angle_diff_deg(self.heading_deg, prev.heading_deg)
    }
}

/// Mean speed in knots over a sequence of timestamped positions: total
/// along-track distance divided by elapsed time. Abstraction of the "mean
/// velocity v_m of the ship over its previous m positions" used by the
/// off-course outlier test. `None` for fewer than two points or zero
/// elapsed time.
#[must_use]
pub fn mean_speed_knots(track: &[(GeoPoint, Timestamp)]) -> Option<f64> {
    if track.len() < 2 {
        return None;
    }
    let dt = (track.last()?.1.as_secs() - track.first()?.1.as_secs()) as f64;
    if dt <= 0.0 {
        return None;
    }
    let dist: f64 = track
        .windows(2)
        .map(|w| haversine_distance_m(w[0].0, w[1].0))
        .sum();
    Some(mps_to_knots(dist / dt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_geo::destination;

    #[test]
    fn between_computes_speed_and_heading() {
        let p1 = GeoPoint::new(24.0, 37.0);
        // 10 knots due east for 60 s: 10 kn = 5.144 m/s -> 308.7 m.
        let p2 = destination(p1, 90.0, maritime_geo::knots_to_mps(10.0) * 60.0);
        let v = VelocityVector::between(p1, Timestamp(0), p2, Timestamp(60)).unwrap();
        assert!((v.speed_knots - 10.0).abs() < 0.05, "{}", v.speed_knots);
        assert!((v.heading_deg - 90.0).abs() < 0.5, "{}", v.heading_deg);
    }

    #[test]
    fn between_rejects_non_positive_dt() {
        let p = GeoPoint::new(24.0, 37.0);
        assert!(VelocityVector::between(p, Timestamp(10), p, Timestamp(10)).is_none());
        assert!(VelocityVector::between(p, Timestamp(10), p, Timestamp(5)).is_none());
    }

    #[test]
    fn stationary_vessel_zero_speed() {
        let p = GeoPoint::new(24.0, 37.0);
        let v = VelocityVector::between(p, Timestamp(0), p, Timestamp(60)).unwrap();
        assert_eq!(v.speed_knots, 0.0);
    }

    #[test]
    fn relative_speed_change_matches_formula() {
        let now = VelocityVector { speed_knots: 8.0, heading_deg: 0.0 };
        let prev = VelocityVector { speed_knots: 10.0, heading_deg: 0.0 };
        // |8-10|/8 = 0.25
        assert!((now.relative_speed_change(prev).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn relative_speed_change_undefined_at_zero() {
        let now = VelocityVector::stationary();
        let prev = VelocityVector { speed_knots: 10.0, heading_deg: 0.0 };
        assert!(now.relative_speed_change(prev).is_none());
    }

    #[test]
    fn heading_change_wraps() {
        let a = VelocityVector { speed_knots: 5.0, heading_deg: 350.0 };
        let b = VelocityVector { speed_knots: 5.0, heading_deg: 10.0 };
        assert!((a.heading_change_deg(b) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn mean_speed_over_straight_track() {
        let p0 = GeoPoint::new(24.0, 37.0);
        let step = maritime_geo::knots_to_mps(12.0) * 30.0;
        let track: Vec<_> = (0..5)
            .map(|i| (destination(p0, 45.0, step * i as f64), Timestamp(i * 30)))
            .collect();
        let v = mean_speed_knots(&track).unwrap();
        assert!((v - 12.0).abs() < 0.1, "{v}");
    }

    #[test]
    fn mean_speed_needs_two_points_and_time() {
        assert!(mean_speed_knots(&[]).is_none());
        assert!(mean_speed_knots(&[(GeoPoint::new(0.0, 0.0), Timestamp(0))]).is_none());
        assert!(mean_speed_knots(&[
            (GeoPoint::new(0.0, 0.0), Timestamp(5)),
            (GeoPoint::new(0.1, 0.0), Timestamp(5)),
        ])
        .is_none());
    }
}
