//! Discrete time model.
//!
//! The paper's positional samples are "measured at discrete, totally ordered
//! timestamps τ (e.g., at the granularity of seconds)" (§2), and RTEC's time
//! model "is linear and includes integer time-points" (§4.1). We therefore
//! use integer seconds throughout.

use serde::{Deserialize, Serialize};

/// A point in stream time: seconds since the start of the monitored period.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub i64);

/// A span of stream time in seconds. Always non-negative by construction
/// from the named constructors.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Duration(pub i64);

impl Timestamp {
    /// The origin of stream time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Seconds since the origin.
    #[must_use]
    pub fn as_secs(self) -> i64 {
        self.0
    }

    /// Time elapsed from `earlier` to `self`; zero if `earlier` is later.
    /// Saturates at `i64::MAX` seconds, so any two wire timestamps are
    /// safe to compare.
    #[must_use]
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0).max(0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// A span of `s` seconds (clamped at zero).
    #[must_use]
    pub fn secs(s: i64) -> Self {
        Self(s.max(0))
    }

    /// A span of `m` minutes.
    #[must_use]
    pub fn minutes(m: i64) -> Self {
        Self::secs(m * 60)
    }

    /// A span of `h` hours.
    #[must_use]
    pub fn hours(h: i64) -> Self {
        Self::secs(h * 3_600)
    }

    /// A span of `d` days.
    #[must_use]
    pub fn days(d: i64) -> Self {
        Self::secs(d * 86_400)
    }

    /// The span in whole seconds.
    #[must_use]
    pub fn as_secs(self) -> i64 {
        self.0
    }

    /// The span in fractional hours (for reporting).
    #[must_use]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// Formats as `Dd HH:MM:SS`, matching the paper's Table 4 presentation
    /// ("Average travel time per trip: 1 day 07:20:58").
    #[must_use]
    pub fn to_dhms(self) -> String {
        let total = self.0;
        let days = total / 86_400;
        let h = (total % 86_400) / 3_600;
        let m = (total % 3_600) / 60;
        let s = total % 60;
        if days > 0 {
            format!("{days}d {h:02}:{m:02}:{s:02}")
        } else {
            format!("{h:02}:{m:02}:{s:02}")
        }
    }
}

/// Saturates at the ends of `i64` rather than wrapping: event time comes
/// off the wire and may be any `i64`.
impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

/// Saturates like `Timestamp + Duration`.
impl std::ops::Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        self.since(rhs)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = Timestamp(100) + Duration::secs(50);
        assert_eq!(t, Timestamp(150));
        assert_eq!(t - Duration::secs(150), Timestamp::ZERO);
        assert_eq!(
            Timestamp(i64::MIN + 1) - Duration::secs(10),
            Timestamp(i64::MIN)
        );
        assert_eq!(
            Timestamp(i64::MAX) + Duration::secs(10),
            Timestamp(i64::MAX)
        );
    }

    #[test]
    fn since_is_saturating() {
        assert_eq!(Timestamp(10).since(Timestamp(100)), Duration::ZERO);
        assert_eq!(Timestamp(100).since(Timestamp(10)), Duration::secs(90));
        assert_eq!(Timestamp(i64::MAX).since(Timestamp(-5)), Duration(i64::MAX));
        assert_eq!(Timestamp(i64::MIN).since(Timestamp(5)), Duration::ZERO);
    }

    #[test]
    fn constructors_convert_units() {
        assert_eq!(Duration::minutes(2), Duration::secs(120));
        assert_eq!(Duration::hours(1), Duration::secs(3_600));
        assert_eq!(Duration::days(1), Duration::hours(24));
    }

    #[test]
    fn negative_secs_clamped_to_zero() {
        assert_eq!(Duration::secs(-5), Duration::ZERO);
    }

    #[test]
    fn dhms_formatting_matches_table4_style() {
        let d = Duration::days(1) + Duration::hours(7) + Duration::minutes(20) + Duration::secs(58);
        assert_eq!(d.to_dhms(), "1d 07:20:58");
        assert_eq!(Duration::secs(59).to_dhms(), "00:00:59");
        assert_eq!(Duration::hours(2).to_dhms(), "02:00:00");
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = vec![Timestamp(5), Timestamp(1), Timestamp(3)];
        ts.sort();
        assert_eq!(ts, vec![Timestamp(1), Timestamp(3), Timestamp(5)]);
    }

    #[test]
    fn hours_f64() {
        assert!((Duration::minutes(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }
}
