//! Critical points and movement-event annotations.
//!
//! "Thus, critical points are emitted from each long-lasting event.
//! Provided that they do not qualify for outliers, instantaneous events for
//! speed change or isolated turns also contribute to critical points"
//! (§3.1). Each critical point is annotated with the movement event that
//! produced it; the annotated stream is both the compressed trajectory
//! representation and the input of the complex event recognition module.

use maritime_ais::Mmsi;
use maritime_geo::GeoPoint;
use maritime_stream::{Duration, Timestamp};
use serde::{Deserialize, Serialize};

/// The movement event a critical point is annotated with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Annotation {
    /// First fix ever received from the vessel: anchors the trajectory.
    TrackStart,
    /// Last fix of the stream (emitted on flush): anchors the trajectory's
    /// tail so reconstruction covers the final leg.
    TrackEnd,
    /// Communication gap started: the vessel fell silent for more than ΔT.
    /// Emitted at the last position seen before the silence.
    GapStart,
    /// Communication resumed after a gap; emitted at the first new fix.
    GapEnd,
    /// A long-term stop was confirmed: at least `m` consecutive pause/turn
    /// events inside a circle of radius `r`. Emitted at the start of the
    /// immobility period.
    StopStart,
    /// The long-term stop ended. Carries the centroid of the stop cluster
    /// and the total duration — the paper's single-point representation
    /// ("collectively approximated by a single critical point (their
    /// centroid) with their total duration").
    StopEnd {
        /// Centroid of the stop cluster.
        centroid: GeoPoint,
        /// Total immobility duration.
        duration: Duration,
    },
    /// Slow motion confirmed over the last `m` messages; emitted at the
    /// median position of those messages.
    SlowMotionStart,
    /// Slow motion ended (speed recovered or a stop took over).
    SlowMotionEnd,
    /// Instantaneous change in speed beyond α (acceleration/deceleration).
    SpeedChange {
        /// Previously observed speed, knots.
        prev_knots: f64,
        /// Current speed, knots.
        now_knots: f64,
    },
    /// Sharp turn: heading changed by more than Δθ in one step.
    Turn {
        /// Signed heading change in degrees, positive clockwise.
        change_deg: f64,
    },
    /// Smooth turn: cumulative same-direction heading drift across the last
    /// positions exceeded Δθ although no single step did.
    SmoothTurn {
        /// Signed cumulative heading change in degrees.
        cumulative_deg: f64,
    },
}

impl Annotation {
    /// The movement-event kind this annotation maps to in the CER input.
    #[must_use]
    pub fn kind(&self) -> MovementEventKind {
        match self {
            Self::TrackStart => MovementEventKind::TrackStart,
            Self::TrackEnd => MovementEventKind::TrackEnd,
            Self::GapStart | Self::GapEnd => MovementEventKind::Gap,
            Self::StopStart | Self::StopEnd { .. } => MovementEventKind::Stopped,
            Self::SlowMotionStart | Self::SlowMotionEnd => MovementEventKind::SlowMotion,
            Self::SpeedChange { .. } => MovementEventKind::SpeedChange,
            Self::Turn { .. } | Self::SmoothTurn { .. } => MovementEventKind::Turn,
        }
    }

    /// Short label for display/export.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::TrackStart => "track_start",
            Self::TrackEnd => "track_end",
            Self::GapStart => "gap_start",
            Self::GapEnd => "gap_end",
            Self::StopStart => "stop_start",
            Self::StopEnd { .. } => "stop_end",
            Self::SlowMotionStart => "slow_motion_start",
            Self::SlowMotionEnd => "slow_motion_end",
            Self::SpeedChange { .. } => "speed_change",
            Self::Turn { .. } => "turn",
            Self::SmoothTurn { .. } => "smooth_turn",
        }
    }
}

/// The movement-event vocabulary the CER module consumes (§5.2: "The input
/// of RTEC ... consists of the MEs (communication) gap, lowSpeed, stopped,
/// speedChange and turn").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MovementEventKind {
    /// First-ever fix (not part of the paper's ME vocabulary; ignored by
    /// the CE definitions but useful for reconstruction).
    TrackStart,
    /// Final fix on flush (likewise reconstruction-only).
    TrackEnd,
    /// Communication gap.
    Gap,
    /// Durative immobility.
    Stopped,
    /// Durative low-speed motion (the paper's `lowSpeed`/`slowMotion`).
    SlowMotion,
    /// Instantaneous speed change.
    SpeedChange,
    /// Instantaneous or smooth turn.
    Turn,
}

/// An annotated critical point: the unit of the compressed trajectory
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CriticalPoint {
    /// The vessel.
    pub mmsi: Mmsi,
    /// Position of the critical point.
    pub position: GeoPoint,
    /// When the underlying movement event occurred.
    pub timestamp: Timestamp,
    /// Why the point is critical.
    pub annotation: Annotation,
    /// Instantaneous speed at this point, knots.
    pub speed_knots: f64,
    /// Heading at this point, degrees.
    pub heading_deg: f64,
}

/// Orders critical points canonically: stable sort by `(timestamp, mmsi)`.
///
/// The tracker emits each vessel's points in per-vessel time order, so a
/// *stable* sort on this key maps any interleaving of independent vessels
/// to the same sequence — the order golden fixtures are stored and
/// compared in.
pub fn canonical_order(points: &mut [CriticalPoint]) {
    points.sort_by_key(|cp| (cp.timestamp, cp.mmsi.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_kinds_cover_me_vocabulary() {
        assert_eq!(Annotation::GapStart.kind(), MovementEventKind::Gap);
        assert_eq!(Annotation::StopStart.kind(), MovementEventKind::Stopped);
        assert_eq!(
            Annotation::StopEnd {
                centroid: GeoPoint::new(0.0, 0.0),
                duration: Duration::secs(60)
            }
            .kind(),
            MovementEventKind::Stopped
        );
        assert_eq!(
            Annotation::SlowMotionStart.kind(),
            MovementEventKind::SlowMotion
        );
        assert_eq!(
            Annotation::SpeedChange { prev_knots: 10.0, now_knots: 5.0 }.kind(),
            MovementEventKind::SpeedChange
        );
        assert_eq!(
            Annotation::Turn { change_deg: 20.0 }.kind(),
            MovementEventKind::Turn
        );
        assert_eq!(
            Annotation::SmoothTurn { cumulative_deg: -17.0 }.kind(),
            MovementEventKind::Turn
        );
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            Annotation::TrackStart.label(),
            Annotation::GapStart.label(),
            Annotation::GapEnd.label(),
            Annotation::StopStart.label(),
            Annotation::StopEnd {
                centroid: GeoPoint::new(0.0, 0.0),
                duration: Duration::ZERO,
            }
            .label(),
            Annotation::SlowMotionStart.label(),
            Annotation::SlowMotionEnd.label(),
            Annotation::SpeedChange { prev_knots: 0.0, now_knots: 0.0 }.label(),
            Annotation::Turn { change_deg: 0.0 }.label(),
            Annotation::SmoothTurn { cumulative_deg: 0.0 }.label(),
        ]
        .into_iter()
        .collect();
        assert_eq!(labels.len(), 10);
    }
}
