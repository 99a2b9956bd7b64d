//! Geographically partitioned, parallel recognition (§5.2, Figure 11).
//!
//! "One processor performed CE recognition for the areas located in, and
//! the vessels passing through the west part of the area under
//! surveillance. Similarly, the other processor performed CE recognition
//! for ... the east part. ... The input MEs are forwarded to the
//! appropriate processor (according to vessel location)."
//!
//! [`GeoPartitioner`] splits the monitored region into longitude bands
//! and routes areas (by centroid) and events (by position) to them;
//! `merge_band_summaries` folds one query's per-band summaries into a
//! single one. [`crate::CoordinatedRecognizer`] runs one recognizer per
//! band on top of both, and handles vessels that cross a band boundary.

use maritime_geo::Area;
use maritime_rtec::Timestamp;

use crate::input::InputEvent;
use crate::recognizer::RecognitionSummary;

/// Longitude-band partitioner.
#[derive(Debug, Clone)]
pub struct GeoPartitioner {
    /// Interior boundaries, ascending. `n` partitions have `n − 1` entries.
    boundaries: Vec<f64>,
}

impl GeoPartitioner {
    /// The paper's two-way split of the Aegean at a fixed meridian.
    #[must_use]
    pub fn east_west() -> Self {
        Self {
            boundaries: vec![maritime_geo::aegean::EAST_WEST_SPLIT_LON],
        }
    }

    /// Splits into `n` bands balancing the given event sample: boundaries
    /// at the longitude quantiles of the events.
    #[must_use]
    pub fn balanced(n: usize, events: &[(Timestamp, InputEvent)]) -> Self {
        assert!(n >= 1);
        if n == 1 || events.is_empty() {
            return Self { boundaries: Vec::new() };
        }
        let mut lons: Vec<f64> = events.iter().map(|(_, e)| e.position.lon).collect();
        lons.sort_by(|a, b| a.partial_cmp(b).expect("finite longitudes"));
        let boundaries = (1..n)
            .map(|i| lons[i * lons.len() / n])
            .collect();
        Self { boundaries }
    }

    /// Splits `[lon_min, lon_max]` into `n` equal-width longitude bands.
    /// Unlike [`GeoPartitioner::balanced`] this needs no event sample, so
    /// it suits online operation where the stream is not known up front.
    ///
    /// # Panics
    /// If `n` is zero or the interval is not ascending and finite.
    #[must_use]
    pub fn uniform(n: usize, lon_min: f64, lon_max: f64) -> Self {
        assert!(n >= 1);
        assert!(
            lon_min.is_finite() && lon_max.is_finite() && lon_min < lon_max,
            "uniform bands need a finite ascending longitude interval"
        );
        let width = (lon_max - lon_min) / n as f64;
        Self {
            boundaries: (1..n).map(|i| lon_min + width * i as f64).collect(),
        }
    }

    /// Rebuilds a partitioner from saved interior boundaries (checkpoint
    /// restore path).
    ///
    /// # Panics
    /// If the boundaries are not finite and strictly ascending.
    #[must_use]
    pub fn from_boundaries(boundaries: Vec<f64>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1])
                && boundaries.iter().all(|b| b.is_finite()),
            "band boundaries must be finite and strictly ascending"
        );
        Self { boundaries }
    }

    /// Number of partitions.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Interior band boundaries, ascending (`partitions() − 1` entries).
    #[must_use]
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// The band index for a longitude.
    #[must_use]
    pub fn index_of(&self, lon: f64) -> usize {
        self.boundaries.partition_point(|b| *b <= lon)
    }

    /// Routes events into per-band vectors by vessel location.
    #[must_use]
    pub fn route_events(
        &self,
        events: &[(Timestamp, InputEvent)],
    ) -> Vec<Vec<(Timestamp, InputEvent)>> {
        let mut out = vec![Vec::new(); self.partitions()];
        for (t, e) in events {
            out[self.index_of(e.position.lon)].push((*t, e.clone()));
        }
        out
    }

    /// Routes areas into bands by centroid.
    #[must_use]
    pub fn route_areas(&self, areas: &[Area]) -> Vec<Vec<Area>> {
        let mut out = vec![Vec::new(); self.partitions()];
        for a in areas {
            out[self.index_of(a.polygon.centroid().lon)].push(a.clone());
        }
        out
    }
}

/// Merges per-band summaries of one query into a single summary. Bands
/// own disjoint area sets, so the per-area interval lists never collide;
/// they are concatenated and sorted by area for determinism.
pub(crate) fn merge_band_summaries(
    q: Timestamp,
    summaries: Vec<RecognitionSummary>,
) -> RecognitionSummary {
    let mut merged = RecognitionSummary {
        query_time: q,
        suspicious: Vec::new(),
        illegal_fishing: Vec::new(),
        alerts: Vec::new(),
        ce_count: 0,
        working_memory: 0,
    };
    for s in summaries {
        merged.suspicious.extend(s.suspicious);
        merged.illegal_fishing.extend(s.illegal_fishing);
        merged.alerts.extend(s.alerts);
        merged.ce_count += s.ce_count;
        merged.working_memory += s.working_memory;
    }
    merged.suspicious.sort_by_key(|(area, _)| area.0);
    merged.illegal_fishing.sort_by_key(|(area, _)| area.0);
    merged.alerts.sort_by_key(|(t, _)| *t);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputKind;
    use maritime_ais::Mmsi;
    use maritime_geo::GeoPoint;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn ev(mmsi: u32, kind: InputKind, lon: f64, lat: f64) -> (Timestamp, InputEvent) {
        (
            t(100 + i64::from(mmsi)),
            InputEvent {
                mmsi: Mmsi(mmsi),
                kind,
                position: GeoPoint::new(lon, lat),
                close_areas: None,
            },
        )
    }

    #[test]
    fn east_west_split_routes_by_longitude() {
        let p = GeoPartitioner::east_west();
        assert_eq!(p.partitions(), 2);
        assert_eq!(p.index_of(21.0), 0);
        assert_eq!(p.index_of(26.0), 1);
    }

    #[test]
    fn balanced_partitioner_equalizes_counts() {
        let events: Vec<_> = (0..100)
            .map(|i| ev(i, InputKind::Turn, 20.0 + 0.08 * f64::from(i), 38.0))
            .collect();
        let p = GeoPartitioner::balanced(4, &events);
        assert_eq!(p.partitions(), 4);
        let routed = p.route_events(&events);
        for band in &routed {
            assert!((20..=30).contains(&band.len()), "band size {}", band.len());
        }
        let total: usize = routed.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn single_partition_routes_everything_together() {
        let events = vec![ev(1, InputKind::Turn, 21.0, 38.0), ev(2, InputKind::Turn, 27.0, 38.0)];
        let p = GeoPartitioner::balanced(1, &events);
        let routed = p.route_events(&events);
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].len(), 2);
    }

    #[test]
    fn uniform_bands_are_equal_width() {
        let p = GeoPartitioner::uniform(4, 20.0, 28.0);
        assert_eq!(p.partitions(), 4);
        assert_eq!(p.index_of(20.5), 0);
        assert_eq!(p.index_of(22.5), 1);
        assert_eq!(p.index_of(24.5), 2);
        assert_eq!(p.index_of(27.9), 3);
        // Left-closed bands: a boundary longitude belongs to the right band.
        assert_eq!(p.index_of(22.0), 1);
    }
}
