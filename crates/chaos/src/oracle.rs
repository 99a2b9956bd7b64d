//! Metamorphic oracles over recognized complex events.
//!
//! A metamorphic oracle does not know the *correct* CE set for a stream —
//! nobody does, that's why differential and metamorphic testing exist —
//! but it knows how the CE set must *relate* across a known input
//! transformation:
//!
//! | transformation | relation |
//! |---|---|
//! | duplicate sentences | identical output ([`check_identical`]) |
//! | reorder within admission skew | identical output ([`check_identical`]) |
//! | any perturbation, engine A vs B | identical output ([`check_agreement`]) |
//! | silence a vessel subset | projection ([`check_vessel_projection`]) |
//!
//! The unit of comparison is a [`CeObservation`]: everything recognition
//! produced over a run, canonically rendered. Equality of fingerprints is
//! byte-equality of every per-query canonical summary — the same standard
//! the differential harnesses hold engine pairs to on clean streams.

use std::collections::BTreeSet;
use std::fmt;

use maritime_cer::{AlertKind, RecognitionSummary};
use maritime_geo::AreaId;
use maritime_obs::{names, LazyCounter};
use maritime_rtec::IntervalList;

static OBS_CHECKS: LazyCounter = LazyCounter::new(names::CHAOS_ORACLE_CHECKS);
static OBS_FAILURES: LazyCounter = LazyCounter::new(names::CHAOS_ORACLE_FAILURES);

/// One recognition query's results, canonically rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySnapshot {
    /// Query time, stream seconds.
    pub query_secs: i64,
    /// `suspicious(Area)` maximal intervals at this query.
    pub suspicious: Vec<(AreaId, IntervalList)>,
    /// `illegalFishing(Area)` maximal intervals at this query.
    pub illegal_fishing: Vec<(AreaId, IntervalList)>,
    /// The full canonical JSON of the summary (intervals, alerts, counts).
    pub canon: String,
}

/// An instantaneous alert, keyed for set comparison:
/// `(at_secs, kind, mmsi, area)`.
pub type AlertKey = (i64, u8, u32, u32);

fn kind_code(kind: AlertKind) -> u8 {
    match kind {
        AlertKind::IllegalShipping => 0,
        AlertKind::DangerousShipping => 1,
    }
}

/// Everything recognition produced over one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CeObservation {
    /// Per-query snapshots, in query order.
    pub queries: Vec<QuerySnapshot>,
    /// Distinct instantaneous alerts across the run. Summaries re-report
    /// an alert for every window that still contains it, so the set (not
    /// the sequence) is the meaningful object.
    pub alerts: BTreeSet<AlertKey>,
    /// Total CE count summed over queries.
    pub ce_total: usize,
}

impl CeObservation {
    /// An empty observation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one query's summary.
    pub fn record_summary(&mut self, summary: &RecognitionSummary) {
        self.queries.push(QuerySnapshot {
            query_secs: summary.query_time.as_secs(),
            suspicious: summary.suspicious.clone(),
            illegal_fishing: summary.illegal_fishing.clone(),
            canon: summary.canonical_json(),
        });
        for (t, alert) in &summary.alerts {
            self.alerts
                .insert((t.as_secs(), kind_code(alert.kind), alert.vessel.0, alert.area.0));
        }
        self.ce_total += summary.ce_count;
    }

    /// The canonical rendering of the whole run: per-query canonical
    /// summaries plus the distinct alert set. Two runs recognized the
    /// same complex events iff their fingerprints are byte-equal.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for q in &self.queries {
            out.push_str(&q.canon);
            out.push('\n');
        }
        out.push_str("alerts:");
        for (t, kind, mmsi, area) in &self.alerts {
            out.push_str(&format!(" ({t},{kind},{mmsi},{area})"));
        }
        out.push_str(&format!("\nce_total:{}", self.ce_total));
        out
    }
}

/// A failed oracle check: which oracle, and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// The oracle that failed ("duplicate-idempotence", …).
    pub oracle: &'static str,
    /// Human-oriented description of the divergence.
    pub detail: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle {} violated: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for OracleViolation {}

fn checked(result: Result<(), OracleViolation>) -> Result<(), OracleViolation> {
    OBS_CHECKS.inc();
    if result.is_err() {
        OBS_FAILURES.inc();
    }
    result
}

/// The first point where two observations diverge, rendered tersely.
fn first_divergence(base: &CeObservation, other: &CeObservation) -> String {
    if base.queries.len() != other.queries.len() {
        return format!(
            "query counts differ: {} vs {}",
            base.queries.len(),
            other.queries.len()
        );
    }
    for (b, o) in base.queries.iter().zip(&other.queries) {
        if b != o {
            return format!(
                "first divergent query at t={}: {} vs {}",
                b.query_secs, b.canon, o.canon
            );
        }
    }
    if base.alerts != other.alerts {
        let extra: Vec<_> = other.alerts.difference(&base.alerts).collect();
        let missing: Vec<_> = base.alerts.difference(&other.alerts).collect();
        return format!("alerts differ: extra {extra:?}, missing {missing:?}");
    }
    format!("ce_total {} vs {}", base.ce_total, other.ce_total)
}

/// Byte-identity oracle: used for duplicate-idempotence and
/// bounded-reorder equivalence, where the transformation must be
/// invisible to recognition.
///
/// # Errors
/// When the observations differ anywhere.
pub fn check_identical(
    oracle: &'static str,
    base: &CeObservation,
    other: &CeObservation,
) -> Result<(), OracleViolation> {
    checked(if base.fingerprint() == other.fingerprint() {
        Ok(())
    } else {
        Err(OracleViolation {
            oracle,
            detail: first_divergence(base, other),
        })
    })
}

/// Cross-engine agreement oracle: every labelled observation must be
/// byte-identical to the first. Engines may all be wrong about a hostile
/// stream, but they must be wrong *identically* — divergence means the
/// parallel/incremental/traced machinery, not the event description,
/// changed behaviour.
///
/// # Errors
/// Naming the first engine that disagrees with the first label.
pub fn check_agreement(runs: &[(&'static str, &CeObservation)]) -> Result<(), OracleViolation> {
    let Some(((first_label, first), rest)) = runs.split_first() else {
        return Ok(());
    };
    for (label, obs) in rest {
        let result = checked(if first.fingerprint() == obs.fingerprint() {
            Ok(())
        } else {
            Err(OracleViolation {
                oracle: "cross-engine-agreement",
                detail: format!(
                    "{first_label} vs {label}: {}",
                    first_divergence(first, obs)
                ),
            })
        });
        result?;
    }
    Ok(())
}

/// Gap-monotonicity (projection) oracle for vessel silencing.
///
/// Removing every position report of a vessel subset removes evidence and
/// nothing else, so on the thinned stream:
///
/// * no instantaneous alert may name a silenced vessel, and surviving
///   vessels' alerts must match the baseline's exactly (per-vessel
///   tracking and pointwise alert rules make them independent of the
///   silenced vessels);
/// * every durative CE interval (`suspicious`, `illegalFishing` — both
///   derived from vessel-count/evidence thresholds that can only drop)
///   must lie *within* a baseline interval for the same area at the same
///   query: intervals may shrink, split, or vanish, never grow or appear
///   ([`IntervalList::covers`]).
///
/// Queries are aligned by query time; the perturbed run may end earlier
/// (if the globally last report belonged to a silenced vessel), so only
/// the common prefix of query times is compared, and baseline alerts are
/// restricted to that horizon.
///
/// # Errors
/// On any created alert, created/grown interval, or missing surviving
/// alert.
pub fn check_vessel_projection(
    base: &CeObservation,
    thinned: &CeObservation,
    silenced: &BTreeSet<u32>,
) -> Result<(), OracleViolation> {
    checked(vessel_projection_inner(base, thinned, silenced))
}

fn vessel_projection_inner(
    base: &CeObservation,
    thinned: &CeObservation,
    silenced: &BTreeSet<u32>,
) -> Result<(), OracleViolation> {
    let oracle = "gap-monotonicity";
    let fail = |detail: String| Err(OracleViolation { oracle, detail });

    // Align queries by time: each thinned query must exist in the base.
    for tq in &thinned.queries {
        let Some(bq) = base.queries.iter().find(|q| q.query_secs == tq.query_secs) else {
            return fail(format!(
                "thinned run queried at t={} but baseline never did",
                tq.query_secs
            ));
        };
        for (label, thinned_areas, base_areas) in [
            ("suspicious", &tq.suspicious, &bq.suspicious),
            ("illegalFishing", &tq.illegal_fishing, &bq.illegal_fishing),
        ] {
            for (area, list) in thinned_areas {
                let baseline = base_areas
                    .iter()
                    .find(|(a, _)| a == area)
                    .map(|(_, l)| l.clone())
                    .unwrap_or_default();
                for interval in list.intervals() {
                    if !baseline.covers(interval) {
                        return fail(format!(
                            "q={} {label}(area {}) interval {interval:?} not covered by \
                             baseline {baseline:?} — dropping vessels created CE evidence",
                            tq.query_secs, area.0
                        ));
                    }
                }
            }
        }
    }

    // Alert projection on the common horizon.
    let horizon = thinned.queries.last().map_or(i64::MIN, |q| q.query_secs);
    for key in &thinned.alerts {
        if silenced.contains(&key.2) {
            return fail(format!(
                "alert {key:?} names silenced vessel {}",
                key.2
            ));
        }
    }
    let expected: BTreeSet<AlertKey> = base
        .alerts
        .iter()
        .filter(|(t, _, mmsi, _)| *t <= horizon && !silenced.contains(mmsi))
        .copied()
        .collect();
    if thinned.alerts != expected {
        let extra: Vec<_> = thinned.alerts.difference(&expected).collect();
        let missing: Vec<_> = expected.difference(&thinned.alerts).collect();
        return fail(format!(
            "surviving-vessel alerts diverge: extra {extra:?}, missing {missing:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maritime_rtec::{Interval, Timestamp};

    fn snapshot(q: i64, canon: &str) -> QuerySnapshot {
        QuerySnapshot {
            query_secs: q,
            suspicious: Vec::new(),
            illegal_fishing: Vec::new(),
            canon: canon.to_string(),
        }
    }

    #[test]
    fn identical_passes_and_divergence_is_located() {
        let mut a = CeObservation::new();
        a.queries.push(snapshot(3_600, "x"));
        a.ce_total = 1;
        let b = a.clone();
        assert!(check_identical("test", &a, &b).is_ok());

        let mut c = a.clone();
        c.queries[0].canon = "y".into();
        let err = check_identical("test", &a, &c).unwrap_err();
        assert_eq!(err.oracle, "test");
        assert!(err.detail.contains("t=3600"), "{}", err.detail);
    }

    #[test]
    fn agreement_names_the_divergent_engine() {
        let mut a = CeObservation::new();
        a.queries.push(snapshot(100, "same"));
        let b = a.clone();
        let mut c = a.clone();
        c.ce_total = 9;
        assert!(check_agreement(&[("serial", &a), ("banded", &b)]).is_ok());
        let err =
            check_agreement(&[("serial", &a), ("banded", &b), ("traced", &c)]).unwrap_err();
        assert!(err.detail.contains("traced"), "{}", err.detail);
    }

    #[test]
    fn projection_accepts_shrunk_intervals_rejects_created_ones() {
        let area = AreaId(3);
        let baseline_list = IntervalList::from_intervals(vec![Interval::closed(
            Timestamp(1_000),
            Timestamp(5_000),
        )]);
        let mut base = CeObservation::new();
        base.queries.push(QuerySnapshot {
            query_secs: 7_200,
            suspicious: vec![(area, baseline_list)],
            illegal_fishing: Vec::new(),
            canon: "b".into(),
        });

        let shrunk = IntervalList::from_intervals(vec![Interval::closed(
            Timestamp(2_000),
            Timestamp(4_000),
        )]);
        let mut thin = CeObservation::new();
        thin.queries.push(QuerySnapshot {
            query_secs: 7_200,
            suspicious: vec![(area, shrunk)],
            illegal_fishing: Vec::new(),
            canon: "t".into(),
        });
        assert!(check_vessel_projection(&base, &thin, &BTreeSet::new()).is_ok());

        let grown = IntervalList::from_intervals(vec![Interval::closed(
            Timestamp(500),
            Timestamp(4_000),
        )]);
        thin.queries[0].suspicious = vec![(area, grown)];
        let err = check_vessel_projection(&base, &thin, &BTreeSet::new()).unwrap_err();
        assert!(err.detail.contains("not covered"), "{}", err.detail);
    }

    #[test]
    fn projection_checks_alert_sets_on_common_horizon() {
        let silenced: BTreeSet<u32> = [7].into();
        let mut base = CeObservation::new();
        base.queries.push(snapshot(3_600, "a"));
        base.queries.push(snapshot(7_200, "b"));
        base.alerts.insert((1_000, 0, 5, 1)); // survivor, early
        base.alerts.insert((5_000, 0, 5, 1)); // survivor, after horizon
        base.alerts.insert((1_200, 1, 7, 2)); // silenced vessel

        // Thinned run ends at the first query; only the early survivor
        // alert must remain.
        let mut thin = CeObservation::new();
        thin.queries.push(snapshot(3_600, "a"));
        thin.alerts.insert((1_000, 0, 5, 1));
        assert!(check_vessel_projection(&base, &thin, &silenced).is_ok());

        // A silenced vessel's alert appearing is a violation.
        thin.alerts.insert((1_200, 1, 7, 2));
        assert!(check_vessel_projection(&base, &thin, &silenced).is_err());
        thin.alerts.remove(&(1_200, 1, 7, 2));

        // Losing a survivor's alert is a violation too.
        thin.alerts.clear();
        let err = check_vessel_projection(&base, &thin, &silenced).unwrap_err();
        assert!(err.detail.contains("missing"), "{}", err.detail);
    }
}
