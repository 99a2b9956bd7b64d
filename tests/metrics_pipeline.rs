//! End-to-end observability: a full pipeline run (NMEA decode included)
//! must light up the metric registry across every stage.
//!
//! The test reads *deltas* of the process-global registry, so it is the
//! only test in this binary.

use maritime::prelude::*;
use maritime_ais::nmea::encode_report;
use maritime_obs::names;

/// Decodes the simulated fleet through the real NMEA scanner (so the
/// `ais_*` counters move too) and runs the full pipeline.
fn run_pipeline(seed: u64) -> RunReport {
    let sim = FleetSimulator::new(FleetConfig::tiny(seed));
    let mut scanner = DataScanner::new();
    let tuples: Vec<PositionTuple> = sim
        .generate()
        .iter()
        .filter_map(|r| scanner.scan(&encode_report(r), r.timestamp))
        .collect();
    assert!(!tuples.is_empty(), "scanner must decode the synthetic fleet");

    let areas = maritime_geo::aegean::generate_areas(&maritime_geo::aegean::AreaGenConfig::default());
    let vessels: Vec<VesselInfo> = sim.profiles().iter().map(VesselInfo::from).collect();
    let config = SurveillanceConfig::default();
    let mut pipeline = SurveillancePipeline::new(&config, vessels, areas).unwrap();
    pipeline.run(tuples)
}

#[test]
fn full_run_lights_up_every_stage() {
    let before = maritime_obs::snapshot();
    run_pipeline(41);
    let after = maritime_obs::snapshot();

    // Count metrics whose reading moved during the run (counter/histogram
    // growth; gauges excluded — they may legitimately return to their
    // starting level).
    let mut moved: Vec<&str> = Vec::new();
    for entry in &after.entries {
        let name = entry.descriptor.name;
        let grew = match (before.get(name).map(|e| e.value), entry.value) {
            (Some(maritime_obs::MetricValue::Counter(b)), maritime_obs::MetricValue::Counter(a)) => {
                a > b
            }
            (
                Some(maritime_obs::MetricValue::Histogram(b)),
                maritime_obs::MetricValue::Histogram(a),
            ) => a.count > b.count,
            _ => false,
        };
        if grew {
            moved.push(name);
        }
    }
    assert!(
        moved.len() >= 20,
        "expected >= 20 metrics to move in a full run, got {}: {moved:?}",
        moved.len()
    );
    for prefix in ["ais_", "tracker_", "stream_", "rtec_", "cer_", "modstore_", "pipeline_"] {
        assert!(
            moved.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* metric moved during a full pipeline run: {moved:?}"
        );
    }
    for name in [
        names::TRACKER_POINTS_INGESTED,
        names::TRACKER_CRITICAL_POINTS,
        names::TRACKER_NOISE_DROPS,
        names::TRACKER_EVICTED_POINTS,
        names::CER_INPUT_EVENTS,
    ] {
        assert!(moved.contains(&name), "{name} did not move during a full pipeline run");
    }
}
