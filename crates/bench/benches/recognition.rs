//! Criterion benches for complex event recognition (Figure 11) and the
//! compression ablation (critical points vs raw-position-sized input).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maritime::prelude::*;
use maritime_bench::{Scale, Workload};
use maritime_cer::{spatial, Knowledge, MaritimeRecognizer, SpatialMode};

fn recognize_all(
    events: &[(Timestamp, maritime_cer::InputEvent)],
    w: &Workload,
    spec: WindowSpec,
    mode: SpatialMode,
    queries: &[Timestamp],
) -> usize {
    let kb = Knowledge::new(w.vessels.iter().copied(), w.areas.clone(), 2_000.0, mode);
    let mut r = MaritimeRecognizer::new(kb, spec);
    r.add_events(events.iter().cloned());
    queries
        .iter()
        .map(|q| r.recognize_and_summarize(*q).ce_count)
        .sum()
}

/// Figure 11(a)/(b): recognition cost per window range, both spatial modes.
fn bench_recognition_modes(c: &mut Criterion) {
    let w = Workload::build(Scale::Small);
    let me_stream = w.me_stream(TrackerParams::default());
    let span_end = Timestamp::ZERO + w.span();

    let mut group = c.benchmark_group("fig11_recognition");
    group.sample_size(10);
    for range_h in [1i64, 6] {
        let spec = WindowSpec::new(Duration::hours(range_h), Duration::hours(1)).unwrap();
        let queries = spec.query_times(Timestamp::ZERO, span_end);

        group.bench_with_input(
            BenchmarkId::from_parameter(format!("on_demand_w{range_h}h")),
            &spec,
            |b, spec| {
                b.iter(|| recognize_all(&me_stream, &w, *spec, SpatialMode::OnDemand, &queries));
            },
        );

        let mut annotated = me_stream.clone();
        let kb = Knowledge::standard(w.vessels.iter().copied(), w.areas.clone());
        spatial::annotate_with_spatial_facts(&mut annotated, &kb);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("precomputed_w{range_h}h")),
            &spec,
            |b, spec| {
                b.iter(|| {
                    recognize_all(&annotated, &w, *spec, SpatialMode::Precomputed, &queries)
                });
            },
        );
    }
    group.finish();
}

/// Ablation: the CE recognizer fed the compressed ME stream versus an
/// uncompressed-size stream (one synthetic ME per raw position) — the
/// load reduction the trajectory detection component buys.
fn bench_compression_ablation(c: &mut Criterion) {
    use maritime_cer::{InputEvent, InputKind};
    let w = Workload::build(Scale::Small);
    let me_stream = w.me_stream(TrackerParams::default());
    // Raw-sized stream: every position becomes a Turn ME (worst case for
    // recognition input volume; rules mostly ignore turns, as in the real
    // input mix).
    let raw_stream: Vec<(Timestamp, InputEvent)> = w
        .stream
        .iter()
        .map(|(t, p)| {
            (
                *t,
                InputEvent {
                    mmsi: p.mmsi,
                    kind: InputKind::Turn,
                    position: p.position,
                    close_areas: None,
                },
            )
        })
        .collect();
    let span_end = Timestamp::ZERO + w.span();
    let spec = WindowSpec::new(Duration::hours(2), Duration::hours(1)).unwrap();
    let queries = spec.query_times(Timestamp::ZERO, span_end);

    let mut group = c.benchmark_group("compression_ablation");
    group.sample_size(10);
    group.bench_function(format!("critical_points_{}", me_stream.len()), |b| {
        b.iter(|| recognize_all(&me_stream, &w, spec, SpatialMode::OnDemand, &queries));
    });
    group.bench_function(format!("raw_positions_{}", raw_stream.len()), |b| {
        b.iter(|| recognize_all(&raw_stream, &w, spec, SpatialMode::OnDemand, &queries));
    });
    group.finish();
}

criterion_group!(benches, bench_recognition_modes, bench_compression_ablation);
criterion_main!(benches);
