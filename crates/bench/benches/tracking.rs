//! Criterion benches for the trajectory detection component (Figures 6–7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maritime::prelude::*;
use maritime_bench::{Scale, Workload};

/// Per-tuple tracker throughput: the hot path of the whole system.
fn bench_tracker_throughput(c: &mut Criterion) {
    let w = Workload::build(Scale::Small);
    let tuples = w.tuples();
    let mut group = c.benchmark_group("tracker_throughput");
    group.throughput(Throughput::Elements(tuples.len() as u64));
    group.sample_size(10);
    group.bench_function("process_full_stream", |b| {
        b.iter(|| {
            let mut tracker = MobilityTracker::new(TrackerParams::default());
            let mut n = 0usize;
            for t in &tuples {
                n += tracker.process(*t).len();
            }
            n + tracker.finish().len()
        });
    });
    group.finish();
}

/// Figure 6 analogue: per-slide cost for different window geometries.
fn bench_windowed_slides(c: &mut Criterion) {
    let w = Workload::build(Scale::Small);
    let mut group = c.benchmark_group("fig6_tracking_per_window");
    group.sample_size(10);
    for (range_h, slide_min) in [(1i64, 5i64), (1, 30), (6, 60)] {
        let spec =
            WindowSpec::new(Duration::hours(range_h), Duration::minutes(slide_min)).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("w{range_h}h_b{slide_min}m")),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let mut wt = WindowedTracker::new(TrackerParams::default(), *spec);
                    let mut total = 0usize;
                    for batch in
                        SlideBatches::new(w.stream.iter().cloned(), *spec, Timestamp::ZERO)
                    {
                        let tuples: Vec<PositionTuple> =
                            batch.items.into_iter().map(|(_, t)| t).collect();
                        total += wt.slide(batch.query_time, &tuples).fresh_critical.len();
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

/// Figure 7 analogue: the same stream compressed to higher arrival rates.
fn bench_arrival_rates(c: &mut Criterion) {
    use maritime_ais::replay::at_rate;
    let w = Workload::build(Scale::Small);
    let spec = WindowSpec::new(Duration::minutes(10), Duration::minutes(1)).unwrap();
    let mut group = c.benchmark_group("fig7_arrival_rates");
    group.sample_size(10);
    for rate in [1_000.0, 5_000.0, 10_000.0] {
        let fast = at_rate(&w.stream, rate);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rate}pos_per_s")),
            &fast,
            |b, stream| {
                b.iter(|| {
                    let mut wt = WindowedTracker::new(TrackerParams::default(), spec);
                    let mut total = 0usize;
                    for batch in SlideBatches::new(stream.iter().cloned(), spec, Timestamp::ZERO)
                    {
                        let tuples: Vec<PositionTuple> =
                            batch.items.into_iter().map(|(_, t)| t).collect();
                        total += wt.slide(batch.query_time, &tuples).fresh_critical.len();
                    }
                    total
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tracker_throughput,
    bench_windowed_slides,
    bench_arrival_rates
);
criterion_main!(benches);
