//! Election scaling bench: wall-clock cost of simulating one calibrated
//! election per ring size (the engine behind experiments E1/E2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use abe_core::RunConfig;
use abe_election::{run_abe_calibrated, RingConfig};

fn bench_election(c: &mut Criterion) {
    let mut group = c.benchmark_group("abe-election");
    for &n in &[64u32, 256, 1024, 4096] {
        group.throughput(Throughput::Elements(u64::from(n)));
        group.bench_with_input(BenchmarkId::new("calibrated", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let outcome =
                    run_abe_calibrated(&RingConfig::new(n, RunConfig::new().seed(seed)), 1.0);
                assert_eq!(outcome.leaders, 1);
                outcome.messages
            })
        });
    }
    group.finish();
}

fn bench_activation_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("abe-election-budget");
    for &a in &[0.5f64, 1.0, 4.0] {
        group.bench_with_input(BenchmarkId::new("n256-a", format!("{a}")), &a, |b, &a| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                run_abe_calibrated(&RingConfig::new(256, RunConfig::new().seed(seed)), a).messages
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_election, bench_activation_budget
);
criterion_main!(benches);
