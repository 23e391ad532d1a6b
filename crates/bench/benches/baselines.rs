//! Baseline election benches: Itai–Rodeh and Chang–Roberts simulation
//! cost next to the paper's algorithm (engine behind experiment E4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use abe_core::RunConfig;
use abe_election::{run_abe_calibrated, run_chang_roberts, run_itai_rodeh, RingConfig};

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("election-baselines");
    for &n in &[64u32, 256] {
        group.bench_with_input(BenchmarkId::new("abe-calibrated", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                run_abe_calibrated(&RingConfig::new(n, RunConfig::new().seed(seed)), 1.0).messages
            })
        });
        group.bench_with_input(BenchmarkId::new("itai-rodeh", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                run_itai_rodeh(&RingConfig::new(n, RunConfig::new().seed(seed))).messages
            })
        });
        group.bench_with_input(BenchmarkId::new("chang-roberts", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                run_chang_roberts(&RingConfig::new(n, RunConfig::new().seed(seed))).messages
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_baselines
);
criterion_main!(benches);
