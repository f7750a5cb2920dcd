//! Criterion: rounding throughput (the per-sample cost of "pruning").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use efd_core::round_to_depth;
use efd_util::SplitMix64;

fn bench(c: &mut Criterion) {
    let mut rng = SplitMix64::new(7);
    let values: Vec<f64> = (0..4096).map(|_| (rng.next_f64() - 0.5) * 2e7).collect();

    let mut group = c.benchmark_group("rounding");
    for depth in [1u8, 3, 6] {
        group.bench_function(format!("depth_{depth}_4096_values"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &v in &values {
                    acc += round_to_depth(black_box(v), depth);
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
