//! Benchmarks the Figure 3 kernel: the DCT low-frequency projection at the
//! mask dimensions swept by the figure, on one plane and batched over the
//! `[3, 3, 32, 32]` planes of a three-image RP2 perturbation (divide the
//! batched time by 9 for the per-plane cost).

use blurnet_signal::{low_frequency_project, low_frequency_project_planes};
use blurnet_tensor::Tensor;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_fig3(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let perturbation = Tensor::rand_uniform(&[32, 32], -0.5, 0.5, &mut rng);
    let batch = Tensor::rand_uniform(&[3, 3, 32, 32], -0.5, 0.5, &mut rng);
    let mut group = c.benchmark_group("fig3");
    group.sample_size(20);
    for dim in [4usize, 8, 16, 32] {
        group.bench_with_input(
            BenchmarkId::new("low_frequency_project", dim),
            &dim,
            |b, &dim| {
                b.iter(|| low_frequency_project(&perturbation, dim).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("low_frequency_project_planes_3x3x32x32", dim),
            &dim,
            |b, &dim| {
                b.iter(|| low_frequency_project_planes(&batch, dim).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
