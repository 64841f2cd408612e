//! Benchmarks the Figure 2 kernel: extracting first-layer feature maps and
//! computing their spectra before and after blurring.

use blurnet_data::{DatasetConfig, SignDataset};
use blurnet_nn::LisaCnn;
use blurnet_signal::{blur_image, box_kernel, fft2d_magnitude};
use blurnet_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_fig2(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let net = LisaCnn::new(18).build(&mut rng).unwrap();
    let data = SignDataset::generate(&DatasetConfig::tiny(), 7).unwrap();
    let image = data.stop_eval_images()[0].clone();
    let batch = Tensor::stack(&[image]).unwrap();

    let mut group = c.benchmark_group("fig2");
    group.sample_size(10);
    group.bench_function("collect_feature_maps", |b| {
        b.iter(|| net.activation(&batch, 0).unwrap());
    });
    let features = net.activation(&batch, 0).unwrap().batch_item(0).unwrap();
    let kernel = box_kernel(5);
    group.bench_function("feature_map_spectra_all_channels", |b| {
        b.iter(|| {
            for ch in 0..features.dims()[0] {
                fft2d_magnitude(&features.channel(ch).unwrap()).unwrap();
            }
        });
    });
    group.bench_function("blur_feature_maps_5x5", |b| {
        b.iter(|| blur_image(&features, &kernel).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
