//! Benchmarks the Figure 4 kernel: second-layer activation extraction and
//! band-energy analysis.

use blurnet_data::{DatasetConfig, SignDataset};
use blurnet_nn::LisaCnn;
use blurnet_signal::high_frequency_ratio;
use blurnet_tensor::Tensor;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_fig4(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let builder = LisaCnn::new(18);
    let net = builder.build(&mut rng).unwrap();
    let data = SignDataset::generate(&DatasetConfig::tiny(), 9).unwrap();
    let batch = Tensor::stack(&[data.stop_eval_images()[0].clone()]).unwrap();
    let second_index = builder.config().second_conv_layer_index();

    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("second_layer_band_energy", |b| {
        b.iter(|| {
            let maps = net
                .activation(&batch, second_index)
                .unwrap()
                .batch_item(0)
                .unwrap();
            let mut acc = 0.0;
            for ch in 0..maps.dims()[0] {
                let map = maps.channel(ch).unwrap();
                if map.l2_norm() > 0.0 {
                    acc += high_frequency_ratio(&map, 0.5).unwrap();
                }
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
