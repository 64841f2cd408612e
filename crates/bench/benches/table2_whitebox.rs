//! Benchmarks the Table II kernel: one white-box RP2 evaluation against a
//! TV-regularized model, plus one regularized training step.

use blurnet_attacks::{Rp2Attack, Rp2Config};
use blurnet_data::{DatasetConfig, SignDataset};
use blurnet_defenses::{train_step, DefenseKind, FeatureRegularizer};
use blurnet_nn::{Adam, LisaCnn};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_table2(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let builder = LisaCnn::new(18).input_size(16).conv1_filters(4);
    let mut net = builder.build(&mut rng).unwrap();
    let mut cfg = DatasetConfig::tiny();
    cfg.image_size = 16;
    let data = SignDataset::generate(&cfg, 2).unwrap();
    let image = data.stop_eval_images()[0].clone();
    let attack = Rp2Attack::new(Rp2Config {
        iterations: 5,
        num_transforms: 2,
        ..Rp2Config::default()
    })
    .unwrap();

    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("whitebox_rp2_single_image", |b| {
        b.iter(|| attack.generate(&net, &image, 3).unwrap());
    });

    // One TV-regularized training step (the extra cost every Table II row
    // with a feature regularizer pays per batch).
    let regularizer = FeatureRegularizer::from_defense(
        &DefenseKind::TotalVariation { alpha: 1e-4 },
        builder.config(),
    )
    .unwrap();
    let mut adam = Adam::new(1e-3).unwrap();
    let mut rng2 = ChaCha8Rng::seed_from_u64(3);
    let batch = data.train_batches(8, &mut rng2).unwrap().remove(0);
    let mut tape = Vec::new();
    group.bench_function("tv_regularized_training_step", |b| {
        b.iter(|| {
            train_step(
                &mut net,
                &regularizer,
                &mut adam,
                &mut tape,
                &batch.images,
                &batch.labels,
            )
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
