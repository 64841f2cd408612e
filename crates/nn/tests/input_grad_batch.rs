//! Property tests pinning the batched attack gradient to the per-image
//! training backward.
//!
//! The contract under test (see `engine.rs`): `input_grad_batch` is
//! **bit-identical across thread counts** — the shard partition depends
//! only on the batch size — and agrees with the training pass
//! (`forward_backward_params`, whose backward runs the full conv and
//! depthwise backward kernels) run image by image to ≤ 1e-6 per element
//! (in practice the input-gradient kernels keep the full backward's
//! accumulation order, so they are bitwise equal; the tolerance is the
//! acceptance criterion).

use blurnet_nn::{GradBatch, Sequential, ShardGrad};
use blurnet_tensor::Tensor;
use blurnet_test_support::{tiny_lisa_net, uniform_batch};
use proptest::prelude::*;

/// Batch sizes the acceptance criteria name explicitly.
const BATCH_SIZES: [usize; 3] = [1, 3, 8];
/// Thread counts the acceptance criteria name explicitly.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The training pass over `image` with a fixed logit gradient.
fn training_pass(net: &Sequential, image: &Tensor, d_logits: Tensor, loss: f32) -> GradBatch {
    net.batch_engine()
        .expect("engine builds")
        .forward_backward_params(image, None, &mut Vec::new(), |_, _, _| {
            Ok(ShardGrad {
                d_logits,
                injection: None,
                loss,
            })
        })
        .expect("training pass")
}

/// Per-image training reference: run the training pass on each image
/// alone with its grad_output row, stack the input gradients.
fn per_image_backward(net: &Sequential, batch: &Tensor, grad_output: &Tensor) -> Tensor {
    let n = batch.dims()[0];
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        let image = batch.batch_slice(i, 1).expect("index in range");
        let row = grad_output.batch_slice(i, 1).expect("index in range");
        parts.push(training_pass(net, &image, row, 0.0).input_grad);
    }
    Tensor::concat_batch(&parts).expect("uniform gradient shapes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// input_grad_batch: bitwise equal across thread counts, ≤ 1e-6 vs the
    /// per-image training backward, for every batch size.
    #[test]
    fn input_grad_batch_matches_training_backward(
        net_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let net = tiny_lisa_net(net_seed);
        for (offset, &batch_size) in BATCH_SIZES.iter().enumerate() {
            let case_seed = data_seed ^ (offset as u64) << 32;
            let batch = uniform_batch(&[batch_size, 3, 16, 16], 0.0, 1.0, case_seed);
            let grad_output = uniform_batch(&[batch_size, 18], -1.0, 1.0, !case_seed);
            let reference = per_image_backward(&net, &batch, &grad_output);

            let mut per_thread = Vec::new();
            for &threads in &THREAD_COUNTS {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool builds");
                per_thread.push(pool.install(|| {
                    net.input_grad_batch(&batch, &grad_output)
                        .expect("input_grad_batch")
                }));
            }
            // Bitwise equality across thread counts, not a tolerance.
            prop_assert_eq!(
                per_thread[0].data(),
                per_thread[1].data(),
                "batch {} threads {:?}",
                batch_size,
                THREAD_COUNTS
            );
            prop_assert_eq!(per_thread[0].dims(), reference.dims());
            // ≤ 1e-6 vs the per-image training backward.
            for (i, (a, b)) in per_thread[0]
                .data()
                .iter()
                .zip(reference.data().iter())
                .enumerate()
            {
                prop_assert!(
                    (a - b).abs() <= 1e-6,
                    "batch {} element {}: batched {} vs training {}",
                    batch_size,
                    i,
                    a,
                    b
                );
            }
        }
    }

    /// The cross-entropy convenience wrapper agrees with the training pass
    /// under softmax_cross_entropy, image by image.
    #[test]
    fn forward_backward_batch_matches_per_image_cross_entropy(seed in 0u64..1000) {
        let net = tiny_lisa_net(seed);
        let batch = uniform_batch(&[4, 3, 16, 16], 0.0, 1.0, seed ^ 0x5EED);
        let labels = [1usize, 5, 9, 17];
        let engine = net.batch_engine().expect("engine builds");
        let got = engine
            .forward_backward_batch(&batch, &labels)
            .expect("forward_backward_batch");
        for i in 0..4 {
            let image = batch.batch_slice(i, 1).expect("index in range");
            let logits = net.forward_batch(&image).expect("forward succeeds");
            let (loss, d_logits) =
                blurnet_nn::softmax_cross_entropy(&logits, &labels[i..i + 1])
                    .expect("cross entropy");
            let reference = training_pass(&net, &image, d_logits, loss).input_grad;
            prop_assert!((got.shard_losses[i] - loss).abs() <= 1e-6);
            let row = got
                .input_grad
                .batch_slice(i, 1)
                .expect("index in range");
            for (a, b) in row.data().iter().zip(reference.data().iter()) {
                prop_assert!((a - b).abs() <= 1e-6, "{} vs {}", a, b);
            }
        }
    }
}
