//! Property tests pinning the batch-parallel inference engine to the
//! per-sample forward path.
//!
//! The contract under test (see `engine.rs`): `forward_batch` is
//! **bit-identical** — not merely close — to stacking the results of
//! per-sample layer-by-layer walks, across batch sizes {1, 3, 8} and rayon
//! thread counts {1, 4}. Equality is checked with `==` on the raw `f32`
//! buffers; any reordering of a floating-point accumulation would fail.

use blurnet_nn::{loss, Sequential, ShardGrad};
use blurnet_tensor::Tensor;
use blurnet_test_support::{tiny_lisa_net, uniform_batch};
use proptest::prelude::*;

/// Batch sizes the acceptance criteria name explicitly.
const BATCH_SIZES: [usize; 3] = [1, 3, 8];
/// Thread counts the acceptance criteria name explicitly.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Per-sample reference: walk the layers over each image alone and stack
/// the logits.
fn per_sample_forward(net: &Sequential, batch: &Tensor) -> Tensor {
    let n = batch.dims()[0];
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        let image = batch.batch_slice(i, 1).expect("index in range");
        parts.push(
            net.activation(&image, net.len() - 1)
                .expect("forward succeeds"),
        );
    }
    Tensor::concat_batch(&parts).expect("uniform logit shapes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// forward_batch == per-sample forward loop, bitwise, for every batch
    /// size and thread count combination.
    #[test]
    fn forward_batch_is_bit_identical_to_per_sample_loops(
        net_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let net = tiny_lisa_net(net_seed);
        for (offset, &batch_size) in BATCH_SIZES.iter().enumerate() {
            let batch = uniform_batch(
                &[batch_size, 3, 16, 16],
                0.0,
                1.0,
                data_seed ^ (offset as u64) << 32,
            );
            let reference = per_sample_forward(&net, &batch);
            for &threads in &THREAD_COUNTS {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool builds");
                let batched = pool.install(|| net.forward_batch(&batch).expect("forward_batch"));
                // Bitwise equality on the raw buffers, not a tolerance.
                prop_assert_eq!(
                    batched.data(),
                    reference.data(),
                    "batch {} threads {}",
                    batch_size,
                    threads
                );
                prop_assert_eq!(batched.dims(), reference.dims());
            }
        }
    }

    /// predict_batch agrees with the stateful (training) pass's logits
    /// under both thread counts (argmax on bit-identical logits can never
    /// diverge).
    #[test]
    fn predict_batch_matches_stateful_predict(seed in 0u64..1000) {
        let net = tiny_lisa_net(seed);
        let batch = uniform_batch(&[8, 3, 16, 16], 0.0, 1.0, seed ^ 0xBADC0DE);
        let training = net
            .batch_engine()
            .expect("engine builds")
            .forward_backward_params(&batch, None, &mut Vec::new(), |_, logits, _| {
                Ok(ShardGrad {
                    d_logits: Tensor::zeros(logits.dims()),
                    injection: None,
                    loss: 0.0,
                })
            })
            .expect("training pass");
        let expected = loss::predictions(&training.logits).expect("predict succeeds");
        for &threads in &THREAD_COUNTS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds");
            let got = pool.install(|| net.predict_batch(&batch).expect("predict_batch"));
            prop_assert_eq!(&got, &expected, "threads {}", threads);
        }
    }
}
