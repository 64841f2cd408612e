//! Property-based integration tests on the defense and attack invariants
//! that hold regardless of training: masks confine perturbations, filters
//! only remove energy, smoothing never changes tensor ranges, and the
//! input and parameter gradients — with and without the TV regularizer's
//! feature-map injection — match their finite differences end-to-end.

use blurnet_defenses::{filter_image, training_gradients, FeatureRegularizer};
use blurnet_nn::{softmax_cross_entropy, Layer, LayerKind, Sequential};
use blurnet_signal::{box_kernel, gaussian_kernel, total_variation};
use blurnet_tensor::Tensor;
use blurnet_test_support::{canned_sticker_mask, tiny_lisa_builder, tiny_lisa_net, uniform_batch};
use proptest::prelude::*;

fn image_strategy(size: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(0.0f32..1.0, 3 * size * size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blurring never increases the total variation of any channel.
    #[test]
    fn blurring_never_increases_total_variation(data in image_strategy(16), kernel in prop_oneof![Just(3usize), Just(5)]) {
        let image = Tensor::from_vec(data, &[3, 16, 16]).unwrap();
        let blurred = filter_image(&image, kernel).unwrap();
        for ch in 0..3 {
            let before = total_variation(&image.channel(ch).unwrap()).unwrap();
            let after = total_variation(&blurred.channel(ch).unwrap()).unwrap();
            prop_assert!(after <= before + 1e-3, "channel {}: {} -> {}", ch, before, after);
        }
    }

    /// Blur kernels are doubly stochastic enough to preserve the mean of a
    /// constant image away from borders and never push values outside the
    /// input range.
    #[test]
    fn blurring_respects_value_range(data in image_strategy(12)) {
        let image = Tensor::from_vec(data, &[3, 12, 12]).unwrap();
        let blurred = filter_image(&image, 3).unwrap();
        prop_assert!(blurred.min().unwrap() >= image.min().unwrap() - 1e-5);
        prop_assert!(blurred.max().unwrap() <= image.max().unwrap() + 1e-5);
    }

    /// Sticker masks confine masked perturbations: applying a mask to any
    /// perturbation leaves non-masked pixels untouched.
    #[test]
    fn masked_perturbations_stay_on_the_sticker(data in image_strategy(16), scale in 0.1f32..1.0) {
        let mask = canned_sticker_mask();
        let image = Tensor::from_vec(data, &[3, 16, 16]).unwrap();
        // Broadcast the mask over channels and apply a scaled perturbation.
        let mut perturbed = image.clone();
        for ch in 0..3 {
            for y in 0..16 {
                for x in 0..16 {
                    if mask.get(&[y, x]).unwrap() > 0.5 {
                        let v = perturbed.get(&[ch, y, x]).unwrap();
                        perturbed.set(&[ch, y, x], (v + scale).min(1.0)).unwrap();
                    }
                }
            }
        }
        for ch in 0..3 {
            for y in 0..16 {
                for x in 0..16 {
                    if mask.get(&[y, x]).unwrap() < 0.5 {
                        prop_assert_eq!(
                            perturbed.get(&[ch, y, x]).unwrap(),
                            image.get(&[ch, y, x]).unwrap()
                        );
                    }
                }
            }
        }
    }

    /// Gaussian and box kernels always sum to one, regardless of size/sigma.
    #[test]
    fn kernels_are_normalized(k in prop_oneof![Just(3usize), Just(5), Just(7)], sigma in 0.3f32..3.0) {
        prop_assert!((box_kernel(k).sum() - 1.0).abs() < 1e-4);
        prop_assert!((gaussian_kernel(k, sigma).sum() - 1.0).abs() < 1e-4);
    }

    /// The classifier's loss gradient with respect to the input matches a
    /// finite-difference estimate through the whole network, for arbitrary
    /// inputs (the property every attack in this repo depends on).
    #[test]
    fn input_gradients_match_finite_differences(seed in 0u64..50, pixel in 0usize..(3 * 16 * 16)) {
        let net = tiny_lisa_net(seed);
        let image = uniform_batch(&[1, 3, 16, 16], 0.05, 0.95, !seed);
        let label = [3usize];
        let grad = net
            .batch_engine()
            .unwrap()
            .forward_backward_batch(&image, &label)
            .unwrap()
            .input_grad;

        let eps = 1e-2f32;
        let mut plus = image.clone();
        plus.data_mut()[pixel] += eps;
        let mut minus = image.clone();
        minus.data_mut()[pixel] -= eps;
        let (lp, _) = softmax_cross_entropy(&net.forward_batch(&plus).unwrap(), &label).unwrap();
        let (lm, _) = softmax_cross_entropy(&net.forward_batch(&minus).unwrap(), &label).unwrap();
        let numeric = (lp - lm) / (2.0 * eps);
        prop_assert!(
            (numeric - grad.data()[pixel]).abs() < 5e-2,
            "pixel {}: numeric {} vs analytic {}",
            pixel,
            numeric,
            grad.data()[pixel]
        );
    }
}

/// The training objective the parameter-gradient checks differentiate:
/// softmax cross-entropy plus the regularizer's penalty.
fn objective(net: &Sequential, x: &Tensor, labels: &[usize], reg: &FeatureRegularizer) -> f32 {
    let (ce, _) = softmax_cross_entropy(&net.forward_batch(x).unwrap(), labels).unwrap();
    let feature = reg.feature_layer().map(|i| net.activation(x, i).unwrap());
    ce + reg.apply(net, feature.as_ref()).unwrap().value
}

/// The parameter gradients of one training step over the same objective.
fn training_pass(
    net: &Sequential,
    x: &Tensor,
    labels: &[usize],
    reg: &FeatureRegularizer,
) -> Vec<Tensor> {
    training_gradients(net, reg, &mut Vec::new(), x, labels)
        .unwrap()
        .1
}

/// Central-difference check of every parameter tensor's gradient at a
/// few entries (first, middle, last), perturbing through
/// `Sequential::params_mut`.
///
/// `eps` is 3e-4: at 1e-3 a conv2 bias step already crosses ReLU and
/// max-pool kinks (seed 11, conv2 bias entry 15 reads -0.0108 against an
/// analytic -0.0131, and -0.0131 from 3e-4 down), while f32 rounding of a
/// loss near 3 keeps the central difference within about 1e-3 at this
/// step.
fn check_param_grads(net: &Sequential, x: &Tensor, labels: &[usize], reg: &FeatureRegularizer) {
    let grads = training_pass(net, x, labels, reg);
    assert_eq!(grads.len(), net.params().len());
    let eps = 3e-4f32;
    for (p, grad) in grads.iter().enumerate() {
        let len = grad.len();
        for idx in [0, len / 2, len - 1] {
            let mut probe = net.clone();
            probe.params_mut()[p].data_mut()[idx] += eps;
            let f_plus = objective(&probe, x, labels, reg);
            probe.params_mut()[p].data_mut()[idx] -= 2.0 * eps;
            let f_minus = objective(&probe, x, labels, reg);
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grad.data()[idx];
            assert!(
                (numeric - analytic).abs() <= 2e-3 + 2e-2 * analytic.abs(),
                "param {p} entry {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}

/// A network with every parameterised layer kind: conv1 at stride 2, a
/// trainable depthwise layer, conv2 and conv3 at stride 1, and the dense
/// head.
fn every_layer_kind_net(seed: u64) -> Sequential {
    let net = tiny_lisa_builder()
        .with_trainable_depthwise(3)
        .build(&mut blurnet_test_support::seeded_rng(seed))
        .unwrap();
    let kinds: Vec<(&str, usize)> = net
        .iter()
        .filter(|l| !l.params().is_empty())
        .map(|l| match l {
            LayerKind::Conv2d(c) => (l.name(), c.spec().stride),
            _ => (l.name(), 1),
        })
        .collect();
    assert_eq!(
        kinds,
        [
            ("conv2d", 2),
            ("depthwise_conv2d", 1),
            ("conv2d", 1),
            ("conv2d", 1),
            ("dense", 1)
        ]
    );
    net
}

#[test]
fn parameter_gradients_match_finite_differences() {
    let net = every_layer_kind_net(11);
    let x = uniform_batch(&[2, 3, 16, 16], 0.05, 0.95, 12);
    check_param_grads(&net, &x, &[3, 7], &FeatureRegularizer::None);
}

#[test]
fn parameter_gradients_with_tv_injection_match_finite_differences() {
    let net = every_layer_kind_net(13);
    let x = uniform_batch(&[2, 3, 16, 16], 0.05, 0.95, 14);
    let reg = FeatureRegularizer::TotalVariation {
        alpha: 1e-2,
        layer_index: 0,
    };
    // The injection reaches conv1's gradients and nothing else's.
    let plain = training_pass(&net, &x, &[3, 7], &FeatureRegularizer::None);
    let with_tv = training_pass(&net, &x, &[3, 7], &reg);
    assert_ne!(plain[0], with_tv[0]);
    assert_eq!(plain[2..], with_tv[2..]);
    check_param_grads(&net, &x, &[3, 7], &reg);
}
