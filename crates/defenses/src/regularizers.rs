//! Training-time regularizers that push the first convolution towards
//! low-pass behaviour.
//!
//! Three families from Section IV of the paper:
//!
//! * **L∞ on depthwise kernels** (Eq. 2) — encourages the inserted
//!   depthwise layer's taps to take similar (small) values, i.e. to act
//!   like a blur;
//! * **total variation of the feature maps** (Eq. 4) — penalizes spatial
//!   spikes in the first-layer activations directly;
//! * **generalized Tikhonov** (Eq. 6–7) — quadratic penalties `‖L·F‖²`
//!   with a high-frequency-extracting or pseudoinverse-difference operator.

use blurnet_nn::{LayerKind, LisaCnnConfig, Sequential};
use blurnet_signal::{total_variation_batch, tv_gradient_batch, OperatorPenalty};
use blurnet_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::{DefenseError, DefenseKind, Result};

/// A regularizer evaluated (and differentiated) every training step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FeatureRegularizer {
    /// No extra loss term.
    None,
    /// `α Σ_j ‖W_depthwise[:,:,j]‖∞` on the inserted depthwise layer.
    LinfDepthwise {
        /// Regularization strength.
        alpha: f32,
        /// Index of the depthwise layer in the network.
        layer_index: usize,
    },
    /// `α_TV / (N·K) Σ TV(F)` on the feature maps at `layer_index`.
    TotalVariation {
        /// Regularization strength.
        alpha: f32,
        /// Index of the activation the penalty applies to.
        layer_index: usize,
    },
    /// `α / (N·K) Σ ‖L·F‖²` on the feature maps at `layer_index`.
    Operator {
        /// Regularization strength.
        alpha: f32,
        /// Index of the activation the penalty applies to.
        layer_index: usize,
        /// The operator penalty (`L_hf` or `L_diff⁺`).
        penalty: OperatorPenalty,
    },
}

impl FeatureRegularizer {
    /// Builds the regularizer matching a [`DefenseKind`] for a network with
    /// the given architecture. Defenses without a training-time feature
    /// regularizer map to [`FeatureRegularizer::None`].
    ///
    /// # Errors
    ///
    /// Returns an error if the defense parameters are invalid for the
    /// architecture (e.g. a Tikhonov window wider than the feature maps).
    pub fn from_defense(defense: &DefenseKind, arch: &LisaCnnConfig) -> Result<Self> {
        let feature_index = arch.feature_layer_index();
        let extent = arch.feature_map_extent();
        match defense {
            DefenseKind::DepthwiseLinf { alpha, .. } => {
                let layer_index = arch.filter_layer_index().ok_or_else(|| {
                    DefenseError::BadConfig(
                        "DepthwiseLinf defense requires a depthwise filter layer".into(),
                    )
                })?;
                Ok(FeatureRegularizer::LinfDepthwise {
                    alpha: *alpha,
                    layer_index,
                })
            }
            DefenseKind::TotalVariation { alpha } => Ok(FeatureRegularizer::TotalVariation {
                alpha: *alpha,
                layer_index: feature_index,
            }),
            DefenseKind::TikhonovHf { alpha, window } => Ok(FeatureRegularizer::Operator {
                alpha: *alpha,
                layer_index: feature_index,
                penalty: OperatorPenalty::high_frequency(extent, *window)?,
            }),
            DefenseKind::TikhonovPseudo { alpha } => Ok(FeatureRegularizer::Operator {
                alpha: *alpha,
                layer_index: feature_index,
                penalty: OperatorPenalty::pseudo_difference(extent, 1e-3)?,
            }),
            _ => Ok(FeatureRegularizer::None),
        }
    }

    /// The layer whose output activation the regularizer penalizes — the
    /// feature layer a training pass must collect — or `None` for
    /// regularizers that need no activation.
    pub fn feature_layer(&self) -> Option<usize> {
        match self {
            FeatureRegularizer::TotalVariation { layer_index, .. }
            | FeatureRegularizer::Operator { layer_index, .. } => Some(*layer_index),
            FeatureRegularizer::None | FeatureRegularizer::LinfDepthwise { .. } => None,
        }
    }

    /// Evaluates the regularizer for the current step of `net`, given the
    /// activation collected at [`FeatureRegularizer::feature_layer`].
    ///
    /// Feature penalties return their gradient as an injection at that
    /// activation; the L∞ penalty returns its sub-gradient for the
    /// depthwise layer's kernels as a weight gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if the L∞ layer index does not name a trainable
    /// depthwise layer, if a feature penalty gets no activation, or if the
    /// activation's shape does not fit the penalty.
    pub fn apply(&self, net: &Sequential, feature: Option<&Tensor>) -> Result<RegularizerTerm> {
        match self {
            FeatureRegularizer::None => Ok(RegularizerTerm::default()),
            FeatureRegularizer::LinfDepthwise { alpha, layer_index } => {
                let Some(LayerKind::Depthwise(depthwise)) = net.layer(*layer_index) else {
                    return Err(DefenseError::BadConfig(format!(
                        "layer {layer_index} is not a depthwise layer"
                    )));
                };
                if !depthwise.is_trainable() {
                    return Err(DefenseError::BadConfig(format!(
                        "depthwise layer {layer_index} is a fixed blur, not trainable"
                    )));
                }
                Ok(RegularizerTerm {
                    value: alpha * depthwise.linf_penalty(),
                    injection: None,
                    weight_grad: Some((*layer_index, depthwise.linf_penalty_grad().scale(*alpha))),
                })
            }
            FeatureRegularizer::TotalVariation { alpha, layer_index } => {
                let feature = collected(feature, *layer_index)?;
                Ok(RegularizerTerm {
                    value: alpha * total_variation_batch(feature)?,
                    injection: Some(tv_gradient_batch(feature)?.scale(*alpha)),
                    weight_grad: None,
                })
            }
            FeatureRegularizer::Operator {
                alpha,
                layer_index,
                penalty,
            } => {
                let feature = collected(feature, *layer_index)?;
                Ok(RegularizerTerm {
                    value: alpha * penalty.value_batch(feature)?,
                    injection: Some(penalty.grad_batch(feature)?.scale(*alpha)),
                    weight_grad: None,
                })
            }
        }
    }
}

/// One step's evaluated regularizer: its value and its gradient, either
/// at the feature layer's output or at one layer's weight.
#[derive(Debug, Default)]
pub struct RegularizerTerm {
    /// The penalty value, already scaled by α.
    pub value: f32,
    /// Gradient at the feature layer's output (TV and Tikhonov).
    pub injection: Option<Tensor>,
    /// Gradient with respect to one layer's weight, keyed by layer index
    /// (L∞ on the depthwise kernels).
    pub weight_grad: Option<(usize, Tensor)>,
}

fn collected(feature: Option<&Tensor>, index: usize) -> Result<&Tensor> {
    feature.ok_or_else(|| {
        DefenseError::BadConfig(format!("no feature activation collected at layer {index}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training_gradients;
    use blurnet_nn::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_builder(defense: &DefenseKind) -> LisaCnn {
        let base = LisaCnn::new(18).input_size(16).conv1_filters(4);
        match defense {
            DefenseKind::DepthwiseLinf { kernel, .. } => base.with_trainable_depthwise(*kernel),
            _ => base,
        }
    }

    #[test]
    fn mapping_from_defense_kinds() {
        let arch_plain = tiny_builder(&DefenseKind::Baseline).config().clone();
        assert!(matches!(
            FeatureRegularizer::from_defense(&DefenseKind::Baseline, &arch_plain).unwrap(),
            FeatureRegularizer::None
        ));
        assert!(matches!(
            FeatureRegularizer::from_defense(
                &DefenseKind::TotalVariation { alpha: 1e-4 },
                &arch_plain
            )
            .unwrap(),
            FeatureRegularizer::TotalVariation { .. }
        ));
        assert!(matches!(
            FeatureRegularizer::from_defense(
                &DefenseKind::TikhonovHf {
                    alpha: 1e-4,
                    window: 3
                },
                &arch_plain
            )
            .unwrap(),
            FeatureRegularizer::Operator { .. }
        ));
        // DepthwiseLinf needs the filter layer to exist.
        assert!(FeatureRegularizer::from_defense(
            &DefenseKind::DepthwiseLinf {
                kernel: 5,
                alpha: 0.1
            },
            &arch_plain
        )
        .is_err());
        let defense = DefenseKind::DepthwiseLinf {
            kernel: 5,
            alpha: 0.1,
        };
        let arch_dw = tiny_builder(&defense).config().clone();
        assert!(matches!(
            FeatureRegularizer::from_defense(&defense, &arch_dw).unwrap(),
            FeatureRegularizer::LinfDepthwise { .. }
        ));
    }

    #[test]
    fn tv_regularizer_produces_injection_with_feature_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let builder = tiny_builder(&DefenseKind::Baseline);
        let net = builder.build(&mut rng).unwrap();
        let reg = FeatureRegularizer::from_defense(
            &DefenseKind::TotalVariation { alpha: 1e-2 },
            builder.config(),
        )
        .unwrap();
        let layer = reg.feature_layer().expect("TV reads an activation");
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let feature = net.activation(&x, layer).unwrap();
        let term = reg.apply(&net, Some(&feature)).unwrap();
        assert!(term.value > 0.0);
        assert_eq!(term.injection.unwrap().dims(), feature.dims());
        assert!(term.weight_grad.is_none());
    }

    #[test]
    fn linf_regularizer_accumulates_into_depthwise_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let defense = DefenseKind::DepthwiseLinf {
            kernel: 3,
            alpha: 0.5,
        };
        let builder = tiny_builder(&defense);
        let net = builder.build(&mut rng).unwrap();
        let reg = FeatureRegularizer::from_defense(&defense, builder.config()).unwrap();
        assert_eq!(reg.feature_layer(), None);
        let term = reg.apply(&net, None).unwrap();
        assert!(term.value > 0.0);
        assert!(term.injection.is_none());
        let layer_index = builder.config().filter_layer_index().unwrap();
        let (layer, linf) = term.weight_grad.expect("L∞ is a weight gradient");
        assert_eq!(layer, layer_index);
        assert!(linf.l1_norm() > 0.0);
        // A training step adds the L∞ term to the depthwise weight
        // gradient (after conv1's weight and bias in params order) and
        // leaves every other gradient alone.
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let labels = [1usize, 5];
        let (plain_loss, mut expected) = training_gradients(
            &net,
            &FeatureRegularizer::None,
            &mut Vec::new(),
            &x,
            &labels,
        )
        .unwrap();
        let (loss, grads) = training_gradients(&net, &reg, &mut Vec::new(), &x, &labels).unwrap();
        assert_eq!(loss, plain_loss + term.value);
        let LayerKind::Depthwise(dw) = net.layer(layer_index).unwrap() else {
            panic!("expected depthwise layer");
        };
        assert_eq!(grads[2].dims(), dw.weight().dims());
        expected[2].add_scaled(&linf, 1.0).unwrap();
        assert_eq!(grads, expected);
    }

    #[test]
    fn operator_regularizer_injection_matches_feature_extent() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let builder = tiny_builder(&DefenseKind::Baseline);
        let net = builder.build(&mut rng).unwrap();
        let reg = FeatureRegularizer::from_defense(
            &DefenseKind::TikhonovPseudo { alpha: 1e-3 },
            builder.config(),
        )
        .unwrap();
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let feature = net.activation(&x, reg.feature_layer().unwrap()).unwrap();
        let term = reg.apply(&net, Some(&feature)).unwrap();
        assert!(term.value >= 0.0);
        assert_eq!(term.injection.unwrap().dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn bad_indices_are_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = LisaCnn::new(4)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let reg = FeatureRegularizer::TotalVariation {
            alpha: 1.0,
            layer_index: 42,
        };
        assert!(reg.apply(&net, None).is_err());
        // The training pass rejects the out-of-range feature layer itself.
        let x = Tensor::zeros(&[1, 3, 16, 16]);
        assert!(training_gradients(&net, &reg, &mut Vec::new(), &x, &[0]).is_err());
        let reg = FeatureRegularizer::LinfDepthwise {
            alpha: 1.0,
            layer_index: 0,
        };
        // Layer 0 is a Conv2d, not a depthwise layer.
        assert!(reg.apply(&net, None).is_err());
        // A fixed blur has no weight gradient to take the L∞ term.
        let blurred = LisaCnn::new(4)
            .input_size(16)
            .conv1_filters(4)
            .with_fixed_blur(blurnet_signal::box_kernel(3))
            .build(&mut rng)
            .unwrap();
        let reg = FeatureRegularizer::LinfDepthwise {
            alpha: 1.0,
            layer_index: 1,
        };
        assert!(reg.apply(&blurred, None).is_err());
    }
}
