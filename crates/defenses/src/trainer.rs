//! Training loop that realizes every defense's training regime.
//!
//! All models share the paper's recipe — Adam with β₁ = 0.9, β₂ = 0.999,
//! ε = 1e-8 on softmax cross-entropy — and differ only in:
//!
//! * the architecture (fixed or trainable depthwise filter layer),
//! * input preprocessing (input blur, Gaussian augmentation, PGD examples
//!   for adversarial training), and
//! * extra loss terms (L∞ / TV / Tikhonov regularizers).

use blurnet_attacks::{PgdAttack, PgdConfig};
use blurnet_data::SignDataset;
use blurnet_nn::{
    softmax_cross_entropy, Adam, Layer, LisaCnn, LisaCnnConfig, NnError, Optimizer, Sequential,
    ShardGrad, TapeSlot,
};
use blurnet_signal::box_kernel;
use blurnet_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::augment::gaussian_augment;
use crate::filtering::filter_images;
use crate::model::{DefendedModel, TrainingReport};
use crate::regularizers::FeatureRegularizer;
use crate::{DefenseError, DefenseKind, Result};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed controlling weight initialization, shuffling and augmentation.
    pub seed: u64,
}

impl TrainConfig {
    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            learning_rate: 2e-3,
            seed: 7,
        }
    }

    /// The default configuration used by the reproduced experiments.
    pub fn standard() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            learning_rate: 1.5e-3,
            seed: 7,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(DefenseError::BadConfig(
                "epochs and batch size must be non-zero".into(),
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(DefenseError::BadConfig(
                "learning rate must be positive".into(),
            ));
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::standard()
    }
}

/// Builds the architecture a defense requires, without training it.
///
/// # Errors
///
/// Returns an error for invalid defense parameters.
pub fn build_architecture(
    defense: &DefenseKind,
    image_size: usize,
    num_classes: usize,
    seed: u64,
) -> Result<(Sequential, LisaCnnConfig)> {
    defense.validate()?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = LisaCnn::new(num_classes).input_size(image_size);
    let builder = match defense {
        DefenseKind::FeatureFilter { kernel } => base.with_fixed_blur(box_kernel(*kernel)),
        DefenseKind::DepthwiseLinf { kernel, .. } => base.with_trainable_depthwise(*kernel),
        _ => base,
    };
    let net = builder.build(&mut rng)?;
    let arch = builder.config().clone();
    Ok((net, arch))
}

/// Trains a defended model on the dataset with the given configuration.
///
/// # Errors
///
/// Returns an error for invalid defense or training parameters, or if a
/// numerical step fails.
pub fn train_defended_model(
    defense: &DefenseKind,
    dataset: &SignDataset,
    config: &TrainConfig,
) -> Result<DefendedModel> {
    config.validate()?;
    let (mut net, arch) = build_architecture(
        defense,
        dataset.image_size(),
        dataset.num_classes(),
        config.seed,
    )?;
    let regularizer = FeatureRegularizer::from_defense(defense, &arch)?;
    let mut optimizer = Adam::new(config.learning_rate)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));

    // Adversarial training generates PGD examples on the fly.
    let pgd = match defense {
        DefenseKind::AdversarialTraining {
            epsilon,
            step_size,
            steps,
        } => Some(PgdAttack::new(PgdConfig {
            epsilon: *epsilon,
            step_size: *step_size,
            steps: *steps,
            random_start: true,
        })?),
        _ => None,
    };

    // One training tape for the whole run: each step overwrites it.
    let mut tape = Vec::new();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f32;
        let mut batch_count = 0usize;
        for batch in dataset.train_batches(config.batch_size, &mut rng)? {
            let images = prepare_batch_inputs(
                defense,
                &batch.images,
                &batch.labels,
                &net,
                pgd.as_ref(),
                &mut rng,
            )?;

            epoch_loss += train_step(
                &mut net,
                &regularizer,
                &mut optimizer,
                &mut tape,
                &images,
                &batch.labels,
            )?;
            batch_count += 1;
        }
        epoch_losses.push(epoch_loss / batch_count.max(1) as f32);
    }

    // Legitimate accuracy through the defended prediction path.
    let report = TrainingReport {
        epoch_losses,
        test_accuracy: 0.0,
    };
    let mut model = DefendedModel::new(net, defense.clone(), arch, report);
    let test_accuracy = model.accuracy(&dataset.test_batch()?)?;
    let report = TrainingReport {
        epoch_losses: model.training_report().epoch_losses.clone(),
        test_accuracy,
    };
    Ok(DefendedModel::new(
        model.network().clone(),
        defense.clone(),
        model.arch().clone(),
        report,
    ))
}

/// One optimizer step on a mini-batch: [`training_gradients`], then
/// `optimizer` applies them. `tape` holds the training pass's records;
/// pass the same one to every step of a run (see
/// [`blurnet_nn::BatchEngine::forward_backward_params`]). Returns the
/// step's loss, cross-entropy plus penalty.
///
/// # Errors
///
/// Returns an error if the batch does not fit the network, the labels do
/// not match the batch, or the regularizer does not fit the network.
pub fn train_step<O: Optimizer + ?Sized>(
    net: &mut Sequential,
    regularizer: &FeatureRegularizer,
    optimizer: &mut O,
    tape: &mut Vec<TapeSlot>,
    images: &Tensor,
    labels: &[usize],
) -> Result<f32> {
    let (loss, grads) = training_gradients(net, regularizer, tape, images, labels)?;
    let mut pairs: Vec<_> = net.params_mut().into_iter().zip(&grads).collect();
    optimizer.step(&mut pairs)?;
    Ok(loss)
}

/// The loss of one training step on a mini-batch (softmax cross-entropy
/// plus the regularizer's penalty) and its gradient with respect to every
/// parameter of `net`, in [`Sequential::params`] order. One training pass
/// through the batch engine, with the regularizer's feature gradient
/// injected at its feature layer; the L∞ term's weight gradient is then
/// added to its layer's weight gradient.
///
/// # Errors
///
/// Returns an error if the batch does not fit the network, the labels do
/// not match the batch, or the regularizer does not fit the network.
pub fn training_gradients(
    net: &Sequential,
    regularizer: &FeatureRegularizer,
    tape: &mut Vec<TapeSlot>,
    images: &Tensor,
    labels: &[usize],
) -> Result<(f32, Vec<Tensor>)> {
    let mut weight_grad = None;
    let mut step = net.batch_engine()?.forward_backward_params(
        images,
        regularizer.feature_layer(),
        tape,
        |_, logits, feature| {
            let (ce, d_logits) = softmax_cross_entropy(logits, labels)?;
            let term = regularizer
                .apply(net, feature)
                .map_err(|e| NnError::BadConfig(e.to_string()))?;
            weight_grad = term.weight_grad;
            Ok(ShardGrad {
                d_logits,
                injection: term.injection,
                loss: ce + term.value,
            })
        },
    )?;
    if let Some((layer, grad)) = weight_grad {
        // A layer's weight is its first parameter.
        let index = net
            .iter()
            .take(layer)
            .map(|l| l.params().len())
            .sum::<usize>();
        step.param_grads[index].add_scaled(&grad, 1.0)?;
    }
    Ok((step.shard_losses[0], step.param_grads))
}

/// Applies the defense's training-time input pipeline to one batch.
fn prepare_batch_inputs(
    defense: &DefenseKind,
    images: &Tensor,
    labels: &[usize],
    net: &Sequential,
    pgd: Option<&PgdAttack>,
    rng: &mut ChaCha8Rng,
) -> Result<Tensor> {
    match defense {
        DefenseKind::InputFilter { kernel } => filter_images(images, *kernel),
        DefenseKind::GaussianAugmentation { sigma }
        | DefenseKind::RandomizedSmoothing { sigma, .. } => gaussian_augment(images, *sigma, rng),
        DefenseKind::AdversarialTraining { .. } => {
            let attack = pgd.expect("PGD attack configured for adversarial training");
            // Half the batch is replaced with adversarial examples (the
            // paper trains 50% clean / 50% adversarial). The even-index
            // half is gathered into one sub-batch so every PGD step runs
            // as a single batched gradient pass through the immutable
            // engine, then scattered back over the clean images.
            let n = images.dims()[0];
            let adv_indices: Vec<usize> = (0..n).step_by(2).collect();
            let sub_images: Vec<Tensor> = adv_indices
                .iter()
                .map(|&i| images.batch_item(i))
                .collect::<std::result::Result<_, _>>()?;
            let sub_labels: Vec<usize> = adv_indices.iter().map(|&i| labels[i]).collect();
            let adversarial = attack.perturb(net, &Tensor::stack(&sub_images)?, &sub_labels)?;
            let mut out = images.clone();
            let plane = images.len() / n;
            for (j, &i) in adv_indices.iter().enumerate() {
                out.data_mut()[i * plane..(i + 1) * plane]
                    .copy_from_slice(&adversarial.data()[j * plane..(j + 1) * plane]);
            }
            Ok(out)
        }
        _ => Ok(images.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_data::DatasetConfig;

    fn tiny_dataset() -> SignDataset {
        let mut cfg = DatasetConfig::tiny();
        cfg.image_size = 16;
        SignDataset::generate(&cfg, 5).unwrap()
    }

    #[test]
    fn config_validation() {
        let ds = tiny_dataset();
        let bad = TrainConfig {
            epochs: 0,
            ..TrainConfig::tiny()
        };
        assert!(train_defended_model(&DefenseKind::Baseline, &ds, &bad).is_err());
        let bad = TrainConfig {
            learning_rate: 0.0,
            ..TrainConfig::tiny()
        };
        assert!(train_defended_model(&DefenseKind::Baseline, &ds, &bad).is_err());
        assert!(train_defended_model(
            &DefenseKind::InputFilter { kernel: 4 },
            &ds,
            &TrainConfig::tiny()
        )
        .is_err());
    }

    #[test]
    fn baseline_training_reduces_loss() {
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::tiny()
        };
        let model = train_defended_model(&DefenseKind::Baseline, &ds, &cfg).unwrap();
        let losses = &model.training_report().epoch_losses;
        assert_eq!(losses.len(), 3);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should fall: {losses:?}"
        );
        assert!(model.training_report().test_accuracy >= 0.0);
    }

    #[test]
    fn architectures_match_defenses() {
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        };
        let baseline = train_defended_model(&DefenseKind::Baseline, &ds, &cfg).unwrap();
        let blurred =
            train_defended_model(&DefenseKind::FeatureFilter { kernel: 3 }, &ds, &cfg).unwrap();
        assert_eq!(blurred.network().len(), baseline.network().len() + 1);
        let dw = train_defended_model(
            &DefenseKind::DepthwiseLinf {
                kernel: 3,
                alpha: 1e-3,
            },
            &ds,
            &cfg,
        )
        .unwrap();
        assert!(dw.network().parameter_count() > baseline.network().parameter_count());
    }

    #[test]
    fn regularized_training_runs_for_every_regularizer() {
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        };
        for defense in [
            DefenseKind::TotalVariation { alpha: 1e-4 },
            DefenseKind::TikhonovHf {
                alpha: 1e-4,
                window: 3,
            },
            DefenseKind::TikhonovPseudo { alpha: 1e-5 },
            DefenseKind::GaussianAugmentation { sigma: 0.1 },
        ] {
            let model = train_defended_model(&defense, &ds, &cfg).unwrap();
            assert_eq!(model.defense(), &defense);
            assert!(model.training_report().epoch_losses[0].is_finite());
        }
    }

    #[test]
    fn adversarial_training_runs_with_few_steps() {
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..TrainConfig::tiny()
        };
        let defense = DefenseKind::AdversarialTraining {
            epsilon: 8.0 / 255.0,
            step_size: 0.05,
            steps: 2,
        };
        let model = train_defended_model(&defense, &ds, &cfg).unwrap();
        assert!(model.training_report().epoch_losses[0].is_finite());
    }

    #[test]
    fn build_architecture_without_training() {
        let (net, arch) = build_architecture(&DefenseKind::Baseline, 16, 18, 0).unwrap();
        assert_eq!(arch.input_size, 16);
        assert!(net.parameter_count() > 0);
        assert!(build_architecture(&DefenseKind::InputFilter { kernel: 2 }, 16, 18, 0).is_err());
    }
}
