//! The trained, defended classifier behind a single evaluation interface.

use blurnet_attacks::Classifier;
use blurnet_data::Batch;
use blurnet_nn::loss::predictions;
use blurnet_nn::{LisaCnnConfig, Sequential};
use blurnet_tensor::Tensor;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::filtering::{filter_image, filter_images};
use crate::smoothing::smoothed_predict;
use crate::{DefenseError, DefenseKind, Result};

/// Loss and accuracy bookkeeping from training a defended model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Mean training loss per epoch (classification + regularization).
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the clean test split after training, measured through
    /// the defended prediction path ("legitimate accuracy" in Table II).
    pub test_accuracy: f32,
}

/// A trained classifier together with its defense configuration.
///
/// Prediction goes through the defense's full inference path: the input
/// filter is applied for [`DefenseKind::InputFilter`], a majority vote over
/// noisy copies is used for [`DefenseKind::RandomizedSmoothing`], and all
/// other defenses classify with a plain forward pass (their protection
/// lives in the weights or the architecture).
#[derive(Debug, Clone)]
pub struct DefendedModel {
    net: Sequential,
    defense: DefenseKind,
    arch: LisaCnnConfig,
    report: TrainingReport,
    smoothing_rng: ChaCha8Rng,
}

/// Seed of the Monte-Carlo smoothing RNG every [`DefendedModel`] starts
/// from — fixed so the randomized-smoothing evaluation is reproducible and
/// a persisted model can restore the stream by replaying its draw count.
pub const SMOOTHING_SEED: u64 = 0xB1A2;

impl DefendedModel {
    /// Wraps a trained network.
    pub fn new(
        net: Sequential,
        defense: DefenseKind,
        arch: LisaCnnConfig,
        report: TrainingReport,
    ) -> Self {
        DefendedModel {
            net,
            defense,
            arch,
            report,
            smoothing_rng: ChaCha8Rng::seed_from_u64(SMOOTHING_SEED),
        }
    }

    /// Number of RNG words the smoothing stream has consumed since
    /// construction. ChaCha is counter-based, so this single number is the
    /// complete RNG state: persisting it and replaying the same count via
    /// [`DefendedModel::advance_smoothing_rng`] restores the stream
    /// bit-exactly.
    pub fn smoothing_draws(&self) -> u64 {
        let fresh = ChaCha8Rng::seed_from_u64(SMOOTHING_SEED).get_word_pos();
        self.smoothing_rng.get_word_pos() - fresh
    }

    /// Fast-forwards the smoothing RNG by `draws` words (see
    /// [`DefendedModel::smoothing_draws`]) — the restore side of
    /// persistence for randomized-smoothing models.
    pub fn advance_smoothing_rng(&mut self, draws: u64) {
        for _ in 0..draws {
            let _ = self.smoothing_rng.next_u32();
        }
    }

    /// The defense this model was trained with.
    pub fn defense(&self) -> &DefenseKind {
        &self.defense
    }

    /// The network architecture.
    pub fn arch(&self) -> &LisaCnnConfig {
        &self.arch
    }

    /// The training report (per-epoch losses, clean test accuracy).
    pub fn training_report(&self) -> &TrainingReport {
        &self.report
    }

    /// Immutable access to the underlying network.
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// Index of the first-layer feature-map activation.
    pub fn feature_layer_index(&self) -> usize {
        self.arch.feature_layer_index()
    }

    /// Spatial extent of the first-layer feature maps.
    pub fn feature_map_extent(&self) -> usize {
        self.arch.feature_map_extent()
    }

    /// Applies the defense's input-space preprocessing (if any) to one
    /// image.
    ///
    /// # Errors
    ///
    /// Propagates filtering errors.
    pub fn preprocess(&self, image: &Tensor) -> Result<Tensor> {
        match &self.defense {
            DefenseKind::InputFilter { kernel } => filter_image(image, *kernel),
            _ => Ok(image.clone()),
        }
    }

    /// Applies the defense's input-space preprocessing (if any) to an
    /// `[N, C, H, W]` batch. Each image is filtered independently, so the
    /// result of row `i` never depends on which other images share the
    /// batch — the property the serving path's micro-batching relies on.
    ///
    /// # Errors
    ///
    /// Propagates filtering errors.
    pub fn preprocess_batch(&self, images: &Tensor) -> Result<Tensor> {
        match &self.defense {
            DefenseKind::InputFilter { kernel } => filter_images(images, *kernel),
            _ => Ok(images.clone()),
        }
    }

    /// Whether the defense rewrites the input image before the network
    /// sees it (true only for [`DefenseKind::InputFilter`]). When it does,
    /// comparing the defended prediction against the raw-input prediction
    /// gives a per-request defense verdict.
    pub fn has_input_preprocessing(&self) -> bool {
        matches!(self.defense, DefenseKind::InputFilter { .. })
    }

    /// Whether the defended inference path is a pure function of each
    /// input image. Every defense qualifies except
    /// [`DefenseKind::RandomizedSmoothing`], whose Monte-Carlo vote draws
    /// from a stateful RNG — its prediction depends on how many images
    /// were classified before, so it cannot honor the serving subsystem's
    /// "micro-batched ≡ single-request" bit-identity guarantee.
    pub fn deterministic_inference(&self) -> bool {
        !matches!(self.defense, DefenseKind::RandomizedSmoothing { .. })
    }

    /// Classifies one `[C, H, W]` image through the defended inference
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and network errors.
    pub fn classify_one(&mut self, image: &Tensor) -> Result<usize> {
        let image = self.preprocess(image)?;
        match &self.defense {
            DefenseKind::RandomizedSmoothing { sigma, samples } => {
                smoothed_predict(&self.net, &image, *sigma, *samples, &mut self.smoothing_rng)
            }
            _ => {
                // One image: walk the layers directly rather than build
                // (and pack the weights of) a batch engine.
                let batch = Tensor::stack(&[image])?;
                let logits = self.net.activation(&batch, self.net.len() - 1)?;
                Ok(predictions(&logits)?[0])
            }
        }
    }

    /// Classifies a set of `[C, H, W]` images through the defended
    /// inference path, batched.
    ///
    /// Deterministic defenses (everything except randomized smoothing)
    /// preprocess the whole set and run **one batch-parallel forward pass**
    /// through the network's inference engine; randomized smoothing still
    /// votes image by image because its Monte-Carlo sampling consumes the
    /// model's RNG in per-image order. Predictions are identical to
    /// looping [`DefendedModel::classify_one`].
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and network errors.
    pub fn classify_set(&mut self, images: &[Tensor]) -> Result<Vec<usize>> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        match &self.defense {
            DefenseKind::RandomizedSmoothing { .. } => images
                .iter()
                .map(|image| self.classify_one(image))
                .collect(),
            _ => {
                let preprocessed = self.preprocess_batch(&Tensor::stack(images)?)?;
                Ok(self.net.predict_batch(&preprocessed)?)
            }
        }
    }

    /// Accuracy of the defended prediction path on a labelled batch.
    ///
    /// Deterministic defenses classify the whole batch in one forward pass
    /// (preprocessing included), so the evaluation rides the batched GEMM
    /// path; only randomized smoothing still votes image by image.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::BadConfig`] for an empty batch.
    pub fn accuracy(&mut self, batch: &Batch) -> Result<f32> {
        if batch.labels.is_empty() {
            return Err(DefenseError::BadConfig("empty evaluation batch".into()));
        }
        let correct = match &self.defense {
            DefenseKind::RandomizedSmoothing { .. } => {
                let mut correct = 0usize;
                for (i, &label) in batch.labels.iter().enumerate() {
                    let image = batch.images.batch_item(i)?;
                    if self.classify_one(&image)? == label {
                        correct += 1;
                    }
                }
                correct
            }
            _ => {
                let preprocessed = self.preprocess_batch(&batch.images)?;
                let preds = self.net.predict_batch(&preprocessed)?;
                preds
                    .iter()
                    .zip(batch.labels.iter())
                    .filter(|(p, l)| p == l)
                    .count()
            }
        };
        Ok(correct as f32 / batch.labels.len() as f32)
    }
}

impl Classifier for DefendedModel {
    fn classify(&mut self, image: &Tensor) -> blurnet_attacks::Result<usize> {
        self.classify_one(image)
            .map_err(|e| blurnet_attacks::AttackError::BadInput(e.to_string()))
    }

    fn classify_batch(&mut self, images: &[Tensor]) -> blurnet_attacks::Result<Vec<usize>> {
        self.classify_set(images)
            .map_err(|e| blurnet_attacks::AttackError::BadInput(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::LisaCnn;

    fn untrained(defense: DefenseKind) -> DefendedModel {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let builder = LisaCnn::new(18).input_size(16).conv1_filters(4);
        let net = builder.build(&mut rng).unwrap();
        DefendedModel::new(
            net,
            defense,
            builder.config().clone(),
            TrainingReport {
                epoch_losses: vec![],
                test_accuracy: 0.0,
            },
        )
    }

    #[test]
    fn preprocess_is_identity_except_for_input_filter() {
        let image = {
            let mut img = Tensor::full(&[3, 16, 16], 0.5);
            img.set(&[0, 8, 8], 1.0).unwrap();
            img
        };
        let baseline = untrained(DefenseKind::Baseline);
        assert_eq!(baseline.preprocess(&image).unwrap(), image);
        let filtered = untrained(DefenseKind::InputFilter { kernel: 3 });
        let out = filtered.preprocess(&image).unwrap();
        assert!(out.get(&[0, 8, 8]).unwrap() < 1.0);
    }

    #[test]
    fn classification_paths_return_valid_classes() {
        let image = Tensor::full(&[3, 16, 16], 0.5);
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            DefenseKind::RandomizedSmoothing {
                sigma: 0.1,
                samples: 5,
            },
        ] {
            let mut model = untrained(defense);
            let pred = model.classify_one(&image).unwrap();
            assert!(pred < 18);
            // The Classifier impl goes through the same path.
            let via_trait = Classifier::classify(&mut model, &image).unwrap();
            assert!(via_trait < 18);
        }
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let mut model = untrained(DefenseKind::Baseline);
        let images = Tensor::stack(&[
            Tensor::full(&[3, 16, 16], 0.2),
            Tensor::full(&[3, 16, 16], 0.8),
        ])
        .unwrap();
        // Use whatever the model predicts as the "labels" for a perfect score.
        let l0 = model.classify_one(&images.batch_item(0).unwrap()).unwrap();
        let l1 = model.classify_one(&images.batch_item(1).unwrap()).unwrap();
        let batch = Batch {
            images,
            labels: vec![l0, l1],
        };
        assert_eq!(model.accuracy(&batch).unwrap(), 1.0);
        let empty = Batch {
            images: Tensor::zeros(&[1, 3, 16, 16]),
            labels: vec![],
        };
        assert!(model.accuracy(&empty).is_err());
    }

    #[test]
    fn classify_set_matches_per_image_classification() {
        let images: Vec<Tensor> = (0..4)
            .map(|i| Tensor::full(&[3, 16, 16], 0.2 + 0.15 * i as f32))
            .collect();
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            DefenseKind::FeatureFilter { kernel: 5 },
        ] {
            let mut model = untrained(defense.clone());
            let batched = model.classify_set(&images).unwrap();
            let singles: Vec<usize> = images
                .iter()
                .map(|i| model.classify_one(i).unwrap())
                .collect();
            assert_eq!(batched, singles, "defense {defense:?}");
        }
        let mut model = untrained(DefenseKind::Baseline);
        assert!(model.classify_set(&[]).unwrap().is_empty());
    }

    #[test]
    fn preprocess_batch_matches_per_image_preprocess() {
        let images: Vec<Tensor> = (0..3)
            .map(|i| {
                let mut img = Tensor::full(&[3, 16, 16], 0.3 + 0.2 * i as f32);
                img.set(&[0, 4 + i, 4], 1.0).unwrap();
                img
            })
            .collect();
        let stacked = Tensor::stack(&images).unwrap();
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::InputFilter { kernel: 3 },
            DefenseKind::FeatureFilter { kernel: 5 },
        ] {
            let model = untrained(defense.clone());
            let batched = model.preprocess_batch(&stacked).unwrap();
            for (i, image) in images.iter().enumerate() {
                let solo = model.preprocess(image).unwrap();
                assert_eq!(
                    batched.batch_item(i).unwrap(),
                    solo,
                    "defense {defense:?}, image {i}"
                );
            }
        }
    }

    #[test]
    fn serving_capability_predicates() {
        assert!(untrained(DefenseKind::Baseline).deterministic_inference());
        assert!(!untrained(DefenseKind::Baseline).has_input_preprocessing());
        let filtered = untrained(DefenseKind::InputFilter { kernel: 3 });
        assert!(filtered.deterministic_inference());
        assert!(filtered.has_input_preprocessing());
        let smoothed = untrained(DefenseKind::RandomizedSmoothing {
            sigma: 0.1,
            samples: 5,
        });
        assert!(!smoothed.deterministic_inference());
        assert!(!smoothed.has_input_preprocessing());
    }

    #[test]
    fn metadata_accessors() {
        let model = untrained(DefenseKind::TotalVariation { alpha: 1e-4 });
        assert_eq!(model.feature_layer_index(), 0);
        assert_eq!(model.feature_map_extent(), 8);
        assert_eq!(
            model.defense(),
            &DefenseKind::TotalVariation { alpha: 1e-4 }
        );
        assert!(model.training_report().epoch_losses.is_empty());
        assert!(model.network().parameter_count() > 0);
    }
}
