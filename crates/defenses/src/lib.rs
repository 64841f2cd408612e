//! The BlurNet defenses and their training regimes.
//!
//! The paper proposes low-pass filtering of the **first-layer feature
//! maps**, realized three ways:
//!
//! 1. a fixed depthwise blur layer after the first convolution, compared
//!    against blurring the input (Section III, Table I) — [`filtering`];
//! 2. a trainable depthwise layer regularized with an L∞ penalty on its
//!    kernels (Eq. 2) — [`regularizers`];
//! 3. training-time regularization of the feature maps themselves with
//!    total variation (Eq. 4) or generalized Tikhonov operators
//!    (Eq. 6–7) — [`regularizers`].
//!
//! Baseline defenses from the literature used for comparison — Gaussian
//! augmentation, randomized smoothing and PGD adversarial training — are in
//! [`augment`], [`smoothing`] and the trainer.
//!
//! [`DefenseKind`] enumerates every defended model evaluated in Tables
//! I–V; [`train_defended_model`] builds and trains it; [`DefendedModel`]
//! wraps the result behind a single classify/evaluate interface.

#![warn(missing_docs)]

pub mod augment;
pub mod cache;
pub mod config;
pub mod disk;
mod error;
pub mod filtering;
pub mod model;
pub mod persist;
pub mod regularizers;
pub mod smoothing;
pub mod trainer;

pub use cache::VariantCache;
pub use config::DefenseKind;
pub use disk::{model_from_file_bytes, DiskVariantCache};
pub use error::DefenseError;
pub use filtering::{filter_image, filter_images};
pub use model::{DefendedModel, TrainingReport, SMOOTHING_SEED};
pub use persist::{model_from_bytes, model_to_bytes};
pub use regularizers::{FeatureRegularizer, RegularizerTerm};
pub use smoothing::smoothed_predict;
pub use trainer::{
    build_architecture, train_defended_model, train_step, training_gradients, TrainConfig,
};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DefenseError>;
