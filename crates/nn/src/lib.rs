//! A small layer-wise neural-network framework with explicit backward
//! passes, built for the BlurNet reproduction.
//!
//! The framework deliberately avoids a general autodiff graph: every layer
//! implements its own forward and backward pass over
//! [`blurnet_tensor::Tensor`] values, with the backward record kept in a
//! caller-owned tape ([`TapeSlot`]) rather than in the layer. Layers and
//! networks are therefore immutable during every pass, and one autodiff
//! path — the [`BatchEngine`] — serves both things the paper's experiments
//! need beyond plain inference:
//!
//! * gradients **with respect to the input image** (for the RP2, PGD and
//!   adaptive attacks), via [`BatchEngine::forward_backward_with`], and
//! * **parameter gradients** for training, via
//!   [`BatchEngine::forward_backward_params`].
//!
//! Both take an extra gradient to inject at an intermediate activation —
//! the adaptive attacks' feature penalties (Eq. 9–11) and the total-variation
//! and Tikhonov feature-map regularizers (Eq. 4, 6 and 7).
//!
//! The [`model::LisaCnn`] builder replicates the paper's road-sign
//! classifier topology (three convolution layers plus a fully-connected
//! head) at a CPU-friendly scale, with an optional fixed blur layer after
//! the first convolution.
//!
//! Inference-heavy workloads (the attack×defense evaluation grids behind
//! every table of the paper) shard the batch dimension across rayon workers
//! with per-worker scratch pools and once-per-pass weight packing,
//! producing outputs bit-identical to the unsharded path at every thread
//! count.
//!
//! # Example
//!
//! ```
//! use blurnet_nn::{model::LisaCnn, softmax_cross_entropy, Adam, Optimizer, ShardGrad};
//! use blurnet_tensor::Tensor;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let mut net = LisaCnn::new(18).build(&mut rng)?;
//! let batch = Tensor::zeros(&[2, 3, 32, 32]);
//! let logits = net.forward_batch(&batch)?;
//! assert_eq!(logits.dims(), &[2, 18]);
//!
//! // One training step: loss closure, parameter gradients, optimizer.
//! let step = net.batch_engine()?.forward_backward_params(
//!     &batch,
//!     None,
//!     &mut Vec::new(),
//!     |_, logits, _| {
//!         let (loss, d_logits) = softmax_cross_entropy(logits, &[0, 1])?;
//!         Ok(ShardGrad { d_logits, injection: None, loss })
//!     },
//! )?;
//! assert!(step.shard_losses[0] > 0.0);
//! let mut pairs: Vec<_> = net.params_mut().into_iter().zip(&step.param_grads).collect();
//! Adam::new(1e-3)?.step(&mut pairs)?;
//! # Ok::<(), blurnet_nn::NnError>(())
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod conv;
pub mod dense;
pub mod depthwise;
pub mod engine;
mod error;
pub mod flatten;
pub mod layer;
pub mod loss;
pub mod model;
pub mod network;
pub mod optim;
pub mod persist;
pub mod pool;

pub use conv::Conv2d;
pub use dense::Dense;
pub use depthwise::DepthwiseConv2d;
pub use engine::{BatchEngine, GradBatch, ShardGrad};
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::{Layer, LayerKind, TapeSlot};
pub use loss::{accuracy, softmax, softmax_cross_entropy};
pub use model::{LisaCnn, LisaCnnConfig};
pub use network::Sequential;
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::MaxPool2d;

pub use activation::Relu;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
