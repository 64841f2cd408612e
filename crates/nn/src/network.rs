//! The [`Sequential`] network container.

use blurnet_tensor::{Scratch, Tensor};
use serde::{Deserialize, Serialize};

use crate::{loss, BatchEngine, Layer, LayerKind, NnError, Result};

/// A feed-forward stack of layers.
///
/// The container holds parameters only; every pass runs through a
/// [`BatchEngine`] over an immutable borrow. Beyond inference the engine
/// gives the BlurNet experiments the two operations they need:
///
/// * gradients with respect to the input, with an optional extra gradient
///   injected at a chosen layer's output — how adaptive attacks reach the
///   input (Eq. 9–11);
/// * parameter gradients with the same injection
///   ([`BatchEngine::forward_backward_params`]) — how the TV and Tikhonov
///   penalties on first-layer feature maps reach the first convolution's
///   weights during training (Eq. 4, 6, 7).
///
/// [`Sequential::activation`] returns any intermediate activation, for the
/// spectrum analyses of Figures 2 and 4.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<LayerKind>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer and returns `self` for chaining.
    pub fn push(&mut self, layer: impl Into<LayerKind>) -> &mut Self {
        self.layers.push(layer.into());
        self
    }

    /// Inserts a layer at `index`, shifting later layers back.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.len()`.
    pub fn insert(&mut self, index: usize, layer: impl Into<LayerKind>) {
        self.layers.insert(index, layer.into());
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to layer `index`.
    pub fn layer(&self, index: usize) -> Option<&LayerKind> {
        self.layers.get(index)
    }

    /// Iterates over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, LayerKind> {
        self.layers.iter()
    }

    /// Runs the network over an `[N, ...]` batch in pure inference mode,
    /// sharding the batch dimension across rayon workers (see
    /// [`BatchEngine`]).
    ///
    /// The receiver stays immutable, so one network can serve concurrent
    /// callers. The output is **bit-identical** to walking the layers'
    /// [`Layer::infer`] over the whole batch, at every
    /// `RAYON_NUM_THREADS` setting.
    ///
    /// This builds a fresh [`BatchEngine`] per call (packing each layer's
    /// weights once); loops that evaluate many batches against a frozen
    /// network should hold a [`Sequential::batch_engine`] instead.
    ///
    /// ```
    /// use blurnet_nn::LisaCnn;
    /// use blurnet_tensor::Tensor;
    /// use rand::SeedableRng;
    /// use rand_chacha::ChaCha8Rng;
    ///
    /// let mut rng = ChaCha8Rng::seed_from_u64(0);
    /// let net = LisaCnn::new(18).build(&mut rng)?;
    /// let batch = Tensor::zeros(&[4, 3, 32, 32]);
    /// let logits = net.forward_batch(&batch)?;
    /// assert_eq!(logits.dims(), &[4, 18]);
    /// // Identical to the layer-by-layer walk, bit for bit.
    /// assert_eq!(logits, net.activation(&batch, net.len() - 1)?);
    /// # Ok::<(), blurnet_nn::NnError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error for an empty network or batch, or a shape the
    /// first layer rejects.
    pub fn forward_batch(&self, input: &Tensor) -> Result<Tensor> {
        BatchEngine::new(self)?.forward(input)
    }

    /// Class predictions (argmax of the logits) for a batch through the
    /// batch-parallel inference path.
    ///
    /// # Errors
    ///
    /// Propagates [`Sequential::forward_batch`] errors.
    pub fn predict_batch(&self, input: &Tensor) -> Result<Vec<usize>> {
        loss::predictions(&self.forward_batch(input)?)
    }

    /// Gradient of `grad_output` with respect to the network input over an
    /// `[N, ...]` batch, computed through the batched gradient engine: a
    /// recorded forward pass (per-layer tapes owned by the workers, not
    /// the network) followed by a tape-driven backward, sharded across
    /// rayon workers like [`Sequential::forward_batch`].
    ///
    /// No parameter gradients are computed — this is the attack-generation
    /// backward. The result is bit-identical at every `RAYON_NUM_THREADS`
    /// setting and matches the training backward
    /// ([`BatchEngine::forward_backward_params`]) run image by image
    /// (pinned by `tests/input_grad_batch.rs`).
    ///
    /// This builds a fresh [`BatchEngine`] per call; gradient loops (PGD
    /// steps, RP2 iterations) should hold a [`Sequential::batch_engine`]
    /// and call [`BatchEngine::input_grad`] /
    /// [`BatchEngine::forward_backward_batch`] instead.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty network or batch, or mismatched
    /// shapes.
    pub fn input_grad_batch(&self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        BatchEngine::new(self)?.input_grad(input, grad_output)
    }

    /// Builds a reusable [`BatchEngine`] over this network: every
    /// convolution and dense layer's weights are packed into their
    /// GEMM-ready layouts exactly once and shared across all subsequent
    /// [`BatchEngine::forward`] calls and batch shards.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty network.
    pub fn batch_engine(&self) -> Result<BatchEngine<'_>> {
        BatchEngine::new(self)
    }

    /// The activation after layer `index` (`layers[..=index]` applied to
    /// `input`), walking each layer's [`Layer::infer`] over the whole
    /// batch. `index = len - 1` gives the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an out-of-range index, and
    /// propagates layer errors.
    pub fn activation(&self, input: &Tensor, index: usize) -> Result<Tensor> {
        if index >= self.layers.len() {
            return Err(NnError::BadConfig(format!(
                "layer index {index} out of range for {} layers",
                self.layers.len()
            )));
        }
        let mut scratch = Scratch::new();
        let mut x = self.layers[0].infer(input, &mut scratch)?;
        for layer in &self.layers[1..=index] {
            x = layer.infer(&x, &mut scratch)?;
        }
        Ok(x)
    }

    /// Every trainable parameter, layer by layer in [`Layer::params`]
    /// order — the order of [`crate::GradBatch::param_grads`].
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to every trainable parameter, in
    /// [`Sequential::params`] order: zip it with
    /// [`crate::GradBatch::param_grads`] to build the pairs an
    /// [`crate::Optimizer::step`] takes.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of trainable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Serializes the network (architecture and weights) to JSON bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] if encoding fails.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self).map_err(|e| NnError::Serialization(e.to_string()))
    }

    /// Restores a network serialized with [`Sequential::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] if decoding fails.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        serde_json::from_slice(bytes).map_err(|e| NnError::Serialization(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Flatten, MaxPool2d, Relu, ShardGrad};
    use blurnet_tensor::ConvSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_net(rng: &mut ChaCha8Rng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, ConvSpec::same(3).unwrap(), rng).unwrap())
            .push(Relu::new())
            .push(MaxPool2d::new(2, 2).unwrap())
            .push(Flatten::new())
            .push(Dense::new(2 * 4 * 4, 3, rng).unwrap());
        net
    }

    /// A shard gradient with no injection.
    fn plain(d_logits: Tensor, loss: f32) -> ShardGrad {
        ShardGrad {
            d_logits,
            injection: None,
            loss,
        }
    }

    #[test]
    fn forward_and_predict_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = tiny_net(&mut rng);
        let x = Tensor::zeros(&[4, 1, 8, 8]);
        let y = net.forward_batch(&x).unwrap();
        assert_eq!(y.dims(), &[4, 3]);
        assert_eq!(net.predict_batch(&x).unwrap().len(), 4);
        assert!(net.parameter_count() > 0);
        assert_eq!(net.params().len(), 4);
    }

    #[test]
    fn activation_returns_each_layer_output() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], -1.0, 1.0, &mut rng);
        assert_eq!(net.activation(&x, 0).unwrap().dims(), &[2, 2, 8, 8]);
        assert_eq!(net.activation(&x, 2).unwrap().dims(), &[2, 2, 4, 4]);
        assert_eq!(
            net.activation(&x, net.len() - 1).unwrap(),
            net.forward_batch(&x).unwrap()
        );
        assert!(net.activation(&x, net.len()).is_err());
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], -1.0, 1.0, &mut rng);
        let d_input = net.input_grad_batch(&x, &Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(d_input.dims(), x.dims());
        assert!(d_input.l1_norm() > 0.0);
    }

    #[test]
    fn whole_network_input_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let d_input = net.input_grad_batch(&x, &Tensor::ones(&[1, 3])).unwrap();
        // eps must stay small: at 1e-2 the central difference for this seed
        // steps across a max-pool argmax flip at index 0 and reads exactly
        // twice the true slope (at 1e-3 it matches the analytic gradient to
        // six decimals).
        let eps = 1e-3f32;
        for &idx in &[0usize, 17, 33, 63] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let f_plus = net.forward_batch(&plus).unwrap().sum();
            let f_minus = net.forward_batch(&minus).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            // Max-pool argmax ties make this an approximate check.
            assert!(
                (numeric - d_input.data()[idx]).abs() < 5e-2,
                "at {idx}: {numeric} vs {}",
                d_input.data()[idx]
            );
        }
    }

    #[test]
    fn injection_changes_first_layer_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = tiny_net(&mut rng);
        let engine = net.batch_engine().unwrap();
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, &mut rng);

        let baseline = engine
            .forward_backward_params(&x, None, &mut Vec::new(), |_, logits, _| {
                Ok(plain(Tensor::zeros(logits.dims()), 0.0))
            })
            .unwrap();
        assert_eq!(baseline.param_grads.len(), net.params().len());
        assert_eq!(baseline.param_grads[0].l1_norm(), 0.0);

        // Injecting gradient at the conv output (layer 0) with a zero loss
        // gradient must still produce conv weight gradients.
        let injected = engine
            .forward_backward_params(&x, Some(0), &mut Vec::new(), |_, logits, feature| {
                Ok(ShardGrad {
                    injection: Some(Tensor::ones(feature.unwrap().dims())),
                    ..plain(Tensor::zeros(logits.dims()), 0.0)
                })
            })
            .unwrap();
        assert!(injected.param_grads[0].l1_norm() > 0.0);
    }

    #[test]
    fn injection_index_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = tiny_net(&mut rng);
        let engine = net.batch_engine().unwrap();
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let err = engine.forward_backward_params(&x, Some(99), &mut Vec::new(), |_, logits, _| {
            Ok(plain(Tensor::zeros(logits.dims()), 0.0))
        });
        assert!(err.is_err());
    }

    #[test]
    fn serialization_roundtrip_preserves_outputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = tiny_net(&mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let y1 = net.forward_batch(&x).unwrap();
        let bytes = net.to_bytes().unwrap();
        let restored = Sequential::from_bytes(&bytes).unwrap();
        let y2 = restored.forward_batch(&x).unwrap();
        for (a, b) in y1.data().iter().zip(y2.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(Sequential::from_bytes(b"not json").is_err());
    }

    #[test]
    fn empty_network_is_an_error() {
        let net = Sequential::new();
        assert!(net.forward_batch(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
        assert!(net
            .input_grad_batch(&Tensor::zeros(&[1, 1, 4, 4]), &Tensor::zeros(&[1, 3]))
            .is_err());
        assert!(net.activation(&Tensor::zeros(&[1, 1, 4, 4]), 0).is_err());
        assert!(net.is_empty());
    }

    #[test]
    fn training_reduces_loss_on_a_toy_problem() {
        use crate::{softmax_cross_entropy, Adam, Optimizer};
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        // Two distinguishable patterns.
        let mut x = Tensor::zeros(&[2, 1, 8, 8]);
        for i in 0..8 {
            x.set(&[0, 0, i, i], 1.0).unwrap();
            x.set(&[1, 0, i, 7 - i], -1.0).unwrap();
        }
        let labels = [0usize, 1usize];
        let mut adam = Adam::new(0.01).unwrap();
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let step = net
                .batch_engine()
                .unwrap()
                .forward_backward_params(&x, None, &mut Vec::new(), |_, logits, _| {
                    let (loss, d_logits) = softmax_cross_entropy(logits, &labels)?;
                    Ok(plain(d_logits, loss))
                })
                .unwrap();
            let mut pairs: Vec<_> = net
                .params_mut()
                .into_iter()
                .zip(&step.param_grads)
                .collect();
            adam.step(&mut pairs).unwrap();
            let loss = step.shard_losses[0];
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        assert!(last_loss < 0.5 * first_loss.unwrap());
        assert_eq!(net.predict_batch(&x).unwrap(), vec![0, 1]);
    }
}
