//! The [`Layer`] abstraction and the serializable [`LayerKind`] enum used by
//! [`crate::Sequential`].

use blurnet_tensor::{Scratch, Tensor};
use serde::{Deserialize, Serialize};

use crate::{Conv2d, Dense, DepthwiseConv2d, Flatten, MaxPool2d, NnError, Relu, Result};

/// A caller-owned backward record for one layer, written by
/// [`Layer::infer_recording`] (or, for layers with parameters in a
/// training pass, by the batch engine) and consumed by [`Layer::input_grad`]
/// and [`Layer::param_grad`].
///
/// The record lives with the caller, not the layer: the layer stays
/// immutable, so one frozen network can run many recorded forward/backward
/// passes concurrently (one tape vector per batch shard). Slots are
/// deliberately minimal — the input-gradient backward never needs the
/// forward input itself, only the ReLU sign mask, the max-pool argmax table
/// and input shapes; only weight gradients read the input.
#[derive(Debug, Default, Clone)]
pub enum TapeSlot {
    /// Nothing recorded (layers whose input gradient needs no forward
    /// state, e.g. dense: `dx = g · W`), and the initial state of a slot.
    #[default]
    Empty,
    /// The forward input's dimensions (convolutions fold `g · W` back into
    /// this shape; flatten reshapes into it).
    InputDims(Vec<usize>),
    /// The forward input itself, kept for a layer with parameters when the
    /// pass asks for parameter gradients (`dW` reads it).
    Input(Tensor),
    /// ReLU sign mask: `1.0` where the forward input was positive.
    ReluMask(Tensor),
    /// Max-pool argmax table plus the input dimensions it indexes into.
    PoolArgmax {
        /// Flat input index of the maximum for every output element.
        argmax: Vec<usize>,
        /// Dimensions of the pooled input.
        input_dims: Vec<usize>,
    },
}

impl TapeSlot {
    /// The error raised when a slot does not hold `layer`'s record — the
    /// tape analogue of running backward before forward.
    pub(crate) fn mismatch(layer: &'static str) -> NnError {
        NnError::MissingForwardCache(layer.to_string())
    }
}

/// A single differentiable network layer.
///
/// Every method takes `&self`: a recorded forward pass
/// ([`Layer::infer_recording`]) writes what backward needs into a
/// caller-owned [`TapeSlot`], and the backward methods read it back —
/// [`Layer::input_grad`] for the gradient with respect to the layer input
/// (attacks), [`Layer::param_grad`] when parameter gradients are wanted as
/// well (training). Gradient accumulators are the caller's too.
pub trait Layer: std::fmt::Debug {
    /// Human-readable layer name used in error messages and summaries.
    fn name(&self) -> &'static str;

    /// Runs the layer in pure inference mode, drawing workspace buffers
    /// from the caller's `scratch` pool. The receiver is immutable, so the
    /// same layer can serve many batch shards concurrently.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor>;

    /// Runs the layer like [`Layer::infer`], additionally recording into
    /// the caller-owned `tape` exactly what a subsequent
    /// [`Layer::input_grad`] call needs. Produces bit-identical outputs to
    /// [`Layer::infer`] on the same input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// Propagates `grad_output` back through the layer, consuming the
    /// record a prior [`Layer::infer_recording`] call wrote into `tape`
    /// and returning the gradient with respect to the layer input. No
    /// parameter gradients are computed — this is the attack-generation
    /// backward, where only the input gradient matters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForwardCache`] if `tape` does not
    /// hold this layer's record, or a shape error if `grad_output` does
    /// not match the recorded forward output.
    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor>;

    /// Propagates `grad_output` back through a layer with parameters,
    /// given the forward `input` the training pass kept in its tape: adds
    /// each parameter's gradient into the caller-owned accumulators
    /// `grads` (one per [`Layer::params`] entry, same order) and returns
    /// the gradient with respect to the layer input.
    ///
    /// Layers without parameters have nothing to accumulate and reject the
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a layer without parameters or a
    /// wrong accumulator count, or a shape error for mismatched operands.
    fn param_grad(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
        grads: &mut [Tensor],
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let _ = (input, grad_output, grads, scratch);
        Err(NnError::BadConfig(format!(
            "{} has no parameters to differentiate",
            self.name()
        )))
    }

    /// The trainable parameters, in a stable order.
    ///
    /// Non-trainable layers return an empty vector.
    fn params(&self) -> Vec<&Tensor>;

    /// Number of trainable scalar parameters.
    fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// Checks that `layer` has parameters and `grads` holds one accumulator
/// per parameter.
pub(crate) fn check_accumulators(layer: &dyn Layer, grads: &[Tensor]) -> Result<()> {
    let params = layer.params();
    if params.is_empty() || grads.len() != params.len() {
        return Err(NnError::BadConfig(format!(
            "{} has {} parameters, got {} gradient accumulators",
            layer.name(),
            params.len(),
            grads.len()
        )));
    }
    Ok(())
}

/// A concrete, serializable layer. [`crate::Sequential`] stores this enum so
/// whole networks can be cloned and serialized without trait objects.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum LayerKind {
    /// Standard 2-D convolution.
    Conv2d(Conv2d),
    /// Depthwise (per-channel) 2-D convolution — the BlurNet filter layer.
    Depthwise(DepthwiseConv2d),
    /// Rectified linear activation.
    Relu(Relu),
    /// 2-D max pooling.
    MaxPool(MaxPool2d),
    /// Flattens `[N, C, H, W]` to `[N, C·H·W]`.
    Flatten(Flatten),
    /// Fully-connected layer.
    Dense(Dense),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            LayerKind::Conv2d($inner) => $body,
            LayerKind::Depthwise($inner) => $body,
            LayerKind::Relu($inner) => $body,
            LayerKind::MaxPool($inner) => $body,
            LayerKind::Flatten($inner) => $body,
            LayerKind::Dense($inner) => $body,
        }
    };
}

impl Layer for LayerKind {
    fn name(&self) -> &'static str {
        dispatch!(self, l => l.name())
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        dispatch!(self, l => l.infer(input, scratch))
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        dispatch!(self, l => l.infer_recording(input, tape, scratch))
    }

    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        dispatch!(self, l => l.input_grad(tape, grad_output, scratch))
    }

    fn param_grad(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
        grads: &mut [Tensor],
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        dispatch!(self, l => l.param_grad(input, grad_output, grads, scratch))
    }

    fn params(&self) -> Vec<&Tensor> {
        dispatch!(self, l => l.params())
    }
}

impl LayerKind {
    /// Mutable access to the trainable parameters, in [`Layer::params`]
    /// order — how an optimizer step writes updated weights back.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            LayerKind::Conv2d(l) => l.params_mut(),
            LayerKind::Depthwise(l) => l.params_mut(),
            LayerKind::Dense(l) => l.params_mut(),
            LayerKind::Relu(_) | LayerKind::MaxPool(_) | LayerKind::Flatten(_) => Vec::new(),
        }
    }
}

impl From<Conv2d> for LayerKind {
    fn from(l: Conv2d) -> Self {
        LayerKind::Conv2d(l)
    }
}

impl From<DepthwiseConv2d> for LayerKind {
    fn from(l: DepthwiseConv2d) -> Self {
        LayerKind::Depthwise(l)
    }
}

impl From<Relu> for LayerKind {
    fn from(l: Relu) -> Self {
        LayerKind::Relu(l)
    }
}

impl From<MaxPool2d> for LayerKind {
    fn from(l: MaxPool2d) -> Self {
        LayerKind::MaxPool(l)
    }
}

impl From<Flatten> for LayerKind {
    fn from(l: Flatten) -> Self {
        LayerKind::Flatten(l)
    }
}

impl From<Dense> for LayerKind {
    fn from(l: Dense) -> Self {
        LayerKind::Dense(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn enum_dispatch_matches_inner_layer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv2d::new(
            3,
            4,
            3,
            blurnet_tensor::ConvSpec::same(3).unwrap(),
            &mut rng,
        )
        .unwrap();
        let kind: LayerKind = conv.clone().into();
        assert_eq!(kind.name(), "conv2d");
        assert_eq!(kind.parameter_count(), conv.parameter_count());
        let input = Tensor::zeros(&[1, 3, 8, 8]);
        let out = kind.infer(&input, &mut Scratch::new()).unwrap();
        assert_eq!(out.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn non_trainable_layers_have_no_params() {
        let relu: LayerKind = Relu::new().into();
        assert_eq!(relu.parameter_count(), 0);
        let flat: LayerKind = Flatten::new().into();
        assert_eq!(flat.parameter_count(), 0);
        // ...and refuse a parameter-gradient backward.
        let x = Tensor::ones(&[1, 4]);
        assert!(matches!(
            relu.param_grad(&x, &x, &mut [], &mut Scratch::new()),
            Err(NnError::BadConfig(_))
        ));
    }
}
