//! Standard 2-D convolution layer.

use blurnet_tensor::{ConvSpec, Initializer, PackedConvWeights, Scratch, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layer::check_accumulators;
use crate::{Layer, NnError, Result, TapeSlot};

/// A trainable 2-D convolution layer with bias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    spec: ConvSpec,
}

impl Conv2d {
    /// Creates a convolution layer with `out_channels` filters of size
    /// `kernel × kernel` over `in_channels` input channels, using Kaiming
    /// initialization for the weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if any size is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: ConvSpec,
        rng: &mut R,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(NnError::BadConfig(
                "conv2d sizes must be non-zero".to_string(),
            ));
        }
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Initializer::KaimingUniform.init(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            fan_out,
            rng,
        );
        Ok(Conv2d {
            bias: Tensor::zeros(&[out_channels]),
            weight,
            spec,
        })
    }

    /// Reassembles a layer from persisted parameters: `weight` must be
    /// `[F, C, KH, KW]` and `bias` `[F]`. The parameters are the layer's
    /// whole state, so save→load→infer is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the shapes disagree.
    pub fn from_parts(weight: Tensor, bias: Tensor, spec: ConvSpec) -> Result<Self> {
        if weight.shape().rank() != 4 {
            return Err(NnError::BadConfig(format!(
                "conv2d weight must be rank 4, got {}",
                weight.shape()
            )));
        }
        if bias.shape().rank() != 1 || bias.dims()[0] != weight.dims()[0] {
            return Err(NnError::BadConfig(format!(
                "conv2d bias must be [{}], got {}",
                weight.dims()[0],
                bias.shape()
            )));
        }
        Ok(Conv2d { weight, bias, spec })
    }

    /// The convolution stride/padding spec.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// The filter weights `[F, C, KH, KW]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the filter weights (used by tests and by defenses
    /// that overwrite filters with fixed kernels).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector `[F]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Packs the filter weights into the GEMM-ready transposed layout used
    /// by [`blurnet_tensor::conv2d_prepacked`]. The batch engine calls this
    /// once per forward pass and shares the pack across batch shards.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed layer (the weights are always rank 4).
    pub fn packed_weights(&self) -> Result<PackedConvWeights> {
        PackedConvWeights::pack(&self.weight).map_err(NnError::from)
    }

    pub(crate) fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        Ok(scratch
            .backend()
            .conv2d(input, &self.weight, Some(&self.bias), self.spec, scratch)?)
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let out = self.infer(input, scratch)?;
        // The input gradient `col2im(g · W)` never reads the input itself —
        // only its shape.
        *tape = TapeSlot::InputDims(input.dims().to_vec());
        Ok(out)
    }

    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let TapeSlot::InputDims(dims) = tape else {
            return Err(TapeSlot::mismatch(self.name()));
        };
        Ok(scratch.backend().conv2d_input_grad(
            &self.weight,
            grad_output,
            dims,
            self.spec,
            scratch,
        )?)
    }

    fn param_grad(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
        grads: &mut [Tensor],
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        check_accumulators(self, grads)?;
        let backend = scratch.backend();
        let d = backend.conv2d_backward(input, &self.weight, grad_output, self.spec, scratch)?;
        grads[0].add_scaled(&d.d_weight, 1.0)?;
        grads[1].add_scaled(&d.d_bias, 1.0)?;
        Ok(d.d_input)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Zeroed accumulators for every parameter of `layer`.
    fn zeroed_accumulators(layer: &Conv2d) -> Vec<Tensor> {
        layer
            .params()
            .iter()
            .map(|p| Tensor::zeros(p.dims()))
            .collect()
    }

    #[test]
    fn forward_shape_and_backward_cache() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, 5, ConvSpec::new(2, 2).unwrap(), &mut rng).unwrap();
        let input = Tensor::zeros(&[2, 3, 32, 32]);
        let mut scratch = Scratch::new();
        let mut tape = TapeSlot::Empty;
        let out = conv
            .infer_recording(&input, &mut tape, &mut scratch)
            .unwrap();
        assert_eq!(out.dims(), &[2, 8, 16, 16]);
        let g = Tensor::ones(out.dims());
        let d_input = conv.input_grad(&tape, &g, &mut scratch).unwrap();
        assert_eq!(d_input.dims(), input.dims());
        // The parameter backward returns the same input gradient.
        let mut grads = zeroed_accumulators(&conv);
        let d_full = conv
            .param_grad(&input, &g, &mut grads, &mut scratch)
            .unwrap();
        assert_eq!(d_full, d_input);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, 3, ConvSpec::same(3).unwrap(), &mut rng).unwrap();
        assert!(matches!(
            conv.input_grad(
                &TapeSlot::Empty,
                &Tensor::zeros(&[1, 1, 4, 4]),
                &mut Scratch::new()
            ),
            Err(NnError::MissingForwardCache(_))
        ));
    }

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let conv = Conv2d::new(1, 2, 3, ConvSpec::same(3).unwrap(), &mut rng).unwrap();
        let input = Tensor::ones(&[1, 1, 4, 4]);
        let g = Tensor::ones(&[1, 2, 4, 4]);
        let mut scratch = Scratch::new();
        let mut grads = zeroed_accumulators(&conv);
        conv.param_grad(&input, &g, &mut grads, &mut scratch)
            .unwrap();
        let first: f32 = grads[0].l1_norm();
        assert!(first > 0.0);
        conv.param_grad(&input, &g, &mut grads, &mut scratch)
            .unwrap();
        let doubled: f32 = grads[0].l1_norm();
        assert!((doubled - 2.0 * first).abs() < 1e-3);
        // A fresh set of accumulators starts from zero again.
        assert_eq!(zeroed_accumulators(&conv)[0].l1_norm(), 0.0);
        // The accumulator count must match the parameter count.
        assert!(matches!(
            conv.param_grad(&input, &g, &mut grads[..1], &mut scratch),
            Err(NnError::BadConfig(_))
        ));
    }

    #[test]
    fn rejects_zero_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(Conv2d::new(0, 1, 3, ConvSpec::same(3).unwrap(), &mut rng).is_err());
        assert!(Conv2d::new(1, 0, 3, ConvSpec::same(3).unwrap(), &mut rng).is_err());
        assert!(Conv2d::new(1, 1, 0, ConvSpec::same(3).unwrap(), &mut rng).is_err());
    }

    #[test]
    fn parameter_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let conv = Conv2d::new(3, 8, 5, ConvSpec::same(5).unwrap(), &mut rng).unwrap();
        assert_eq!(conv.parameter_count(), 8 * 3 * 5 * 5 + 8);
    }
}
