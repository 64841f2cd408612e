//! Depthwise (per-channel) convolution layer — the BlurNet filter layer.
//!
//! Inserted after the first convolution, this layer applies one kernel per
//! channel. It can be *fixed* (a standard blur kernel, Section III of the
//! paper) or *trainable* (learned under an L∞ penalty, Eq. 2).

use blurnet_tensor::{ConvSpec, Scratch, Tensor};
use serde::{Deserialize, Serialize};

use crate::layer::check_accumulators;
use crate::{Layer, NnError, Result, TapeSlot};

/// A depthwise convolution layer with per-channel `[C, K, K]` kernels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DepthwiseConv2d {
    weight: Tensor,
    bias: Tensor,
    spec: ConvSpec,
    trainable: bool,
}

impl DepthwiseConv2d {
    /// Creates a trainable depthwise layer initialized as an identity
    /// filter plus small noise-free spread (the centre tap is 1, the rest
    /// 0), so an untrained layer does not perturb the network it is added
    /// to.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `channels` or `kernel` is zero or
    /// `kernel` is even (the identity centre tap must exist).
    pub fn identity(channels: usize, kernel: usize) -> Result<Self> {
        if channels == 0 || kernel == 0 || kernel.is_multiple_of(2) {
            return Err(NnError::BadConfig(
                "depthwise layer needs non-zero channels and an odd kernel".to_string(),
            ));
        }
        let mut weight = Tensor::zeros(&[channels, kernel, kernel]);
        let c = kernel / 2;
        for ch in 0..channels {
            weight.set(&[ch, c, c], 1.0)?;
        }
        Ok(DepthwiseConv2d {
            bias: Tensor::zeros(&[channels]),
            weight,
            spec: ConvSpec::same(kernel).map_err(|e| NnError::BadConfig(e.to_string()))?,
            trainable: true,
        })
    }

    /// Creates a **fixed** (non-trainable) depthwise layer that applies the
    /// given `[K, K]` kernel to every channel — the blur layer of Table I.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the kernel is not square rank 2 or
    /// `channels` is zero.
    pub fn fixed_kernel(channels: usize, kernel: &Tensor) -> Result<Self> {
        if channels == 0 || kernel.shape().rank() != 2 || kernel.dims()[0] != kernel.dims()[1] {
            return Err(NnError::BadConfig(format!(
                "fixed depthwise kernel must be square rank-2 with channels > 0, got {}",
                kernel.shape()
            )));
        }
        let k = kernel.dims()[0];
        let mut data = Vec::with_capacity(channels * k * k);
        for _ in 0..channels {
            data.extend_from_slice(kernel.data());
        }
        let weight = Tensor::from_vec(data, &[channels, k, k])?;
        Ok(DepthwiseConv2d {
            bias: Tensor::zeros(&[channels]),
            weight,
            spec: ConvSpec::same(k).map_err(|e| NnError::BadConfig(e.to_string()))?,
            trainable: false,
        })
    }

    /// Reassembles a layer from persisted parameters: `weight` must be
    /// `[C, K, K]` with square kernels and `bias` `[C]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the shapes disagree.
    pub fn from_parts(
        weight: Tensor,
        bias: Tensor,
        spec: ConvSpec,
        trainable: bool,
    ) -> Result<Self> {
        if weight.shape().rank() != 3 || weight.dims()[1] != weight.dims()[2] {
            return Err(NnError::BadConfig(format!(
                "depthwise weight must be [C, K, K], got {}",
                weight.shape()
            )));
        }
        if bias.shape().rank() != 1 || bias.dims()[0] != weight.dims()[0] {
            return Err(NnError::BadConfig(format!(
                "depthwise bias must be [{}], got {}",
                weight.dims()[0],
                bias.shape()
            )));
        }
        Ok(DepthwiseConv2d {
            weight,
            bias,
            spec,
            trainable,
        })
    }

    /// The per-channel kernels `[C, K, K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The per-channel bias vector `[C]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The convolution stride/padding spec.
    pub fn spec(&self) -> ConvSpec {
        self.spec
    }

    /// Whether the layer's kernels are updated during training.
    pub fn is_trainable(&self) -> bool {
        self.trainable
    }

    /// Kernel extent `K`.
    pub fn kernel_size(&self) -> usize {
        self.weight.dims()[1]
    }

    /// L∞ norm of each channel kernel summed over channels — the
    /// regularization term of Eq. 2.
    pub fn linf_penalty(&self) -> f32 {
        let (c, kh, kw) = (
            self.weight.dims()[0],
            self.weight.dims()[1],
            self.weight.dims()[2],
        );
        let d = self.weight.data();
        (0..c)
            .map(|ch| {
                d[ch * kh * kw..(ch + 1) * kh * kw]
                    .iter()
                    .fold(0.0f32, |m, v| m.max(v.abs()))
            })
            .sum()
    }

    /// Sub-gradient of [`Self::linf_penalty`] with respect to the kernels:
    /// `sign(w)` at each channel's maximal-magnitude tap, zero elsewhere.
    pub fn linf_penalty_grad(&self) -> Tensor {
        let (c, kh, kw) = (
            self.weight.dims()[0],
            self.weight.dims()[1],
            self.weight.dims()[2],
        );
        let d = self.weight.data();
        let mut grad = vec![0.0f32; d.len()];
        for ch in 0..c {
            let slice = &d[ch * kh * kw..(ch + 1) * kh * kw];
            let mut best = 0usize;
            for (i, v) in slice.iter().enumerate() {
                if v.abs() > slice[best].abs() {
                    best = i;
                }
            }
            let idx = ch * kh * kw + best;
            grad[idx] = d[idx].signum();
        }
        Tensor::from_vec(grad, self.weight.dims()).expect("same shape as weights")
    }

    pub(crate) fn params_mut(&mut self) -> Vec<&mut Tensor> {
        if self.trainable {
            vec![&mut self.weight, &mut self.bias]
        } else {
            Vec::new()
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> &'static str {
        "depthwise_conv2d"
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        Ok(scratch
            .backend()
            .depthwise_conv2d(input, &self.weight, Some(&self.bias), self.spec)?)
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let out = self.infer(input, scratch)?;
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
        Ok(scratch
            .backend()
            .depthwise_input_grad(&self.weight, grad_output, dims, self.spec)?)
    }

    fn param_grad(
        &self,
        input: &Tensor,
        grad_output: &Tensor,
        grads: &mut [Tensor],
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        check_accumulators(self, grads)?;
        let d = scratch.backend().depthwise_conv2d_backward(
            input,
            &self.weight,
            grad_output,
            self.spec,
        )?;
        grads[0].add_scaled(&d.d_weight, 1.0)?;
        grads[1].add_scaled(&d.d_bias, 1.0)?;
        Ok(d.d_input)
    }

    fn params(&self) -> Vec<&Tensor> {
        if self.trainable {
            vec![&self.weight, &self.bias]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_layer_is_a_no_op() {
        let layer = DepthwiseConv2d::identity(3, 3).unwrap();
        let input = Tensor::from_vec((0..48).map(|v| v as f32).collect(), &[1, 3, 4, 4]).unwrap();
        let out = layer.infer(&input, &mut Scratch::new()).unwrap();
        for (a, b) in out.data().iter().zip(input.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fixed_blur_layer_is_not_trainable() {
        let kernel = Tensor::full(&[5, 5], 1.0 / 25.0);
        let layer = DepthwiseConv2d::fixed_kernel(4, &kernel).unwrap();
        assert!(!layer.is_trainable());
        assert_eq!(layer.kernel_size(), 5);
        assert!(layer.params().is_empty());
        assert_eq!(layer.parameter_count(), 0);
        // Backward still propagates input gradients...
        let input = Tensor::ones(&[1, 4, 8, 8]);
        let mut scratch = Scratch::new();
        let mut tape = TapeSlot::Empty;
        let out = layer
            .infer_recording(&input, &mut tape, &mut scratch)
            .unwrap();
        let g = Tensor::ones(out.dims());
        let d_input = layer.input_grad(&tape, &g, &mut scratch).unwrap();
        assert_eq!(d_input.dims(), input.dims());
        assert!(d_input.l1_norm() > 0.0);
        // ...but has no parameter gradient to give.
        assert!(layer.param_grad(&input, &g, &mut [], &mut scratch).is_err());
    }

    #[test]
    fn linf_penalty_and_subgradient() {
        let layer = DepthwiseConv2d::identity(2, 3).unwrap();
        // Identity kernels: each channel max |w| is 1 -> penalty = 2.
        assert!((layer.linf_penalty() - 2.0).abs() < 1e-6);
        let g = layer.linf_penalty_grad();
        // Exactly one non-zero entry per channel, equal to sign of the max tap.
        assert_eq!(g.data().iter().filter(|v| **v != 0.0).count(), 2);
        assert_eq!(g.l1_norm(), 2.0);
        assert_eq!(g.dims(), layer.weight().dims());
    }

    #[test]
    fn config_validation() {
        assert!(DepthwiseConv2d::identity(0, 3).is_err());
        assert!(DepthwiseConv2d::identity(3, 4).is_err());
        assert!(DepthwiseConv2d::fixed_kernel(0, &Tensor::zeros(&[3, 3])).is_err());
        assert!(DepthwiseConv2d::fixed_kernel(2, &Tensor::zeros(&[3, 4])).is_err());
    }
}
