//! Rectified linear activation.

use blurnet_tensor::{Scratch, Tensor};
use serde::{Deserialize, Serialize};

use crate::{Layer, Result, TapeSlot};

/// Elementwise `max(0, x)` activation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu {}
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn infer(&self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor> {
        Ok(input.map(|v| v.max(0.0)))
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        _scratch: &mut Scratch,
    ) -> Result<Tensor> {
        // One pass produces both the activation and the sign mask the
        // backward needs; the input itself is never kept.
        let data = input.data();
        let mut out = vec![0.0f32; data.len()];
        let mut mask = vec![0.0f32; data.len()];
        for (i, &v) in data.iter().enumerate() {
            if v > 0.0 {
                out[i] = v;
                mask[i] = 1.0;
            }
        }
        *tape = TapeSlot::ReluMask(Tensor::from_vec(mask, input.dims())?);
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        _scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let TapeSlot::ReluMask(mask) = tape else {
            return Err(TapeSlot::mismatch(self.name()));
        };
        // `m > 0.0` reproduces the stateful `x > 0.0` gate bit for bit.
        Ok(mask.zip_map(grad_output, |m, g| if m > 0.0 { g } else { 0.0 })?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NnError;

    #[test]
    fn forward_clamps_negatives() {
        let relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], &[4]).unwrap();
        let y = relu.infer(&x, &mut Scratch::new()).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let relu = Relu::new();
        let mut scratch = Scratch::new();
        let mut tape = TapeSlot::Empty;
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.5], &[4]).unwrap();
        let y = relu.infer_recording(&x, &mut tape, &mut scratch).unwrap();
        assert_eq!(y, relu.infer(&x, &mut scratch).unwrap());
        let g = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[4]).unwrap();
        let dx = relu.input_grad(&tape, &g, &mut scratch).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let relu = Relu::new();
        assert!(matches!(
            relu.input_grad(&TapeSlot::Empty, &Tensor::zeros(&[2]), &mut Scratch::new()),
            Err(NnError::MissingForwardCache(_))
        ));
    }
}
