//! 2-D max-pooling layer.

use blurnet_tensor::{PoolSpec, Scratch, Tensor};
use serde::{Deserialize, Serialize};

use crate::{Layer, NnError, Result, TapeSlot};

/// 2-D max pooling over square windows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    spec: PoolSpec,
}

impl MaxPool2d {
    /// Creates a pooling layer with the given window and stride.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if window or stride is zero.
    pub fn new(window: usize, stride: usize) -> Result<Self> {
        let spec = PoolSpec::new(window, stride)
            .map_err(|e| NnError::BadConfig(format!("invalid pool spec: {e}")))?;
        Ok(MaxPool2d { spec })
    }

    /// The pooling spec.
    pub fn spec(&self) -> PoolSpec {
        self.spec
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn infer(&self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        // The argmax table exists only for backward; inference drops it.
        Ok(scratch.backend().max_pool2d(input, self.spec)?.output)
    }

    fn infer_recording(
        &self,
        input: &Tensor,
        tape: &mut TapeSlot,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let pooled = scratch.backend().max_pool2d(input, self.spec)?;
        *tape = TapeSlot::PoolArgmax {
            argmax: pooled.argmax,
            input_dims: input.dims().to_vec(),
        };
        Ok(pooled.output)
    }

    fn input_grad(
        &self,
        tape: &TapeSlot,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let TapeSlot::PoolArgmax { argmax, input_dims } = tape else {
            return Err(TapeSlot::mismatch(self.name()));
        };
        Ok(scratch
            .backend()
            .max_pool2d_backward(grad_output, argmax, input_dims)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_roundtrip() {
        let pool = MaxPool2d::new(2, 2).unwrap();
        let mut scratch = Scratch::new();
        let mut tape = TapeSlot::Empty;
        let input = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let out = pool
            .infer_recording(&input, &mut tape, &mut scratch)
            .unwrap();
        assert_eq!(out.dims(), &[1, 1, 2, 2]);
        let d_input = pool
            .input_grad(&tape, &Tensor::ones(out.dims()), &mut scratch)
            .unwrap();
        assert_eq!(d_input.dims(), input.dims());
        assert_eq!(d_input.sum(), 4.0);
    }

    #[test]
    fn invalid_spec_rejected() {
        assert!(MaxPool2d::new(0, 2).is_err());
        let pool = MaxPool2d::new(2, 2).unwrap();
        assert!(pool
            .input_grad(
                &TapeSlot::Empty,
                &Tensor::zeros(&[1, 1, 2, 2]),
                &mut Scratch::new()
            )
            .is_err());
    }
}
