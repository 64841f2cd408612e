//! Flattening layer between convolutional and dense parts of the network.

use blurnet_tensor::{Scratch, Tensor};
use serde::{Deserialize, Serialize};

use crate::{Layer, NnError, Result, TapeSlot};

/// Flattens an `[N, ...]` tensor to `[N, features]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Flatten {}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {}
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn infer(&self, input: &Tensor, _scratch: &mut Scratch) -> Result<Tensor> {
        if input.shape().rank() < 2 {
            return Err(NnError::BadConfig(format!(
                "flatten expects at least rank 2, got {}",
                input.shape()
            )));
        }
        let n = input.dims()[0];
        Ok(input.reshape(&[n, input.len() / n])?)
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
        _scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let TapeSlot::InputDims(dims) = tape else {
            return Err(TapeSlot::mismatch(self.name()));
        };
        Ok(grad_output.reshape(dims)?)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_unflatten() {
        let flat = Flatten::new();
        let mut scratch = Scratch::new();
        let mut tape = TapeSlot::Empty;
        let input = Tensor::zeros(&[2, 3, 4, 4]);
        let out = flat
            .infer_recording(&input, &mut tape, &mut scratch)
            .unwrap();
        assert_eq!(out.dims(), &[2, 48]);
        let back = flat.input_grad(&tape, &out, &mut scratch).unwrap();
        assert_eq!(back.dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn rejects_rank1_input() {
        let flat = Flatten::new();
        let mut scratch = Scratch::new();
        assert!(flat.infer(&Tensor::zeros(&[4]), &mut scratch).is_err());
        assert!(flat
            .input_grad(&TapeSlot::Empty, &Tensor::zeros(&[2, 2]), &mut scratch)
            .is_err());
    }
}
