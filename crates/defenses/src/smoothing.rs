//! Randomized-smoothing prediction: majority vote over Gaussian-noised
//! copies of the input (Cohen et al., used as a baseline defense in
//! Table II).

use blurnet_nn::Sequential;
use blurnet_tensor::Tensor;
use rand::Rng;

use crate::{DefenseError, Result};

/// Predicts the class of one `[C, H, W]` image by majority vote over
/// `samples` Gaussian-noised copies with standard deviation `sigma`.
///
/// # Errors
///
/// Returns [`DefenseError::BadConfig`] for non-positive `sigma` or zero
/// `samples`, and propagates network errors.
pub fn smoothed_predict<R: Rng + ?Sized>(
    net: &Sequential,
    image: &Tensor,
    sigma: f32,
    samples: usize,
    rng: &mut R,
) -> Result<usize> {
    if sigma <= 0.0 || samples == 0 {
        return Err(DefenseError::BadConfig(format!(
            "smoothing needs positive sigma and samples, got sigma={sigma}, samples={samples}"
        )));
    }
    // Draw the whole noise batch in one tensor (same RNG stream as the old
    // per-sample loop) and add the image in place: one allocation and one
    // pass instead of `samples` temporary tensors plus a stack copy.
    let dims = image.dims();
    let mut batch_dims = Vec::with_capacity(dims.len() + 1);
    batch_dims.push(samples);
    batch_dims.extend_from_slice(dims);
    let mut batch = Tensor::rand_normal(&batch_dims, 0.0, sigma, rng);
    let len = image.len();
    for sample in batch.data_mut().chunks_mut(len) {
        for (noisy, &clean) in sample.iter_mut().zip(image.data().iter()) {
            *noisy = (*noisy + clean).clamp(0.0, 1.0);
        }
    }
    let preds = net.predict_batch(&batch)?;
    let mut votes = std::collections::HashMap::new();
    for p in preds {
        *votes.entry(p).or_insert(0usize) += 1;
    }
    Ok(votes
        .into_iter()
        .max_by_key(|&(class, count)| (count, std::cmp::Reverse(class)))
        .map(|(class, _)| class)
        .unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blurnet_nn::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn smoothing_returns_a_valid_class_and_is_stable_for_tiny_noise() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let image = Tensor::full(&[3, 16, 16], 0.4);
        let plain = net
            .predict_batch(&Tensor::stack(std::slice::from_ref(&image)).unwrap())
            .unwrap()[0];
        let smoothed = smoothed_predict(&net, &image, 1e-4, 11, &mut rng).unwrap();
        assert!(smoothed < 18);
        // With near-zero noise the vote must match the plain prediction.
        assert_eq!(smoothed, plain);
    }

    #[test]
    fn parameter_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap();
        let image = Tensor::zeros(&[3, 16, 16]);
        assert!(smoothed_predict(&net, &image, 0.0, 4, &mut rng).is_err());
        assert!(smoothed_predict(&net, &image, 0.1, 0, &mut rng).is_err());
    }
}
