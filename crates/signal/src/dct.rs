//! 2-D discrete cosine transform (DCT-II) and its inverse, as products with
//! cached orthonormal bases.
//!
//! The adaptive low-frequency attack of the paper (Eq. 8, Figure 3) projects
//! the RP2 perturbation through `IDCT(M_dim · DCT(M_x · δ))`, where `M_dim`
//! zeroes all but the lowest `dim × dim` DCT coefficients.
//!
//! With `B_n` the `n × n` orthonormal DCT-II basis (row `k` holds frequency
//! `k`), the 2-D DCT of an `[H, W]` plane is `B_h · X · B_wᵀ` and its
//! inverse is `B_hᵀ · Y · B_w`. Keeping only the lowest `d × d`
//! coefficients means keeping only the first `d` rows `B_{n,d}` of each
//! basis, so the projection is
//! `B_{h,d}ᵀ (B_{h,d} · X · B_{w,d}ᵀ) B_{w,d}`: four thin GEMMs, `O(h·w·d)`
//! per plane, run through the process-wide [`default_backend`]. Each basis
//! is built once per size in `f64`, stored as `f32` and cached for the
//! process.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use blurnet_tensor::{default_backend, Backend, Tensor};

use crate::{Result, SignalError};

fn require_2d(t: &Tensor) -> Result<(usize, usize)> {
    if t.shape().rank() != 2 {
        return Err(SignalError::BadShape(format!(
            "expected a rank-2 tensor, got shape {}",
            t.shape()
        )));
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// The orthonormal DCT-II basis `B_n`, row-major `n × n` with
/// `B[k][x] = s_k · cos(π (x + ½) k / n)`, `s_0 = √(1/n)` and
/// `s_k = √(2/n)` otherwise. Built in `f64` on first use of each size and
/// shared for the rest of the process.
fn basis(n: usize) -> Arc<[f32]> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<[f32]>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    // A poisoned map is still valid: a basis is built before it is inserted.
    let mut bases = cache.lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(bases.entry(n).or_insert_with(|| {
        let nf = n as f64;
        (0..n)
            .flat_map(|k| {
                let scale = if k == 0 { 1.0 / nf } else { 2.0 / nf }.sqrt();
                (0..n).map(move |x| {
                    let angle = std::f64::consts::PI * (x as f64 + 0.5) * k as f64 / nf;
                    (scale * angle.cos()) as f32
                })
            })
            .collect()
    }))
}

/// The first `d` rows of `B_n` as a `[d, n]` tensor (analysis) and their
/// transpose as an `[n, d]` tensor (synthesis).
fn basis_rows(n: usize, d: usize) -> Result<(Tensor, Tensor)> {
    let b = basis(n);
    let rows = &b[..d * n];
    let mut cols = vec![0.0f32; n * d];
    for k in 0..d {
        for x in 0..n {
            cols[x * d + k] = rows[k * n + x];
        }
    }
    Ok((
        Tensor::from_vec(rows.to_vec(), &[d, n])?,
        Tensor::from_vec(cols, &[n, d])?,
    ))
}

/// Swaps the two leading axes of a row-major `[a, b, c]` buffer.
fn swap_leading(data: &[f32], a: usize, b: usize, c: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(data.len());
    for j in 0..b {
        for i in 0..a {
            out.extend_from_slice(&data[(i * b + j) * c..][..c]);
        }
    }
    out
}

/// `left · X_p · right` for every plane `X_p` of a row-major `[P, H, W]`
/// buffer, with `left: [H', H]` and `right: [W, W']`; returns `[P, H', W']`.
///
/// The right product is one GEMM over the stacked `[P·H, W]` planes, the
/// left product one GEMM over the planes laid side by side as `[H, P·W']`.
fn plane_products(
    backend: &dyn Backend,
    planes: Vec<f32>,
    count: usize,
    left: &Tensor,
    right: &Tensor,
) -> Result<Vec<f32>> {
    let (h_out, h) = (left.dims()[0], left.dims()[1]);
    let (w, w_out) = (right.dims()[0], right.dims()[1]);
    let stacked = Tensor::from_vec(planes, &[count * h, w])?;
    let z = swap_leading(backend.matmul(&stacked, right)?.data(), count, h, w_out);
    let side_by_side = Tensor::from_vec(z, &[h, count * w_out])?;
    let out = backend.matmul(left, &side_by_side)?;
    Ok(swap_leading(out.data(), h_out, count, w_out))
}

/// The forward 2-D DCT `B_h · X · B_wᵀ`, or with `inverse` the inverse
/// `B_hᵀ · Y · B_w`.
fn transform2d_with(backend: &dyn Backend, x: &Tensor, inverse: bool) -> Result<Tensor> {
    let (h, w) = require_2d(x)?;
    let (b_h, b_h_t) = basis_rows(h, h)?;
    let (b_w, b_w_t) = basis_rows(w, w)?;
    let (left, right) = if inverse { (b_h_t, b_w) } else { (b_h, b_w_t) };
    let out = plane_products(backend, x.data().to_vec(), 1, &left, &right)?;
    Ok(Tensor::from_vec(out, &[h, w])?)
}

fn project_planes_with(backend: &dyn Backend, x: &Tensor, dim: usize) -> Result<Tensor> {
    let rank = x.shape().rank();
    if rank < 2 {
        return Err(SignalError::BadShape(format!(
            "expected a [..., H, W] tensor of rank >= 2, got shape {}",
            x.shape()
        )));
    }
    let (h, w) = (x.dims()[rank - 2], x.dims()[rank - 1]);
    check_dim(h, w, dim)?;
    let count = x.len() / (h * w);
    let (b_h, b_h_t) = basis_rows(h, dim)?;
    let (b_w, b_w_t) = basis_rows(w, dim)?;
    let coeffs = plane_products(backend, x.data().to_vec(), count, &b_h, &b_w_t)?;
    let out = plane_products(backend, coeffs, count, &b_h_t, &b_w)?;
    Ok(Tensor::from_vec(out, x.dims())?)
}

fn check_dim(h: usize, w: usize, dim: usize) -> Result<()> {
    if dim == 0 || dim > h || dim > w {
        return Err(SignalError::BadParameter(format!(
            "mask dimension {dim} must lie in 1..=min({h}, {w})"
        )));
    }
    Ok(())
}

/// Orthonormal 2-D DCT-II of an `[H, W]` tensor: `B_h · X · B_wᵀ`.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn dct2d(image: &Tensor) -> Result<Tensor> {
    transform2d_with(default_backend().as_ref(), image, false)
}

/// Inverse of [`dct2d`]: `B_hᵀ · Y · B_w`.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input is not rank 2.
pub fn idct2d(coeffs: &Tensor) -> Result<Tensor> {
    transform2d_with(default_backend().as_ref(), coeffs, true)
}

/// The DCT-domain mask `M_dim`: keeps the lowest `dim × dim` coefficients of
/// an `h × w` DCT grid and zeroes the rest.
///
/// # Errors
///
/// Returns [`SignalError::BadParameter`] if `dim` is zero or exceeds the
/// grid extents.
pub fn low_frequency_mask(h: usize, w: usize, dim: usize) -> Result<Tensor> {
    check_dim(h, w, dim)?;
    let mut mask = Tensor::zeros(&[h, w]);
    for y in 0..dim {
        for x in 0..dim {
            mask.set(&[y, x], 1.0)?;
        }
    }
    Ok(mask)
}

/// Projects an `[H, W]` perturbation onto its lowest `dim × dim` DCT
/// coefficients: `IDCT(M_dim · DCT(x))`, computed as
/// `B_{h,d}ᵀ (B_{h,d} · X · B_{w,d}ᵀ) B_{w,d}`.
///
/// # Errors
///
/// Returns an error if the input is not rank 2 or `dim` is invalid.
pub fn low_frequency_project(x: &Tensor, dim: usize) -> Result<Tensor> {
    require_2d(x)?;
    low_frequency_project_planes(x, dim)
}

/// [`low_frequency_project`] applied to every `[H, W]` plane of a
/// `[..., H, W]` tensor, batched: the `W`-side products run as one GEMM
/// over all planes stacked as `[P·H, W]`, the `H`-side products as one GEMM
/// over the planes laid side by side.
///
/// # Errors
///
/// Returns [`SignalError::BadShape`] if the input has rank below 2 and
/// [`SignalError::BadParameter`] if `dim` is zero or exceeds `min(H, W)`.
pub fn low_frequency_project_planes(x: &Tensor, dim: usize) -> Result<Tensor> {
    project_planes_with(default_backend().as_ref(), x, dim)
}

/// Direct trig-loop DCTs, the reference the basis products are pinned
/// against. They run in `f64`: in `f32` their angles lose precision at
/// large `k · x`, which puts an `f32` 48×48 projection about 2e-5 off exact
/// arithmetic — further than the basis products are.
#[cfg(test)]
mod reference {
    use super::*;

    fn dct1d(input: &[f64], inverse: bool) -> Vec<f64> {
        let n = input.len();
        let nf = n as f64;
        let mut out = vec![0.0f64; n];
        if inverse {
            // DCT-III (the inverse of the orthonormal DCT-II).
            for (x, o) in out.iter_mut().enumerate() {
                let mut acc = input[0] * (1.0 / nf).sqrt();
                for (k, &v) in input.iter().enumerate().skip(1) {
                    let angle = std::f64::consts::PI * (x as f64 + 0.5) * k as f64 / nf;
                    acc += v * (2.0 / nf).sqrt() * angle.cos();
                }
                *o = acc;
            }
        } else {
            // Orthonormal DCT-II.
            for (k, o) in out.iter_mut().enumerate() {
                let scale = if k == 0 {
                    (1.0 / nf).sqrt()
                } else {
                    (2.0 / nf).sqrt()
                };
                let mut acc = 0.0;
                for (x, &v) in input.iter().enumerate() {
                    let angle = std::f64::consts::PI * (x as f64 + 0.5) * k as f64 / nf;
                    acc += v * angle.cos();
                }
                *o = scale * acc;
            }
        }
        out
    }

    fn transform2d(grid: &mut [f64], h: usize, w: usize, inverse: bool) {
        // Rows.
        for y in 0..h {
            let row = dct1d(&grid[y * w..(y + 1) * w], inverse);
            grid[y * w..(y + 1) * w].copy_from_slice(&row);
        }
        // Columns.
        let mut col = vec![0.0f64; h];
        for x in 0..w {
            for y in 0..h {
                col[y] = grid[y * w + x];
            }
            let out = dct1d(&col, inverse);
            for y in 0..h {
                grid[y * w + x] = out[y];
            }
        }
    }

    /// The forward (or inverse) transform of `image`; with a `mask`, the
    /// masked coefficients are transformed back (the projection).
    fn run(image: &Tensor, inverse: bool, mask: Option<&Tensor>) -> Result<Tensor> {
        let (h, w) = require_2d(image)?;
        let mut grid: Vec<f64> = image.data().iter().map(|&v| f64::from(v)).collect();
        transform2d(&mut grid, h, w, inverse);
        if let Some(mask) = mask {
            for (g, &m) in grid.iter_mut().zip(mask.data()) {
                *g *= f64::from(m);
            }
            transform2d(&mut grid, h, w, true);
        }
        Ok(Tensor::from_vec(
            grid.into_iter().map(|v| v as f32).collect(),
            &[h, w],
        )?)
    }

    pub fn dct2d(image: &Tensor) -> Result<Tensor> {
        run(image, false, None)
    }

    pub fn idct2d(coeffs: &Tensor) -> Result<Tensor> {
        run(coeffs, true, None)
    }

    pub fn low_frequency_project(x: &Tensor, dim: usize) -> Result<Tensor> {
        let (h, w) = require_2d(x)?;
        run(x, false, Some(&low_frequency_mask(h, w, dim)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_idct_roundtrip() {
        let img = Tensor::from_vec(
            (0..64).map(|v| ((v * 31) % 17) as f32 * 0.1).collect(),
            &[8, 8],
        )
        .unwrap();
        let coeffs = dct2d(&img).unwrap();
        let back = idct2d(&coeffs).unwrap();
        for (a, b) in back.data().iter().zip(img.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn dct_is_orthonormal_energy_preserving() {
        let img =
            Tensor::from_vec((0..36).map(|v| (v as f32 * 0.7).sin()).collect(), &[6, 6]).unwrap();
        let coeffs = dct2d(&img).unwrap();
        let e_spatial: f32 = img.data().iter().map(|v| v * v).sum();
        let e_freq: f32 = coeffs.data().iter().map(|v| v * v).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-3);
    }

    #[test]
    fn constant_image_has_only_dc_coefficient() {
        let img = Tensor::full(&[8, 8], 3.0);
        let coeffs = dct2d(&img).unwrap();
        assert!(coeffs.get(&[0, 0]).unwrap().abs() > 1.0);
        for y in 0..8 {
            for x in 0..8 {
                if y != 0 || x != 0 {
                    assert!(coeffs.get(&[y, x]).unwrap().abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn low_frequency_mask_counts() {
        let m = low_frequency_mask(16, 16, 4).unwrap();
        assert_eq!(m.sum(), 16.0);
        assert!(low_frequency_mask(16, 16, 0).is_err());
        assert!(low_frequency_mask(16, 16, 17).is_err());
    }

    #[test]
    fn projection_removes_high_frequency_content() {
        // A checkerboard is almost entirely high-frequency: a dim-2 projection
        // should remove nearly all its energy.
        let n = 16;
        let mut img = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                img.set(&[y, x], if (x + y) % 2 == 0 { 1.0 } else { -1.0 })
                    .unwrap();
            }
        }
        let projected = low_frequency_project(&img, 2).unwrap();
        assert!(projected.l2_norm() < 0.05 * img.l2_norm());
        // A smooth ramp is mostly low-frequency: the same projection keeps
        // most of its energy.
        let mut ramp = Tensor::zeros(&[n, n]);
        for y in 0..n {
            for x in 0..n {
                ramp.set(&[y, x], x as f32 / n as f32).unwrap();
            }
        }
        let projected = low_frequency_project(&ramp, 4).unwrap();
        assert!(projected.l2_norm() > 0.9 * ramp.l2_norm());
    }

    #[test]
    fn projection_is_idempotent() {
        let img =
            Tensor::from_vec((0..64).map(|v| (v as f32 * 0.37).cos()).collect(), &[8, 8]).unwrap();
        let once = low_frequency_project(&img, 3).unwrap();
        let twice = low_frequency_project(&once, 3).unwrap();
        for (a, b) in once.data().iter().zip(twice.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}

/// Pins the basis products to the trig-loop reference and checks the
/// algebra the RP2 gradient relies on.
#[cfg(test)]
mod basis_products {
    use super::*;
    use blurnet_tensor::{CpuBackend, SimdTier};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    const TOLERANCE: f32 = 1e-5;

    /// The paper's plane sizes plus ChaCha8-drawn ones, non-square included.
    fn shapes() -> Vec<(usize, usize)> {
        let mut shapes = vec![(8, 8), (12, 12), (32, 32), (48, 48), (8, 12), (32, 12)];
        let mut rng = ChaCha8Rng::seed_from_u64(0xdc7);
        for _ in 0..4 {
            shapes.push((rng.gen_range(1..=40), rng.gen_range(1..=40)));
        }
        shapes
    }

    fn random(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng)
    }

    fn assert_close(fast: &Tensor, slow: &Tensor, context: &str) {
        assert_eq!(fast.dims(), slow.dims(), "{context}");
        let worst = fast
            .data()
            .iter()
            .zip(slow.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= TOLERANCE, "{context}: max |Δ| = {worst}");
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn transforms_match_the_trig_reference() {
        for (i, (h, w)) in shapes().into_iter().enumerate() {
            let x = random(&[h, w], i as u64);
            let context = format!("{h}x{w}");
            assert_close(
                &dct2d(&x).unwrap(),
                &reference::dct2d(&x).unwrap(),
                &context,
            );
            assert_close(
                &idct2d(&x).unwrap(),
                &reference::idct2d(&x).unwrap(),
                &context,
            );
        }
    }

    #[test]
    fn projection_matches_the_trig_reference_at_every_dim() {
        for (i, (h, w)) in shapes().into_iter().enumerate() {
            let x = random(&[h, w], 100 + i as u64);
            for dim in 1..=h.min(w) {
                assert_close(
                    &low_frequency_project(&x, dim).unwrap(),
                    &reference::low_frequency_project(&x, dim).unwrap(),
                    &format!("{h}x{w} dim {dim}"),
                );
            }
        }
    }

    #[test]
    fn planes_match_the_single_plane_projection_bitwise() {
        for (i, (h, w)) in shapes().into_iter().enumerate() {
            let x = random(&[2, 3, h, w], 200 + i as u64);
            for dim in [1, h.min(w) / 2 + 1, h.min(w)] {
                let batched = low_frequency_project_planes(&x, dim).unwrap();
                assert_eq!(batched.dims(), x.dims());
                for (p, out) in batched.data().chunks_exact(h * w).enumerate() {
                    let plane =
                        Tensor::from_vec(x.data()[p * h * w..(p + 1) * h * w].to_vec(), &[h, w])
                            .unwrap();
                    let single = low_frequency_project(&plane, dim).unwrap();
                    let out: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(out, bits(&single), "{h}x{w} dim {dim} plane {p}");
                    assert_close(
                        &single,
                        &reference::low_frequency_project(&plane, dim).unwrap(),
                        &format!("{h}x{w} dim {dim} plane {p} vs reference"),
                    );
                }
            }
        }
    }

    #[test]
    fn projection_is_self_adjoint_and_idempotent() {
        for (i, (h, w)) in shapes().into_iter().enumerate() {
            let x = random(&[3, h, w], 300 + i as u64);
            let y = random(&[3, h, w], 400 + i as u64);
            for dim in 1..=h.min(w) {
                let px = low_frequency_project_planes(&x, dim).unwrap();
                let py = low_frequency_project_planes(&y, dim).unwrap();
                // ⟨Px, y⟩ = ⟨x, Py⟩: the RP2 gradient reuses P as its own
                // adjoint.
                let (lhs, rhs) = (px.dot(&y).unwrap(), x.dot(&py).unwrap());
                let scale = px.l2_norm() * y.l2_norm() + 1.0;
                assert!(
                    (lhs - rhs).abs() <= 1e-5 * scale,
                    "{h}x{w} dim {dim}: {lhs} vs {rhs}"
                );
                assert_close(
                    &low_frequency_project_planes(&px, dim).unwrap(),
                    &px,
                    &format!("{h}x{w} dim {dim} idempotence"),
                );
            }
        }
    }

    #[test]
    fn typed_errors_for_bad_dims_and_ranks() {
        let x = random(&[6, 9], 5);
        for dim in [0, 7, 10] {
            assert!(matches!(
                low_frequency_project(&x, dim),
                Err(SignalError::BadParameter(_))
            ));
            assert!(matches!(
                low_frequency_project_planes(&x, dim),
                Err(SignalError::BadParameter(_))
            ));
        }
        let vector = random(&[9], 6);
        let cube = random(&[2, 6, 9], 7);
        assert!(matches!(dct2d(&vector), Err(SignalError::BadShape(_))));
        assert!(matches!(idct2d(&cube), Err(SignalError::BadShape(_))));
        assert!(matches!(
            low_frequency_project(&cube, 2),
            Err(SignalError::BadShape(_))
        ));
        assert!(matches!(
            low_frequency_project_planes(&vector, 2),
            Err(SignalError::BadShape(_))
        ));
        assert!(low_frequency_project_planes(&cube, 6).is_ok());
    }

    #[test]
    fn scalar_and_detected_tiers_are_bit_identical() {
        let scalar = CpuBackend::with_tier(SimdTier::Scalar);
        let detected = CpuBackend::with_tier(SimdTier::detect());
        for (i, (h, w)) in shapes().into_iter().enumerate() {
            let x = random(&[h, w], 500 + i as u64);
            for inverse in [false, true] {
                assert_eq!(
                    bits(&transform2d_with(&scalar, &x, inverse).unwrap()),
                    bits(&transform2d_with(&detected, &x, inverse).unwrap())
                );
            }
            let planes = random(&[2, 3, h, w], 600 + i as u64);
            let dim = h.min(w).div_ceil(2);
            let on_scalar = project_planes_with(&scalar, &planes, dim).unwrap();
            assert_eq!(
                bits(&on_scalar),
                bits(&project_planes_with(&detected, &planes, dim).unwrap())
            );
            assert_eq!(
                bits(&on_scalar),
                bits(&low_frequency_project_planes(&planes, dim).unwrap())
            );
        }
    }
}
