//! A `Backend` that counts and times the kernels the nn replays call
//! before handing them to the real backend, and passes every other call
//! straight through. The benchmark hands it to `BatchEngine::with_backend`,
//! so the replays report, per kernel, calls, self time, and FLOPs and bytes
//! **computed from the operand shapes** (not measured by hardware
//! counters).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blurnet_tensor::{
    Backend, Conv2dGrads, ConvSpec, DepthwiseGrads, MaxPoolOutput, PackedConvWeights, PoolSpec,
    Result, Scratch, SimdTier, Tensor,
};

/// The kernels the nn replays call, in report order.
pub const KERNELS: [&str; 7] = [
    "conv2d_prepacked",
    "conv2d_input_grad_prepacked",
    "depthwise_conv2d",
    "depthwise_input_grad",
    "matmul",
    "max_pool2d",
    "max_pool2d_backward",
];

/// Per-kernel totals.
#[derive(Debug, Default)]
struct Counter {
    calls: AtomicU64,
    nanos: AtomicU64,
    flops: AtomicU64,
    bytes: AtomicU64,
}

/// What one kernel did, summed over the calls.
#[derive(Debug, Clone, Copy)]
pub struct KernelTotals {
    /// Calls.
    pub calls: u64,
    /// Time inside the kernel, in milliseconds.
    pub self_ms: f64,
    /// Floating-point operations computed from shapes, in units of 1e9.
    pub gflop: f64,
    /// Operand and result bytes computed from shapes, in units of 1e6.
    pub mbytes: f64,
}

/// The counting wrapper.
#[derive(Debug)]
pub struct CountingBackend {
    inner: Arc<dyn Backend>,
    counters: Vec<Counter>,
}

fn elems(dims: &[usize]) -> u64 {
    dims.iter().product::<usize>() as u64
}

fn bytes(parts: &[&[usize]]) -> u64 {
    4 * parts.iter().map(|d| elems(d)).sum::<u64>()
}

/// Multiply-adds of a convolution producing `out` from `c_in` channels
/// with a `kh × kw` window, counted as 2 FLOPs each.
fn conv_flops(out: &[usize], c_in: usize, kh: usize, kw: usize) -> u64 {
    2 * elems(out) * (c_in * kh * kw) as u64
}

impl CountingBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Backend>) -> CountingBackend {
        CountingBackend {
            inner,
            counters: KERNELS.iter().map(|_| Counter::default()).collect(),
        }
    }

    fn timed<T>(
        &self,
        kernel: &str,
        f: impl FnOnce() -> Result<T>,
        cost: impl FnOnce(&T) -> (u64, u64),
    ) -> Result<T> {
        let t0 = Instant::now();
        let out = f()?;
        let nanos = t0.elapsed().as_nanos() as u64;
        let i = KERNELS
            .iter()
            .position(|&k| k == kernel)
            .expect("only replay kernels are timed");
        let c = &self.counters[i];
        let (flops, bytes) = cost(&out);
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.nanos.fetch_add(nanos, Ordering::Relaxed);
        c.flops.fetch_add(flops, Ordering::Relaxed);
        c.bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(out)
    }

    /// Totals per kernel, in [`KERNELS`] order.
    pub fn totals(&self) -> Vec<(&'static str, KernelTotals)> {
        KERNELS
            .iter()
            .zip(&self.counters)
            .map(|(&k, c)| {
                (
                    k,
                    KernelTotals {
                        calls: c.calls.load(Ordering::Relaxed),
                        self_ms: c.nanos.load(Ordering::Relaxed) as f64 / 1e6,
                        gflop: c.flops.load(Ordering::Relaxed) as f64 / 1e9,
                        mbytes: c.bytes.load(Ordering::Relaxed) as f64 / 1e6,
                    },
                )
            })
            .collect()
    }
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn simd_tier(&self) -> SimdTier {
        self.inner.simd_tier()
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed(
            "matmul",
            || self.inner.matmul(a, b),
            |o| {
                let k = a.dims()[a.dims().len() - 1];
                (
                    2 * elems(o.dims()) * k as u64,
                    bytes(&[a.dims(), b.dims(), o.dims()]),
                )
            },
        )
    }

    fn matmul_transpose_a(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.inner.matmul_transpose_a(a, b)
    }

    fn matmul_transpose_b(&self, a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        self.inner.matmul_transpose_b(a, b, scratch)
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.inner.conv2d(input, weight, bias, spec, scratch)
    }

    fn conv2d_prepacked(
        &self,
        input: &Tensor,
        weights: &PackedConvWeights,
        bias: Option<&Tensor>,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.timed(
            "conv2d_prepacked",
            || {
                self.inner
                    .conv2d_prepacked(input, weights, bias, spec, scratch)
            },
            |o| {
                let (kh, kw) = weights.kernel();
                let w = [weights.filters(), weights.in_channels(), kh, kw];
                (
                    conv_flops(o.dims(), weights.in_channels(), kh, kw),
                    bytes(&[input.dims(), &w, o.dims()]),
                )
            },
        )
    }

    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Conv2dGrads> {
        self.inner
            .conv2d_backward(input, weight, grad_output, spec, scratch)
    }

    fn conv2d_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.inner
            .conv2d_input_grad(weight, grad_output, input_dims, spec, scratch)
    }

    fn conv2d_input_grad_prepacked(
        &self,
        weights: &PackedConvWeights,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        self.timed(
            "conv2d_input_grad_prepacked",
            || {
                self.inner.conv2d_input_grad_prepacked(
                    weights,
                    grad_output,
                    input_dims,
                    spec,
                    scratch,
                )
            },
            |_| {
                let (kh, kw) = weights.kernel();
                let w = [weights.filters(), weights.in_channels(), kh, kw];
                (
                    conv_flops(grad_output.dims(), weights.in_channels(), kh, kw),
                    bytes(&[input_dims, &w, grad_output.dims()]),
                )
            },
        )
    }

    fn depthwise_conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: ConvSpec,
    ) -> Result<Tensor> {
        self.timed(
            "depthwise_conv2d",
            || self.inner.depthwise_conv2d(input, weight, bias, spec),
            |o| {
                let w = weight.dims();
                let (kh, kw) = (w[w.len() - 2], w[w.len() - 1]);
                (
                    conv_flops(o.dims(), 1, kh, kw),
                    bytes(&[input.dims(), w, o.dims()]),
                )
            },
        )
    }

    fn depthwise_conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_output: &Tensor,
        spec: ConvSpec,
    ) -> Result<DepthwiseGrads> {
        self.inner
            .depthwise_conv2d_backward(input, weight, grad_output, spec)
    }

    fn depthwise_input_grad(
        &self,
        weight: &Tensor,
        grad_output: &Tensor,
        input_dims: &[usize],
        spec: ConvSpec,
    ) -> Result<Tensor> {
        self.timed(
            "depthwise_input_grad",
            || {
                self.inner
                    .depthwise_input_grad(weight, grad_output, input_dims, spec)
            },
            |_| {
                let w = weight.dims();
                let (kh, kw) = (w[w.len() - 2], w[w.len() - 1]);
                (
                    conv_flops(grad_output.dims(), 1, kh, kw),
                    bytes(&[input_dims, w, grad_output.dims()]),
                )
            },
        )
    }

    fn max_pool2d(&self, input: &Tensor, spec: PoolSpec) -> Result<MaxPoolOutput> {
        self.timed(
            "max_pool2d",
            || self.inner.max_pool2d(input, spec),
            |o| {
                let out = o.output.dims();
                // One comparison per window tap; the argmax is 8 bytes per
                // output element.
                (
                    elems(out) * (spec.window * spec.window) as u64,
                    bytes(&[input.dims(), out]) + 8 * elems(out),
                )
            },
        )
    }

    fn max_pool2d_backward(
        &self,
        grad_output: &Tensor,
        argmax: &[usize],
        input_dims: &[usize],
    ) -> Result<Tensor> {
        self.timed(
            "max_pool2d_backward",
            || {
                self.inner
                    .max_pool2d_backward(grad_output, argmax, input_dims)
            },
            |_| {
                (
                    elems(grad_output.dims()),
                    bytes(&[grad_output.dims(), input_dims]) + 8 * argmax.len() as u64,
                )
            },
        )
    }

    fn blur_batch(&self, batch: &Tensor, kernel: &Tensor) -> Result<Tensor> {
        self.inner.blur_batch(batch, kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_and_computed_flops() {
        let backend = CountingBackend::new(blurnet_tensor::default_backend());
        let a = Tensor::from_vec(vec![1.0; 6], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0; 12], &[3, 4]).unwrap();
        let out = backend.matmul(&a, &b).unwrap();
        assert_eq!(out.dims(), &[2, 4]);
        let totals = backend.totals();
        let (_, mm) = totals.iter().find(|(k, _)| *k == "matmul").unwrap();
        assert_eq!(mm.calls, 1);
        assert_eq!(mm.gflop, (2 * 2 * 4 * 3) as f64 / 1e9);
        assert_eq!(mm.mbytes, (4 * (6 + 12 + 8)) as f64 / 1e6);
    }
}
