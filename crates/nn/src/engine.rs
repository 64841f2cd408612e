//! The batch-parallel inference **and gradient** engine — the one forward
//! and backward path of the crate.
//!
//! A [`BatchEngine`] takes an immutable borrow of a [`Sequential`],
//! pre-packs each convolution's weights into the GEMM-ready transposed
//! layout (and each dense layer's weights into `[in, out]`) exactly once,
//! and then evaluates **batch shards in parallel** — the batch dimension
//! is split into fixed-size shards that rayon workers process
//! independently, each worker owning a private [`Scratch`] pool that is
//! reused across every layer of every shard it processes.
//!
//! Backward passes work the same way: a recorded forward pass writes what
//! backward needs into a caller-owned tape (one [`TapeSlot`] per layer,
//! owned by the worker, never by the network), and the backward walks the
//! tape in reverse.
//!
//! * **Attacks** ([`BatchEngine::forward_backward_with`],
//!   [`BatchEngine::forward_backward_batch`], [`BatchEngine::input_grad`])
//!   need input gradients only: every layer's [`crate::Layer::input_grad`]
//!   runs, the weight-gradient kernels are skipped, and all
//!   `steps × images` gradient iterations of an attack run as `steps`
//!   batched passes.
//! * **Training** ([`BatchEngine::forward_backward_params`]) runs the whole
//!   mini-batch as one shard, so every kernel keeps its own intra-op
//!   parallelism. Its tape also keeps the forward input of each layer with
//!   parameters, whose [`crate::Layer::param_grad`] adds `dW` and `db` into
//!   caller-owned accumulators that start at `+0.0`. This is the stateful
//!   pass: its tape keeps each parameterised layer's forward input.
//!
//! # Determinism
//!
//! Forward outputs are **bit-identical** to walking each layer's
//! [`crate::Layer::infer`] over the same input, and attack input gradients
//! are bit-identical to the training backward run image by image, for
//! every batch size, shard size and thread count:
//!
//! * shard boundaries depend only on the batch size, never on the thread
//!   count;
//! * every per-element accumulation (GEMM register tiles, im2col rows,
//!   depthwise taps, col2im folds) runs in a fixed order that does not
//!   depend on how the work is partitioned;
//! * workers write disjoint output ranges, so there are no accumulation
//!   races.
//!
//! `RAYON_NUM_THREADS=1` (or a 1-thread `rayon` pool) therefore reproduces
//! the parallel results exactly; the property tests in
//! `tests/forward_batch.rs` and `tests/input_grad_batch.rs` pin this.
//!
//! # Sharing an engine across workers
//!
//! A [`BatchEngine`] is `Send + Sync` (asserted at compile time below):
//! it holds only immutable borrows of the network plus read-only weight
//! packs, and every call drives per-worker scratch state, so **one engine
//! may be used from many threads at once**. This is the borrow model the
//! experiment scheduler builds on — trained networks are shared read-only
//! (e.g. behind an `Arc`) across concurrently executing evaluation cells,
//! and each cell freely constructs or reuses engines over those weights
//! from whatever worker it lands on. Anything mutable (smoothing RNGs,
//! gradient accumulators) lives outside the engine.

use std::sync::Arc;

use blurnet_tensor::{default_backend, Backend, PackedConvWeights, Scratch, Tensor};
use rayon::prelude::*;

use crate::{loss, Conv2d, Dense, Layer, LayerKind, NnError, Result, Sequential, TapeSlot};

/// One layer of a prepared inference plan: convolutions and dense layers
/// carry their pre-packed weights, everything else runs its plain
/// [`Layer::infer`] path.
enum EngineLayer<'n> {
    /// Convolution with the `[C·KH·KW, F]` weight pack.
    Conv {
        /// The borrowed layer (bias + spec).
        layer: &'n Conv2d,
        /// Weights packed once, shared read-only across shards and calls.
        packed: PackedConvWeights,
    },
    /// Dense layer with the `[in, out]` transposed weights.
    Dense {
        /// The borrowed layer (bias + shape checks).
        layer: &'n Dense,
        /// Transposed weights, shared read-only across shards and calls.
        weight_t: Tensor,
    },
    /// Any other layer, evaluated through [`Layer::infer`].
    Plain(&'n LayerKind),
}

impl EngineLayer<'_> {
    /// The borrowed layer behind this plan entry.
    fn layer(&self) -> &dyn Layer {
        match self {
            EngineLayer::Conv { layer, .. } => *layer,
            EngineLayer::Dense { layer, .. } => *layer,
            EngineLayer::Plain(kind) => *kind,
        }
    }
}

/// Backward directive for one shard, produced by the loss closure passed
/// to [`BatchEngine::forward_backward_with`] or
/// [`BatchEngine::forward_backward_params`].
#[derive(Debug)]
pub struct ShardGrad {
    /// Gradient of the shard loss with respect to the shard logits.
    pub d_logits: Tensor,
    /// Extra gradient injected at the collected feature layer's output
    /// while back-propagating (adaptive feature penalties, Eq. 9–11; TV
    /// and Tikhonov training penalties, Eq. 4, 6–7). Ignored when no
    /// feature layer was requested.
    pub injection: Option<Tensor>,
    /// Scalar loss of this shard (diagnostics; the engine only forwards
    /// it into [`GradBatch::shard_losses`]).
    pub loss: f32,
}

/// Result of a batched forward + backward pass through a [`BatchEngine`].
#[derive(Debug)]
pub struct GradBatch {
    /// Logits for the whole batch, `[N, classes]`.
    pub logits: Tensor,
    /// Gradient of the loss with respect to the batch input, same shape as
    /// the input.
    pub input_grad: Tensor,
    /// Per-shard loss values, in shard order. With the default shard size
    /// of one image this is one loss per image.
    pub shard_losses: Vec<f32>,
    /// Gradients of the loss with respect to every parameter, in
    /// [`Sequential::params`] order. Empty unless the pass was
    /// [`BatchEngine::forward_backward_params`].
    pub param_grads: Vec<Tensor>,
}

/// A reusable, shareable inference plan over a borrowed [`Sequential`].
///
/// Build it once with [`Sequential::batch_engine`] and call
/// [`BatchEngine::forward`] as many times as needed — attack evaluation
/// loops classify thousands of images against one frozen network, and the
/// per-layer weight packing is paid exactly once for all of them.
///
/// ```
/// use blurnet_nn::{LisaCnn, Sequential};
/// use blurnet_tensor::Tensor;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let net = LisaCnn::new(18).build(&mut rng)?;
/// let engine = net.batch_engine()?;
/// let batch = Tensor::zeros(&[8, 3, 32, 32]);
/// // Two calls share the packed weights; results are deterministic.
/// assert_eq!(engine.forward(&batch)?, engine.forward(&batch)?);
/// # Ok::<(), blurnet_nn::NnError>(())
/// ```
pub struct BatchEngine<'n> {
    layers: Vec<EngineLayer<'n>>,
    shard_size: usize,
    /// Compute backend every kernel call routes through; per-worker
    /// [`Scratch`] pools are bound to it, so one engine dispatches at one
    /// tier for its whole lifetime.
    backend: Arc<dyn Backend>,
}

/// Default images per shard: one. The finest sharding maximizes batch-level
/// parallelism and costs nothing per image: LISA-CNN's convolutions and
/// their input gradients run direct kernels (stride 1 for conv2/conv3,
/// stride 2 for conv1) that walk a batch one image at a time anyway, so a
/// larger shard would not make the per-image work cheaper.
const DEFAULT_SHARD_IMAGES: usize = 1;

// Compile-time pin of the sharing contract: an engine (and the plan it
// borrows) must remain usable from many threads at once. Removing `Sync`
// from any constituent (a layer, a weight pack, a tensor) breaks the
// experiment scheduler's shared-engine model and must fail loudly here.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<BatchEngine<'static>>();
    assert_shareable::<Sequential>();
};

impl<'n> BatchEngine<'n> {
    /// Prepares an inference plan: packs every convolution's weights into
    /// the GEMM layout and transposes every dense layer's weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty network.
    pub fn new(net: &'n Sequential) -> Result<Self> {
        if net.is_empty() {
            return Err(NnError::BadConfig("network has no layers".into()));
        }
        let mut layers = Vec::with_capacity(net.len());
        for kind in net.iter() {
            layers.push(match kind {
                LayerKind::Conv2d(layer) => EngineLayer::Conv {
                    layer,
                    packed: layer.packed_weights()?,
                },
                LayerKind::Dense(layer) => EngineLayer::Dense {
                    layer,
                    weight_t: layer.weight_transposed(),
                },
                other => EngineLayer::Plain(other),
            });
        }
        Ok(BatchEngine {
            layers,
            shard_size: DEFAULT_SHARD_IMAGES,
            backend: default_backend(),
        })
    }

    /// Overrides the compute backend (default: the process-wide
    /// [`default_backend`]). Cross-dispatch tests pin engines to explicit
    /// tiers with this; results must be identical across supported tiers.
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// The compute backend this engine dispatches through.
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// Overrides the number of images per shard (clamped to at least 1).
    ///
    /// For **forward** evaluation, sharding only affects how work is
    /// distributed, never the results. The **gradient** path is different:
    /// [`BatchEngine::forward_backward_batch`] normalizes its per-shard
    /// cross-entropy over the shard, so a larger shard scales the logit
    /// (and therefore input) gradients by `1/shard_count` and makes
    /// [`GradBatch::shard_losses`] shard means instead of per-image
    /// losses. Sign-based consumers (PGD) are unaffected; magnitude-based
    /// consumers should keep the default of one image per shard.
    pub fn with_shard_size(mut self, images: usize) -> Self {
        self.shard_size = images.max(1);
        self
    }

    /// Images per shard.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Runs every layer over one shard, drawing workspace from `scratch`.
    fn infer_shard(&self, shard: &Tensor, scratch: &mut Scratch) -> Result<Tensor> {
        let mut x: Option<Tensor> = None;
        for engine_layer in &self.layers {
            let input = x.as_ref().unwrap_or(shard);
            let out = match engine_layer {
                EngineLayer::Conv { layer, packed } => self.backend.conv2d_prepacked(
                    input,
                    packed,
                    Some(layer.bias()),
                    layer.spec(),
                    scratch,
                )?,
                EngineLayer::Dense { layer, weight_t } => {
                    layer.check_input(input)?;
                    let mut out = self.backend.matmul(input, weight_t)?;
                    layer.add_bias(&mut out);
                    out
                }
                EngineLayer::Plain(kind) => kind.infer(input, scratch)?,
            };
            x = Some(out);
        }
        Ok(x.expect("non-empty network produced an output"))
    }

    /// Runs every layer over one shard while recording each layer's
    /// backward needs into `tapes` (resized to the network depth), and
    /// optionally cloning out the activation after layer `feature_layer`.
    /// With `keep_inputs`, layers with parameters record their forward
    /// input instead, for [`Layer::param_grad`]. Every slot is overwritten
    /// in place, so a reused tape frees the previous pass's records one by
    /// one as the new ones replace them.
    fn infer_shard_recorded(
        &self,
        shard: &Tensor,
        feature_layer: Option<usize>,
        keep_inputs: bool,
        tapes: &mut Vec<TapeSlot>,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, Option<Tensor>)> {
        tapes.resize_with(self.layers.len(), TapeSlot::default);
        let mut feature = None;
        let mut x: Option<Tensor> = None;
        for (i, engine_layer) in self.layers.iter().enumerate() {
            let input = x.as_ref().unwrap_or(shard);
            let out = match engine_layer {
                EngineLayer::Conv { layer, packed } => {
                    let out = self.backend.conv2d_prepacked(
                        input,
                        packed,
                        Some(layer.bias()),
                        layer.spec(),
                        scratch,
                    )?;
                    // Conv input gradients only need the recorded shape.
                    tapes[i] = TapeSlot::InputDims(input.dims().to_vec());
                    out
                }
                EngineLayer::Dense { layer, weight_t } => {
                    layer.check_input(input)?;
                    let mut out = self.backend.matmul(input, weight_t)?;
                    layer.add_bias(&mut out);
                    // `dx = g · W` needs no forward state.
                    tapes[i] = TapeSlot::Empty;
                    out
                }
                EngineLayer::Plain(kind) => kind.infer_recording(input, &mut tapes[i], scratch)?,
            };
            if keep_inputs && !engine_layer.layer().params().is_empty() {
                tapes[i] = TapeSlot::Input(input.clone());
            }
            if feature_layer == Some(i) {
                feature = Some(out.clone());
            }
            x = Some(out);
        }
        let logits = x.expect("non-empty network produced an output");
        Ok((logits, feature))
    }

    /// Walks one shard's tape backwards, adding `injection` at
    /// `feature_layer`'s output on the way. Layers whose tape kept their
    /// input add their parameter gradients into `grads` (all of the
    /// network's accumulators, in [`Sequential::params`] order); every
    /// other layer runs its input-gradient path.
    fn backward_shard(
        &self,
        tapes: &[TapeSlot],
        d_logits: Tensor,
        injection: Option<(usize, &Tensor)>,
        mut grads: Option<&mut [Tensor]>,
        scratch: &mut Scratch,
    ) -> Result<Tensor> {
        let mut grad = d_logits;
        let mut params_end = grads.as_deref().map_or(0, <[Tensor]>::len);
        for (i, engine_layer) in self.layers.iter().enumerate().rev() {
            if let Some((idx, extra)) = injection {
                if idx == i {
                    grad.add_scaled(extra, 1.0)?;
                }
            }
            grad = match (&tapes[i], grads.as_deref_mut(), engine_layer) {
                (TapeSlot::Input(input), Some(grads), _) => {
                    let layer = engine_layer.layer();
                    let start = params_end - layer.params().len();
                    let d_input =
                        layer.param_grad(input, &grad, &mut grads[start..params_end], scratch)?;
                    params_end = start;
                    d_input
                }
                (TapeSlot::InputDims(dims), _, EngineLayer::Conv { layer, packed }) => {
                    // The pack carries the pre-flipped taps for the direct
                    // transposed kernel — built once per engine, shared
                    // read-only across shards (bit-identical to the
                    // per-call layer path).
                    self.backend.conv2d_input_grad_prepacked(
                        packed,
                        &grad,
                        dims,
                        layer.spec(),
                        scratch,
                    )?
                }
                (_, _, EngineLayer::Conv { .. }) => {
                    return Err(NnError::MissingForwardCache("conv2d".to_string()))
                }
                (tape, _, other) => other.layer().input_grad(tape, &grad, scratch)?,
            };
        }
        Ok(grad)
    }

    /// Forward + backward for one shard: recorded forward, caller's loss
    /// closure, then the tape-driven backward. With `grads`, the tape keeps
    /// each parameterised layer's input and the backward accumulates into
    /// `grads`.
    #[allow(clippy::too_many_arguments)]
    fn run_shard_backward<F>(
        &self,
        shard: &Tensor,
        start: usize,
        feature_layer: Option<usize>,
        grad_fn: F,
        grads: Option<&mut [Tensor]>,
        tapes: &mut Vec<TapeSlot>,
        scratch: &mut Scratch,
    ) -> Result<(Tensor, Tensor, f32)>
    where
        F: FnOnce(usize, &Tensor, Option<&Tensor>) -> Result<ShardGrad>,
    {
        let (logits, feature) =
            self.infer_shard_recorded(shard, feature_layer, grads.is_some(), tapes, scratch)?;
        let shard_grad = grad_fn(start, &logits, feature.as_ref())?;
        if shard_grad.d_logits.dims() != logits.dims() {
            return Err(NnError::BadConfig(format!(
                "shard gradient shape {:?} does not match logits {:?}",
                shard_grad.d_logits.dims(),
                logits.dims()
            )));
        }
        let injection = match (feature_layer, shard_grad.injection.as_ref()) {
            (Some(idx), Some(extra)) => Some((idx, extra)),
            _ => None,
        };
        let d_input = self.backward_shard(tapes, shard_grad.d_logits, injection, grads, scratch)?;
        Ok((logits, d_input, shard_grad.loss))
    }

    /// Rejects an empty batch or an out-of-range feature layer before any
    /// backward pass runs.
    fn check_backward_args(&self, input: &Tensor, feature_layer: Option<usize>) -> Result<()> {
        if input.shape().rank() < 2 || input.dims()[0] == 0 {
            return Err(NnError::BadConfig(format!(
                "forward_backward expects a non-empty [N, ...] batch, got {}",
                input.shape()
            )));
        }
        if let Some(idx) = feature_layer {
            if idx >= self.layers.len() {
                return Err(NnError::BadConfig(format!(
                    "feature layer index {idx} out of range for {} layers",
                    self.layers.len()
                )));
            }
        }
        Ok(())
    }

    /// Runs a recorded forward pass and a tape-driven backward pass over an
    /// `[N, ...]` batch, sharding the batch dimension across rayon workers
    /// exactly like [`BatchEngine::forward`] (same shard boundaries, same
    /// per-worker [`Scratch`] pools and tape vectors, bit-identical results
    /// at every thread count).
    ///
    /// For every shard, `grad_fn(start, logits, feature)` receives the
    /// index of the shard's first image, the shard logits, and (when
    /// `feature_layer` is `Some(i)`) the activation after layer `i`; it
    /// returns the shard's loss gradient, an optional gradient to inject at
    /// that activation, and a diagnostic loss value. With the default shard
    /// size of one image the closure sees exactly what a per-image attack
    /// loop would — per-image logits and per-image losses.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch, an out-of-range
    /// `feature_layer`, a shape the first layer rejects, or any `grad_fn`
    /// failure.
    pub fn forward_backward_with<F>(
        &self,
        input: &Tensor,
        feature_layer: Option<usize>,
        grad_fn: F,
    ) -> Result<GradBatch>
    where
        F: Fn(usize, &Tensor, Option<&Tensor>) -> Result<ShardGrad> + Sync,
    {
        self.check_backward_args(input, feature_layer)?;
        let results = self.run_sharded(
            input,
            || (Scratch::with_backend(self.backend()), Vec::new()),
            |state, start, shard| {
                let (scratch, tapes) = state;
                self.run_shard_backward(shard, start, feature_layer, &grad_fn, None, tapes, scratch)
            },
        )?;
        let mut logits = Vec::with_capacity(results.len());
        let mut grads = Vec::with_capacity(results.len());
        let mut losses = Vec::with_capacity(results.len());
        for (l, g, loss) in results {
            logits.push(l);
            grads.push(g);
            losses.push(loss);
        }
        Ok(GradBatch {
            logits: Tensor::concat_batch(&logits)?,
            input_grad: Tensor::concat_batch(&grads)?,
            shard_losses: losses,
            param_grads: Vec::new(),
        })
    }

    /// One training step's forward and backward: runs the whole `[N, ...]`
    /// batch as a **single shard** on the calling thread (every kernel
    /// keeps its own intra-op parallelism) and returns the gradients of
    /// the loss with respect to every parameter, in
    /// [`Sequential::params`] order, beside the logits, the input gradient
    /// and the loss (`shard_losses[0]`).
    ///
    /// `grad_fn(0, logits, feature)` is the closure
    /// [`BatchEngine::forward_backward_with`] takes, called once with the
    /// whole batch; its [`ShardGrad::injection`] enters at `feature_layer`.
    /// Every accumulator starts at `+0.0` and takes the backward's `dW`.
    ///
    /// `tape` holds the pass's records. A trainer keeps one across its
    /// steps: each slot is overwritten in place, so the previous step's
    /// records are freed one at a time rather than all at once (dropping a
    /// whole step's tape let glibc malloc trim the heap top every step,
    /// which on a 2-vCPU host cost a smoke-scale training run about 9k
    /// minor page faults and ~15% of its time).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch, an out-of-range
    /// `feature_layer`, mismatched shapes, or any `grad_fn` failure.
    pub fn forward_backward_params<F>(
        &self,
        input: &Tensor,
        feature_layer: Option<usize>,
        tape: &mut Vec<TapeSlot>,
        grad_fn: F,
    ) -> Result<GradBatch>
    where
        F: FnOnce(usize, &Tensor, Option<&Tensor>) -> Result<ShardGrad>,
    {
        self.check_backward_args(input, feature_layer)?;
        let mut param_grads: Vec<Tensor> = self
            .layers
            .iter()
            .flat_map(|l| l.layer().params())
            .map(|p| Tensor::zeros(p.dims()))
            .collect();
        let (logits, input_grad, loss) = self.run_shard_backward(
            input,
            0,
            feature_layer,
            grad_fn,
            Some(&mut param_grads),
            tape,
            &mut Scratch::with_backend(self.backend()),
        )?;
        Ok(GradBatch {
            logits,
            input_grad,
            shard_losses: vec![loss],
            param_grads,
        })
    }

    /// The one shard scheduler behind [`BatchEngine::forward`] and
    /// [`BatchEngine::forward_backward_with`]: runs `run_shard` over every
    /// shard of `input`, sequentially on a single worker state when the
    /// thread budget is one (or there is only one shard), otherwise in
    /// contiguous shard groups across rayon workers — each worker owns one
    /// `make_state()` for its whole group and pins nested (intra-op)
    /// parallelism to one thread, so the thread budget is spent on the
    /// batch dimension exactly once.
    ///
    /// Shard boundaries depend only on the batch size and shard size —
    /// never on the thread count — which is what makes every engine result
    /// bit-identical at any `RAYON_NUM_THREADS`. Both entry points share
    /// this scheduler, so their partitioning can never drift apart.
    fn run_sharded<T, S, MkS, F>(
        &self,
        input: &Tensor,
        make_state: MkS,
        run_shard: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        MkS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &Tensor) -> Result<T> + Sync,
    {
        let n = input.dims()[0];
        let num_shards = n.div_ceil(self.shard_size);
        let threads = rayon::current_num_threads();
        if threads <= 1 || num_shards == 1 {
            let mut state = make_state();
            let mut out = Vec::with_capacity(num_shards);
            for s in 0..num_shards {
                let start = s * self.shard_size;
                let count = self.shard_size.min(n - start);
                let shard = input.batch_slice(start, count)?;
                out.push(run_shard(&mut state, start, &shard)?);
            }
            return Ok(out);
        }
        let group = num_shards.div_ceil(threads);
        let mut slots: Vec<Option<Result<T>>> = (0..num_shards).map(|_| None).collect();
        slots
            .par_chunks_mut(group)
            .enumerate()
            .for_each(|(g, slots_group)| {
                let inner = rayon::ThreadPoolBuilder::new().num_threads(1).build();
                let mut state = make_state();
                for (j, slot) in slots_group.iter_mut().enumerate() {
                    let s = g * group + j;
                    let start = s * self.shard_size;
                    let count = self.shard_size.min(n - start);
                    let result = input
                        .batch_slice(start, count)
                        .map_err(NnError::from)
                        .and_then(|shard| match &inner {
                            Ok(pool) => pool.install(|| run_shard(&mut state, start, &shard)),
                            Err(_) => run_shard(&mut state, start, &shard),
                        });
                    *slot = Some(result);
                }
            });
        slots
            .into_iter()
            .map(|slot| slot.expect("every shard slot is filled"))
            .collect()
    }

    /// Gradient of a caller-supplied output gradient with respect to the
    /// batch input: one recorded forward plus one tape-driven backward,
    /// sharded like [`BatchEngine::forward`].
    ///
    /// `grad_output` must be `[N, classes]` aligned with `input`'s batch
    /// dimension. Bit-identical at every thread count, and identical to
    /// [`BatchEngine::forward_backward_params`] run image by image over the
    /// same rows.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or mismatched shapes.
    pub fn input_grad(&self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        if grad_output.shape().rank() < 2 || grad_output.dims()[0] != input.dims()[0] {
            return Err(NnError::BadConfig(format!(
                "grad_output {} does not align with input batch {}",
                grad_output.shape(),
                input.shape()
            )));
        }
        let out = self.forward_backward_with(input, None, |start, logits, _| {
            Ok(ShardGrad {
                d_logits: grad_output.batch_slice(start, logits.dims()[0])?,
                injection: None,
                loss: 0.0,
            })
        })?;
        Ok(out.input_grad)
    }

    /// Batched softmax cross-entropy forward + backward: the gradient-loop
    /// workhorse of PGD-style attacks. Losses and logit gradients are
    /// computed **per shard** (default: per image), so with the default
    /// shard size the result matches a per-image attack loop exactly —
    /// `shard_losses[i]` is image `i`'s loss and the input gradient rows
    /// are per-image cross-entropy gradients.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or a label count that does not
    /// match the batch size.
    pub fn forward_backward_batch(&self, input: &Tensor, labels: &[usize]) -> Result<GradBatch> {
        if labels.len() != input.dims().first().copied().unwrap_or(0) {
            return Err(NnError::BadLabels(format!(
                "{} labels for a batch of {}",
                labels.len(),
                input.dims().first().copied().unwrap_or(0)
            )));
        }
        self.forward_backward_with(input, None, |start, logits, _| {
            let count = logits.dims()[0];
            let (loss, d_logits) =
                loss::softmax_cross_entropy(logits, &labels[start..start + count])?;
            Ok(ShardGrad {
                d_logits,
                injection: None,
                loss,
            })
        })
    }

    /// Runs the network over an `[N, ...]` batch, sharding the batch
    /// dimension across rayon workers.
    ///
    /// Bit-identical to walking each layer's [`Layer::infer`] over the
    /// whole batch, at every thread count (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or a shape the first layer
    /// rejects.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.shape().rank() < 2 || input.dims()[0] == 0 {
            return Err(NnError::BadConfig(format!(
                "forward_batch expects a non-empty [N, ...] batch, got {}",
                input.shape()
            )));
        }
        // Single-shard fast path: no slicing or concatenation to pay.
        if input.dims()[0].div_ceil(self.shard_size) == 1 {
            return self.infer_shard(input, &mut Scratch::with_backend(self.backend()));
        }
        let parts = self.run_sharded(
            input,
            || Scratch::with_backend(self.backend()),
            |scratch, _start, shard| self.infer_shard(shard, scratch),
        )?;
        Ok(Tensor::concat_batch(&parts)?)
    }

    /// Class predictions (argmax of the logits) for a batch, through the
    /// batch-parallel path.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchEngine::forward`] errors.
    pub fn predict(&self, input: &Tensor) -> Result<Vec<usize>> {
        loss::predictions(&self.forward(input)?)
    }

    /// Class prediction plus its softmax probability for every image of a
    /// batch, through the batch-parallel path.
    ///
    /// This is the serving subsystem's response surface: because both the
    /// sharded forward pass and [`loss::confidences`] treat every image
    /// independently, each `(label, confidence)` pair is **bit-identical**
    /// no matter which other requests were coalesced into the same batch —
    /// at every batch size, shard size and thread count.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchEngine::forward`] errors.
    pub fn classify_with_confidence(&self, input: &Tensor) -> Result<Vec<(usize, f32)>> {
        loss::confidences(&self.forward(input)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LisaCnn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn lisa_net(seed: u64) -> Sequential {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        LisaCnn::new(18)
            .input_size(16)
            .conv1_filters(4)
            .build(&mut rng)
            .unwrap()
    }

    /// The training (stateful) pass over a whole batch, with a fixed
    /// logit gradient and nothing injected.
    fn training_pass(engine: &BatchEngine<'_>, batch: &Tensor, d_logits: &Tensor) -> GradBatch {
        engine
            .forward_backward_params(batch, None, &mut Vec::new(), |_, _, _| {
                Ok(ShardGrad {
                    d_logits: d_logits.clone(),
                    injection: None,
                    loss: 0.0,
                })
            })
            .unwrap()
    }

    #[test]
    fn engine_matches_stateful_forward_bitwise() {
        let net = lisa_net(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch = Tensor::rand_uniform(&[5, 3, 16, 16], 0.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        // The training pass's recording forward over the whole batch...
        let reference = training_pass(&engine, &batch, &Tensor::zeros(&[5, 18])).logits;
        // ...equals the layer-by-layer walk and the sharded inference.
        assert_eq!(net.activation(&batch, net.len() - 1).unwrap(), reference);
        assert_eq!(engine.forward(&batch).unwrap(), reference);
        // A second call through the same engine (reused packs) agrees too.
        assert_eq!(engine.forward(&batch).unwrap(), reference);
    }

    #[test]
    fn shard_size_does_not_change_results() {
        let net = lisa_net(3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let batch = Tensor::rand_uniform(&[7, 3, 16, 16], 0.0, 1.0, &mut rng);
        let base = BatchEngine::new(&net).unwrap().forward(&batch).unwrap();
        for shard in [2usize, 3, 7, 16] {
            let engine = BatchEngine::new(&net).unwrap().with_shard_size(shard);
            assert_eq!(engine.shard_size(), shard);
            assert_eq!(engine.forward(&batch).unwrap(), base, "shard {shard}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let net = lisa_net(5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let batch = Tensor::rand_uniform(&[6, 3, 16, 16], 0.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(|| engine.forward(&batch).unwrap()));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn predict_matches_stateful_predict() {
        let net = lisa_net(7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let batch = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        let logits = training_pass(&engine, &batch, &Tensor::zeros(&[4, 18])).logits;
        let expected = loss::predictions(&logits).unwrap();
        assert_eq!(engine.predict(&batch).unwrap(), expected);
    }

    #[test]
    fn classify_with_confidence_is_batch_invariant() {
        let net = lisa_net(21);
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let batch = Tensor::rand_uniform(&[6, 3, 16, 16], 0.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        let batched = engine.classify_with_confidence(&batch).unwrap();
        assert_eq!(batched.len(), 6);
        // Each image classified alone must reproduce its batched result
        // bit-for-bit — the serving determinism contract.
        for (i, expected) in batched.iter().enumerate() {
            let solo = engine
                .classify_with_confidence(&batch.batch_slice(i, 1).unwrap())
                .unwrap()[0];
            assert_eq!(solo.0, expected.0, "label diverged for image {i}");
            assert_eq!(
                solo.1.to_bits(),
                expected.1.to_bits(),
                "confidence bits diverged for image {i}"
            );
        }
        // Labels agree with the plain predict path.
        assert_eq!(
            batched.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            engine.predict(&batch).unwrap()
        );
    }

    #[test]
    fn rejects_empty_networks_and_batches() {
        let empty = Sequential::new();
        assert!(BatchEngine::new(&empty).is_err());
        let net = lisa_net(9);
        let engine = BatchEngine::new(&net).unwrap();
        assert!(engine.forward(&Tensor::zeros(&[0, 3, 16, 16])).is_err());
        assert!(engine.forward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn input_grad_matches_stateful_backward_per_image() {
        let net = lisa_net(11);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let batch = Tensor::rand_uniform(&[5, 3, 16, 16], 0.0, 1.0, &mut rng);
        let grad_out = Tensor::rand_uniform(&[5, 18], -1.0, 1.0, &mut rng);
        let engine = BatchEngine::new(&net).unwrap();
        // Per-image training-pass reference: its backward runs the full
        // conv/depthwise backward kernels, the attack tape the input-grad
        // kernels.
        let mut parts = Vec::new();
        for i in 0..5 {
            let image = batch.batch_slice(i, 1).unwrap();
            let row = grad_out.batch_slice(i, 1).unwrap();
            parts.push(training_pass(&engine, &image, &row).input_grad);
        }
        let reference = Tensor::concat_batch(&parts).unwrap();
        let got = engine.input_grad(&batch, &grad_out).unwrap();
        assert_eq!(got, reference, "attack tape diverged from training tape");
        // Misaligned grad_output is rejected.
        assert!(engine.input_grad(&batch, &Tensor::zeros(&[4, 18])).is_err());
    }

    #[test]
    fn forward_backward_batch_is_thread_invariant() {
        let net = lisa_net(13);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let batch = Tensor::rand_uniform(&[6, 3, 16, 16], 0.0, 1.0, &mut rng);
        let labels = [0usize, 3, 7, 11, 14, 17];
        let engine = BatchEngine::new(&net).unwrap();
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            outputs.push(pool.install(|| engine.forward_backward_batch(&batch, &labels).unwrap()));
        }
        for other in &outputs[1..] {
            assert_eq!(outputs[0].logits, other.logits);
            assert_eq!(outputs[0].input_grad, other.input_grad);
            assert_eq!(outputs[0].shard_losses, other.shard_losses);
        }
        // Logits agree with the plain forward path.
        assert_eq!(outputs[0].logits, engine.forward(&batch).unwrap());
        // Per-image losses (default shard size 1).
        assert_eq!(outputs[0].shard_losses.len(), 6);
        // Label count validation.
        assert!(engine.forward_backward_batch(&batch, &labels[..3]).is_err());
    }

    #[test]
    fn feature_collection_and_injection_match_stateful_path() {
        let net = lisa_net(15);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let image = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
        let feature_layer = 0usize;
        let expected_feature = net.activation(&image, feature_layer).unwrap();
        // Inject ones at conv1's output with a zero loss gradient.
        let grad_fn = |_: usize, shard_logits: &Tensor, feature: Option<&Tensor>| {
            let feature = feature.expect("feature activation collected");
            assert_eq!(feature, &expected_feature);
            Ok(ShardGrad {
                d_logits: Tensor::zeros(shard_logits.dims()),
                injection: Some(Tensor::ones(feature.dims())),
                loss: 0.5,
            })
        };

        let engine = BatchEngine::new(&net).unwrap();
        let reference = engine
            .forward_backward_params(&image, Some(feature_layer), &mut Vec::new(), grad_fn)
            .unwrap();
        let out = engine
            .forward_backward_with(&image, Some(feature_layer), grad_fn)
            .unwrap();
        assert_eq!(out.input_grad, reference.input_grad);
        assert_eq!(out.shard_losses, vec![0.5]);
        assert!(out.param_grads.is_empty());
        assert_eq!(reference.param_grads.len(), net.params().len());

        // Out-of-range feature layer is rejected up front.
        assert!(engine
            .forward_backward_with(&image, Some(99), |_, l, _| Ok(ShardGrad {
                d_logits: Tensor::zeros(l.dims()),
                injection: None,
                loss: 0.0,
            }))
            .is_err());
        // A wrong-shaped shard gradient is rejected.
        assert!(engine
            .forward_backward_with(&image, None, |_, _, _| Ok(ShardGrad {
                d_logits: Tensor::zeros(&[1, 3]),
                injection: None,
                loss: 0.0,
            }))
            .is_err());
    }
}
