//! Micro-benchmarks for the numeric substrates every experiment rests on:
//! convolution, matrix multiply, FFT/DCT, blurring and the regularizer
//! kernels — plus head-to-head comparisons of the blocked/parallel fast
//! paths against the seed implementations they replaced.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_substrate.json` at the repository root: a machine-readable record
//! (schema `blurnet-substrate-bench/v4`) of median ns/iter for every probe
//! and the fast-vs-seed speedups, so future PRs can track the perf
//! trajectory. The `simd_tier` entry records which kernel tier the backend
//! dispatched to (`avx2_fma` or `scalar`), so numbers from different hosts
//! or `BLURNET_FORCE_SCALAR=1` runs are never compared apples-to-oranges.
//! Single-thread numbers are measured through a 1-thread rayon
//! pool; `_mt` entries use the ambient `RAYON_NUM_THREADS`; the
//! `median_ns_per_iter_by_threads` section sweeps the shared
//! [`blurnet_bench::BENCH_THREAD_COUNTS`] on representative probes, with
//! `host_cpus`/`single_core_warning` recording whether real cores backed
//! the sweep.

use std::time::Duration;

use blurnet_bench::{host_entries, BENCH_THREAD_COUNTS};
use blurnet_nn::{BatchEngine, GradBatch, LisaCnn, ShardGrad, TapeSlot};
use blurnet_signal::{
    blur_batch, blur_batch_2d, box_kernel, dct2d, depthwise_weights, fft2d_magnitude,
    total_variation_batch, OperatorPenalty,
};
use blurnet_tensor::{
    default_backend, reference, ConvSpec, PackedConvWeights, Scratch, SimdTier, Tensor,
};
use criterion::{criterion_group, criterion_main, measure_median_ns, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

/// One training pass (forward, then the backward with parameter
/// gradients) over the whole batch, backpropagating all-ones logit
/// gradients. `tape` is reused across calls, as a trainer reuses it
/// across steps.
fn training_pass(engine: &BatchEngine<'_>, batch: &Tensor, tape: &mut Vec<TapeSlot>) -> GradBatch {
    engine
        .forward_backward_params(batch, None, tape, |_, logits, _| {
            Ok(ShardGrad {
                d_logits: Tensor::ones(logits.dims()),
                injection: None,
                loss: 0.0,
            })
        })
        .unwrap()
}

/// Samples per probe for the JSON record.
const JSON_SAMPLES: usize = 15;
/// Minimum batch duration per sample for the JSON record.
const MIN_BATCH: Duration = Duration::from_millis(4);

fn median_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    measure_median_ns(&mut f, JSON_SAMPLES, MIN_BATCH)
}

/// Runs `f` under a single-thread rayon pool (the "st" numbers).
fn single_thread_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("1-thread pool");
    pool.install(|| median_ns(&mut f))
}

struct Record {
    entries: Vec<(String, f64)>,
    speedups: Vec<(String, f64)>,
    per_thread: Vec<(String, f64)>,
}

impl Record {
    fn new() -> Self {
        Record {
            entries: Vec::new(),
            speedups: Vec::new(),
            per_thread: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, ns: f64) {
        println!("json-probe {name:<40} {:12.1} ns/iter", ns);
        self.entries.push((name.to_string(), ns));
    }

    fn push_threads(&mut self, name: &str, threads: usize, ns: f64) {
        let key = format!("{name}_t{threads}");
        println!("json-probe {key:<40} {:12.1} ns/iter", ns);
        self.per_thread.push((key, ns));
    }

    fn speedup(&mut self, name: &str, seed_ns: f64, fast_ns: f64) {
        let ratio = seed_ns / fast_ns;
        println!("json-speedup {name:<38} {ratio:6.2}x");
        self.speedups.push((name.to_string(), ratio));
    }

    fn to_json(&self) -> String {
        let entries = Value::Map(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let speedups = Value::Map(
            self.speedups
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float((*v * 100.0).round() / 100.0)))
                .collect(),
        );
        let per_thread = Value::Map(
            self.per_thread
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let mut root = vec![(
            "schema".to_string(),
            Value::Str("blurnet-substrate-bench/v4".to_string()),
        )];
        root.extend(host_entries("substrate_micro"));
        root.push((
            "simd_tier".to_string(),
            Value::Str(SimdTier::detect().as_str().to_string()),
        ));
        root.push((
            "rayon_threads".to_string(),
            Value::Int(rayon::current_num_threads() as i64),
        ));
        root.push(("median_ns_per_iter".to_string(), entries));
        root.push(("median_ns_per_iter_by_threads".to_string(), per_thread));
        root.push(("speedup_vs_seed".to_string(), speedups));
        let root = Value::Map(root);
        serde_json::to_string_pretty(&root).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Measures the fast-vs-seed comparisons and writes `BENCH_substrate.json`
/// at the workspace root.
fn write_bench_json() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut record = Record::new();
    let backend = default_backend();

    // GEMM: the acceptance-criteria sizes, single-thread fast vs seed, plus
    // the default-thread-count number for multicore machines.
    for &n in &[64usize, 128, 256] {
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let seed_ns = single_thread_ns(|| reference::matmul_naive(&a, &b).unwrap());
        let fast_st = single_thread_ns(|| backend.matmul(&a, &b).unwrap());
        let fast_mt = median_ns(|| backend.matmul(&a, &b).unwrap());
        record.push(&format!("gemm_{n}x{n}_seed"), seed_ns);
        record.push(&format!("gemm_{n}x{n}_fast_st"), fast_st);
        record.push(&format!("gemm_{n}x{n}_fast_mt"), fast_mt);
        record.speedup(&format!("gemm_{n}x{n}_st"), seed_ns, fast_st);
    }

    // Depthwise conv (the BlurNet filter layer): direct path vs seed gather
    // loop on first-layer-sized feature maps.
    let feature_maps = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    for &k in &[3usize, 5] {
        let weight = Tensor::rand_uniform(&[16, k, k], -0.5, 0.5, &mut rng);
        let spec = ConvSpec::same(k).expect("odd kernel");
        let seed_ns = single_thread_ns(|| {
            reference::depthwise_conv2d_naive(&feature_maps, &weight, None, spec).unwrap()
        });
        let fast_st = single_thread_ns(|| {
            backend
                .depthwise_conv2d(&feature_maps, &weight, None, spec)
                .unwrap()
        });
        let fast_mt = median_ns(|| {
            backend
                .depthwise_conv2d(&feature_maps, &weight, None, spec)
                .unwrap()
        });
        record.push(&format!("depthwise_{k}x{k}_8x16x32x32_seed"), seed_ns);
        record.push(&format!("depthwise_{k}x{k}_8x16x32x32_fast_st"), fast_st);
        record.push(&format!("depthwise_{k}x{k}_8x16x32x32_fast_mt"), fast_mt);
        record.speedup(&format!("depthwise_{k}x{k}_st"), seed_ns, fast_st);
    }

    // Blur on the acceptance-criteria batch shape ([8, 16, 32, 32]):
    // separable two-pass vs (a) the current generic 2-D path and (b) the
    // true seed path — depthwise gather-loop convolution with per-channel
    // copies of the kernel, exactly what `blur_batch` compiled to before
    // this optimisation pass.
    for &k in &[3usize, 5] {
        let kernel = box_kernel(k);
        let dw = depthwise_weights(&kernel, feature_maps.dims()[1]).expect("square kernel");
        let spec = ConvSpec::same(k).expect("odd kernel");
        let seed_ns = single_thread_ns(|| {
            reference::depthwise_conv2d_naive(&feature_maps, &dw, None, spec).unwrap()
        });
        let two_d_ns = single_thread_ns(|| blur_batch_2d(&feature_maps, &kernel).unwrap());
        let fast_st = single_thread_ns(|| blur_batch(&feature_maps, &kernel).unwrap());
        let fast_mt = median_ns(|| blur_batch(&feature_maps, &kernel).unwrap());
        record.push(&format!("blur{k}x{k}_8x16x32x32_seed"), seed_ns);
        record.push(&format!("blur{k}x{k}_8x16x32x32_2d_fast"), two_d_ns);
        record.push(&format!("blur{k}x{k}_8x16x32x32_separable_st"), fast_st);
        record.push(&format!("blur{k}x{k}_8x16x32x32_separable_mt"), fast_mt);
        record.speedup(&format!("blur{k}x{k}_st"), seed_ns, fast_st);
        record.speedup(&format!("blur{k}x{k}_vs_2d_st"), two_d_ns, fast_st);
    }

    // Forward-path probes (no seed counterpart; tracked for trajectory).
    let input = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform(&[8, 3, 5, 5], -0.5, 0.5, &mut rng);
    let conv_spec = ConvSpec::new(2, 2).expect("valid spec");
    let mut conv_scratch = Scratch::new();
    record.push(
        "conv2d_32x32_8f",
        median_ns(|| {
            backend
                .conv2d(&input, &weight, None, conv_spec, &mut conv_scratch)
                .unwrap()
        }),
    );
    // The first-layer block, single-thread: LISA-CNN's conv1 (5×5, stride
    // 2, pad 2, 8 filters) forward, input gradient and full backward — the
    // direct stride-2 and weight-gradient kernels — and the BlurNet
    // depthwise input gradient on ReLU-sparse (zero-masked) gradients.
    let conv1_pack = PackedConvWeights::pack(&weight).expect("rank-4 weight");
    for n in [1usize, 16] {
        let x = Tensor::rand_uniform(&[n, 3, 32, 32], 0.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform(&[n, 8, 16, 16], -1.0, 1.0, &mut rng);
        let mut s = Scratch::new();
        record.push(
            &format!("conv1_forward_{n}x3x32x32_st"),
            single_thread_ns(|| {
                backend
                    .conv2d_prepacked(&x, &conv1_pack, None, conv_spec, &mut s)
                    .unwrap()
            }),
        );
        record.push(
            &format!("conv1_input_grad_{n}x3x32x32_st"),
            single_thread_ns(|| {
                backend
                    .conv2d_input_grad_prepacked(&conv1_pack, &g, x.dims(), conv_spec, &mut s)
                    .unwrap()
            }),
        );
        record.push(
            &format!("conv1_backward_{n}x3x32x32_st"),
            single_thread_ns(|| {
                backend
                    .conv2d_backward(&x, &weight, &g, conv_spec, &mut s)
                    .unwrap()
            }),
        );
    }
    for k in [3usize, 5, 7] {
        let dw = Tensor::rand_uniform(&[8, k, k], -0.5, 0.5, &mut rng);
        let g = Tensor::rand_uniform(&[16, 8, 16, 16], -1.0, 1.0, &mut rng).map(|v| v.max(0.0));
        let spec = ConvSpec::same(k).expect("odd kernel");
        record.push(
            &format!("depthwise_input_grad_{k}x{k}_16x8x16x16_st"),
            single_thread_ns(|| {
                backend
                    .depthwise_input_grad(&dw, &g, &[16, 8, 16, 16], spec)
                    .unwrap()
            }),
        );
    }

    let net = LisaCnn::new(18).build(&mut rng).expect("default LisaCnn");
    let engine = net.batch_engine().expect("engine builds");
    let batch = Tensor::rand_uniform(&[4, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut tape = Vec::new();
    record.push(
        "lisacnn_forward_batch4",
        median_ns(|| engine.forward(&batch).unwrap()),
    );
    record.push(
        "lisacnn_forward_backward_batch4",
        median_ns(|| training_pass(&engine, &batch, &mut tape)),
    );

    // Multi-core sweep on representative probes (one per substrate
    // family), at the shared thread counts every bench records.
    let ga = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let gb = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let blur_kernel = box_kernel(3);
    for &threads in &BENCH_THREAD_COUNTS {
        record.push_threads(
            "gemm_256x256",
            threads,
            blurnet_bench::with_threads(threads, || {
                median_ns(|| backend.matmul(&ga, &gb).unwrap())
            }),
        );
        record.push_threads(
            "blur3x3_8x16x32x32_separable",
            threads,
            blurnet_bench::with_threads(threads, || {
                median_ns(|| blur_batch(&feature_maps, &blur_kernel).unwrap())
            }),
        );
        record.push_threads(
            "lisacnn_forward_batch4",
            threads,
            blurnet_bench::with_threads(threads, || median_ns(|| engine.forward(&batch).unwrap())),
        );
    }

    // crates/bench/ -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json");
    match std::fs::write(path, record.to_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn bench_substrates(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let backend = default_backend();
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);

    for &n in &[64usize, 128, 256] {
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        group.bench_function(format!("matmul_{n}x{n}"), |bench| {
            bench.iter(|| backend.matmul(&a, &b).unwrap());
        });
        group.bench_function(format!("matmul_{n}x{n}_seed"), |bench| {
            bench.iter(|| reference::matmul_naive(&a, &b).unwrap());
        });
    }

    let input = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
    let weight = Tensor::rand_uniform(&[8, 3, 5, 5], -0.5, 0.5, &mut rng);
    let mut conv_scratch = Scratch::new();
    group.bench_function("conv2d_32x32_8f", |bench| {
        bench.iter(|| {
            backend
                .conv2d(
                    &input,
                    &weight,
                    None,
                    ConvSpec::new(2, 2).unwrap(),
                    &mut conv_scratch,
                )
                .unwrap()
        });
    });

    let feature_maps_big = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    let dw_weight = Tensor::rand_uniform(&[16, 5, 5], -0.5, 0.5, &mut rng);
    let dw_spec = ConvSpec::same(5).unwrap();
    group.bench_function("depthwise5x5_8x16x32x32", |bench| {
        bench.iter(|| {
            backend
                .depthwise_conv2d(&feature_maps_big, &dw_weight, None, dw_spec)
                .unwrap()
        });
    });
    group.bench_function("depthwise5x5_8x16x32x32_seed", |bench| {
        bench.iter(|| {
            reference::depthwise_conv2d_naive(&feature_maps_big, &dw_weight, None, dw_spec).unwrap()
        });
    });

    let image = Tensor::rand_uniform(&[32, 32], 0.0, 1.0, &mut rng);
    group.bench_function("fft2d_32x32", |bench| {
        bench.iter(|| fft2d_magnitude(&image).unwrap());
    });
    group.bench_function("dct2d_32x32", |bench| {
        bench.iter(|| dct2d(&image).unwrap());
    });

    let feature_maps = Tensor::rand_uniform(&[1, 8, 16, 16], 0.0, 1.0, &mut rng);
    group.bench_function("tv_batch_8x16x16", |bench| {
        bench.iter(|| total_variation_batch(&feature_maps).unwrap());
    });
    let penalty = OperatorPenalty::high_frequency(16, 3).unwrap();
    group.bench_function("tikhonov_hf_batch_8x16x16", |bench| {
        bench.iter(|| penalty.value_batch(&feature_maps).unwrap());
    });

    let kernel = box_kernel(5);
    group.bench_function("blur5x5_batch_8x16x32x32_separable", |bench| {
        bench.iter(|| blur_batch(&feature_maps_big, &kernel).unwrap());
    });
    group.bench_function("blur5x5_batch_8x16x32x32_2d", |bench| {
        bench.iter(|| blur_batch_2d(&feature_maps_big, &kernel).unwrap());
    });

    let net = LisaCnn::new(18).build(&mut rng).unwrap();
    let engine = net.batch_engine().unwrap();
    let batch = Tensor::rand_uniform(&[4, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut tape = Vec::new();
    // The batch-parallel inference engine: packed weights reused across
    // calls, batch sharded over rayon. The full thread-scaling sweep lives
    // in the `batch_engine` bench (BENCH_batch.json).
    group.bench_function("lisacnn_forward_batch4_engine", |bench| {
        bench.iter(|| engine.forward(&batch).unwrap());
    });
    group.bench_function("lisacnn_forward_batch4_engine_fresh_pack", |bench| {
        bench.iter(|| net.forward_batch(&batch).unwrap());
    });
    group.bench_function("lisacnn_forward_backward_batch4", |bench| {
        bench.iter(|| training_pass(&engine, &batch, &mut tape));
    });
    group.finish();
}

fn bench_with_json(c: &mut Criterion) {
    write_bench_json();
    bench_substrates(c);
}

criterion_group!(benches, bench_with_json);
criterion_main!(benches);
