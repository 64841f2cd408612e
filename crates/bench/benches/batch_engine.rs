//! Benchmarks for the batch-parallel inference engine
//! ([`blurnet_nn::BatchEngine`]): thread-count scaling on the
//! acceptance-criteria `[8, 16, 32, 32]` batch forward, the engine vs a
//! per-sample layer-by-layer loop, and a LisaCnn end-to-end probe.
//!
//! Besides the criterion output, the run writes `BENCH_batch.json` at the
//! repository root (schema `blurnet-batch-bench/v2`): median ns/iter per
//! thread count, images/s throughput, the scaling ratios, and the host's
//! CPU budget — scaling ratios are only meaningful when `host_cpus`
//! provides real parallelism (CI containers pinned to one core report ~1×
//! by construction; see README § Performance). The run also *asserts* that
//! outputs are bit-identical across thread counts, so a determinism
//! regression fails the bench loudly.

use std::time::Duration;

use blurnet_nn::{Conv2d, Dense, DepthwiseConv2d, Flatten, LisaCnn, MaxPool2d, Relu, Sequential};
use blurnet_signal::box_kernel;
use blurnet_tensor::{ConvSpec, Tensor};
use criterion::{criterion_group, criterion_main, measure_median_ns, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

/// Samples per probe for the JSON record.
const JSON_SAMPLES: usize = 15;
/// Minimum batch duration per sample for the JSON record.
const MIN_BATCH: Duration = Duration::from_millis(4);

/// The thread counts swept by the scaling probes (shared across the
/// workspace's benches so `BENCH_*.json` timings are comparable).
const THREAD_COUNTS: [usize; 3] = blurnet_bench::BENCH_THREAD_COUNTS;

fn median_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    measure_median_ns(&mut f, JSON_SAMPLES, MIN_BATCH)
}

/// Runs `f` under a fixed-size rayon pool.
fn with_threads<O>(threads: usize, mut f: impl FnMut() -> O) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| median_ns(&mut f))
}

/// Walks the layers over each image of `batch` alone.
fn per_sample_loop(net: &Sequential, batch: &Tensor) {
    for i in 0..batch.dims()[0] {
        let image = batch.batch_slice(i, 1).unwrap();
        net.activation(&image, net.len() - 1).unwrap();
    }
}

/// A convolution stack whose input is the acceptance-criteria
/// `[8, 16, 32, 32]` feature-map batch: conv → blur → pool → conv → head,
/// the same layer mix as the LISA-CNN's feature stages.
fn feature_stage_net(rng: &mut ChaCha8Rng) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new(16, 32, 3, ConvSpec::same(3).unwrap(), rng).unwrap())
        .push(Relu::new())
        .push(DepthwiseConv2d::fixed_kernel(32, &box_kernel(5)).unwrap())
        .push(MaxPool2d::new(2, 2).unwrap())
        .push(Conv2d::new(32, 32, 3, ConvSpec::same(3).unwrap(), rng).unwrap())
        .push(Relu::new())
        .push(Flatten::new())
        .push(Dense::new(32 * 16 * 16, 18, rng).unwrap());
    net
}

struct Record {
    entries: Vec<(String, Value)>,
}

impl Record {
    fn new() -> Self {
        Record {
            entries: Vec::new(),
        }
    }

    fn push_ns(&mut self, name: &str, ns: f64) {
        println!("json-probe {name:<44} {ns:12.1} ns/iter");
        self.entries.push((name.to_string(), Value::Float(ns)));
    }

    fn push_ratio(&mut self, name: &str, ratio: f64) {
        println!("json-ratio {name:<44} {ratio:6.2}x");
        self.entries.push((
            name.to_string(),
            Value::Float((ratio * 100.0).round() / 100.0),
        ));
    }

    fn into_json(self) -> String {
        let mut root = vec![
            (
                "schema".to_string(),
                Value::Str("blurnet-batch-bench/v2".to_string()),
            ),
            (
                "rayon_threads".to_string(),
                Value::Int(rayon::current_num_threads() as i64),
            ),
        ];
        root.extend(blurnet_bench::host_entries("batch_engine"));
        root.extend(self.entries);
        serde_json::to_string_pretty(&Value::Map(root)).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Measures the scaling sweep and writes `BENCH_batch.json` at the
/// workspace root.
fn write_batch_json() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut record = Record::new();

    // The acceptance-criteria workload: [8, 16, 32, 32] batch forward.
    let net = feature_stage_net(&mut rng);
    let batch = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    let engine = net.batch_engine().expect("non-empty network");

    // Determinism gate: outputs must be bit-identical at every thread
    // count before any timing is worth recording.
    let reference = {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        pool.install(|| engine.forward(&batch).expect("forward"))
    };
    for &threads in &THREAD_COUNTS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let out = pool.install(|| engine.forward(&batch).expect("forward"));
        assert_eq!(
            out, reference,
            "forward_batch diverged at {threads} threads — determinism regression"
        );
    }
    record.entries.push((
        "bit_identical_across_threads".to_string(),
        Value::Bool(true),
    ));

    // Thread-count scaling of the sharded forward.
    let mut ns_at: Vec<(usize, f64)> = Vec::new();
    for &threads in &THREAD_COUNTS {
        let ns = with_threads(threads, || engine.forward(&batch).unwrap());
        record.push_ns(&format!("forward_batch_8x16x32x32_t{threads}"), ns);
        record.entries.push((
            format!("images_per_sec_8x16x32x32_t{threads}"),
            Value::Float((8.0 * 1e9 / ns * 10.0).round() / 10.0),
        ));
        ns_at.push((threads, ns));
    }
    let ns1 = ns_at[0].1;
    for &(threads, ns) in &ns_at[1..] {
        record.push_ratio(&format!("scaling_{threads}t_vs_1t"), ns1 / ns);
    }

    // Engine vs a per-sample loop of layer-by-layer `Layer::infer` walks
    // (both single-thread, so the ratio isolates packing reuse).
    let per_sample_ns = with_threads(1, || per_sample_loop(&net, &batch));
    record.push_ns("per_sample_loop_8x16x32x32_st", per_sample_ns);
    record.push_ratio("engine_vs_per_sample_st", per_sample_ns / ns1);

    // LisaCnn end-to-end probes (batch 8).
    let lisa = LisaCnn::new(18).build(&mut rng).expect("default LisaCnn");
    let lisa_batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    let lisa_engine = lisa.batch_engine().expect("non-empty network");
    for &threads in &THREAD_COUNTS {
        let ns = with_threads(threads, || lisa_engine.forward(&lisa_batch).unwrap());
        record.push_ns(&format!("lisacnn_forward_batch8_engine_t{threads}"), ns);
    }

    // crates/bench/ -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    match std::fs::write(path, record.into_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(20);

    let net = feature_stage_net(&mut rng);
    let batch = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    let engine = net.batch_engine().unwrap();
    group.bench_function("forward_batch_8x16x32x32", |bench| {
        bench.iter(|| engine.forward(&batch).unwrap());
    });
    group.bench_function("per_sample_loop_8x16x32x32", |bench| {
        bench.iter(|| per_sample_loop(&net, &batch));
    });

    let lisa = LisaCnn::new(18).build(&mut rng).unwrap();
    let lisa_batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    let lisa_engine = lisa.batch_engine().unwrap();
    group.bench_function("lisacnn_forward_batch8_engine", |bench| {
        bench.iter(|| lisa_engine.forward(&lisa_batch).unwrap());
    });
    group.finish();
}

fn bench_with_json(c: &mut Criterion) {
    write_batch_json();
    bench_engine(c);
}

criterion_group!(benches, bench_with_json);
criterion_main!(benches);
