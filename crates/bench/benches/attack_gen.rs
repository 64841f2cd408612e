//! Benchmarks for batched adversarial-example **generation**
//! ([`blurnet_attacks::PgdAttack`] on the batched gradient engine): the
//! acceptance-criteria 10-step PGD on a batch of 8 `[3, 32, 32]` images,
//! per-image-loop vs batched engine, plus the persistent-pool vs
//! scoped-spawn dispatch delta in the vendored rayon stand-in.
//!
//! Besides the criterion output, the run writes `BENCH_attack.json` at the
//! repository root (schema `blurnet-attack-bench/v2`): median ns/iter for
//! the per-image training-pass loop and the batched engine at thread
//! counts {1, 2, 4}, PGD steps/sec for both, the single-thread speedup
//! ratio, the pool-vs-spawn dispatch timings, and the host's CPU budget.
//! The run also *asserts* that batched generation is bit-identical across
//! thread counts and ≤ 1e-5 from the per-image reference, so a regression
//! fails the bench loudly.

use std::time::Duration;

use blurnet_attacks::{PgdAttack, PgdConfig};
use blurnet_nn::{softmax_cross_entropy, LisaCnn, Sequential, ShardGrad};
use blurnet_tensor::Tensor;
use criterion::{criterion_group, criterion_main, measure_median_ns, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

/// Samples per probe for the JSON record.
const JSON_SAMPLES: usize = 11;
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

/// The per-image PGD gradient loop the batched engine replaced: one
/// whole-network training pass (forward, then the backward with input and
/// parameter gradients) per image per step — the cost profile of the
/// pre-engine loop, kept as the benchmark baseline.
fn pgd_per_image(net: &Sequential, image: &Tensor, label: usize, config: &PgdConfig) -> Tensor {
    let engine = net.batch_engine().unwrap();
    let mut x_adv = image.clone();
    for _ in 0..config.steps {
        let batch = Tensor::stack(std::slice::from_ref(&x_adv)).unwrap();
        let step = engine
            .forward_backward_params(&batch, None, &mut Vec::new(), |_, logits, _| {
                let (loss, d_logits) = softmax_cross_entropy(logits, &[label])?;
                Ok(ShardGrad {
                    d_logits,
                    injection: None,
                    loss,
                })
            })
            .unwrap();
        let grad = step.input_grad.batch_item(0).unwrap();
        x_adv = x_adv
            .zip_map(&grad, |x, g| x + config.step_size * g.signum())
            .unwrap();
        x_adv = x_adv
            .zip_map(image, |x, orig| {
                x.clamp(orig - config.epsilon, orig + config.epsilon)
            })
            .unwrap();
        x_adv = x_adv.clamp(0.0, 1.0);
    }
    x_adv
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
                Value::Str("blurnet-attack-bench/v2".to_string()),
            ),
            (
                "rayon_threads".to_string(),
                Value::Int(rayon::current_num_threads() as i64),
            ),
        ];
        root.extend(blurnet_bench::host_entries("attack_gen"));
        root.extend(self.entries);
        serde_json::to_string_pretty(&Value::Map(root)).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Measures a trivially small parallel region — the work is one store per
/// chunk, so the timing is dominated by dispatch — through the persistent
/// pool (the live implementation).
fn pool_dispatch_ns(threads: usize) -> f64 {
    let mut data = vec![0u64; threads];
    with_threads(threads, || {
        data.iter_mut().for_each(|v| *v = 0);
        use rayon::prelude::*;
        data.par_chunks_mut(1).enumerate().for_each(|(i, c)| {
            c[0] = i as u64 + 1;
        });
    })
}

/// The same region executed with the pre-pool strategy: one scoped thread
/// spawned (and joined) per chunk, exactly like the old `run_partitioned`.
fn spawn_dispatch_ns(threads: usize) -> f64 {
    let mut data = vec![0u64; threads];
    median_ns(|| {
        let chunks: Vec<&mut [u64]> = data.chunks_mut(1).collect();
        std::thread::scope(|scope| {
            for (i, chunk) in chunks.into_iter().enumerate() {
                scope.spawn(move || {
                    chunk[0] = i as u64 + 1;
                });
            }
        });
    })
}

/// Measures the PGD generation sweep and writes `BENCH_attack.json` at the
/// workspace root.
fn write_attack_json() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut record = Record::new();

    // The acceptance-criteria workload: 10-step PGD, batch of 8 [3,32,32].
    let net = LisaCnn::new(18).build(&mut rng).expect("default LisaCnn");
    let batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| (i * 2) % 18).collect();
    let config = PgdConfig::default();
    let attack = PgdAttack::new(config).expect("valid PGD config");
    let steps = config.steps as f64;

    // Correctness gates before any timing: batched generation must be
    // bit-identical across thread counts and ≤ 1e-5 from the per-image
    // training-pass loop.
    let reference = {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        pool.install(|| attack.perturb(&net, &batch, &labels).expect("perturb"))
    };
    for &threads in &THREAD_COUNTS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let out = pool.install(|| attack.perturb(&net, &batch, &labels).expect("perturb"));
        assert_eq!(
            out, reference,
            "batched PGD diverged at {threads} threads — determinism regression"
        );
    }
    for (i, &label) in labels.iter().enumerate() {
        let image = batch
            .batch_slice(i, 1)
            .expect("row")
            .batch_item(0)
            .expect("item");
        let per_image = pgd_per_image(&net, &image, label, &config);
        let batched = reference.batch_item(i).expect("item");
        let max_diff = per_image
            .data()
            .iter()
            .zip(batched.data().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff <= 1e-5,
            "batched PGD drifted {max_diff} from the per-image loop on image {i}"
        );
    }
    record.entries.push((
        "bit_identical_across_threads".to_string(),
        Value::Bool(true),
    ));

    // Per-image training-pass loop (the pre-engine baseline),
    // single-thread.
    let per_image_ns = with_threads(1, || {
        for (i, &label) in labels.iter().enumerate() {
            let image = batch.batch_slice(i, 1).unwrap().batch_item(0).unwrap();
            pgd_per_image(&net, &image, label, &config);
        }
    });
    record.push_ns("pgd10_batch8_per_image_loop_st", per_image_ns);
    record.entries.push((
        "pgd10_batch8_per_image_steps_per_sec_st".to_string(),
        Value::Float((steps * 1e9 / per_image_ns * 10.0).round() / 10.0),
    ));

    // Batched engine at each thread count (engine rebuilt per iteration so
    // the packing cost is included, as PgdAttack::perturb pays it).
    let mut batched_ns_at: Vec<(usize, f64)> = Vec::new();
    for &threads in &THREAD_COUNTS {
        let ns = with_threads(threads, || attack.perturb(&net, &batch, &labels).unwrap());
        record.push_ns(&format!("pgd10_batch8_batched_engine_t{threads}"), ns);
        record.entries.push((
            format!("pgd10_batch8_batched_steps_per_sec_t{threads}"),
            Value::Float((steps * 1e9 / ns * 10.0).round() / 10.0),
        ));
        batched_ns_at.push((threads, ns));
    }
    let batched_st = batched_ns_at[0].1;
    record.push_ratio("batched_vs_per_image_st", per_image_ns / batched_st);
    for &(threads, ns) in &batched_ns_at[1..] {
        record.push_ratio(
            &format!("batched_scaling_{threads}t_vs_1t"),
            batched_st / ns,
        );
    }

    // Persistent-pool vs scoped-spawn dispatch cost on a near-empty region
    // (what every small parallel call used to pay per invocation).
    for threads in [2usize, 4] {
        let pool_ns = pool_dispatch_ns(threads);
        let spawn_ns = spawn_dispatch_ns(threads);
        record.push_ns(&format!("dispatch_pool_{threads}w_ns"), pool_ns);
        record.push_ns(&format!("dispatch_spawn_{threads}w_ns"), spawn_ns);
        record.push_ratio(&format!("pool_vs_spawn_{threads}w"), spawn_ns / pool_ns);
    }

    // crates/bench/ -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_attack.json");
    match std::fs::write(path, record.into_json()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn bench_attack_gen(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut group = c.benchmark_group("attack_gen");
    group.sample_size(10);

    let net = LisaCnn::new(18).build(&mut rng).unwrap();
    let batch = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| (i * 2) % 18).collect();
    let config = PgdConfig::default();
    let attack = PgdAttack::new(config).unwrap();

    group.bench_function("pgd10_batch8_batched_engine", |b| {
        b.iter(|| attack.perturb(&net, &batch, &labels).unwrap());
    });
    group.bench_function("pgd10_batch8_per_image_loop", |b| {
        b.iter(|| {
            for (i, &label) in labels.iter().enumerate() {
                let image = batch.batch_slice(i, 1).unwrap().batch_item(0).unwrap();
                pgd_per_image(&net, &image, label, &config);
            }
        });
    });
    group.finish();
}

fn bench_with_json(c: &mut Criterion) {
    write_attack_json();
    bench_attack_gen(c);
}

criterion_group!(benches, bench_with_json);
criterion_main!(benches);
