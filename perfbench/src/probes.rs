//! Layer probes for the traced run: seeded calls into each layer's public
//! API, timed from here. They run in every traced run, whatever the
//! workload, so every per-layer metric exists in every traced run; compare
//! a layer metric only within one workload across commits.

use std::sync::Arc;
use std::time::Instant;

use blurnet::experiments::table5;
use blurnet::journal::{JournalHeader, JournalWriter};
use blurnet::report::RESULTS_SCHEMA;
use blurnet::{CellReport, CellStatus, Scale};
use blurnet_attacks::adaptive::low_frequency_attack;
use blurnet_attacks::{PgdAttack, Rp2Attack};
use blurnet_data::SignDataset;
use blurnet_defenses::{
    filter_image, train_defended_model, DefendedModel, DefenseKind, DiskVariantCache,
};
use blurnet_nn::BatchEngine;
use blurnet_signal::dct::low_frequency_project;
use blurnet_tensor::{default_backend, Tensor};

use crate::counting::CountingBackend;
use crate::stats::median;
use crate::{Ctx, Report};

/// Per-layer metrics the probes report, with units.
pub const LAYER_METRICS: [(&str, &str); 16] = [
    ("core.journal.append_ms", "ms"),
    ("data.generate_ms", "ms"),
    ("defenses.train_s.baseline", "s"),
    ("defenses.train_s.feature_filter_7x7", "s"),
    ("defenses.train_s.adv_train", "s"),
    ("defenses.disk.load_ms", "ms"),
    ("defenses.preprocess_us_per_image", "us"),
    ("attacks.rp2.step_ms", "ms"),
    ("attacks.rp2_lowfreq.step_ms", "ms"),
    ("attacks.pgd.step_ms", "ms"),
    ("attacks.rp2.success_share", "share"),
    ("signal.dct_project_us_per_plane", "us"),
    ("nn.forward_us_per_image.b1", "us"),
    ("nn.forward_us_per_image.b32", "us"),
    ("nn.input_grad_us_per_image", "us"),
    ("nn.forward_backward_us_per_image", "us"),
];

/// Dimension of the low-frequency DCT block the adaptive attack keeps.
const DCT_DIM: usize = 16;

/// Repetitions of the cheap probes; each reports the median.
const REPS: usize = 5;

/// `map_err` adapter: prefixes an error with what was being done.
fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Times `f` `reps` times and returns the median in seconds.
fn timed_median<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// Runs every probe and returns their per-layer metrics.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = ctx.tracer;
    let mut r = Report::default();
    let scale = Scale::Smoke;
    let seed = ctx.seed;

    // data
    let gen = || SignDataset::generate(&scale.dataset_config(), seed).map_err(err("dataset"));
    let s = tracer.span("probe.data.generate", None, |_| timed_median(REPS, gen))?;
    r.layer("data.generate_ms", s * 1e3);
    let dataset = gen()?;

    // defenses: training three representative variants
    let train_cfg = scale.train_config();
    let mut train = |label: &str, defense: DefenseKind| -> Result<DefendedModel, String> {
        let t0 = Instant::now();
        let model = tracer.span(&format!("probe.defenses.train.{label}"), None, |_| {
            train_defended_model(&defense, &dataset, &train_cfg).map_err(err("train"))
        })?;
        r.layer(
            &format!("defenses.train_s.{label}"),
            t0.elapsed().as_secs_f64(),
        );
        Ok(model)
    };
    let baseline = train("baseline", DefenseKind::Baseline)?;
    let filtered = train(
        "feature_filter_7x7",
        DefenseKind::FeatureFilter { kernel: 7 },
    )?;
    train("adv_train", table5::defense_for(scale))?;

    // defenses: disk cache load and input preprocessing
    let cache_dir = ctx.work_dir.join("probe-cache");
    let cache = DiskVariantCache::open(&cache_dir).map_err(err("disk cache"))?;
    let (size, classes) = (dataset.image_size(), dataset.num_classes());
    cache
        .store(&baseline, &train_cfg, size, classes, seed)
        .map_err(err("disk store"))?;
    let s = tracer.span("probe.defenses.disk.load", None, |_| {
        timed_median(REPS, || {
            cache
                .load(&DefenseKind::Baseline, &train_cfg, size, classes, seed)
                .map_err(err("disk load"))?
                .ok_or_else(|| "stored model missing".to_string())
        })
    })?;
    r.layer("defenses.disk.load_ms", s * 1e3);
    let test = dataset.test_batch().map_err(err("test set"))?;
    let n_test = test.images.dims()[0];
    let images: Vec<Tensor> = (0..n_test)
        .map(|i| test.images.batch_item(i).map_err(err("image")))
        .collect::<Result<_, _>>()?;
    let s = tracer.span("probe.defenses.preprocess", None, |_| {
        timed_median(REPS, || {
            images
                .iter()
                .map(|img| filter_image(img, 3).map_err(err("filter")))
                .collect::<Result<Vec<_>, _>>()
        })
    })?;
    r.layer("defenses.preprocess_us_per_image", s * 1e6 / n_test as f64);

    // attacks: one RP2 sweep, the low-frequency adaptive RP2, and PGD, on
    // the grid's attack images against the baseline victim
    let attack_images: Vec<Tensor> = dataset
        .stop_eval_images()
        .iter()
        .take(scale.attack_image_count())
        .cloned()
        .collect();
    let target = scale.attack_targets()[0];
    let net = baseline.network();
    let rp2_cfg = scale.rp2_config();
    let iterations = rp2_cfg.iterations as f64;
    let rp2 = Rp2Attack::new(rp2_cfg.clone()).map_err(err("rp2"))?;
    let t0 = Instant::now();
    let eval = tracer.span("probe.attacks.rp2", None, |_| {
        rp2.evaluate(net, &attack_images, target)
            .map_err(err("rp2"))
    })?;
    r.layer(
        "attacks.rp2.step_ms",
        t0.elapsed().as_secs_f64() * 1e3 / iterations,
    );
    r.layer("attacks.rp2.success_share", f64::from(eval.success_rate));
    let lowfreq = low_frequency_attack(rp2_cfg, DCT_DIM).map_err(err("rp2 lowfreq"))?;
    let t0 = Instant::now();
    tracer.span("probe.attacks.rp2_lowfreq", None, |_| {
        lowfreq
            .generate_batch(net, &attack_images, target)
            .map_err(err("rp2 lowfreq"))
    })?;
    r.layer(
        "attacks.rp2_lowfreq.step_ms",
        t0.elapsed().as_secs_f64() * 1e3 / iterations,
    );
    let pgd_cfg = scale.pgd_config();
    let pgd = PgdAttack::new(pgd_cfg).map_err(err("pgd"))?;
    let clean = Tensor::stack(&attack_images).map_err(err("stack"))?;
    let labels = net.predict_batch(&clean).map_err(err("predict"))?;
    let t0 = Instant::now();
    tracer.span("probe.attacks.pgd", None, |_| {
        pgd.perturb(net, &clean, &labels).map_err(err("pgd"))
    })?;
    r.layer(
        "attacks.pgd.step_ms",
        t0.elapsed().as_secs_f64() * 1e3 / pgd_cfg.steps as f64,
    );

    // signal: the DCT projection on one 32×32 plane
    let plane = test
        .images
        .batch_item(0)
        .and_then(|img| img.channel(0))
        .map_err(err("plane"))?;
    const PLANES: usize = 100;
    let s = tracer.span("probe.signal.dct_project", None, |_| {
        timed_median(REPS, || {
            for _ in 0..PLANES {
                std::hint::black_box(low_frequency_project(&plane, DCT_DIM).map_err(err("dct"))?);
            }
            Ok(())
        })
    })?;
    r.layer("signal.dct_project_us_per_plane", s * 1e6 / PLANES as f64);

    // nn + tensor: engine replays over the feature-filter model through the
    // counting backend
    let counting = Arc::new(CountingBackend::new(default_backend()));
    let engine = BatchEngine::new(filtered.network())
        .map_err(err("engine"))?
        .with_backend(counting.clone());
    let batch32: Vec<Tensor> = (0..32).map(|i| images[i % n_test].clone()).collect();
    let x32 = Tensor::stack(&batch32).map_err(err("stack"))?;
    let labels32: Vec<usize> = (0..32).map(|i| test.labels[i % n_test]).collect();
    let singles: Vec<Tensor> = batch32
        .iter()
        .map(|img| {
            img.reshape(&[1, img.dims()[0], img.dims()[1], img.dims()[2]])
                .map_err(err("reshape"))
        })
        .collect::<Result<_, _>>()?;
    let s = tracer.span("probe.nn.forward.b1", None, |_| {
        timed_median(REPS, || {
            for x in &singles {
                std::hint::black_box(engine.forward(x).map_err(err("forward"))?);
            }
            Ok(())
        })
    })?;
    r.layer("nn.forward_us_per_image.b1", s * 1e6 / singles.len() as f64);
    let s = tracer.span("probe.nn.forward.b32", None, |_| {
        timed_median(REPS, || engine.forward(&x32).map_err(err("forward")))
    })?;
    r.layer("nn.forward_us_per_image.b32", s * 1e6 / 32.0);
    let logits = engine.forward(&x32).map_err(err("forward"))?;
    let ones = logits.map(|_| 1.0);
    let s = tracer.span("probe.nn.input_grad", None, |_| {
        timed_median(REPS, || {
            engine.input_grad(&x32, &ones).map_err(err("input_grad"))
        })
    })?;
    r.layer("nn.input_grad_us_per_image", s * 1e6 / 32.0);
    let s = tracer.span("probe.nn.forward_backward", None, |_| {
        timed_median(REPS, || {
            engine
                .forward_backward_batch(&x32, &labels32)
                .map_err(err("forward_backward"))
        })
    })?;
    r.layer("nn.forward_backward_us_per_image", s * 1e6 / 32.0);
    for (kernel, t) in counting.totals() {
        r.layer(&format!("tensor.{kernel}.calls"), t.calls as f64);
        r.layer(&format!("tensor.{kernel}.self_ms"), t.self_ms);
        r.layer(&format!("tensor.{kernel}.gflop"), t.gflop);
        r.layer(&format!("tensor.{kernel}.mbytes"), t.mbytes);
    }
    r.note(format!(
        "tensor FLOPs and bytes are computed from operand shapes; kernel simd tier {}",
        engine.backend().simd_tier()
    ));

    // core: the write-ahead journal's per-cell append (fsync-bound)
    let journal_dir = ctx.work_dir.join("probe-journal");
    std::fs::create_dir_all(&journal_dir).map_err(err("journal dir"))?;
    let writer = JournalWriter::create(
        journal_dir.join("run.journal"),
        &JournalHeader {
            schema: RESULTS_SCHEMA.to_string(),
            scale: scale.to_string(),
            seed,
            cells: REPS * 4,
        },
    )
    .map_err(err("journal"))?;
    let cell = CellReport {
        experiment: "table2".into(),
        label: "probe".into(),
        status: CellStatus::Ok,
        output: None,
    };
    let s = tracer.span("probe.core.journal.append", None, |_| {
        timed_median(REPS * 4, || {
            writer.append_cell(&cell);
            Ok(())
        })
    })?;
    r.layer("core.journal.append_ms", s * 1e3);
    Ok(r)
}
