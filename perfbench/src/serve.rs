//! The serving layer: an in-process `ClassifyService` with the shipped
//! defaults (`ServeConfig::default()`: flush at 32 requests or 2 ms, one
//! worker) over the `input-filter:3` model, driven by one generator thread
//! on a fixed open-loop schedule while one thread waits on the tickets.
//!
//! Forward-only inference with micro-batching: no training inside the
//! timed phase, no attacks, no DCT, no scheduler. Every response is
//! checked bit for bit against `classify_single`. Open-loop latencies
//! swing with the host's scheduling jitter, so serving is measured only in
//! the traced run, as per-layer metrics.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blurnet::{ModelZoo, Scale};
use blurnet_defenses::{DefendedModel, DefenseKind};
use blurnet_serve::{classify_single, Classification, ClassifyService, ServeClient, ServeConfig};
use blurnet_tensor::Tensor;

use crate::stats::{
    backlog_at_end, due_time, max_sustained_rate, median, percentile, OpenLoopSample, StepVerdict,
    Summary,
};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// The served defense: `serve --defense input-filter:3`.
const DEFENSE: DefenseKind = DefenseKind::InputFilter { kernel: 3 };

/// The three fixed offered rates (requests/second): about 25, 50 and 85 %
/// of the 2.4k req/s closed-loop capacity `loadgen` measured on the 2-core
/// reference host when this benchmark was written. The open-loop
/// `max_rate_rps` moved too much between runs there to anchor them.
const RATES: [(&str, f64); 3] = [("low", 600.0), ("mid", 1200.0), ("high", 2000.0)];

/// Requests per open-loop step: enough for a p99 with 10 samples beyond.
const STEP_REQUESTS: usize = 1000;

/// Requests in the warm-up burst (all due at once): the service's batch
/// capacity.
const BURST_REQUESTS: usize = 4096;

/// Seconds the serving measurement is sized for.
const SERVE_SECONDS: f64 = 8.0;

/// The latency limit `max_rate_rps` is defined by.
const LATENCY_LIMIT_MS: f64 = 10.0;

/// Halvings below the search range, then bisection steps, of the
/// `max_rate_rps` search.
const SEARCH_STEPS: (usize, usize) = (2, 4);

/// The `max_rate_rps` search range (requests/second).
const SEARCH_RANGE: (f64, f64) = (600.0, 4800.0);

/// Length of one search step, and its floor in requests.
const SEARCH_STEP_SECONDS: f64 = 0.75;
const SEARCH_MIN_REQUESTS: usize = 400;

/// Per-layer metrics this module reports.
pub const LAYER_METRICS: [(&str, &str); 11] = [
    ("serve.p50_ms.low", "ms"),
    ("serve.p50_ms.mid", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p99_ms.mid", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.admit_us.p99", "us"),
    ("serve.backlog_end", "count"),
    ("serve.classify_single_us", "us"),
    ("bench.gen_late_ms.p99", "ms"),
];

/// The served model, the request images and the reference answers.
struct Fixture {
    service: ClassifyService,
    images: Vec<Tensor>,
    oracle: Vec<Classification>,
    classify_single_us: f64,
}

/// Trains the served model the way `serve` does at start-up, takes the
/// request images from the seeded test set, computes the single-request
/// reference answer for each, and starts the service.
fn setup(seed: u64, tracer: &Tracer) -> Result<Fixture, String> {
    let (model, images) = tracer.span("serve.setup.model", None, |_| -> Result<_, String> {
        let mut zoo = ModelZoo::new(Scale::Smoke, seed).map_err(|e| format!("zoo: {e}"))?;
        let model: Arc<DefendedModel> = zoo
            .get_or_train_shared(&DEFENSE)
            .map_err(|e| format!("training {}: {e}", DEFENSE.label()))?;
        let batch = zoo
            .dataset()
            .test_batch()
            .map_err(|e| format!("test set: {e}"))?;
        let n = batch.images.dims()[0];
        let images = (0..n)
            .map(|i| batch.images.batch_item(i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("test image: {e}"))?;
        Ok((model, images))
    })?;
    let t0 = Instant::now();
    let oracle = tracer.span("serve.classify_single", None, |_| {
        images
            .iter()
            .map(|img| classify_single(&model, img).map_err(|e| format!("classify_single: {e}")))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let classify_single_us = t0.elapsed().as_secs_f64() * 1e6 / images.len() as f64;
    let service = ClassifyService::new(model, ServeConfig::default())
        .map_err(|e| format!("service start: {e}"))?;
    Ok(Fixture {
        service,
        images,
        oracle,
        classify_single_us,
    })
}

fn same(a: &Classification, b: &Classification) -> bool {
    a.label == b.label && a.confidence.to_bits() == b.confidence.to_bits() && a.verdict == b.verdict
}

/// One open-loop step's record.
struct Step {
    samples: Vec<OpenLoopSample>,
    admit_us: Vec<f64>,
    failed: usize,
    mismatched: usize,
}

/// Sends `n` requests on an open-loop schedule (`rate = None`: all due at
/// once) from this thread while a second thread waits on the tickets in
/// order; request `i` carries image `(offset + i) % images`.
fn open_loop(
    client: &ServeClient,
    fx: &Fixture,
    rate: Option<f64>,
    n: usize,
    offset: usize,
    tracer: &Tracer,
    parent: u64,
) -> Step {
    let (tx, rx) = channel::<(usize, u64, Instant, Instant, _)>();
    let waiter = |rx: std::sync::mpsc::Receiver<(usize, u64, Instant, Instant, _)>| {
        let mut samples = Vec::with_capacity(n);
        let (mut failed, mut mismatched) = (0, 0);
        for (i, span, due, sent, ticket) in rx {
            let answer = match ticket {
                Ok(t) => blurnet_serve::Ticket::wait(t),
                Err(e) => Err(e),
            };
            let done = Instant::now();
            match answer {
                Ok(c) if same(&c, &fx.oracle[(offset + i) % fx.images.len()]) => {}
                Ok(_) => mismatched += 1,
                Err(_) => failed += 1,
            }
            let request = (offset + i) as u64;
            tracer.record_on(
                span,
                "serve.request",
                Some(parent),
                due,
                done,
                2,
                Some(request),
            );
            samples.push(OpenLoopSample { due, sent, done });
        }
        (samples, failed, mismatched)
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || waiter(rx));
        let start = Instant::now();
        let mut admit_us = Vec::with_capacity(n);
        for i in 0..n {
            let due = rate.map_or(start, |r| due_time(start, r, i));
            let image = fx.images[(offset + i) % fx.images.len()].clone();
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let ticket = client.submit(image);
            let admitted = Instant::now();
            admit_us.push((admitted - sent).as_secs_f64() * 1e6);
            // The request's span (due to response) is recorded by the
            // waiter; its id is reserved here so the admission span can
            // name it as parent.
            let span = tracer.reserve();
            tracer.record_on(
                tracer.reserve(),
                "serve.submit",
                Some(span),
                sent,
                admitted,
                1,
                Some((offset + i) as u64),
            );
            tx.send((i, span, due, sent, ticket))
                .expect("waiter thread is alive");
        }
        drop(tx);
        let (samples, failed, mismatched) = handle.join().expect("waiter thread panicked");
        Step {
            samples,
            admit_us,
            failed,
            mismatched,
        }
    })
}

fn latencies_ms(samples: &[OpenLoopSample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.latency().as_secs_f64() * 1e3)
        .collect()
}

fn p99(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.99)
}

/// Gate before timing: every test image through the micro-batched
/// service must match `classify_single` bit for bit.
fn gate(fx: &Fixture) -> Result<(), String> {
    let step = open_loop(
        &fx.service.client(),
        fx,
        None,
        fx.images.len(),
        0,
        &Tracer::new(false),
        0,
    );
    if step.failed + step.mismatched > 0 {
        return Err(format!(
            "serving gate: {} failed and {} responses differ from classify_single",
            step.failed, step.mismatched
        ));
    }
    Ok(())
}

/// Runs the serving gates at `seed` and at the second seed.
pub fn gates(seed: u64) -> Result<(), String> {
    for s in [seed, crate::grid::second_seed(seed)] {
        let fx = setup(s, &Tracer::new(false))?;
        gate(&fx)?;
        fx.service
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
    }
    Ok(())
}

/// The serving layer's per-layer metrics, measured after a traced grid
/// run: one set-up, the gate, one warm-up burst, the fixed-rate sweeps
/// and the `max_rate_rps` search.
pub fn layers(ctx: &Ctx) -> Result<Report, String> {
    let tracer = ctx.tracer;
    let fx = setup(ctx.seed, tracer)?;
    gate(&fx)?;
    let client = fx.service.client();

    let mut steps: Vec<Step> = Vec::new();
    let mut offset = 0;
    let mut run = |rate: Option<f64>, n: usize, name: &str, steps: &mut Vec<Step>| -> usize {
        let step = tracer.span(name, None, |id| {
            open_loop(&client, &fx, rate, n, offset, tracer, id)
        });
        offset += n;
        steps.push(step);
        steps.len() - 1
    };

    // One burst with every request due at once wakes the service up
    // before the open-loop steps.
    run(None, BURST_REQUESTS, "bench.burst.warmup", &mut steps);

    // Fixed-rate sweeps filling about 60 % of the serving time (a fixed
    // count, so every run has the same sample count), pooling each rate's
    // samples across sweeps.
    let sweep_s: f64 = RATES.iter().map(|&(_, r)| STEP_REQUESTS as f64 / r).sum();
    let sweeps = ((SERVE_SECONDS * 0.6 / sweep_s).round() as usize).max(1);
    let mut by_rate: Vec<Vec<usize>> = vec![Vec::new(); RATES.len()];
    for _ in 0..sweeps {
        for (k, &(name, rate)) in RATES.iter().enumerate() {
            by_rate[k].push(run(
                Some(rate),
                STEP_REQUESTS,
                &format!("bench.step.{name}"),
                &mut steps,
            ));
        }
    }

    // The highest rate that keeps p99 within the limit with no backlog,
    // searched upwards from the low fixed rate.
    let mut verdicts = Vec::new();
    let mut probe = |rate: f64| {
        let n = SEARCH_MIN_REQUESTS.max((rate * SEARCH_STEP_SECONDS) as usize);
        let i = run(Some(rate), n, "bench.step.search", &mut steps);
        let s = &steps[i].samples;
        let verdict = StepVerdict {
            p99_ms: p99(&latencies_ms(s)),
            backlog: backlog_at_end(s, Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3)),
        };
        verdicts.push(format!(
            "{rate:.0}:{:.2}ms/{}",
            verdict.p99_ms, verdict.backlog
        ));
        verdict
    };
    let max_rate = max_sustained_rate(
        SEARCH_RANGE.0,
        SEARCH_RANGE.1,
        LATENCY_LIMIT_MS,
        SEARCH_STEPS,
        &mut probe,
    );
    let fx_single = fx.classify_single_us;
    fx.service
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;

    let mismatched: usize = steps.iter().map(|s| s.mismatched).sum();
    if mismatched > 0 {
        return Err(format!(
            "{mismatched} served responses differ from classify_single"
        ));
    }
    let attempted: usize = steps.iter().map(|s| s.samples.len()).sum();
    let failed: usize = steps.iter().map(|s| s.failed).sum();
    let mut report = Report::new(attempted as u64, failed as u64);

    let pooled = |k: usize| -> Vec<&Step> { by_rate[k].iter().map(|&i| &steps[i]).collect() };
    for (k, &(name, rate)) in RATES.iter().enumerate() {
        let lat: Vec<f64> = pooled(k)
            .iter()
            .flat_map(|s| latencies_ms(&s.samples))
            .collect();
        let summary = Summary::of(&lat);
        let late: Vec<f64> = pooled(k)
            .iter()
            .flat_map(|s| s.samples.iter().map(|x| x.lateness().as_secs_f64() * 1e3))
            .collect();
        report.note(format!(
            "open loop {name} {rate} req/s: latency {} p99={:.4}ms; generator late p99={:.4}ms",
            summary.describe("ms"),
            p99(&lat),
            p99(&late)
        ));
        report.layer(&format!("serve.p50_ms.{name}"), summary.p50);
        report.layer(&format!("serve.p99_ms.{name}"), p99(&lat));
    }
    let high = RATES.len() - 1;
    let admit: Vec<f64> = pooled(high)
        .iter()
        .flat_map(|s| s.admit_us.iter().copied())
        .collect();
    let limit = Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3);
    let backlogs: Vec<f64> = pooled(high)
        .iter()
        .map(|s| backlog_at_end(&s.samples, limit) as f64)
        .collect();
    let late: Vec<f64> = by_rate
        .iter()
        .flatten()
        .flat_map(|&i| {
            steps[i]
                .samples
                .iter()
                .map(|s| s.lateness().as_secs_f64() * 1e3)
        })
        .collect();
    report.layer("serve.max_rate_rps", max_rate);
    report.layer("serve.admit_us.p99", p99(&admit));
    report.layer("serve.backlog_end", median(&backlogs));
    report.layer("serve.classify_single_us", fx_single);
    report.layer("bench.gen_late_ms.p99", p99(&late));
    report.note(format!("max_rate_rps={max_rate:.1} search={verdicts:?}"));
    Ok(report)
}
