//! `grid_cold` and `grid_warm`: the full 52-cell paper grid through
//! `ExperimentScheduler::run`, the way `reproduce --grid full --threads 1`
//! runs it.
//!
//! `grid_cold` starts every run from an empty cache, so training, the
//! attack loops and the DCT projection all execute. `grid_warm` points the
//! scheduler at a cache its own set-up filled with this very binary, so
//! every train node becomes a verified disk load and only the attack and
//! analysis work remains. A training speed-up must leave `grid_warm`
//! unchanged while an attack or DCT speed-up shows on both.

use std::path::Path;
use std::time::{Duration, Instant};

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::{ExperimentScheduler, RunProfile, RunReport, Scale};
use blurnet_data::SignDataset;

use crate::stats::median;
use crate::sys::{peak_rss_mb, process_cpu};
use crate::trace::Tracer;
use crate::{Ctx, Report};

/// Scheduler workers. One worker runs the grid in sequence on one core:
/// with two workers on the 2-vCPU reference host, which nodes shared the
/// cores and when the host lent the second vCPU away decided the wall
/// time as much as the code did.
const WORKERS: usize = 1;

/// Set-ups per `grid_cold` run (dataset generation only, so cheap).
const COLD_SETUPS: usize = 9;

/// Fewest timed grid runs per workload run, however long they take.
const MIN_GRID_RUNS: usize = 2;

/// Busy warm-up before anything is timed: on the reference VM the first
/// grid of a run was often up to 15 % slower than the ones after it.
const WARM_UP: Duration = Duration::from_secs(3);

/// One timed grid run.
pub struct GridRun {
    /// The deterministic report.
    pub report: RunReport,
    /// The scheduler's own telemetry.
    pub profile: RunProfile,
    /// Wall time around `ExperimentScheduler::run`.
    pub wall: Duration,
    /// Process CPU time spent inside it.
    pub cpu: Duration,
}

/// Runs the full grid once with its journal in `dir` (created fresh) and
/// an optional cache directory, tracing the call and its nodes.
pub fn run_grid(
    seed: u64,
    dir: &Path,
    cache: Option<&Path>,
    tracer: &Tracer,
) -> Result<GridRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut scheduler = ExperimentScheduler::new(Scale::Smoke, seed)
        .threads(WORKERS)
        .journal_path(dir.join("run.journal"));
    if let Some(cache) = cache {
        scheduler = scheduler.cache_dir(cache);
    }
    let grid = ExperimentGrid::full(Scale::Smoke);
    let span = tracer.reserve();
    let (cpu0, t0) = (process_cpu(), Instant::now());
    let run = scheduler
        .run(&grid)
        .map_err(|e| format!("scheduler run failed: {e}"))?;
    let (wall, cpu) = (t0.elapsed(), process_cpu().saturating_sub(cpu0));
    tracer.record_on(span, "core.scheduler.run", None, t0, t0 + wall, 0, None);
    // The scheduler's per-node profile becomes child spans, one lane per
    // worker.
    for node in &run.profile.nodes {
        let start = t0 + Duration::from_nanos(node.start_ns);
        let end = start + Duration::from_nanos(node.duration_ns);
        let name = format!("core.node.{}", node_kind(&node.name));
        let id = tracer.reserve();
        tracer.record_on(
            id,
            &name,
            Some(span),
            start,
            end,
            100 + node.worker as u64,
            None,
        );
    }
    Ok(GridRun {
        report: run.report,
        profile: run.profile,
        wall,
        cpu,
    })
}

/// The busy-time bucket of a scheduler node, from its public name.
pub fn node_kind(name: &str) -> &'static str {
    if name.starts_with("train:") {
        return "train";
    }
    if name.starts_with("artifact:") {
        return "artifact";
    }
    let experiment = name
        .strip_prefix("cell:")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    match experiment {
        "table1" => "table1",
        "table2" => "table2",
        "table3" => "table3",
        "table4" => "table4",
        "table5" => "table5",
        "figure3" => "figure3",
        "figure5" | "figure6" => "scatter",
        _ => "other",
    }
}

/// Every busy-time bucket [`node_kind`] produces.
pub const NODE_KINDS: [&str; 10] = [
    "train", "artifact", "table1", "table2", "table3", "table4", "table5", "figure3", "scatter",
    "other",
];

/// Fails unless every cell of `run` is `Ok`.
fn gate_all_ok(report: &RunReport, what: &str) -> Result<(), String> {
    let bad: Vec<String> = report
        .cells
        .iter()
        .filter(|c| c.status != blurnet::CellStatus::Ok)
        .map(|c| format!("{}/{}: {:?}", c.experiment, c.label, c.status))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} cells not Ok: {}",
            bad.len(),
            bad.join("; ")
        ))
    }
}

/// Fails unless `report` serialises byte-identically to `reference`.
fn gate_identical(report: &RunReport, reference: &str, what: &str) -> Result<(), String> {
    if report.to_json() == reference {
        Ok(())
    } else {
        Err(format!("{what}: report differs from the reference report"))
    }
}

/// Generates the seeded dataset the grid runs on and returns how long it
/// took.
fn generate_dataset(seed: u64, tracer: &Tracer) -> Result<Duration, String> {
    let t0 = Instant::now();
    tracer
        .span("data.generate", None, |_| {
            SignDataset::generate(&Scale::Smoke.dataset_config(), seed)
        })
        .map_err(|e| format!("dataset generation failed: {e}"))?;
    Ok(t0.elapsed())
}

/// The `grid_cold` and `grid_warm` workloads.
///
/// After a [`WARM_UP`] and the set-up, grid runs repeat while the next
/// one, at the mean duration so far, still ends within `--seconds` of the
/// workload's start (warm-up and set-up included), and at least
/// [`MIN_GRID_RUNS`] times.
pub fn workload(ctx: &Ctx, warm: bool) -> Result<Report, String> {
    let started = Instant::now();
    while started.elapsed() < WARM_UP {
        generate_dataset(ctx.seed, &Tracer::new(false))?;
    }
    let mut setups = Vec::new();
    let mut reference: Option<String> = None;
    let cache = ctx.work_dir.join("cache");
    if warm {
        // Set-up: fill a fresh cache with one cold run, whose report is
        // the reference every warm run must match. A second fill would
        // cost another whole cold grid per run.
        let t0 = Instant::now();
        let fill = run_grid(
            ctx.seed,
            &ctx.work_dir.join("fill"),
            Some(&cache),
            ctx.tracer,
        )?;
        setups.push(t0.elapsed().as_secs_f64());
        gate_all_ok(&fill.report, "cache-filling cold run")?;
        reference = Some(fill.report.to_json());
    } else {
        // Set-up: generating the seeded dataset the grid runs on. The
        // scheduler regenerates it inside every run; timing it here on its
        // own makes a data-generation change visible in `setup_s`.
        for _ in 0..COLD_SETUPS {
            setups.push(generate_dataset(ctx.seed, ctx.tracer)?.as_secs_f64());
        }
    }

    let timed = Instant::now();
    let mut runs: Vec<GridRun> = Vec::new();
    loop {
        let dir = ctx.work_dir.join(format!("run{}", runs.len()));
        let run = run_grid(ctx.seed, &dir, warm.then_some(cache.as_path()), ctx.tracer)?;
        gate_all_ok(&run.report, "timed run")?;
        match &reference {
            Some(r) => gate_identical(
                &run.report,
                r,
                if warm {
                    "warm run vs cold run"
                } else {
                    "repeated cold run"
                },
            )?,
            None => reference = Some(run.report.to_json()),
        }
        runs.push(run);
        let next = timed.elapsed() / runs.len() as u32;
        if runs.len() >= MIN_GRID_RUNS && started.elapsed() + next > ctx.seconds {
            break;
        }
    }

    let walls: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64()).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu.as_secs_f64()).collect();
    let cells = runs.iter().map(|r| r.report.cells.len() as u64).sum();
    let mut report = Report::new(cells, 0);
    report.note(format!(
        "grid runs={} wall_s={walls:?} cpu_s={cpus:?} setups_s={setups:?}",
        runs.len()
    ));
    report.e2e("setup_s", median(&setups));
    report.e2e("wall_s", median(&walls));
    report.e2e("cpu_s", median(&cpus));
    report.e2e("peak_rss_mb", peak_rss_mb());
    report.profiles = runs.into_iter().map(|r| r.profile).collect();
    Ok(report)
}

/// Per-layer scheduler metrics from the profiles of the traced run's
/// grid runs (medians over runs).
pub fn scheduler_layer_metrics(profiles: &[RunProfile], report: &mut Report) {
    let per_run = |f: &dyn Fn(&RunProfile) -> f64| -> f64 {
        median(&profiles.iter().map(f).collect::<Vec<_>>())
    };
    report.layer("core.scheduler.utilization", per_run(&|p| p.utilization()));
    report.layer(
        "core.scheduler.idle_s",
        per_run(&|p| {
            let busy: u64 = p.nodes.iter().map(|n| n.duration_ns).sum();
            (p.wall_ns as f64 * p.workers as f64 - busy as f64) / 1e9
        }),
    );
    report.layer(
        "core.scheduler.longest_node_s",
        per_run(&|p| p.nodes.iter().map(|n| n.duration_ns).max().unwrap_or(0) as f64 / 1e9),
    );
    for kind in NODE_KINDS {
        report.layer(
            &format!("core.scheduler.busy_s.{kind}"),
            per_run(&|p| {
                p.nodes
                    .iter()
                    .filter(|n| node_kind(&n.name) == kind)
                    .map(|n| n.duration_ns)
                    .sum::<u64>() as f64
                    / 1e9
            }),
        );
    }
}

/// The second seed the gates run at, so a claim can be re-checked on a
/// seed its change was not written against.
pub fn second_seed(seed: u64) -> u64 {
    seed.wrapping_add(1)
}

/// Every grid gate, untimed, at `seed` and at [`second_seed`]: a cold run
/// filling a cache is all `Ok`, a second cold run is byte-identical to it,
/// and a warm run from the filled cache is byte-identical too.
pub fn gates(seed: u64, work_dir: &Path) -> Result<(), String> {
    let off = Tracer::new(false);
    for s in [seed, second_seed(seed)] {
        let dir = work_dir.join(format!("gates-{s}"));
        let cache = dir.join("cache");
        let cold = run_grid(s, &dir.join("cold"), Some(&cache), &off)?;
        gate_all_ok(&cold.report, "cold run")?;
        let reference = cold.report.to_json();
        let again = run_grid(s, &dir.join("again"), None, &off)?;
        gate_identical(&again.report, &reference, "repeated cold run")?;
        let warm = run_grid(s, &dir.join("warm"), Some(&cache), &off)?;
        gate_identical(&warm.report, &reference, "warm run vs cold run")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_names_map_to_busy_buckets() {
        assert_eq!(node_kind("train:baseline"), "train");
        assert_eq!(node_kind("artifact:sticker"), "artifact");
        assert_eq!(node_kind("cell:table3/feature filter 7x7"), "table3");
        assert_eq!(
            node_kind("cell:figure3/DCT sweep (7x7 depthwise)"),
            "figure3"
        );
        assert_eq!(node_kind("cell:figure6/tv"), "scatter");
        assert_eq!(node_kind("cell:figure1/input spectrum"), "other");
        for kind in NODE_KINDS {
            assert!(crate::stats::valid_metric_name(&format!(
                "core.scheduler.busy_s.{kind}"
            )));
        }
    }
}
