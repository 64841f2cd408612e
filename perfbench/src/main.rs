//! The repository benchmark: the paper grid cold and warm, measured end to
//! end, with a traced per-layer breakdown that adds open-loop serving.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_cold|grid_warm --seed 7 --seconds 60 --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --gates --seed 7
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics and writes a Chrome trace
//! plus an aggregated span table under `perfbench/out/`. `--gates` runs
//! every correctness gate at `--seed` and at a second seed, without timing.
//! `perfbench/README.md` explains the workloads and what each metric
//! predicts.

mod counting;
mod grid;
mod probes;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use blurnet::RunProfile;

use crate::stats::valid_metric_name;
use crate::sys::HostStamp;
use crate::trace::Tracer;

/// The workload seed when none is given: the repository's
/// `EXPERIMENT_SEED`.
const DEFAULT_SEED: u64 = 7;

/// The rayon thread budget the benchmark is defined for. One compute
/// thread on the 2-core reference host leaves the other core to the
/// kernel and the host's noise: with two workers on two vCPUs the grid's
/// wall time spread by 23-39 % between runs of the same code.
const RAYON_THREADS: &str = "1";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["grid_cold", "grid_warm"];

/// End-to-end metrics and their units. Every workload reports every one
/// of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units, reported by every traced run.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("core.scheduler.utilization".into(), "share"),
        ("core.scheduler.idle_s".into(), "s"),
        ("core.scheduler.longest_node_s".into(), "s"),
    ];
    for kind in grid::NODE_KINDS {
        out.push((format!("core.scheduler.busy_s.{kind}"), "s"));
    }
    out.extend(
        probes::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u)),
    );
    for kernel in counting::KERNELS {
        out.push((format!("tensor.{kernel}.calls"), "count"));
        out.push((format!("tensor.{kernel}.self_ms"), "ms"));
        out.push((format!("tensor.{kernel}.gflop"), "GFLOP"));
        out.push((format!("tensor.{kernel}.mbytes"), "MB"));
    }
    out.extend(
        serve::LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// What a workload run is given.
pub struct Ctx<'a> {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the workload runs, warm-up and set-up included.
    pub seconds: Duration,
    /// Span recorder (disabled in the untraced run).
    pub tracer: &'a Tracer,
    /// Scratch directory for journals and caches, removed at exit.
    pub work_dir: PathBuf,
}

/// A workload's measurements.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (grid cells or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    e2e: Vec<(String, f64)>,
    layer: Vec<(String, f64)>,
    notes: Vec<String>,
    /// Scheduler profiles of the grid runs (for the per-layer metrics).
    pub profiles: Vec<RunProfile>,
}

impl Report {
    /// An empty report over `attempted` operations.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            ..Report::default()
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.to_string(), value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.push((name.to_string(), value));
    }

    /// Adds a human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Moves `other`'s per-layer metrics into `self`, and its notes under
    /// `label`.
    pub fn absorb_layers(&mut self, other: Report, label: &str) {
        self.layer.extend(other.layer);
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("{label}: {n}")));
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    gates: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 60,
        trace: false,
        gates: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--gates" => args.gates = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    match &args.workload {
        Some(w) if !WORKLOADS.contains(&w.as_str()) => Err(format!(
            "unknown workload {w}; expected one of {WORKLOADS:?}"
        )),
        None if !args.gates => Err("--workload is required".into()),
        _ => Ok(args),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload, traced or not, and fills in the metrics the mode
/// reports.
fn run_workload(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = grid::workload(ctx, workload == "grid_warm")?;
    if ctx.tracer.enabled() {
        // Every traced run reports every per-layer metric: the scheduler's
        // from the grid runs, the serving layer's from a short open-loop
        // run after them, and the other layers' from the probes.
        let profiles = std::mem::take(&mut report.profiles);
        grid::scheduler_layer_metrics(&profiles, &mut report);
        report.absorb_layers(serve::layers(ctx)?, "serve");
        report.absorb_layers(probes::run(ctx)?, "probes");
    }
    Ok(report)
}

/// Checks the metric set against the declared list and renders the
/// result line.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    type Declared<'a> = Vec<(String, &'a str)>;
    let (got, declared): (&[(String, f64)], Declared) = if trace {
        (&report.layer, per_layer_metrics())
    } else {
        (
            &report.e2e,
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        )
    };
    let mut members = Vec::new();
    for (name, unit) in &declared {
        let value = got
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() || !valid_metric_name(name) {
            return Err(format!("metric {name} = {value} is not reportable"));
        }
        members.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((extra, _)) = got
        .iter()
        .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        members.join(", ")
    ))
}

fn write_trace(tracer: &Tracer, workload: &str, seed: u64, host: &HostStamp) -> Result<(), String> {
    let spans = tracer.take();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stem = dir.join(format!("trace-{workload}-seed{seed}"));
    let meta = format!(
        "\"workload\": \"{workload}\", \"seed\": {seed}, {}",
        host.json_members()
    );
    let json = stem.with_extension("json");
    std::fs::write(&json, trace::chrome_trace(&spans, &meta))
        .map_err(|e| format!("write {}: {e}", json.display()))?;
    let table = trace::table(
        &trace::aggregate(&spans),
        &format!("{workload} seed={seed} {}", host.line()),
    );
    let txt = stem.with_extension("txt");
    std::fs::write(&txt, &table).map_err(|e| format!("write {}: {e}", txt.display()))?;
    println!(
        "# trace: {} ({} spans), table: {}",
        json.display(),
        spans.len(),
        txt.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    // The benchmark is defined for two rayon threads; set the budget
    // before anything starts the pool.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = HostStamp::current();
    println!("# host {}", host.line());
    if host.nproc < 2 {
        eprintln!(
            "perfbench: refusing to measure on a {}-core host; baselines need two or more cores",
            host.nproc
        );
        return ExitCode::from(3);
    }
    let work_dir = out_dir().join(format!("work-{}", std::process::id()));
    let (steal0, total0) = sys::host_cpu_ticks();
    let outcome = if args.gates {
        serve::gates(args.seed)
            .and_then(|()| grid::gates(args.seed, &work_dir))
            .map(|()| None)
    } else {
        let workload = args.workload.as_deref().expect("validated");
        let tracer = Tracer::new(args.trace);
        let ctx = Ctx {
            seed: args.seed,
            seconds: Duration::from_secs(args.seconds),
            tracer: &tracer,
            work_dir: work_dir.clone(),
        };
        run_workload(workload, &ctx).and_then(|report| {
            if args.trace {
                write_trace(&tracer, workload, args.seed, &host)?;
            }
            Ok(Some(report))
        })
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let (steal1, total1) = sys::host_cpu_ticks();
    // Stolen CPU time during the run says how much another tenant of the
    // host may have disturbed these numbers.
    println!(
        "# host steal_share={:.4} over the run",
        (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    match outcome {
        Ok(Some(report)) => {
            for line in &report.notes {
                println!("# {line}");
            }
            // Every gate passed (a failed gate is an `Err`), so the checked
            // outputs are correct; requests that errored are counted as
            // failed, not as wrong.
            match result_line(&report, args.trace) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(None) => {
            println!(
                "# all correctness gates passed at seeds {} and {}",
                args.seed,
                grid::second_seed(args.seed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness or set-up failure: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Seq(items)) = doc.get_field(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|m| match (m.get_field("name"), m.get_field("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad {key} entry {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let doc = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_units(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_units(&doc, "per_layer"), layer);
        let Some(Value::Seq(workloads)) = doc.get_field("workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&Value> = workloads
            .iter()
            .filter_map(|w| w.get_field("name"))
            .collect();
        assert_eq!(names.len(), WORKLOADS.len());
        for (got, want) in names.iter().zip(WORKLOADS) {
            assert!(
                matches!(got, Value::Str(s) if s == want),
                "{got:?} vs {want}"
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in e2e.iter().chain(&layer) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }

    #[test]
    fn result_line_refuses_missing_or_undeclared_metrics() {
        let mut report = Report::new(3, 0);
        for (name, _) in END_TO_END {
            report.e2e(name, 1.5);
        }
        let line = result_line(&report, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        report.e2e("bogus", 1.0);
        assert!(result_line(&report, false).is_err());
        let mut short = Report::new(1, 0);
        short.e2e("wall_s", 1.0);
        assert!(result_line(&short, false).is_err());
    }
}
