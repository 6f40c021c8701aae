//! The cdmm benchmark: one seeded workload per invocation, measured end
//! to end with tracing off, or layer by layer with tracing on.
//!
//! ```text
//! cdmm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Sample counts and failed checks go to
//! standard error, and the full record (with every span of a traced
//! run) to `out/BENCH_<workload>-seed<n>-trace<t>.json` beside this
//! crate's manifest. See `README.md` for the workloads and metrics.

mod fleet;
mod gen;
mod layers;
mod refsim;
mod serve;
mod spans;
mod stats;
mod tables;

use std::path::PathBuf;
use std::process::ExitCode;

use cdmm_bench::artifact::{Artifact, Entry};

use crate::layers::Tracer;

/// Every end-to-end metric: name, unit. A workload's operation is a
/// cold and a warm table pass (`paper_tables`), a request (`serve_*`)
/// or a fleet run (`fleet_mixed`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["paper_tables", "serve_hot", "serve_fresh", "fleet_mixed"];

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run traced (per-layer metrics) instead of end to end.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each repetition of set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of each measured operation.
    pub op_ns: Vec<u64>,
    /// Wall time of the whole measured phase.
    pub window_s: f64,
    /// Output checks made.
    pub checks: u64,
    /// Error responses and failed checks, described.
    pub failures: Vec<String>,
}

impl Run {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn p(&self, q: f64) -> f64 {
        stats::percentile(&self.op_ns, q) as f64 / 1e6
    }
}

/// The directory the benchmark writes into: `out/` beside the manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(args: &Args, seconds: f64, tracer: Option<&mut Tracer>) -> Run {
    match args.workload.as_str() {
        "paper_tables" => tables::run(args, seconds, tracer),
        "serve_hot" => serve::run_hot(args, seconds, tracer),
        "serve_fresh" => serve::run_fresh(args, seconds, tracer),
        "fleet_mixed" => fleet::run(args, seconds, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Root span names whose durations are the workload's operations.
fn op_spans(workload: &str) -> &'static [&'static str] {
    match workload {
        "paper_tables" => &tables::OP_SPANS,
        "serve_hot" | "serve_fresh" => &serve::OP_SPANS,
        _ => &fleet::OP_SPANS,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cdmm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut artifact = Artifact::new(
        &format!(
            "{}-seed{}-trace{}",
            args.workload, args.seed, args.trace as u8
        ),
        "paper",
    );
    let (run, metrics) = if args.trace {
        // Half the time untraced, half traced: the difference in the
        // median operation time is the tracing overhead.
        let plain = run_workload(&args, args.seconds / 2.0, None);
        let mut tracer = Tracer::default();
        let traced = run_workload(&args, args.seconds / 2.0, Some(&mut tracer));
        let overhead = (traced.p(0.5) / plain.p(0.5) - 1.0) * 100.0;
        let metrics = tracer.metrics(
            op_spans(&args.workload),
            traced.op_ns.len() as u64,
            overhead,
        );
        artifact.entries.extend(tracer.spans.to_entries());
        let mut both = traced;
        both.op_ns.extend(&plain.op_ns);
        both.checks += plain.checks;
        both.failures.extend(plain.failures);
        (both, metrics)
    } else {
        let run = run_workload(&args, args.seconds, None);
        let n = run.op_ns.len();
        let value = |name: &str| match name {
            "setup_s" => stats::median(&run.setup_s),
            "p50_ms" => run.p(0.5),
            "p99_ms" => run.p(0.99),
            "ops_per_s" => n as f64 / run.window_s,
            "peak_rss_mb" => stats::peak_rss_mb().expect("VmHWM in /proc/self/status"),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| Metric::new(name, value(name), unit))
            .collect();
        eprintln!(
            "{}: {n} operations in {:.2} s; p50 and p99 over n={n}; setup_s median of {}",
            args.workload,
            run.window_s,
            run.setup_s.len()
        );
        (run, metrics)
    };
    for f in &run.failures {
        eprintln!("failed: {f}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("cdmm-perfbench: {} is {}", m.name, m.value);
        return ExitCode::FAILURE;
    }
    let attempted = run.op_ns.len() as u64;
    let failed = run.failures.len() as u64;
    let correct = failed == 0;
    artifact.entries.insert(
        0,
        Entry::new("run")
            .int("seed", args.seed)
            .float("seconds", args.seconds)
            .int("attempted", attempted)
            .int("failed", failed)
            .int("checks", run.checks)
            .int("correct", correct as u64),
    );
    for (i, m) in metrics.iter().enumerate() {
        let e = Entry::new(format!("metric/{}", m.name)).float("value", m.value);
        let e = if args.trace {
            e
        } else {
            e.int("samples", attempted)
        };
        artifact.entries.insert(1 + i, e);
    }
    if let Err(e) = artifact.write_to_dir(&out_dir()) {
        eprintln!("cdmm-perfbench: writing the artifact: {e}");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program runs and prints.
    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(layers::PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert_eq!(json.matches("\"name\":").count(), names.len());
        for (name, unit, better) in layers::PER_LAYER {
            let row = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\"");
            assert!(json.contains(&row), "{row}");
        }
    }
}
