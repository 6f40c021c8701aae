//! Tracing-overhead check: the production driver with a disabled
//! tracer (`cdmm_vmsim::run` with `NullTracer`) must cost within a small
//! margin of a driver loop with no tracing hooks at all.
//!
//! ```text
//! trace_bench [--small] [--trace-out PATH] [--trace-events]
//! ```
//!
//! The baseline is a re-implementation of the pre-observability driver
//! loop (reference → record → degraded check, directives forwarded, no
//! tracer branches), built on the same public `Metrics`/`Policy` API.
//! Both sides drive LRU over the same flat plain trace
//! (`CompressedTrace::to_trace`), where the run-level driver meets only
//! length-1 runs — so the comparison isolates what the driver's tracer,
//! token and recorder plumbing adds per reference. Each workload is
//! timed in two setups, and the worse one is gated: LRU as a concrete
//! type, which monomorphizes both loops as the production pipeline
//! does, and LRU behind `&mut dyn Policy`, as the pipeline drives its
//! ablation policies and the fleet drives every tenant. Each setup runs as interleaved pairs
//! for about 0.5 s per workload; its overhead is the median over pairs
//! of NullTracer/baseline time. The binary fails when the worst
//! workload and setup exceeds the threshold (default 2%, override with
//! `CDMM_OVERHEAD_PCT` — CI runners with noisy neighbors may need a
//! looser bound).
//!
//! With `--trace-out` it additionally demonstrates the enabled path:
//! one traced CD run per workload, streamed to the JSONL sink.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cdmm_bench::timing::paired_overhead;
use cdmm_bench::BenchEnv;
use cdmm_core::{prepare, PipelineConfig, PolicySpec, Prepared};
use cdmm_trace::{EventRef, EventSource, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::{run, simulate, Metrics, NullTracer, SharedSink, SimConfig};

/// The seed driver loop, byte-for-byte the logic `simulate` had before
/// the observability layer: no tracer, no event draining.
fn seed_loop<P: Policy + ?Sized>(trace: &Trace, config: SimConfig, policy: &mut P) -> Metrics {
    let mut metrics = Metrics::new(config.fault_service);
    trace.for_each_event(|event| match event {
        EventRef::Ref(page) => {
            let fault = policy.reference(page);
            metrics.record(policy.resident(), fault);
            if policy.is_degraded() {
                metrics.degraded_refs += 1;
            }
        }
        EventRef::Directive(other) => policy.directive(other),
    });
    metrics.recovered_directives = policy.recovered_directives();
    metrics
}

/// The production driver with the disabled tracer and no token.
fn null_run<P: Policy + ?Sized>(trace: &Trace, config: SimConfig, policy: &mut P) -> Metrics {
    run(trace, policy, config, &mut NullTracer, None).expect("no token, no stop")
}

/// Wall time of one call.
fn timed(f: impl FnOnce() -> Metrics) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

fn main() -> ExitCode {
    let env = BenchEnv::from_env();
    let threshold: f64 = std::env::var("CDMM_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let budget = Duration::from_millis(500);
    let names = ["MAIN", "FDJAC", "CONDUCT"];
    let prepared: Vec<Prepared> = names
        .iter()
        .map(|n| {
            let w = cdmm_workloads::by_name(n, env.scale()).expect("known workload");
            prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{n}: {e}"))
        })
        .collect();

    let frames = 8;
    let cfg = SimConfig::default();
    let mut worst: f64 = f64::NEG_INFINITY;
    println!(
        "{:<10} {:<6} {:>14} {:>14} {:>9} {:>7}",
        "program", "lru", "seed loop", "NullTracer", "overhead", "pairs"
    );
    for p in &prepared {
        let config = SimConfig {
            fault_service: p.config().fault_service,
        };
        let flat = p.plain_trace().to_trace();
        // Equal metrics first — a fast wrong path is no win.
        assert_eq!(
            seed_loop(&flat, config, &mut Lru::new(frames)),
            null_run(&flat, config, &mut Lru::new(frames)),
            "{}: NullTracer path must be result-identical",
            p.name()
        );
        let concrete = paired_overhead(
            8,
            budget,
            || timed(|| seed_loop(&flat, config, &mut Lru::new(frames))),
            || timed(|| null_run(&flat, config, &mut Lru::new(frames))),
        );
        let boxed = paired_overhead(
            8,
            budget,
            || timed(|| seed_loop::<dyn Policy>(&flat, config, &mut Lru::new(frames))),
            || timed(|| null_run::<dyn Policy>(&flat, config, &mut Lru::new(frames))),
        );
        for (setup, timing) in [("type", concrete), ("dyn", boxed)] {
            worst = worst.max(timing.overhead_pct);
            println!(
                "{:<10} {:<6} {:>14.3?} {:>14.3?} {:>8.2}% {:>7}",
                p.name(),
                setup,
                timing.fastest_base,
                timing.fastest_other,
                timing.overhead_pct,
                timing.pairs
            );
        }
    }

    if let Some(tracer) = env.tracer() {
        for p in &prepared {
            let mut sink = SharedSink::new(tracer);
            let m = p.run_policy_with(
                PolicySpec::Cd {
                    selector: CdSelector::AtLevel(2),
                },
                &mut sink,
            );
            let plain = {
                let mut cd =
                    CdPolicy::new(CdSelector::AtLevel(2)).with_min_alloc(p.config().min_alloc);
                simulate(p.cd_trace(), &mut cd, cfg)
            };
            assert_eq!(m, plain, "{}: traced CD run must be identical", p.name());
        }
        println!("traced CD runs streamed to the JSONL sink (metrics identical)");
    }
    env.finish();

    println!("worst overhead {worst:.2}% (threshold {threshold:.1}%)");
    if worst > threshold {
        eprintln!(
            "trace_bench: NullTracer overhead {worst:.2}% exceeds {threshold:.1}% \
             (set CDMM_OVERHEAD_PCT to loosen on noisy machines)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
