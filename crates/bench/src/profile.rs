//! Hot-loop profiler: per-phase wall time and references/second for
//! every workload × policy, emitted as a `BENCH_perf.json`
//! [`Artifact`].
//!
//! Each profiled cell runs three phases, mirroring the pipeline:
//!
//! 1. **prepare** — compile → instrument → trace,
//! 2. **simulate** — the untraced hot loop; `refs_per_sec` comes from
//!    this phase,
//! 3. **report** — a metrics-registry-attached run plus scorecard
//!    rendering, the full observability cost.
//!
//! Every phase is timed as the minimum over `samples` calibrated
//! batches (minimum, not mean: scheduler noise only ever adds time;
//! batches so one sample spans ≥10ms even for the ~100µs small-scale
//! cells).
//!
//! Entries also carry the run's deterministic simulation metrics
//! (`refs`, `faults`, `mean_mem`, `st`): the regression gate compares
//! those exactly (drift means the simulator changed behavior), while
//! the `_ns`/`refs_per_sec` wall fields get noise-aware thresholds —
//! see [`crate::regress`].

use std::time::Instant;

use cdmm_core::report::scorecard;
use cdmm_core::sweep::{self, Executor, ResultCache};
use cdmm_core::{prepare, PipelineConfig, PolicySpec, Prepared};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::MetricsRegistry;
use cdmm_workloads::Scale;

use crate::artifact::{Artifact, Entry};

/// The fixed policy set every workload is profiled under. Parameters
/// are pinned (CD at level 2, LRU at 8 frames, WS at τ=2000) so the
/// fault-metric columns are machine-independent.
pub const POLICIES: [(&str, PolicySpec); 3] = [
    (
        "CD",
        PolicySpec::Cd {
            selector: CdSelector::AtLevel(2),
        },
    ),
    ("LRU", PolicySpec::Lru { frames: 8 }),
    ("WS", PolicySpec::Ws { tau: 2_000 }),
];

/// Profiler configuration.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Restrict to these workload names (`None` = all nine). Unknown
    /// names are ignored, so a reduced CI set survives renames.
    pub workloads: Option<Vec<String>>,
    /// Simulate-phase repetitions; the minimum is reported.
    pub samples: u32,
}

impl ProfileOptions {
    /// Default profile at the given scale: all workloads, min-of-3.
    pub fn at_scale(scale: Scale) -> Self {
        ProfileOptions {
            scale,
            workloads: None,
            samples: 3,
        }
    }
}

/// The artifact `scale` tag for a workload scale.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Small => "small",
    }
}

/// Minimum span one timing sample must cover. Small-scale cells
/// simulate in ~100µs, far below scheduler noise; batching until a
/// sample spans this long keeps the min-of-samples stable enough for
/// the default 10% gate on an otherwise idle machine.
const MIN_SAMPLE_NS: u128 = 10_000_000;

/// Times `f` as the minimum over `samples` calibrated batches and
/// returns the per-call nanoseconds (plus the last return value).
fn timed_min<T>(samples: u32, mut f: impl FnMut() -> T) -> (u64, T) {
    let mut out = std::hint::black_box(f()); // warm-up
    let mut iters = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            out = std::hint::black_box(f());
        }
        if t0.elapsed().as_nanos() >= MIN_SAMPLE_NS || iters >= 1 << 14 {
            break;
        }
        iters *= 2;
    }
    let mut best = u128::MAX;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters {
            out = std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos());
    }
    ((best / u128::from(iters)) as u64, out)
}

fn profile_cell(prepared: &Prepared, policy: PolicySpec, samples: u32) -> (Entry, String) {
    let label_policy = prepared.policy_label(policy);
    let (simulate_ns, metrics) = timed_min(samples, || prepared.run_policy(policy));
    let (report_ns, (observed, scorecard)) = timed_min(samples, || {
        let mut registry = MetricsRegistry::new();
        let m = prepared.run_policy_with(policy, &mut registry);
        (m, scorecard::render_markdown(&registry.snapshot()))
    });
    assert_eq!(
        observed, metrics,
        "an attached registry never changes simulation numbers"
    );
    let secs = (simulate_ns as f64 / 1e9).max(1e-12);
    let entry = Entry::new(format!("{}/{label_policy}", prepared.name()))
        .int("refs", metrics.refs)
        .int("faults", metrics.faults)
        .float("fault_rate", metrics.fault_rate())
        .float("mean_mem", metrics.mean_mem())
        .float("st", metrics.st_cost())
        .int("simulate_ns", simulate_ns)
        .int("report_ns", report_ns)
        .float("refs_per_sec", metrics.refs as f64 / secs);
    (entry, scorecard)
}

/// Profiles one whole-family sweep (the paper's per-table workhorse)
/// through the sweep entry points, which answer it with the one-pass
/// curve kernels. Each sample runs against its own fresh in-memory
/// cache — the cost of one *cold* sweep, exactly what a table pays for
/// a program it has not seen.
///
/// `refs` is the reference volume a *per-point* sweep must process
/// (`points × trace refs`) — the fixed work the row's `refs_per_sec`
/// is normalized by, making kernel-vs-per-point throughput directly
/// comparable across artifacts. `faults` (summed over the sweep) is
/// deterministic and exact-compared: it drifts only if the sweep
/// engine changes *answers*, not speed.
fn profile_sweep_cell(
    prepared: &Prepared,
    family: &str,
    samples: u32,
    run: impl FnMut() -> Vec<sweep::Point>,
) -> Entry {
    let (sweep_ns, points) = timed_min(samples, run);
    let work_refs = prepared.plain_trace().ref_count() * points.len() as u64;
    let faults: u64 = points.iter().map(|pt| pt.metrics.faults).sum();
    let secs = (sweep_ns as f64 / 1e9).max(1e-12);
    Entry::new(format!("{}/sweep/{family}", prepared.name()))
        .int("points", points.len() as u64)
        .int("refs", work_refs)
        .int("faults", faults)
        .int("simulate_ns", sweep_ns)
        .float("refs_per_sec", work_refs as f64 / secs)
}

/// Runs the profiler and returns the `perf` artifact plus the last
/// scorecard rendered (a human-readable sample for the console).
pub fn profile(opts: &ProfileOptions) -> (Artifact, String) {
    let mut artifact = Artifact::new("perf", scale_tag(opts.scale));
    let mut last_scorecard = String::new();
    for w in cdmm_workloads::all(opts.scale) {
        if let Some(only) = &opts.workloads {
            if !only.iter().any(|n| n.eq_ignore_ascii_case(w.name)) {
                continue;
            }
        }
        let (prepare_ns, prepared) = timed_min(opts.samples, || {
            prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name))
        });
        for (_, policy) in POLICIES {
            let (entry, scorecard) = profile_cell(&prepared, policy, opts.samples);
            artifact.entries.push(entry.int("prepare_ns", prepare_ns));
            last_scorecard = scorecard;
        }
        let exec = Executor::serial();
        artifact
            .entries
            .push(profile_sweep_cell(&prepared, "lru", opts.samples, || {
                sweep::lru_sweep_with(
                    &exec,
                    &ResultCache::in_memory(),
                    &prepared,
                    sweep::full_lru_range(&prepared),
                )
            }));
        let taus = sweep::ws_tau_grid(&prepared, 8);
        artifact
            .entries
            .push(profile_sweep_cell(&prepared, "ws", opts.samples, || {
                sweep::ws_sweep_with(&exec, &ResultCache::in_memory(), &prepared, taus.clone())
            }));
    }
    (artifact, last_scorecard)
}

/// Renders a console summary of a perf artifact: one line per entry.
pub fn render_summary(artifact: &Artifact) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>10} {:>8} {:>12} {:>12}",
        "workload/policy", "refs", "faults", "sim", "refs/sec"
    );
    for e in &artifact.entries {
        let ns = e.get("simulate_ns").map_or(0.0, |v| v.as_f64());
        let _ = writeln!(
            s,
            "{:<24} {:>10} {:>8} {:>9.3}ms {:>12.3e}",
            e.id,
            e.get("refs").map_or(0.0, |v| v.as_f64()),
            e.get("faults").map_or(0.0, |v| v.as_f64()),
            ns / 1e6,
            e.get("refs_per_sec").map_or(0.0, |v| v.as_f64()),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::is_wall_field;

    fn quick() -> ProfileOptions {
        ProfileOptions {
            scale: Scale::Small,
            workloads: Some(vec!["MAIN".to_string()]),
            samples: 1,
        }
    }

    #[test]
    fn one_workload_profiles_all_three_policies() {
        let (a, scorecard) = profile(&quick());
        assert_eq!(a.kind, "perf");
        assert_eq!(a.scale, "small");
        // Three policy cells plus the two whole-family sweep rows.
        assert_eq!(a.entries.len(), POLICIES.len() + 2);
        let ids: Vec<&str> = a.entries.iter().map(|e| e.id.as_str()).collect();
        assert!(ids[0].starts_with("MAIN/CD"), "{ids:?}");
        assert_eq!(ids[POLICIES.len()], "MAIN/sweep/lru", "{ids:?}");
        assert_eq!(ids[POLICIES.len() + 1], "MAIN/sweep/ws", "{ids:?}");
        for e in &a.entries {
            assert!(e.get("refs").is_some_and(|v| v.as_f64() > 0.0));
            assert!(e.get("refs_per_sec").is_some_and(|v| v.as_f64() > 0.0));
            let wall: Vec<&str> = e
                .fields
                .iter()
                .map(|(n, _)| n.as_str())
                .filter(|n| is_wall_field(n))
                .collect();
            if e.id.contains("/sweep/") {
                assert!(e.get("points").is_some_and(|v| v.as_f64() > 0.0));
                assert_eq!(wall, vec!["simulate_ns", "refs_per_sec"]);
            } else {
                assert!(e.get("prepare_ns").is_some());
                assert_eq!(
                    wall,
                    vec!["simulate_ns", "report_ns", "refs_per_sec", "prepare_ns"]
                );
            }
        }
        assert!(
            scorecard.contains("| histogram |") || scorecard.contains("| metric |"),
            "{scorecard}"
        );
    }

    #[test]
    fn deterministic_fields_repeat_across_runs() {
        let (a, _) = profile(&quick());
        let (b, _) = profile(&quick());
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.id, eb.id);
            for (name, va) in &ea.fields {
                if !is_wall_field(name) {
                    assert_eq!(Some(*va), eb.get(name), "{}/{name} drifted", ea.id);
                }
            }
        }
    }

    #[test]
    fn summary_renders_one_line_per_entry() {
        let (a, _) = profile(&quick());
        let s = render_summary(&a);
        assert_eq!(s.lines().count(), 1 + a.entries.len());
    }
}
