//! `fleet_mixed`: a seeded paper-scale fleet over a CD/WS/LRU policy
//! rotation, built with `prepare_fleet` and run with
//! `PreparedFleet::run_with`. A run consumes its prepared fleet, so the
//! next one is prepared, untimed, between runs.

use std::time::{Duration, Instant};

use cdmm_core::fleet::{prepare_fleet, FleetSpec, PreparedFleet};
use cdmm_core::PolicySpec;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{FleetReport, NullTracer};
use cdmm_workloads::Scale;

use crate::gen::Rng;
use crate::layers::Tracer;
use crate::{Args, Run};

/// Worker threads of the measured runs: two, or fewer on a smaller
/// machine.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Root span of one operation.
pub const OP_SPANS: [&str; 1] = ["vmsim.fleet_run"];

/// Set-up repetitions, for a steady `setup_s` median.
const SETUPS: usize = 3;

/// The fleet of `seed`. The rotation, policy mix and cell geometry are
/// fixed, so every seed asks for about the same work; the seed drives
/// each tenant's jitter (arrival, policy parameter, page size).
pub fn spec(seed: u64, threads: usize) -> FleetSpec {
    FleetSpec {
        tenants: 128,
        seed: Rng::new(seed, 0x464C_4545).next(),
        scale: Scale::Paper,
        workloads: vec!["MAIN".into(), "FIELD".into(), "INIT".into()],
        policy_mix: vec![
            PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            },
            PolicySpec::Ws { tau: 2_000 },
            PolicySpec::Lru { frames: 16 },
        ],
        frames_per_cell: 96,
        tenants_per_cell: 4,
        threads,
        ..FleetSpec::default()
    }
}

fn prepared(spec: &FleetSpec) -> PreparedFleet {
    prepare_fleet(spec).unwrap_or_else(|e| panic!("prepare the fleet: {e}"))
}

/// Runs `fleet_mixed`.
pub fn run(args: &Args, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    let spec = spec(args.seed, threads());
    let mut next = None;
    for n in 0..SETUPS {
        let t0 = Instant::now();
        let fleet = match tracer.as_deref_mut() {
            Some(tr) if n == 0 => traced_prepare(&spec, tr),
            _ => prepared(&spec),
        };
        run.setup_s.push(t0.elapsed().as_secs_f64());
        next = Some(fleet);
    }
    if let Some(tr) = tracer.as_deref_mut() {
        tr.spans.set_setup(false);
    }

    let mut reports: Vec<FleetReport> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    for n in 0.. {
        let fleet = next.take().unwrap_or_else(|| prepared(&spec));
        let (d, report) = match tracer.as_deref_mut() {
            Some(tr) => {
                let (id, report) = tr
                    .spans
                    .time(OP_SPANS[0], None, n, || fleet.run_with(&mut NullTracer));
                (
                    Duration::from_nanos(tr.spans.spans()[id].duration_ns()),
                    report,
                )
            }
            None => {
                let t0 = Instant::now();
                let report = fleet.run_with(&mut NullTracer);
                (t0.elapsed(), report)
            }
        };
        busy += d;
        run.op_ns.push(d.as_nanos() as u64);
        match report {
            Ok(r) => {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.counts.swaps += r.swap_events;
                }
                reports.push(r);
            }
            Err(e) => {
                run.failures.push(format!("fleet run {n}: {e}"));
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    // Each run consumes a fleet prepared between runs, so throughput
    // counts the runs' own time.
    run.window_s = busy.as_secs_f64();

    // Check: every report equals the serial run of the same seed.
    let serial = prepared(&FleetSpec {
        threads: 1,
        ..spec.clone()
    })
    .run()
    .expect("the serial fleet runs");
    for (n, r) in reports.iter().enumerate() {
        run.check(*r == serial, || {
            format!("fleet run {n} differs from the 1-thread run of the same seed")
        });
    }
    run
}

/// `prepare_fleet` under a span, with each distinct program of the
/// rotation prepared stage by stage as its children (at the base page
/// size; jittered tenants may add prepares at neighbouring sizes).
fn traced_prepare(spec: &FleetSpec, tr: &mut Tracer) -> PreparedFleet {
    let (id, fleet) = tr
        .spans
        .time("core.fleet_prepare", None, 0, || prepared(spec));
    for name in &spec.workloads {
        let w = cdmm_workloads::by_name(name, spec.scale).expect("a paper workload");
        tr.prepare(Some(id), 0, w.name, &w.source, spec.config, false);
    }
    fleet
}
