//! `serve_hot` and `serve_fresh`: a closed loop of one client that sends
//! its next request to `BatchService::handle_batch` only after the
//! previous one returned. The service runs one worker thread.
//!
//! One client, not two: on a two-CPU machine a second client made the
//! run-to-run spread of `ops_per_s` about twice as wide (0.28 against
//! 0.13 over five seeds), wider than the benchmark's bound. It also
//! means every result-cache counter change of a traced run belongs to
//! the request just handled.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use cdmm_core::sweep::SweepPlan;
use cdmm_core::{prepare, PipelineConfig, PolicySpec, Prepared, ResultCache};
use cdmm_serve::{parse_request, BatchService, ServeConfig};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_workloads::{by_name, Scale};

use crate::gen::{
    fresh_request, hot_requests, loop_nest, Job, Policy, Request, Rng, PAPER_PROGRAMS,
};
use crate::layers::Tracer;
use crate::{refsim, Args, Run};

/// Root spans of one request, by job kind.
pub const OP_SPANS: [&str; 3] = [
    "serve.handle_sim",
    "serve.handle_observed",
    "serve.handle_sweep",
];

/// Set-up repetitions, for a steady `setup_s` median.
const SETUPS: usize = 3;
/// Requests generated before the hot stream repeats.
const HOT_STREAM: usize = 8192;
/// Responses re-checked against the reference simulators per run.
const SAMPLES: usize = 8;
/// Requests one `serve_fresh` service answers before it is replaced,
/// which bounds its never-evicting program memo.
const FRESH_EPOCH: u64 = 256;

fn service() -> BatchService {
    BatchService::new(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("an in-memory service")
}

/// The raw value of `"key":` in a flat response row, quotes stripped.
fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &row[row.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn num<T: std::str::FromStr>(row: &str, key: &str) -> Option<T> {
    field(row, key)?.parse().ok()
}

fn ok(row: &str) -> bool {
    field(row, "ok") == Some("true")
}

fn spec(policy: Policy) -> PolicySpec {
    match policy {
        Policy::Cd { innermost } => PolicySpec::Cd {
            selector: if innermost {
                CdSelector::Innermost
            } else {
                CdSelector::Outermost
            },
        },
        Policy::Lru(f) => PolicySpec::Lru { frames: f as usize },
        Policy::Fifo(f) => PolicySpec::Fifo { frames: f as usize },
        Policy::Clock(f) => PolicySpec::Clock { frames: f as usize },
        Policy::Ws(t) => PolicySpec::Ws { tau: t },
        Policy::Pff(t) => PolicySpec::Pff { threshold: t },
    }
}

/// A response kept for the reference check.
struct Sample {
    program: usize,
    policy: Policy,
    row: String,
}

/// What the client saw.
struct ClientLog {
    rng: Rng,
    /// `refs` of every successful response, per program.
    refs: BTreeMap<usize, Vec<u64>>,
    samples: Vec<Sample>,
}

impl ClientLog {
    fn new(seed: u64) -> Self {
        ClientLog {
            rng: Rng::new(seed, 0x5341_4D50),
            refs: BTreeMap::new(),
            samples: Vec::new(),
        }
    }

    fn record(&mut self, run: &mut Run, req: &Request, row: String, ns: u64) {
        run.op_ns.push(ns);
        if !ok(&row) {
            run.failures.push(format!("error response {row}"));
            return;
        }
        if let Some(refs) = num(&row, "refs") {
            self.refs.entry(req.program).or_default().push(refs);
        }
        if let Job::Sim { policy, .. } = req.job {
            let checkable = matches!(policy, Policy::Lru(_) | Policy::Fifo(_) | Policy::Ws(_));
            if checkable && self.samples.len() < SAMPLES && self.rng.chance(2) {
                self.samples.push(Sample {
                    program: req.program,
                    policy,
                    row,
                });
            }
        }
    }
}

/// Sends `next(n)` for `n` in `ns`, each after the previous one
/// returned, until `deadline`. With a tracer, every request is traced;
/// `prepared` yields the program a replay runs on.
#[allow(clippy::too_many_arguments)]
fn client<'p>(
    svc: &BatchService,
    mut tracer: Option<&mut Tracer>,
    run: &mut Run,
    log: &mut ClientLog,
    ns: Range<u64>,
    deadline: Instant,
    next: impl Fn(u64) -> Request,
    mut prepared: impl FnMut(&mut Tracer, usize, &Request) -> Cow<'p, Prepared>,
) {
    for n in ns {
        let req = next(n);
        let (row, ns) = match tracer.as_deref_mut() {
            Some(tr) => traced_request(svc, tr, n, &req, |tr, id| prepared(tr, id, &req)),
            None => {
                let t0 = Instant::now();
                let row = svc.handle_batch(&[&req.line]).remove(0);
                (row, t0.elapsed().as_nanos() as u64)
            }
        };
        log.record(run, &req, row, ns);
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// One traced request: the real call under a span, then the work the
/// service did inside it replayed as children — request parsing, the
/// named-workload lookup, and the simulation, observed run or curve
/// build when the result cache did not answer.
fn traced_request<'p>(
    svc: &BatchService,
    tr: &mut Tracer,
    n: u64,
    req: &Request,
    prepared: impl FnOnce(&mut Tracer, usize) -> Cow<'p, Prepared>,
) -> (String, u64) {
    let before = svc.cache().stats();
    let span = match req.job {
        Job::Sim { metrics: false, .. } => OP_SPANS[0],
        Job::Sim { metrics: true, .. } => OP_SPANS[1],
        Job::Sweep { .. } => OP_SPANS[2],
    };
    let id = tr.spans.open(span, None, n);
    let row = svc.handle_batch(&[&req.line]).remove(0);
    let ns = tr.spans.close(id);
    let after = svc.cache().stats();
    tr.count_cache(before, after);
    if ok(&row) {
        tr.counts.ok += 1;
    } else {
        tr.counts.failed += 1;
    }
    let (_, parsed) = tr
        .spans
        .time("serve.parse", Some(id), n, || parse_request(&req.line));
    parsed.expect("a generated request parses");
    if req.line.contains("\"workload\":") {
        tr.spans.time("workloads.by_name", Some(id), n, || {
            by_name(PAPER_PROGRAMS[req.program], Scale::Paper)
        });
    }
    let p = prepared(tr, id);
    if after.sim_points > before.sim_points {
        match req.job {
            Job::Sim {
                policy,
                metrics: false,
            } => tr.simulate(id, n, &p, spec(policy), policy.family()),
            Job::Sim {
                policy,
                metrics: true,
            } => tr.observe(id, n, &p, spec(policy)),
            Job::Sweep { lru } => {
                let scratch = ResultCache::in_memory();
                let plan = SweepPlan::new(&scratch, &p);
                if lru {
                    tr.spans
                        .time("vmsim.lru_curve", Some(id), n, || plan.lru_curve());
                } else {
                    tr.spans
                        .time("vmsim.ws_curve", Some(id), n, || plan.ws_curve());
                }
            }
        }
    }
    (row, ns)
}

/// Re-checks the sampled responses against the reference simulators
/// over `pages(program)`: LRU and FIFO rows must match on references,
/// faults, memory integral and peak; WS rows on references and faults.
fn check_samples(run: &mut Run, log: &ClientLog, mut pages: impl FnMut(usize) -> Vec<u32>) {
    for s in &log.samples {
        let pages = pages(s.program);
        let got = (
            num::<u64>(&s.row, "refs"),
            num::<u64>(&s.row, "pf"),
            num::<u128>(&s.row, "mi"),
            num::<usize>(&s.row, "peak"),
        );
        let ok = match s.policy {
            Policy::Lru(f) | Policy::Fifo(f) => {
                let r = if matches!(s.policy, Policy::Lru(_)) {
                    refsim::lru(&pages, f as usize)
                } else {
                    refsim::fifo(&pages, f as usize)
                };
                got == (
                    Some(r.refs),
                    Some(r.faults),
                    Some(r.mem_integral),
                    Some(r.peak),
                )
            }
            Policy::Ws(t) => {
                let r = refsim::ws(&pages, t);
                (got.0, got.1) == (Some(r.refs), Some(r.faults))
            }
            _ => unreachable!("only LRU, FIFO and WS rows are sampled"),
        };
        run.check(ok, || {
            format!("{} disagrees with the reference simulator", s.row)
        });
    }
}

fn paper_source(program: usize) -> String {
    by_name(PAPER_PROGRAMS[program], Scale::Paper)
        .expect("a paper workload")
        .source
}

fn pages_of(p: &Prepared) -> Vec<u32> {
    p.plain_trace().iter_refs().map(|pg| pg.0).collect()
}

/// Runs `serve_hot`.
pub fn run_hot(args: &Args, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    // Set-up: a fresh service prepares all nine paper programs.
    let warm: Vec<String> = PAPER_PROGRAMS
        .iter()
        .map(|name| {
            format!("{{\"id\":\"{name}\",\"workload\":\"{name}\",\"scale\":\"paper\",\"policy\":\"cd\"}}")
        })
        .collect();
    let lines: Vec<&str> = warm.iter().map(String::as_str).collect();
    let mut svc = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = service();
        for row in s.handle_batch(&lines) {
            run.check(ok(&row), || format!("set-up failed: {row}"));
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("set up at least once");
    // A traced run replays on the same programs, prepared here.
    let programs: Vec<Prepared> = match tracer.as_deref_mut() {
        Some(tr) => {
            let config = PipelineConfig::default();
            let programs = PAPER_PROGRAMS
                .iter()
                .enumerate()
                .map(|(i, name)| tr.prepare(None, 0, name, &paper_source(i), config, true))
                .collect();
            tr.spans.set_setup(false);
            programs
        }
        None => Vec::new(),
    };
    let stream = hot_requests(args.seed, HOT_STREAM);

    let mut log = ClientLog::new(args.seed);
    let start = Instant::now();
    client(
        &svc,
        tracer,
        &mut run,
        &mut log,
        0..u64::MAX,
        start + Duration::from_secs_f64(seconds),
        |n| stream[n as usize % HOT_STREAM].clone(),
        |_, _, req| Cow::Borrowed(&programs[req.program]),
    );
    run.window_s = start.elapsed().as_secs_f64();

    // Checks: every program's responses report the reference count of a
    // direct `prepare`, and the sampled responses match the reference
    // simulators.
    let mut traces: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let mut pages = |program: usize| -> Vec<u32> {
        traces
            .entry(program)
            .or_insert_with(|| {
                let name = PAPER_PROGRAMS[program];
                let p = prepare(name, &paper_source(program), PipelineConfig::default())
                    .expect("prepare a paper workload");
                pages_of(&p)
            })
            .clone()
    };
    for (&program, refs) in &log.refs {
        let expected = pages(program).len() as u64;
        run.check(refs.iter().all(|&r| r == expected), || {
            format!(
                "{}: responses report refs other than {expected}",
                PAPER_PROGRAMS[program]
            )
        });
    }
    check_samples(&mut run, &log, pages);
    run
}

/// Runs `serve_fresh`: request `n` carries the `n`-th generated program
/// of the seed, so every request prepares a program the service has
/// never seen.
pub fn run_fresh(args: &Args, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    let seed = args.seed;
    // Set-up: a fresh service answers a warm-up stream of programs
    // disjoint from the measured ones.
    let warm_seed = seed ^ 0x5741_524D;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let svc = service();
        for n in 0..64 {
            let row = svc
                .handle_batch(&[&fresh_request(warm_seed, n).line])
                .remove(0);
            run.check(ok(&row), || format!("set-up failed: {row}"));
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
    }
    if let Some(tr) = tracer.as_deref_mut() {
        tr.spans.set_setup(false);
    }

    let mut log = ClientLog::new(seed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let config = PipelineConfig::default();
    for epoch in 0.. {
        let svc = service();
        let first = epoch * FRESH_EPOCH;
        client(
            &svc,
            tracer.as_deref_mut(),
            &mut run,
            &mut log,
            first..first + FRESH_EPOCH,
            deadline,
            |n| fresh_request(seed, n),
            |tr, id, req| {
                let n = req.program as u64;
                let nest = loop_nest(seed, n);
                Cow::Owned(tr.prepare(Some(id), n, &nest.name, &nest.source, config, true))
            },
        );
        if Instant::now() >= deadline {
            break;
        }
    }
    run.window_s = start.elapsed().as_secs_f64();

    // Checks: every response's refs is the generator's closed form, and
    // the sampled responses match the reference simulators.
    for (&n, refs) in &log.refs {
        let expected = loop_nest(seed, n as u64).refs;
        run.check(refs.iter().all(|&r| r == expected), || {
            format!("G{n}: refs {refs:?}, closed form {expected}")
        });
    }
    check_samples(&mut run, &log, |n| {
        let nest = loop_nest(seed, n as u64);
        pages_of(&prepare(&nest.name, &nest.source, config).expect("prepare a generated program"))
    });
    run
}
