//! The uniprogramming simulation drivers: [`simulate`], the
//! per-reference oracle, and [`run`], the one driver every production
//! path goes through.

use cdmm_trace::{EventRef, EventSource, RunRef};

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observe::{SimEvent, Tracer};
use crate::policy::Policy;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Page-fault service time in memory references (2000 in the paper).
    pub fault_service: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fault_service: 2000,
        }
    }
}

/// Drives `policy` over `trace` one reference at a time and returns the
/// accumulated metrics.
///
/// This is the reference oracle: the simplest possible loop, with no
/// tracing, no cancellation and no run-level batching. The equivalence
/// harnesses pin [`run`] to it byte for byte.
///
/// Directive events are forwarded to the policy before the next
/// reference; policies that ignore directives see exactly the page
/// reference string. The trace may be any [`EventSource`] — a flat
/// [`cdmm_trace::Trace`] or a [`cdmm_trace::CompressedTrace`], which
/// streams without ever materializing the event vector.
///
/// Both drivers are generic over the policy: pass a concrete policy
/// type and the whole loop monomorphizes (the policy's `reference`
/// inlines into the trace decode); pass `&mut dyn Policy` where one
/// loop must drive interchangeable policies.
///
/// # Examples
///
/// ```
/// use cdmm_trace::synth;
/// use cdmm_vmsim::policy::ws::WorkingSet;
/// use cdmm_vmsim::{simulate, SimConfig};
///
/// let trace = synth::cyclic(4, 100);
/// let m = simulate(&trace, &mut WorkingSet::new(1_000), SimConfig::default());
/// assert_eq!(m.faults, 4, "a large window only cold-faults");
/// ```
pub fn simulate<S: EventSource + ?Sized, P: Policy + ?Sized>(
    trace: &S,
    policy: &mut P,
    config: SimConfig,
) -> Metrics {
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

/// The simulation driver: [`simulate`] with an event [`Tracer`] and an
/// optional cooperative [`CancelToken`].
///
/// The tracer's appetite picks the engine:
///
/// - **Disabled** ([`crate::observe::NullTracer`]): the run-level loop.
///   A [`cdmm_trace::CompressedTrace`] delivers each stored run as one
///   [`RunRef::Run`] (or [`RunRef::Cycle`]), which the policy batches in
///   closed form through [`Policy::reference_run`]. Any other
///   [`EventSource`] degenerates to length-1 runs.
/// - **Enabled**: the per-event traced loop. The policy buffers
///   [`SimEvent`]s at its decision points and the driver forwards them
///   after each trace event, stamped with the reference clock
///   (references processed so far): the policy's own events first
///   (evictions, grants, lock breaks …), then the driver's
///   [`SimEvent::Fault`], then — only when the tracer opts in via
///   [`Tracer::wants_refs`] — one [`SimEvent::Ref`].
///
/// Either way the [`Metrics`] equal [`simulate`]'s: tracing observes
/// the run, it never alters it.
///
/// With a token, the driver polls it once per compressed run (per
/// event for flat traces), never inside the per-reference loop, so an
/// uncancelled run computes exactly what an untokened one does. A stop
/// — deadline expiry or [`CancelToken::cancel`] — discards the partial
/// metrics, flushes an enabled tracer, and surfaces
/// [`SimError::DeadlineExceeded`] with the references completed.
/// Without a token the run cannot fail.
///
/// # Examples
///
/// ```
/// use cdmm_trace::{synth, CompressedTrace};
/// use cdmm_vmsim::policy::lru::Lru;
/// use cdmm_vmsim::{run, simulate, CancelToken, NullTracer, SimConfig, SimError};
///
/// let t = synth::cyclic(4, 100);
/// let c = CompressedTrace::from_trace(&t);
/// let cfg = SimConfig::default();
/// let oracle = simulate(&t, &mut Lru::new(4), cfg);
/// let run_level = run(&c, &mut Lru::new(4), cfg, &mut NullTracer, None);
/// assert_eq!(run_level, Ok(oracle));
///
/// let token = CancelToken::new();
/// token.cancel();
/// let stopped = run(&c, &mut Lru::new(4), cfg, &mut NullTracer, Some(&token));
/// assert_eq!(stopped, Err(SimError::DeadlineExceeded { refs_done: 0 }));
/// ```
pub fn run<S: EventSource + ?Sized, P: Policy + ?Sized>(
    trace: &S,
    policy: &mut P,
    config: SimConfig,
    tracer: &mut dyn Tracer,
    token: Option<&CancelToken>,
) -> Result<Metrics, SimError> {
    // Two monomorphizations: an absent token costs no poll at all.
    match token {
        Some(token) => drive(trace, policy, config, tracer, || !token.should_stop()),
        None => drive(trace, policy, config, tracer, || true),
    }
}

fn drive<S, P, K>(
    trace: &S,
    policy: &mut P,
    config: SimConfig,
    tracer: &mut dyn Tracer,
    keep_going: K,
) -> Result<Metrics, SimError>
where
    S: EventSource + ?Sized,
    P: Policy + ?Sized,
    K: FnMut() -> bool,
{
    let mut metrics = Metrics::new(config.fault_service);
    let completed = if tracer.enabled() {
        let want_refs = tracer.wants_refs();
        policy.set_tracing(true);
        let mut pending: Vec<SimEvent> = Vec::new();
        let completed = trace.for_each_event_while(keep_going, |event| match event {
            EventRef::Ref(page) => {
                let fault = policy.reference(page);
                metrics.record(policy.resident(), fault);
                if policy.is_degraded() {
                    metrics.degraded_refs += 1;
                }
                let at = metrics.refs;
                policy.drain_events(&mut pending);
                for e in pending.drain(..) {
                    tracer.record(at, &e);
                }
                let resident = policy.resident() as u32;
                if fault {
                    tracer.record(at, &SimEvent::Fault { page, resident });
                }
                if want_refs {
                    let event = SimEvent::Ref {
                        page,
                        resident,
                        fault,
                    };
                    tracer.record(at, &event);
                }
            }
            EventRef::Directive(other) => {
                policy.directive(other);
                let at = metrics.refs;
                policy.drain_events(&mut pending);
                for e in pending.drain(..) {
                    tracer.record(at, &e);
                }
            }
        });
        policy.set_tracing(false);
        tracer.flush();
        completed
    } else {
        trace.for_each_run_while(keep_going, |run| match run {
            RunRef::Run { start, stride, len } => {
                policy.reference_run(start, stride, len, &mut metrics);
            }
            RunRef::Cycle { body, reps } => policy.reference_cycle(body, reps, &mut metrics),
            RunRef::Directive(other) => policy.directive(other),
        })
    };
    if !completed {
        return Err(SimError::DeadlineExceeded {
            refs_done: metrics.refs,
        });
    }
    metrics.recovered_directives = policy.recovered_directives();
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{EventLog, NullTracer};
    use crate::policy::cd::{CdPolicy, CdSelector};
    use crate::policy::fifo::Fifo;
    use crate::policy::lru::Lru;
    use crate::policy::ws::WorkingSet;
    use crate::stats::MetricsRegistry;
    use cdmm_lang::ast::AllocArg;
    use cdmm_trace::{synth, CompressedTrace, Event, PageId, PageRange, Trace};

    #[test]
    fn lru_metrics_on_cyclic_trace() {
        let t = synth::cyclic(8, 10);
        let m = simulate(&t, &mut Lru::new(8), SimConfig::default());
        assert_eq!(m.refs, 80);
        assert_eq!(m.faults, 8, "full allocation: cold faults only");
        assert!(m.mean_mem() <= 8.0);
        assert_eq!(m.peak_resident, 8);

        let m = simulate(&t, &mut Lru::new(4), SimConfig::default());
        assert_eq!(m.faults, 80, "undersized LRU faults every time");
    }

    #[test]
    fn st_cost_includes_fault_service() {
        let t = synth::cyclic(2, 1);
        let m = simulate(&t, &mut Lru::new(2), SimConfig { fault_service: 100 });
        // refs: page0 (fault, resident 1), page1 (fault, resident 2).
        assert_eq!(m.mem_integral, 3);
        assert_eq!(m.fault_mem_integral, 3);
        assert!((m.st_cost() - (3.0 + 100.0 * 3.0)).abs() < 1e-9);
    }

    /// A single 1-page ALLOCATE followed by three references.
    fn one_page_alloc() -> Trace {
        Trace::from_events(vec![
            Event::Alloc(vec![AllocArg { pi: 1, pages: 1 }]),
            Event::Ref(PageId(0)),
            Event::Ref(PageId(1)),
            Event::Ref(PageId(0)),
        ])
    }

    #[test]
    fn directives_reach_the_policy() {
        let mut cd = CdPolicy::new(CdSelector::Innermost).with_min_alloc(1);
        let m = simulate(&one_page_alloc(), &mut cd, SimConfig::default());
        assert_eq!(m.faults, 3, "1-page target: page 0 refaults");
    }

    #[test]
    fn tracer_sees_directive_and_fault_events() {
        use crate::observe::AllocDecision;
        let mut cd = CdPolicy::new(CdSelector::Innermost).with_min_alloc(1);
        let mut log = EventLog::new(64);
        let m = run(
            &one_page_alloc(),
            &mut cd,
            SimConfig::default(),
            &mut log,
            None,
        )
        .expect("no token, no stop");
        assert_eq!(m.faults, 3);
        let kinds: Vec<&str> = log.events().map(|e| e.event.kind()).collect();
        // ALLOCATE granted at clock 0, then three faults with evictions
        // once the 1-page target is exceeded.
        assert_eq!(kinds.first(), Some(&"alloc"));
        assert_eq!(kinds.iter().filter(|k| **k == "fault").count(), 3);
        assert!(kinds.contains(&"evict"));
        assert!(log.events().any(|e| matches!(
            e.event,
            SimEvent::Alloc {
                pi: 1,
                decision: AllocDecision::Granted,
                ..
            }
        )));
        // Directive events carry the clock of the preceding reference.
        assert_eq!(log.events().next().map(|e| e.at), Some(0));
    }

    /// Two phases, each opened by an ALLOCATE; the second phase runs
    /// under a LOCK so CD's lock path sees traffic too.
    fn directed_phases() -> Trace {
        let phase = |base, pages, refs, seed| {
            synth::phased(&[synth::Phase { base, pages, refs }], seed).events
        };
        let mut events = vec![Event::Alloc(vec![AllocArg { pi: 1, pages: 4 }])];
        events.extend(phase(0, 6, 400, 9));
        events.push(Event::Alloc(vec![AllocArg { pi: 1, pages: 3 }]));
        let ranges = vec![PageRange::new(6, 8)];
        events.push(Event::Lock {
            pj: 1,
            ranges: ranges.clone(),
        });
        events.extend(phase(6, 3, 400, 10));
        events.push(Event::Unlock { ranges });
        events.extend(synth::cyclic(9, 20).events);
        Trace::from_events(events)
    }

    type MakePolicy = fn() -> Box<dyn Policy>;

    const POLICIES: [(&str, MakePolicy); 4] = [
        ("LRU", || Box::new(Lru::new(4))),
        ("WS", || Box::new(WorkingSet::new(50))),
        ("CD", || Box::new(CdPolicy::new(CdSelector::Innermost))),
        ("FIFO", || Box::new(Fifo::new(4))),
    ];

    const TRACERS: [&str; 4] = ["null", "log", "log+refs", "registry"];

    /// Runs one request under the named tracer; returns the result and
    /// a rendering of everything the tracer observed.
    fn observed(
        tracer: &str,
        mut request: impl FnMut(&mut dyn Tracer) -> Result<Metrics, SimError>,
    ) -> (Result<Metrics, SimError>, String) {
        match tracer {
            "null" => (request(&mut NullTracer), String::new()),
            "registry" => {
                let mut registry = MetricsRegistry::new();
                let result = request(&mut registry);
                (result, format!("{:?}", registry.snapshot()))
            }
            _ => {
                let mut log = EventLog::new(1 << 16).with_refs(tracer == "log+refs");
                let result = request(&mut log);
                assert_eq!(log.dropped(), 0, "the log must hold the whole run");
                (result, format!("{:?}", log.events().collect::<Vec<_>>()))
            }
        }
    }

    /// Every cell of {policy} × {tracer} × {no token, idle token, fired
    /// token} on one trace source.
    fn check_request_matrix<S: EventSource>(source: &str, trace: &S, flat: &Trace) {
        let cfg = SimConfig::default();
        for (name, make) in POLICIES {
            let oracle = simulate(flat, make().as_mut(), cfg);
            for tracer in TRACERS {
                let cell = format!("{name} / {source} / {tracer}");
                let (untokened, stream) =
                    observed(tracer, |t| run(trace, make().as_mut(), cfg, t, None));
                assert_eq!(untokened, Ok(oracle), "{cell}: no token");
                assert_eq!(stream.is_empty(), tracer == "null", "{cell}: tracer fed");

                let idle = CancelToken::new();
                let (tokened, idle_stream) =
                    observed(tracer, |t| run(trace, make().as_mut(), cfg, t, Some(&idle)));
                assert_eq!(tokened, Ok(oracle), "{cell}: idle token");
                assert_eq!(idle_stream, stream, "{cell}: idle token changed the events");

                let fired = CancelToken::new();
                fired.cancel();
                let (stopped, _) = observed(tracer, |t| {
                    run(trace, make().as_mut(), cfg, t, Some(&fired))
                });
                assert_eq!(
                    stopped,
                    Err(SimError::DeadlineExceeded { refs_done: 0 }),
                    "{cell}: fired token"
                );
            }
        }
    }

    #[test]
    fn every_request_matches_the_oracle() {
        let flat = directed_phases();
        check_request_matrix("flat", &flat, &flat);
        check_request_matrix("compressed", &CompressedTrace::from_trace(&flat), &flat);
    }

    #[test]
    fn expired_deadline_reports_refs_done() {
        use std::time::Duration;
        let t = synth::cyclic(4, 1000);
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = run(
            &t,
            &mut Lru::new(4),
            SimConfig::default(),
            &mut NullTracer,
            Some(&token),
        );
        match err {
            Err(SimError::DeadlineExceeded { refs_done }) => {
                assert!(refs_done < t.ref_count(), "must stop before the end")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn ws_mean_mem_matches_manual_average() {
        let t = synth::uniform(6, 500, 8);
        let m = simulate(&t, &mut WorkingSet::new(50), SimConfig::default());
        assert!(
            m.mean_mem() > 1.0 && m.mean_mem() <= 6.0,
            "{}",
            m.mean_mem()
        );
    }
}
