//! Compile → analyse → instrument → trace, packaged for repeated
//! policy evaluation.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cdmm_lang::LangError;
use cdmm_locality::{
    analyze_program_with_mode, instrument, Analysis, InsertOptions, PageGeometry, SizerMode,
};
use cdmm_trace::{
    trace_program_compressed_cancellable, CancelToken, CompressedTrace, InterpError, Trace,
};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::clock::Clock;
use cdmm_vmsim::policy::fifo::Fifo;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::pff::Pff;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::policy::ws_variants::{DampedWs, SampledWs, VariableSampledWs};
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::{Metrics, NullTracer, SimConfig, SimError, Tracer};
use cdmm_workloads::DirectiveLevel;

/// Pipeline-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Page/element geometry (default: the paper's 256-byte pages).
    pub geometry: PageGeometry,
    /// Which directives to insert.
    pub insert: InsertOptions,
    /// Fault service time for the ST metric (default 2000 references).
    pub fault_service: u64,
    /// Minimum CD allocation in pages.
    pub min_alloc: u64,
    /// Page-counting mode of the locality sizer.
    pub sizer_mode: SizerMode,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            geometry: PageGeometry::PAPER,
            insert: InsertOptions::default(),
            fault_service: 2000,
            min_alloc: 2,
            sizer_mode: SizerMode::default(),
        }
    }
}

/// Pipeline failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Front-end or analysis failure.
    Lang(LangError),
    /// Trace-generation failure.
    Interp(InterpError),
    /// Cross-trace validation failure: instrumentation changed the
    /// observable reference string.
    Validate(ValidateError),
}

/// Details of a plain/instrumented trace misalignment.
///
/// Inserting directives must be behavior-preserving: the instrumented
/// program has to emit exactly the reference string of the original.
/// This used to be a `debug_assert!`; corrupted instrumentation must be
/// rejected in release builds too, so it is now a first-class error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// References in the plain trace.
    pub plain_refs: u64,
    /// References in the instrumented trace.
    pub cd_refs: u64,
    /// Position of the first diverging reference, when both strings
    /// have the same length but different content.
    pub first_divergence: Option<u64>,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.first_divergence {
            Some(i) => write!(
                f,
                "instrumentation changed the reference string at position {i}"
            ),
            None => write!(
                f,
                "instrumentation changed the reference count: {} plain vs {} instrumented",
                self.plain_refs, self.cd_refs
            ),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Lang(e) => write!(f, "compile: {e}"),
            PipelineError::Interp(e) => write!(f, "trace: {e}"),
            PipelineError::Validate(e) => write!(f, "validate: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A program compiled, instrumented and traced — ready for any number of
/// policy simulations.
#[derive(Debug, Clone)]
pub struct Prepared {
    name: String,
    analysis: Analysis,
    /// Source text after directive insertion (what produced `cd_trace`).
    instrumented_source: String,
    /// Trace of the uninstrumented program (what LRU/WS/OPT see),
    /// stored run-length-compressed; the simulator streams it directly.
    plain_trace: CompressedTrace,
    /// Trace of the instrumented program (directive events embedded).
    cd_trace: CompressedTrace,
    /// Flat decompressions of the two traces, decoded on first use and
    /// shared across clones — random-access consumers (chaos tenants,
    /// the directive fuzzer) stop paying a fresh O(references) decode
    /// per call.
    plain_flat: Arc<OnceLock<Trace>>,
    cd_flat: Arc<OnceLock<Trace>>,
    config: PipelineConfig,
    /// Content hash of everything that determines simulation results:
    /// source text, both traces (reference string and directive stream),
    /// page geometry and pipeline knobs. Computed once at prepare time;
    /// the sweep result cache keys every point off it.
    fingerprint: crate::sweep::CacheKey,
}

/// Runs the front half of the pipeline on one program.
pub fn prepare(
    name: &str,
    source: &str,
    config: PipelineConfig,
) -> Result<Prepared, PipelineError> {
    prepare_cancellable(name, source, config, &CancelToken::new())
}

/// [`prepare`] under a cooperative [`CancelToken`].
///
/// Trace generation dominates prepare time — a pathological inline
/// source can demand billions of interpreter events — so the
/// interpreter polls the token every
/// [`cdmm_trace::interp::POLL_INTERVAL`] emitted events and aborts with
/// [`InterpError::Cancelled`] (surfaced as [`PipelineError::Interp`])
/// when a deadline expires mid-trace. An uncancelled run returns
/// exactly what [`prepare`] would.
pub fn prepare_cancellable(
    name: &str,
    source: &str,
    config: PipelineConfig,
    token: &CancelToken,
) -> Result<Prepared, PipelineError> {
    let analysis = analyze_program_with_mode(source, config.geometry, config.sizer_mode)
        .map_err(PipelineError::Lang)?;
    let instrumented = instrument(&analysis, config.insert);
    let instrumented_src = cdmm_lang::to_source(&instrumented);
    let plain_trace = trace_program_compressed_cancellable(source, config.geometry, token)
        .map_err(PipelineError::Interp)?;
    let cd_trace = trace_program_compressed_cancellable(&instrumented_src, config.geometry, token)
        .map_err(PipelineError::Interp)?;
    check_alignment(&plain_trace, &cd_trace).map_err(PipelineError::Validate)?;
    let fingerprint = content_fingerprint(source, &plain_trace, &cd_trace, &config);
    Ok(Prepared {
        name: name.to_string(),
        analysis,
        instrumented_source: instrumented_src,
        plain_trace,
        cd_trace,
        plain_flat: Arc::new(OnceLock::new()),
        cd_flat: Arc::new(OnceLock::new()),
        config,
        fingerprint,
    })
}

/// Hashes the full simulation input of a prepared program. Runs over
/// the compressed ops, so the cost is O(runs), not O(references).
fn content_fingerprint(
    source: &str,
    plain: &CompressedTrace,
    cd: &CompressedTrace,
    config: &PipelineConfig,
) -> crate::sweep::CacheKey {
    use crate::sweep::cache::fingerprint_compressed;
    let mut h = crate::sweep::KeyHasher::new();
    h.write_str(source);
    fingerprint_compressed(&mut h, plain);
    fingerprint_compressed(&mut h, cd);
    h.write_u64(config.geometry.page_bytes);
    h.write_u64(config.geometry.elem_bytes);
    h.write_u64(config.fault_service);
    h.write_u64(config.min_alloc);
    h.write_u64(config.insert.allocate as u64);
    h.write_u64(config.insert.lock as u64);
    h.write_u64(match config.sizer_mode {
        SizerMode::PaperBound => 0,
        SizerMode::Tight => 1,
    });
    h.finish()
}

/// Verifies that directives did not change the observable reference
/// string (the paper's instrumentation-transparency requirement).
fn check_alignment(plain: &CompressedTrace, cd: &CompressedTrace) -> Result<(), ValidateError> {
    let plain_refs = plain.ref_count();
    let cd_refs = cd.ref_count();
    if plain_refs != cd_refs {
        return Err(ValidateError {
            plain_refs,
            cd_refs,
            first_divergence: None,
        });
    }
    if let Some(i) = plain
        .iter_refs()
        .zip(cd.iter_refs())
        .position(|(a, b)| a != b)
    {
        return Err(ValidateError {
            plain_refs,
            cd_refs,
            first_divergence: Some(i as u64),
        });
    }
    Ok(())
}

/// A policy choice expressed as plain data, so callers (the facade,
/// sweep drivers, benches) can pick a policy without naming concrete
/// simulator types.
///
/// [`Prepared::run_policy`] routes each variant onto the right trace:
/// CD variants consume the instrumented trace, everything else the
/// plain reference string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// The paper's compiler-directed policy.
    Cd {
        /// Which loop level's ALLOCATE requests to honor.
        selector: CdSelector,
    },
    /// CD with LOCK/UNLOCK ignored (ablation).
    CdNoLocks {
        /// Which loop level's ALLOCATE requests to honor.
        selector: CdSelector,
    },
    /// Fixed-allocation LRU.
    Lru {
        /// Frame allocation.
        frames: usize,
    },
    /// Denning's Working Set.
    Ws {
        /// Window in references.
        tau: u64,
    },
    /// Fixed-allocation FIFO.
    Fifo {
        /// Frame allocation.
        frames: usize,
    },
    /// Clock (second-chance) replacement.
    Clock {
        /// Frame allocation.
        frames: usize,
    },
    /// Belady's optimal fixed-space policy (needs trace lookahead).
    Opt {
        /// Frame allocation.
        frames: usize,
    },
    /// Page-Fault Frequency.
    Pff {
        /// Inter-fault threshold in references.
        threshold: u64,
    },
    /// WS with a damped release reserve.
    DampedWs {
        /// Window in references.
        tau: u64,
        /// Reserve capacity in pages.
        reserve_cap: usize,
    },
    /// WS evaluated only every `sigma` references.
    SampledWs {
        /// Window in references.
        tau: u64,
        /// Sampling interval in references.
        sigma: u64,
    },
    /// WS with a fault-driven variable sampling interval.
    VariableSampledWs {
        /// Shortest sampling interval.
        min_interval: u64,
        /// Longest sampling interval.
        max_interval: u64,
        /// Faults tolerated per interval before tightening.
        fault_quota: u64,
    },
}

impl PolicySpec {
    /// True for the variants that consume the instrumented trace.
    pub fn uses_directives(&self) -> bool {
        matches!(self, PolicySpec::Cd { .. } | PolicySpec::CdNoLocks { .. })
    }
}

/// Maps a workload's neutral directive level onto the CD selector.
pub fn selector_for(level: DirectiveLevel) -> CdSelector {
    match level {
        DirectiveLevel::Outermost => CdSelector::Outermost,
        DirectiveLevel::Innermost => CdSelector::Innermost,
        DirectiveLevel::AtLevel(k) => CdSelector::AtLevel(k),
    }
}

impl Prepared {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compile-time analysis (loop tree, priorities, locality sizes).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The uninstrumented trace (page references only), compressed.
    /// [`Prepared::plain_trace_flat`] serves consumers that need random
    /// access.
    pub fn plain_trace(&self) -> &CompressedTrace {
        &self.plain_trace
    }

    /// The instrumented trace (with directive events), compressed.
    pub fn cd_trace(&self) -> &CompressedTrace {
        &self.cd_trace
    }

    /// The uninstrumented trace as a flat event vector, decompressed on
    /// first use and memoized (clones share the decode). Prefer the
    /// compressed [`Prepared::plain_trace`] wherever streaming suffices.
    pub fn plain_trace_flat(&self) -> &Trace {
        self.plain_flat.get_or_init(|| self.plain_trace.to_trace())
    }

    /// The instrumented trace as a flat event vector, decompressed on
    /// first use and memoized (clones share the decode).
    pub fn cd_trace_flat(&self) -> &Trace {
        self.cd_flat.get_or_init(|| self.cd_trace.to_trace())
    }

    /// The pipeline configuration used.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The content hash of this program's full simulation input (source,
    /// traces, directive stream, geometry, knobs).
    pub fn fingerprint(&self) -> crate::sweep::CacheKey {
        self.fingerprint
    }

    /// Total pages in the program's virtual space (the paper's `V`).
    pub fn virtual_pages(&self) -> u32 {
        self.plain_trace.virtual_pages()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            fault_service: self.config.fault_service,
        }
    }

    /// The instrumented source text (original program plus inserted
    /// ALLOCATE/LOCK/UNLOCK directives).
    pub fn instrumented_source(&self) -> &str {
        &self.instrumented_source
    }

    /// Builds the policy a [`PolicySpec`] describes, parameterized by
    /// this program's config (CD min-alloc) and traces (OPT lookahead).
    ///
    /// The box is `Send` so built engines can be handed to the fleet
    /// scheduler's worker threads; every policy is a plain data
    /// structure, so this costs nothing.
    pub fn build_policy(&self, spec: PolicySpec) -> Box<dyn Policy + Send> {
        match spec {
            PolicySpec::Cd { selector } => Box::new(self.cd_policy(selector)),
            PolicySpec::CdNoLocks { selector } => {
                Box::new(self.cd_policy(selector).with_locks(false))
            }
            PolicySpec::Lru { frames } => Box::new(Lru::new(frames.max(1))),
            PolicySpec::Ws { tau } => Box::new(WorkingSet::new(tau.max(1))),
            PolicySpec::Fifo { frames } => Box::new(Fifo::new(frames.max(1))),
            PolicySpec::Clock { frames } => Box::new(Clock::new(frames.max(1))),
            PolicySpec::Opt { frames } => {
                Box::new(Opt::for_trace(&self.plain_trace, frames.max(1)))
            }
            PolicySpec::Pff { threshold } => Box::new(Pff::new(threshold.max(1))),
            PolicySpec::DampedWs { tau, reserve_cap } => {
                Box::new(DampedWs::new(tau.max(1), reserve_cap))
            }
            PolicySpec::SampledWs { tau, sigma } => {
                Box::new(SampledWs::new(tau.max(1), sigma.max(1)))
            }
            PolicySpec::VariableSampledWs {
                min_interval,
                max_interval,
                fault_quota,
            } => Box::new(VariableSampledWs::new(
                min_interval.max(1),
                max_interval.max(min_interval.max(1)),
                fault_quota,
            )),
        }
    }

    /// The label the built policy will report, e.g. `"LRU(26)"`.
    pub fn policy_label(&self, spec: PolicySpec) -> String {
        self.build_policy(spec).label()
    }

    fn cd_policy(&self, selector: CdSelector) -> CdPolicy {
        CdPolicy::new(selector).with_min_alloc(self.config.min_alloc)
    }

    /// Runs any [`PolicySpec`] over the trace it belongs on (CD variants
    /// see the instrumented trace; everything else the plain one).
    ///
    /// Executes at run granularity: the compressed trace's
    /// constant-stride runs hit the policies' batch kernels, with
    /// byte-identical [`Metrics`] to the per-reference
    /// [`cdmm_vmsim::simulate`] oracle.
    pub fn run_policy(&self, spec: PolicySpec) -> Metrics {
        self.run_policy_with(spec, &mut NullTracer)
    }

    /// [`Prepared::run_policy`] with an event tracer attached. A
    /// disabled tracer keeps the run-level kernels; an enabled one
    /// takes the per-event traced loop (see [`cdmm_vmsim::run`]).
    pub fn run_policy_with(&self, spec: PolicySpec, tracer: &mut dyn Tracer) -> Metrics {
        match self.run_request(spec, tracer, None) {
            Ok(metrics) => metrics,
            Err(e) => unreachable!("a run without a token cannot stop: {e}"),
        }
    }

    /// [`Prepared::run_policy_with`] under a cooperative
    /// [`cdmm_vmsim::CancelToken`] — the entry point the serve layer
    /// uses to bound jobs, traced or not, with per-request deadlines.
    ///
    /// The token is polled once per compressed trace run (once per
    /// event on the traced path) — never inside the per-reference loop
    /// — so an uncancelled run computes exactly the [`Metrics`] and
    /// event stream of [`Prepared::run_policy_with`]. A stop (deadline
    /// expiry or explicit cancel) surfaces as
    /// [`SimError::DeadlineExceeded`] with the number of references
    /// processed.
    pub fn run_policy_cancellable(
        &self,
        spec: PolicySpec,
        tracer: &mut dyn Tracer,
        token: &cdmm_vmsim::CancelToken,
    ) -> Result<Metrics, SimError> {
        self.run_request(spec, tracer, Some(token))
    }

    fn run_request(
        &self,
        spec: PolicySpec,
        tracer: &mut dyn Tracer,
        token: Option<&cdmm_vmsim::CancelToken>,
    ) -> Result<Metrics, SimError> {
        let trace = self.trace_for(spec);
        let config = self.sim_config();
        // The three policies the paper's tables sweep run monomorphized
        // (the policy inlines into the trace-decode loop); the long
        // tail of ablation policies takes the boxed fallback, where
        // run-level dispatch still makes one virtual `reference_run`
        // call per compressed run instead of three per reference.
        match spec {
            PolicySpec::Cd { selector } => {
                cdmm_vmsim::run(trace, &mut self.cd_policy(selector), config, tracer, token)
            }
            PolicySpec::Lru { frames } => {
                let mut lru = Lru::new(frames.max(1));
                cdmm_vmsim::run(trace, &mut lru, config, tracer, token)
            }
            PolicySpec::Ws { tau } => {
                let mut ws = WorkingSet::new(tau.max(1));
                cdmm_vmsim::run(trace, &mut ws, config, tracer, token)
            }
            _ => {
                let mut policy = self.build_policy(spec);
                cdmm_vmsim::run(trace, policy.as_mut(), config, tracer, token)
            }
        }
    }

    fn trace_for(&self, spec: PolicySpec) -> &CompressedTrace {
        if spec.uses_directives() {
            &self.cd_trace
        } else {
            &self.plain_trace
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_workloads::{by_name, Scale};

    fn prepared(name: &str) -> Prepared {
        let w = by_name(name, Scale::Small).unwrap();
        prepare(w.name, &w.source, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn traces_align_between_plain_and_instrumented() {
        for name in ["MAIN", "FDJAC", "CONDUCT"] {
            let p = prepared(name);
            let a: Vec<_> = p.plain_trace().iter_refs().collect();
            let b: Vec<_> = p.cd_trace().iter_refs().collect();
            assert_eq!(a, b, "{name}: directives changed the references");
            assert!(p.cd_trace().directive_count() > 0, "{name}: no directives");
        }
    }

    #[test]
    fn cd_outermost_uses_more_memory_fewer_faults_than_innermost() {
        let p = prepared("MAIN");
        let outer = p.run_policy(PolicySpec::Cd {
            selector: CdSelector::Outermost,
        });
        let inner = p.run_policy(PolicySpec::Cd {
            selector: CdSelector::Innermost,
        });
        assert!(
            outer.mean_mem() > inner.mean_mem(),
            "outer {} vs inner {}",
            outer.mean_mem(),
            inner.mean_mem()
        );
        assert!(
            outer.faults <= inner.faults,
            "outer directives avoid faults"
        );
    }

    #[test]
    fn full_memory_lru_is_cold_faults_only() {
        let p = prepared("FIELD");
        let m = p.run_policy(PolicySpec::Lru {
            frames: p.virtual_pages() as usize,
        });
        assert_eq!(m.faults as u32, p.plain_trace().distinct_pages());
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let a = prepared("MAIN");
        let b = prepared("MAIN");
        assert_eq!(a.fingerprint(), b.fingerprint(), "same input, same key");
        let c = prepared("FIELD");
        assert_ne!(a.fingerprint(), c.fingerprint(), "different program");
        let w = by_name("MAIN", Scale::Small).unwrap();
        let cfg = PipelineConfig {
            fault_service: 999,
            ..PipelineConfig::default()
        };
        let d = prepare(w.name, &w.source, cfg).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint(), "different knobs");
    }

    #[test]
    fn parse_errors_surface() {
        let err = prepare(
            "BAD",
            "PROGRAM X\nQ(1) = 1.0\nEND",
            PipelineConfig::default(),
        );
        assert!(matches!(err, Err(PipelineError::Lang(_))));
    }

    #[test]
    fn alignment_check_rejects_divergent_traces() {
        use cdmm_trace::{Event, PageId, Trace};
        let compress =
            |events: Vec<Event>| CompressedTrace::from_trace(&Trace::from_events(events));
        let plain = compress(vec![Event::Ref(PageId(0)), Event::Ref(PageId(1))]);
        let same = plain.clone();
        assert_eq!(check_alignment(&plain, &same), Ok(()));

        let short = compress(vec![Event::Ref(PageId(0))]);
        let err = check_alignment(&plain, &short).unwrap_err();
        assert_eq!(err.plain_refs, 2);
        assert_eq!(err.cd_refs, 1);
        assert_eq!(err.first_divergence, None);
        assert!(err.to_string().contains("reference count"));

        let swapped = compress(vec![Event::Ref(PageId(1)), Event::Ref(PageId(0))]);
        let err = check_alignment(&plain, &swapped).unwrap_err();
        assert_eq!(err.first_divergence, Some(0));
        assert!(PipelineError::Validate(err)
            .to_string()
            .contains("validate"));
    }

    const SPECS: [PolicySpec; 5] = [
        PolicySpec::Cd {
            selector: CdSelector::Innermost,
        },
        PolicySpec::CdNoLocks {
            selector: CdSelector::Outermost,
        },
        PolicySpec::Lru { frames: 8 },
        PolicySpec::Ws { tau: 500 },
        PolicySpec::Fifo { frames: 8 },
    ];

    #[test]
    fn policy_specs_match_the_oracle() {
        let p = prepared("MAIN");
        for spec in SPECS {
            let flat = if spec.uses_directives() {
                p.cd_trace_flat()
            } else {
                p.plain_trace_flat()
            };
            let oracle = cdmm_vmsim::simulate(flat, p.build_policy(spec).as_mut(), p.sim_config());
            assert_eq!(p.run_policy(spec), oracle, "{spec:?}");
        }
        assert!(p.policy_label(SPECS[0]).starts_with("CD"));
    }

    #[test]
    fn traced_pipeline_runs_match_untraced() {
        use cdmm_vmsim::EventLog;
        let p = prepared("FDJAC");
        for spec in SPECS {
            let mut log = EventLog::new(1 << 14);
            assert_eq!(p.run_policy_with(spec, &mut log), p.run_policy(spec));
            assert!(!log.is_empty(), "{spec:?} must produce events");
        }
    }

    #[test]
    fn cancellable_pipeline_runs_match_and_stop() {
        use cdmm_vmsim::{CancelToken, EventLog};
        let p = prepared("MAIN");
        let token = CancelToken::new();
        let fired = CancelToken::new();
        fired.cancel();
        for spec in SPECS {
            assert_eq!(
                p.run_policy_cancellable(spec, &mut NullTracer, &token),
                Ok(p.run_policy(spec)),
                "{spec:?}: an idle token must not perturb the run"
            );
            let mut log = EventLog::new(1 << 14);
            assert_eq!(
                p.run_policy_cancellable(spec, &mut log, &token),
                Ok(p.run_policy(spec)),
                "{spec:?}: nor a traced one"
            );
            assert_eq!(
                p.run_policy_cancellable(spec, &mut NullTracer, &fired),
                Err(SimError::DeadlineExceeded { refs_done: 0 })
            );
        }
    }

    #[test]
    fn cancellable_prepare_matches_and_stops_mid_trace() {
        use std::time::Duration;
        let w = by_name("MAIN", Scale::Small).unwrap();
        let token = CancelToken::new();
        let a = prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let b = prepare_cancellable(w.name, &w.source, PipelineConfig::default(), &token).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "an idle token must not perturb prepare"
        );

        // A huge inline program (~10M references) with an expired
        // deadline: trace generation must abort at an interpreter poll,
        // long before the event stream completes.
        let huge = "PROGRAM T\nDIMENSION V(64)\nDO 20 J = 1, 160000\nDO 10 I = 1, 64\n\
                    V(I) = 1.0\n10 CONTINUE\n20 CONTINUE\nEND";
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = prepare_cancellable("HUGE", huge, PipelineConfig::default(), &token).unwrap_err();
        match err {
            PipelineError::Interp(InterpError::Cancelled { events_done }) => {
                assert!(events_done < 10_000_000, "stopped early");
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn instrumented_source_embeds_directives() {
        let p = prepared("MAIN");
        assert!(p.instrumented_source().contains("ALLOCATE"));
    }

    #[test]
    fn selector_mapping() {
        assert_eq!(
            selector_for(DirectiveLevel::Outermost),
            CdSelector::Outermost
        );
        assert_eq!(
            selector_for(DirectiveLevel::Innermost),
            CdSelector::Innermost
        );
        assert_eq!(
            selector_for(DirectiveLevel::AtLevel(3)),
            CdSelector::AtLevel(3)
        );
    }
}
