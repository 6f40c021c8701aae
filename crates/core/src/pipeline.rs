//! Compile → analyse → instrument → trace, packaged for repeated
//! policy evaluation.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cdmm_lang::{LangError, Program, Span, Stmt, SymbolTable};
use cdmm_locality::{
    analyze_program_with_mode, instrument, Analysis, InsertOptions, PageGeometry, SizerMode,
};
use cdmm_trace::{CancelToken, CompressedTrace, InterpError, Interpreter, MemoryLayout, Trace};
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
    /// Instrumentation-transparency failure: the instrumented program
    /// is not the original plus directives.
    Validate(ValidateError),
}

/// Where instrumentation changed the program.
///
/// Inserting directives must be behavior-preserving: the instrumented
/// program has to make exactly the references of the original.
/// Directives emit no references and change no state, so `prepare`
/// checks this on the syntax tree before it interprets anything: the
/// re-parsed instrumented program with its directives removed must
/// equal the original with its directives removed. A failure is an
/// error in release builds too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// The first construct that differs: `"PROGRAM or PARAMETER"` (the
    /// header, which carries no location), `"DIMENSION"` or
    /// `"statement"`.
    pub construct: &'static str,
    /// Its line in the original source; `None` when the original has
    /// no such construct there or the construct carries no location.
    pub source_line: Option<u32>,
    /// Its line in the instrumented source, `None` likewise.
    pub instrumented_line: Option<u32>,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instrumentation changed the program: first differing {}",
            self.construct
        )?;
        match (self.source_line, self.instrumented_line) {
            (Some(a), Some(b)) => write!(f, " at line {a} (line {b} of the instrumented source)"),
            (Some(a), None) => write!(f, " at line {a} is missing from the instrumented source"),
            (None, Some(b)) => write!(f, " at line {b} of the instrumented source is new"),
            (None, None) => Ok(()),
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
    /// Reference string of the uninstrumented program (what LRU/WS/OPT
    /// see): `cd_trace` with its directives dropped, stored
    /// run-length-compressed; the simulator streams it directly.
    plain_trace: CompressedTrace,
    /// Trace of the instrumented program (directive events embedded).
    cd_trace: CompressedTrace,
    /// Flat decompression of `cd_trace`, decoded on first use and shared
    /// across clones — the directive fuzzer behind chaos tenants needs
    /// random access and stops paying a fresh O(references) decode per
    /// call.
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
/// Only the instrumented program is interpreted; the plain trace is its
/// trace with the directives dropped. That is sound because the
/// instrumented program is first checked to be the original plus
/// directives ([`ValidateError`]).
///
/// Trace generation dominates prepare time — a pathological inline
/// source can demand billions of interpreter steps — so the
/// interpreter polls the token every
/// [`cdmm_trace::interp::POLL_INTERVAL`] emitted events or `DO`
/// iterations and aborts with [`InterpError::Cancelled`] (surfaced as
/// [`PipelineError::Interp`]) when a deadline expires mid-trace. An
/// uncancelled run returns exactly what [`prepare`] would.
pub fn prepare_cancellable(
    name: &str,
    source: &str,
    config: PipelineConfig,
    token: &CancelToken,
) -> Result<Prepared, PipelineError> {
    let analysis = analyze_program_with_mode(source, config.geometry, config.sizer_mode)
        .map_err(PipelineError::Lang)?;
    let instrumented_src = cdmm_lang::to_source(&instrument(&analysis, config.insert));
    let (program, symbols) = check_instrumented(&analysis.program, &instrumented_src)?;
    let layout = MemoryLayout::new(&symbols, config.geometry);
    let (cd_trace, _) = Interpreter::new(&program, &symbols, layout)
        .with_cancel(token.clone())
        .run()
        .map_err(PipelineError::Interp)?;
    let plain_trace = cd_trace.without_directives();
    let fingerprint = content_fingerprint(source, &plain_trace, &cd_trace, &config);
    Ok(Prepared {
        name: name.to_string(),
        analysis,
        instrumented_source: instrumented_src,
        plain_trace,
        cd_trace,
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

/// Parses and checks the instrumented source and verifies that it is
/// `original` plus directives — the paper's instrumentation-transparency
/// requirement, checked in O(statements) before anything runs. Also
/// catches any drift between the pretty-printer and the parser.
fn check_instrumented(
    original: &Program,
    instrumented_src: &str,
) -> Result<(Program, SymbolTable), PipelineError> {
    // The original parsed, so a front-end failure here is the printer's
    // fault; it is reported as the trace stage's front-end error.
    let lang = |e| PipelineError::Interp(InterpError::Lang(e));
    let mut program = cdmm_lang::parse(instrumented_src).map_err(lang)?;
    let symbols = cdmm_lang::analyze(&mut program).map_err(lang)?;
    let (a, b) = (original.without_directives(), program.without_directives());
    if a == b {
        return Ok((program, symbols));
    }
    let line = |span: Option<Span>| span.map(|s| s.line).filter(|&l| l > 0);
    let at = |construct, x: Option<Span>, y: Option<Span>| {
        PipelineError::Validate(ValidateError {
            construct,
            source_line: line(x),
            instrumented_line: line(y),
        })
    };
    if (&a.name, &a.params) != (&b.name, &b.params) {
        return Err(at("PROGRAM or PARAMETER", None, None));
    }
    let arrays = a.arrays.len().max(b.arrays.len());
    if let Some(i) = (0..arrays).find(|&i| a.arrays.get(i) != b.arrays.get(i)) {
        let decl_loc = |p: &Program| p.arrays.get(i).map(|d| d.loc.0);
        return Err(at("DIMENSION", decl_loc(&a), decl_loc(&b)));
    }
    let (x, y) = first_difference(&a.body, &b.body).unwrap_or_default();
    Err(at("statement", x, y))
}

/// Where the first pair of statements that differ between two statement
/// lists sits in each (`None` on a side that ran out), followed into
/// compound statements of the same kind down to the innermost differing
/// one; `None` when the lists are equal.
fn first_difference(a: &[Stmt], b: &[Stmt]) -> Option<(Option<Span>, Option<Span>)> {
    (0..a.len().max(b.len())).find_map(|i| match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) if x == y => None,
        (Some(x), Some(y)) => {
            let inner = if std::mem::discriminant(x) == std::mem::discriminant(y) {
                let pairs = x.bodies().into_iter().zip(y.bodies());
                pairs.filter_map(|(p, q)| first_difference(p, q)).next()
            } else {
                None
            };
            Some(inner.unwrap_or((Some(x.loc()), Some(y.loc()))))
        }
        (x, y) => Some((x.map(Stmt::loc), y.map(Stmt::loc))),
    })
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

    /// The uninstrumented trace (page references only), compressed:
    /// the instrumented trace with its directives dropped.
    pub fn plain_trace(&self) -> &CompressedTrace {
        &self.plain_trace
    }

    /// The instrumented trace (with directive events), compressed.
    pub fn cd_trace(&self) -> &CompressedTrace {
        &self.cd_trace
    }

    /// The instrumented trace as a flat event vector, decompressed on
    /// first use and memoized (clones share the decode). Prefer the
    /// compressed [`Prepared::cd_trace`] wherever streaming suffices.
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
        use cdmm_trace::trace_program_compressed;
        for w in cdmm_workloads::all(Scale::Small) {
            let name = w.name;
            let p = prepare(name, &w.source, PipelineConfig::default()).unwrap();
            // Interpreting the plain program directly is the oracle for
            // the plain trace `prepare` derives.
            let oracle = trace_program_compressed(&w.source, PageGeometry::PAPER).unwrap();
            assert_eq!(p.plain_trace().ops(), oracle.ops(), "{name}: plain ops");
            assert_eq!(p.plain_trace().ref_count(), oracle.ref_count(), "{name}");
            assert_eq!(p.virtual_pages(), oracle.virtual_pages(), "{name}");
            assert!(
                p.plain_trace().iter_refs().eq(p.cd_trace().iter_refs()),
                "{name}: directives changed the references"
            );
            assert!(p.cd_trace().directive_count() > 0, "{name}: no directives");
        }
    }

    #[test]
    fn directives_in_the_source_stay_out_of_the_plain_trace() {
        let plain = prepared("MAIN");
        let with_dirs = plain.instrumented_source().to_string();
        let p = prepare("MAIN", &with_dirs, PipelineConfig::default()).unwrap();
        assert_eq!(p.plain_trace().directive_count(), 0);
        assert_eq!(p.plain_trace(), plain.plain_trace());
        for spec in [PolicySpec::Lru { frames: 4 }, PolicySpec::Lru { frames: 8 }] {
            assert_eq!(p.run_policy(spec), plain.run_policy(spec), "{spec:?}");
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

    /// Runs the transparency check on `edit` applied to the
    /// instrumented text of a small two-array program.
    fn check_edited(edit: impl Fn(&str) -> String) -> Result<(), PipelineError> {
        let src = "PROGRAM T\nPARAMETER (N = 64)\nDIMENSION A(N,N), B(N)\n\
                   DO 20 J = 1, N\nDO 10 I = 1, N\nA(I,J) = B(I) + 1.0\n\
                   10 CONTINUE\n20 CONTINUE\nB(1) = A(1,1)\nEND";
        let cfg = PipelineConfig::default();
        let analysis = analyze_program_with_mode(src, cfg.geometry, cfg.sizer_mode).unwrap();
        let text = cdmm_lang::to_source(&instrument(&analysis, cfg.insert));
        let edited = edit(&text);
        check_instrumented(&analysis.program, &edited).map(|_| ())
    }

    fn replace(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "{from:?} not in\n{text}");
        text.replacen(from, to, 1)
    }

    fn drop_lines(text: &str, containing: &str) -> String {
        let kept: String = text
            .lines()
            .filter(|l| !l.contains(containing))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_ne!(kept, text, "no line contains {containing:?}");
        kept
    }

    #[test]
    fn alignment_check_rejects_divergent_programs() {
        assert_eq!(check_edited(str::to_string), Ok(()));
        // Directives may move, appear or vanish: they make no references.
        assert_eq!(check_edited(|t| drop_lines(t, "!MD$")), Ok(()));

        let validate = |r: Result<(), PipelineError>| match r {
            Err(PipelineError::Validate(e)) => e,
            other => panic!("expected a validation error, got {other:?}"),
        };
        let changed = validate(check_edited(|t| replace(t, "B(I)", "B(J)")));
        assert_eq!(changed.construct, "statement");
        assert_eq!(changed.source_line, Some(6), "{changed}");
        assert!(changed.instrumented_line.is_some());
        assert!(PipelineError::Validate(changed)
            .to_string()
            .starts_with("validate: instrumentation changed the program"));

        let dropped = validate(check_edited(|t| drop_lines(t, "B(1) =")));
        assert_eq!(dropped.construct, "statement");
        assert_eq!(dropped.source_line, Some(9));
        assert_eq!(dropped.instrumented_line, None);
        assert!(dropped.to_string().contains("missing"), "{dropped}");

        let reordered = validate(check_edited(|t| {
            replace(t, "DIMENSION A(N,N), B(N)", "DIMENSION B(N), A(N,N)")
        }));
        assert_eq!(reordered.construct, "DIMENSION");
        assert_eq!(reordered.source_line, Some(3));
        assert_eq!(reordered.instrumented_line, Some(3));
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
            let flat = p.trace_for(spec).to_trace();
            let oracle = cdmm_vmsim::simulate(&flat, p.build_policy(spec).as_mut(), p.sim_config());
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

        // No array references at all: only the DO iteration count
        // reaches the interpreter's poll cadence.
        let spin = "PROGRAM T\nS = 0.0\nDO 10 I = 1, 2000000000\nS = S + 1.0\n10 CONTINUE\nEND";
        let token = CancelToken::with_deadline(Duration::ZERO);
        let started = std::time::Instant::now();
        let err = prepare_cancellable("SPIN", spin, PipelineConfig::default(), &token);
        assert!(
            matches!(
                err,
                Err(PipelineError::Interp(InterpError::Cancelled { .. }))
            ),
            "{err:?}"
        );
        assert!(started.elapsed() < Duration::from_millis(500));
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
