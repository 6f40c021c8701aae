//! The traced run: spans and counts at every layer boundary, and the
//! per-layer metrics derived from them.

use std::collections::BTreeMap;

use cdmm_core::{prepare, prepare_cancellable, CancelToken, PipelineConfig, PolicySpec, Prepared};
use cdmm_locality::{instrument, priority, Analysis, LocalitySizer, LoopTree};
use cdmm_vmsim::{ExecStats, MetricsRegistry};

use crate::spans::{Spans, Totals};
use crate::Metric;

/// Every per-layer metric: name, unit, and which direction is better.
/// Time metrics are means per call of the named entry point (per
/// prepared program for the `prepare` stages), so they do not depend
/// on how many operations fit in a run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("lang.parse_ms", "ms", "lower"),
    ("lang.print_ms", "ms", "lower"),
    ("locality.analysis_ms", "ms", "lower"),
    ("locality.instrument_ms", "ms", "lower"),
    ("locality.directives", "count", "lower"),
    ("trace.interp_plain_ms", "ms", "lower"),
    ("trace.interp_cd_ms", "ms", "lower"),
    ("trace.refs", "count", "lower"),
    ("trace.ops", "count", "lower"),
    ("trace.interp_refs_per_s", "1/s", "higher"),
    ("trace.interp_share", "ratio", "lower"),
    ("core.prepare_ms", "ms", "lower"),
    ("core.prepare_residual_ms", "ms", "lower"),
    ("core.cold_pass_ms", "ms", "lower"),
    ("core.warm_pass_ms", "ms", "lower"),
    ("core.table1_ms", "ms", "lower"),
    ("core.table2_ms", "ms", "lower"),
    ("core.table3_ms", "ms", "lower"),
    ("core.table4_ms", "ms", "lower"),
    ("core.cache_open_ms", "ms", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.cache_misses", "count", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.fleet_prepare_ms", "ms", "lower"),
    ("vmsim.simulate_ms", "ms", "lower"),
    ("vmsim.simulate_cd_ms", "ms", "lower"),
    ("vmsim.simulate_lru_ms", "ms", "lower"),
    ("vmsim.simulate_fifo_ms", "ms", "lower"),
    ("vmsim.simulate_clock_ms", "ms", "lower"),
    ("vmsim.simulate_ws_ms", "ms", "lower"),
    ("vmsim.simulate_pff_ms", "ms", "lower"),
    ("vmsim.simulate_refs_per_s", "1/s", "higher"),
    ("vmsim.observe_ms", "ms", "lower"),
    ("vmsim.observe_over_simulate", "ratio", "lower"),
    ("vmsim.lru_curve_ms", "ms", "lower"),
    ("vmsim.ws_curve_ms", "ms", "lower"),
    ("vmsim.fleet_run_ms", "ms", "lower"),
    ("vmsim.fleet_swaps", "count", "lower"),
    ("serve.handle_sim_ms", "ms", "lower"),
    ("serve.handle_observed_ms", "ms", "lower"),
    ("serve.handle_sweep_ms", "ms", "lower"),
    ("serve.parse_us", "us", "lower"),
    ("serve.residual_us", "us", "lower"),
    ("workloads.by_name_us", "us", "lower"),
    ("serve.ok", "count", "higher"),
    ("serve.failed", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Span names of the simulate replays, by policy family.
const SIMULATE_SPANS: [(&str, &str); 6] = [
    ("cd", "vmsim.simulate_cd"),
    ("lru", "vmsim.simulate_lru"),
    ("fifo", "vmsim.simulate_fifo"),
    ("clock", "vmsim.simulate_clock"),
    ("ws", "vmsim.simulate_ws"),
    ("pff", "vmsim.simulate_pff"),
];

/// Counts recorded next to the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Programs whose `prepare` was replayed stage by stage.
    pub programs: u64,
    /// Plain-trace references of those programs.
    pub refs: u64,
    /// Compressed ops of both traces of those programs.
    pub ops: u64,
    /// Directives in the instrumented traces of those programs.
    pub directives: u64,
    /// References produced by the replayed interpreter runs.
    pub interp_refs: u64,
    /// References simulated by the replayed untraced runs.
    pub sim_refs: u64,
    /// Result-cache counters summed over the measured operations.
    pub cache: ExecStats,
    /// Own time of the measured cold and warm table passes.
    pub pass_ns: [u64; 2],
    /// Fleet swap-out events over the measured runs.
    pub swaps: u64,
    /// Successful and failed responses in the measured phase.
    pub ok: u64,
    /// See [`Counts::ok`].
    pub failed: u64,
}

/// Spans plus counts: the state of one traced run.
#[derive(Default)]
pub struct Tracer {
    /// The span store.
    pub spans: Spans,
    /// The counts.
    pub counts: Counts,
}

impl Tracer {
    /// Adds the cache traffic between two counter snapshots.
    pub fn count_cache(&mut self, before: ExecStats, after: ExecStats) {
        let c = &mut self.counts.cache;
        c.cache_hits += after.cache_hits - before.cache_hits;
        c.cache_misses += after.cache_misses - before.cache_misses;
        c.sim_points += after.sim_points - before.sim_points;
    }

    /// Replays one untraced simulation as a child of `parent`.
    pub fn simulate(
        &mut self,
        parent: usize,
        request: u64,
        p: &Prepared,
        spec: PolicySpec,
        family: &str,
    ) {
        let (_, span) = SIMULATE_SPANS
            .iter()
            .find(|(f, _)| *f == family)
            .expect("a simulated policy family");
        let (_, m) = self
            .spans
            .time(span, Some(parent), request, || p.run_policy(spec));
        self.counts.sim_refs += m.refs;
    }

    /// Replays one run under a `MetricsRegistry` (plus its snapshot) as
    /// a child of `parent`, then the same run untraced as a root span
    /// of its own, the base of `vmsim.observe_over_simulate`.
    pub fn observe(&mut self, parent: usize, request: u64, p: &Prepared, spec: PolicySpec) {
        self.spans.time("vmsim.observe", Some(parent), request, || {
            let mut registry = MetricsRegistry::new();
            p.run_policy_with(spec, &mut registry);
            registry.snapshot()
        });
        self.spans
            .time("vmsim.observe_base", None, request, || p.run_policy(spec));
    }

    /// Calls `prepare` (or `prepare_cancellable`, as the service does)
    /// under a `core.prepare` span, then replays its stages one by one
    /// as children: parse, semantic analysis, loop tree, priorities,
    /// locality sizes, directive insertion, printing, and the two
    /// interpreter runs. Returns the real call's result.
    pub fn prepare(
        &mut self,
        parent: Option<usize>,
        request: u64,
        name: &str,
        source: &str,
        config: PipelineConfig,
        cancellable: bool,
    ) -> Prepared {
        let (id, p) = self.spans.time("core.prepare", parent, request, || {
            if cancellable {
                prepare_cancellable(name, source, config, &CancelToken::new())
            } else {
                prepare(name, source, config)
            }
        });
        let p = p.unwrap_or_else(|e| panic!("prepare {name}: {e}"));
        let s = &mut self.spans;
        let at = Some(id);
        let (_, program) = s.time("lang.parse", at, request, || cdmm_lang::parse(source));
        let mut program = program.expect("parsed once already");
        let (_, symbols) = s.time("lang.analyze", at, request, || {
            cdmm_lang::analyze(&mut program)
        });
        let symbols = symbols.expect("checked once already");
        let (_, mut tree) = s.time("locality.tree", at, request, || LoopTree::build(&program));
        s.time("locality.priority", at, request, || {
            priority::assign(&mut tree)
        });
        let (_, sizes) = s.time("locality.sizer", at, request, || {
            LocalitySizer::new(&symbols, config.geometry)
                .with_mode(config.sizer_mode)
                .run(&tree)
        });
        let analysis = Analysis {
            program,
            symbols,
            tree,
            sizes,
        };
        let (_, instrumented) = s.time("locality.instrument", at, request, || {
            instrument(&analysis, config.insert)
        });
        let (_, text) = s.time("lang.print", at, request, || {
            cdmm_lang::to_source(&instrumented)
        });
        let interp = |src: &str| cdmm_trace::trace_program_compressed(src, config.geometry);
        let (_, plain) = s.time("trace.interp_plain", at, request, || interp(source));
        let (_, cd) = s.time("trace.interp_cd", at, request, || interp(&text));
        let (plain, cd) = (plain.expect("traced once"), cd.expect("traced once"));
        let c = &mut self.counts;
        c.programs += 1;
        c.refs += plain.ref_count();
        c.ops += (plain.op_count() + cd.op_count()) as u64;
        c.directives += cd.directive_count();
        c.interp_refs += plain.ref_count() + cd.ref_count();
        p
    }

    /// The per-layer metrics of this run. `op_spans` names the root
    /// spans whose summed durations are the workload's operation time
    /// (the base of `trace.interp_share`), `ops` the operations
    /// measured, and `overhead_pct` the tracing overhead.
    pub fn metrics(&self, op_spans: &[&str], ops: u64, overhead_pct: f64) -> Vec<Metric> {
        let mut all: BTreeMap<&str, Totals> = self.spans.totals(true);
        for (name, t) in self.spans.totals(false) {
            let e = all.entry(name).or_default();
            e.calls += t.calls;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        let measured = self.spans.totals(false);
        let get = |name: &str| all.get(name).copied().unwrap_or_default();
        let mean = |name: &str| get(name).mean_ms();
        let total_s =
            |names: &[&str]| names.iter().map(|n| get(n).total_ns).sum::<u64>() as f64 / 1e9;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let c = &self.counts;
        let per_program = |x: u64| ratio(x as f64, c.programs as f64);
        let per_op = |x: u64| ratio(x as f64, ops as f64);
        let interp = ["trace.interp_plain", "trace.interp_cd"];
        let measured_s = |names: &[&str]| {
            names
                .iter()
                .map(|n| measured.get(n).map_or(0, |t| t.total_ns))
                .sum::<u64>() as f64
                / 1e9
        };
        let sims = SIMULATE_SPANS
            .iter()
            .map(|(_, n)| get(n))
            .fold(Totals::default(), |a, t| Totals {
                calls: a.calls + t.calls,
                total_ns: a.total_ns + t.total_ns,
                self_ns: a.self_ns + t.self_ns,
            });
        let lookups = c.cache.cache_hits + c.cache.cache_misses;
        let value = |name: &str| -> f64 {
            match name {
                "lang.parse_ms" => mean("lang.parse") + mean("lang.analyze"),
                "lang.print_ms" => mean("lang.print"),
                "locality.analysis_ms" => {
                    mean("locality.tree") + mean("locality.priority") + mean("locality.sizer")
                }
                "locality.instrument_ms" => mean("locality.instrument"),
                "locality.directives" => per_program(c.directives),
                "trace.interp_plain_ms" => mean("trace.interp_plain"),
                "trace.interp_cd_ms" => mean("trace.interp_cd"),
                "trace.refs" => per_program(c.refs),
                "trace.ops" => per_program(c.ops),
                "trace.interp_refs_per_s" => ratio(c.interp_refs as f64, total_s(&interp)),
                "trace.interp_share" => ratio(measured_s(&interp), measured_s(op_spans)),
                "core.prepare_ms" => mean("core.prepare"),
                "core.prepare_residual_ms" => get("core.prepare").mean_self_ms(),
                "core.cold_pass_ms" => per_op(c.pass_ns[0]) / 1e6,
                "core.warm_pass_ms" => per_op(c.pass_ns[1]) / 1e6,
                "core.table1_ms" => mean("core.table1"),
                "core.table2_ms" => mean("core.table2"),
                "core.table3_ms" => mean("core.table3"),
                "core.table4_ms" => mean("core.table4"),
                "core.cache_open_ms" => mean("core.cache_open"),
                "core.cache_hits" => per_op(c.cache.cache_hits),
                "core.cache_misses" => per_op(c.cache.cache_misses),
                "core.cache_hit_ratio" => ratio(c.cache.cache_hits as f64, lookups as f64),
                "core.fleet_prepare_ms" => mean("core.fleet_prepare"),
                "vmsim.simulate_ms" => sims.mean_ms(),
                "vmsim.simulate_cd_ms" => mean("vmsim.simulate_cd"),
                "vmsim.simulate_lru_ms" => mean("vmsim.simulate_lru"),
                "vmsim.simulate_fifo_ms" => mean("vmsim.simulate_fifo"),
                "vmsim.simulate_clock_ms" => mean("vmsim.simulate_clock"),
                "vmsim.simulate_ws_ms" => mean("vmsim.simulate_ws"),
                "vmsim.simulate_pff_ms" => mean("vmsim.simulate_pff"),
                "vmsim.simulate_refs_per_s" => ratio(c.sim_refs as f64, sims.total_ns as f64 / 1e9),
                "vmsim.observe_ms" => mean("vmsim.observe"),
                "vmsim.observe_over_simulate" => ratio(
                    get("vmsim.observe").total_ns as f64,
                    get("vmsim.observe_base").total_ns as f64,
                ),
                "vmsim.lru_curve_ms" => mean("vmsim.lru_curve"),
                "vmsim.ws_curve_ms" => mean("vmsim.ws_curve"),
                "vmsim.fleet_run_ms" => mean("vmsim.fleet_run"),
                "vmsim.fleet_swaps" => per_op(c.swaps),
                "serve.handle_sim_ms" => mean("serve.handle_sim"),
                "serve.handle_observed_ms" => mean("serve.handle_observed"),
                "serve.handle_sweep_ms" => mean("serve.handle_sweep"),
                "serve.parse_us" => mean("serve.parse") * 1e3,
                "serve.residual_us" => {
                    let handles = [
                        "serve.handle_sim",
                        "serve.handle_observed",
                        "serve.handle_sweep",
                    ];
                    let (calls, self_ns) = handles
                        .iter()
                        .map(|n| get(n))
                        .fold((0, 0), |(c, s), t| (c + t.calls, s + t.self_ns));
                    ratio(self_ns as f64, calls as f64) / 1e3
                }
                "workloads.by_name_us" => mean("workloads.by_name") * 1e3,
                "serve.ok" => c.ok as f64,
                "serve.failed" => c.failed as f64,
                "bench.trace_overhead_pct" => overhead_pct,
                other => panic!("per-layer metric {other} has no definition"),
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric::new(name, value(name), unit))
            .collect()
    }
}
