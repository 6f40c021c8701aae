//! Quantitative observability: a registry of counters, gauges, and
//! log-bucketed streaming histograms fed from the simulator's existing
//! event stream.
//!
//! The [`crate::observe`] layer gives the simulator typed events; this
//! module turns those events into *distributions* — the measurement the
//! paper's own evaluation (Section 5, Tables 2–4) is built on. A
//! [`MetricsRegistry`] is an ordinary [`Tracer`] that only aggregates
//! ([`Tracer::takes_spans`]), so a registry-attached run keeps the
//! run-level kernels: they hand it whole [`RefSpan`]s — hits at constant
//! occupancy, all-miss ramps — which it folds in O(histogram buckets),
//! and the policies' decision events arrive as usual. A run without a
//! registry executes no stats code at all.
//!
//! Tracked out of the box (names are stable, they appear in snapshots,
//! scorecards, and `BENCH_*.json` artifacts):
//!
//! - `fault_interarrival` — references between consecutive faults.
//! - `resident_occupancy` — resident-set size after every reference.
//! - `lock_dwell` — references between a `LOCK` and the `UNLOCK`
//!   releasing it.
//! - per-priority-index `ALLOCATE` outcomes and grant-size
//!   distributions ([`PiStats`]).
//! - counters for faults, evictions, lock traffic, swapper
//!   invocations, recovered directives, degradations, executor jobs,
//!   and cache queries.
//!
//! The registry is "lock-free in spirit": a plain struct with no
//! interior synchronization. Share one across threads the same way the
//! tracer plumbing does — behind a [`SharedRegistry`] handle fed through
//! [`crate::observe::SharedSink`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::observe::{AllocDecision, Histogram, RefSpan, SimEvent, Tracer};

/// Histogram name: references between consecutive faults.
pub const FAULT_INTERARRIVAL: &str = "fault_interarrival";
/// Histogram name: resident-set size at every reference.
pub const RESIDENT_OCCUPANCY: &str = "resident_occupancy";
/// Histogram name: references a lock stayed held before its unlock.
pub const LOCK_DWELL: &str = "lock_dwell";
/// Gauge name: resident-set size after the latest reference.
pub const RESIDENT_PAGES: &str = "resident_pages";

/// Per-priority-index `ALLOCATE` statistics: Figure 6 outcome counts
/// plus the distribution of granted request sizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PiStats {
    /// Requests granted at this PI.
    pub granted: u64,
    /// Directives held over with this innermost PI.
    pub held_over: u64,
    /// Swap requests raised with this innermost PI.
    pub swap_needed: u64,
    /// Pages of each granted request at this PI.
    pub grant_pages: Histogram,
}

/// A registry of named counters, gauges, and streaming histograms.
///
/// Implements [`Tracer`], so any driver that accepts a tracer
/// ([`crate::run`], the executor observer, the `Simulation`
/// facade's `.metrics()` knob) can feed it. Counters and histograms can
/// also be bumped directly by name for metrics that do not originate as
/// simulation events.
///
/// The metrics every reference touches — the `refs`, `faults` and
/// `evictions` counters, the `resident_occupancy` and
/// `fault_interarrival` histograms and the `resident_pages` gauge —
/// live in fixed fields, so recording a reference costs no map lookup;
/// the by-name accessors and [`MetricsRegistry::snapshot`] read them
/// like any other metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    refs: Option<u64>,
    faults: Option<u64>,
    evictions: Option<u64>,
    resident_pages: Option<u64>,
    occupancy: Histogram,
    interarrival: Histogram,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    pi: BTreeMap<u32, PiStats>,
    last_fault_at: Option<u64>,
    /// Open locks, oldest first: clock at `LOCK` time. `UNLOCK` closes
    /// newest-first (locks nest), recording one dwell sample per lock.
    open_locks: Vec<u64>,
}

/// Adds `n` to a counter that exists once first bumped, even by zero.
fn bump(counter: &mut Option<u64>, n: u64) {
    *counter.get_or_insert(0) += n;
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters kept in fixed fields, by name.
    fn fixed_counters(&self) -> [(&'static str, Option<u64>); 3] {
        [
            ("refs", self.refs),
            ("faults", self.faults),
            ("evictions", self.evictions),
        ]
    }

    /// The histograms kept in fixed fields, by name.
    fn fixed_hists(&self) -> [(&'static str, &Histogram); 2] {
        [
            (RESIDENT_OCCUPANCY, &self.occupancy),
            (FAULT_INTERARRIVAL, &self.interarrival),
        ]
    }

    /// Adds `n` to a named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match name {
            "refs" => bump(&mut self.refs, n),
            "faults" => bump(&mut self.faults, n),
            "evictions" => bump(&mut self.evictions, n),
            _ => *self.counters.entry(name).or_insert(0) += n,
        }
    }

    /// Increments a named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets a named gauge to its current value.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        if name == RESIDENT_PAGES {
            self.resident_pages = Some(value);
        } else {
            self.gauges.insert(name, value);
        }
    }

    /// Records one sample into a named histogram.
    pub fn record_sample(&mut self, name: &'static str, value: u64) {
        match name {
            RESIDENT_OCCUPANCY => self.occupancy.record(value),
            FAULT_INTERARRIVAL => self.interarrival.record(value),
            _ => self.hists.entry(name).or_default().record(value),
        }
    }

    /// A counter's current value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        match self.fixed_counters().into_iter().find(|(n, _)| *n == name) {
            Some((_, fixed)) => fixed.unwrap_or(0),
            None => self.counters.get(name).copied().unwrap_or(0),
        }
    }

    /// A gauge's current value, when it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        if name == RESIDENT_PAGES {
            self.resident_pages
        } else {
            self.gauges.get(name).copied()
        }
    }

    /// A named histogram, when any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.fixed_hists().into_iter().find(|(n, _)| *n == name) {
            Some((_, h)) => (h.count() > 0).then_some(h),
            None => self.hists.get(name),
        }
    }

    /// Per-priority-index `ALLOCATE` statistics.
    pub fn pi_stats(&self) -> &BTreeMap<u32, PiStats> {
        &self.pi
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.fixed_counters().iter().all(|(_, v)| v.is_none())
            && self.resident_pages.is_none()
            && self.fixed_hists().iter().all(|(_, h)| h.count() == 0)
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.pi.is_empty()
    }

    /// Freezes the current state into an ordered, render-ready
    /// [`RegistrySnapshot`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters = self.counters.clone();
        for (name, v) in self.fixed_counters() {
            if let Some(v) = v {
                counters.insert(name, v);
            }
        }
        let mut gauges = self.gauges.clone();
        if let Some(v) = self.resident_pages {
            gauges.insert(RESIDENT_PAGES, v);
        }
        let mut hists: BTreeMap<&str, &Histogram> =
            self.hists.iter().map(|(&k, h)| (k, h)).collect();
        for (name, h) in self.fixed_hists() {
            if h.count() > 0 {
                hists.insert(name, h);
            }
        }
        RegistrySnapshot {
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: hists
                .into_iter()
                .map(|(k, h)| (k.to_string(), HistogramSummary::of(h)))
                .collect(),
            pi: self
                .pi
                .iter()
                .map(|(&pi, s)| {
                    (
                        pi,
                        PiSummary {
                            granted: s.granted,
                            held_over: s.held_over,
                            swap_needed: s.swap_needed,
                            grant_pages: HistogramSummary::of(&s.grant_pages),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl Tracer for MetricsRegistry {
    fn wants_refs(&self) -> bool {
        // Resident-set occupancy is a per-reference distribution; on
        // the per-event path (a tee with an exact sink) it needs every
        // reference.
        true
    }

    fn takes_spans(&self) -> bool {
        true
    }

    fn record_span(&mut self, at: u64, span: &RefSpan) {
        let n = span.refs;
        bump(&mut self.refs, n);
        let ramp = span.ramp_len();
        self.occupancy.record_ramp(span.first, ramp);
        self.occupancy.record_n(span.last, n - ramp);
        self.resident_pages = Some(span.last);
        if span.fault {
            bump(&mut self.faults, n);
            if let Some(prev) = self.last_fault_at {
                self.interarrival.record(at.saturating_sub(prev));
            }
            self.interarrival.record_n(1, n - 1);
            self.last_fault_at = Some(at + (n - 1));
        }
        if span.evictions > 0 {
            bump(&mut self.evictions, span.evictions);
        }
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        match event {
            SimEvent::Ref { resident, .. } => {
                bump(&mut self.refs, 1);
                self.occupancy.record(u64::from(*resident));
                self.resident_pages = Some(u64::from(*resident));
            }
            SimEvent::Fault { .. } => {
                bump(&mut self.faults, 1);
                if let Some(prev) = self.last_fault_at {
                    self.interarrival.record(at.saturating_sub(prev));
                }
                self.last_fault_at = Some(at);
            }
            SimEvent::Evict { .. } => bump(&mut self.evictions, 1),
            SimEvent::Alloc {
                pi,
                pages,
                decision,
            } => {
                let s = self.pi.entry(*pi).or_default();
                match decision {
                    AllocDecision::Granted => {
                        s.granted += 1;
                        s.grant_pages.record(*pages);
                    }
                    AllocDecision::HeldOver => s.held_over += 1,
                    AllocDecision::SwapNeeded => {
                        s.swap_needed += 1;
                        self.inc("swapper_invocations");
                    }
                }
            }
            SimEvent::Lock { .. } => {
                self.inc("locks");
                self.open_locks.push(at);
            }
            SimEvent::Unlock { .. } => {
                self.inc("unlocks");
                if let Some(opened) = self.open_locks.pop() {
                    self.record_sample(LOCK_DWELL, at.saturating_sub(opened));
                }
            }
            SimEvent::LockBroken { .. } => {
                self.inc("lock_breaks");
                // The broken lock is gone; its dwell ended here.
                if let Some(opened) = self.open_locks.pop() {
                    self.record_sample(LOCK_DWELL, at.saturating_sub(opened));
                }
            }
            SimEvent::Recovered { .. } => self.inc("recovered_directives"),
            SimEvent::Degraded => self.inc("degraded"),
            SimEvent::SwapOut { .. } => {
                self.inc("swap_outs");
                self.inc("swapper_invocations");
            }
            SimEvent::JobDone { wall_ns, .. } => {
                self.inc("jobs_done");
                self.record_sample("job_wall_ns", *wall_ns);
            }
            SimEvent::CacheQuery { hit } => {
                self.inc(if *hit { "cache_hits" } else { "cache_misses" });
            }
            SimEvent::CacheQuarantine { lines } => {
                self.add("cache_quarantined_lines", *lines);
            }
            SimEvent::TenantAdmitted { forced, .. } => {
                self.inc("admissions");
                if *forced {
                    self.inc("forced_admissions");
                }
            }
            SimEvent::TenantFinished { .. } => self.inc("tenants_finished"),
            SimEvent::AdmissionDeferred { .. } => self.inc("admission_deferrals"),
            SimEvent::QueueDepth { ready, .. } => {
                self.record_sample("queue_ready", u64::from(*ready));
            }
        }
    }
}

/// Percentile digest of one histogram: count, mean, p50/p90/p99, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean of all samples.
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact largest sample.
    pub max: u64,
}

impl HistogramSummary {
    /// Digests a histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }
}

/// Per-PI digest inside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiSummary {
    /// Requests granted at this PI.
    pub granted: u64,
    /// Directives held over with this innermost PI.
    pub held_over: u64,
    /// Swap requests raised with this innermost PI.
    pub swap_needed: u64,
    /// Distribution of granted request sizes.
    pub grant_pages: HistogramSummary,
}

/// An ordered, immutable snapshot of a [`MetricsRegistry`] — what the
/// scorecard renderer and the bench artifacts consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-ordered.
    pub gauges: Vec<(String, u64)>,
    /// `(name, digest)` histograms, name-ordered.
    pub hists: Vec<(String, HistogramSummary)>,
    /// `(priority index, digest)` ALLOCATE statistics, PI-ordered.
    pub pi: Vec<(u32, PiSummary)>,
}

impl RegistrySnapshot {
    /// True when the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.pi.is_empty()
    }

    /// A counter's value in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A histogram digest in this snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Renders a plain-text summary (one line per metric).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name:<24} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {name:<24} {v}");
        }
        for (name, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist    {name:<24} n {} mean {:.2} p50 {} p90 {} p99 {} max {}",
                h.count, h.mean, h.p50, h.p90, h.p99, h.max
            );
        }
        for (pi, s) in &self.pi {
            let _ = writeln!(
                out,
                "alloc   PI {pi:<21} granted {} held {} swap {} pages p50 {} max {}",
                s.granted, s.held_over, s.swap_needed, s.grant_pages.p50, s.grant_pages.max
            );
        }
        out
    }
}

/// A shareable, mutex-guarded registry handle, mirroring
/// [`crate::observe::SharedTracer`] for multi-threaded feeders (the
/// executor observer, the result cache).
pub type SharedRegistry = Arc<Mutex<MetricsRegistry>>;

/// Wraps a registry into a [`SharedRegistry`] handle.
pub fn shared_registry(registry: MetricsRegistry) -> SharedRegistry {
    Arc::new(Mutex::new(registry))
}

/// Snapshots a shared registry.
///
/// # Panics
///
/// Panics when the registry mutex is poisoned.
pub fn snapshot_shared(registry: &SharedRegistry) -> RegistrySnapshot {
    registry.lock().expect("registry lock").snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_trace::PageId;

    fn fault(at: u64, r: &mut MetricsRegistry) {
        r.record(
            at,
            &SimEvent::Fault {
                page: PageId(0),
                resident: 1,
            },
        );
    }

    #[test]
    fn empty_registry_snapshots_empty() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        let s = r.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.counter("faults"), 0);
        assert_eq!(s.histogram(FAULT_INTERARRIVAL), None);
        assert_eq!(s.render(), "");
    }

    #[test]
    fn fault_interarrival_distances_are_recorded() {
        let mut r = MetricsRegistry::new();
        fault(10, &mut r);
        fault(18, &mut r);
        fault(19, &mut r);
        assert_eq!(r.counter("faults"), 3);
        let h = r.histogram(FAULT_INTERARRIVAL).expect("gaps recorded");
        assert_eq!(h.count(), 2, "first fault opens no gap");
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn alloc_outcomes_split_by_pi_and_feed_the_swap_counter() {
        let mut r = MetricsRegistry::new();
        for (pi, pages, decision) in [
            (3, 40, AllocDecision::Granted),
            (3, 12, AllocDecision::Granted),
            (2, 0, AllocDecision::HeldOver),
            (1, 0, AllocDecision::SwapNeeded),
        ] {
            r.record(
                0,
                &SimEvent::Alloc {
                    pi,
                    pages,
                    decision,
                },
            );
        }
        let s3 = &r.pi_stats()[&3];
        assert_eq!(s3.granted, 2);
        assert_eq!(s3.grant_pages.count(), 2);
        assert_eq!(s3.grant_pages.max(), 40);
        assert_eq!(r.pi_stats()[&2].held_over, 1);
        assert_eq!(r.pi_stats()[&1].swap_needed, 1);
        assert_eq!(r.counter("swapper_invocations"), 1);
        let snap = r.snapshot();
        assert_eq!(snap.pi.len(), 3);
        assert!(snap.render().contains("PI 3"));
    }

    #[test]
    fn lock_dwell_spans_lock_to_unlock() {
        let mut r = MetricsRegistry::new();
        r.record(100, &SimEvent::Lock { pj: 2, pinned: 4 });
        r.record(110, &SimEvent::Lock { pj: 3, pinned: 1 });
        r.record(115, &SimEvent::Unlock { released: 1 });
        r.record(160, &SimEvent::Unlock { released: 4 });
        let h = r.histogram(LOCK_DWELL).expect("dwells recorded");
        assert_eq!(h.count(), 2);
        // Inner lock dwelt 5 refs, outer 60 (locks close newest-first).
        assert_eq!(h.max(), 60);
        assert_eq!(r.counter("locks"), 2);
        assert_eq!(r.counter("unlocks"), 2);
    }

    #[test]
    fn broken_locks_end_their_dwell() {
        let mut r = MetricsRegistry::new();
        r.record(7, &SimEvent::Lock { pj: 2, pinned: 1 });
        r.record(
            19,
            &SimEvent::LockBroken {
                page: PageId(3),
                pj: 2,
            },
        );
        assert_eq!(r.counter("lock_breaks"), 1);
        assert_eq!(r.histogram(LOCK_DWELL).map(|h| h.max()), Some(12));
    }

    #[test]
    fn refs_feed_occupancy_and_the_resident_gauge() {
        let mut r = MetricsRegistry::new();
        assert!(r.wants_refs());
        for (at, resident) in [(1, 1), (2, 2), (3, 2)] {
            r.record(
                at,
                &SimEvent::Ref {
                    page: PageId(0),
                    resident,
                    fault: false,
                },
            );
        }
        assert_eq!(r.counter("refs"), 3);
        assert_eq!(r.gauge("resident_pages"), Some(2));
        let h = r.histogram(RESIDENT_OCCUPANCY).expect("occupancy");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn spans_fold_like_the_events_they_stand_for() {
        // Three faults climbing 2 → 4 (one eviction), then two hits at 4.
        let mut spans = MetricsRegistry::new();
        assert!(spans.takes_spans());
        let ramp = RefSpan {
            refs: 3,
            fault: true,
            first: 2,
            last: 4,
            evictions: 1,
        };
        spans.record_span(5, &ramp);
        let hits = RefSpan {
            refs: 2,
            fault: false,
            first: 4,
            last: 4,
            evictions: 0,
        };
        spans.record_span(8, &hits);
        let mut events = MetricsRegistry::new();
        let page = PageId(0);
        events.record(6, &SimEvent::Evict { page });
        for (at, resident, fault) in [
            (5, 2, true),
            (6, 3, true),
            (7, 4, true),
            (8, 4, false),
            (9, 4, false),
        ] {
            if fault {
                events.record(at, &SimEvent::Fault { page, resident });
            }
            events.record(
                at,
                &SimEvent::Ref {
                    page,
                    resident,
                    fault,
                },
            );
        }
        assert_eq!(spans, events);
        assert_eq!(spans.snapshot(), events.snapshot());
        assert_eq!(spans.counter("evictions"), 1);
        assert_eq!(spans.gauge(RESIDENT_PAGES), Some(4));
    }

    #[test]
    fn fixed_fields_answer_by_name_and_keep_zero_counters() {
        let mut r = MetricsRegistry::new();
        r.add("faults", 0);
        r.inc("zeta");
        r.record_sample(FAULT_INTERARRIVAL, 3);
        r.set_gauge(RESIDENT_PAGES, 9);
        assert!(!r.is_empty());
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["faults", "zeta"], "a zero bump still lists");
        assert_eq!(r.counter("faults"), 0);
        assert_eq!(
            r.histogram(FAULT_INTERARRIVAL).map(Histogram::count),
            Some(1)
        );
        assert_eq!(r.histogram(RESIDENT_OCCUPANCY), None);
        assert_eq!(snap.gauges, [(RESIDENT_PAGES.to_string(), 9)]);
    }

    #[test]
    fn executor_and_cache_events_are_counted() {
        let mut r = MetricsRegistry::new();
        r.record(
            0,
            &SimEvent::JobDone {
                index: 0,
                wall_ns: 500,
            },
        );
        r.record(0, &SimEvent::CacheQuery { hit: true });
        r.record(0, &SimEvent::CacheQuery { hit: false });
        r.record(0, &SimEvent::CacheQuarantine { lines: 4 });
        r.record(0, &SimEvent::SwapOut { process: 1 });
        r.record(0, &SimEvent::Recovered { total: 1 });
        r.record(0, &SimEvent::Degraded);
        assert_eq!(r.counter("jobs_done"), 1);
        assert_eq!(r.counter("cache_hits"), 1);
        assert_eq!(r.counter("cache_misses"), 1);
        assert_eq!(r.counter("cache_quarantined_lines"), 4);
        assert_eq!(r.counter("swap_outs"), 1);
        assert_eq!(r.counter("swapper_invocations"), 1);
        assert_eq!(r.counter("recovered_directives"), 1);
        assert_eq!(r.counter("degraded"), 1);
    }

    #[test]
    fn single_sample_percentiles_report_the_sample() {
        let mut r = MetricsRegistry::new();
        r.record_sample("x", 37);
        let snap = r.snapshot();
        let h = snap.histogram("x").expect("recorded");
        assert_eq!((h.p50, h.p90, h.p99, h.max), (37, 37, 37, 37));
        assert_eq!(h.count, 1);
        assert!((h.mean - 37.0).abs() < 1e-12);
    }

    #[test]
    fn u64_boundary_samples_do_not_overflow() {
        let mut r = MetricsRegistry::new();
        for v in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            r.record_sample("edge", v);
        }
        r.record_sample("edge", u64::MAX);
        let snap = r.snapshot();
        let h = snap.histogram("edge").expect("recorded");
        assert_eq!(h.count, 6);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.p99, u64::MAX);
        assert!(h.mean.is_finite());
    }

    #[test]
    fn shared_registry_round_trips_through_the_tracer_plumbing() {
        use crate::observe::SharedSink;
        let handle = shared_registry(MetricsRegistry::new());
        let shared_tracer: crate::observe::SharedTracer =
            Arc::new(Mutex::new(MetricsRegistry::new()));
        let mut sink = SharedSink::new(&shared_tracer);
        assert!(sink.enabled());
        assert!(sink.wants_refs(), "registry asks for per-ref events");
        sink.record(3, &SimEvent::Degraded);
        handle.lock().expect("lock").inc("manual");
        assert_eq!(snapshot_shared(&handle).counter("manual"), 1);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc("zeta");
        r.inc("alpha");
        r.record_sample("m", 2);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(r.snapshot(), s, "snapshotting is pure");
    }
}
