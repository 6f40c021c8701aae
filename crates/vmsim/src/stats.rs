//! Quantitative observability: a registry of counters, gauges, and
//! log-bucketed streaming histograms fed from the simulator's existing
//! event stream.
//!
//! PR 3's [`crate::observe`] layer gave the simulator typed events; this
//! module turns those events into *distributions* — the measurement the
//! paper's own evaluation (Section 5, Tables 2–4) is built on. A
//! [`MetricsRegistry`] is an ordinary [`Tracer`], so it attaches at the
//! same decision points the event sinks already use and shares the
//! zero-cost-when-disabled untraced hot loop: a run without a registry
//! executes no stats code at all.
//!
//! Tracked out of the box (names are stable, they appear in snapshots,
//! scorecards, and `BENCH_*.json` artifacts):
//!
//! - `fault_interarrival` — references between consecutive faults.
//! - `resident_occupancy` — resident-set size sampled at every
//!   reference (the registry opts into [`Tracer::wants_refs`]).
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

use crate::observe::{AllocDecision, Histogram, SimEvent, Tracer};

/// Histogram name: references between consecutive faults.
pub const FAULT_INTERARRIVAL: &str = "fault_interarrival";
/// Histogram name: resident-set size at every reference.
pub const RESIDENT_OCCUPANCY: &str = "resident_occupancy";
/// Histogram name: references a lock stayed held before its unlock.
pub const LOCK_DWELL: &str = "lock_dwell";

/// Per-priority-index `ALLOCATE` statistics: Figure 6 outcome counts
/// plus the distribution of granted request sizes.
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    pi: BTreeMap<u32, PiStats>,
    last_fault_at: Option<u64>,
    /// Open locks, oldest first: clock at `LOCK` time. `UNLOCK` closes
    /// newest-first (locks nest), recording one dwell sample per lock.
    open_locks: Vec<u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments a named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets a named gauge to its current value.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Records one sample into a named histogram.
    pub fn record_sample(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// A counter's current value (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's current value, when it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// A named histogram, when any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Per-priority-index `ALLOCATE` statistics.
    pub fn pi_stats(&self) -> &BTreeMap<u32, PiStats> {
        &self.pi
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.pi.is_empty()
    }

    /// Freezes the current state into an ordered, render-ready
    /// [`RegistrySnapshot`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&k, h)| (k.to_string(), HistogramSummary::of(h)))
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
        // Resident-set occupancy is a per-reference distribution.
        true
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        match event {
            SimEvent::Ref { resident, .. } => {
                self.inc("refs");
                self.record_sample(RESIDENT_OCCUPANCY, u64::from(*resident));
                self.set_gauge("resident_pages", u64::from(*resident));
            }
            SimEvent::Fault { .. } => {
                self.inc("faults");
                if let Some(prev) = self.last_fault_at {
                    self.record_sample(FAULT_INTERARRIVAL, at.saturating_sub(prev));
                }
                self.last_fault_at = Some(at);
            }
            SimEvent::Evict { .. } => self.inc("evictions"),
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
            SimEvent::ShardClaimed { stolen, .. } => {
                self.inc("shard_claims");
                if *stolen {
                    self.inc("shard_steals");
                }
            }
            SimEvent::WorkerState { .. } => {}
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
