//! Performance indexes: page faults `PF`, mean memory `MEM`, and
//! space-time cost `ST`.
//!
//! The paper's definitions (Section 5): `PF` is the page-fault count,
//! `MEM` is the average memory allocated to the program, and `ST` is the
//! space-time cost including a fault service time of 2000 memory
//! references. We accumulate
//!
//! ```text
//! MEM = (1/R) Σ_t m(t)                 (average over reference time)
//! ST  = Σ_t m(t) + D Σ_{faults} m(t)   (memory held during fault service)
//! ```
//!
//! where `m(t)` is the resident-set size after processing reference `t`
//! and `D` is the fault-service time.

/// Accumulated simulation results for one program under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metrics {
    /// References processed (the paper's `R`).
    pub refs: u64,
    /// Page faults (`PF`).
    pub faults: u64,
    /// `Σ m(t)` over reference time.
    pub mem_integral: u128,
    /// `Σ m(t)` over fault events only.
    pub fault_mem_integral: u128,
    /// Fault service time `D` used for the ST computation.
    pub fault_service: u64,
    /// Largest resident set seen.
    pub peak_resident: usize,
    /// Invalid directives the policy clamped or discarded instead of
    /// failing on (0 for policies without a validator, and for
    /// well-formed directive streams).
    pub recovered_directives: u64,
    /// References processed after the policy abandoned directive
    /// guidance and fell back to plain LRU demand paging.
    pub degraded_refs: u64,
}

impl Metrics {
    /// Creates an empty accumulator with the given fault-service time.
    pub fn new(fault_service: u64) -> Self {
        Metrics {
            fault_service,
            ..Default::default()
        }
    }

    /// Records one processed reference.
    #[inline]
    pub fn record(&mut self, resident: usize, fault: bool) {
        self.refs += 1;
        self.mem_integral += resident as u128;
        if fault {
            self.faults += 1;
            self.fault_mem_integral += resident as u128;
        }
        self.peak_resident = self.peak_resident.max(resident);
    }

    /// Records `n` non-faulting references at a constant resident size —
    /// the run-level kernels' all-hit batch. Equivalent to calling
    /// [`Metrics::record`]`(resident, false)` `n` times.
    #[inline]
    pub fn record_hits(&mut self, resident: usize, n: u64) {
        if n == 0 {
            return;
        }
        self.refs += n;
        self.mem_integral += resident as u128 * n as u128;
        self.peak_resident = self.peak_resident.max(resident);
    }

    /// Records `n` faulting references whose resident sizes (taken after
    /// each fault is serviced) sum to `mem` and peak at `peak` — the
    /// run-level kernels' all-miss batch, with the per-reference sizes
    /// computed in closed form by the caller.
    #[inline]
    pub fn record_fault_span(&mut self, n: u64, mem: u128, peak: usize) {
        if n == 0 {
            return;
        }
        self.refs += n;
        self.faults += n;
        self.mem_integral += mem;
        self.fault_mem_integral += mem;
        self.peak_resident = self.peak_resident.max(peak);
    }

    /// Folds in the references another accumulator recorded: every
    /// count and integral adds, the peak is the larger one.
    pub fn merge(&mut self, other: &Metrics) {
        self.refs += other.refs;
        self.faults += other.faults;
        self.mem_integral += other.mem_integral;
        self.fault_mem_integral += other.fault_mem_integral;
        self.peak_resident = self.peak_resident.max(other.peak_resident);
        self.recovered_directives += other.recovered_directives;
        self.degraded_refs += other.degraded_refs;
    }

    /// Mean resident memory over reference time (`MEM`).
    pub fn mean_mem(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.mem_integral as f64 / self.refs as f64
        }
    }

    /// Space-time cost (`ST`).
    pub fn st_cost(&self) -> f64 {
        self.mem_integral as f64 + self.fault_service as f64 * self.fault_mem_integral as f64
    }

    /// Fault rate (faults per reference).
    pub fn fault_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.faults as f64 / self.refs as f64
        }
    }

    /// The paper's `%ST` comparison: how much more space-time `self`
    /// costs than `base`, in percent.
    pub fn st_excess_pct(&self, base: &Metrics) -> f64 {
        let b = base.st_cost();
        if b == 0.0 {
            0.0
        } else {
            (self.st_cost() - b) / b * 100.0
        }
    }

    /// The paper's `%MEM` comparison in percent.
    pub fn mem_excess_pct(&self, base: &Metrics) -> f64 {
        let b = base.mean_mem();
        if b == 0.0 {
            0.0
        } else {
            (self.mean_mem() - b) / b * 100.0
        }
    }

    /// The paper's `ΔPF` comparison.
    pub fn pf_excess(&self, base: &Metrics) -> i64 {
        self.faults as i64 - base.faults as i64
    }
}

/// Execution-engine counters for one sweep or table run: result-cache
/// hits and misses plus per-point simulation wall time.
///
/// Kept separate from [`Metrics`] on purpose: a `Metrics` value must be
/// bit-identical whether it was recomputed or recalled from cache, so
/// nondeterministic wall-clock counters cannot live inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Points answered from the result cache.
    pub cache_hits: u64,
    /// Points that missed the cache.
    pub cache_misses: u64,
    /// Points actually simulated (cache misses that ran).
    pub sim_points: u64,
    /// Total wall time spent simulating, in nanoseconds.
    pub sim_wall_ns: u64,
}

impl ExecStats {
    /// Cache hit rate in percent (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64 * 100.0
        }
    }

    /// Mean wall time per simulated point, in nanoseconds.
    pub fn mean_point_ns(&self) -> u64 {
        self.sim_wall_ns.checked_div(self.sim_points).unwrap_or(0)
    }

    /// The counter delta since an earlier snapshot.
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            sim_points: self.sim_points - earlier.sim_points,
            sim_wall_ns: self.sim_wall_ns - earlier.sim_wall_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_mem_and_faults() {
        let mut m = Metrics::new(2000);
        m.record(1, true);
        m.record(2, false);
        m.record(3, true);
        assert_eq!(m.refs, 3);
        assert_eq!(m.faults, 2);
        assert_eq!(m.mem_integral, 6);
        assert_eq!(m.fault_mem_integral, 4);
        assert_eq!(m.peak_resident, 3);
        assert!((m.mean_mem() - 2.0).abs() < 1e-12);
        assert!((m.st_cost() - (6.0 + 2000.0 * 4.0)).abs() < 1e-9);
        assert!((m.fault_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_helpers_match_per_ref_record() {
        // Hits at constant size.
        let mut batch = Metrics::new(2000);
        batch.record_hits(7, 5);
        let mut one = Metrics::new(2000);
        for _ in 0..5 {
            one.record(7, false);
        }
        assert_eq!(batch, one);

        // An all-miss ramp 3, 4, 5 (sizes after each fault).
        let mut batch = Metrics::new(2000);
        batch.record_fault_span(3, 3 + 4 + 5, 5);
        let mut one = Metrics::new(2000);
        for r in [3, 4, 5] {
            one.record(r, true);
        }
        assert_eq!(batch, one);
    }

    #[test]
    fn merging_split_accumulators_equals_one() {
        let sizes = [(1, true), (2, true), (2, false), (5, true), (3, false)];
        let mut one = Metrics::new(2000);
        let (mut a, mut b) = (Metrics::new(2000), Metrics::new(2000));
        for (i, &(r, fault)) in sizes.iter().enumerate() {
            one.record(r, fault);
            if i % 2 == 0 { &mut a } else { &mut b }.record(r, fault);
        }
        a.merge(&b);
        assert_eq!(a, one);
    }

    #[test]
    fn zero_length_batches_do_not_touch_peak() {
        let mut m = Metrics::new(2000);
        m.record_hits(10, 0);
        m.record_fault_span(0, 99, 99);
        assert_eq!(m, Metrics::new(2000), "empty batches are no-ops");
    }

    #[test]
    fn comparisons_match_paper_formulas() {
        let mut cd = Metrics::new(2000);
        for _ in 0..100 {
            cd.record(10, false);
        }
        let mut lru = Metrics::new(2000);
        for _ in 0..100 {
            lru.record(25, false);
        }
        assert!((lru.mem_excess_pct(&cd) - 150.0).abs() < 1e-9);
        assert!((lru.st_excess_pct(&cd) - 150.0).abs() < 1e-9);
        assert_eq!(lru.pf_excess(&cd), 0);
    }

    #[test]
    fn exec_stats_rates_and_deltas() {
        let a = ExecStats {
            cache_hits: 9,
            cache_misses: 1,
            sim_points: 1,
            sim_wall_ns: 5000,
        };
        assert!((a.hit_rate() - 90.0).abs() < 1e-9);
        assert_eq!(a.mean_point_ns(), 5000);
        let zero = ExecStats::default();
        assert_eq!(zero.hit_rate(), 0.0);
        assert_eq!(zero.mean_point_ns(), 0);
        let d = a.since(&ExecStats {
            cache_hits: 4,
            cache_misses: 1,
            sim_points: 1,
            sim_wall_ns: 2000,
        });
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.sim_wall_ns, 3000);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = Metrics::new(2000);
        assert_eq!(m.mean_mem(), 0.0);
        assert_eq!(m.st_cost(), 0.0);
        assert_eq!(m.fault_rate(), 0.0);
        let other = Metrics::new(2000);
        assert_eq!(other.st_excess_pct(&m), 0.0);
        assert_eq!(other.mem_excess_pct(&m), 0.0);
    }
}
