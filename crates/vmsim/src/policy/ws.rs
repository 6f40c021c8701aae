//! Denning's Working Set policy.
//!
//! `WS(τ)` keeps exactly the pages referenced during the last `τ`
//! references. Allocation is variable: the resident set grows at faults
//! and shrinks as pages age out of the window.

use std::collections::{HashMap, VecDeque};

use cdmm_trace::{PageId, Run};

use crate::metrics::Metrics;
use crate::observe::SimEvent;
use crate::policy::Policy;
use crate::sim::Recorder;

/// The Working Set policy with window `τ` (in references).
///
/// Per-page state is a flat last-use table indexed directly by the
/// (dense) page id — one load per membership test, no hashing on the
/// per-reference path.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    tau: u64,
    clock: u64,
    /// `last_ref[p]` = clock of page `p`'s latest reference while in
    /// the working set; 0 = not resident (the clock starts at 1).
    last_ref: Vec<u64>,
    resident: usize,
    /// Reference history `(time, page)` pending expiry.
    expiry: VecDeque<(u64, PageId)>,
    tracing: bool,
    events: Vec<SimEvent>,
}

impl WorkingSet {
    /// Creates a WS policy with window `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero.
    pub fn new(tau: u64) -> Self {
        assert!(tau > 0, "WS window must be positive");
        WorkingSet {
            tau,
            clock: 0,
            last_ref: Vec::new(),
            resident: 0,
            expiry: VecDeque::new(),
            tracing: false,
            events: Vec::new(),
        }
    }

    /// The window parameter.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Releases every resident page (used when the multiprogramming
    /// driver swaps the process out). Keeps the last-use table's
    /// capacity so swapping back in allocates nothing.
    pub fn swap_out(&mut self) {
        self.last_ref.fill(0);
        self.resident = 0;
        self.expiry.clear();
    }

    /// Batch-applies `rem ≥ 1` steady cycle iterations of `body`
    /// (`period` references each), called once an iteration with a full
    /// in-cycle predecessor completed fault-free. From that point the
    /// inter-touch gap of every body page repeats each iteration, and a
    /// WS hit is a pure function of the gap — so no body page ever
    /// faults or expires again, and the only mid-span state changes are
    /// the deterministic expiries of *other* resident pages, accounted
    /// piecewise exactly like the stride-0 run kernel.
    fn batch_steady_iterations(
        &mut self,
        body: &[Run],
        rem: u64,
        period: u64,
        rec: &mut Recorder<'_>,
    ) {
        let c0 = self.clock;
        let end_clock = c0 + rem * period;
        // Each body page's final touch lands at its last within-iteration
        // clock offset (1-based), in the last skipped iteration.
        let mut last_off: HashMap<u32, u64> = HashMap::new();
        let mut off = 0u64;
        for r in body {
            r.for_each_page(|p| {
                off += 1;
                last_off.insert(p.0, off);
            });
        }
        let mut final_touch: Vec<(u64, PageId)> = last_off
            .into_iter()
            .map(|(p, o)| (c0 + (rem - 1) * period + o, PageId(p)))
            .collect();
        final_touch.sort_unstable();
        // Pin body pages at their final touch times up front: their
        // queued history entries become superseded no-ops, exactly as
        // the per-ref loop's every-iteration refresh achieves.
        for &(t, page) in &final_touch {
            self.last_ref[page.0 as usize] = t;
        }
        // Everything else expires at its per-ref pop tick `t + τ + 1`.
        self.expire_through(c0, end_clock, rec);
        // One history entry per body page — every earlier touch is
        // superseded by the final one, so only it ever matters.
        for &(t, page) in &final_touch {
            self.expiry.push_back((t, page));
        }
    }

    /// Accounts the fault-free references at clocks `c0 + 1 ..=
    /// end_clock`, during which no page is touched but the pinned ones,
    /// so the only state changes are the expiries of other pages at
    /// their per-ref pop ticks `t + τ + 1`. The resident size is
    /// piecewise constant between those ticks; with spans each segment
    /// is one [`Recorder::hits`], without them the segments sum locally
    /// and reach the recorder once. Pops arrive in strictly increasing
    /// `t` (ticks are unique), so the segments never overlap.
    fn expire_through(&mut self, c0: u64, end_clock: u64, rec: &mut Recorder<'_>) {
        let spans = rec.has_spans();
        let mut local = Metrics::new(0);
        // The last clock already accounted for.
        let mut done = c0;
        while let Some(&(t, page)) = self.expiry.front() {
            if t + self.tau >= end_clock {
                break;
            }
            self.expiry.pop_front();
            if self.last_ref[page.0 as usize] == t {
                self.last_ref[page.0 as usize] = 0;
                let t_pop = t + self.tau + 1;
                if spans {
                    rec.hits(self.resident, t_pop - 1 - done);
                    rec.evicted(1);
                } else {
                    local.record_hits(self.resident, t_pop - 1 - done);
                }
                self.resident -= 1;
                done = t_pop - 1;
            }
        }
        if spans {
            rec.hits(self.resident, end_clock - done);
        } else {
            local.record_hits(self.resident, end_clock - done);
            rec.merge(&local);
        }
        self.clock = end_clock;
    }

    /// Drops pages whose last reference fell before the window
    /// `[t - τ, t - 1]` preceding the reference being processed — the
    /// fault test of Denning's `WS(t-1, τ)`.
    fn expire(&mut self) {
        while let Some(&(t, page)) = self.expiry.front() {
            if t + self.tau < self.clock {
                self.expiry.pop_front();
                // Only drop the page if this history entry is its latest.
                if self.last_ref[page.0 as usize] == t {
                    self.last_ref[page.0 as usize] = 0;
                    self.resident -= 1;
                    if self.tracing {
                        self.events.push(SimEvent::Evict { page });
                    }
                }
            } else {
                break;
            }
        }
    }
}

impl Policy for WorkingSet {
    fn label(&self) -> String {
        format!("WS({})", self.tau)
    }

    fn reference(&mut self, page: PageId) -> bool {
        self.clock += 1;
        self.expire();
        let idx = page.0 as usize;
        if idx >= self.last_ref.len() {
            self.last_ref.resize(idx + 1, 0);
        }
        let fault = self.last_ref[idx] == 0;
        if fault {
            self.resident += 1;
        }
        self.last_ref[idx] = self.clock;
        self.expiry.push_back((self.clock, page));
        fault
    }

    fn resident(&self) -> usize {
        self.resident
    }

    fn swap_out(&mut self) {
        WorkingSet::swap_out(self);
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.events.clear();
        }
    }

    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        out.append(&mut self.events);
    }

    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, rec: &mut Recorder<'_>) {
        // Stride ≠ 0 runs touch distinct pages, each needing its own
        // last-use write and history entry — nothing to batch. An exact
        // event stream needs per-eviction events in per-ref order.
        if rec.per_ref(self.tracing) || len <= 1 || stride != 0 {
            return crate::policy::reference_run_per_ref(self, start, stride, len, rec);
        }
        // First reference per-ref: it runs the expiry scan, grows the
        // table, and settles the fault.
        let fault = self.reference(start);
        rec.reference(self, fault);
        let idx = start.0 as usize;
        let end_clock = self.clock + (len as u64 - 1);
        // Pin the run page at its *final* reference time up front: its
        // older history entries become superseded no-ops, which is
        // exactly what the per-ref loop's every-tick refresh achieves
        // (τ ≥ 1 means a page referenced every tick can never age out).
        self.last_ref[idx] = end_clock;
        // Other pages still expire mid-run at their per-ref pop ticks.
        self.expire_through(self.clock, end_clock, rec);
        // One history entry for the whole run: per-ref, every mid-run
        // entry is superseded by the next tick's refresh, so only the
        // final one ever matters.
        self.expiry.push_back((end_clock, start));
    }

    fn reference_cycle(&mut self, body: &[Run], reps: u32, rec: &mut Recorder<'_>) {
        if rec.per_ref(self.tracing) {
            return crate::policy::reference_cycle_per_run(self, body, reps, rec);
        }
        let period: u64 = body.iter().map(|r| r.len as u64).sum();
        for it in 0..reps {
            let faults_before = rec.metrics().faults;
            for r in body {
                self.reference_run(r.start, r.stride, r.len, rec);
            }
            // WS steadiness needs a full in-cycle predecessor iteration
            // (`it ≥ 1`): hits are decided by inter-touch gaps, and the
            // gaps only become periodic once the previous touch also lay
            // inside the cycle.
            if it >= 1 && rec.metrics().faults == faults_before && it + 1 < reps {
                self.batch_steady_iterations(body, (reps - 1 - it) as u64, period, rec);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_trace::synth;

    fn run(ws: &mut WorkingSet, pages: &[u32]) -> Vec<bool> {
        pages.iter().map(|&p| ws.reference(PageId(p))).collect()
    }

    #[test]
    fn window_one_only_keeps_current_page() {
        let mut ws = WorkingSet::new(1);
        let f = run(&mut ws, &[1, 1, 2, 1]);
        assert_eq!(f, vec![true, false, true, true]);
        assert!(ws.resident() <= 2);
    }

    #[test]
    fn pages_age_out_after_tau() {
        let mut ws = WorkingSet::new(3);
        run(&mut ws, &[1, 2, 3, 4]);
        // Page 1 was last referenced at t=1; the fifth reference sits
        // outside its window (1 + 3 < 5), so it refaults.
        assert_eq!(ws.resident(), 4);
        assert!(ws.reference(PageId(1)), "page 1 aged out");
    }

    #[test]
    fn re_reference_refreshes_age() {
        let mut ws = WorkingSet::new(3);
        run(&mut ws, &[1, 2, 1, 3]);
        // Page 1 refreshed at t=3, still in the window at t=4.
        assert!(!ws.reference(PageId(1)));
    }

    #[test]
    fn large_window_holds_whole_program() {
        let t = synth::cyclic(8, 50);
        let mut ws = WorkingSet::new(100_000);
        let faults = t.refs().filter(|&p| ws.reference(p)).count();
        assert_eq!(faults, 8, "only cold faults");
        assert_eq!(ws.resident(), 8);
    }

    #[test]
    fn ws_size_tracks_locality() {
        // Phase 1 uses 10 pages, phase 2 uses 2: with a modest window the
        // WS shrinks after the transition.
        let t = synth::phased(
            &[
                cdmm_trace::synth::Phase {
                    base: 0,
                    pages: 10,
                    refs: 5_000,
                },
                cdmm_trace::synth::Phase {
                    base: 10,
                    pages: 2,
                    refs: 5_000,
                },
            ],
            11,
        );
        let mut ws = WorkingSet::new(200);
        for p in t.refs() {
            ws.reference(p);
        }
        assert!(
            ws.resident() <= 3,
            "after the transition only the small set remains"
        );
    }

    #[test]
    fn faults_monotone_in_tau() {
        let t = synth::uniform(16, 5_000, 9);
        let mut last = u64::MAX;
        for tau in [1u64, 4, 16, 64, 256, 1024] {
            let mut ws = WorkingSet::new(tau);
            let f = t.refs().filter(|&p| ws.reference(p)).count() as u64;
            assert!(f <= last, "WS faults must not increase with tau");
            last = f;
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WorkingSet::new(0);
    }
}
