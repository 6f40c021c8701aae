//! The memory-management policy zoo.
//!
//! [`Policy`] is the uniform interface the simulator drives. The paper's
//! three contenders are [`lru::Lru`], [`ws::WorkingSet`] and
//! [`cd::CdPolicy`]; the related-work policies discussed in the paper's
//! introduction ([`fifo::Fifo`], [`opt::Opt`], [`pff::Pff`] and the WS
//! variants in [`ws_variants`]) are provided for baselines and ablations,
//! along with [`clock::Clock`] (the era's practical LRU approximation)
//! and [`vmin::Vmin`] (the optimal variable-space frontier the paper's
//! DMIN reference formalizes).

pub mod cd;
pub mod clock;
pub mod fifo;
pub mod lru;
pub mod opt;
pub mod pff;
pub mod vmin;
pub mod ws;
pub mod ws_variants;

use cdmm_trace::Event;
use cdmm_trace::{PageId, Run};

use crate::observe::SimEvent;
use crate::recency::RecencySet;
use crate::sim::Recorder;

/// A demand-paging memory-management policy.
///
/// The simulator calls [`Policy::reference`] once per page reference and
/// [`Policy::directive`] for each directive event; policies other than CD
/// ignore directives (the default).
pub trait Policy {
    /// A short human-readable name, e.g. `"LRU(26)"`.
    fn label(&self) -> String;

    /// Processes one page reference; returns `true` on a page fault.
    fn reference(&mut self, page: PageId) -> bool;

    /// Current resident-set size in pages.
    fn resident(&self) -> usize;

    /// Processes a directive event (ALLOCATE / LOCK / UNLOCK).
    fn directive(&mut self, event: &Event) {
        let _ = event;
    }

    /// How many invalid directives the policy clamped or discarded so
    /// far. Policies without a directive validator report 0.
    fn recovered_directives(&self) -> u64 {
        0
    }

    /// True once the policy has stopped trusting its directive stream
    /// and fallen back to plain demand paging.
    fn is_degraded(&self) -> bool {
        false
    }

    /// Turns in-policy event collection on or off. Instrumented
    /// policies start buffering [`SimEvent`]s when enabled; policies
    /// without emission sites ignore the call (the default).
    fn set_tracing(&mut self, on: bool) {
        let _ = on;
    }

    /// Moves the events buffered since the last drain into `out`
    /// (in emission order). The default buffers nothing.
    fn drain_events(&mut self, out: &mut Vec<SimEvent>) {
        let _ = out;
    }

    /// Processes one constant-stride run of `len` references — `start,
    /// start+stride, …` — accounting into `rec` exactly what the
    /// per-reference driver loop would: one
    /// [`crate::Metrics::record`] after each reference, plus the
    /// degraded-reference count, and for an aggregating tracer the
    /// references as [`crate::observe::RefSpan`]s.
    ///
    /// The default decodes the run reference by reference; the three
    /// paper policies (CD, LRU, WS) override it with closed-form batch
    /// kernels and fall back to this decode in the hard cases. Whatever
    /// path is taken, the resulting policy state, metrics and spans must
    /// be identical to the per-ref loop's — the contract the
    /// `run_level_equivalence` differential harness pins.
    fn reference_run(&mut self, start: PageId, stride: i32, len: u32, rec: &mut Recorder<'_>) {
        reference_run_per_ref(self, start, stride, len, rec);
    }

    /// Processes a cycle — the run sequence `body` repeated `reps`
    /// times — with the same byte-identical metrics contract as
    /// [`Policy::reference_run`].
    ///
    /// The default replays the body run by run every iteration. The
    /// paper policies override it with a *steady-state* kernel: they
    /// execute iterations through [`Policy::reference_run`] until one
    /// completes without a fault, prove from that that every remaining
    /// iteration is identical, and account for all of them at once —
    /// the run-level counterpart of a loop reaching its resident
    /// working set.
    fn reference_cycle(&mut self, body: &[Run], reps: u32, rec: &mut Recorder<'_>) {
        reference_cycle_per_run(self, body, reps, rec);
    }

    /// Releases the policy's entire resident set — the multiprogrammed
    /// swapper's load-control action against this process. Page-table
    /// knowledge survives (the pages are known, just no longer
    /// resident); the process faults its set back in after readmission.
    /// Policies without an explicit release (the fixed-space baselines)
    /// ignore the call — the scheduler still stops charging their
    /// frames while they are swapped.
    fn swap_out(&mut self) {}

    /// Tells a pool-aware policy how many frames of the shared pool are
    /// currently free for its next `ALLOCATE` decision. Only CD uses
    /// this (its Figure-6 flow grants against the pool); everyone else
    /// ignores it.
    fn set_available(&mut self, frames: u64) {
        let _ = frames;
    }

    /// True when the most recent `ALLOCATE` directive could not be
    /// satisfied from the available pool and asked for the swapper
    /// (CD's `SwapNeeded` outcome). The scheduler checks this after
    /// every directive it forwards; the default never asks.
    fn swap_requested(&self) -> bool {
        false
    }
}

/// The iteration-by-iteration fallback every cycle kernel shares:
/// replays the body through [`Policy::reference_run`] `reps` times.
/// Public so differential tests can drive it as the oracle against an
/// overridden [`Policy::reference_cycle`].
pub fn reference_cycle_per_run<P: Policy + ?Sized>(
    policy: &mut P,
    body: &[Run],
    reps: u32,
    rec: &mut Recorder<'_>,
) {
    for _ in 0..reps {
        for r in body {
            policy.reference_run(r.start, r.stride, r.len, rec);
        }
    }
}

/// The per-reference fallback every run kernel shares: decodes the run
/// and replicates the driver loop exactly (reference → record →
/// degraded accounting). Public so differential tests can drive it as
/// the oracle against an overridden [`Policy::reference_run`].
pub fn reference_run_per_ref<P: Policy + ?Sized>(
    policy: &mut P,
    start: PageId,
    stride: i32,
    len: u32,
    rec: &mut Recorder<'_>,
) {
    let mut p = start.0 as i64;
    let stride = stride as i64;
    for _ in 0..len {
        let fault = policy.reference(PageId(p as u32));
        rec.reference(policy, fault);
        p += stride;
    }
}

/// How a stride ≠ 0 run (all pages distinct) relates to a recency set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunClass {
    /// Every run page is resident: touches only, no faults possible.
    AllHit,
    /// No run page is resident: every reference faults, and since the
    /// pages are distinct none is revisited after an eviction.
    AllMiss,
    /// A mix — only the per-ref decode gets the interleaving right.
    Mixed,
}

/// Classifies a stride ≠ 0 run against the current resident set. Sound
/// because runs with nonzero stride visit distinct pages: an `AllHit`
/// run causes no evictions (hits never evict), so residency cannot
/// change mid-run, and an `AllMiss` run never revisits what it evicts.
pub(crate) fn classify_run(set: &RecencySet, start: PageId, stride: i32, len: u32) -> RunClass {
    let mut p = start.0 as i64;
    let stride = stride as i64;
    let first = set.contains(PageId(p as u32));
    for _ in 1..len {
        p += stride;
        if set.contains(PageId(p as u32)) != first {
            return RunClass::Mixed;
        }
    }
    if first {
        RunClass::AllHit
    } else {
        RunClass::AllMiss
    }
}

/// Applies an all-hit stride ≠ 0 run: touch each page in order (the
/// final LRU order must match the per-ref loop) and record the hits at
/// the unchanged resident size.
pub(crate) fn batch_all_hit(
    set: &mut RecencySet,
    start: PageId,
    stride: i32,
    len: u32,
    rec: &mut Recorder<'_>,
) {
    let mut p = start.0 as i64;
    let stride = stride as i64;
    for _ in 0..len {
        let hit = set.touch(PageId(p as u32));
        debug_assert!(hit, "classified AllHit");
        p += stride;
    }
    rec.hits(set.len(), len as u64);
}

/// Applies an all-miss stride ≠ 0 run against an LRU set capped at
/// `cap` frames (`u64::MAX` = uncapped), with metrics in closed form
/// ([`Recorder::miss_ramp`]).
///
/// Per-ref, reference `i` leaves `min(r0 + i, cap)` pages resident
/// (the cap evicts from the LRU end; for CD with `r0 > cap` — possible
/// after an UNLOCK with no intervening miss — the first miss trims all
/// the way down, which the same formula covers). The final list is:
/// the surviving old pages (oldest evicted first) followed by the run
/// pages in run order — run pages are always younger than every
/// survivor, and an evicted run page (only possible when `len > cap`)
/// is never revisited because the pages are distinct.
pub(crate) fn batch_all_miss(
    set: &mut RecencySet,
    start: PageId,
    stride: i32,
    len: u32,
    cap: u64,
    rec: &mut Recorder<'_>,
) {
    let r0 = set.len() as u64;
    let k = len as u64;
    rec.miss_ramp(r0, k, cap);

    let evict = (r0 + k).saturating_sub(cap);
    let stride64 = stride as i64;
    if evict > r0 {
        // The whole old set goes, and so do the first `k - cap` run
        // pages; only the newest `cap` run pages survive.
        set.clear();
        let keep = cap; // evict > r0 ⟺ k > cap
        let mut p = start.0 as i64 + stride64 * (k - keep) as i64;
        for _ in 0..keep {
            set.touch(PageId(p as u32));
            p += stride64;
        }
    } else {
        for _ in 0..evict {
            set.pop_lru();
        }
        let mut p = start.0 as i64;
        for _ in 0..len {
            set.touch(PageId(p as u32));
            p += stride64;
        }
    }
}
