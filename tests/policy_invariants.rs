//! Property-style tests over the policy zoo and the front end, driven
//! by seeded exhaustive loops (deterministic, dependency-free).

use cdmm_lang::{analyze, parse, to_source};
use cdmm_trace::synth::{self, SplitMix64};
use cdmm_trace::{Event, PageId, PageRange, Trace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::stack::StackProfile;

/// A random reference-only trace over `max_pages` pages.
fn random_trace(rng: &mut SplitMix64, max_pages: u32, len: usize) -> Trace {
    let n = 1 + rng.below(len as u64 - 1) as usize;
    Trace::from_events(
        (0..n)
            .map(|_| Event::Ref(PageId(rng.below(u64::from(max_pages)) as u32)))
            .collect(),
    )
}

fn faults(trace: &Trace, mut policy: impl Policy) -> u64 {
    trace.refs().filter(|&p| policy.reference(p)).count() as u64
}

/// LRU's inclusion property: more frames never fault more.
#[test]
fn lru_has_no_belady_anomaly() {
    let mut rng = SplitMix64::new(0xB31A);
    for _ in 0..64 {
        let trace = random_trace(&mut rng, 24, 600);
        let m = 1 + rng.below(19) as usize;
        let small = faults(&trace, Lru::new(m));
        let large = faults(&trace, Lru::new(m + 1));
        assert!(
            large <= small,
            "LRU({}) {} > LRU({}) {}",
            m + 1,
            large,
            m,
            small
        );
    }
}

/// Belady's OPT lower-bounds LRU at every allocation, and can never
/// beat the cold-fault floor.
#[test]
fn opt_lower_bounds_lru_and_respects_cold_floor() {
    let mut rng = SplitMix64::new(0x0717);
    for _ in 0..64 {
        let trace = random_trace(&mut rng, 16, 400);
        let m = 1 + rng.below(17) as usize;
        let lru = faults(&trace, Lru::new(m));
        let opt = faults(&trace, Opt::for_trace(&trace, m));
        assert!(opt <= lru, "OPT {opt} > LRU {lru} at {m} frames");
        assert!(opt >= u64::from(trace.distinct_pages()));
    }
}

/// WS faults are monotone non-increasing in the window.
#[test]
fn ws_monotone_in_tau() {
    let mut rng = SplitMix64::new(0x7A0);
    for _ in 0..64 {
        let trace = random_trace(&mut rng, 24, 600);
        let tau = 1 + rng.below(199);
        let small = faults(&trace, WorkingSet::new(tau));
        let large = faults(&trace, WorkingSet::new(tau + 13));
        assert!(large <= small);
    }
}

/// The WS resident set size never exceeds the window or the page count.
#[test]
fn ws_resident_bounded() {
    let mut rng = SplitMix64::new(0x3B0B);
    for _ in 0..48 {
        let trace = random_trace(&mut rng, 24, 400);
        let tau = 1 + rng.below(99);
        let mut ws = WorkingSet::new(tau);
        for p in trace.refs() {
            ws.reference(p);
            assert!(ws.resident() as u64 <= tau + 1);
            assert!(ws.resident() <= trace.distinct_pages() as usize);
        }
    }
}

/// One stack-distance pass equals a direct LRU simulation at every
/// allocation.
#[test]
fn stack_profile_matches_direct_lru() {
    let mut rng = SplitMix64::new(0x57AC);
    for _ in 0..48 {
        let trace = random_trace(&mut rng, 20, 500);
        let profile = StackProfile::compute(&trace);
        for m in [1usize, 2, 3, 5, 8, 13, 21] {
            assert_eq!(profile.faults_at(m), faults(&trace, Lru::new(m)));
        }
    }
}

/// The synthetic generators are deterministic in their seed.
#[test]
fn synth_uniform_deterministic() {
    let mut rng = SplitMix64::new(0xDE7E);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let a = synth::uniform(16, 200, seed);
        let b = synth::uniform(16, 200, seed);
        assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// LOCK/UNLOCK edge cases: every malformed directive must be absorbed
// without a panic and counted as a recovery.
// ---------------------------------------------------------------------

/// A CD policy with 8 resident pages and the bounds validator armed.
fn pinned_policy() -> CdPolicy {
    let mut cd = CdPolicy::new(CdSelector::Outermost)
        .with_min_alloc(1)
        .with_virtual_pages(Some(8));
    cd.directive(&Event::Alloc(vec![cdmm_lang::ast::AllocArg {
        pi: 2,
        pages: 8,
    }]));
    for p in 0..8 {
        cd.reference(PageId(p));
    }
    cd
}

#[test]
fn double_unlock_recovers_and_counts() {
    let mut cd = pinned_policy();
    cd.directive(&Event::Lock {
        pj: 2,
        ranges: vec![PageRange::new(0, 2)],
    });
    cd.directive(&Event::Unlock {
        ranges: vec![PageRange::new(0, 2)],
    });
    assert_eq!(cd.recovered_directives(), 0, "matched pair is clean");
    cd.directive(&Event::Unlock {
        ranges: vec![PageRange::new(0, 2)],
    });
    assert_eq!(cd.recovered_directives(), 1, "double-unlock counted");
}

#[test]
fn lock_while_locked_relock_recovers_and_counts() {
    let mut cd = pinned_policy();
    cd.directive(&Event::Lock {
        pj: 2,
        ranges: vec![PageRange::new(0, 3)],
    });
    // A partial re-lock: overlaps the held [0,3) without either side
    // covering the other. It is honored (the newer PJ wins) but flagged.
    cd.directive(&Event::Lock {
        pj: 1,
        ranges: vec![PageRange::new(2, 5)],
    });
    assert_eq!(cd.recovered_directives(), 1, "partial re-lock counted");
    // Covering re-locks — the instrumenter's per-iteration idiom — stay
    // clean: [0,5) supersedes both held locks.
    cd.directive(&Event::Lock {
        pj: 1,
        ranges: vec![PageRange::new(0, 5)],
    });
    cd.directive(&Event::Lock {
        pj: 1,
        ranges: vec![PageRange::new(0, 5)],
    });
    assert_eq!(cd.recovered_directives(), 1, "superseding re-lock is clean");
}

#[test]
fn unlock_of_never_locked_array_recovers_and_counts() {
    let mut cd = pinned_policy();
    cd.directive(&Event::Unlock {
        ranges: vec![PageRange::new(5, 7)],
    });
    assert_eq!(cd.recovered_directives(), 1);
}

#[test]
fn lock_range_exceeding_virtual_pages_recovers_and_counts() {
    let mut cd = pinned_policy();
    // Partly out of range: clamped to [6, 8) and counted.
    cd.directive(&Event::Lock {
        pj: 2,
        ranges: vec![PageRange::new(6, 40)],
    });
    assert_eq!(cd.recovered_directives(), 1, "clamped range counted");
    assert!(!cd.is_degraded(), "clamping alone must not degrade");
    // Entirely out of range: discarded and counted.
    cd.directive(&Event::Lock {
        pj: 2,
        ranges: vec![PageRange::new(20, 40)],
    });
    assert_eq!(cd.recovered_directives(), 2, "unhonorable lock counted");
    // The pages named by the clamped lock really are pinned.
    cd.directive(&Event::Alloc(vec![cdmm_lang::ast::AllocArg {
        pi: 1,
        pages: 1,
    }]));
    assert!(!cd.reference(PageId(6)), "clamped lock pinned page 6");
    assert!(!cd.reference(PageId(7)), "clamped lock pinned page 7");
}

// ---------------------------------------------------------------------
// Random well-formed mini-FORTRAN programs.
// ---------------------------------------------------------------------

const STMTS: [&str; 5] = [
    "V(I) = V(I) + 1.0",
    "A(I,J) = V(I) * 2.0",
    "X = X + A(I,J)",
    "IF (X .GT. 4.0) X = 0.5 * X",
    "V(J) = ABS(X) + SQRT(V(I))",
];

/// A random well-formed mini-FORTRAN program.
fn random_program(rng: &mut SplitMix64) -> String {
    let count = 1 + rng.below(4) as usize;
    let body: String = (0..count)
        .map(|_| format!("    {}\n", STMTS[rng.below(STMTS.len() as u64) as usize]))
        .collect();
    let n = 2 + rng.below(7);
    let m = 2 + rng.below(7);
    if rng.below(2) == 0 {
        format!(
            "PROGRAM GEN\nPARAMETER (N = {n}, M = {m})\nDIMENSION A(N,N), V(N)\n\
             X = 1.0\nJ = 1\nDO 10 I = 1, N\n  DO 20 J = 1, M\n{body}20 CONTINUE\n10 CONTINUE\nEND\n"
        )
    } else {
        format!(
            "PROGRAM GEN\nPARAMETER (N = {n}, M = {m})\nDIMENSION A(N,N), V(N)\n\
             X = 1.0\nJ = 1\nDO 10 I = 1, N\n{body}10 CONTINUE\nEND\n"
        )
    }
}

/// Pretty-printing then reparsing is the identity on the AST, and the
/// printer is a fixpoint.
#[test]
fn parse_print_roundtrip() {
    let mut rng = SplitMix64::new(0x9090);
    for _ in 0..48 {
        let src = random_program(&mut rng);
        let parsed = parse(&src).expect("generated programs parse");
        let printed = to_source(&parsed);
        let reparsed = parse(&printed).expect("printed programs reparse");
        assert_eq!(parsed, reparsed);
        assert_eq!(printed, to_source(&reparsed));
    }
}

/// Generated programs pass semantic analysis and produce traces whose
/// pages stay inside the declared virtual space.
#[test]
fn generated_programs_trace_in_bounds() {
    let mut rng = SplitMix64::new(0xF0F0);
    for _ in 0..48 {
        let src = random_program(&mut rng);
        let mut program = parse(&src).expect("parses");
        // J may be used with M > N bounds; skip programs sema rejects or
        // the interpreter traps — the property is about the ones that run.
        if analyze(&mut program).is_err() {
            continue;
        }
        match cdmm_trace::trace_program_compressed(&src, cdmm_locality::PageGeometry::PAPER) {
            Ok(trace) => {
                let v = trace.virtual_pages();
                for p in trace.iter_refs() {
                    assert!(p.0 < v, "page {} outside virtual space {v}", p.0);
                }
            }
            Err(cdmm_trace::InterpError::OutOfBounds { .. }) => {}
            Err(other) => panic!("{other}"),
        }
    }
}
