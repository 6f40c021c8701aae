//! Registry pin: every `MetricsRegistry` a policy run fills, rendered
//! in full through the public API and compared against a checked-in
//! fixture.
//!
//! Rows cover the nine paper programs at `Scale::Paper` and
//! `Scale::Small` under CD (innermost and outermost), LRU, FIFO,
//! Clock, WS and PFF, at two operating points each. A row renders every
//! counter, every gauge, the per-PI `ALLOCATE` statistics, and for each
//! histogram its count, max, mean bits and non-empty buckets, so any
//! change to how a run feeds its registry — which engine answers, how
//! references are delivered — that moves one sample fails here with the
//! row named.
//!
//! Regenerate the fixture after an intentional change with:
//!
//! ```text
//! CDMM_BLESS=1 cargo test --test registry_digests
//! ```

use std::fmt::Write as _;

use cdmm_core::{prepare, PipelineConfig, PolicySpec, Prepared};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::{Histogram, MetricsRegistry, SimConfig};
use cdmm_workloads::{all, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/registry_digests.txt"
);

fn render_hist(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "n={} max={} mean={:#x} b=[",
        h.count(),
        h.max(),
        h.mean().to_bits()
    );
    for (i, (lo, hi, c)) in h.nonzero_buckets().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{lo}-{hi}:{c}");
    }
    out.push(']');
}

/// One fixture line: the registry's whole observable state.
fn render_registry(row: &str, r: &MetricsRegistry) -> String {
    let snap = r.snapshot();
    let mut out = format!("{row} |");
    for (name, _) in &snap.counters {
        let _ = write!(out, " c:{name}={}", r.counter(name));
    }
    for (name, _) in &snap.gauges {
        let _ = write!(out, " g:{name}={}", r.gauge(name).unwrap_or(0));
    }
    for (name, _) in &snap.hists {
        let _ = write!(out, " h:{name} ");
        render_hist(&mut out, r.histogram(name).expect("listed histogram"));
    }
    for (pi, s) in r.pi_stats() {
        let _ = write!(
            out,
            " pi{pi}:granted={},held={},swap={},pages ",
            s.granted, s.held_over, s.swap_needed
        );
        render_hist(&mut out, &s.grant_pages);
    }
    out
}

/// The two operating points of each fixed-space policy, relative to the
/// program's virtual size so both scales land in the paging regime, and
/// distinct even for the smallest programs.
fn frame_points(p: &Prepared) -> [usize; 2] {
    let v = p.virtual_pages() as usize;
    let small = (v / 8).max(2);
    [small, (v / 2).max(small + 1)]
}

fn rows(scale: Scale, scale_name: &str, out: &mut String) {
    for w in all(scale) {
        let p = prepare(w.name, &w.source, PipelineConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let [small, large] = frame_points(&p);
        let head = format!("{scale_name} {}", p.name());

        // CD at the paper's unlimited memory and under a hard frame
        // limit, where locks can break.
        for selector in [CdSelector::Innermost, CdSelector::Outermost] {
            for limit in [None, Some(small as u64)] {
                let mut cd = CdPolicy::new(selector)
                    .with_min_alloc(p.config().min_alloc)
                    .with_hard_limit(limit);
                let mut registry = MetricsRegistry::new();
                let cfg = SimConfig {
                    fault_service: p.config().fault_service,
                };
                cdmm_vmsim::run(p.cd_trace(), &mut cd, cfg, &mut registry, None)
                    .expect("no token, no stop");
                let limit = limit.map_or("none".to_string(), |l| l.to_string());
                let row = format!("{head} CD({selector:?}) limit={limit}");
                let _ = writeln!(out, "{}", render_registry(&row, &registry));
            }
        }
        let specs = [
            PolicySpec::Lru { frames: small },
            PolicySpec::Lru { frames: large },
            PolicySpec::Fifo { frames: small },
            PolicySpec::Fifo { frames: large },
            PolicySpec::Clock { frames: small },
            PolicySpec::Clock { frames: large },
            PolicySpec::Ws { tau: 100 },
            PolicySpec::Ws { tau: 2000 },
            PolicySpec::Pff { threshold: 50 },
            PolicySpec::Pff { threshold: 1000 },
        ];
        for spec in specs {
            let mut registry = MetricsRegistry::new();
            p.run_policy_with(spec, &mut registry);
            let row = format!("{head} {}", p.policy_label(spec));
            let _ = writeln!(out, "{}", render_registry(&row, &registry));
        }
    }
}

#[test]
fn registry_digests_match_the_fixture() {
    let mut got = String::new();
    rows(Scale::Small, "small", &mut got);
    rows(Scale::Paper, "paper", &mut got);
    if std::env::var_os("CDMM_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test registry_digests`");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "registry digest line {} drifted", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "registry digest row count changed"
    );
}
