//! Trace pins for every workload at both scales.
//!
//! Each line of the fixture records one prepared program: its content
//! fingerprint, the op-level digests of its plain and instrumented
//! compressed traces, their op counts, the reference and directive
//! counts, and the virtual-space size. Any change to the interpreter,
//! the trace builder, the analysis or the instrumentation that moves a
//! single reference or directive shows up here, at paper scale too.
//!
//! Regenerate the fixture after an intentional trace change with:
//!
//! ```text
//! CDMM_BLESS=1 cargo test --test trace_fingerprints
//! ```

use cdmm_core::sweep::cache::fingerprint_compressed;
use cdmm_core::sweep::KeyHasher;
use cdmm_core::{prepare, PipelineConfig};
use cdmm_trace::CompressedTrace;
use cdmm_workloads::{all, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_fingerprints.txt"
);

fn digest(t: &CompressedTrace) -> String {
    let mut h = KeyHasher::new();
    fingerprint_compressed(&mut h, t);
    h.finish().to_hex()
}

/// One fixture line per workload at `scale`.
fn render(scale: Scale, label: &str) -> Vec<String> {
    all(scale)
        .iter()
        .map(|w| {
            let p = prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{} ({label}): {e}", w.name));
            let (plain, cd) = (p.plain_trace(), p.cd_trace());
            format!(
                "{} {label} prepared={} plain={} cd={} ops={}/{} refs={} directives={} pages={}",
                w.name,
                p.fingerprint().to_hex(),
                digest(plain),
                digest(cd),
                plain.op_count(),
                cd.op_count(),
                cd.ref_count(),
                cd.directive_count(),
                p.virtual_pages(),
            )
        })
        .collect()
}

#[test]
fn traces_match_checked_in_fingerprints() {
    let mut got = render(Scale::Small, "small");
    got.extend(render(Scale::Paper, "paper"));
    let got = got.join("\n") + "\n";
    if std::env::var_os("CDMM_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test trace_fingerprints`");
    let drifted: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == want.lines().count(),
        "traces drifted from the fingerprint fixture:\n{}\n\
         If the change is intentional, regenerate with \
         `CDMM_BLESS=1 cargo test --test trace_fingerprints` and commit the diff.",
        drifted.join("\n")
    );
}
