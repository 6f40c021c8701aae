//! The nine numerical FORTRAN programs of the paper's evaluation
//! (Section 5), reconstructed in the mini-FORTRAN language.
//!
//! The authors traced programs from UIARL, MINPACK, EISPACK and FISHPACK:
//! `MAIN`, `FDJAC`, `TQL`, `FIELD`, `INIT`, `APPROX`, `HYBRJ`, `CONDUCT`
//! and `HWSCRT`. The sources were never published; each module here
//! re-implements the *published algorithm* the program came from (e.g.
//! MINPACK's forward-difference Jacobian for `FDJAC`) with array sizes
//! chosen so the virtual-space footprints match where the paper reports
//! them (`CONDUCT` ≈ 270 pages, `HWSCRT` ≈ 69 pages at 256-byte pages).
//! What the memory policies see — loop structure, reference order,
//! footprint — is therefore faithful to the originals.
//!
//! Every workload is parameterized by a [`Scale`]: [`Scale::Paper`] for
//! the experiment harness and [`Scale::Small`] for fast unit tests.
//!
//! # Examples
//!
//! ```
//! use cdmm_workloads::{all, Scale};
//!
//! let programs = all(Scale::Small);
//! assert_eq!(programs.len(), 9);
//! for w in &programs {
//!     cdmm_lang::parse(&w.source).expect("every workload parses");
//! }
//! ```

pub mod programs;

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Full-size runs for the experiment harness (traces of 10⁵–10⁶
    /// references, footprints comparable to the paper's).
    Paper,
    /// Reduced sizes for unit and integration tests.
    Small,
}

/// How a Table-1 variant selects among each `ALLOCATE`'s requests —
/// a policy-neutral mirror of the CD selector (the paper's "different
/// sets of directives").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectiveLevel {
    /// Honor the outermost (largest) request.
    Outermost,
    /// Honor the innermost (smallest) request.
    Innermost,
    /// Honor the request at or just below this priority index.
    AtLevel(u32),
}

/// One directive-set variant of a workload (the paper's `MAIN1`,
/// `FDJAC1`, `TQL2`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Variant name as printed in the paper's tables.
    pub name: &'static str,
    /// Which request each `ALLOCATE` honors.
    pub level: DirectiveLevel,
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Program name as printed in the paper's tables.
    pub name: &'static str,
    /// Origin and what the program computes.
    pub description: &'static str,
    /// Mini-FORTRAN source text.
    pub source: String,
    /// Directive-set variants; the first is the default one used when a
    /// table row just says the program's name.
    pub variants: Vec<Variant>,
}

impl Workload {
    /// Looks up a variant by table-row name (`"MAIN3"`); the bare program
    /// name maps to the first variant.
    pub fn variant(&self, name: &str) -> Option<Variant> {
        if name == self.name {
            return self.variants.first().copied();
        }
        self.variants.iter().find(|v| v.name == name).copied()
    }
}

/// All nine workloads at the given scale, in the paper's table order.
pub fn all(scale: Scale) -> Vec<Workload> {
    vec![
        programs::main_::workload(scale),
        programs::fdjac::workload(scale),
        programs::tql::workload(scale),
        programs::field::workload(scale),
        programs::init::workload(scale),
        programs::approx::workload(scale),
        programs::hybrj::workload(scale),
        programs::conduct::workload(scale),
        programs::hwscrt::workload(scale),
    ]
}

/// Looks a workload up by name (case-insensitive).
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    let upper = name.to_ascii_uppercase();
    all(scale).into_iter().find(|w| w.name == upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_locality::PageGeometry;

    #[test]
    fn all_workloads_parse_and_check() {
        for scale in [Scale::Small, Scale::Paper] {
            for w in all(scale) {
                let mut p = cdmm_lang::parse(&w.source)
                    .unwrap_or_else(|e| panic!("{} ({scale:?}): {e}", w.name));
                cdmm_lang::analyze(&mut p)
                    .unwrap_or_else(|e| panic!("{} ({scale:?}): {e}", w.name));
            }
        }
    }

    /// Tracing every program at small scale catches out-of-bounds
    /// subscripts and runaway loops in the program text.
    #[test]
    fn every_workload_traces_in_bounds() {
        for w in all(Scale::Small) {
            let min_refs = match w.name {
                "FDJAC" | "FIELD" | "INIT" | "HWSCRT" => 500,
                _ => 1_000,
            };
            let t = cdmm_trace::trace_program_compressed(&w.source, PageGeometry::PAPER)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(t.ref_count() > min_refs, "{}", w.name);
        }
    }

    #[test]
    fn names_match_paper_tables() {
        let names: Vec<&str> = all(Scale::Small).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec!["MAIN", "FDJAC", "TQL", "FIELD", "INIT", "APPROX", "HYBRJ", "CONDUCT", "HWSCRT"]
        );
    }

    #[test]
    fn variant_lookup() {
        let main = by_name("main", Scale::Small).unwrap();
        assert!(main.variant("MAIN1").is_some());
        assert!(
            main.variant("MAIN").is_some(),
            "bare name = default variant"
        );
        assert!(main.variant("MAIN9").is_none());
        assert!(by_name("nosuch", Scale::Small).is_none());
    }

    #[test]
    fn every_workload_has_loops_to_direct() {
        use cdmm_locality::analyze_program;
        for w in all(Scale::Small) {
            let a = analyze_program(&w.source, PageGeometry::PAPER)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                a.tree.max_depth() >= 2,
                "{} needs nested loops for the CD policy to matter",
                w.name
            );
        }
    }
}
