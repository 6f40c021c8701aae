//! Numerical validation of the traced workloads: the reference traces
//! come from *real* computations, so we can check the computations too.
//! A tracer that emitted the right pages for the wrong values would pass
//! the paging tests; these catch it.

use cdmm_locality::PageGeometry;
use cdmm_trace::trace_program_with_state;
use cdmm_workloads::{by_name, Scale};

fn state_of(name: &str) -> cdmm_trace::ProgramState {
    let w = by_name(name, Scale::Small).unwrap();
    trace_program_with_state(&w.source, PageGeometry::PAPER)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .1
}

#[test]
fn fdjac_matches_the_analytic_jacobian() {
    // The Broyden tridiagonal function f_i = (3 - 2 x_i) x_i - x_{i-1}
    // - 2 x_{i+1} + 1 has analytic Jacobian: diag 3 - 4 x_i, lower -1,
    // upper -2. At the base point x = -1, diag = 7.
    let s = state_of("FDJAC");
    let n = 12u64;
    for j in 2..n {
        let diag = s.element("FJAC", j, j).unwrap();
        assert!((diag - 7.0).abs() < 1e-2, "diag {j}: {diag}");
        let lower = s.element("FJAC", j + 1, j).unwrap();
        assert!((lower + 1.0).abs() < 1e-2, "lower {j}: {lower}");
        let upper = s.element("FJAC", j - 1, j).unwrap();
        assert!((upper + 2.0).abs() < 1e-2, "upper {j}: {upper}");
        // Entries far off the band are (numerically) zero.
        if j + 3 <= n {
            let far = s.element("FJAC", j + 3, j).unwrap();
            assert!(far.abs() < 1e-6, "off-band {j}: {far}");
        }
    }
}

#[test]
fn main_diagnostics_are_row_means() {
    // MAIN computes Q(J) = (1/N) Σ_K W(J,K) with W(I,J) = 0.015 J, so
    // row J of W is {0.015 * 1 .. 0.015 * N} and every Q(J) equals
    // 0.015 (N+1)/2.
    let s = state_of("MAIN");
    let n = 10u64;
    let expect = 0.015 * (n as f64 + 1.0) / 2.0;
    for j in 1..=n {
        let q = s.element("Q", j, 1).unwrap();
        assert!((q - expect).abs() < 1e-9, "Q({j}) = {q}, want {expect}");
    }
}

#[test]
fn conduct_heats_stay_physical() {
    // Explicit conduction from a uniform 100-degree plate: interior
    // temperatures must remain exactly 100 (zero gradient) and finite.
    let s = state_of("CONDUCT");
    let n = 12u64;
    for j in 2..n {
        for i in 2..n {
            let t = s.element("T", i, j).unwrap();
            assert!((t - 100.0).abs() < 1e-6, "T({i},{j}) = {t}");
        }
    }
}

#[test]
fn approx_normal_matrix_is_symmetric() {
    // Before elimination G = TᵀT is symmetric; elimination zeroes the
    // strict lower triangle of the first K-1 columns. Verify the
    // factorized matrix is finite and the first column's subdiagonal
    // entries were eliminated.
    let s = state_of("APPROX");
    let k = 6u64;
    for l in 2..=k {
        let g = s.element("G", l, 1).unwrap();
        // The elimination regularizes the pivot with +1e-4, so entries
        // are annihilated to ~1e-4 of their original O(10) magnitude.
        assert!(g.abs() < 1e-2, "G({l},1) = {g} not eliminated");
    }
    for j in 1..=k {
        for l in 1..=k {
            let g = s.element("G", l, j).unwrap();
            assert!(g.is_finite());
        }
    }
}

#[test]
fn field_relaxation_moves_toward_the_source_term() {
    // After Gauss-Seidel sweeps with a positive source, interior PHI is
    // strictly positive and bounded by a crude maximum-principle bound.
    let s = state_of("FIELD");
    let n = 12u64;
    let mut max_phi: f64 = 0.0;
    for j in 2..n {
        for i in 2..n {
            let phi = s.element("PHI", i, j).unwrap();
            assert!(phi >= 0.0, "PHI({i},{j}) = {phi}");
            max_phi = max_phi.max(phi);
        }
    }
    assert!(max_phi > 0.0, "relaxation did something");
    assert!(max_phi < 1.0, "bounded by the tiny source term");
}

#[test]
fn tql_preserves_rotation_norms() {
    // Each eigenvector-accumulation step applies a plane rotation, which
    // preserves column norms up to the simplified shift arithmetic. The
    // accumulated Z must stay finite and non-degenerate.
    let s = state_of("TQL");
    let z = s.array("Z").unwrap();
    assert!(z.iter().all(|v| v.is_finite()));
    let frob: f64 = z.iter().map(|v| v * v).sum();
    assert!(frob > 1.0, "Z did not collapse to zero: {frob}");
}

#[test]
fn hwscrt_backsolve_fills_the_interior() {
    let s = state_of("HWSCRT");
    let n = 12u64;
    for j in 2..n {
        for i in 2..n {
            let f = s.element("F", i, j).unwrap();
            assert!(f.is_finite(), "F({i},{j})");
        }
    }
}

#[test]
fn hybrj_step_is_finite_and_nonzero() {
    let s = state_of("HYBRJ");
    let n = 12u64;
    let mut any_nonzero = false;
    for i in 1..=n {
        let w = s.element("WA", i, 1).unwrap();
        assert!(w.is_finite(), "WA({i})");
        if w.abs() > 1e-12 {
            any_nonzero = true;
        }
    }
    assert!(any_nonzero, "the Newton-ish step must not vanish");
}
