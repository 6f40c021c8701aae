//! `MAIN` — the driver of a UIARL (University of Illinois Atmospheric
//! Research Lab) style grid code: repeated time steps over 2-D fields
//! with both column-order updates and row-order reductions, inside an
//! outer parameter-sweep loop. This is the program the paper runs with
//! four different directive sets (`MAIN`, `MAIN1`, `MAIN2`, `MAIN3`).

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, ns: u32, nt: u32) -> String {
    format!(
        "\
PROGRAM MAIN
PARAMETER (N = {n}, NS = {ns}, NT = {nt})
DIMENSION U(N,N), V(N,N), W(N,N), Z0(N,N), P(N), Q(N)
C Initialize the prognostic fields, column-major.
DO 5 J = 1, N
  DO 6 I = 1, N
    U(I,J) = 0.01 * FLOAT(I + J)
    V(I,J) = 0.02 * FLOAT(I)
    W(I,J) = 0.015 * FLOAT(J)
6 CONTINUE
5 CONTINUE
C Parameter sweep over NS scenario settings.
DO 10 S = 1, NS
  DO 20 T = 1, NT
C   Advect: column-order update of U from V.
    DO 30 J = 1, N
      DO 40 K = 1, N
        U(K,J) = U(K,J) + 0.5 * V(K,J)
40    CONTINUE
30  CONTINUE
C   Diagnose: row-order reduction of W into P, Q.
    DO 50 J = 1, N
      P(J) = 0.0
      DO 60 K = 1, N
        P(J) = P(J) + W(J,K)
60    CONTINUE
      Q(J) = P(J) / FLOAT(N)
50  CONTINUE
20 CONTINUE
C   Archive the scenario's final field (per-scenario locality).
  DO 70 J = 1, N
    DO 80 K = 1, N
      Z0(K,J) = U(K,J)
80  CONTINUE
70 CONTINUE
10 CONTINUE
END
"
    )
}

/// Builds the `MAIN` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(36, 5, 5),
        Scale::Small => source(10, 2, 2),
    };
    Workload {
        name: "MAIN",
        description: "UIARL-style atmospheric driver: time-stepped field \
                      updates plus row-order diagnostics under a parameter \
                      sweep (4-deep loop nest)",
        source,
        variants: vec![
            Variant {
                name: "MAIN",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "MAIN1",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "MAIN2",
                level: DirectiveLevel::AtLevel(3),
            },
            Variant {
                name: "MAIN3",
                level: DirectiveLevel::Innermost,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_four_variants_like_table_1() {
        assert_eq!(workload(Scale::Small).variants.len(), 4);
    }

    #[test]
    fn nest_is_four_deep() {
        let w = workload(Scale::Small);
        let a =
            cdmm_locality::analyze_program(&w.source, cdmm_locality::PageGeometry::PAPER).unwrap();
        assert_eq!(a.tree.max_depth(), 4);
    }
}
