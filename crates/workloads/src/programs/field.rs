//! `FIELD` — a potential-field relaxation: Gauss-Seidel sweeps of a
//! five-point stencil over a 2-D grid with a source term. Column-order
//! sweeps give tight inner-loop locality; the whole grid is re-spanned
//! every iteration, forming the outer-level locality.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, nit: u32) -> String {
    format!(
        "\
PROGRAM FIELD
PARAMETER (N = {n}, NIT = {nit})
DIMENSION PHI(N,N), RHO(N,N)
DO 5 J = 1, N
  DO 6 I = 1, N
    PHI(I,J) = 0.0
    RHO(I,J) = 0.001 * FLOAT(I) * FLOAT(J)
6 CONTINUE
5 CONTINUE
DO 10 IT = 1, NIT
  DO 20 J = 2, N - 1
    DO 30 I = 2, N - 1
      PHI(I,J) = 0.25 * (PHI(I-1,J) + PHI(I+1,J) + PHI(I,J-1) + PHI(I,J+1) + RHO(I,J))
30  CONTINUE
20 CONTINUE
10 CONTINUE
END
"
    )
}

/// Builds the `FIELD` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(60, 10),
        Scale::Small => source(12, 2),
    };
    Workload {
        name: "FIELD",
        description: "Gauss-Seidel relaxation of a five-point stencil over \
                      a 2-D potential field with a source term",
        source,
        variants: vec![
            Variant {
                name: "FIELD",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "FIELD-OUTER",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "FIELD-INNER",
                level: DirectiveLevel::Innermost,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::testutil;

    #[test]
    fn two_equal_grids() {
        // 60x60 = 3600 elements = 57 pages each.
        assert_eq!(testutil::paper_pages(workload), 2 * 57);
    }
}
