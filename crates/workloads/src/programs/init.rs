//! `INIT` — an initialization-dominated program: builds several fields
//! with mixed traversal orders (column-major fill, then a row-major
//! derived fill that strides across pages, then boundary extraction).
//! Row-order phases are the LRU-hostile part the paper's Table 3 numbers
//! for `INIT` reflect.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, nrep: u32) -> String {
    format!(
        "\
PROGRAM INIT
PARAMETER (N = {n}, NREP = {nrep})
DIMENSION A(N,N), B(N,N), CC(N,N)
DO 10 R = 1, NREP
C Column-major fill of A.
  DO 20 J = 1, N
    DO 30 I = 1, N
      A(I,J) = FLOAT(I) + 2.0 * FLOAT(J)
30  CONTINUE
20 CONTINUE
C Row-major derived fill of B (strides across pages).
  DO 40 I = 1, N
    DO 50 J = 1, N
      B(I,J) = 2.0 * A(I,J) + 1.0
50  CONTINUE
40 CONTINUE
C Boundary rows into CC.
  DO 60 J = 1, N
    CC(1,J) = B(1,J)
    CC(N,J) = B(N,J)
60 CONTINUE
C Interior difference field.
  DO 70 J = 2, N - 1
    DO 80 I = 1, N
      CC(I,J) = A(I,J) - B(I,J)
80  CONTINUE
70 CONTINUE
10 CONTINUE
END
"
    )
}

/// Builds the `INIT` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(48, 6),
        Scale::Small => source(10, 2),
    };
    Workload {
        name: "INIT",
        description: "Initialization-dominated field setup with mixed \
                      column- and row-order fills and boundary extraction",
        source,
        variants: vec![
            Variant {
                name: "INIT",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "INIT-OUTER",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "INIT-INNER",
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
    fn three_grids() {
        // 48x48 = 2304 elements = 36 pages each.
        assert_eq!(testutil::paper_pages(workload), 3 * 36);
    }
}
