//! `HWSCRT` — FISHPACK's Helmholtz solver on a rectangle; the dominant
//! access pattern is line relaxation: a tridiagonal (Thomas) solve along
//! each grid column using small forward/backward recurrence vectors.
//! Sized so the grid is 69 pages, the figure the paper quotes.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, nit: u32) -> String {
    format!(
        "\
PROGRAM HWSCRT
PARAMETER (N = {n}, NIT = {nit})
DIMENSION F(N,N), P(N), Q(N)
C Initial guess and boundary data.
DO 5 J = 1, N
  DO 6 I = 1, N
    F(I,J) = 0.01 * FLOAT(I) + 0.02 * FLOAT(J)
6 CONTINUE
5 CONTINUE
DO 10 IT = 1, NIT
  DO 20 J = 2, N - 1
C   Forward elimination along column J.
    P(1) = 0.0
    Q(1) = 0.0
    DO 30 I = 2, N - 1
      DEN = 4.0 + P(I-1)
      P(I) = -1.0 / DEN
      Q(I) = (F(I,J-1) + F(I,J+1) + Q(I-1)) / DEN
30  CONTINUE
C   Back substitution.
    DO 40 I = N - 1, 2, -1
      F(I,J) = P(I) * F(I+1,J) + Q(I)
40  CONTINUE
20 CONTINUE
10 CONTINUE
END
"
    )
}

/// Builds the `HWSCRT` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(66, 8),
        Scale::Small => source(12, 2),
    };
    Workload {
        name: "HWSCRT",
        description: "FISHPACK-style Helmholtz solver: per-column \
                      tridiagonal line relaxation over a 66x66 grid \
                      (69-page grid, as the paper quotes)",
        source,
        variants: vec![
            Variant {
                name: "HWSCRT",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "HWSCRT-OUTER",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "HWSCRT-INNER",
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
    fn grid_is_69_pages() {
        // 66x66 = 4356 elements = 69 pages (paper: "HWSCRT has 69 pages
        // in its virtual space"); the two 66-element recurrence vectors
        // add 2 pages each.
        assert_eq!(testutil::paper_pages(workload), 69 + 4);
    }
}
