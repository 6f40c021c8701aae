//! `APPROX` — least-squares function approximation: build a design
//! matrix of basis functions, form the normal equations `G = TᵀT`
//! (column-dot-column inner loops), and eliminate. The elimination phase
//! walks `G` row-wise, crossing a page per step.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(m: u32, k: u32) -> String {
    format!(
        "\
PROGRAM APPROX
PARAMETER (M = {m}, K = {k})
DIMENSION T(M,K), G(K,K), B(K), Y(M)
C Design matrix: K cosine basis functions sampled at M points.
DO 10 J = 1, K
  DO 20 I = 1, M
    T(I,J) = COS(FLOAT(J) * FLOAT(I) * 0.01)
20 CONTINUE
10 CONTINUE
DO 25 I = 1, M
  Y(I) = SIN(0.05 * FLOAT(I))
25 CONTINUE
C Normal matrix G = T'T, one column dot product per entry.
DO 30 J = 1, K
  DO 40 L = 1, K
    S = 0.0
    DO 50 I = 1, M
      S = S + T(I,J) * T(I,L)
50  CONTINUE
    G(L,J) = S
40 CONTINUE
30 CONTINUE
C Right-hand side B = T'Y.
DO 60 J = 1, K
  S = 0.0
  DO 70 I = 1, M
    S = S + T(I,J) * Y(I)
70 CONTINUE
  B(J) = S
60 CONTINUE
C Gaussian elimination on G (diagonally dominant, no pivoting).
DO 80 J = 1, K - 1
  DO 90 L = J + 1, K
    F = G(L,J) / (G(J,J) + 0.0001)
    DO 95 I = J, K
      G(L,I) = G(L,I) - F * G(J,I)
95  CONTINUE
    B(L) = B(L) - F * B(J)
90 CONTINUE
80 CONTINUE
END
"
    )
}

/// Builds the `APPROX` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(96, 32),
        Scale::Small => source(20, 6),
    };
    Workload {
        name: "APPROX",
        description: "Least-squares approximation: normal equations from a \
                      cosine design matrix, then Gaussian elimination",
        source,
        variants: vec![
            Variant {
                name: "APPROX",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "APPROX-OUTER",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "APPROX-INNER",
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
    fn footprint() {
        // T: 96x32 = 3072 elems = 48 pages; G: 32x32 = 16 pages;
        // B: 1 page; Y: 96 elements = 2 pages.
        assert_eq!(testutil::paper_pages(workload), 48 + 16 + 1 + 2);
    }
}
