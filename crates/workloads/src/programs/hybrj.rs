//! `HYBRJ` — MINPACK's Powell hybrid method with analytic Jacobian; the
//! memory-relevant phase is `qrfac`: Householder QR of the Jacobian by
//! columns (column norms, scaling, trailing-column updates), followed by
//! the triangular backsolve that walks `R` row-wise.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, nit: u32, nev: u32) -> String {
    format!(
        "\
PROGRAM HYBRJ
PARAMETER (N = {n}, NIT = {nit}, NEV = {nev})
DIMENSION FJAC(N,N), RDIAG(N), WA(N), QTF(N), X(N), FVEC(N)
DO 2 I = 1, N
  X(I) = -1.0
2 CONTINUE
C Hybrid (Powell dogleg) iterations: many cheap residual evaluations
C around one Jacobian factorization per iteration.
DO 100 IT = 1, NIT
C Line-search / trial-point residual evaluations (vector-local).
  DO 110 E = 1, NEV
    DO 120 I = 1, N
      XM = 0.0
      IF (I .GT. 1) XM = X(I-1)
      XP = 0.0
      IF (I .LT. N) XP = X(I+1)
      FVEC(I) = (3.0 - 2.0 * X(I)) * X(I) - XM - 2.0 * XP + 1.0
120 CONTINUE
    DO 130 I = 1, N
      X(I) = X(I) - 0.001 * FVEC(I)
130 CONTINUE
110 CONTINUE
C Analytic Jacobian of the Broyden tridiagonal function (banded).
  DO 5 J = 1, N
    DO 6 I = 1, N
      FJAC(I,J) = 0.0
6   CONTINUE
5 CONTINUE
  DO 8 J = 1, N
    FJAC(J,J) = 3.0 - 4.0 * X(J)
    IF (J .GT. 1) FJAC(J-1,J) = -2.0
    IF (J .LT. N) FJAC(J+1,J) = -1.0
8 CONTINUE
C Householder QR factorization, MINPACK qrfac shape.
  DO 10 J = 1, N
    S = 0.0
    DO 20 I = J, N
      S = S + FJAC(I,J) * FJAC(I,J)
20  CONTINUE
    RDIAG(J) = SQRT(S) + 0.0001
    DO 30 I = J, N
      FJAC(I,J) = FJAC(I,J) / RDIAG(J)
30  CONTINUE
    DO 40 L = J + 1, N
      S = 0.0
      DO 50 I = J, N
        S = S + FJAC(I,J) * FJAC(I,L)
50    CONTINUE
      DO 60 I = J, N
        FJAC(I,L) = FJAC(I,L) - S * FJAC(I,J)
60    CONTINUE
40  CONTINUE
10 CONTINUE
C Backsolve R x = q for the hybrid step (row-wise walk of FJAC).
  DO 70 I = 1, N
    QTF(I) = FVEC(I)
    WA(I) = 0.0
70 CONTINUE
  DO 80 J = N, 1, -1
    S = QTF(J)
    DO 90 L = J + 1, N
      S = S - FJAC(J,L) * WA(L)
90  CONTINUE
    WA(J) = S / RDIAG(J)
80 CONTINUE
100 CONTINUE
END
"
    )
}

/// Builds the `HYBRJ` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(48, 2, 150),
        Scale::Small => source(12, 1, 10),
    };
    Workload {
        name: "HYBRJ",
        description: "MINPACK hybrj: Powell hybrid iterations — many \
                      vector-local residual evaluations around one \
                      Householder QR factorization and backsolve per \
                      iteration",
        source,
        variants: vec![
            Variant {
                name: "HYBRJ",
                level: DirectiveLevel::AtLevel(3),
            },
            Variant {
                name: "HYBRJ-OUTER",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "HYBRJ-INNER",
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
        // FJAC 48x48 = 2304 elems = 36 pages + five 1-page vectors.
        assert_eq!(testutil::paper_pages(workload), 36 + 5);
    }
}
