//! `FDJAC` — MINPACK's forward-difference Jacobian approximation
//! (`fdjac1`) applied to the Broyden tridiagonal test function: for each
//! column `j`, perturb `x(j)`, re-evaluate the residual vector, and write
//! column `j` of the Jacobian.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32) -> String {
    format!(
        "\
PROGRAM FDJAC
PARAMETER (N = {n})
DIMENSION X(N), FVEC(N), WA(N), FJAC(N,N)
DO 5 I = 1, N
  X(I) = -1.0
5 CONTINUE
C Residuals of the Broyden tridiagonal function at the base point.
DO 10 I = 1, N
  XM = 0.0
  IF (I .GT. 1) XM = X(I-1)
  XP = 0.0
  IF (I .LT. N) XP = X(I+1)
  FVEC(I) = (3.0 - 2.0 * X(I)) * X(I) - XM - 2.0 * XP + 1.0
10 CONTINUE
C Forward differences, one Jacobian column per perturbed variable.
DO 20 J = 1, N
  TEMP = X(J)
  H = 0.0001 * ABS(TEMP)
  IF (H .EQ. 0.0) H = 0.0001
  X(J) = TEMP + H
  DO 30 I = 1, N
    XM = 0.0
    IF (I .GT. 1) XM = X(I-1)
    XP = 0.0
    IF (I .LT. N) XP = X(I+1)
    WA(I) = (3.0 - 2.0 * X(I)) * X(I) - XM - 2.0 * XP + 1.0
30 CONTINUE
  X(J) = TEMP
  DO 40 I = 1, N
    FJAC(I,J) = (WA(I) - FVEC(I)) / H
40 CONTINUE
20 CONTINUE
END
"
    )
}

/// Builds the `FDJAC` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(64),
        Scale::Small => source(12),
    };
    Workload {
        name: "FDJAC",
        description: "MINPACK fdjac1: forward-difference Jacobian of the \
                      Broyden tridiagonal function, one column sweep per \
                      variable",
        source,
        variants: vec![
            Variant {
                name: "FDJAC",
                level: DirectiveLevel::Innermost,
            },
            Variant {
                name: "FDJAC1",
                level: DirectiveLevel::Outermost,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::testutil;

    #[test]
    fn jacobian_dominates_the_footprint() {
        let pages = testutil::paper_pages(workload);
        // FJAC is 64x64 = 64 pages; three vectors add one page each.
        assert_eq!(pages, 64 + 3);
    }
}
