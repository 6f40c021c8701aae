//! `TQL` — EISPACK's TQL2 shape: QL iterations with implicit shifts on a
//! symmetric tridiagonal matrix, accumulating the eigenvector transforms
//! by rotating adjacent columns of `Z`. The sweep structure (per
//! eigenvalue, per iteration, per rotation, per vector element) gives the
//! 4-deep hierarchical locality the paper's Table 1 exercises with the
//! `TQL1` and `TQL2` directive sets.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, nit: u32) -> String {
    format!(
        "\
PROGRAM TQL
PARAMETER (N = {n}, NIT = {nit})
DIMENSION D(N), E(N), Z(N,N)
C Identity eigenvector matrix; 2 / -1 tridiagonal.
DO 5 J = 1, N
  DO 6 I = 1, N
    Z(I,J) = 0.0
6 CONTINUE
  Z(J,J) = 1.0
  D(J) = 2.0
  E(J) = -1.0
5 CONTINUE
C QL sweeps with implicit shift for each leading index L.
DO 10 L = 1, N - 1
  DO 20 IT = 1, NIT
    G = D(L)
    DO 30 I = L, N - 1
      F = E(I)
      R = SQRT(F * F + G * G) + 0.0001
      CO = G / R
      SI = F / R
      G = D(I+1) - 0.5 * F
      D(I) = D(I) * CO + F * SI
      E(I) = E(I) * CO
C     Rotate eigenvector columns I and I+1.
      DO 40 K = 1, N
        F = Z(K,I+1)
        Z(K,I+1) = SI * Z(K,I) + CO * F
        Z(K,I) = CO * Z(K,I) - SI * F
40    CONTINUE
30  CONTINUE
20 CONTINUE
10 CONTINUE
END
"
    )
}

/// Builds the `TQL` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(40, 2),
        Scale::Small => source(10, 1),
    };
    Workload {
        name: "TQL",
        description: "EISPACK TQL2 shape: tridiagonal QL eigenvalue \
                      iterations with eigenvector accumulation via adjacent \
                      column rotations",
        source,
        variants: vec![
            Variant {
                name: "TQL1",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "TQL2",
                level: DirectiveLevel::Innermost,
            },
            Variant {
                name: "TQL-OUTER",
                level: DirectiveLevel::Outermost,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_variants() {
        let w = workload(Scale::Small);
        assert!(w.variant("TQL1").is_some());
        assert!(w.variant("TQL2").is_some());
    }
}
