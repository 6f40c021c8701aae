//! `CONDUCT` — explicit heat conduction on a 2-D plate with spatially
//! varying conductivity: per time step, a five-point stencil update into
//! a new-temperature grid followed by a copy-back sweep. Sized so the
//! virtual space is ~270 pages, matching the figure the paper quotes for
//! this program.

use crate::{DirectiveLevel, Scale, Variant, Workload};

fn source(n: u32, nt: u32) -> String {
    format!(
        "\
PROGRAM CONDUCT
PARAMETER (N = {n}, NT = {nt})
DIMENSION T(N,N), TN(N,N), CK(N,N)
C Initial temperature and conductivity fields.
DO 5 J = 1, N
  DO 6 I = 1, N
    T(I,J) = 100.0
    CK(I,J) = 0.1 + 0.001 * FLOAT(I + J)
6 CONTINUE
5 CONTINUE
DO 10 S = 1, NT
C Stencil update with variable conductivity.
  DO 20 J = 2, N - 1
    DO 30 I = 2, N - 1
      TN(I,J) = T(I,J) + CK(I,J) * (T(I-1,J) + T(I+1,J) + T(I,J-1) + T(I,J+1) - 4.0 * T(I,J))
30  CONTINUE
20 CONTINUE
C Copy back.
  DO 40 J = 2, N - 1
    DO 50 I = 2, N - 1
      T(I,J) = TN(I,J)
50  CONTINUE
40 CONTINUE
10 CONTINUE
END
"
    )
}

/// Builds the `CONDUCT` workload.
pub fn workload(scale: Scale) -> Workload {
    let source = match scale {
        Scale::Paper => source(76, 5),
        Scale::Small => source(12, 2),
    };
    Workload {
        name: "CONDUCT",
        description: "Explicit 2-D heat conduction with variable \
                      conductivity: stencil update plus copy-back per time \
                      step (~270-page virtual space at paper scale)",
        source,
        variants: vec![
            Variant {
                name: "CONDUCT",
                level: DirectiveLevel::AtLevel(2),
            },
            Variant {
                name: "CONDUCT-OUTER",
                level: DirectiveLevel::Outermost,
            },
            Variant {
                name: "CONDUCT-INNER",
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
    fn footprint_matches_the_paper() {
        // The paper: "program CONDUCT has a total of 270 pages in its
        // virtual space". Three 76x76 grids give 273.
        let pages = testutil::paper_pages(workload);
        assert!((265..=275).contains(&pages), "got {pages}");
    }
}
