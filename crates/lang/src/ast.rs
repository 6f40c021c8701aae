//! Abstract syntax tree for the mini-FORTRAN language, including the memory
//! directives from the paper (Section 3).

use std::fmt;

use crate::span::Span;

/// A source span that compares equal to any other span.
///
/// AST nodes carry their location for diagnostics, but two programs that
/// differ only in layout should compare equal — directive insertion
/// synthesizes nodes with no real source position.
#[derive(Debug, Clone, Copy, Default)]
pub struct Loc(pub Span);

impl PartialEq for Loc {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Loc {}

impl From<Span> for Loc {
    fn from(s: Span) -> Self {
        Loc(s)
    }
}

/// A complete program: name, constants, array declarations and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The `PROGRAM <name>` identifier.
    pub name: String,
    /// `PARAMETER (NAME = value)` constants, in declaration order.
    pub params: Vec<(String, i64)>,
    /// `DIMENSION` declarations, in declaration order (this order also
    /// fixes the virtual-memory layout downstream).
    pub arrays: Vec<ArrayDecl>,
    /// Executable statements.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Looks up an array declaration by (upper-cased) name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Looks up a `PARAMETER` constant by name.
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A copy of the program with every memory directive removed, at
    /// any nesting depth. Directives are advisory, so two programs whose
    /// copies compare equal make the same array references.
    pub fn without_directives(&self) -> Program {
        let mut program = self.clone();
        strip_directives(&mut program.body);
        program
    }
}

fn strip_directives(stmts: &mut Vec<Stmt>) {
    stmts.retain(|s| !matches!(s, Stmt::Directive { .. }));
    for stmt in stmts {
        match stmt {
            Stmt::Do { body, .. } => strip_directives(body),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                strip_directives(then_body);
                strip_directives(else_body);
            }
            _ => {}
        }
    }
}

/// Does any statement, at any depth, open a `DO` loop?
pub fn contains_loop(stmts: &[Stmt]) -> bool {
    stmts
        .iter()
        .any(|s| matches!(s, Stmt::Do { .. }) || s.bodies().into_iter().any(contains_loop))
}

/// One array declared in a `DIMENSION` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Upper-cased array name.
    pub name: String,
    /// Declared extents; rank 1 (vector) or 2 (matrix) after `sema`.
    pub extents: Vec<Extent>,
    /// Where the declaration appeared.
    pub loc: Loc,
}

/// An array extent: a literal or a `PARAMETER` reference, possibly scaled
/// (`2*N` or `N` or `100`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extent {
    /// A literal extent such as `100`.
    Lit(i64),
    /// A named constant such as `N`.
    Param(String),
    /// `factor * name`, e.g. `2*N` — common when sizing workspace arrays.
    Scaled(i64, String),
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Extent::Lit(v) => write!(f, "{v}"),
            Extent::Param(p) => f.write_str(p),
            Extent::Scaled(k, p) => write!(f, "{k}*{p}"),
        }
    }
}

/// An executable statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A `DO` loop, either label-terminated (`DO 10 I = ...` / `10
    /// CONTINUE`) or `END DO`-terminated.
    Do {
        /// The terminating label, if the loop was written with one.
        label: Option<u32>,
        /// Loop control variable (upper-cased).
        var: String,
        /// First value of the control variable.
        lo: Expr,
        /// Last value (inclusive, FORTRAN-77 semantics).
        hi: Expr,
        /// Step, defaulting to 1 when absent.
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location of the `DO` keyword.
        loc: Loc,
    },
    /// `target = value`. The target is a scalar or an array element.
    Assign {
        /// Either [`Expr::Scalar`] or [`Expr::Element`].
        target: Expr,
        /// Right-hand side.
        value: Expr,
        /// Source location.
        loc: Loc,
    },
    /// Block `IF (cond) THEN ... [ELSE ...] END IF`, or the one-line
    /// logical IF `IF (cond) stmt` (parsed as a block with one statement).
    If {
        /// Controlling condition.
        cond: Expr,
        /// Statements executed when `cond` is true.
        then_body: Vec<Stmt>,
        /// Statements executed when `cond` is false (may be empty).
        else_body: Vec<Stmt>,
        /// Source location.
        loc: Loc,
    },
    /// A free-standing `CONTINUE` (no-op).
    Continue {
        /// The statement label, if any.
        label: Option<u32>,
        /// Source location.
        loc: Loc,
    },
    /// A memory directive inserted by the compiler (or written as an
    /// `!MD$` line).
    Directive {
        /// The directive payload.
        dir: Directive,
        /// Source location.
        loc: Loc,
    },
}

impl Stmt {
    /// The statement lists nested directly inside this statement: a
    /// `DO` body, or an `IF`'s two branches (empty slices otherwise).
    pub fn bodies(&self) -> [&[Stmt]; 2] {
        match self {
            Stmt::Do { body, .. } => [body, &[]],
            Stmt::If {
                then_body,
                else_body,
                ..
            } => [then_body, else_body],
            _ => [&[], &[]],
        }
    }

    /// Returns the source location of this statement.
    pub fn loc(&self) -> Span {
        match self {
            Stmt::Do { loc, .. }
            | Stmt::Assign { loc, .. }
            | Stmt::If { loc, .. }
            | Stmt::Continue { loc, .. }
            | Stmt::Directive { loc, .. } => loc.0,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Scalar variable reference (upper-cased name).
    Scalar(String),
    /// Array element reference `A(i)` or `A(i,j)`.
    ///
    /// Until [`crate::sema::analyze`] runs, calls to intrinsic functions
    /// also parse as `Element`; `sema` rewrites them to [`Expr::Call`].
    Element {
        /// Array name.
        array: String,
        /// Subscript expressions (1 or 2 after `sema`).
        indices: Vec<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Intrinsic function call (`SQRT`, `ABS`, `MOD`, ...).
    Call {
        /// Intrinsic name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation (negation).
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Relational comparison (`.GT.` etc.), producing a logical value.
    Rel {
        /// Comparison operator.
        op: RelOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Walks the expression tree, calling `f` on every node (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Int(_) | Expr::Real(_) | Expr::Scalar(_) => {}
            Expr::Element { indices, .. } => {
                for ix in indices {
                    ix.walk(f);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Bin { lhs, rhs, .. } | Expr::Rel { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Un { operand, .. } | Expr::Not(operand) => operand.walk(f),
        }
    }

    /// Returns the set of scalar variable names mentioned anywhere in the
    /// expression (subscripts included), in first-appearance order.
    pub fn free_scalars(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Scalar(name) = e {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-x`
    Neg,
}

/// Relational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `.GT.`
    Gt,
    /// `.GE.`
    Ge,
    /// `.LT.`
    Lt,
    /// `.LE.`
    Le,
    /// `.EQ.`
    Eq,
    /// `.NE.`
    Ne,
}

/// One prioritized request inside an `ALLOCATE` directive: "give me
/// `pages` page frames" tagged with priority index `pi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocArg {
    /// Priority index (paper: `PI`). Larger PI = outer loop = tried first;
    /// `PI = 1` is the innermost loop and *must* be satisfiable.
    pub pi: u32,
    /// Requested allocation in pages (paper: `X`).
    pub pages: u64,
}

/// A memory directive (paper Section 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `ALLOCATE ((PI1,X1) ELSE (PI2,X2) ELSE ...)` — prioritized memory
    /// requests, outermost locality first.
    Allocate {
        /// The request list, ordered as written (descending `pi`).
        args: Vec<AllocArg>,
    },
    /// `LOCK (PJ, A, B, ...)` — softly pin the currently resident pages of
    /// the named arrays with release priority `pj`.
    Lock {
        /// Release priority (paper: `PJ`); larger PJ is released first.
        pj: u32,
        /// Arrays whose active pages should be pinned.
        arrays: Vec<String>,
    },
    /// `UNLOCK (A, B, ...)` — release any pages of the named arrays still
    /// locked.
    Unlock {
        /// Arrays to unpin.
        arrays: Vec<String>,
    },
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Directive::Allocate { args } => {
                f.write_str("ALLOCATE (")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ELSE ")?;
                    }
                    write!(f, "({},{})", a.pi, a.pages)?;
                }
                f.write_str(")")
            }
            Directive::Lock { pj, arrays } => {
                write!(f, "LOCK ({pj}")?;
                for a in arrays {
                    write!(f, ",{a}")?;
                }
                f.write_str(")")
            }
            Directive::Unlock { arrays } => {
                f.write_str("UNLOCK (")?;
                for (i, a) in arrays.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str(a)?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_compares_equal_regardless_of_span() {
        let a = Loc(Span::new(0, 3, 1));
        let b = Loc(Span::new(99, 120, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn free_scalars_deduplicates_in_order() {
        // I + A(I, J) * J + I
        let e = Expr::Bin {
            op: BinOp::Add,
            lhs: Box::new(Expr::Scalar("I".into())),
            rhs: Box::new(Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Bin {
                    op: BinOp::Mul,
                    lhs: Box::new(Expr::Element {
                        array: "A".into(),
                        indices: vec![Expr::Scalar("I".into()), Expr::Scalar("J".into())],
                        loc: Loc::default(),
                    }),
                    rhs: Box::new(Expr::Scalar("J".into())),
                }),
                rhs: Box::new(Expr::Scalar("I".into())),
            }),
        };
        assert_eq!(e.free_scalars(), vec!["I".to_string(), "J".to_string()]);
    }

    #[test]
    fn directive_display_matches_paper_syntax() {
        let d = Directive::Allocate {
            args: vec![AllocArg { pi: 3, pages: 12 }, AllocArg { pi: 1, pages: 2 }],
        };
        assert_eq!(d.to_string(), "ALLOCATE ((3,12) ELSE (1,2))");
        let d = Directive::Lock {
            pj: 3,
            arrays: vec!["A".into(), "B".into()],
        };
        assert_eq!(d.to_string(), "LOCK (3,A,B)");
        let d = Directive::Unlock {
            arrays: vec!["A".into(), "B".into()],
        };
        assert_eq!(d.to_string(), "UNLOCK (A,B)");
    }

    #[test]
    fn program_lookup_helpers() {
        let p = Program {
            name: "T".into(),
            params: vec![("N".into(), 10)],
            arrays: vec![ArrayDecl {
                name: "A".into(),
                extents: vec![Extent::Param("N".into())],
                loc: Loc::default(),
            }],
            body: vec![],
        };
        assert_eq!(p.param("N"), Some(10));
        assert!(p.param("M").is_none());
        assert!(p.array("A").is_some());
        assert!(p.array("B").is_none());
    }

    #[test]
    fn without_directives_strips_every_level() {
        let with = crate::parse(
            "PROGRAM T\nDIMENSION V(8)\n!MD$ ALLOCATE ((1,2))\nDO 10 I = 1, 8\n\
             !MD$ LOCK (1,V)\nIF (I .GT. 2) THEN\n!MD$ UNLOCK (V)\nV(I) = 1.0\nENDIF\n\
             10 CONTINUE\nEND",
        )
        .unwrap();
        let without = crate::parse(
            "PROGRAM T\nDIMENSION V(8)\nDO 10 I = 1, 8\nIF (I .GT. 2) THEN\nV(I) = 1.0\n\
             ENDIF\n10 CONTINUE\nEND",
        )
        .unwrap();
        assert_ne!(with, without);
        assert_eq!(with.without_directives(), without);
        assert_eq!(without.without_directives(), without);
    }
}
