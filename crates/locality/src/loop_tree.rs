//! The nested-loop structure of a program and the array references made
//! inside it — parameters `Δ` (nest depth), `Λ` (reference level), `X`
//! (index variables) and `Θ` (order of reference) from Section 2.

use cdmm_lang::ast::{contains_loop, Expr, Program, Stmt};
use cdmm_lang::BinOp;

/// Identifies one loop within a [`LoopTree`] (preorder index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub usize);

/// The shape of one subscript expression, as far as the analysis cares.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexForm {
    /// A compile-time constant subscript, e.g. `A(3,J)`.
    Const(i64),
    /// `var + offset`, e.g. `I`, `I+1`, `I-2`. This is the paper's "indexed
    /// variable"; distinct offsets count as distinct indexes.
    Affine {
        /// The index variable.
        var: String,
        /// Constant offset.
        offset: i64,
    },
    /// Anything more complicated; `vars` lists the scalar variables that
    /// appear so variation can still be detected.
    Other {
        /// Scalars mentioned in the subscript.
        vars: Vec<String>,
    },
}

impl IndexForm {
    /// Extracts the form of a subscript expression.
    pub fn of(expr: &Expr) -> IndexForm {
        match expr {
            Expr::Int(v) => IndexForm::Const(*v),
            Expr::Scalar(v) => IndexForm::Affine {
                var: v.clone(),
                offset: 0,
            },
            Expr::Bin {
                op: BinOp::Add,
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                (Expr::Scalar(v), Expr::Int(k)) | (Expr::Int(k), Expr::Scalar(v)) => {
                    IndexForm::Affine {
                        var: v.clone(),
                        offset: *k,
                    }
                }
                _ => IndexForm::other_of(expr),
            },
            Expr::Bin {
                op: BinOp::Sub,
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                (Expr::Scalar(v), Expr::Int(k)) => IndexForm::Affine {
                    var: v.clone(),
                    offset: -*k,
                },
                _ => IndexForm::other_of(expr),
            },
            _ => IndexForm::other_of(expr),
        }
    }

    fn other_of(expr: &Expr) -> IndexForm {
        IndexForm::Other {
            vars: expr.free_scalars(),
        }
    }

    /// Does this subscript vary when `var` changes?
    pub fn varies_with(&self, var: &str) -> bool {
        match self {
            IndexForm::Const(_) => false,
            IndexForm::Affine { var: v, .. } => v == var,
            IndexForm::Other { vars } => vars.iter().any(|v| v == var),
        }
    }
}

/// One syntactic array reference attributed to a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// Array name.
    pub array: String,
    /// Subscript forms (1 for vectors, 2 for matrices).
    pub indices: Vec<IndexForm>,
}

/// Order of reference `Θ` of an array with respect to a loop variable.
///
/// Arrays are stored column-major, so a reference whose *row* subscript
/// tracks the loop variable walks contiguously down a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefOrder {
    /// Vector indexed by the loop variable: contiguous span.
    Sequential,
    /// Matrix whose row subscript tracks the loop: walks down a column.
    ColumnWise,
    /// Matrix whose column subscript tracks the loop (or both subscripts
    /// do): strides across pages, no short-term reuse.
    RowWise,
    /// No subscript varies with the loop variable.
    Invariant,
}

impl ArrayRef {
    /// Classifies this reference's order `Θ` with respect to `loop_var`.
    pub fn order_wrt(&self, loop_var: &str) -> RefOrder {
        match self.indices.len() {
            1 => {
                if self.indices[0].varies_with(loop_var) {
                    RefOrder::Sequential
                } else {
                    RefOrder::Invariant
                }
            }
            2 => {
                let row = self.indices[0].varies_with(loop_var);
                let col = self.indices[1].varies_with(loop_var);
                match (row, col) {
                    (true, false) => RefOrder::ColumnWise,
                    (false, true) | (true, true) => RefOrder::RowWise,
                    (false, false) => RefOrder::Invariant,
                }
            }
            _ => RefOrder::Invariant,
        }
    }
}

/// One loop in the nest.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Identity (preorder index into [`LoopTree::loops`]).
    pub id: LoopId,
    /// The terminating label, when the loop was written `DO <label> ...`.
    pub label: Option<u32>,
    /// Control variable.
    pub var: String,
    /// Nest level `Λ`: 1 for outermost, increasing inwards.
    pub lambda: u32,
    /// Priority index `PI` assigned by Procedure 1 (0 until
    /// [`crate::priority::assign`] runs).
    pub pi: u32,
    /// Enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Directly nested loops, in source order.
    pub children: Vec<LoopId>,
    /// Array references appearing directly in this loop's body (not inside
    /// nested loops). A child loop's bound expressions count as the
    /// parent's references.
    pub direct_refs: Vec<ArrayRef>,
    /// Array names referenced directly in this loop's body *before* the
    /// first nested loop — the candidates Algorithm 2 locks.
    pub refs_before_first_child: Vec<String>,
    /// Constant trip count, when the bounds are literals.
    pub const_trips: Option<u64>,
}

/// The loop nest structure of one program.
#[derive(Debug, Clone, Default)]
pub struct LoopTree {
    /// All loops in preorder (parents before children).
    pub loops: Vec<LoopInfo>,
    /// Top-level loops, in source order.
    pub roots: Vec<LoopId>,
}

impl LoopTree {
    /// Builds the loop tree of a checked program.
    pub fn build(program: &Program) -> LoopTree {
        let mut tree = LoopTree::default();
        let mut top_level_refs = Vec::new();
        collect_stmts(&program.body, None, 1, &mut tree, &mut top_level_refs);
        tree
    }

    /// Borrow a loop by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this tree.
    pub fn get(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.0]
    }

    /// The maximum nest depth `Δ` of the subtree rooted at `id`,
    /// counted in levels (a leaf loop has depth 1).
    pub fn depth(&self, id: LoopId) -> u32 {
        let node = self.get(id);
        1 + node
            .children
            .iter()
            .map(|&c| self.depth(c))
            .max()
            .unwrap_or(0)
    }

    /// The whole program's nest depth `Δ` (0 if there are no loops).
    pub fn max_depth(&self) -> u32 {
        self.roots.iter().map(|&r| self.depth(r)).max().unwrap_or(0)
    }

    /// Iterates over the ids of all loops in the subtree rooted at `id`
    /// (preorder, including `id` itself).
    pub fn subtree(&self, id: LoopId) -> Vec<LoopId> {
        let mut out = vec![id];
        let mut i = 0;
        while i < out.len() {
            let cur = out[i];
            out.extend(self.get(cur).children.iter().copied());
            i += 1;
        }
        out
    }

    /// The ancestors of `id` from the root down to `id` itself.
    pub fn path_to(&self, id: LoopId) -> Vec<LoopId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.get(cur).parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Looks a loop up by its terminating label.
    pub fn by_label(&self, label: u32) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.label == Some(label))
    }
}

fn collect_stmts(
    stmts: &[Stmt],
    parent: Option<LoopId>,
    lambda: u32,
    tree: &mut LoopTree,
    refs_here: &mut Vec<ArrayRef>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Do {
                label,
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                // Bound expressions are evaluated in the enclosing scope.
                collect_expr_refs(lo, refs_here);
                collect_expr_refs(hi, refs_here);
                if let Some(s) = step {
                    collect_expr_refs(s, refs_here);
                }
                let id = LoopId(tree.loops.len());
                tree.loops.push(LoopInfo {
                    id,
                    label: *label,
                    var: var.clone(),
                    lambda,
                    pi: 0,
                    parent,
                    children: Vec::new(),
                    direct_refs: Vec::new(),
                    refs_before_first_child: Vec::new(),
                    const_trips: const_trip_count(lo, hi, step.as_ref()),
                });
                match parent {
                    Some(p) => tree.loops[p.0].children.push(id),
                    None => tree.roots.push(id),
                }
                let mut body_refs = Vec::new();
                collect_stmts(body, Some(id), lambda + 1, tree, &mut body_refs);
                // Compute the pre-first-child candidates for Algorithm 2.
                let before = refs_before_first_loop(body);
                let node = &mut tree.loops[id.0];
                node.direct_refs = body_refs;
                node.refs_before_first_child = before;
            }
            Stmt::Assign { target, value, .. } => {
                collect_expr_refs(target, refs_here);
                collect_expr_refs(value, refs_here);
            }
            Stmt::If { cond, .. } => {
                collect_expr_refs(cond, refs_here);
                // Conditional bodies stay attributed to the same loop level.
                for branch in stmt.bodies() {
                    collect_stmts(branch, parent, lambda, tree, refs_here);
                }
            }
            Stmt::Continue { .. } | Stmt::Directive { .. } => {}
        }
    }
}

fn collect_expr_refs(expr: &Expr, out: &mut Vec<ArrayRef>) {
    expr.walk(&mut |e| {
        if let Expr::Element { array, indices, .. } = e {
            out.push(ArrayRef {
                array: array.clone(),
                indices: indices.iter().map(IndexForm::of).collect(),
            });
        }
    });
}

/// Array names referenced by the statements before the first nested `DO`,
/// in first-appearance order (Algorithm 2's SEARCH step).
fn refs_before_first_loop(body: &[Stmt]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut refs = Vec::new();
    for stmt in body {
        match stmt {
            Stmt::Do { .. } => break,
            Stmt::Assign { target, value, .. } => {
                collect_expr_refs(target, &mut refs);
                collect_expr_refs(value, &mut refs);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                collect_expr_refs(cond, &mut refs);
                // Nested loops inside an IF end the search too.
                if contains_loop(then_body) || contains_loop(else_body) {
                    break;
                }
                for s in then_body.iter().chain(else_body.iter()) {
                    if let Stmt::Assign { target, value, .. } = s {
                        collect_expr_refs(target, &mut refs);
                        collect_expr_refs(value, &mut refs);
                    }
                }
            }
            Stmt::Continue { .. } | Stmt::Directive { .. } => {}
        }
    }
    for r in refs {
        if !out.contains(&r.array) {
            out.push(r.array);
        }
    }
    out
}

fn const_trip_count(lo: &Expr, hi: &Expr, step: Option<&Expr>) -> Option<u64> {
    let lo = const_int(lo)?;
    let hi = const_int(hi)?;
    let step = match step {
        Some(s) => const_int(s)?,
        None => 1,
    };
    if step == 0 {
        return None;
    }
    let trips = (hi - lo + step) / step;
    if trips <= 0 {
        Some(0)
    } else {
        Some(trips as u64)
    }
}

fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_lang::parse;

    fn tree_of(body: &str) -> LoopTree {
        let src = format!(
            "PROGRAM T\nPARAMETER (N = 100)\nDIMENSION A(N,N), B(N,N), V(N), W(N)\n{body}\nEND\n"
        );
        let mut p = parse(&src).unwrap();
        cdmm_lang::analyze(&mut p).unwrap();
        LoopTree::build(&p)
    }

    #[test]
    fn single_loop_tree() {
        let t = tree_of("DO 10 I = 1, N\nV(I) = 0.0\n10 CONTINUE");
        assert_eq!(t.loops.len(), 1);
        assert_eq!(t.roots.len(), 1);
        let l = t.get(LoopId(0));
        assert_eq!(l.lambda, 1);
        assert_eq!(l.var, "I");
        assert_eq!(l.direct_refs.len(), 1);
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn nested_levels_and_attribution() {
        let t = tree_of(
            "DO 10 I = 1, N\nW(I) = 1.0\nDO 20 J = 1, N\nA(J,I) = V(J)\n20 CONTINUE\n10 CONTINUE",
        );
        assert_eq!(t.loops.len(), 2);
        let outer = t.get(LoopId(0));
        let inner = t.get(LoopId(1));
        assert_eq!(outer.lambda, 1);
        assert_eq!(inner.lambda, 2);
        assert_eq!(inner.parent, Some(LoopId(0)));
        // W(I) belongs to the outer loop; A and V to the inner one.
        assert_eq!(outer.direct_refs.len(), 1);
        assert_eq!(outer.direct_refs[0].array, "W");
        let inner_arrays: Vec<&str> = inner.direct_refs.iter().map(|r| r.array.as_str()).collect();
        assert_eq!(inner_arrays, vec!["A", "V"]);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn if_bodies_attribute_to_enclosing_loop() {
        let t = tree_of("DO 10 I = 1, N\nIF (V(I) .GT. 0.0) THEN\nW(I) = V(I)\nENDIF\n10 CONTINUE");
        let l = t.get(LoopId(0));
        let arrays: Vec<&str> = l.direct_refs.iter().map(|r| r.array.as_str()).collect();
        assert_eq!(arrays, vec!["V", "W", "V"]);
    }

    #[test]
    fn loop_bounds_attribute_to_parent() {
        let t = tree_of(
            "DO 10 I = 1, N\nDO 20 J = 1, INT(V(I))\nA(J,I) = 0.0\n20 CONTINUE\n10 CONTINUE",
        );
        let outer = t.get(LoopId(0));
        assert_eq!(outer.direct_refs.len(), 1);
        assert_eq!(outer.direct_refs[0].array, "V");
    }

    #[test]
    fn index_forms() {
        let t =
            tree_of("DO 10 I = 1, N\nV(I) = V(I+1) + V(I-2) + V(3) + V(J) + W(I*2)\n10 CONTINUE");
        let refs = &t.get(LoopId(0)).direct_refs;
        assert_eq!(
            refs[0].indices[0],
            IndexForm::Affine {
                var: "I".into(),
                offset: 0
            }
        );
        assert_eq!(
            refs[1].indices[0],
            IndexForm::Affine {
                var: "I".into(),
                offset: 1
            }
        );
        assert_eq!(
            refs[2].indices[0],
            IndexForm::Affine {
                var: "I".into(),
                offset: -2
            }
        );
        assert_eq!(refs[3].indices[0], IndexForm::Const(3));
        assert_eq!(
            refs[4].indices[0],
            IndexForm::Affine {
                var: "J".into(),
                offset: 0
            }
        );
        match &refs[5].indices[0] {
            IndexForm::Other { vars } => assert_eq!(vars, &["I".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_classification() {
        let col = ArrayRef {
            array: "A".into(),
            indices: vec![
                IndexForm::Affine {
                    var: "K".into(),
                    offset: 0,
                },
                IndexForm::Affine {
                    var: "I".into(),
                    offset: 0,
                },
            ],
        };
        assert_eq!(col.order_wrt("K"), RefOrder::ColumnWise);
        assert_eq!(col.order_wrt("I"), RefOrder::RowWise);
        assert_eq!(col.order_wrt("Z"), RefOrder::Invariant);

        let vec_ref = ArrayRef {
            array: "V".into(),
            indices: vec![IndexForm::Affine {
                var: "I".into(),
                offset: 1,
            }],
        };
        assert_eq!(vec_ref.order_wrt("I"), RefOrder::Sequential);
        assert_eq!(vec_ref.order_wrt("J"), RefOrder::Invariant);

        // Diagonal references behave row-wise (stride M+1).
        let diag = ArrayRef {
            array: "A".into(),
            indices: vec![
                IndexForm::Affine {
                    var: "I".into(),
                    offset: 0,
                },
                IndexForm::Affine {
                    var: "I".into(),
                    offset: 0,
                },
            ],
        };
        assert_eq!(diag.order_wrt("I"), RefOrder::RowWise);
    }

    #[test]
    fn refs_before_first_child_stop_at_loop() {
        let t = tree_of(
            "DO 10 I = 1, N\nV(I) = W(I)\nDO 20 J = 1, N\nA(J,I) = B(J,I)\n20 CONTINUE\nW(I) = V(I)\n10 CONTINUE",
        );
        let outer = t.get(LoopId(0));
        assert_eq!(
            outer.refs_before_first_child,
            vec!["V".to_string(), "W".to_string()]
        );
    }

    #[test]
    fn subtree_and_path() {
        let t = tree_of(
            "DO 10 I = 1, N\nDO 20 J = 1, N\nA(J,I) = 0.0\n20 CONTINUE\nDO 30 K = 1, N\nDO 40 L = 1, N\nB(L,K) = 0.0\n40 CONTINUE\n30 CONTINUE\n10 CONTINUE",
        );
        assert_eq!(t.loops.len(), 4);
        let sub = t.subtree(LoopId(0));
        assert_eq!(sub.len(), 4);
        let path = t.path_to(LoopId(3));
        assert_eq!(path, vec![LoopId(0), LoopId(2), LoopId(3)]);
        assert_eq!(t.max_depth(), 3);
        assert_eq!(t.depth(LoopId(1)), 1);
    }

    #[test]
    fn const_trip_counts() {
        let t = tree_of("DO 10 I = 2, 10, 2\nV(I) = 0.0\n10 CONTINUE");
        assert_eq!(t.get(LoopId(0)).const_trips, Some(5));
        let t = tree_of("DO 10 I = 1, N\nV(I) = 0.0\n10 CONTINUE");
        assert_eq!(t.get(LoopId(0)).const_trips, None);
    }

    #[test]
    fn by_label_lookup() {
        let t = tree_of("DO 77 I = 1, N\nV(I) = 0.0\n77 CONTINUE");
        assert!(t.by_label(77).is_some());
        assert!(t.by_label(78).is_none());
    }
}
