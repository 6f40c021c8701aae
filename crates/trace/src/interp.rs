//! A mini-FORTRAN interpreter that emits array page-reference traces.
//!
//! The interpreter executes the program with real `f64` arithmetic (so
//! data-dependent control flow behaves like the original algorithms) and
//! appends one [`Event::Ref`] per array-element read or write. Scalar
//! variables live in registers and never touch the trace; the paper makes
//! the same assumption ("all constants and instructions are permanently
//! resident in memory").

use std::collections::HashMap;
use std::fmt;

use cdmm_lang::ast::{BinOp, Directive, Expr, Program, RelOp, Stmt, UnOp};
use cdmm_lang::sema::SymbolTable;
use cdmm_lang::LangError;

use crate::cancel::CancelToken;
use crate::compress::{CompressedTrace, TraceBuilder};
use crate::event::Event;
use crate::layout::MemoryLayout;

/// How many emitted events — and, separately, how many `DO` iterations —
/// pass between [`CancelToken`] polls. A poll reads the monotonic clock
/// when a deadline is set, which would dominate the ~nanoseconds it
/// takes to emit one reference; every 4096 the cost vanishes while a
/// deadline still bounds `prepare` within a fraction of a millisecond
/// of trace generation. Counting iterations too means a loop that
/// touches no array still sees the deadline.
pub const POLL_INTERVAL: u64 = 4096;

/// Interpreter limits and switches.
#[derive(Debug, Clone, Copy)]
pub struct InterpConfig {
    /// Hard cap on emitted events; exceeding it is an error (runaway-loop
    /// protection for generated workloads).
    pub max_events: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_events: 100_000_000,
        }
    }
}

/// Anything that can go wrong while generating a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Front-end failure (when entering through
    /// [`crate::trace_program_compressed`]).
    Lang(LangError),
    /// A subscript fell outside the declared extents.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Row subscript used.
        row: i64,
        /// Column subscript used (1 for vectors).
        col: i64,
    },
    /// A subscript expression evaluated to a non-integer.
    BadSubscript {
        /// Array name.
        array: String,
        /// Offending value.
        value: f64,
    },
    /// An intrinsic was called with the wrong number of arguments.
    WrongArity {
        /// Intrinsic name.
        name: String,
        /// Arguments received.
        got: usize,
    },
    /// A `DO` loop has a zero step.
    ZeroStep,
    /// The event cap was exceeded.
    EventLimit {
        /// The configured cap.
        limit: u64,
    },
    /// A [`CancelToken`] stopped trace generation (cancellation or an
    /// expired deadline).
    Cancelled {
        /// Logical events emitted before the stop.
        events_done: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Lang(e) => write!(f, "front end: {e}"),
            InterpError::OutOfBounds { array, row, col } => {
                write!(f, "subscript ({row},{col}) out of bounds for array {array}")
            }
            InterpError::BadSubscript { array, value } => {
                write!(f, "non-integer subscript {value} for array {array}")
            }
            InterpError::WrongArity { name, got } => {
                write!(f, "intrinsic {name} called with {got} arguments")
            }
            InterpError::ZeroStep => f.write_str("DO loop with zero step"),
            InterpError::EventLimit { limit } => {
                write!(f, "trace exceeded the {limit}-event limit")
            }
            InterpError::Cancelled { events_done } => {
                write!(f, "trace generation cancelled after {events_done} events")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Executes one program and produces its trace.
#[derive(Debug)]
pub struct Interpreter<'a> {
    program: &'a Program,
    layout: MemoryLayout,
    config: InterpConfig,
    scalars: HashMap<String, f64>,
    arrays: HashMap<String, Vec<f64>>,
    /// References and directives stream into the compressed builder;
    /// the flat `Vec<Event>` only exists if a caller asks for it.
    builder: TraceBuilder,
    emitted: u64,
    /// `DO` iterations started, for the poll cadence only.
    iterations: u64,
    cancel: Option<CancelToken>,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a checked program.
    pub fn new(program: &'a Program, symbols: &SymbolTable, layout: MemoryLayout) -> Self {
        let mut arrays = HashMap::new();
        for (name, shape) in &symbols.arrays {
            arrays.insert(name.clone(), vec![0.0_f64; shape.elements() as usize]);
        }
        // PARAMETER constants are ordinary named values at run time.
        let scalars: HashMap<String, f64> = program
            .params
            .iter()
            .map(|(n, v)| (n.clone(), *v as f64))
            .collect();
        Interpreter {
            program,
            layout,
            config: InterpConfig::default(),
            scalars,
            arrays,
            builder: TraceBuilder::new(),
            emitted: 0,
            iterations: 0,
            cancel: None,
        }
    }

    /// Overrides the interpreter limits.
    pub fn with_config(mut self, config: InterpConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a cancellation token, polled every [`POLL_INTERVAL`]
    /// emitted events and every [`POLL_INTERVAL`] `DO` iterations, so a
    /// deadline bounds trace generation too.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the program to completion and returns its compressed trace
    /// together with its final variable state (for checking that the
    /// traced computation is numerically sensible). Callers that need
    /// random access flatten the trace with
    /// [`CompressedTrace::to_trace`].
    pub fn run(mut self) -> Result<(CompressedTrace, ProgramState), InterpError> {
        let body = &self.program.body;
        self.exec_block(body)?;
        let trace = self.builder.finish(self.layout.total_pages());
        let state = ProgramState {
            scalars: self.scalars,
            arrays: self.arrays,
        };
        Ok((trace, state))
    }

    /// Charges one logical event against the runaway-trace cap and, on
    /// the poll cadence, against the cancellation token.
    fn charge(&mut self) -> Result<(), InterpError> {
        if self.emitted >= self.config.max_events {
            return Err(InterpError::EventLimit {
                limit: self.config.max_events,
            });
        }
        if self.emitted.is_multiple_of(POLL_INTERVAL) {
            self.poll()?;
        }
        self.emitted += 1;
        Ok(())
    }

    /// Fails with [`InterpError::Cancelled`] once the token says stop.
    fn poll(&self) -> Result<(), InterpError> {
        match &self.cancel {
            Some(token) if token.should_stop() => Err(InterpError::Cancelled {
                events_done: self.emitted,
            }),
            _ => Ok(()),
        }
    }

    fn push(&mut self, ev: Event) -> Result<(), InterpError> {
        self.charge()?;
        self.builder.push_directive(ev);
        Ok(())
    }

    fn exec_block(&mut self, stmts: &'a [Stmt]) -> Result<(), InterpError> {
        for stmt in stmts {
            self.exec_stmt(stmt)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, stmt: &'a Stmt) -> Result<(), InterpError> {
        match stmt {
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => {
                let lo = self.eval_int(lo, "DO bound")?;
                let hi = self.eval_int(hi, "DO bound")?;
                let step = match step {
                    Some(s) => self.eval_int(s, "DO step")?,
                    None => 1,
                };
                if step == 0 {
                    return Err(InterpError::ZeroStep);
                }
                // FORTRAN-77 trip count semantics, in i128 so that no
                // pair of i64 bounds can overflow the count or the
                // control variable.
                let (lo, hi, step) = (lo as i128, hi as i128, step as i128);
                let trips = (hi - lo + step) / step;
                let mut v = lo;
                for _ in 0..trips.max(0) {
                    if self.iterations.is_multiple_of(POLL_INTERVAL) {
                        self.poll()?;
                    }
                    self.iterations += 1;
                    self.scalars.insert(var.clone(), v as f64);
                    self.exec_block(body)?;
                    v += step;
                }
                // The control variable keeps its post-loop value.
                self.scalars.insert(var.clone(), v as f64);
                Ok(())
            }
            Stmt::Assign { target, value, .. } => {
                let v = self.eval(value)?;
                match target {
                    Expr::Scalar(name) => {
                        self.scalars.insert(name.clone(), v);
                        Ok(())
                    }
                    Expr::Element { array, indices, .. } => {
                        let linear = self.touch(array, indices)?;
                        let slot = self
                            .arrays
                            .get_mut(array)
                            .expect("sema guarantees the array exists");
                        slot[linear] = v;
                        Ok(())
                    }
                    other => unreachable!("sema rejects target {other:?}"),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.eval(cond)?;
                if c != 0.0 {
                    self.exec_block(then_body)
                } else {
                    self.exec_block(else_body)
                }
            }
            Stmt::Continue { .. } => Ok(()),
            Stmt::Directive { dir, .. } => self.exec_directive(dir),
        }
    }

    fn exec_directive(&mut self, dir: &Directive) -> Result<(), InterpError> {
        match dir {
            Directive::Allocate { args } => self.push(Event::Alloc(args.clone())),
            Directive::Lock { pj, arrays } => {
                let ranges = self.layout.ranges_of(arrays);
                self.push(Event::Lock { pj: *pj, ranges })
            }
            Directive::Unlock { arrays } => {
                let ranges = self.layout.ranges_of(arrays);
                self.push(Event::Unlock { ranges })
            }
        }
    }

    /// Evaluates the subscripts of an element of `array`, records the
    /// reference and returns the element's storage offset.
    fn touch(&mut self, array: &str, indices: &'a [Expr]) -> Result<usize, InterpError> {
        let row = self.eval_subscript(array, &indices[0])?;
        let col = match indices.get(1) {
            Some(index) => self.eval_subscript(array, index)?,
            None => 1,
        };
        let (page, linear) =
            self.layout
                .locate(array, row, col)
                .ok_or_else(|| InterpError::OutOfBounds {
                    array: array.to_string(),
                    row,
                    col,
                })?;
        self.charge()?;
        self.builder.push_ref(page);
        Ok(linear)
    }

    fn eval_subscript(&mut self, array: &str, e: &'a Expr) -> Result<i64, InterpError> {
        let v = self.eval(e)?;
        if v.fract().abs() > 1e-9 || !v.is_finite() {
            return Err(InterpError::BadSubscript {
                array: array.to_string(),
                value: v,
            });
        }
        Ok(v.round() as i64)
    }

    fn eval_int(&mut self, e: &'a Expr, _what: &str) -> Result<i64, InterpError> {
        let v = self.eval(e)?;
        Ok(v.round() as i64)
    }

    fn eval(&mut self, e: &'a Expr) -> Result<f64, InterpError> {
        match e {
            Expr::Int(v) => Ok(*v as f64),
            Expr::Real(v) => Ok(*v),
            Expr::Scalar(name) => Ok(self.scalars.get(name).copied().unwrap_or(0.0)),
            Expr::Element { array, indices, .. } => {
                let linear = self.touch(array, indices)?;
                Ok(self.arrays[array][linear])
            }
            Expr::Call { name, args, .. } => self.eval_intrinsic(name, args),
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                Ok(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            0.0
                        } else {
                            a / b
                        }
                    }
                    BinOp::Pow => clamp_finite(a.powf(b)),
                })
            }
            Expr::Un {
                op: UnOp::Neg,
                operand,
            } => Ok(-self.eval(operand)?),
            Expr::Rel { op, lhs, rhs } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                let r = match op {
                    RelOp::Gt => a > b,
                    RelOp::Ge => a >= b,
                    RelOp::Lt => a < b,
                    RelOp::Le => a <= b,
                    RelOp::Eq => a == b,
                    RelOp::Ne => a != b,
                };
                Ok(if r { 1.0 } else { 0.0 })
            }
            Expr::And(a, b) => {
                let av = self.eval(a)?;
                if av == 0.0 {
                    // FORTRAN does not guarantee short-circuiting, but the
                    // denotation is the same for side-effect-free operands;
                    // we still evaluate `b` so its array references trace.
                    let _ = self.eval(b)?;
                    Ok(0.0)
                } else {
                    Ok(if self.eval(b)? != 0.0 { 1.0 } else { 0.0 })
                }
            }
            Expr::Or(a, b) => {
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                Ok(if av != 0.0 || bv != 0.0 { 1.0 } else { 0.0 })
            }
            Expr::Not(inner) => Ok(if self.eval(inner)? == 0.0 { 1.0 } else { 0.0 }),
        }
    }

    fn eval_intrinsic(&mut self, name: &str, args: &'a [Expr]) -> Result<f64, InterpError> {
        let arity_ok = match name {
            "ABS" | "SQRT" | "EXP" | "ALOG" | "SIN" | "COS" | "FLOAT" | "INT" => args.len() == 1,
            "MOD" | "SIGN" => args.len() == 2,
            "MIN" | "MAX" => args.len() >= 2,
            _ => false,
        };
        if !arity_ok {
            return Err(InterpError::WrongArity {
                name: name.to_string(),
                got: args.len(),
            });
        }
        let a = self.eval(&args[0])?;
        let b = match args.get(1) {
            Some(e) => self.eval(e)?,
            None => 0.0,
        };
        Ok(match name {
            "ABS" => a.abs(),
            "SQRT" => a.abs().sqrt(),
            "EXP" => clamp_finite(a.min(700.0).exp()),
            "ALOG" if a == 0.0 => 0.0,
            "ALOG" => a.abs().ln(),
            "SIN" => a.sin(),
            "COS" => a.cos(),
            "FLOAT" => a,
            "INT" => a.trunc(),
            "MOD" if b == 0.0 => 0.0,
            "MOD" => a % b,
            "SIGN" if b < 0.0 => -a.abs(),
            "SIGN" => a.abs(),
            _ => {
                let pick = if name == "MIN" { f64::min } else { f64::max };
                let mut acc = pick(a, b);
                for e in &args[2..] {
                    acc = pick(acc, self.eval(e)?);
                }
                acc
            }
        })
    }
}

/// The final variable values of an executed program.
#[derive(Debug, Clone, Default)]
pub struct ProgramState {
    scalars: HashMap<String, f64>,
    arrays: HashMap<String, Vec<f64>>,
}

impl ProgramState {
    /// Final value of a scalar (0.0 when never assigned, like the
    /// interpreter's own default).
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Final value of `array(row, col)` (1-based, column-major), or
    /// `None` for unknown arrays. Pass `col = 1` for vectors. The rows
    /// count must be supplied because the state does not retain shapes.
    pub fn element(&self, array: &str, rows: u64, row: u64, col: u64) -> Option<f64> {
        let data = self.arrays.get(array)?;
        if row < 1 || col < 1 {
            return None;
        }
        data.get(((col - 1) * rows + (row - 1)) as usize).copied()
    }

    /// The raw column-major contents of one array.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.get(name).map(Vec::as_slice)
    }
}

/// Replaces non-finite intermediate values with large-but-finite ones so a
/// numerical blow-up cannot poison subscripts later.
fn clamp_finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else if v.is_nan() {
        0.0
    } else if v > 0.0 {
        f64::MAX / 2.0
    } else {
        f64::MIN / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PageId, Trace};
    use crate::trace_program_compressed;
    use cdmm_locality::PageGeometry;

    fn trace(src: &str) -> Trace {
        trace_program_compressed(src, PageGeometry::PAPER)
            .unwrap_or_else(|e| panic!("{e}"))
            .to_trace()
    }

    /// Parses and checks `src`, lets `setup` configure the interpreter
    /// over it, and runs it.
    fn run_with(
        src: &str,
        setup: impl FnOnce(Interpreter<'_>) -> Interpreter<'_>,
    ) -> Result<(CompressedTrace, ProgramState), InterpError> {
        let mut p = cdmm_lang::parse(src).unwrap();
        let syms = cdmm_lang::analyze(&mut p).unwrap();
        let layout = MemoryLayout::new(&syms, PageGeometry::PAPER);
        setup(Interpreter::new(&p, &syms, layout)).run()
    }

    #[test]
    fn sequential_vector_walk_pages_in_order() {
        let t =
            trace("PROGRAM T\nDIMENSION V(128)\nDO 10 I = 1, 128\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 128);
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert!(pages[..64].iter().all(|&p| p == 0));
        assert!(pages[64..].iter().all(|&p| p == 1));
    }

    #[test]
    fn column_walk_stays_on_page_row_walk_strides() {
        let t = trace(
            "PROGRAM T\nPARAMETER (N = 64)\nDIMENSION A(N,N)\nDO 10 K = 1, N\nA(K,3) = 1.0\n10 CONTINUE\nEND",
        );
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        assert!(pages.iter().all(|&p| p == 2), "column 3 lives on page 2");

        let t = trace(
            "PROGRAM T\nPARAMETER (N = 64)\nDIMENSION A(N,N)\nDO 10 J = 1, N\nA(3,J) = 1.0\n10 CONTINUE\nEND",
        );
        let pages: Vec<u32> = t.refs().map(|p| p.0).collect();
        let expect: Vec<u32> = (0..64).collect();
        assert_eq!(pages, expect, "row walk touches a fresh page per step");
    }

    #[test]
    fn values_actually_compute() {
        // Sum 1..100 via an array, then branch on the result.
        let t = trace(
            "PROGRAM T\nDIMENSION V(100), W(1)\nDO 10 I = 1, 100\nV(I) = FLOAT(I)\n10 CONTINUE\n\
             S = 0.0\nDO 20 I = 1, 100\nS = S + V(I)\n20 CONTINUE\n\
             IF (S .EQ. 5050.0) W(1) = 1.0\nEND",
        );
        // 100 writes + 100 reads + 1 conditional write.
        assert_eq!(t.ref_count(), 201);
    }

    #[test]
    fn do_loop_step_and_zero_trip() {
        let t =
            trace("PROGRAM T\nDIMENSION V(10)\nDO 10 I = 1, 10, 3\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 4); // I = 1, 4, 7, 10.
        let t = trace("PROGRAM T\nDIMENSION V(10)\nDO 10 I = 5, 1\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 0, "zero-trip loop");
        let t =
            trace("PROGRAM T\nDIMENSION V(10)\nDO 10 I = 5, 1, -2\nV(I) = 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 3, "negative step: 5, 3, 1");
    }

    #[test]
    fn if_branches_control_tracing() {
        let t = trace(
            "PROGRAM T\nDIMENSION V(4), W(4)\nDO 10 I = 1, 4\nIF (MOD(FLOAT(I), 2.0) .EQ. 0.0) THEN\nV(I) = 1.0\nELSE\nW(I) = 1.0\nENDIF\n10 CONTINUE\nEND",
        );
        assert_eq!(t.ref_count(), 4);
    }

    #[test]
    fn directive_events_pass_through() {
        let t = trace(
            "PROGRAM T\nDIMENSION V(64), W(64)\n!MD$ ALLOCATE ((2,4) ELSE (1,2))\nDO 10 I = 1, 4\n!MD$ LOCK (2,V)\nV(I) = 1.0\n10 CONTINUE\n!MD$ UNLOCK (V)\nEND",
        );
        assert_eq!(t.directive_count(), 1 + 4 + 1);
        match &t.events[0] {
            Event::Alloc(args) => assert_eq!(args.len(), 2),
            other => panic!("{other:?}"),
        }
        let lock = t
            .events
            .iter()
            .find(|e| matches!(e, Event::Lock { .. }))
            .unwrap();
        match lock {
            Event::Lock { pj, ranges } => {
                assert_eq!(*pj, 2);
                assert_eq!(ranges.len(), 1);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[0].end, 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let err = trace_program_compressed(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 5\nV(I) = 1.0\n10 CONTINUE\nEND",
            PageGeometry::PAPER,
        )
        .unwrap_err();
        assert_eq!(
            err,
            InterpError::OutOfBounds {
                array: "V".into(),
                row: 5,
                col: 1
            }
        );
    }

    #[test]
    fn event_limit_trips() {
        let err = run_with(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 1000\nV(1) = 1.0\n10 CONTINUE\nEND",
            |i| i.with_config(InterpConfig { max_events: 10 }),
        )
        .unwrap_err();
        assert_eq!(err, InterpError::EventLimit { limit: 10 });
    }

    #[test]
    fn extreme_do_bounds_neither_overflow_nor_skip_the_loop() {
        // hi - lo + step overflows i64 here; the loop must still run
        // (and so hit the event cap) rather than wrap to zero trips.
        for header in [
            "DO 10 I = -9000000000000000000, 9000000000000000000",
            "DO 10 I = 9000000000000000000, -9000000000000000000, -1",
        ] {
            let src = format!("PROGRAM T\nDIMENSION V(4)\n{header}\nV(1) = 1.0\n10 CONTINUE\nEND");
            let err =
                run_with(&src, |i| i.with_config(InterpConfig { max_events: 1000 })).unwrap_err();
            assert_eq!(err, InterpError::EventLimit { limit: 1000 }, "{header}");
        }
        // Three trips (1, 4e18+1, 8e18+1); the next control value,
        // 1.2e19+1, is past i64::MAX.
        let (t, state) = run_with(
            "PROGRAM T\nDIMENSION V(4)\n\
             DO 10 I = 1, 9000000000000000000, 4000000000000000000\n\
             V(1) = 1.0\n10 CONTINUE\nEND",
            |i| i,
        )
        .unwrap();
        assert_eq!(t.ref_count(), 3);
        assert_eq!(state.scalar("I"), 1.2e19);
    }

    #[test]
    fn cancelled_token_stops_trace_generation_at_the_first_poll() {
        let token = CancelToken::new();
        token.cancel();
        let err = run_with(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 1000\nV(1) = 1.0\n10 CONTINUE\nEND",
            |i| i.with_cancel(token),
        )
        .unwrap_err();
        assert_eq!(err, InterpError::Cancelled { events_done: 0 });
    }

    #[test]
    fn idle_token_leaves_the_trace_unchanged() {
        let src = "PROGRAM T\nDIMENSION V(128)\nDO 10 I = 1, 128\nV(I) = 1.0\n10 CONTINUE\nEND";
        let (traced, _) = run_with(src, |i| i.with_cancel(CancelToken::new())).unwrap();
        assert_eq!(traced.to_trace(), trace(src));
    }

    #[test]
    fn expired_deadline_cancels_a_long_trace_mid_generation() {
        use std::time::Duration;
        // ~10M references: far more than one poll interval, and far more
        // than a zero deadline allows.
        let err = run_with(
            "PROGRAM T\nDIMENSION V(64)\nDO 20 J = 1, 160000\nDO 10 I = 1, 64\nV(I) = 1.0\n10 CONTINUE\n20 CONTINUE\nEND",
            |i| i.with_cancel(CancelToken::with_deadline(Duration::ZERO)),
        )
        .unwrap_err();
        match err {
            InterpError::Cancelled { events_done } => {
                assert!(events_done < POLL_INTERVAL, "stopped at the first poll");
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn expired_deadline_stops_a_loop_that_touches_no_array() {
        use std::time::Duration;
        // Two billion iterations and no reference: only the iteration
        // count reaches the poll cadence.
        let err = run_with(
            "PROGRAM T\nS = 0.0\nDO 10 I = 1, 2000000000\nS = S + 1.0\n10 CONTINUE\nEND",
            |i| i.with_cancel(CancelToken::with_deadline(Duration::ZERO)),
        )
        .unwrap_err();
        assert_eq!(err, InterpError::Cancelled { events_done: 0 });
    }

    #[test]
    fn intrinsics_compute() {
        let (t, state) = run_with(
            "PROGRAM T\nDIMENSION V(8)\n\
             V(1) = SQRT(16.0)\nV(2) = ABS(-3.0)\nV(3) = MAX(1.0, 2.0, 7.0)\n\
             V(4) = MIN(5.0, 2.0)\nV(5) = MOD(7.0, 3.0)\nV(6) = SIGN(2.0, -1.0)\n\
             V(7) = INT(3.9)\nV(8) = ALOG(EXP(1.0))\nEND",
            |i| i,
        )
        .unwrap();
        assert_eq!(t.ref_count(), 8);
        let values = state.array("V").unwrap();
        assert_eq!(values[..7], [4.0, 3.0, 7.0, 2.0, 1.0, -2.0, 3.0]);
        assert!((values[7] - 1.0).abs() < 1e-12);
        for (call, got) in [("SQRT(1.0, 2.0)", 2), ("MOD(1.0)", 1), ("MAX(1.0)", 1)] {
            let src = format!("PROGRAM T\nX = {call}\nEND");
            let err = run_with(&src, |i| i).unwrap_err();
            assert!(
                matches!(err, InterpError::WrongArity { got: g, .. } if g == got),
                "{call}"
            );
        }
    }

    #[test]
    fn scalar_only_programs_emit_nothing() {
        let t = trace("PROGRAM T\nX = 1.0\nDO 10 I = 1, 100\nX = X + 1.0\n10 CONTINUE\nEND");
        assert_eq!(t.ref_count(), 0);
        assert_eq!(t.virtual_pages, 0);
    }

    #[test]
    fn reads_trace_before_writes() {
        let t = trace("PROGRAM T\nDIMENSION V(200)\nV(100) = V(1) + 1.0\nEND");
        let pages: Vec<PageId> = t.refs().collect();
        assert_eq!(
            pages,
            vec![PageId(0), PageId(1)],
            "read page then write page"
        );
    }

    #[test]
    fn indices_may_come_from_arrays() {
        let t = trace("PROGRAM T\nDIMENSION IX(4), V(300)\nIX(1) = 3.0\nV(IX(1) * 64) = 1.0\nEND");
        // Write IX(1); read IX(1); write V(192).
        let pages: Vec<PageId> = t.refs().collect();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[2], PageId(1 + 2), "element 192 is page 3 of V");
    }
}
