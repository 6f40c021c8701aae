//! A mini-FORTRAN interpreter that emits array page-reference traces.
//!
//! The interpreter executes the program with real `f64` arithmetic (so
//! data-dependent control flow behaves like the original algorithms) and
//! appends one [`Event::Ref`] per array-element read or write. Scalar
//! variables live in registers and never touch the trace; the paper makes
//! the same assumption ("all constants and instructions are permanently
//! resident in memory").
//!
//! # Lowering
//!
//! [`Interpreter::run`] first lowers the checked [`Program`] once into a
//! private slot-resolved tree, then evaluates that tree; the AST itself
//! is never walked at run time. Lowering resolves everything that does
//! not depend on program data:
//!
//! - every scalar name becomes an index into one `Vec<f64>` register
//!   file, with the PARAMETER constants pre-seeded (a never-assigned
//!   scalar reads 0.0);
//! - every array name becomes an index into a `Vec` holding the array's
//!   name, page region (base page, rows, columns) and values, so an
//!   element reference is a bounds check, a multiply-add and a divide;
//! - intrinsic names become an enum;
//! - `CONTINUE` disappears, and a missing `DO` step becomes the
//!   constant 1;
//! - `ALLOCATE`/`LOCK`/`UNLOCK` become pre-built [`Event`]s, so the page
//!   ranges of a `LOCK` inside a loop are computed once, not per
//!   execution.
//!
//! Lowering never fails. An intrinsic called with the wrong number of
//! arguments lowers to a node holding the [`InterpError::WrongArity`]
//! it will raise, because the error belongs to the *execution* of the
//! call: a bad call on a branch that is never taken is not an error.
//! Evaluation order is the AST's: subscripts left to right, right-hand
//! sides before their targets, both operands of `.AND.`/`.OR.` (so
//! their references trace), and intrinsic arguments left to right.

use std::collections::HashMap;
use std::fmt;

use cdmm_lang::ast::{BinOp, Directive, Expr, Program, RelOp, Stmt, UnOp};
use cdmm_lang::sema::SymbolTable;
use cdmm_lang::LangError;

use crate::cancel::CancelToken;
use crate::compress::{CompressedTrace, TraceBuilder};
use crate::event::Event;
use crate::layout::{ArrayRegion, MemoryLayout};

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
    /// The declared arrays, zero-filled, in declaration order.
    arrays: Vec<Array>,
    cancel: Option<CancelToken>,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter over a checked program.
    pub fn new(program: &'a Program, symbols: &SymbolTable, layout: MemoryLayout) -> Self {
        let arrays = symbols
            .order
            .iter()
            .map(|name| Array {
                name: name.clone(),
                region: layout.region(name).cloned().unwrap_or_default(),
                data: vec![0.0; symbols.arrays[name].elements() as usize],
            })
            .collect();
        Interpreter {
            program,
            layout,
            config: InterpConfig::default(),
            arrays,
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
    pub fn run(self) -> Result<(CompressedTrace, ProgramState), InterpError> {
        let declared = self.arrays.len();
        let mut lowering = Lowering {
            layout: &self.layout,
            names: Vec::new(),
            values: Vec::new(),
            arrays: self.arrays,
        };
        for (name, value) in &self.program.params {
            let slot = lowering.scalar(name);
            lowering.values[slot] = *value as f64;
        }
        let body = lowering.block(&self.program.body);
        let mut machine = Machine {
            scalars: lowering.values,
            arrays: lowering.arrays,
            elems_per_page: self.layout.geometry().elems_per_page(),
            builder: TraceBuilder::new(),
            emitted: 0,
            iterations: 0,
            max_events: self.config.max_events,
            cancel: self.cancel,
        };
        machine.block(&body)?;
        let trace = machine.builder.finish(self.layout.total_pages());
        let mut arrays = machine.arrays;
        arrays.truncate(declared);
        let scalars = lowering
            .names
            .iter()
            .map(|name| name.to_string())
            .zip(machine.scalars)
            .collect();
        Ok((trace, ProgramState { scalars, arrays }))
    }
}

/// One array at run time: its name (for errors and the final state),
/// its page region and its column-major values.
#[derive(Debug, Clone)]
struct Array {
    name: String,
    region: ArrayRegion,
    data: Vec<f64>,
}

/// An index into the machine's scalar register file.
type Slot = usize;

/// A lowered expression: names resolved, literals folded to `f64`.
#[derive(Debug)]
enum Ex {
    Const(f64),
    Scalar(Slot),
    Element(Box<Elem>),
    Call(Intrinsic, Box<[Ex]>),
    /// A call that raises this error when evaluated (a wrong arity).
    Fail(Box<InterpError>),
    Bin(BinOp, Box<Ex>, Box<Ex>),
    Neg(Box<Ex>),
    Rel(RelOp, Box<Ex>, Box<Ex>),
    And(Box<Ex>, Box<Ex>),
    Or(Box<Ex>, Box<Ex>),
    Not(Box<Ex>),
}

/// A lowered array element reference.
#[derive(Debug)]
struct Elem {
    array: usize,
    row: Ex,
    /// `None` for vectors (column 1).
    col: Option<Ex>,
}

/// A lowered statement (`CONTINUE` has no lowered form).
#[derive(Debug)]
enum St {
    Do {
        var: Slot,
        lo: Ex,
        hi: Ex,
        step: Ex,
        body: Vec<St>,
    },
    SetScalar(Slot, Ex),
    SetElement(Elem, Ex),
    If {
        cond: Ex,
        then_body: Vec<St>,
        else_body: Vec<St>,
    },
    Directive(Event),
}

/// The twelve intrinsics of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intrinsic {
    Abs,
    Sqrt,
    Exp,
    Alog,
    Sin,
    Cos,
    Float,
    Int,
    Mod,
    Sign,
    Min,
    Max,
}

impl Intrinsic {
    /// The intrinsic `name` calls with `argc` arguments, or `None` for
    /// an unknown name or a wrong arity.
    fn resolve(name: &str, argc: usize) -> Option<Intrinsic> {
        use Intrinsic::*;
        let f = match name {
            "ABS" => Abs,
            "SQRT" => Sqrt,
            "EXP" => Exp,
            "ALOG" => Alog,
            "SIN" => Sin,
            "COS" => Cos,
            "FLOAT" => Float,
            "INT" => Int,
            "MOD" => Mod,
            "SIGN" => Sign,
            "MIN" => Min,
            "MAX" => Max,
            _ => return None,
        };
        let arity_ok = match f {
            Mod | Sign => argc == 2,
            Min | Max => argc >= 2,
            _ => argc == 1,
        };
        arity_ok.then_some(f)
    }
}

/// The once-per-run pass from the checked AST to the lowered tree.
struct Lowering<'p> {
    layout: &'p MemoryLayout,
    /// Scalar names by slot.
    names: Vec<&'p str>,
    /// Initial scalar values by slot (PARAMETERs, else 0.0).
    values: Vec<f64>,
    /// Declared arrays first, then any name only the body mentions.
    arrays: Vec<Array>,
}

impl<'p> Lowering<'p> {
    fn scalar(&mut self, name: &'p str) -> Slot {
        if let Some(slot) = self.names.iter().position(|n| *n == name) {
            return slot;
        }
        self.names.push(name);
        self.values.push(0.0);
        self.names.len() - 1
    }

    /// An array the symbol table does not know (possible only for an
    /// unchecked program) gets an empty region, so every reference to it
    /// raises [`InterpError::OutOfBounds`] rather than panicking.
    fn array(&mut self, name: &str) -> usize {
        if let Some(index) = self.arrays.iter().position(|a| a.name == name) {
            return index;
        }
        self.arrays.push(Array {
            name: name.to_string(),
            region: ArrayRegion::default(),
            data: Vec::new(),
        });
        self.arrays.len() - 1
    }

    fn block(&mut self, stmts: &'p [Stmt]) -> Vec<St> {
        stmts.iter().filter_map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'p Stmt) -> Option<St> {
        Some(match stmt {
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                ..
            } => St::Do {
                var: self.scalar(var),
                lo: self.expr(lo),
                hi: self.expr(hi),
                step: step.as_ref().map_or(Ex::Const(1.0), |s| self.expr(s)),
                body: self.block(body),
            },
            Stmt::Assign { target, value, .. } => match target {
                Expr::Scalar(name) => St::SetScalar(self.scalar(name), self.expr(value)),
                Expr::Element { array, indices, .. } => {
                    St::SetElement(self.element(array, indices), self.expr(value))
                }
                other => unreachable!("sema rejects target {other:?}"),
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => St::If {
                cond: self.expr(cond),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
            Stmt::Continue { .. } => return None,
            Stmt::Directive { dir, .. } => St::Directive(match dir {
                Directive::Allocate { args } => Event::Alloc(args.clone()),
                Directive::Lock { pj, arrays } => Event::Lock {
                    pj: *pj,
                    ranges: self.layout.ranges_of(arrays),
                },
                Directive::Unlock { arrays } => Event::Unlock {
                    ranges: self.layout.ranges_of(arrays),
                },
            }),
        })
    }

    fn element(&mut self, array: &str, indices: &'p [Expr]) -> Elem {
        Elem {
            array: self.array(array),
            row: self.expr(&indices[0]),
            col: indices.get(1).map(|c| self.expr(c)),
        }
    }

    fn boxed(&mut self, e: &'p Expr) -> Box<Ex> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'p Expr) -> Ex {
        match e {
            Expr::Int(v) => Ex::Const(*v as f64),
            Expr::Real(v) => Ex::Const(*v),
            Expr::Scalar(name) => Ex::Scalar(self.scalar(name)),
            Expr::Element { array, indices, .. } => {
                Ex::Element(Box::new(self.element(array, indices)))
            }
            Expr::Call { name, args, .. } => match Intrinsic::resolve(name, args.len()) {
                Some(f) => Ex::Call(f, args.iter().map(|a| self.expr(a)).collect()),
                None => Ex::Fail(Box::new(InterpError::WrongArity {
                    name: name.clone(),
                    got: args.len(),
                })),
            },
            Expr::Bin { op, lhs, rhs } => Ex::Bin(*op, self.boxed(lhs), self.boxed(rhs)),
            Expr::Un {
                op: UnOp::Neg,
                operand,
            } => Ex::Neg(self.boxed(operand)),
            Expr::Rel { op, lhs, rhs } => Ex::Rel(*op, self.boxed(lhs), self.boxed(rhs)),
            Expr::And(a, b) => Ex::And(self.boxed(a), self.boxed(b)),
            Expr::Or(a, b) => Ex::Or(self.boxed(a), self.boxed(b)),
            Expr::Not(inner) => Ex::Not(self.boxed(inner)),
        }
    }
}

/// The evaluator over the lowered tree: registers, arrays, the trace
/// under construction and the event/iteration counters.
struct Machine {
    scalars: Vec<f64>,
    arrays: Vec<Array>,
    elems_per_page: u64,
    /// References and directives stream into the compressed builder;
    /// the flat `Vec<Event>` only exists if a caller asks for it.
    builder: TraceBuilder,
    emitted: u64,
    /// `DO` iterations started, for the poll cadence only.
    iterations: u64,
    max_events: u64,
    cancel: Option<CancelToken>,
}

impl Machine {
    /// Charges one logical event against the runaway-trace cap and, on
    /// the poll cadence, against the cancellation token.
    fn charge(&mut self) -> Result<(), InterpError> {
        if self.emitted >= self.max_events {
            return Err(InterpError::EventLimit {
                limit: self.max_events,
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

    fn block(&mut self, stmts: &[St]) -> Result<(), InterpError> {
        for stmt in stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &St) -> Result<(), InterpError> {
        match stmt {
            St::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.eval(lo)?.round() as i64;
                let hi = self.eval(hi)?.round() as i64;
                let step = self.eval(step)?.round() as i64;
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
                    self.scalars[*var] = v as f64;
                    self.block(body)?;
                    v += step;
                }
                // The control variable keeps its post-loop value.
                self.scalars[*var] = v as f64;
            }
            St::SetScalar(slot, value) => self.scalars[*slot] = self.eval(value)?,
            St::SetElement(elem, value) => {
                let v = self.eval(value)?;
                let linear = self.touch(elem)?;
                self.arrays[elem.array].data[linear] = v;
            }
            St::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.eval(cond)? != 0.0 {
                    self.block(then_body)?;
                } else {
                    self.block(else_body)?;
                }
            }
            St::Directive(event) => {
                self.charge()?;
                self.builder.push_directive(event.clone());
            }
        }
        Ok(())
    }

    /// Evaluates the subscripts of an element, records the reference
    /// and returns the element's storage offset.
    fn touch(&mut self, elem: &Elem) -> Result<usize, InterpError> {
        let row = self.subscript(elem.array, &elem.row)?;
        let col = match &elem.col {
            Some(index) => self.subscript(elem.array, index)?,
            None => 1,
        };
        let array = &self.arrays[elem.array];
        let Some(linear) = array.region.offset(row, col) else {
            return Err(InterpError::OutOfBounds {
                array: array.name.clone(),
                row,
                col,
            });
        };
        let page = array.region.page(linear, self.elems_per_page);
        self.charge()?;
        self.builder.push_ref(page);
        Ok(linear as usize)
    }

    fn subscript(&mut self, array: usize, e: &Ex) -> Result<i64, InterpError> {
        let v = self.eval(e)?;
        if v.fract().abs() > 1e-9 || !v.is_finite() {
            return Err(InterpError::BadSubscript {
                array: self.arrays[array].name.clone(),
                value: v,
            });
        }
        Ok(v.round() as i64)
    }

    fn eval(&mut self, e: &Ex) -> Result<f64, InterpError> {
        let truth = |b: bool| if b { 1.0 } else { 0.0 };
        Ok(match e {
            Ex::Const(v) => *v,
            Ex::Scalar(slot) => self.scalars[*slot],
            Ex::Element(elem) => {
                let linear = self.touch(elem)?;
                self.arrays[elem.array].data[linear]
            }
            Ex::Call(f, args) => self.call(*f, args)?,
            Ex::Fail(err) => return Err((**err).clone()),
            Ex::Bin(op, lhs, rhs) => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div if b == 0.0 => 0.0,
                    BinOp::Div => a / b,
                    BinOp::Pow => clamp_finite(a.powf(b)),
                }
            }
            Ex::Neg(operand) => -self.eval(operand)?,
            Ex::Rel(op, lhs, rhs) => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                truth(match op {
                    RelOp::Gt => a > b,
                    RelOp::Ge => a >= b,
                    RelOp::Lt => a < b,
                    RelOp::Le => a <= b,
                    RelOp::Eq => a == b,
                    RelOp::Ne => a != b,
                })
            }
            // FORTRAN does not guarantee short-circuiting, and the
            // denotation is the same for side-effect-free operands, so
            // both sides always run and their array references trace.
            Ex::And(lhs, rhs) => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                truth(a != 0.0 && b != 0.0)
            }
            Ex::Or(lhs, rhs) => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                truth(a != 0.0 || b != 0.0)
            }
            Ex::Not(inner) => truth(self.eval(inner)? == 0.0),
        })
    }

    fn call(&mut self, f: Intrinsic, args: &[Ex]) -> Result<f64, InterpError> {
        let a = self.eval(&args[0])?;
        let b = match args.get(1) {
            Some(e) => self.eval(e)?,
            None => 0.0,
        };
        Ok(match f {
            Intrinsic::Abs => a.abs(),
            Intrinsic::Sqrt => a.abs().sqrt(),
            Intrinsic::Exp => clamp_finite(a.min(700.0).exp()),
            Intrinsic::Alog if a == 0.0 => 0.0,
            Intrinsic::Alog => a.abs().ln(),
            Intrinsic::Sin => a.sin(),
            Intrinsic::Cos => a.cos(),
            Intrinsic::Float => a,
            Intrinsic::Int => a.trunc(),
            Intrinsic::Mod if b == 0.0 => 0.0,
            Intrinsic::Mod => a % b,
            Intrinsic::Sign if b < 0.0 => -a.abs(),
            Intrinsic::Sign => a.abs(),
            Intrinsic::Min | Intrinsic::Max => {
                let pick = if f == Intrinsic::Min {
                    f64::min
                } else {
                    f64::max
                };
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
    arrays: Vec<Array>,
}

impl ProgramState {
    /// Final value of a scalar (0.0 when never assigned, like the
    /// interpreter's own default).
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Final value of `array(row, col)` (1-based, column-major), or
    /// `None` for an unknown array or a subscript outside the array's
    /// declared extents. Pass `col = 1` for vectors.
    pub fn element(&self, array: &str, row: u64, col: u64) -> Option<f64> {
        let array = self.arrays.iter().find(|a| a.name == array)?;
        let linear = array
            .region
            .offset(i64::try_from(row).ok()?, i64::try_from(col).ok()?)?;
        array.data.get(linear as usize).copied()
    }

    /// The raw column-major contents of one array.
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        let array = self.arrays.iter().find(|a| a.name == name)?;
        Some(&array.data)
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
    use crate::event::{PageId, PageRange, Trace};
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
    fn wrong_arity_is_raised_only_when_the_call_runs() {
        // Never taken: no error, and the references around it trace.
        let (t, state) = run_with(
            "PROGRAM T\nDIMENSION V(4)\nV(1) = 2.0\nIF (V(1) .LT. 0.0) X = MOD(V(2))\nY = V(1)\nEND",
            |i| i,
        )
        .unwrap();
        assert_eq!(t.ref_count(), 3);
        assert_eq!(state.scalar("Y"), 2.0);
        // Taken on the third iteration: the first two iterations trace.
        let err = run_with(
            "PROGRAM T\nDIMENSION V(4)\nDO 10 I = 1, 4\nV(I) = 1.0\nIF (I .EQ. 3) X = SQRT(1.0, 2.0)\n10 CONTINUE\nEND",
            |i| i,
        )
        .unwrap_err();
        assert_eq!(
            err,
            InterpError::WrongArity {
                name: "SQRT".into(),
                got: 2
            }
        );
    }

    #[test]
    fn unassigned_scalars_read_zero_and_parameters_are_preset() {
        let (_, state) = run_with(
            "PROGRAM T\nPARAMETER (N = 5)\nDIMENSION V(N)\nX = U + 1.0\nN = N + 1\nV(N - 1) = 1.0\nEND",
            |i| i,
        )
        .unwrap();
        assert_eq!(state.scalar("X"), 1.0);
        assert_eq!(state.scalar("U"), 0.0);
        assert_eq!(
            state.scalar("N"),
            6.0,
            "a PARAMETER is an ordinary scalar at run time"
        );
        assert_eq!(state.scalar("NEVER"), 0.0);
        assert_eq!(state.array("V").unwrap()[4], 1.0);
    }

    #[test]
    fn locks_inside_loops_carry_the_same_ranges_every_time() {
        let t = trace(
            "PROGRAM T\nDIMENSION V(64), W(200)\nDO 10 I = 1, 3\n!MD$ LOCK (2,W,Z,V)\nW(I) = 1.0\n!MD$ UNLOCK (W)\n10 CONTINUE\nEND",
        );
        let locks: Vec<&Event> = t
            .events
            .iter()
            .filter(|e| matches!(e, Event::Lock { .. }))
            .collect();
        assert_eq!(locks.len(), 3);
        let want = Event::Lock {
            pj: 2,
            ranges: vec![PageRange::new(1, 5), PageRange::new(0, 1)],
        };
        assert!(locks.iter().all(|e| **e == want), "{locks:?}");
    }

    #[test]
    fn state_elements_are_bounds_checked() {
        let (_, state) = run_with(
            "PROGRAM T\nDIMENSION A(3,2), V(4)\nA(1,2) = 7.0\nA(3,2) = 9.0\nV(4) = 1.0\nEND",
            |i| i,
        )
        .unwrap();
        assert_eq!(state.element("A", 1, 2), Some(7.0));
        assert_eq!(state.element("A", 3, 2), Some(9.0));
        assert_eq!(state.element("V", 4, 1), Some(1.0));
        // Row 4 of a 3-row matrix is out of bounds, not a wrap into
        // the next column (A(1,2) = 7.0).
        assert_eq!(state.element("A", 4, 1), None);
        assert_eq!(state.element("A", 1, 3), None);
        assert_eq!(state.element("A", 0, 1), None);
        assert_eq!(state.element("V", 1, 2), None);
        assert_eq!(state.element("A", u64::MAX, u64::MAX), None);
        assert_eq!(state.element("B", 1, 1), None);
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
