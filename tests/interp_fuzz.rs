//! Seeded interpreter fuzzer.
//!
//! Each seed generates a small mini-FORTRAN program from SplitMix64:
//! nested `DO` loops with negative, zero-trip and multi-step strides,
//! data-dependent `IF`s over `.AND.`/`.OR.`/`.NOT.`, all twelve
//! intrinsics, wrong-arity calls on taken and untaken branches,
//! PARAMETERs, vectors and matrices, array-valued, out-of-bounds and
//! non-integer subscripts, and `ALLOCATE`/`LOCK`/`UNLOCK` inside loops,
//! some under a small `max_events` cap or an already-cancelled token.
//! The fixture pins, per seed, the interpreter's whole result: the
//! compressed trace ops and final variable state, or the error.
//!
//! Regenerate the fixture after an intentional interpreter change with:
//!
//! ```text
//! CDMM_BLESS=1 cargo test --test interp_fuzz
//! ```

use std::collections::BTreeMap;

use cdmm_core::sweep::cache::fingerprint_compressed;
use cdmm_core::sweep::KeyHasher;
use cdmm_locality::PageGeometry;
use cdmm_trace::synth::{mix, SplitMix64};
use cdmm_trace::{CancelToken, InterpConfig, Interpreter, MemoryLayout};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/interp_fuzz.txt"
);

const SEEDS: u64 = 400;

/// Scalars the generator may read (`U` is never assigned).
const SCALARS: &[&str] = &["S", "T", "X", "U", "I", "J", "K", "N", "M"];
/// Declared arrays with their extents as source text.
const ARRAYS: &[(&str, &[&str])] = &[
    ("V", &["N"]),
    ("W", &["(2*N)"]),
    ("A", &["M", "N"]),
    ("IX", &["8"]),
];
const LOOP_VARS: &[&str] = &["I", "J", "K"];
const UNARY: &[&str] = &["ABS", "SQRT", "EXP", "ALOG", "SIN", "COS", "FLOAT", "INT"];
const BINARY: &[&str] = &["MOD", "SIGN"];
const VARIADIC: &[&str] = &["MIN", "MAX"];

struct Gen {
    rng: SplitMix64,
    src: String,
    /// Loop variables of the enclosing `DO`s.
    live: Vec<&'static str>,
    next_label: u32,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn line(&mut self, text: &str) {
        self.src.push_str(text);
        self.src.push('\n');
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(10) {
            0..=2 => self.leaf(),
            3..=5 => {
                let op = self.pick(&["+", "-", "*", "/", "**"]);
                let (a, b) = (self.expr(depth - 1), self.expr(depth - 1));
                format!("({a} {op} {b})")
            }
            6 => format!("(-{})", self.expr(depth - 1)),
            7 => self.element(depth - 1),
            _ => self.call(depth - 1),
        }
    }

    fn leaf(&mut self) -> String {
        match self.below(4) {
            0 => self.below(10).to_string(),
            1 => self
                .pick(&["0.5", "1.5", "2.0", "0.25", "3.75"])
                .to_string(),
            _ => self.pick(SCALARS).to_string(),
        }
    }

    fn call(&mut self, depth: u32) -> String {
        let (name, args) = match self.below(4) {
            0 | 1 => (self.pick(UNARY), 1),
            2 => (self.pick(BINARY), 2),
            _ => (self.pick(VARIADIC), 2 + self.below(3)),
        };
        let args: Vec<String> = (0..args).map(|_| self.expr(depth)).collect();
        format!("{name}({})", args.join(", "))
    }

    fn subscript(&mut self, extent: &str, depth: u32) -> String {
        let index = |g: &mut Gen| format!("IX(MOD(INT(ABS({})), 8) + 1)", g.expr(depth));
        match self.below(100) {
            0..=69 => format!("MOD(INT(ABS({})), {extent}) + 1", self.expr(depth)),
            70..=79 if !self.live.is_empty() => {
                let v = self.pick(&self.live.clone());
                match self.below(3) {
                    0 => v.to_string(),
                    1 => format!("{v} + 1"),
                    _ => format!("MOD({v} * {v}, {extent}) + 1"),
                }
            }
            70..=85 => format!("MOD(INT({}), {extent}) + 1", index(self)),
            86..=90 => format!("INT({})", index(self)),
            91..=92 => format!("FLOAT({}) / 2.0", self.leaf()),
            _ => (1 + self.below(12)).to_string(),
        }
    }

    fn element(&mut self, depth: u32) -> String {
        let (name, extents) = self.pick(ARRAYS);
        let subs: Vec<String> = extents.iter().map(|e| self.subscript(e, depth)).collect();
        format!("{name}({})", subs.join(", "))
    }

    fn cond(&mut self, depth: u32) -> String {
        let rel = |g: &mut Gen| {
            let op = g.pick(&[".GT.", ".GE.", ".LT.", ".LE.", ".EQ.", ".NE."]);
            format!("{} {op} {}", g.expr(depth), g.expr(depth))
        };
        match self.below(5) {
            0 => format!("{} .AND. {}", rel(self), rel(self)),
            1 => format!("{} .OR. {}", rel(self), rel(self)),
            2 => format!(".NOT. {}", rel(self)),
            _ => rel(self),
        }
    }

    fn simple(&mut self) -> String {
        let value = self.expr(2);
        if self.chance(40) {
            format!("{} = {value}", self.pick(&["S", "T", "X"]))
        } else {
            format!("{} = {value}", self.element(1))
        }
    }

    fn directive(&mut self) -> String {
        let arrays = |g: &mut Gen| {
            let mut names: Vec<&str> = ["V", "W", "A", "IX", "Z"]
                .into_iter()
                .filter(|_| g.chance(40))
                .collect();
            if names.is_empty() {
                names.push("V");
            }
            names.join(",")
        };
        match self.below(3) {
            0 => format!(
                "!MD$ ALLOCATE (({},{}) ELSE (1,{}))",
                2 + self.below(3),
                4 + self.below(20),
                1 + self.below(4)
            ),
            1 => format!("!MD$ LOCK ({},{})", 1 + self.below(3), arrays(self)),
            _ => format!("!MD$ UNLOCK ({})", arrays(self)),
        }
    }

    fn bound(&mut self) -> String {
        match self.below(6) {
            0 => "N".to_string(),
            1 => "M".to_string(),
            _ => (self.below(14) as i64 - 3).to_string(),
        }
    }

    fn stmt(&mut self, depth: u32) {
        let roll = self.below(100);
        match roll {
            0..=29 => {
                let s = self.simple();
                self.line(&s);
            }
            30..=54 if depth < 3 && self.live.len() < LOOP_VARS.len() => self.do_loop(depth),
            55..=66 if depth < 3 => {
                let c = self.cond(1);
                if self.chance(30) {
                    let s = self.simple();
                    self.line(&format!("IF ({c}) {s}"));
                    return;
                }
                self.line(&format!("IF ({c}) THEN"));
                self.body(depth + 1);
                if self.chance(50) {
                    self.line("ELSE");
                    self.body(depth + 1);
                }
                self.line("ENDIF");
            }
            67..=76 => {
                let d = self.directive();
                self.line(&d);
            }
            77..=79 => {
                // A wrong-arity call, usually on a branch never taken.
                let call = self.pick(&["SQRT(S, T)", "MOD(S)", "MAX(T)", "SIGN(1.0, 2.0, 3.0)"]);
                let guard = if self.chance(70) {
                    "N .LT. 0".to_string()
                } else {
                    self.cond(1)
                };
                self.line(&format!("IF ({guard}) X = {call}"));
            }
            80..=82 => self.line("CONTINUE"),
            _ => {
                let s = self.simple();
                self.line(&s);
            }
        }
    }

    fn body(&mut self, depth: u32) {
        for _ in 0..1 + self.below(4) {
            self.stmt(depth);
        }
    }

    fn do_loop(&mut self, depth: u32) {
        let free: Vec<&'static str> = LOOP_VARS
            .iter()
            .copied()
            .filter(|v| !self.live.contains(v))
            .collect();
        let var = self.pick(&free);
        let (mut lo, mut hi) = (self.bound(), self.bound());
        let step = match self.below(40) {
            0..=17 => String::new(),
            18 => ", 0".to_string(),
            19..=28 => {
                std::mem::swap(&mut lo, &mut hi);
                format!(", -{}", 1 + self.below(3))
            }
            _ => format!(", {}", 1 + self.below(3)),
        };
        let label = self.chance(50).then(|| {
            self.next_label += 10;
            self.next_label
        });
        match label {
            Some(l) => self.line(&format!("DO {l} {var} = {lo}, {hi}{step}")),
            None => self.line(&format!("DO {var} = {lo}, {hi}{step}")),
        }
        self.live.push(var);
        self.body(depth + 1);
        self.live.pop();
        match label {
            Some(l) => self.line(&format!("{l} CONTINUE")),
            None => self.line("END DO"),
        }
    }
}

/// The generated program for `seed`, its event cap and whether it runs
/// under an already-cancelled token.
fn program(seed: u64) -> (String, u64, bool) {
    let mut g = Gen {
        rng: SplitMix64::new(mix(seed)),
        src: String::new(),
        live: Vec::new(),
        next_label: 0,
    };
    let (n, m) = (3 + g.below(22), 2 + g.below(8));
    g.line(&format!("PROGRAM F{seed}"));
    g.line(&format!("PARAMETER (N = {n}, M = {m})"));
    g.line("DIMENSION V(N), W(2*N), A(M,N), IX(8)");
    if g.chance(75) {
        g.line("DO 5 I = 1, 8");
        g.line("IX(I) = MOD(I * 7, N) + 1");
        g.line("5 CONTINUE");
    }
    for _ in 0..4 + g.below(7) {
        g.stmt(0);
    }
    g.line("END");
    let cap = if g.chance(25) {
        5 + g.below(60)
    } else {
        200_000
    };
    let cancelled = g.chance(4);
    (g.src, cap, cancelled)
}

/// Runs one seed and renders its fixture line.
fn outcome(seed: u64) -> String {
    let (src, cap, cancelled) = program(seed);
    let mut ast = cdmm_lang::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let symbols =
        cdmm_lang::analyze(&mut ast).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let layout = MemoryLayout::new(&symbols, PageGeometry::PAPER);
    let mut interp =
        Interpreter::new(&ast, &symbols, layout).with_config(InterpConfig { max_events: cap });
    if cancelled {
        let token = CancelToken::new();
        token.cancel();
        interp = interp.with_cancel(token);
    }
    match interp.run() {
        Ok((trace, state)) => {
            let mut t = KeyHasher::new();
            fingerprint_compressed(&mut t, &trace);
            let mut s = KeyHasher::new();
            for name in SCALARS {
                s.write_u64(state.scalar(name).to_bits());
            }
            for (name, _) in ARRAYS {
                let values = state.array(name).unwrap_or_default();
                s.write_u64(values.len() as u64);
                for v in values {
                    s.write_u64(v.to_bits());
                }
            }
            format!(
                "seed={seed} ok ops={} refs={} directives={} trace={} state={}",
                trace.op_count(),
                trace.ref_count(),
                trace.directive_count(),
                t.finish().to_hex(),
                s.finish().to_hex()
            )
        }
        Err(e) => format!("seed={seed} err {e:?}"),
    }
}

fn kind(line: &str) -> &str {
    let rest = line.split_once(' ').map_or("", |(_, r)| r);
    if rest.starts_with("ok") {
        return "ok";
    }
    let err = rest.trim_start_matches("err ");
    &err[..err.find([' ', '{']).unwrap_or(err.len())]
}

#[test]
fn interpreter_results_match_checked_in_fixture() {
    let got: Vec<String> = (0..SEEDS).map(outcome).collect();

    // The corpus must keep reaching every outcome, or it pins little.
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for line in &got {
        *kinds.entry(kind(line)).or_default() += 1;
    }
    for want in [
        "ok",
        "OutOfBounds",
        "BadSubscript",
        "WrongArity",
        "ZeroStep",
        "EventLimit",
        "Cancelled",
    ] {
        assert!(
            kinds.contains_key(want),
            "no seed reached {want}: {kinds:?}"
        );
    }

    let text = got.join("\n") + "\n";
    if std::env::var_os("CDMM_BLESS").is_some() {
        std::fs::write(FIXTURE, &text).expect("write fixture");
        eprintln!("blessed {FIXTURE} {kinds:?}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test interp_fuzz`");
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(want.len(), got.len(), "fixture has the wrong seed count");
    let drifted: Vec<String> = (0..SEEDS)
        .zip(got.iter().zip(&want))
        .filter(|(_, (g, w))| g != w)
        .map(|(seed, (g, w))| format!("seed {seed}:\n  want {w}\n  got  {g}\n{}", program(seed).0))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} seed(s) drifted from the interpreter fixture:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
