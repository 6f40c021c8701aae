//! Seeded input generators: mini-FORTRAN affine loop nests with a
//! closed-form reference count (`serve_fresh`), and the request mix of
//! the hot serve stream (`serve_hot`).

use cdmm_serve::request::escape_json;

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next() as usize % items.len()]
    }
}

/// A generated program and its reference count in closed form.
#[derive(Debug, Clone)]
pub struct LoopNest {
    /// `PROGRAM` name.
    pub name: String,
    /// Mini-FORTRAN source.
    pub source: String,
    /// Array references the program makes: for every assignment, its
    /// array-reference count times the trip counts of its enclosing
    /// loops.
    pub refs: u64,
}

const ARRAYS: [&str; 4] = ["AA", "BB", "DD", "EE"];
const INDICES: [&str; 3] = ["I", "J", "K"];
/// Reference-count window of a generated program.
pub const MIN_REFS: u64 = 1_000;
/// See [`MIN_REFS`].
pub const MAX_REFS: u64 = 100_000;

/// The `index`-th loop nest of stream `seed`: one to three rectangular
/// nests of depth one to three, with one to three assignments at any
/// level, over two to four `M×M` arrays subscripted by the enclosing
/// loop indices plus a constant offset. Drawn again until its
/// reference count lies in `MIN_REFS..=MAX_REFS`.
pub fn loop_nest(seed: u64, index: u64) -> LoopNest {
    let mut rng = Rng::new(seed, 0x4C4F_4F50 ^ index.wrapping_mul(0x9E37));
    loop {
        if let Some(nest) = try_loop_nest(&mut rng, index) {
            return nest;
        }
    }
}

fn try_loop_nest(rng: &mut Rng, index: u64) -> Option<LoopNest> {
    let arrays = &ARRAYS[..rng.range(2, 4) as usize];
    let mut body = String::new();
    let mut refs = 0u64;
    let mut max_extent = 1u64;
    let mut label = 10u64;
    for _ in 0..rng.range(1, 3) {
        let depth = rng.range(1, 3) as usize;
        let extents: Vec<u64> = (0..depth).map(|_| rng.range(4, 48)).collect();
        max_extent = max_extent.max(*extents.iter().max().expect("depth >= 1"));
        let mut trips = 1u64;
        let mut closers = Vec::new();
        for (d, &extent) in extents.iter().enumerate() {
            let pad = "  ".repeat(d + 1);
            body.push_str(&format!("{pad}DO {label} {} = 1, {extent}\n", INDICES[d]));
            closers.push(format!("{label} CONTINUE\n"));
            label += 10;
            trips *= extent;
            // Statements at inner levels, and always at the innermost.
            if d + 1 == depth || rng.chance(30) {
                for _ in 0..rng.range(1, 3) {
                    let (stmt, n) = assignment(rng, arrays, &INDICES[..=d]);
                    body.push_str(&format!("{pad}  {stmt}\n"));
                    refs += n * trips;
                }
            }
        }
        while let Some(c) = closers.pop() {
            body.push_str(&c);
        }
    }
    if !(MIN_REFS..=MAX_REFS).contains(&refs) {
        return None;
    }
    let name = format!("G{index}");
    let dims = arrays
        .iter()
        .map(|a| format!("{a}(M,M)"))
        .collect::<Vec<_>>()
        .join(", ");
    let source = format!(
        "PROGRAM {name}\nPARAMETER (M = {})\nDIMENSION {dims}\n{body}END\n",
        max_extent + 1
    );
    Some(LoopNest { name, source, refs })
}

/// One assignment over `arrays` with subscripts drawn from `indices`:
/// returns the statement and its array-reference count (one write plus
/// one to three reads).
fn assignment(rng: &mut Rng, arrays: &[&str], indices: &[&str]) -> (String, u64) {
    let subscript = |rng: &mut Rng| {
        let one = |rng: &mut Rng| match rng.range(0, 3) {
            0 => "1".to_string(),
            1 => format!("{} + 1", rng.pick(indices)),
            _ => rng.pick(indices).to_string(),
        };
        let (r, c) = (one(rng), one(rng));
        format!("{}({r},{c})", rng.pick(arrays))
    };
    let lhs = subscript(rng);
    let reads = rng.range(1, 3);
    let rhs: Vec<String> = (0..reads).map(|_| subscript(rng)).collect();
    (format!("{lhs} = {} + 1.5", rhs.join(" * ")), reads + 1)
}

/// A policy operating point of a sim request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// CD at its outermost or innermost directive level.
    Cd {
        /// Honor the innermost request instead of the outermost.
        innermost: bool,
    },
    /// LRU with the given frames.
    Lru(u64),
    /// FIFO with the given frames.
    Fifo(u64),
    /// Clock with the given frames.
    Clock(u64),
    /// Working Set with the given window.
    Ws(u64),
    /// Page-Fault Frequency with the given threshold.
    Pff(u64),
}

impl Policy {
    /// The family name, as the per-family span names use it.
    pub fn family(self) -> &'static str {
        match self {
            Policy::Cd { .. } => "cd",
            Policy::Lru(_) => "lru",
            Policy::Fifo(_) => "fifo",
            Policy::Clock(_) => "clock",
            Policy::Ws(_) => "ws",
            Policy::Pff(_) => "pff",
        }
    }

    /// The request fields selecting this policy.
    fn fields(self) -> String {
        match self {
            Policy::Cd { innermost } => format!(
                "\"policy\":\"cd\",\"level\":\"{}\"",
                if innermost { "innermost" } else { "outermost" }
            ),
            Policy::Lru(f) => format!("\"policy\":\"lru\",\"frames\":{f}"),
            Policy::Fifo(f) => format!("\"policy\":\"fifo\",\"frames\":{f}"),
            Policy::Clock(f) => format!("\"policy\":\"clock\",\"frames\":{f}"),
            Policy::Ws(t) => format!("\"policy\":\"ws\",\"tau\":{t}"),
            Policy::Pff(t) => format!("\"policy\":\"pff\",\"threshold\":{t}"),
        }
    }
}

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// One policy point; `metrics` attaches a registry digest.
    Sim {
        /// The operating point.
        policy: Policy,
        /// Ask for the metrics digest (runs under an observer).
        metrics: bool,
    },
    /// A whole LRU (`lru: true`) or WS curve.
    Sweep {
        /// LRU rather than WS.
        lru: bool,
    },
}

/// One generated request line and what it asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// The JSONL request line.
    pub line: String,
    /// Index of the program in the caller's program list.
    pub program: usize,
    /// The job.
    pub job: Job,
}

/// Paper workload names, in `cdmm_workloads::all` order.
pub const PAPER_PROGRAMS: [&str; 9] = [
    "MAIN", "FDJAC", "TQL", "FIELD", "INIT", "APPROX", "HYBRJ", "CONDUCT", "HWSCRT",
];

/// The hot stream: `count` requests over the nine paper
/// programs. Every (program, family) pair draws its parameters from a
/// pool of three seeded values, one from each of a small, a middle and
/// a large band, so operating points repeat (the result cache answers
/// most of them) and every seed asks for about the same work. About 3%
/// are sweeps, and about 10% of sim requests ask for a metrics digest.
pub fn hot_requests(seed: u64, count: usize) -> Vec<Request> {
    let mut pools = Rng::new(seed, 0x504F_4F4C);
    let mut banded = |bands: [(u64, u64); 3]| bands.map(|(lo, hi)| pools.range(lo, hi));
    let pool: Vec<[[u64; 3]; 3]> = PAPER_PROGRAMS
        .iter()
        .map(|_| {
            [
                banded([(2, 8), (9, 24), (25, 48)]),
                banded([(100, 1_000), (1_001, 5_000), (5_001, 20_000)]),
                banded([(50, 300), (301, 1_500), (1_501, 5_000)]),
            ]
        })
        .collect();
    let mut rng = Rng::new(seed, 0x484F_5400);
    (0..count)
        .map(|n| {
            let program = rng.range(0, PAPER_PROGRAMS.len() as u64 - 1) as usize;
            let [frames, taus, thresholds] = &pool[program];
            let job = if rng.chance(3) {
                Job::Sweep {
                    lru: rng.chance(50),
                }
            } else {
                let policy = match rng.range(0, 5) {
                    0 => Policy::Cd {
                        innermost: rng.chance(50),
                    },
                    1 => Policy::Lru(*rng.pick(frames)),
                    2 => Policy::Fifo(*rng.pick(frames)),
                    3 => Policy::Clock(*rng.pick(frames)),
                    4 => Policy::Ws(*rng.pick(taus)),
                    _ => Policy::Pff(*rng.pick(thresholds)),
                };
                Job::Sim {
                    policy,
                    metrics: rng.chance(10),
                }
            };
            let work = format!(
                "\"id\":\"h{n}\",\"workload\":\"{}\",\"scale\":\"paper\"",
                PAPER_PROGRAMS[program]
            );
            let line = match job {
                Job::Sim { policy, metrics } => {
                    let m = if metrics { ",\"metrics\":true" } else { "" };
                    format!("{{{work},{}{m}}}", policy.fields())
                }
                Job::Sweep { lru } => format!(
                    "{{{work},\"job\":\"sweep\",\"family\":\"{}\"}}",
                    if lru { "lru" } else { "ws" }
                ),
            };
            Request { line, program, job }
        })
        .collect()
}

/// The `index`-th request of the fresh stream: the `index`-th generated
/// program with a seeded LRU, FIFO, WS or CD operating point.
pub fn fresh_request(seed: u64, index: u64) -> Request {
    let nest = loop_nest(seed, index);
    let mut rng = Rng::new(seed, 0x4652_0000 ^ index);
    let policy = match rng.range(0, 3) {
        0 => Policy::Lru(rng.range(2, 32)),
        1 => Policy::Fifo(rng.range(2, 32)),
        2 => Policy::Ws(rng.range(50, 5_000)),
        _ => Policy::Cd {
            innermost: rng.chance(50),
        },
    };
    let line = format!(
        "{{\"id\":\"f{index}\",\"name\":\"{}\",\"source\":\"{}\",{}}}",
        nest.name,
        escape_json(&nest.source),
        policy.fields()
    );
    Request {
        line,
        program: index as usize,
        job: Job::Sim {
            policy,
            metrics: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_locality::PageGeometry;

    #[test]
    fn closed_form_matches_interpreter() {
        for seed in [1u64, 7, 42] {
            for index in 0..40 {
                let nest = loop_nest(seed, index);
                let trace = cdmm_trace::trace_program_compressed(&nest.source, PageGeometry::PAPER)
                    .unwrap_or_else(|e| panic!("{e}\n{}", nest.source));
                assert_eq!(trace.ref_count(), nest.refs, "\n{}", nest.source);
                assert!((MIN_REFS..=MAX_REFS).contains(&nest.refs));
            }
        }
    }

    #[test]
    fn generators_are_seeded() {
        assert_eq!(loop_nest(3, 5).source, loop_nest(3, 5).source);
        assert_ne!(loop_nest(3, 5).source, loop_nest(4, 5).source);
        let lines =
            |seed| -> Vec<String> { hot_requests(seed, 50).into_iter().map(|r| r.line).collect() };
        assert_eq!(lines(9), lines(9));
        assert_ne!(lines(9), lines(10));
        assert_eq!(fresh_request(3, 5).line, fresh_request(3, 5).line);
    }

    #[test]
    fn generated_requests_parse() {
        for r in hot_requests(5, 400) {
            cdmm_serve::parse_request(&r.line).unwrap_or_else(|e| panic!("{e}: {}", r.line));
        }
        for i in 0..20 {
            let r = fresh_request(5, i);
            cdmm_serve::parse_request(&r.line).unwrap_or_else(|e| panic!("{e}: {}", r.line));
        }
    }
}
