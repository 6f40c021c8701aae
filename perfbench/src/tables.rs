//! `paper_tables`: the paper's Tables 1–4 at `Scale::Paper`, one fresh
//! `Harness` per pass, as `experiments_md` runs them. One operation is a
//! cold pass, which starts from an empty on-disk result cache and fills
//! it, followed by a warm pass over the cache the cold pass filled.
//! Passes run on the serial executor: with two workers the pass time
//! depends on how the nine prepares happen to split between them, which
//! makes it bimodal from pass to pass.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cdmm_core::experiments::{
    table1, table2, table3, table4, Harness, TABLE1_ROWS, TABLE2_ROWS, TABLE34_ROWS,
};
use cdmm_core::sweep::{self, SweepPlan};
use cdmm_core::{selector_for, Executor, PolicySpec, Prepared, ResultCache};
use cdmm_workloads::Scale;

use crate::gen::Rng;
use crate::layers::Tracer;
use crate::{out_dir, refsim, Args, Run};

/// Runs `op` back to back until `seconds` have passed (at least once),
/// recording each call's wall time.
fn measure(run: &mut Run, seconds: f64, mut op: impl FnMut(&mut Run) -> Duration) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        let d = op(run);
        run.op_ns.push(d.as_nanos() as u64);
        if start.elapsed() >= budget {
            break;
        }
    }
    run.window_s = start.elapsed().as_secs_f64();
}

/// Root spans of one pass, in call order.
pub const OP_SPANS: [&str; 7] = [
    "core.cache_open",
    "core.harness",
    "core.table1",
    "core.table2",
    "core.table3",
    "core.table4",
    "core.cache_flush",
];

/// Set-up repetitions, for a steady `setup_s` median.
const SETUPS: usize = 3;

fn fresh_dir(n: u64) -> PathBuf {
    let dir = out_dir().join(format!("cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a cache directory");
    dir
}

fn harness(cache: ResultCache) -> Harness {
    Harness::new(Scale::Paper)
        .with_executor(Executor::serial())
        .with_result_cache(cache)
}

/// The rows of one table as text: `Debug` prints every float to the
/// last bit, so equal text means equal tables.
fn text(rows: &impl std::fmt::Debug) -> String {
    format!("{rows:?}\n")
}

/// One untraced pass over the cache in `dir`: its wall time, the four
/// tables as text, and the harness (for the output checks).
fn pass(dir: &Path) -> (Duration, String, Harness) {
    let t0 = Instant::now();
    let mut h = harness(ResultCache::at_dir(dir).expect("open the result cache"));
    let mut out = text(&table1(&mut h));
    out += &text(&table2(&mut h));
    out += &text(&table3(&mut h));
    out += &text(&table4(&mut h));
    h.result_cache().flush().expect("flush the result cache");
    (t0.elapsed(), out, h)
}

/// One pass with a span around every call, and replays of the work the
/// harness does inside each table as children: `prepare` stage by stage
/// for each program the table prepares first, the CD runs a cold cache
/// misses, and the LRU and WS curve builds.
fn traced_pass(
    dir: &Path,
    cold: bool,
    request: u64,
    tr: &mut Tracer,
) -> (Duration, String, Harness) {
    let (open, cache) = tr.spans.time("core.cache_open", None, request, || {
        ResultCache::at_dir(dir).expect("open the result cache")
    });
    let (build, mut h) = tr
        .spans
        .time("core.harness", None, request, || harness(cache));
    let mut own_ns = [open, build]
        .iter()
        .map(|&i| tr.spans.spans()[i].duration_ns())
        .sum::<u64>();
    let mut prepared: Vec<Prepared> = Vec::new();
    let mut cd_done: BTreeSet<(String, String)> = BTreeSet::new();
    let mut curves_done: BTreeSet<String> = BTreeSet::new();
    let mut out = String::new();
    for (k, span) in OP_SPANS[2..6].iter().enumerate() {
        let id = tr.spans.open(span, None, request);
        out += &match k {
            0 => text(&table1(&mut h)),
            1 => text(&table2(&mut h)),
            2 => text(&table3(&mut h)),
            _ => text(&table4(&mut h)),
        };
        own_ns += tr.spans.close(id);
        let rows: &[&str] = match k {
            0 => &TABLE1_ROWS,
            1 => &TABLE2_ROWS,
            _ => &TABLE34_ROWS,
        };
        for &row in rows {
            let (w, _) = h.resolve(row);
            if !prepared.iter().any(|p| p.name() == w.name) {
                let config = *h.prepared_ref(row).config();
                prepared.push(tr.prepare(Some(id), request, w.name, &w.source, config, false));
            }
            let p = prepared
                .iter()
                .find(|p| p.name() == w.name)
                .expect("prepared above");
            // The CD points each table reads: Table 2 compares against
            // the best of every variant, the others read the row's own.
            let variants: Vec<_> = if k == 1 {
                w.variants.iter().map(|v| v.level).collect()
            } else {
                vec![h.resolve(row).1.level]
            };
            for level in variants {
                if cold && cd_done.insert((w.name.to_string(), format!("{level:?}"))) {
                    let spec = PolicySpec::Cd {
                        selector: selector_for(level),
                    };
                    tr.simulate(id, request, p, spec, "cd");
                }
            }
            if k >= 1 && curves_done.insert(w.name.to_string()) {
                let scratch = ResultCache::in_memory();
                let plan = SweepPlan::new(&scratch, p);
                tr.spans
                    .time("vmsim.lru_curve", Some(id), request, || plan.lru_curve());
                tr.spans
                    .time("vmsim.ws_curve", Some(id), request, || plan.ws_curve());
            }
        }
    }
    let flush = tr.spans.open("core.cache_flush", None, request);
    h.result_cache().flush().expect("flush the result cache");
    own_ns += tr.spans.close(flush);
    tr.count_cache(Default::default(), h.exec_stats());
    // The pass's own time: its root spans, without the replays.
    (Duration::from_nanos(own_ns), out, h)
}

/// Runs `paper_tables`.
pub fn run(args: &Args, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let mut run = Run::default();
    // Set-up: a fresh harness prepares every program, so first-use costs
    // (allocator growth, paging in code) leave the timed passes.
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        harness(ResultCache::in_memory()).prepare_rows(&TABLE34_ROWS);
        run.setup_s.push(t0.elapsed().as_secs_f64());
    }
    if let Some(tr) = tracer.as_deref_mut() {
        tr.spans.set_setup(false);
    }

    let mut expected = String::new();
    // The latest warm pass's harness and cache directory, kept for the
    // output checks after the timed phase.
    let mut last: Option<(Harness, PathBuf)> = None;
    let mut n = 0u64;
    measure(&mut run, seconds, |run| {
        n += 1;
        let dir = fresh_dir(n);
        let mut both = Duration::ZERO;
        for (i, kind) in ["cold", "warm"].into_iter().enumerate() {
            let (d, out, h) = match tracer.as_deref_mut() {
                Some(tr) => {
                    let (d, out, h) = traced_pass(&dir, i == 0, n, tr);
                    tr.counts.pass_ns[i] += d.as_nanos() as u64;
                    (d, out, h)
                }
                None => pass(&dir),
            };
            both += d;
            if expected.is_empty() {
                expected = out.clone();
            }
            run.check(out == expected, || {
                format!("{kind} pass {n}: tables differ from the first pass")
            });
            if i == 1 {
                if let Some((h, old)) = last.replace((h, dir.clone())) {
                    drop(h);
                    let _ = std::fs::remove_dir_all(old);
                }
            }
        }
        both
    });
    let (mut h, dir) = last.expect("at least one operation");
    check_matched_points(&mut run, args.seed, &mut h);
    drop(h);
    let _ = std::fs::remove_dir_all(dir);
    run
}

/// Re-checks a seeded sample of Table 3 and Table 4 rows against the
/// reference simulators: the matched LRU and WS points' faults (and
/// LRU's memory integral and peak), the rows' ΔPF, and that each Table 4
/// point is the least one within CD's fault budget. The tables are
/// re-read from the harness, whose caches answer them without new work.
fn check_matched_points(run: &mut Run, seed: u64, h: &mut Harness) {
    let rows3 = table3(h);
    let rows4 = table4(h);
    let mut rng = Rng::new(seed, 0x5441_424C);
    for _ in 0..2 {
        let i = rng.range(0, TABLE34_ROWS.len() as u64 - 1) as usize;
        let (row, t3, t4) = (TABLE34_ROWS[i], &rows3[i], &rows4[i]);
        let cache = h.result_cache();
        let p = h.prepared_ref(row);
        let cd = h.cd_at(row);
        let pages: Vec<u32> = p.plain_trace().iter_refs().map(|pg| pg.0).collect();
        run.check(t3.cd_pf == cd.faults && t4.cd_pf == cd.faults, || {
            format!(
                "{row}: CD faults {} vs tables {} / {}",
                cd.faults, t3.cd_pf, t4.cd_pf
            )
        });

        // Table 3: LRU and WS at CD's mean memory.
        let lru = sweep::lru_match_mem_with(cache, p, cd.mean_mem());
        let r = refsim::lru(&pages, lru.param as usize);
        let m = &lru.metrics;
        run.check(
            (r.refs, r.faults, r.mem_integral, r.peak)
                == (m.refs, m.faults, m.mem_integral, m.peak_resident)
                && t3.lru_dpf == r.faults as i64 - cd.faults as i64,
            || {
                format!(
                    "{row} table 3 LRU({}): {m:?}, ΔPF {} vs reference {r:?}",
                    lru.param, t3.lru_dpf
                )
            },
        );
        let ws = sweep::ws_match_mem_with(cache, p, cd.mean_mem());
        let r = refsim::ws(&pages, ws.param);
        let m = &ws.metrics;
        run.check(
            (r.refs, r.faults) == (m.refs, m.faults)
                && t3.ws_dpf == r.faults as i64 - cd.faults as i64,
            || {
                format!(
                    "{row} table 3 WS({}): {m:?}, ΔPF {} vs reference {r:?}",
                    ws.param, t3.ws_dpf
                )
            },
        );

        // Table 4: the least allocation and window within the budget.
        let budget = cd.faults;
        let lru = sweep::lru_match_pf_with(cache, p, budget);
        let r = refsim::lru(&pages, lru.param as usize);
        let below = (lru.param > 1).then(|| refsim::lru(&pages, lru.param as usize - 1).faults);
        run.check(
            r.faults == lru.metrics.faults
                && r.faults <= budget
                && below.is_none_or(|f| f > budget),
            || {
                format!(
                    "{row} table 4 LRU({}) is not the least allocation within {budget} faults",
                    lru.param
                )
            },
        );
        let ws = sweep::ws_match_pf_with(cache, p, budget);
        let r = refsim::ws(&pages, ws.param);
        let below = (ws.param > 1).then(|| refsim::ws(&pages, ws.param - 1).faults);
        run.check(
            r.faults == ws.metrics.faults && r.faults <= budget && below.is_none_or(|f| f > budget),
            || {
                format!(
                    "{row} table 4 WS({}) is not the least window within {budget} faults",
                    ws.param
                )
            },
        );
    }
}
