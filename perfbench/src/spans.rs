//! In-memory spans around calls into the cdmm crates.
//!
//! The traced run wraps every public entry point it calls in a span:
//! name, start, end, parent span and request id. Spans stay in memory
//! and are written out once, at exit. A call the program makes
//! internally (a stage of `prepare`, the simulation behind a served
//! request) is measured by replaying it from the benchmark right after
//! the real call, as a child of the real call's span. A span's self
//! time is its duration minus the durations of its children.

use std::collections::BTreeMap;
use std::time::Instant;

use cdmm_bench::artifact::Entry;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"trace.interp_plain"`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The operation (pass, request, fleet run) this span belongs to.
    pub request: u64,
    /// Recorded during set-up rather than the measured phase.
    pub setup: bool,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Call count, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per call, in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }

    /// Mean self time per call, in milliseconds (0 when never called).
    pub fn mean_self_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// The span store of one traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    setup: bool,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty store; spans start in the set-up phase.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            setup: true,
        }
    }

    /// Marks later spans as belonging to set-up (`true`) or to the
    /// measured phase (`false`).
    pub fn set_setup(&mut self, setup: bool) {
        self.setup = setup;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`Spans::close`] ends it. Children may be
    /// recorded under the returned index while it is open.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            setup: self.setup,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.duration_ns()
    }

    /// Times one call of `f` as a span and returns its index with the
    /// call's result (passed through `black_box`, so a result the caller
    /// drops is still computed).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(id);
        (id, out)
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over the spans of one phase.
    pub fn totals(&self, setup: bool) -> BTreeMap<&'static str, Totals> {
        let child_ns = children_ns(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.setup != setup {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Every span as one artifact row, `span/<index>/<name>`; the
    /// parent is stored as index + 1, with 0 for a root span.
    pub fn to_entries(&self) -> Vec<Entry> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Entry::new(format!("span/{i}/{}", s.name))
                    .int("start_ns", s.start_ns)
                    .int("end_ns", s.end_ns)
                    .int("parent", s.parent.map_or(0, |p| p as u64 + 1))
                    .int("request", s.request)
                    .int("setup", s.setup as u64)
            })
            .collect()
    }
}

/// Summed child durations of every span.
fn children_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time of span `i`: its duration minus its children's,
    /// floored at zero.
    fn self_ns(spans: &[Span], i: usize) -> u64 {
        spans[i].duration_ns().saturating_sub(children_ns(spans)[i])
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            setup: false,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // handle [0, 100) with replayed children of 30 and 20 ns, one of
        // which has a 5 ns child of its own.
        let spans = [
            span("serve.handle", 0, 100, None),
            span("serve.parse", 100, 130, Some(0)),
            span("vmsim.simulate", 130, 150, Some(0)),
            span("vmsim.inner", 150, 155, Some(2)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 1), 30);
        assert_eq!(self_ns(&spans, 2), 15);
        assert_eq!(self_ns(&spans, 3), 5);
    }

    #[test]
    fn self_time_floors_at_zero() {
        // Replayed children can outlast a real call that was faster.
        let spans = [
            span("core.prepare", 0, 10, None),
            span("trace.interp_plain", 10, 25, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn totals_group_by_name_and_phase() {
        let mut s = Spans::new();
        let a = s.open("a", None, 0);
        s.set_setup(false);
        let root = s.open("a", None, 1);
        let b = s.open("b", Some(root), 1);
        for (i, (start_ns, end_ns)) in [(a, (0, 10)), (root, (10, 40)), (b, (40, 50))] {
            s.spans[i].start_ns = start_ns;
            s.spans[i].end_ns = end_ns;
        }
        let setup = s.totals(true);
        assert_eq!(setup["a"].calls, 1);
        let measured = s.totals(false);
        assert_eq!(
            measured["a"],
            Totals {
                calls: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(measured["b"].total_ns, 10);
        assert_eq!(measured["a"].mean_ms(), 30.0 / 1e6);
        assert_eq!(Totals::default().mean_ms(), 0.0);
        let rows = s.to_entries();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].id, "span/2/b");
        assert_eq!(rows[2].get("parent").map(|n| n.as_f64()), Some(2.0));
        let (id, out) = s.time("c", None, 2, || 7);
        assert_eq!((id, out), (3, 7));
        assert!(s.spans()[3].end_ns >= s.spans()[3].start_ns);
    }
}
