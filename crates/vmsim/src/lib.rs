//! Trace-driven virtual-memory simulator and memory-management policies.
//!
//! This crate is the experimental substrate of the reproduction — the
//! paper's "virtual memory simulator ... used to simulate program behavior
//! under the Least Recently Used (LRU), the Working Set (WS), and the CD
//! policies" (Section 5), extended with the related-work policies the
//! paper discusses (FIFO, Belady's OPT, PFF, and the damped/sampled/
//! variable-interval WS variants) and with the multiprogramming mode the
//! paper leaves as future work.
//!
//! Key types:
//!
//! - [`Policy`] — the interface every policy implements: one call per page
//!   reference, plus directive callbacks that only the CD policy acts on.
//! - [`run`] — the simulation driver: drives a policy over any
//!   [`cdmm_trace::EventSource`] and accumulates [`Metrics`] (page
//!   faults `PF`, mean resident memory `MEM`, and space-time cost `ST`
//!   with a 2000-reference fault service, as in the paper), with an
//!   optional [`Tracer`] and [`CancelToken`]. A disabled or aggregating
//!   tracer (a [`MetricsRegistry`]) takes the run-level batch kernels;
//!   a tracer that needs exact per-event detail the per-event loop.
//! - [`simulate`] — the per-reference oracle [`run`] is pinned to.
//! - [`policy::cd::CdPolicy`] — the Compiler-Directed policy (Section 4).
//! - [`fleet`] — multiprogrammed memory: cells of tenants under CD's
//!   PI-driven allocation and swapper.
//! - [`executor`] — the one deterministic parallel map: sweep points,
//!   serve batches and fleet cells run as its jobs, merged by job index.
//! - [`observe`] — zero-cost-when-disabled event tracing: policies emit
//!   typed [`SimEvent`]s (grants, hold-overs, evictions, lock breaks,
//!   degradations) that [`run`] forwards to a [`Tracer`].
//! - [`jsonl`] — the one JSON-lines codec: string escaping, the strict
//!   flat-object reader, checksummed-line framing and the sealed-file
//!   walker shared by traces, progress frames, the result cache, serve
//!   and bench artifacts.
//! - [`stats`] — a [`MetricsRegistry`] tracer that folds the event
//!   stream into counters and streaming histograms (fault
//!   inter-arrival, per-PI grant levels, lock dwell, occupancy).
//!
//! # Examples
//!
//! ```
//! use cdmm_trace::synth;
//! use cdmm_vmsim::{simulate, SimConfig};
//! use cdmm_vmsim::policy::lru::Lru;
//!
//! let trace = synth::cyclic(8, 10);
//! let mut lru = Lru::new(4);
//! let m = simulate(&trace, &mut lru, SimConfig::default());
//! // The classic LRU pathology: every reference in a cyclic sweep faults.
//! assert_eq!(m.faults, m.refs);
//! ```

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod curve;
pub mod error;
pub mod executor;
pub mod fleet;
pub mod jsonl;
pub mod metrics;
pub mod observe;
pub mod policy;
pub mod progress;
pub mod recency;
pub mod sim;
pub mod stack;
pub mod stats;

pub use cdmm_trace::cancel::CancelToken;
pub use curve::{LruCurve, WsCurve};
pub use error::SimError;
pub use fleet::{
    run_fleet, Admission, CellPressure, CellReport, FleetConfig, FleetReport, FleetScorecard,
    TenantReport, TenantSpec, WorkerTimeline,
};
pub use metrics::{ExecStats, Metrics};
pub use observe::{
    EventLog, Histogram, JsonlSink, NullTracer, RefSpan, SharedSink, SharedTracer, SimEvent, Span,
    Tee, TimedEvent, Tracer,
};
pub use policy::Policy;
pub use progress::{
    validate_progress_file, ProgressCounters, ProgressExporter, ProgressFrame, PROGRESS_SCHEMA,
};
pub use sim::{run, simulate, Recorder, SimConfig};
pub use stats::{
    shared_registry, snapshot_shared, HistogramSummary, MetricsRegistry, PiStats, PiSummary,
    RegistrySnapshot, SharedRegistry,
};
