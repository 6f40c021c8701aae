//! `cdmm-serve`: a fault-tolerant batch simulation service.
//!
//! The crate turns the sweep harness into a long-lived daemon: clients
//! write JSONL job requests (a workload name or inline mini-FORTRAN
//! source, a policy operating point, geometry and deadline knobs), the
//! service runs them through the shared pipeline and streams one JSONL
//! response per request, in request order. Three job kinds share the
//! supervision plane: `"sim"` (the default) runs one policy point,
//! `"fleet"` schedules a multi-tenant mix, and `"sweep"` answers a
//! whole LRU or working-set operating curve from a single one-pass
//! kernel ([`cdmm_core::sweep`]), digested into one deterministic row.
//!
//! What distinguishes it from a plain loop over [`cdmm_core::prepare`]
//! is the robustness layer, spread over three modules:
//!
//! - [`request`] — the wire format: a hand-rolled flat-JSON parser that
//!   turns malformed input into typed `bad_request` responses instead of
//!   panics, plus deterministic response encoding.
//! - [`service`] — supervision: per-job panic isolation and seeded
//!   retry/backoff, per-job deadlines via [`cdmm_vmsim::CancelToken`],
//!   bounded-queue admission control, and crash-safe result caching
//!   through [`cdmm_core::ResultCache`]'s atomic-rename persistence.
//! - [`faults`] — a seeded fault injector (mid-job panics, torn writes,
//!   short reads, ENOSPC) that drives the chaos suite; production code
//!   never constructs one.
//!
//! The contract the chaos tests pin down: for a fixed request stream and
//! seed, every *successful* response is byte-identical whether or not
//! faults were injected, at any thread count — failures change which
//! rows are errors, never the bytes of the rows that succeed.
//!
//! # Examples
//!
//! ```
//! use cdmm_serve::{BatchService, ServeConfig};
//!
//! let svc = BatchService::new(ServeConfig::default()).unwrap();
//! let out = svc.handle_batch(&[
//!     r#"{"id":"t1","workload":"MAIN","policy":"cd"}"#,
//!     r#"{"id":"t2","workload":"MAIN","policy":"lru","frames":8}"#,
//! ]);
//! assert!(out[0].contains("\"ok\":true"));
//! assert!(out[1].contains("\"ok\":true"));
//! ```

pub mod faults;
pub mod request;
pub mod service;

pub use faults::{FaultInjector, FaultSite};
pub use request::{parse_request, ErrorKind, JobRequest, SweepFamily, SweepRequest, WorkSource};
pub use service::{backoff_delay, BatchService, ServeConfig, ServeStats};
