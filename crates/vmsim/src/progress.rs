//! Live progress export: wall-clock-driven JSONL progress frames and an
//! opt-in single-line TTY renderer.
//!
//! The fleet scheduler and the batch service are deterministic cores —
//! nothing wall-clock-dependent may leak into a [`crate::FleetReport`]
//! or a response row. Progress reporting is therefore built the other
//! way around: the driver bumps a set of shared [`ProgressCounters`]
//! (atomics, no locks on the hot path), and a [`ProgressExporter`]
//! thread *samples* them on a wall-clock interval, entirely outside the
//! deterministic core. A slow exporter can never perturb results; at
//! worst its frames are stale.
//!
//! Frames are sealed JSON lines ([`crate::jsonl`]), like the event
//! traces and the sweep cache, under their own schema tag
//! ([`PROGRESS_SCHEMA`]) so tooling can tell a progress file from an
//! event trace at the first line.

use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::jsonl;
use crate::observe::Histogram;

/// Schema tag carried by every progress frame.
pub const PROGRESS_SCHEMA: &str = "cdmm-progress/1";

/// Shared work-progress counters: the deterministic driver bumps them,
/// the exporter thread samples them.
///
/// All counters are monotonic except `queued`, which tracks the current
/// backlog. Latency samples feed a log-bucketed histogram whose
/// p50/p99-so-far appear in every frame.
#[derive(Debug, Default)]
pub struct ProgressCounters {
    total: AtomicU64,
    done: AtomicU64,
    refs: AtomicU64,
    queued: AtomicU64,
    lat_ms: Mutex<Histogram>,
}

impl ProgressCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the expected work-item total.
    pub fn add_total(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks `n` work items done.
    pub fn add_done(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` simulated references to the throughput counter.
    pub fn add_refs(&self, n: u64) {
        self.refs.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` items to the current backlog.
    pub fn add_queued(&self, n: u64) {
        self.queued.fetch_add(n, Ordering::Relaxed);
    }

    /// Removes `n` items from the current backlog (saturating).
    pub fn sub_queued(&self, n: u64) {
        let _ = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                Some(q.saturating_sub(n))
            });
    }

    /// Records one per-item latency sample in milliseconds.
    pub fn record_latency_ms(&self, ms: u64) {
        self.lat_ms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(ms);
    }

    /// Work items expected.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Work items done.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// References simulated.
    pub fn refs(&self) -> u64 {
        self.refs.load(Ordering::Relaxed)
    }

    /// Items currently queued.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// A latency percentile (milliseconds) over the samples so far.
    pub fn latency_ms(&self, q: f64) -> u64 {
        self.lat_ms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .percentile(q)
    }

    /// Samples one frame at `elapsed` since the run started.
    pub fn frame(&self, elapsed: Duration) -> ProgressFrame {
        let at_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        let done = self.done();
        let total = self.total();
        let refs = self.refs();
        let refs_per_sec = refs.saturating_mul(1_000).checked_div(at_ms).unwrap_or(0);
        let eta_ms = at_ms
            .saturating_mul(total.saturating_sub(done))
            .checked_div(done)
            .unwrap_or(0);
        ProgressFrame {
            at_ms,
            done,
            total,
            refs,
            refs_per_sec,
            eta_ms,
            queued: self.queued(),
            p50_ms: self.latency_ms(0.50),
            p99_ms: self.latency_ms(0.99),
        }
    }
}

/// One sampled progress snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressFrame {
    /// Milliseconds since the run started.
    pub at_ms: u64,
    /// Work items done.
    pub done: u64,
    /// Work items expected.
    pub total: u64,
    /// References simulated so far.
    pub refs: u64,
    /// Reference throughput since start.
    pub refs_per_sec: u64,
    /// Naive remaining-time estimate (0 until anything finishes).
    pub eta_ms: u64,
    /// Items currently queued.
    pub queued: u64,
    /// Median per-item latency so far (ms).
    pub p50_ms: u64,
    /// 99th-percentile per-item latency so far (ms).
    pub p99_ms: u64,
}

impl ProgressFrame {
    /// The single-line TTY rendering (no trailing newline).
    pub fn render_tty(&self) -> String {
        format!(
            "cdmm {}/{} done  {} refs/s  eta {}s  queue {}  p50 {}ms p99 {}ms",
            self.done,
            self.total,
            self.refs_per_sec,
            self.eta_ms / 1_000,
            self.queued,
            self.p50_ms,
            self.p99_ms
        )
    }
}

/// Serializes one progress frame as a sealed JSON line (without the
/// trailing newline); see [`jsonl::seal`].
pub fn encode_progress_line(f: &ProgressFrame) -> String {
    jsonl::seal(&format!(
        "{{\"v\":1,\"schema\":\"{PROGRESS_SCHEMA}\",\"at_ms\":{},\"done\":{},\"total\":{},\
         \"refs\":{},\"refs_per_sec\":{},\"eta_ms\":{},\"queued\":{},\"p50_ms\":{},\"p99_ms\":{}",
        f.at_ms, f.done, f.total, f.refs, f.refs_per_sec, f.eta_ms, f.queued, f.p50_ms, f.p99_ms
    ))
}

/// Verifies one line produced by [`encode_progress_line`]: checksum
/// matching and the schema tag present.
pub fn validate_progress_line(line: &str) -> bool {
    jsonl::open(line).is_some_and(|payload| {
        payload.starts_with(&format!("{{\"v\":1,\"schema\":\"{PROGRESS_SCHEMA}\""))
    })
}

/// Validates every frame of a progress file; returns the number of
/// valid frames or a description of the first damaged one.
pub fn validate_progress_file(path: &Path) -> Result<u64, String> {
    jsonl::walk_file(
        path,
        validate_progress_line,
        jsonl::Damage::Reject("progress frame"),
    )
    .map(|w| w.valid)
}

/// A periodic progress exporter: samples shared [`ProgressCounters`] on
/// a wall-clock interval from a background thread, appending one
/// checksummed frame per tick to a JSONL file and/or repainting a
/// single status line on stderr.
///
/// [`ProgressExporter::finish`] stops the thread, emits one final frame
/// (so even sub-interval runs leave a frame behind), and returns the
/// number of frames written.
#[derive(Debug)]
pub struct ProgressExporter {
    counters: Arc<ProgressCounters>,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<u64>>,
    path: Option<PathBuf>,
}

impl ProgressExporter {
    /// Starts the exporter. `path` appends JSONL frames there (parent
    /// directories are created); `tty` repaints a stderr status line.
    /// With neither, the exporter is inert. Fails only if the frame
    /// file cannot be created.
    pub fn start(
        path: Option<&Path>,
        tty: bool,
        interval: Duration,
    ) -> std::io::Result<ProgressExporter> {
        let counters = Arc::new(ProgressCounters::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut out = match path {
            Some(p) => {
                if let Some(dir) = p.parent() {
                    if !dir.as_os_str().is_empty() {
                        fs::create_dir_all(dir)?;
                    }
                }
                Some(BufWriter::new(fs::File::create(p)?))
            }
            None => None,
        };
        let handle = if out.is_some() || tty {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            Some(thread::spawn(move || {
                let start = Instant::now();
                let mut frames = 0u64;
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    if !stopping {
                        // Sleep in short slices so finish() returns
                        // promptly even with long intervals.
                        let mut slept = Duration::ZERO;
                        while slept < interval && !stop.load(Ordering::Acquire) {
                            let slice = (interval - slept).min(Duration::from_millis(25));
                            thread::sleep(slice);
                            slept += slice;
                        }
                    }
                    let frame = counters.frame(start.elapsed());
                    if let Some(w) = out.as_mut() {
                        let _ = writeln!(w, "{}", encode_progress_line(&frame));
                        frames += 1;
                    }
                    if tty {
                        eprint!("\r{}", frame.render_tty());
                    }
                    if stopping || stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                if let Some(w) = out.as_mut() {
                    let _ = w.flush();
                }
                if tty {
                    eprintln!();
                }
                frames
            }))
        } else {
            None
        };
        Ok(ProgressExporter {
            counters,
            stop,
            handle,
            path: path.map(Path::to_path_buf),
        })
    }

    /// The shared counters the driver should bump.
    pub fn counters(&self) -> Arc<ProgressCounters> {
        Arc::clone(&self.counters)
    }

    /// The frame file, when one is being written.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Stops the exporter, writes the final frame, and returns the
    /// number of frames written (0 for an inert exporter).
    pub fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle.take().map_or(0, |h| h.join().unwrap_or(0))
    }
}

impl Drop for ProgressExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_encode_and_validate() {
        let c = ProgressCounters::new();
        c.add_total(10);
        c.add_done(4);
        c.add_refs(8_000);
        c.add_queued(3);
        c.sub_queued(1);
        c.record_latency_ms(30);
        c.record_latency_ms(90);
        let f = c.frame(Duration::from_millis(2_000));
        assert_eq!(f.done, 4);
        assert_eq!(f.total, 10);
        assert_eq!(f.queued, 2);
        assert_eq!(f.refs_per_sec, 4_000, "8000 refs over 2s");
        assert_eq!(f.eta_ms, 3_000, "6 items left at 500ms each");
        assert!(f.p50_ms >= 30 && f.p99_ms >= f.p50_ms);
        let line = encode_progress_line(&f);
        assert!(line.contains(PROGRESS_SCHEMA));
        assert!(validate_progress_line(&line));
        assert!(!validate_progress_line(
            &line.replace("\"done\":4", "\"done\":5")
        ));
        // An event-trace line is not a progress frame.
        assert!(!validate_progress_line(
            "{\"v\":1,\"at\":0,\"ev\":\"degraded\",\"c\":\"00\"}"
        ));
    }

    #[test]
    fn zero_elapsed_and_zero_done_divide_safely() {
        let c = ProgressCounters::new();
        c.add_total(5);
        c.add_refs(100);
        let f = c.frame(Duration::ZERO);
        assert_eq!(f.refs_per_sec, 0);
        assert_eq!(f.eta_ms, 0);
        assert!(f.render_tty().contains("0/5 done"));
    }

    #[test]
    fn exporter_writes_validating_frames() {
        let path = std::env::temp_dir().join(format!("cdmm-progress-{}.jsonl", std::process::id()));
        let exporter =
            ProgressExporter::start(Some(&path), false, Duration::from_millis(10)).expect("start");
        let counters = exporter.counters();
        counters.add_total(2);
        counters.add_done(2);
        counters.add_refs(500);
        thread::sleep(Duration::from_millis(40));
        let frames = exporter.finish();
        assert!(frames >= 1, "at least the final frame lands");
        assert_eq!(validate_progress_file(&path), Ok(frames));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn inert_exporter_is_free() {
        let exporter =
            ProgressExporter::start(None, false, Duration::from_millis(10)).expect("start");
        exporter.counters().add_done(1);
        assert_eq!(exporter.finish(), 0);
    }
}
