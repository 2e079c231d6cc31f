//! Unified metrics & timing layer for the ringleader workspace.
//!
//! Policy: wallclock-in-sim carve-out — `ringleader_obs` is the one
//! non-test place in the workspace allowed to read monotonic wall time
//! (`std::time::Instant`). Result-affecting crates record durations
//! through the opaque [`Timer`] handle and never see a time value;
//! detlint's `wallclock-in-sim` rule recognises this header and exempts
//! the crate, while its `obs-boundary` rule bans reading metric values
//! back out of the registry in those crates.
//!
//! # Design
//!
//! [`Metrics`] is a cheap cloneable handle, either *disabled* (the
//! default: a `None` inside, every record call an inlined no-op) or
//! *enabled* (a shared registry of named counters, max-gauges, and
//! timing summaries). The registry is keyed by name in sorted maps, so
//! dumps are deterministic and diffable across runs and machines.
//!
//! # The metrics-never-affect-results contract
//!
//! Instrumented code *writes* into the registry and never reads from
//! it: recording methods return `()`, timers are consumed by `Drop`,
//! and the value-reading accessors ([`Metrics::run_report`],
//! [`Metrics::counter_value`], [`Metrics::gauge_value`]) are reserved
//! for tests, this crate, and report export. A run with metrics
//! enabled must therefore be byte-identical to the same run with
//! metrics disabled — the sim test suite pins exactly that across
//! engines and schedulers.
//!
//! # RunReport
//!
//! [`RunReport`] is the versioned JSON export written by
//! `experiments --metrics <path>`: schema changes bump
//! [`REPORT_VERSION`] and [`RunReport::from_json`] rejects reports
//! written by a different version.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Schema version stamped into every [`RunReport`]; bump on any field
/// change so old readers fail loudly instead of misparsing.
pub const REPORT_VERSION: u32 = 2;

#[derive(Debug, Default)]
struct TimerStats {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    timings: BTreeMap<&'static str, TimerStats>,
}

#[derive(Debug, Default)]
struct Inner {
    state: Mutex<State>,
}

/// Cheap cloneable metrics handle. [`Metrics::default`] is disabled:
/// every recording method is an inlined no-op and the run behaves as
/// if the handle did not exist. [`Metrics::enabled`] shares one
/// registry across all clones.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Inner>>,
}

impl Metrics {
    /// A live handle: all clones record into one shared registry.
    pub fn enabled() -> Self {
        Metrics { inner: Some(Arc::new(Inner::default())) }
    }

    /// The no-op handle; same as [`Metrics::default`].
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            *inner.state.lock().counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Raise the named gauge to `value` if it exceeds the current max.
    #[inline]
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock();
            let slot = state.gauges.entry(name).or_insert(0);
            *slot = (*slot).max(value);
        }
    }

    /// Start an opaque timer; its elapsed wall time is folded into the
    /// named timing summary when the returned handle drops. Disabled
    /// handles return an inert timer that never reads the clock.
    #[inline]
    pub fn start_timer(&self, name: &'static str) -> Timer {
        Timer { live: self.inner.as_ref().map(|inner| (Arc::clone(inner), name, Instant::now())) }
    }

    /// Snapshot the registry as a versioned [`RunReport`].
    ///
    /// Value-reading accessor: banned by detlint's `obs-boundary` rule
    /// in result-affecting `src/` — call it from tests or export paths.
    pub fn run_report(&self) -> RunReport {
        let mut report = RunReport {
            version: REPORT_VERSION,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            timings: BTreeMap::new(),
        };
        let Some(inner) = &self.inner else { return report };
        let state = inner.state.lock();
        for (&name, &value) in &state.counters {
            report.counters.insert(name.to_string(), value);
        }
        for (&name, &value) in &state.gauges {
            report.gauges.insert(name.to_string(), value);
        }
        for (&name, stats) in &state.timings {
            report.timings.insert(
                name.to_string(),
                TimingSummary {
                    count: stats.count,
                    total_ns: stats.total_ns,
                    max_ns: stats.max_ns,
                },
            );
        }
        report
    }

    /// Current value of a counter (0 when disabled or never bumped).
    ///
    /// Value-reading accessor: banned by detlint's `obs-boundary` rule
    /// in result-affecting `src/` — call it from tests.
    pub fn counter_value(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().counters.get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Current value of a gauge (0 when disabled or never raised).
    ///
    /// Value-reading accessor: banned by detlint's `obs-boundary` rule
    /// in result-affecting `src/` — call it from tests.
    pub fn gauge_value(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner.state.lock().gauges.get(name).copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Serialize the current [`RunReport`] as pretty JSON to `path`.
    /// No-op (writes nothing) on a disabled handle.
    pub fn write_report(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        let report = self.run_report();
        std::fs::write(path, format!("{}\n", report.to_json_pretty()))
    }
}

/// Opaque RAII timing handle from [`Metrics::start_timer`]; records
/// elapsed wall time into the registry on drop. The holder never sees
/// a time value.
#[derive(Debug)]
pub struct Timer {
    live: Option<(Arc<Inner>, &'static str, Instant)>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.live.take() {
            let elapsed = start.elapsed().as_nanos() as u64;
            let mut state = inner.state.lock();
            let stats = state.timings.entry(name).or_default();
            stats.count += 1;
            stats.total_ns += elapsed;
            stats.max_ns = stats.max_ns.max(elapsed);
        }
    }
}

/// Folded summary of one named timer in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSummary {
    /// Completed timer handles.
    pub count: u64,
    /// Sum of elapsed wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single handle, nanoseconds.
    pub max_ns: u64,
}

/// Versioned JSON export of a [`Metrics`] registry; the artifact behind
/// `experiments --metrics <path>`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunReport {
    /// Always [`REPORT_VERSION`] for reports this build writes.
    pub version: u32,
    /// Monotonic named counters.
    pub counters: BTreeMap<String, u64>,
    /// Named max-gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Named timing summaries.
    pub timings: BTreeMap<String, TimingSummary>,
}

/// Error from [`RunReport::from_json`]: unparsable text or a report
/// written by a different schema version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    /// Human-readable cause.
    pub reason: String,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run report error: {}", self.reason)
    }
}

impl std::error::Error for ReportError {}

impl RunReport {
    /// Render as pretty JSON (no trailing newline).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunReport serializes infallibly")
    }

    /// Parse a report, rejecting schema versions this build does not
    /// read, so a foreign report fails loudly instead of misparsing.
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let report: RunReport = serde_json::from_str(text)
            .map_err(|e| ReportError { reason: format!("unparsable run report: {e:?}") })?;
        if report.version != REPORT_VERSION {
            return Err(ReportError {
                reason: format!(
                    "run report version {} unsupported (this build reads {REPORT_VERSION})",
                    report.version
                ),
            });
        }
        Ok(report)
    }
}

/// Stderr heartbeat for massive runs: [`Progress::tick`] prints one
/// `[progress]` line per call with elapsed wall time and a label.
/// Stderr only — the JSON envelope on stdout is untouched, keeping
/// `--progress` inside the metrics-never-affect-results contract.
#[derive(Debug)]
pub struct Progress {
    started: Option<Instant>,
}

impl Progress {
    /// An active heartbeat when `enabled`, otherwise an inert one.
    pub fn new(enabled: bool) -> Self {
        Progress { started: enabled.then(Instant::now) }
    }

    /// Print one heartbeat line to stderr (no-op when inert).
    pub fn tick(&self, label: &str) {
        if let Some(started) = self.started {
            let elapsed = started.elapsed();
            eprintln!("[progress] {:.1}s {label}", elapsed.as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.counter_add("engine.deliveries", 5);
        m.gauge_max("engine.bit_rounds", 9);
        drop(m.start_timer("spec.run"));
        assert_eq!(m.counter_value("engine.deliveries"), 0);
        assert_eq!(m.gauge_value("engine.bit_rounds"), 0);
        let report = m.run_report();
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.timings.is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate_across_clones() {
        let m = Metrics::enabled();
        let other = m.clone();
        m.counter_add("engine.deliveries", 3);
        other.counter_add("engine.deliveries", 4);
        m.gauge_max("engine.bit_rounds", 7);
        other.gauge_max("engine.bit_rounds", 5);
        assert_eq!(m.counter_value("engine.deliveries"), 7);
        assert_eq!(m.gauge_value("engine.bit_rounds"), 7);
    }

    #[test]
    fn timers_fold_into_summaries() {
        let m = Metrics::enabled();
        drop(m.start_timer("spec.run"));
        drop(m.start_timer("spec.run"));
        let report = m.run_report();
        let summary = &report.timings["spec.run"];
        assert_eq!(summary.count, 2);
        assert!(summary.max_ns <= summary.total_ns);
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let m = Metrics::enabled();
        m.counter_add("engine.deliveries", 4096);
        m.counter_add("engine.messages", 9);
        m.gauge_max("engine.max_message_bits", 13);
        drop(m.start_timer("spec.run"));
        let report = m.run_report();
        let text = report.to_json_pretty();
        let back = RunReport::from_json(&text).expect("round trip");
        assert_eq!(back, report);
        assert_eq!(back.version, REPORT_VERSION);
    }

    #[test]
    fn run_report_rejects_foreign_versions() {
        let m = Metrics::enabled();
        m.counter_add("engine.deliveries", 1);
        let mut report = m.run_report();
        report.version = REPORT_VERSION + 1;
        let text = report.to_json_pretty();
        let err = RunReport::from_json(&text).expect_err("version gate");
        assert!(err.reason.contains("unsupported"), "{err}");
        // A report written before the schema dropped its histogram and
        // per-worker utilization fields.
        let v1 = r#"{
          "version": 1,
          "counters": {"engine.deliveries": 1},
          "gauges": {},
          "histograms": {"epoch_len": [{"lo": 2, "hi": 3, "count": 1}]},
          "timings": {},
          "shard_utilization": [{"shard": 0, "busy_ns": 5, "idle_ns": 0, "blocked_ns": 0}]
        }"#;
        let err = RunReport::from_json(v1).expect_err("v1 reports are foreign");
        assert!(err.reason.contains("version 1 unsupported"), "{err}");
        let garbage = RunReport::from_json("{not json").expect_err("parse gate");
        assert!(garbage.reason.contains("unparsable"), "{garbage}");
    }

    #[test]
    fn report_dump_is_deterministic_and_diffable() {
        let build = || {
            let m = Metrics::enabled();
            // Insertion order differs between the two handles; the
            // dump must not care.
            m.counter_add("z.last", 1);
            m.counter_add("a.first", 2);
            m.gauge_max("m.mid", 3);
            m.run_report()
        };
        let build_rev = || {
            let m = Metrics::enabled();
            m.gauge_max("m.mid", 3);
            m.counter_add("a.first", 2);
            m.counter_add("z.last", 1);
            m.run_report()
        };
        assert_eq!(build().to_json_pretty(), build_rev().to_json_pretty());
    }
}
