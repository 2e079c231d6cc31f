//! Experiment harness: sweeps, growth-model fitting, and reporting.
//!
//! The paper's claims are asymptotic (`O(n)`, `Θ(n log n)`, `Θ(n²)`,
//! `Θ(g(n))`); reproducing them means measuring bit counts across ring
//! sizes and checking the measured *shape*. This crate provides the four
//! pieces every experiment shares:
//!
//! * sweeping — [`sweep_protocol`] runs a protocol over a size sweep with
//!   per-language workloads, collecting exact bit counts and cross-checking
//!   every decision against the language's ground truth;
//! * fitting — [`fit_series`] classifies a `(n, bits)` series against the
//!   paper's growth models (`n`, `n log n`, `n^1.5`, `n²`) by ratio
//!   stability and log-log slope;
//! * reporting — [`ExperimentResult`] renders experiment tables (text for
//!   the terminal, JSON for `EXPERIMENTS.md` regeneration);
//! * the registry — [`ExperimentSpec`] declares an experiment as data
//!   (grids per [`Scale`] profile, factories, expected model), a
//!   [`Registry`] is the single source of truth for listing and dispatch,
//!   and an [`ExperimentHarness`] executes specs — see the
//!   [`registry`](crate::registry#adding-an-experiment) module docs for
//!   the ~20-line "add an experiment" walkthrough.
//!
//! # Examples
//!
//! Classify a perfectly linear series:
//!
//! ```rust
//! # use ringleader_analysis::{fit_series, GrowthModel};
//! let points: Vec<(usize, f64)> = (4..12).map(|k| (1 << k, 3.0 * (1 << k) as f64)).collect();
//! let fit = fit_series(&points);
//! assert_eq!(fit.best_model, GrowthModel::Linear);
//! assert!((fit.constant - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod fit;
pub mod registry;
mod report;
mod sweep;

pub use checkpoint::{LedgerEntry, RunLedger, LEDGER_VERSION};
pub use fit::{fit_series, log_log_slope, FitResult, GrowthModel};
pub use registry::{
    fit_label, fit_note, run_schedule_matrix, ExperimentHarness, ExperimentSpec, GridProfile,
    Registry, RunCtx, Scale, ScaleGrid, ScenarioOutcome, ScheduleScenario, SweepPlan,
};
pub use report::{ExperimentResult, Verdict};
pub use sweep::{
    bits_across_schedules, executor_for, run_independent, sweep_protocol, sweep_protocol_with,
    GridPoint, Parallel, PointJob, RunStats, Serial, SweepConfig, SweepExecutor, SweepGrid,
    SweepPoint,
};
