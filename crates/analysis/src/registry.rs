//! Data-driven experiment registry: specs, scale profiles, and the
//! harness that runs them.
//!
//! Every reproduced claim used to be a bespoke driver function that
//! hand-rolled the same sweep → fit → table → verdict plumbing. This
//! module turns that plumbing into data:
//!
//! * an [`ExperimentSpec`] declares an experiment — id, title, paper
//!   claim, a [`GridProfile`] of per-[`Scale`] sweep grids, optionally an
//!   expected [`GrowthModel`] and a [`ScheduleScenario`] — plus a run
//!   closure (or, for the common single-protocol shape, a declarative
//!   [`SweepPlan`] with no closure at all);
//! * a [`Registry`] holds the specs in presentation order and answers
//!   id lookup, substring filtering, and scenario collection — the
//!   single source of truth for `--list` and dispatch;
//! * an [`ExperimentHarness`] binds a [`SweepExecutor`] to a [`Scale`]
//!   and runs specs through it, so callers never touch grid resolution.
//!
//! # Scale profiles
//!
//! Each spec carries four grids: [`Scale::Smoke`] is a seconds-fast
//! end-to-end slice for CI, [`Scale::Paper`] reproduces the historical
//! (seed) numbers byte for byte, [`Scale::Large`] pushes the
//! asymptotic experiments to rings in the tens of thousands of
//! processors — sized per experiment so the quadratic-cost sweeps stay
//! inside the nightly soak budget — and [`Scale::Massive`] takes the
//! linear and `n log n` tiers to single runs at up to a million
//! processors. Specs that never override it inherit their large grid
//! at massive scale.
//!
//! # Adding an experiment
//!
//! A fully declarative registration is ~20 lines: declare the metadata,
//! the grids, and a [`SweepPlan`] (protocol factory, language factory,
//! expected growth model); the harness sweeps, fits, fills the table,
//! and derives the verdict.
//!
//! ```rust
//! use ringleader_analysis::{
//!     ExperimentHarness, ExperimentSpec, GridProfile, GrowthModel, Registry, Scale, ScaleGrid,
//!     Serial, SweepPlan, Verdict,
//! };
//! use ringleader_core::ThreeCounters;
//! use ringleader_langs::AnBnCn;
//!
//! let mut registry = Registry::new();
//! registry.register(ExperimentSpec::sweep(
//!     "X1",
//!     "0^n 1^n 2^n stays Theta(n log n)",
//!     "Note 7.2: three counters recognize 0^n 1^n 2^n in O(n log n) bits",
//!     GridProfile::per_scale(
//!         ScaleGrid::new(vec![24, 48, 96], 1),
//!         ScaleGrid::new(vec![24, 48, 96, 192, 384], 2),
//!         ScaleGrid::new(vec![384, 1536, 6144], 1),
//!     ),
//!     SweepPlan::new(
//!         || Box::new(ThreeCounters::new()),
//!         || Box::new(AnBnCn::new()),
//!         GrowthModel::NLogN,
//!     ),
//! ));
//! let harness = ExperimentHarness::new(&Serial, Scale::Smoke);
//! let result = harness.run(registry.get("x1").expect("registered"));
//! assert_eq!(result.verdict, Verdict::Reproduced, "{result}");
//! ```

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ringleader_automata::Word;
use ringleader_langs::Language;
use ringleader_obs::Metrics;
use ringleader_sim::{Protocol, RingRunner, Scheduler, ThreadedRunner};

use crate::fit::{fit_series, FitResult, GrowthModel};
use crate::report::{ExperimentResult, Verdict};
use crate::sweep::{run_independent, sweep_protocol_with, SweepConfig, SweepExecutor};

/// How big the experiment grids should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// A seconds-fast slice of every experiment — the CI end-to-end run.
    Smoke,
    /// The historical grids: reproduces the seed numbers byte for byte.
    Paper,
    /// Asymptotic experiments at rings in the tens of thousands of
    /// processors — the nightly soak profile.
    Large,
    /// Single runs at rings up to a million processors on the linear and
    /// `n log n` tiers. Specs without an explicit massive grid fall back
    /// to their large grid.
    Massive,
}

impl Scale {
    /// All scales, smallest first.
    #[must_use]
    pub fn all() -> [Scale; 4] {
        [Scale::Smoke, Scale::Paper, Scale::Large, Scale::Massive]
    }

    /// Parses a profile name (case-insensitive).
    #[must_use]
    pub fn parse(text: &str) -> Option<Scale> {
        match text.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "paper" => Some(Scale::Paper),
            "large" => Some(Scale::Large),
            "massive" => Some(Scale::Massive),
            _ => None,
        }
    }

    /// The canonical lowercase name (`smoke` / `paper` / `large` /
    /// `massive`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Paper => "paper",
            Scale::Large => "large",
            Scale::Massive => "massive",
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One scale's sweep grid: the ring sizes and how many words are sampled
/// per size (each sample measures a member and a non-member word).
///
/// Serialized into the `experiments --json` envelope so downstream diffs
/// know exactly what was measured.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleGrid {
    /// Ring sizes, ascending.
    pub sizes: Vec<usize>,
    /// Words sampled per size and side.
    pub samples_per_size: usize,
}

impl ScaleGrid {
    /// A grid over `sizes` with `samples_per_size` samples each.
    #[must_use]
    pub fn new(sizes: Vec<usize>, samples_per_size: usize) -> Self {
        ScaleGrid { sizes, samples_per_size }
    }

    /// The largest ring size, if the grid has any.
    #[must_use]
    pub fn max_size(&self) -> Option<usize> {
        self.sizes.iter().copied().max()
    }
}

/// An experiment's grids across all [`Scale`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridProfile {
    smoke: ScaleGrid,
    paper: ScaleGrid,
    large: ScaleGrid,
    massive: ScaleGrid,
}

impl GridProfile {
    /// Distinct grids per scale. The massive grid defaults to the large
    /// one; experiments cheap enough for million-process rings override
    /// it with [`GridProfile::massive`].
    #[must_use]
    pub fn per_scale(smoke: ScaleGrid, paper: ScaleGrid, large: ScaleGrid) -> Self {
        let massive = large.clone();
        GridProfile { smoke, paper, large, massive }
    }

    /// The same grid at every scale — for experiments whose cost does not
    /// grow with the profile.
    #[must_use]
    pub fn uniform(grid: ScaleGrid) -> Self {
        GridProfile { smoke: grid.clone(), paper: grid.clone(), large: grid.clone(), massive: grid }
    }

    /// Overrides the grid used at [`Scale::Massive`].
    #[must_use]
    pub fn massive(mut self, grid: ScaleGrid) -> Self {
        self.massive = grid;
        self
    }

    /// A scale-independent workload that is not a size sweep (closed-form
    /// checks, graph explorations). `sizes` records the fixed workload
    /// sizes for the JSON envelope; empty means "no ring-size dimension".
    #[must_use]
    pub fn fixed(sizes: Vec<usize>) -> Self {
        GridProfile::uniform(ScaleGrid::new(sizes, 1))
    }

    /// The grid for `scale`.
    #[must_use]
    pub fn grid(&self, scale: Scale) -> &ScaleGrid {
        match scale {
            Scale::Smoke => &self.smoke,
            Scale::Paper => &self.paper,
            Scale::Large => &self.large,
            Scale::Massive => &self.massive,
        }
    }
}

/// Everything a spec's run closure needs: the executor, the resolved
/// grid for the requested scale, and the spec's identity (so the closure
/// never re-states id/title/claim).
pub struct RunCtx<'a> {
    spec: &'a ExperimentSpec,
    exec: &'a dyn SweepExecutor,
    scale: Scale,
    metrics: Metrics,
}

impl RunCtx<'_> {
    /// The sweep executor to fan grid points out with.
    #[must_use]
    pub fn exec(&self) -> &dyn SweepExecutor {
        self.exec
    }

    /// The requested scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The metrics registry every run records into (`--metrics`). The
    /// default disabled handle records nothing.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The spec's grid at the requested scale.
    #[must_use]
    pub fn grid(&self) -> &ScaleGrid {
        self.spec.grid(self.scale)
    }

    /// The grid's ring sizes.
    #[must_use]
    pub fn sizes(&self) -> &[usize] {
        &self.grid().sizes
    }

    /// The grid's largest ring size.
    ///
    /// # Panics
    ///
    /// Panics if the grid is size-less ([`GridProfile::fixed`] with no
    /// sizes) — such specs should not ask.
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.grid().max_size().expect("grid declares at least one size")
    }

    /// A [`SweepConfig`] over the grid's sizes and sample count, with the
    /// shared defaults (seed, FIFO schedule, unknown ring size).
    #[must_use]
    pub fn sweep_config(&self) -> SweepConfig {
        let grid = self.grid();
        SweepConfig {
            sizes: grid.sizes.clone(),
            samples_per_size: grid.samples_per_size,
            metrics: self.metrics.clone(),
            ..SweepConfig::default()
        }
    }

    /// Starts this spec's [`ExperimentResult`] with the given columns.
    #[must_use]
    pub fn new_result(&self, columns: Vec<String>) -> ExperimentResult {
        ExperimentResult::new(self.spec.id(), self.spec.title(), self.spec.paper_claim(), columns)
    }
}

impl fmt::Debug for RunCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunCtx")
            .field("spec", &self.spec.id())
            .field("scale", &self.scale)
            .field("grid", self.grid())
            .finish()
    }
}

type RunFn = Box<dyn Fn(&RunCtx<'_>) -> ExperimentResult + Send + Sync>;
type ProtocolFactory = Box<dyn Fn() -> Box<dyn Protocol> + Send + Sync>;
type LanguageFactory = Box<dyn Fn() -> Box<dyn Language> + Send + Sync>;
type Predictor = Box<dyn Fn(usize) -> usize + Send + Sync>;

/// The declarative core of a standard sweep experiment: which protocol
/// to run on which language, the expected growth model, and (optionally)
/// a closed-form bit-count predictor that every measured point must hit
/// exactly.
///
/// [`ExperimentSpec::sweep`] turns a plan into a full spec; the harness
/// sweeps the grid, fills a `n / bits / normalized / max msg bits`
/// table, fits the series, and derives the verdict.
pub struct SweepPlan {
    protocol: ProtocolFactory,
    language: LanguageFactory,
    expected: GrowthModel,
    norm_label: Option<String>,
    norm_decimals: usize,
    predictor: Option<Predictor>,
}

impl SweepPlan {
    /// A plan running `protocol` over `language`, expecting `expected`.
    #[must_use]
    pub fn new(
        protocol: impl Fn() -> Box<dyn Protocol> + Send + Sync + 'static,
        language: impl Fn() -> Box<dyn Language> + Send + Sync + 'static,
        expected: GrowthModel,
    ) -> Self {
        SweepPlan {
            protocol: Box::new(protocol),
            language: Box::new(language),
            expected,
            norm_label: None,
            norm_decimals: 4,
            predictor: None,
        }
    }

    /// Overrides the normalized column's header (default
    /// `bits/<model label>`).
    #[must_use]
    pub fn norm_label(mut self, label: impl Into<String>) -> Self {
        self.norm_label = Some(label.into());
        self
    }

    /// Decimal places of the normalized column (default 4).
    #[must_use]
    pub fn norm_decimals(mut self, decimals: usize) -> Self {
        self.norm_decimals = decimals;
        self
    }

    /// Requires every measured point to equal `predictor(n)` exactly.
    #[must_use]
    pub fn predictor(mut self, predictor: impl Fn(usize) -> usize + Send + Sync + 'static) -> Self {
        self.predictor = Some(Box::new(predictor));
        self
    }

    fn run(&self, ctx: &RunCtx<'_>) -> ExperimentResult {
        let norm_label =
            self.norm_label.clone().unwrap_or_else(|| format!("bits/{}", self.expected.label()));
        let mut result =
            ctx.new_result(vec!["n".into(), "bits".into(), norm_label, "max msg bits".into()]);
        let protocol = (self.protocol)();
        let language = (self.language)();
        let config = ctx.sweep_config();
        let points =
            match sweep_protocol_with(protocol.as_ref(), language.as_ref(), &config, ctx.exec()) {
                Ok(p) => p,
                Err(e) => {
                    result.set_verdict(Verdict::Failed(format!("simulation error: {e}")));
                    return result;
                }
            };
        let mut exact = true;
        for p in &points {
            if let Some(predict) = &self.predictor {
                if p.bits != predict(p.n) {
                    exact = false;
                }
            }
            let norm = p.bits as f64 / self.expected.shape(p.n);
            result.push_row(vec![
                p.n.to_string(),
                p.bits.to_string(),
                format!("{norm:.prec$}", prec = self.norm_decimals),
                p.max_message_bits.to_string(),
            ]);
        }
        let series: Vec<(usize, f64)> = points.iter().map(|p| (p.n, p.bits as f64)).collect();
        let fit = fit_series(&series);
        result.push_note(fit_note(&fit));
        result.set_verdict(if fit.best_model != self.expected {
            Verdict::Failed(format!("expected {}, measured {}", self.expected, fit.best_model))
        } else if !exact {
            Verdict::Failed("a measured point missed the closed form".into())
        } else {
            Verdict::Reproduced
        });
        result
    }
}

impl fmt::Debug for SweepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepPlan")
            .field("expected", &self.expected)
            .field("predictor", &self.predictor.is_some())
            .finish()
    }
}

/// One declared experiment: identity, per-scale grids, optional expected
/// model and schedule scenario, and the measurement itself.
pub struct ExperimentSpec {
    id: &'static str,
    title: &'static str,
    paper_claim: &'static str,
    grid: GridProfile,
    expected_model: Option<GrowthModel>,
    scenarios: Vec<ScheduleScenario>,
    run: RunFn,
}

impl ExperimentSpec {
    /// A spec with a custom run closure — for experiments whose table or
    /// verdict logic is genuinely bespoke. The closure receives a
    /// [`RunCtx`] and must measure at the ctx's grid.
    #[must_use]
    pub fn new(
        id: &'static str,
        title: &'static str,
        paper_claim: &'static str,
        grid: GridProfile,
        run: impl Fn(&RunCtx<'_>) -> ExperimentResult + Send + Sync + 'static,
    ) -> Self {
        ExperimentSpec {
            id,
            title,
            paper_claim,
            grid,
            expected_model: None,
            scenarios: Vec::new(),
            run: Box::new(run),
        }
    }

    /// A fully declarative spec: the harness runs the [`SweepPlan`] over
    /// the grid and derives table, fit note, and verdict.
    #[must_use]
    pub fn sweep(
        id: &'static str,
        title: &'static str,
        paper_claim: &'static str,
        grid: GridProfile,
        plan: SweepPlan,
    ) -> Self {
        let expected = plan.expected;
        let mut spec = ExperimentSpec::new(id, title, paper_claim, grid, move |ctx| plan.run(ctx));
        spec.expected_model = Some(expected);
        spec
    }

    /// Declares the growth model this experiment's headline series is
    /// expected to follow (informational for custom-run specs).
    #[must_use]
    pub fn with_expected_model(mut self, model: GrowthModel) -> Self {
        self.expected_model = Some(model);
        self
    }

    /// Attaches a schedule-independence scenario; the registry's model
    /// validity experiment replays every registered scenario under the
    /// full scheduler matrix.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScheduleScenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Experiment id, e.g. `"E7"`.
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// One-line title.
    #[must_use]
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// The paper claim being reproduced.
    #[must_use]
    pub fn paper_claim(&self) -> &'static str {
        self.paper_claim
    }

    /// The grid at `scale`.
    #[must_use]
    pub fn grid(&self, scale: Scale) -> &ScaleGrid {
        self.grid.grid(scale)
    }

    /// The declared expected growth model, if any.
    #[must_use]
    pub fn expected_model(&self) -> Option<GrowthModel> {
        self.expected_model
    }

    /// The spec's schedule-independence scenarios.
    #[must_use]
    pub fn scenarios(&self) -> &[ScheduleScenario] {
        &self.scenarios
    }

    /// Runs the experiment with the given executor at the given scale.
    #[must_use]
    pub fn run(&self, exec: &dyn SweepExecutor, scale: Scale) -> ExperimentResult {
        self.run_configured(exec, scale, Metrics::disabled())
    }

    /// Runs the experiment with a metrics registry forwarded to every
    /// run. The registry never changes any measurement.
    #[must_use]
    pub fn run_configured(
        &self,
        exec: &dyn SweepExecutor,
        scale: Scale,
        metrics: Metrics,
    ) -> ExperimentResult {
        let ctx = RunCtx { spec: self, exec, scale, metrics };
        (self.run)(&ctx)
    }
}

impl fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("id", &self.id)
            .field("title", &self.title)
            .field("expected_model", &self.expected_model)
            .field("scenarios", &self.scenarios.len())
            .finish()
    }
}

/// The ordered collection of registered experiments — the single source
/// of truth for listing, dispatch, and the scenario matrix.
#[derive(Debug, Default)]
pub struct Registry {
    specs: Vec<ExperimentSpec>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry { specs: Vec::new() }
    }

    /// Adds a spec at the end of the presentation order.
    ///
    /// # Panics
    ///
    /// Panics if a spec with the same id (case-insensitive) is already
    /// registered — duplicate ids would make dispatch ambiguous.
    pub fn register(&mut self, spec: ExperimentSpec) {
        assert!(
            self.get(spec.id()).is_none(),
            "duplicate experiment id {:?} registered",
            spec.id()
        );
        self.specs.push(spec);
    }

    /// The specs in presentation order.
    #[must_use]
    pub fn specs(&self) -> &[ExperimentSpec] {
        &self.specs
    }

    /// Number of registered experiments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Looks an experiment up by id, case-insensitively.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&ExperimentSpec> {
        self.specs.iter().find(|s| s.id().eq_ignore_ascii_case(id))
    }

    /// All experiment ids, in presentation order.
    #[must_use]
    pub fn ids(&self) -> Vec<&'static str> {
        self.specs.iter().map(ExperimentSpec::id).collect()
    }

    /// The specs whose id or title contains `needle` (case-insensitive),
    /// in presentation order.
    #[must_use]
    pub fn filter(&self, needle: &str) -> Vec<&ExperimentSpec> {
        let needle = needle.to_ascii_lowercase();
        self.specs
            .iter()
            .filter(|s| {
                s.id().to_ascii_lowercase().contains(&needle)
                    || s.title().to_ascii_lowercase().contains(&needle)
            })
            .collect()
    }

    /// Every registered schedule scenario, in presentation order — the
    /// scenario matrix the model-validity experiment replays.
    #[must_use]
    pub fn schedule_scenarios(&self) -> Vec<ScheduleScenario> {
        self.specs.iter().flat_map(|s| s.scenarios().iter().cloned()).collect()
    }
}

/// Binds a [`SweepExecutor`] and a [`Scale`] and runs specs through
/// them — what the `experiments` binary and the tests drive.
#[derive(Debug, Clone)]
pub struct ExperimentHarness<'a> {
    exec: &'a dyn SweepExecutor,
    scale: Scale,
    metrics: Metrics,
}

impl<'a> ExperimentHarness<'a> {
    /// A harness running on `exec` at `scale`.
    #[must_use]
    pub fn new(exec: &'a dyn SweepExecutor, scale: Scale) -> Self {
        ExperimentHarness { exec, scale, metrics: Metrics::disabled() }
    }

    /// The harness's scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Records every run's telemetry into `metrics` (`--metrics`).
    /// Observability only: measurements are byte-identical with any
    /// registry attached, enabled or not.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Runs one spec.
    #[must_use]
    pub fn run(&self, spec: &ExperimentSpec) -> ExperimentResult {
        spec.run_configured(self.exec, self.scale, self.metrics.clone())
    }

    /// Runs every spec of `registry` in presentation order.
    #[must_use]
    pub fn run_all(&self, registry: &Registry) -> Vec<ExperimentResult> {
        registry.specs().iter().map(|s| self.run(s)).collect()
    }

    /// Runs the spec with the given id, if registered.
    #[must_use]
    pub fn run_id(&self, registry: &Registry, id: &str) -> Option<ExperimentResult> {
        registry.get(id).map(|s| self.run(s))
    }
}

/// The standard fit note: model, constant, dispersion, log-log slope.
#[must_use]
pub fn fit_note(fit: &FitResult) -> String {
    format!(
        "fit: {} (c={:.3}, dispersion={:.3}, log-log slope {:.3})",
        fit.best_model, fit.constant, fit.dispersion, fit.log_log_slope
    )
}

/// The compact fit cell used in per-language tables: `model (c=X.XX)`.
#[must_use]
pub fn fit_label(fit: &FitResult) -> String {
    format!("{} (c={:.2})", fit.best_model, fit.constant)
}

/// One schedule-independence check: a deterministic protocol and a fixed
/// word whose decision *and* exact bit count must be identical under
/// every delivery schedule and on real OS threads.
///
/// Specs register scenarios via [`ExperimentSpec::with_scenario`]; the
/// model-validity experiment replays the whole matrix via
/// [`run_schedule_matrix`].
#[derive(Clone)]
pub struct ScheduleScenario {
    label: String,
    protocol: Arc<dyn Fn() -> Box<dyn Protocol> + Send + Sync>,
    word: Word,
}

impl ScheduleScenario {
    /// A scenario running `protocol()` on `word`.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        protocol: impl Fn() -> Box<dyn Protocol> + Send + Sync + 'static,
        word: Word,
    ) -> Self {
        ScheduleScenario { label: label.into(), protocol: Arc::new(protocol), word }
    }

    /// The scenario's display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The word the scenario measures.
    #[must_use]
    pub fn word(&self) -> &Word {
        &self.word
    }
}

impl fmt::Debug for ScheduleScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduleScenario")
            .field("label", &self.label)
            .field("word_len", &self.word.len())
            .finish()
    }
}

/// One scenario's outcome under the schedule matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Error notes, if any runs failed.
    pub notes: Vec<String>,
    /// The rendered table row: label, n, schedules tested, bit counts,
    /// threaded agreement.
    pub row: Vec<String>,
    /// Whether every schedule and the threaded backend agreed.
    pub good: bool,
}

/// Replays every scenario under FIFO, adversarial longest-queue, and
/// `random_seeds` seeded-shuffle schedules, then cross-checks the
/// event-driven result against real OS threads.
///
/// Scenarios are independent; they fan out through `exec` and the
/// outcomes return in scenario order.
#[must_use]
pub fn run_schedule_matrix(
    exec: &dyn SweepExecutor,
    scenarios: &[ScheduleScenario],
    random_seeds: u64,
) -> Vec<ScenarioOutcome> {
    run_independent(exec, scenarios.len(), |i| {
        let scenario = &scenarios[i];
        let name = scenario.label();
        let word = scenario.word();
        let proto = (scenario.protocol)();
        let mut notes: Vec<String> = Vec::new();
        let mut good = true;
        let mut schedules = vec![Scheduler::Fifo, Scheduler::LongestQueue];
        for seed in 0..random_seeds {
            schedules.push(Scheduler::Random { seed });
        }
        let mut bits = Vec::new();
        let mut decisions = Vec::new();
        for sched in &schedules {
            let mut runner = RingRunner::new();
            runner.scheduler(sched.clone());
            match runner.run(proto.as_ref(), word) {
                Ok(o) => {
                    bits.push(o.stats.total_bits);
                    decisions.push(o.accepted());
                }
                Err(e) => {
                    good = false;
                    notes.push(format!("{name} under {sched:?}: {e}"));
                }
            }
        }
        let bits_agree = bits.windows(2).all(|w| w[0] == w[1]);
        let decisions_agree = decisions.windows(2).all(|w| w[0] == w[1]);
        if !bits_agree || !decisions_agree {
            good = false;
        }

        let threaded = ThreadedRunner::new().run(proto.as_ref(), word);
        let threads_agree = match threaded {
            Ok(t) => {
                !bits.is_empty()
                    && t.total_bits == bits[0]
                    && Some(t.decision) == decisions.first().copied()
            }
            Err(e) => {
                notes.push(format!("{name} threaded: {e}"));
                false
            }
        };
        if !threads_agree {
            good = false;
        }

        let row = vec![
            name.into(),
            word.len().to_string(),
            format!("{} tested", schedules.len()),
            if bits_agree {
                format!("identical ({})", bits.first().copied().unwrap_or(0))
            } else {
                format!("DIVERGED {bits:?}")
            },
            if threads_agree { "agree".into() } else { "DISAGREE".into() },
        ];
        ScenarioOutcome { notes, row, good }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Serial;
    use ringleader_core::{DfaOnePass, ThreeCounters};
    use ringleader_langs::{AnBnCn, DfaLanguage};

    fn counters_spec() -> ExperimentSpec {
        ExperimentSpec::sweep(
            "T1",
            "counters test spec",
            "Note 7.2",
            GridProfile::per_scale(
                ScaleGrid::new(vec![12, 24], 1),
                ScaleGrid::new(vec![24, 48, 96, 192, 384], 2),
                ScaleGrid::new(vec![384, 768], 1),
            ),
            SweepPlan::new(
                || Box::new(ThreeCounters::new()),
                || Box::new(AnBnCn::new()),
                GrowthModel::NLogN,
            ),
        )
    }

    #[test]
    fn scale_parses_and_displays() {
        for scale in Scale::all() {
            assert_eq!(Scale::parse(scale.label()), Some(scale));
            assert_eq!(Scale::parse(&scale.label().to_ascii_uppercase()), Some(scale));
            assert_eq!(scale.to_string(), scale.label());
        }
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::parse(""), None);
    }

    #[test]
    fn grid_profile_resolves_per_scale() {
        let profile = GridProfile::per_scale(
            ScaleGrid::new(vec![8], 1),
            ScaleGrid::new(vec![8, 16], 2),
            ScaleGrid::new(vec![1024], 1),
        );
        assert_eq!(profile.grid(Scale::Smoke).sizes, vec![8]);
        assert_eq!(profile.grid(Scale::Paper).samples_per_size, 2);
        assert_eq!(profile.grid(Scale::Large).max_size(), Some(1024));
        let uniform = GridProfile::uniform(ScaleGrid::new(vec![4, 9], 3));
        for scale in Scale::all() {
            assert_eq!(uniform.grid(scale).sizes, vec![4, 9]);
        }
        assert_eq!(GridProfile::fixed(vec![]).grid(Scale::Paper).max_size(), None);
    }

    #[test]
    fn massive_grid_defaults_to_large_until_overridden() {
        let profile = GridProfile::per_scale(
            ScaleGrid::new(vec![8], 1),
            ScaleGrid::new(vec![8, 16], 2),
            ScaleGrid::new(vec![1024], 1),
        );
        assert_eq!(profile.grid(Scale::Massive), profile.grid(Scale::Large));
        let profile = profile.massive(ScaleGrid::new(vec![1 << 20], 1));
        assert_eq!(profile.grid(Scale::Massive).sizes, vec![1 << 20]);
        assert_eq!(profile.grid(Scale::Large).sizes, vec![1024]);
    }

    #[test]
    fn declarative_sweep_spec_runs_end_to_end() {
        let spec = counters_spec();
        let result = spec.run(&Serial, Scale::Paper);
        assert_eq!(result.id, "T1");
        assert_eq!(result.verdict, Verdict::Reproduced, "{result}");
        // 5 sizes → 5 rows; the fit note is present.
        assert_eq!(result.rows.len(), 5);
        assert!(result.notes.iter().any(|n| n.starts_with("fit: n log n")), "{result}");
        // Columns derive from the expected model.
        assert_eq!(result.columns[2], "bits/n log n");
    }

    #[test]
    fn sweep_spec_scales_change_the_grid() {
        let spec = counters_spec();
        let smoke = spec.run(&Serial, Scale::Smoke);
        assert_eq!(smoke.rows.len(), 2);
        assert_eq!(smoke.rows[0][0], "12");
        let large = spec.run(&Serial, Scale::Large);
        assert_eq!(large.rows[1][0], "768");
    }

    #[test]
    fn predictor_mismatch_fails_the_verdict() {
        let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
        let spec = ExperimentSpec::sweep(
            "T2",
            "wrong predictor",
            "none",
            GridProfile::uniform(ScaleGrid::new(vec![8, 16, 32], 1)),
            SweepPlan::new(
                move || Box::new(DfaOnePass::new(&lang)),
                || {
                    Box::new(
                        DfaLanguage::from_regex(
                            "(a|b)*abb",
                            &ringleader_automata::Alphabet::from_chars("ab").unwrap(),
                        )
                        .unwrap(),
                    )
                },
                GrowthModel::Linear,
            )
            .predictor(|_| usize::MAX),
        );
        let result = spec.run(&Serial, Scale::Paper);
        assert!(matches!(result.verdict, Verdict::Failed(_)), "{result}");
    }

    #[test]
    fn registry_lookup_is_case_insensitive_and_ordered() {
        let mut registry = Registry::new();
        registry.register(counters_spec());
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
        assert!(registry.get("t1").is_some());
        assert!(registry.get("T1").is_some());
        assert!(registry.get("T2").is_none());
        assert_eq!(registry.ids(), vec!["T1"]);
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_registration_panics() {
        let mut registry = Registry::new();
        registry.register(counters_spec());
        registry.register(counters_spec());
    }

    #[test]
    fn filter_matches_id_and_title_substrings() {
        let mut registry = Registry::new();
        registry.register(counters_spec());
        assert_eq!(registry.filter("t1").len(), 1);
        assert_eq!(registry.filter("COUNTERS").len(), 1);
        assert_eq!(registry.filter("zzz").len(), 0);
    }

    #[test]
    fn harness_runs_by_id() {
        let mut registry = Registry::new();
        registry.register(counters_spec());
        let harness = ExperimentHarness::new(&Serial, Scale::Smoke);
        assert_eq!(harness.scale(), Scale::Smoke);
        let result = harness.run_id(&registry, "t1").expect("registered id");
        assert_eq!(result.verdict, Verdict::Reproduced, "{result}");
        assert!(harness.run_id(&registry, "nope").is_none());
        assert_eq!(harness.run_all(&registry).len(), 1);
    }

    #[test]
    fn schedule_matrix_agrees_for_deterministic_protocols() {
        let tri = ringleader_automata::Alphabet::from_chars("012").unwrap();
        let word = ringleader_automata::Word::from_str(
            &("0".repeat(4) + &"1".repeat(4) + &"2".repeat(4)),
            &tri,
        )
        .unwrap();
        let scenario =
            ScheduleScenario::new("three-counters", || Box::new(ThreeCounters::new()), word);
        assert_eq!(scenario.label(), "three-counters");
        assert_eq!(scenario.word().len(), 12);
        let outcomes = run_schedule_matrix(&Serial, &[scenario], 3);
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert!(outcome.good, "{outcome:?}");
        assert!(outcome.notes.is_empty());
        assert_eq!(outcome.row[2], "5 tested");
        assert!(outcome.row[3].starts_with("identical ("));
        assert_eq!(outcome.row[4], "agree");
    }

    #[test]
    fn scenarios_collect_in_registration_order() {
        let unary = ringleader_automata::Alphabet::from_chars("a").unwrap();
        let word = ringleader_automata::Word::from_str("aaa", &unary).unwrap();
        let mut registry = Registry::new();
        registry.register(counters_spec().with_scenario(ScheduleScenario::new(
            "first",
            || Box::new(ThreeCounters::new()),
            word.clone(),
        )));
        let labels: Vec<String> =
            registry.schedule_scenarios().iter().map(|s| s.label().to_owned()).collect();
        assert_eq!(labels, vec!["first"]);
    }
}
