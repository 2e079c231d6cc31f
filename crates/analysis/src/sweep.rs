//! Protocol sweeps over ring sizes, with ground-truth verification.
//!
//! A sweep is a **grid** of independent measurement points — one per
//! (ring size, sample index, positive/negative) coordinate — executed by
//! a pluggable [`SweepExecutor`]: [`Serial`] runs points in grid order on
//! the calling thread; [`Parallel`] fans them out to a work-stealing
//! pool. Both produce *byte-identical* results because
//!
//! * every [`GridPoint`] carries its own RNG seed, derived from the
//!   sweep's base seed and the point's coordinates (never from execution
//!   order), and
//! * executors return per-point [`RunStats`] in grid order regardless of
//!   completion order (the pool's ordered-collection contract, see
//!   [`ringleader_sim::pool`]).

use std::fmt;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ringleader_langs::Language;
use ringleader_obs::Metrics;
use ringleader_sim::{pool, Protocol, RingRunner, Scheduler, SimError};

/// One measurement of a protocol at one ring size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Ring size.
    pub n: usize,
    /// Worst-case bits observed across the sampled words at this size.
    pub bits: usize,
    /// Message count of the worst-case execution.
    pub messages: usize,
    /// Largest single message across all samples, in bits.
    pub max_message_bits: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Ring sizes to measure.
    pub sizes: Vec<usize>,
    /// Words sampled per size (positives and negatives each, when they
    /// exist).
    pub samples_per_size: usize,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Run in the paper's Note 7.4 known-`n` mode.
    pub known_ring_size: bool,
    /// Delivery schedule.
    pub scheduler: Scheduler,
    /// Metrics registry cloned into every grid point's runner. The
    /// default disabled handle records nothing; an enabled one
    /// accumulates engine telemetry across the whole sweep without
    /// ever feeding back into a measurement.
    pub metrics: Metrics,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            sizes: vec![16, 32, 64, 128, 256, 512, 1024],
            samples_per_size: 3,
            seed: 0xB17C0DE,
            known_ring_size: false,
            scheduler: Scheduler::Fifo,
            metrics: Metrics::disabled(),
        }
    }
}

impl SweepConfig {
    /// A sweep over the given sizes with the remaining defaults.
    #[must_use]
    pub fn with_sizes(sizes: Vec<usize>) -> Self {
        Self { sizes, ..Self::default() }
    }
}

/// One independent measurement coordinate of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Ring size.
    pub n: usize,
    /// Sample index within this size, `0..samples_per_size`.
    pub sample: usize,
    /// Whether this point measures a member word (else a non-member).
    pub positive: bool,
    /// Workload seed for this point — a pure function of the sweep's
    /// base seed and this point's coordinates.
    pub seed: u64,
}

/// The full measurement grid of a sweep, in canonical order: sizes
/// outermost, then samples, then positive before negative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    points: Vec<GridPoint>,
}

impl SweepGrid {
    /// Builds the grid for `config`, deriving every point's seed.
    #[must_use]
    pub fn new(config: &SweepConfig) -> Self {
        let mut points =
            Vec::with_capacity(config.sizes.len() * config.samples_per_size.max(1) * 2);
        for &n in &config.sizes {
            for sample in 0..config.samples_per_size {
                for positive in [true, false] {
                    points.push(GridPoint {
                        n,
                        sample,
                        positive,
                        seed: point_seed(config.seed, n, sample, positive),
                    });
                }
            }
        }
        SweepGrid { points }
    }

    /// The points in canonical grid order.
    #[must_use]
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Derives a point's workload seed from the sweep seed and the point's
/// coordinates (SplitMix64 finalizer over a coordinate hash): stable
/// across platforms, independent of grid traversal order.
fn point_seed(base: u64, n: usize, sample: usize, positive: bool) -> u64 {
    let mut z = base
        ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sample as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ u64::from(positive).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-point measurement returned by executors, in grid order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Ring size of the point.
    pub n: usize,
    /// Whether a word existed and a run happened (`false` when the
    /// language has no example on the requested side at this length).
    pub ran: bool,
    /// Total protocol bits of the execution.
    pub bits: usize,
    /// Messages sent.
    pub messages: usize,
    /// Widest single message, in bits.
    pub max_message_bits: usize,
}

impl RunStats {
    fn skipped(n: usize) -> Self {
        RunStats { n, ran: false, bits: 0, messages: 0, max_message_bits: 0 }
    }
}

/// The measurement closure an executor runs at every grid point.
pub type PointJob<'a> = dyn Fn(&GridPoint) -> Result<RunStats, SimError> + Sync + 'a;

/// Strategy for executing a sweep grid.
///
/// Implementations must return results **in grid order** — that
/// ordering (plus per-point seeding) is what makes every executor
/// produce byte-identical sweeps. An executor may stop early after a
/// job returns `Err`, as long as what it returns is a grid-order prefix
/// whose last element is that `Err`; a parallel executor may instead
/// run the full grid and report every result.
pub trait SweepExecutor: Sync + fmt::Debug {
    /// Worker threads this executor uses (`1` for serial execution).
    fn workers(&self) -> usize;

    /// Runs `job` at every point of `grid`, collecting results in grid
    /// order (possibly stopping at the first `Err`, see trait docs).
    fn run_grid(&self, grid: &SweepGrid, job: &PointJob<'_>) -> Vec<Result<RunStats, SimError>>;

    /// Runs `count` independent indexed jobs (no return values — see
    /// [`run_independent`] for the value-collecting wrapper every
    /// caller actually wants).
    fn run_indexed(&self, count: usize, job: &(dyn Fn(usize) + Sync));
}

/// Runs every grid point on the calling thread, in grid order, stopping
/// at the first simulator error exactly like a plain serial loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl SweepExecutor for Serial {
    fn workers(&self) -> usize {
        1
    }

    fn run_grid(&self, grid: &SweepGrid, job: &PointJob<'_>) -> Vec<Result<RunStats, SimError>> {
        let mut out = Vec::with_capacity(grid.len());
        for p in grid.points() {
            let result = job(p);
            let failed = result.is_err();
            out.push(result);
            if failed {
                break; // grid-order prefix ending at the error
            }
        }
        out
    }

    fn run_indexed(&self, count: usize, job: &(dyn Fn(usize) + Sync)) {
        for i in 0..count {
            job(i);
        }
    }
}

/// Fans grid points out to a work-stealing pool of the given number of
/// worker threads (`Parallel(0)` uses the machine's parallelism). Every
/// point runs even if one errors; the fold surfaces the earliest error.
#[derive(Debug, Clone, Copy)]
pub struct Parallel(pub usize);

impl SweepExecutor for Parallel {
    fn workers(&self) -> usize {
        if self.0 == 0 {
            pool::default_workers()
        } else {
            self.0
        }
    }

    fn run_grid(&self, grid: &SweepGrid, job: &PointJob<'_>) -> Vec<Result<RunStats, SimError>> {
        pool::ordered_map(self.workers(), grid.points().to_vec(), |_, p| job(&p))
    }

    fn run_indexed(&self, count: usize, job: &(dyn Fn(usize) + Sync)) {
        pool::ordered_map(self.workers(), (0..count).collect(), |_, i| job(i));
    }
}

/// The executor for a requested worker count: [`Serial`] for one
/// worker, [`Parallel`] otherwise, with `0` meaning one worker per CPU
/// (the same convention as [`Parallel`]`(0)`).
#[must_use]
pub fn executor_for(workers: usize) -> Box<dyn SweepExecutor> {
    match workers {
        0 => Box::new(Parallel(0)),
        1 => Box::new(Serial),
        n => Box::new(Parallel(n)),
    }
}

/// Runs `count` independent jobs through the executor, returning their
/// results in input order.
///
/// For experiment stages that are not size sweeps (schedule matrices,
/// per-`k` closed-form checks, graph explorations): the jobs must be
/// independent — in particular, workloads must be precomputed or
/// per-index seeded, never drawn from a shared RNG inside the job.
pub fn run_independent<T, F>(exec: &dyn SweepExecutor, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    exec.run_indexed(count, &|i| {
        *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(f(i));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("executor ran every indexed job")
        })
        .collect()
}

/// Runs `protocol` over `config.sizes` with the given executor, sampling
/// member and non-member words of `language` at each size and recording
/// the worst-case bits.
///
/// Every decision is cross-checked against `language.contains`; a
/// mismatch is reported as a panic — a sweep is an experiment, and a
/// wrong decision invalidates it loudly. (Under a parallel executor the
/// panic is re-raised on the calling thread, earliest grid point first.)
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if the protocol's decision contradicts the language's ground
/// truth (the experiment's precondition).
pub fn sweep_protocol_with(
    protocol: &dyn Protocol,
    language: &dyn Language,
    config: &SweepConfig,
    exec: &dyn SweepExecutor,
) -> Result<Vec<SweepPoint>, SimError> {
    let grid = SweepGrid::new(config);
    let job = |p: &GridPoint| -> Result<RunStats, SimError> {
        let mut rng = StdRng::seed_from_u64(p.seed);
        let word = if p.positive {
            language.positive_example(p.n, &mut rng)
        } else {
            language.negative_example(p.n, &mut rng)
        };
        let Some(word) = word else {
            return Ok(RunStats::skipped(p.n));
        };
        let mut runner = RingRunner::new();
        runner.known_ring_size(config.known_ring_size);
        runner.scheduler(config.scheduler.clone());
        runner.metrics(config.metrics.clone());
        let outcome = runner.run(protocol, &word)?;
        assert_eq!(
            outcome.accepted(),
            p.positive,
            "{} decided wrongly on a length-{} {} example of {}",
            protocol.name(),
            p.n,
            if p.positive { "positive" } else { "negative" },
            language.name(),
        );
        Ok(RunStats {
            n: p.n,
            ran: true,
            bits: outcome.stats.total_bits,
            messages: outcome.stats.message_count,
            max_message_bits: outcome.stats.max_message_bits,
        })
    };
    let results = exec.run_grid(&grid, &job);

    // Fold per-point stats into per-size worst cases, in grid order —
    // identical to what a serial sweep loop would have accumulated.
    // Each `sizes` entry owns a fixed-stride chunk of the grid (grouping
    // by position, not by value, so duplicate size entries each produce
    // their own output point — with byte-identical measurements, since
    // point seeds are pure in the coordinates).
    let stride = config.samples_per_size * 2;
    let mut out: Vec<SweepPoint> = Vec::with_capacity(config.sizes.len());
    if stride == 0 {
        return Ok(out);
    }
    let mut results = results.into_iter();
    for chunk in grid.points().chunks(stride) {
        let mut best: Option<SweepPoint> = None;
        let mut max_message_bits = 0usize;
        for _ in chunk {
            // Exhaustion before the grid ends can only follow an `Err`
            // (executors may return a grid-order prefix ending at one),
            // and the `?` below returns at that `Err` first.
            let stats = results.next().expect("grid-order results, prefix only after Err")?;
            if !stats.ran {
                continue;
            }
            max_message_bits = max_message_bits.max(stats.max_message_bits);
            if best.as_ref().is_none_or(|b| stats.bits > b.bits) {
                best = Some(SweepPoint {
                    n: stats.n,
                    bits: stats.bits,
                    messages: stats.messages,
                    max_message_bits: 0, // patched below
                });
            }
        }
        if let Some(mut point) = best {
            point.max_message_bits = max_message_bits;
            out.push(point);
        }
    }
    Ok(out)
}

/// [`sweep_protocol_with`] on the [`Serial`] executor — the historical
/// entry point, kept for callers that don't care about parallelism.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if the protocol's decision contradicts the language's ground
/// truth (the experiment's precondition).
pub fn sweep_protocol(
    protocol: &dyn Protocol,
    language: &dyn Language,
    config: &SweepConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    sweep_protocol_with(protocol, language, config, &Serial)
}

/// Measures one word under many delivery schedules, returning each
/// execution's total bits.
///
/// `BIT_A(n)` quantifies over *all* executions; for schedule-sensitive
/// (bidirectional) protocols a FIFO-only measurement underestimates the
/// worst case. This helper sweeps the schedule space: FIFO, the
/// adversarial longest-queue policy, and `random_seeds` seeded shuffles.
/// Decisions are asserted identical across schedules (protocol
/// correctness must be schedule-independent even when costs are not).
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if two schedules produce different decisions.
pub fn bits_across_schedules(
    protocol: &dyn Protocol,
    word: &ringleader_automata::Word,
    random_seeds: u64,
) -> Result<Vec<usize>, SimError> {
    let mut schedules = vec![Scheduler::Fifo, Scheduler::LongestQueue];
    for seed in 0..random_seeds {
        schedules.push(Scheduler::Random { seed });
    }
    let mut bits = Vec::with_capacity(schedules.len());
    let mut decision: Option<bool> = None;
    for sched in schedules {
        let mut runner = RingRunner::new();
        runner.scheduler(sched.clone());
        let outcome = runner.run(protocol, word)?;
        match decision {
            None => decision = outcome.decision,
            Some(d) => assert_eq!(
                Some(d),
                outcome.decision,
                "{} changed its decision under {sched:?}",
                protocol.name()
            ),
        }
        bits.push(outcome.stats.total_bits);
    }
    Ok(bits)
}

/// Result of a correctness verification run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// Total decisions checked.
    pub checked: usize,
    /// Decisions that disagreed with ground truth.
    pub mismatches: usize,
}

impl VerificationReport {
    /// Whether every decision was correct.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.mismatches == 0 && self.checked > 0
    }
}

/// Checks `protocol` against `language` on sampled words of each length,
/// without asserting — returns the mismatch count for reporting.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn verify_protocol(
    protocol: &dyn Protocol,
    language: &dyn Language,
    lengths: &[usize],
    samples_per_length: usize,
    seed: u64,
) -> Result<VerificationReport, SimError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let runner = RingRunner::new();
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for &n in lengths {
        for _ in 0..samples_per_length {
            for want in [true, false] {
                let word = if want {
                    language.positive_example(n, &mut rng)
                } else {
                    language.negative_example(n, &mut rng)
                };
                let Some(word) = word else { continue };
                let outcome = runner.run(protocol, &word)?;
                checked += 1;
                if outcome.accepted() != want {
                    mismatches += 1;
                }
            }
        }
    }
    Ok(VerificationReport { checked, mismatches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringleader_core::{CollectAll, DfaOnePass, ThreeCounters};
    use ringleader_langs::{AnBnCn, DfaLanguage};
    use std::sync::Arc;

    #[test]
    fn sweep_measures_exact_linear_costs() {
        let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
        let proto = DfaOnePass::new(&lang);
        let config = SweepConfig::with_sizes(vec![8, 16, 32]);
        let points = sweep_protocol(&proto, &lang, &config).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.bits, proto.predicted_bits(p.n));
            assert_eq!(p.messages, p.n);
        }
    }

    #[test]
    fn sweep_skips_sizes_with_no_examples() {
        // (ab)* has no words at odd lengths, but negatives exist at every
        // length ≥ 1 — so odd sizes still measure (rejecting runs).
        let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("(ab)*", &sigma).unwrap();
        let proto = DfaOnePass::new(&lang);
        let config = SweepConfig::with_sizes(vec![7, 8]);
        let points = sweep_protocol(&proto, &lang, &config).unwrap();
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn grid_is_canonical_and_seeds_are_coordinate_pure() {
        let config = SweepConfig { sizes: vec![4, 9], samples_per_size: 2, ..Default::default() };
        let grid = SweepGrid::new(&config);
        assert_eq!(grid.len(), 8);
        // Canonical order: n outermost, then sample, then positive first.
        let coords: Vec<(usize, usize, bool)> =
            grid.points().iter().map(|p| (p.n, p.sample, p.positive)).collect();
        assert_eq!(
            coords,
            vec![
                (4, 0, true),
                (4, 0, false),
                (4, 1, true),
                (4, 1, false),
                (9, 0, true),
                (9, 0, false),
                (9, 1, true),
                (9, 1, false),
            ]
        );
        // Seeds: pure in coordinates (rebuilding reproduces them) and
        // distinct across points.
        let again = SweepGrid::new(&config);
        assert_eq!(grid, again);
        let mut seeds: Vec<u64> = grid.points().iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "per-point seeds must be distinct");
    }

    #[test]
    fn duplicate_sizes_each_produce_a_point() {
        // Grouping is positional: a size listed twice yields two output
        // points (byte-identical, because point seeds are pure in the
        // coordinates — same n, same sample index, same seed).
        let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
        let proto = DfaOnePass::new(&lang);
        let config = SweepConfig::with_sizes(vec![8, 8, 16]);
        let points = sweep_protocol(&proto, &lang, &config).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], points[1]);
        assert_eq!(points[2].n, 16);
    }

    #[test]
    fn executors_are_interchangeable() {
        let lang = AnBnCn::new();
        let proto = ThreeCounters::new();
        let config = SweepConfig::with_sizes(vec![6, 12, 24]);
        let serial = sweep_protocol_with(&proto, &lang, &config, &Serial).unwrap();
        let par1 = sweep_protocol_with(&proto, &lang, &config, &Parallel(1)).unwrap();
        let par4 = sweep_protocol_with(&proto, &lang, &config, &Parallel(4)).unwrap();
        assert_eq!(serial, par1);
        assert_eq!(serial, par4);
    }

    #[test]
    fn executor_for_picks_the_right_strategy() {
        // 0 = one worker per CPU, same convention as Parallel(0).
        assert_eq!(executor_for(0).workers(), Parallel(0).workers());
        assert_eq!(executor_for(1).workers(), 1);
        assert_eq!(executor_for(6).workers(), 6);
        assert!(Parallel(0).workers() >= 1, "auto worker count is positive");
    }

    #[test]
    fn serial_executor_short_circuits_on_error() {
        // A failing grid point must abort the sweep like the historical
        // serial loop's `?` did: later points never run.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let config = SweepConfig { sizes: vec![4, 8], samples_per_size: 1, ..Default::default() };
        let grid = SweepGrid::new(&config);
        let ran = AtomicUsize::new(0);
        let results = Serial.run_grid(&grid, &|p| {
            ran.fetch_add(1, Ordering::SeqCst);
            if p.n == 4 && !p.positive {
                Err(SimError::EmptyRing)
            } else {
                Ok(RunStats { n: p.n, ran: true, bits: 1, messages: 1, max_message_bits: 1 })
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2, "points after the error must not run");
        assert_eq!(results.len(), 2, "grid-order prefix ending at the error");
        assert!(results.last().unwrap().is_err());
    }

    #[test]
    fn run_independent_preserves_order() {
        let exec = Parallel(3);
        let out = run_independent(&exec, 17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_sweep_reports_spread_and_constant() {
        // Unidirectional token protocol: identical bits across schedules.
        let lang = AnBnCn::new();
        let proto = ThreeCounters::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use ringleader_langs::Language as _;
        let word = lang.positive_example(12, &mut rng).unwrap();
        let bits = bits_across_schedules(&proto, &word, 4).unwrap();
        assert_eq!(bits.len(), 6);
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "{bits:?}");
    }

    #[test]
    fn verify_passes_for_correct_protocols() {
        let lang = AnBnCn::new();
        let proto = ThreeCounters::new();
        let report = verify_protocol(&proto, &lang, &[3, 6, 9, 12], 4, 7).unwrap();
        assert!(report.all_correct(), "{report:?}");
        assert!(report.checked > 10);
    }

    #[test]
    fn verify_detects_wrong_protocols() {
        // CollectAll wired to the WRONG language must show mismatches.
        // WcW's alphabet also has three letters, so the wire format is
        // compatible and only the decisions diverge.
        let truth = AnBnCn::new();
        let wrong = CollectAll::new(Arc::new(ringleader_langs::WcW::new()));
        let report = verify_protocol(&wrong, &truth, &[3, 6, 9], 4, 7).unwrap();
        assert!(report.mismatches > 0, "{report:?}");
    }

    #[test]
    #[should_panic(expected = "decided wrongly")]
    fn sweep_panics_on_wrong_decisions() {
        let truth = AnBnCn::new();
        let wrong = CollectAll::new(Arc::new(ringleader_langs::WcW::new()));
        let config = SweepConfig::with_sizes(vec![3, 6]);
        let _ = sweep_protocol(&wrong, &truth, &config);
    }

    #[test]
    #[should_panic(expected = "decided wrongly")]
    fn parallel_sweep_panics_on_wrong_decisions_too() {
        // The pool re-raises the earliest grid point's panic on this
        // thread, so the failure mode is executor-independent.
        let truth = AnBnCn::new();
        let wrong = CollectAll::new(Arc::new(ringleader_langs::WcW::new()));
        let config = SweepConfig::with_sizes(vec![3, 6]);
        let _ = sweep_protocol_with(&wrong, &truth, &config, &Parallel(4));
    }
}
