//! The ringleader benchmark: seeded workloads driven through the public
//! APIs, every output checked, host time reported end to end and, in the
//! traced mode, split across the program's layers.
//!
//! A *pass* runs a workload's whole input set once. The measured phase
//! repeats passes for the requested seconds; set-up (input generation)
//! is repeated and timed on its own. Timings are medians over the
//! quietest quarter of the passes (or set-ups): on a shared host,
//! slowdowns come in phases lasting seconds and only ever add time, so
//! a median over all passes flips with the share of slow phases in the
//! run, while the quiet quarter tracks the program's own cost.

pub mod inputs;
mod spans;

use std::time::Instant;

use ringleader_analysis::{ExperimentHarness, Verdict};
use ringleader_obs::Metrics;

use inputs::{EngineInputs, Inputs, SetupSpans, SCHEDULES};
use spans::{SweepLog, TimedExecutor, Traced};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-pass DFA state forwarding on rings of 2¹⁷–2²⁰: engine-bound.
    TokenRing,
    /// Quadratic-bit protocols at n in the thousands: handler-bound.
    WidePayload,
    /// Bidirectional recognition under three schedulers: scheduler index.
    BidirAdversary,
    /// The whole experiment registry at large scale on two workers.
    SuiteLarge,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::TokenRing,
        Workload::WidePayload,
        Workload::BidirAdversary,
        Workload::SuiteLarge,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TokenRing => "token_ring",
            Workload::WidePayload => "wide_payload",
            Workload::BidirAdversary => "bidir_adversary",
            Workload::SuiteLarge => "suite_large",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measured phase; it goes on until the quiet quarter
    /// of its passes holds [`MIN_RUNS`] runs.
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Shrink every input to a few dozen processors (tests only).
    pub smoke: bool,
}

/// Runs the quiet quarter of the passes must hold before the measured
/// phase ends: the p90 run latency then has at least ten runs beyond it.
pub const MIN_RUNS: usize = 100;

/// Set-up is repeated in bursts: before the measured phase until it has
/// run [`MIN_SETUPS`] times, then once every [`SETUP_EVERY_S`] of it, so
/// that its timing samples the same host phases as the passes. A burst
/// repeats set-up at least once and on until [`BURST_S`] have gone by,
/// at most [`MAX_BURST`] times.
const MIN_SETUPS: usize = 3;
const SETUP_EVERY_S: f64 = 3.0;
const BURST_S: f64 = 0.05;
const MAX_BURST: usize = 200;

/// Executor threads of the `suite_large` harness: the box's `nproc`.
const SUITE_WORKERS: usize = 2;

/// End-to-end metrics, printed with tracing off: (name, unit).
/// `fail_ratio` is printed with the notes instead: it is 0 whenever the
/// program is correct, and a relative bound on 0 means nothing.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The ids of the registry's specs, for `harness.spec_s.<ID>`.
pub const SPEC_IDS: [&str; 14] =
    ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2"];

/// Per-layer metrics, printed by the traced mode: (name, unit). A metric
/// of a layer a workload never calls reads 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("langs.sample_s", "s"),
        ("langs.words", "count"),
        ("automata.build_s", "s"),
        ("engine.run_s", "s"),
        ("engine.self_s", "s"),
        ("engine.ns_per_delivery", "ns"),
        ("engine.process_build_s", "s"),
        ("engine.process_builds", "count"),
        ("engine.self_s.fifo", "s"),
        ("engine.self_s.random", "s"),
        ("engine.self_s.longest_queue", "s"),
        ("engine.deliveries", "count"),
        ("engine.messages", "count"),
        ("engine.bits_sent", "bit"),
        ("engine.max_message_bits", "bit"),
        ("handlers.self_s", "s"),
        ("handlers.calls", "count"),
        ("handlers.ns_per_call", "ns"),
        ("handlers.bits_in", "bit"),
        ("handlers.ns_per_kbit", "ns/kbit"),
        ("sweep.calls", "count"),
        ("sweep.jobs", "count"),
        ("sweep.wall_s", "s"),
        ("sweep.busy_s", "s"),
        ("sweep.utilization", "ratio"),
        ("sweep.tail_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    out.extend(SPEC_IDS.iter().map(|id| (format!("harness.spec_s.{id}"), "s")));
    out.push(("harness.serial_s".into(), "s"));
    out.push(("trace.overhead_pct".into(), "%"));
    out.push(("trace.unattributed_pct".into(), "%"));
    out
}

/// The simulated statistics of one pass. A change that only speeds up
/// the simulator leaves them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Deliveries.
    pub deliveries: u64,
    /// Messages sent.
    pub messages: u64,
    /// Bits sent.
    pub bits_sent: u64,
    /// Widest single message, in bits.
    pub max_message_bits: u64,
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
struct Pass {
    wall_s: f64,
    /// Time inside `RingRunner::run`, per schedule.
    run_s: [f64; 3],
    /// Per-run latencies (per sweep job on the suite), in ms.
    run_ms: Vec<f64>,
    fp: Fingerprint,
    attempted: usize,
    failed: usize,
    /// Traced passes: handler and construction estimates per schedule.
    handler_s: [f64; 3],
    build_s: [f64; 3],
    calls: u64,
    bits_in: u64,
    builds: u64,
    /// Suite passes.
    sweep: SweepLog,
    spec_s: Vec<f64>,
}

/// Set-up, timed over repetitions spread across the run.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Wall time and layer spans of each repetition.
    reps: Vec<(f64, SetupSpans)>,
    /// Digest of the inputs the first repetition generated.
    digest: u64,
    /// Whether every repetition generated the same inputs.
    repeatable: bool,
}

impl Default for Setup {
    /// Nothing timed and nothing to repeat: for inputs built by hand.
    fn default() -> Self {
        Setup { reps: Vec::new(), digest: 0, repeatable: true }
    }
}

impl Setup {
    /// Median wall time of one set-up, over the quiet quarter of the
    /// repetitions.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        median_of(&quiet(&self.reps, |r| r.0), |r| r.0)
    }

    /// Median layer spans of one set-up, over the same repetitions.
    #[must_use]
    pub fn spans(&self) -> SetupSpans {
        let q = quiet(&self.reps, |r| r.0);
        SetupSpans {
            sample_s: median_of(&q, |r| r.1.sample_s),
            words: self.reps.first().map_or(0, |r| r.1.words),
            build_s: median_of(&q, |r| r.1.build_s),
        }
    }

    /// Repetitions made.
    #[must_use]
    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// Whether every repetition generated the same inputs.
    #[must_use]
    pub fn repeatable(&self) -> bool {
        self.repeatable
    }

    /// Generates the inputs once more, timing it.
    fn once(&mut self, opts: &Options) -> Inputs {
        let mut spans = SetupSpans::default();
        let t0 = Instant::now();
        let generated = inputs::generate(opts.workload, opts.seed, opts.smoke, &mut spans);
        self.reps.push((t0.elapsed().as_secs_f64(), spans));
        let digest = inputs::digest(&generated);
        if self.reps.len() == 1 {
            self.digest = digest;
        }
        self.repeatable &= digest == self.digest;
        generated
    }

    /// One burst of repetitions, each one's inputs dropped outside its
    /// timing. A set-up built by hand has nothing to repeat.
    fn burst(&mut self, opts: &Options) {
        if self.reps.is_empty() {
            return;
        }
        let start = Instant::now();
        for _ in 0..MAX_BURST {
            drop(self.once(opts));
            if start.elapsed().as_secs_f64() >= BURST_S {
                break;
            }
        }
    }
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted: runs, or specs on the suite.
    pub attempted: usize,
    /// Operations that errored, decided wrongly or missed a closed form.
    pub failed: usize,
    /// No operation failed and the simulated statistics repeated exactly.
    pub correct: bool,
    /// The simulated statistics of one pass.
    pub fingerprint: Fingerprint,
    /// Metric name, value and unit, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines: counts, fingerprint, failures.
    pub notes: Vec<String>,
}

/// SplitMix64 finalizer, for deriving seeds.
#[must_use]
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `xs` (0 for none); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 for none); sorts
/// in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let mut xs: Vec<f64> = items.iter().map(f).collect();
    median(&mut xs)
}

/// The quarter of `items` (at least one) with the smallest `time`.
fn quiet<T>(items: &[T], time: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut sorted: Vec<&T> = items.iter().collect();
    sorted.sort_by(|a, b| time(a).total_cmp(&time(b)));
    sorted.truncate(items.len().div_ceil(4));
    sorted
}

fn runs(passes: &[&Pass]) -> usize {
    passes.iter().map(|p| p.run_ms.len()).sum()
}

/// Generates the inputs, and times set-up over a first burst of
/// repetitions.
#[must_use]
pub fn set_up(opts: &Options) -> (Inputs, Setup) {
    let mut setup = Setup::default();
    let inputs = setup.once(opts);
    while setup.reps.len() < MIN_SETUPS {
        setup.burst(opts);
    }
    (inputs, setup)
}

/// Runs every case once, checking each outcome. `traced` wraps every
/// protocol in [`Traced`].
fn engine_pass(inputs: &EngineInputs, traced: bool, seed: u64, empty_span_ns: f64) -> Pass {
    let mut pass = Pass::default();
    let mut decisions = Vec::with_capacity(inputs.cases.len());
    let start = Instant::now();
    for (k, case) in inputs.cases.iter().enumerate() {
        let protocol = inputs.protocols[case.protocol].as_ref();
        if traced {
            spans::begin_traced_run(seed ^ mix(k as u64));
        }
        let t0 = Instant::now();
        let result = if traced {
            case.runner.run(&Traced(protocol), &case.word)
        } else {
            case.runner.run(protocol, &case.word)
        };
        let run_s = t0.elapsed().as_secs_f64();
        pass.run_s[case.schedule] += run_s;
        pass.run_ms.push(run_s * 1e3);
        if traced {
            let split = spans::end_traced_run(empty_span_ns);
            pass.handler_s[case.schedule] += split.handler_s;
            pass.build_s[case.schedule] += split.build_s;
            pass.calls += split.calls;
            pass.bits_in += split.bits_in;
            pass.builds += split.builds;
        }
        pass.attempted += 1;
        let ok = match &result {
            Ok(outcome) => {
                let s = &outcome.stats;
                pass.fp.deliveries += s.deliveries as u64;
                pass.fp.messages += s.message_count as u64;
                pass.fp.bits_sent += s.total_bits as u64;
                pass.fp.max_message_bits = pass.fp.max_message_bits.max(s.max_message_bits as u64);
                outcome.decision == Some(case.expected)
                    && case.predicted_bits.is_none_or(|b| s.total_bits == b)
                    && case.max_message_bits.is_none_or(|b| s.max_message_bits <= b)
            }
            Err(_) => false,
        };
        decisions.push(result.ok().and_then(|o| o.decision));
        if !ok {
            pass.failed += 1;
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    // A word run under several schedules must get one decision. A case
    // that already failed its own checks is not counted twice.
    for (k, case) in inputs.cases.iter().enumerate() {
        let Some(group) = case.group else { continue };
        let first = inputs.cases.iter().position(|c| c.group == Some(group)).expect("k is one");
        if decisions[k] != decisions[first] && decisions[k] == Some(case.expected) {
            pass.failed += 1;
        }
    }
    pass
}

/// Runs every spec of the registry once through the harness, on a timed
/// `Parallel` executor, checking every verdict.
fn suite_pass(registry: &ringleader_analysis::Registry, scale: ringleader_analysis::Scale) -> Pass {
    let mut pass = Pass::default();
    let exec = TimedExecutor::new(SUITE_WORKERS);
    let metrics = Metrics::enabled();
    let harness = ExperimentHarness::new(&exec, scale).with_metrics(metrics.clone());
    let start = Instant::now();
    for spec in registry.specs() {
        let t0 = Instant::now();
        let result = harness.run(spec);
        pass.spec_s.push(t0.elapsed().as_secs_f64());
        pass.attempted += 1;
        if result.verdict != Verdict::Reproduced {
            pass.failed += 1;
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.fp = Fingerprint {
        deliveries: metrics.counter_value("engine.deliveries"),
        messages: metrics.counter_value("engine.messages"),
        bits_sent: metrics.counter_value("engine.bits_sent"),
        max_message_bits: metrics.gauge_value("engine.max_message_bits"),
    };
    pass.sweep = exec.into_log();
    pass.run_ms = std::mem::take(&mut pass.sweep.job_ms);
    pass
}

/// Peak resident memory of this process so far, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets up and measures one invocation.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let (inputs, mut setup) = set_up(opts);
    measure(&inputs, &mut setup, opts)
}

/// The measured phase: passes until `opts.seconds` have gone by, with
/// at least two passes, and [`MIN_RUNS`] runs in the quiet quarter of
/// the passes. In the traced mode, untraced and traced passes alternate.
/// Set-up bursts go between passes.
#[must_use]
pub fn measure(inputs: &Inputs, setup: &mut Setup, opts: &Options) -> Report {
    let empty_span_ns = if opts.trace { spans::empty_span_ns() } else { 0.0 };
    let pass = |traced: bool, n: usize| match inputs {
        Inputs::Engine(e) => engine_pass(e, traced, opts.seed ^ n as u64, empty_span_ns),
        Inputs::Suite(registry, scale) => suite_pass(registry, *scale),
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut last_burst = start;
    // Read after set-up and the first pass, a fixed amount of work: the
    // suite's allocator footprint keeps growing over later passes, by an
    // amount that depends on how its two workers' jobs interleave.
    let mut peak_rss = 0.0;
    loop {
        if last_burst.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            setup.burst(opts);
            last_burst = Instant::now();
        }
        plain.push(pass(false, plain.len()));
        if plain.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        if opts.trace {
            traced.push(pass(true, traced.len()));
        }
        // The traced mode reports no run latencies.
        let enough = opts.trace || runs(&quiet(&plain, |p| p.wall_s)) >= MIN_RUNS;
        if plain.len() >= 2 && enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let quiet_plain = quiet(&plain, |p| p.wall_s);

    let all = || plain.iter().chain(&traced);
    let attempted: usize = all().map(|p| p.attempted).sum();
    let failed: usize = all().map(|p| p.failed).sum();
    let fp = plain[0].fp;
    let repeats = all().all(|p| p.fp == fp);
    let mut notes = vec![
        format!(
            "workload {} seed {}: {} set-ups, {} passes, {} runs in the quiet quarter of the untraced passes, {failed} of {attempted} operations failed",
            opts.workload.name(),
            opts.seed,
            setup.reps(),
            plain.len() + traced.len(),
            runs(&quiet_plain),
        ),
        format!(
            "fingerprint: engine.deliveries={} engine.messages={} engine.bits_sent={} engine.max_message_bits={} ({})",
            fp.deliveries,
            fp.messages,
            fp.bits_sent,
            fp.max_message_bits,
            if repeats { "identical in every pass" } else { "DIFFERS between passes" },
        ),
        format!("fail_ratio = {:?}", failed as f64 / attempted as f64),
    ];
    if !setup.repeatable {
        notes.push("set-up generated different inputs from one seed".into());
    }

    let wall_s = median_of(&quiet_plain, |p| p.wall_s);
    let metrics = if opts.trace {
        layer_metrics(inputs, setup, &quiet_plain, &quiet(&traced, |p| p.wall_s), wall_s)
    } else {
        let mut run_ms: Vec<f64> =
            quiet_plain.iter().flat_map(|p| p.run_ms.iter().copied()).collect();
        vec![
            ("wall_s".to_string(), wall_s, "s"),
            ("setup_s".to_string(), setup.setup_s(), "s"),
            ("deliveries_per_s".to_string(), fp.deliveries as f64 / wall_s, "1/s"),
            ("run_ms_p50".to_string(), quantile(&mut run_ms, 0.5), "ms"),
            ("run_ms_p90".to_string(), quantile(&mut run_ms, 0.9), "ms"),
            ("peak_rss_mb".to_string(), peak_rss, "MB"),
        ]
    };
    Report {
        attempted,
        failed,
        correct: failed == 0 && repeats && setup.repeatable,
        fingerprint: fp,
        metrics,
        notes,
    }
}

/// The per-layer split, over the quiet quarters of the untraced and
/// traced passes. Engine self time is the untraced time inside
/// `RingRunner::run` less the traced estimates of handler and
/// construction time.
fn layer_metrics(
    inputs: &Inputs,
    setup: &Setup,
    plain: &[&Pass],
    traced: &[&Pass],
    wall_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let fp = plain[0].fp;
    let t = traced[0];
    let spans = setup.spans();
    let run_s = median_of(plain, |p| p.run_s.iter().sum());
    let handler_s = median_of(traced, |p| p.handler_s.iter().sum());
    let build_s = median_of(traced, |p| p.build_s.iter().sum());
    let self_s = run_s - handler_s - build_s;
    let self_by = |k: usize| {
        median_of(plain, |p| p.run_s[k]) - median_of(traced, |p| p.handler_s[k] + p.build_s[k])
    };
    let traced_wall = median_of(traced, |p| p.wall_s);
    let traced_covered = match inputs {
        Inputs::Engine(_) => median_of(traced, |p| p.run_s.iter().sum()),
        Inputs::Suite(..) => median_of(traced, |p| p.spec_s.iter().sum()),
    };
    let sweep_wall = median_of(traced, |p| p.sweep.wall_s);
    let sweep_busy = median_of(traced, |p| p.sweep.busy_s);
    let per_ns = |s: f64, count: u64| if count == 0 { 0.0 } else { s * 1e9 / count as f64 };

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64| {
        let unit = per_layer()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| u)
            .expect("every reported metric is listed in per_layer()");
        m.push((name.to_string(), v, unit));
    };
    put("langs.sample_s", spans.sample_s);
    put("langs.words", spans.words as f64);
    put("automata.build_s", spans.build_s);
    put("engine.run_s", run_s);
    put("engine.self_s", self_s);
    put("engine.ns_per_delivery", if run_s > 0.0 { per_ns(self_s, fp.deliveries) } else { 0.0 });
    put("engine.process_build_s", build_s);
    put("engine.process_builds", t.builds as f64);
    for (k, name) in SCHEDULES.iter().enumerate() {
        let ran = plain[0].run_s[k] > 0.0;
        put(&format!("engine.self_s.{name}"), if ran { self_by(k) } else { 0.0 });
    }
    put("engine.deliveries", fp.deliveries as f64);
    put("engine.messages", fp.messages as f64);
    put("engine.bits_sent", fp.bits_sent as f64);
    put("engine.max_message_bits", fp.max_message_bits as f64);
    put("handlers.self_s", handler_s);
    put("handlers.calls", t.calls as f64);
    put("handlers.ns_per_call", per_ns(handler_s, t.calls));
    put("handlers.bits_in", t.bits_in as f64);
    put("handlers.ns_per_kbit", per_ns(handler_s * 1e3, t.bits_in));
    put("sweep.calls", t.sweep.calls as f64);
    put("sweep.jobs", t.sweep.jobs as f64);
    put("sweep.wall_s", sweep_wall);
    put("sweep.busy_s", sweep_busy);
    put(
        "sweep.utilization",
        if sweep_wall > 0.0 { sweep_busy / (sweep_wall * SUITE_WORKERS as f64) } else { 0.0 },
    );
    put("sweep.tail_s", median_of(traced, |p| p.sweep.tail_s));
    for (k, id) in SPEC_IDS.iter().enumerate() {
        put(
            &format!("harness.spec_s.{id}"),
            median_of(traced, |p| p.spec_s.get(k).copied().unwrap_or(0.0)),
        );
    }
    put(
        "harness.serial_s",
        median_of(traced, |p| {
            if p.spec_s.is_empty() {
                0.0
            } else {
                p.spec_s.iter().sum::<f64>() - p.sweep.wall_s
            }
        }),
    );
    put("trace.overhead_pct", (traced_wall / wall_s - 1.0) * 100.0);
    let whole = setup.setup_s() + traced_wall;
    let covered = spans.sample_s + spans.build_s + traced_covered;
    put("trace.unattributed_pct", (whole - covered) / whole * 100.0);
    m
}

/// The last line of the output: the result as one JSON object.
#[must_use]
pub fn to_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
