//! Benchmark-owned spans around the program's layers.
//!
//! Nothing here instruments the program. Every span wraps either a call
//! the benchmark makes, or an object the benchmark hands to the program
//! through a public trait: a [`Protocol`] whose processes time their own
//! handlers ([`Traced`]), or a [`SweepExecutor`] that times its jobs
//! ([`TimedExecutor`]).

use std::cell::RefCell;
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Instant;

use ringleader_analysis::{Parallel, PointJob, RunStats, SweepExecutor, SweepGrid};
use ringleader_automata::Symbol;
use ringleader_bitio::BitString;
use ringleader_sim::{Context, Direction, Process, ProcessResult, Protocol, SimError, Topology};

/// One in `SAMPLE_EVERY` handler calls and process builds is timed; the
/// rest are only counted. A `token_ring` hop costs about as much as two
/// clock reads, so timing every call would more than double the run.
const SAMPLE_EVERY: u64 = 8;

/// Per-thread tallies. The serial engine calls every handler and
/// factory on the thread that called `RingRunner::run`, so no
/// synchronisation is needed on the hot path.
#[derive(Clone, Copy)]
struct Tally {
    rng: u64,
    calls: u64,
    bits_in: u64,
    call_samples: u64,
    call_sample_ns: u64,
    builds: u64,
    build_samples: u64,
    build_sample_ns: u64,
}

impl Tally {
    const ZERO: Tally = Tally {
        rng: 1,
        calls: 0,
        bits_in: 0,
        call_samples: 0,
        call_sample_ns: 0,
        builds: 0,
        build_samples: 0,
        build_sample_ns: 0,
    };

    /// Xorshift64 draw: whether the next call is one of the timed sample.
    fn draw(&mut self) -> bool {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.is_multiple_of(SAMPLE_EVERY)
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = const { RefCell::new(Tally::ZERO) };
}

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` as one handler call carrying `bits` message bits.
fn handler_span<R>(bits: usize, f: impl FnOnce() -> R) -> R {
    let sampled = TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.calls += 1;
        t.bits_in += bits as u64;
        t.draw()
    });
    if !sampled {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = nanos_since(t0);
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.call_samples += 1;
        t.call_sample_ns += ns;
    });
    out
}

/// Runs `f` as one process construction.
fn build_span(f: impl FnOnce() -> Box<dyn Process>) -> Box<dyn Process> {
    let sampled = TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.builds += 1;
        t.draw()
    });
    if !sampled {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = nanos_since(t0);
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.build_samples += 1;
        t.build_sample_ns += ns;
    });
    out
}

/// A protocol whose processes report their handler and construction
/// time to the calling thread's tally.
pub struct Traced<'a>(pub &'a dyn Protocol);

struct TracedProcess(Box<dyn Process>);

impl Process for TracedProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        handler_span(0, || self.0.on_start(ctx))
    }

    fn on_message(
        &mut self,
        direction: Direction,
        message: &BitString,
        ctx: &mut Context,
    ) -> ProcessResult {
        handler_span(message.len(), || self.0.on_message(direction, message, ctx))
    }
}

impl Protocol for Traced<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn topology(&self) -> Topology {
        self.0.topology()
    }

    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(TracedProcess(build_span(|| self.0.leader(input))))
    }

    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(TracedProcess(build_span(|| self.0.follower(input))))
    }
}

/// Handler and construction totals of one traced run, scaled up from
/// the timed sample. Counts are exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// Estimated seconds inside `Process::on_start`/`on_message`.
    pub handler_s: f64,
    /// Handler calls.
    pub calls: u64,
    /// Message bits delivered to handlers.
    pub bits_in: u64,
    /// Estimated seconds inside `Protocol::leader`/`follower`.
    pub build_s: f64,
    /// Processes built.
    pub builds: u64,
}

/// Clears this thread's tally before a traced run; `seed` picks which
/// calls are timed.
pub fn begin_traced_run(seed: u64) {
    TALLY.with(|t| {
        *t.borrow_mut() = Tally { rng: crate::mix(seed) | 1, ..Tally::ZERO };
    });
}

/// Reads this thread's tally after a traced run. `empty_span_ns`, the
/// measured cost of timing nothing, is taken off every timed sample.
pub fn end_traced_run(empty_span_ns: f64) -> Split {
    let t = TALLY.with(|t| *t.borrow());
    let scale = |count: u64, samples: u64, sample_ns: u64| {
        if samples == 0 {
            return 0.0;
        }
        let net = (sample_ns as f64 - samples as f64 * empty_span_ns).max(0.0);
        net / samples as f64 * count as f64 / 1e9
    };
    Split {
        handler_s: scale(t.calls, t.call_samples, t.call_sample_ns),
        calls: t.calls,
        bits_in: t.bits_in,
        build_s: scale(t.builds, t.build_samples, t.build_sample_ns),
        builds: t.builds,
    }
}

/// The median cost, in nanoseconds, of a span around nothing.
#[must_use]
pub fn empty_span_ns() -> f64 {
    let mut ns: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            nanos_since(std::hint::black_box(t0)) as f64
        })
        .collect();
    crate::median(&mut ns)
}

/// What a [`TimedExecutor`] saw, summed over its executor calls.
#[derive(Debug, Clone, Default)]
pub struct SweepLog {
    /// `run_grid`/`run_indexed` calls.
    pub calls: u64,
    /// Jobs run.
    pub jobs: u64,
    /// Wall time inside executor calls.
    pub wall_s: f64,
    /// Time workers spent inside jobs.
    pub busy_s: f64,
    /// Time from the first worker running dry to the end of each call.
    pub tail_s: f64,
    /// Every job's duration, in milliseconds.
    pub job_ms: Vec<f64>,
}

/// `Parallel(workers)`, timing every job it runs.
#[derive(Debug)]
pub struct TimedExecutor {
    inner: Parallel,
    log: Mutex<SweepLog>,
}

/// The jobs of one executor call: which thread ran each, and when.
struct Jobs(Mutex<Vec<(ThreadId, Instant, Instant)>>);

impl Jobs {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.0.lock().expect("a job panicked while logging").push((thread::current().id(), t0, t1));
        out
    }
}

impl TimedExecutor {
    /// A timed `Parallel(workers)`.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        TimedExecutor { inner: Parallel(workers), log: Mutex::new(SweepLog::default()) }
    }

    /// Everything logged so far.
    #[must_use]
    pub fn into_log(self) -> SweepLog {
        self.log.into_inner().expect("a job panicked while logging")
    }

    fn record<R>(&self, call: impl FnOnce(&Jobs) -> R) -> R {
        let jobs = Jobs(Mutex::new(Vec::new()));
        let start = Instant::now();
        let out = call(&jobs);
        let end = Instant::now();
        let jobs = jobs.0.into_inner().expect("a job panicked while logging");

        // Each worker's last job end; a worker that ran nothing was dry
        // from the start of the call.
        let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
        for &(id, _, t1) in &jobs {
            match last_end.iter_mut().find(|(w, _)| *w == id) {
                Some((_, end)) => *end = (*end).max(t1),
                None => last_end.push((id, t1)),
            }
        }
        let first_dry = if last_end.len() < self.inner.workers() {
            start
        } else {
            last_end.iter().map(|&(_, t)| t).min().unwrap_or(start)
        };

        let mut log = self.log.lock().expect("a job panicked while logging");
        log.calls += 1;
        log.jobs += jobs.len() as u64;
        log.wall_s += (end - start).as_secs_f64();
        log.tail_s += end.saturating_duration_since(first_dry).as_secs_f64();
        for &(_, t0, t1) in &jobs {
            let d = (t1 - t0).as_secs_f64();
            log.busy_s += d;
            log.job_ms.push(d * 1e3);
        }
        out
    }
}

impl SweepExecutor for TimedExecutor {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn run_grid(&self, grid: &SweepGrid, job: &PointJob<'_>) -> Vec<Result<RunStats, SimError>> {
        self.record(|jobs| self.inner.run_grid(grid, &|p| jobs.time(|| job(p))))
    }

    fn run_indexed(&self, count: usize, job: &(dyn Fn(usize) + Sync)) {
        self.record(|jobs| self.inner.run_indexed(count, &|i| jobs.time(|| job(i))));
    }
}
