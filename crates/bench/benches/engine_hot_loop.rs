//! Engine-throughput benches: the per-delivery cost of the event loop.
//!
//! Unlike `protocols.rs` (one group per paper experiment), this group
//! isolates the *simulator substrate*: three workload shapes chosen to
//! stress the scheduler index and the message hot path at ring sizes where
//! an O(n)-per-delivery engine becomes the bottleneck.
//!
//! * `one_pass` — unidirectional single token (`DfaOnePass`): exactly one
//!   link is ever non-empty, the best case for the single-link fast path.
//! * `bidir_collision` — `BidirMeetInMiddle` probes crossing in both
//!   directions: two active links, exercises the index under churn.
//! * `quadratic_stateless` — the Theorem 3 stateless replay
//!   (`StatelessTwoPass`), whose pass-2 messages replay pass-1 history:
//!   wider payloads and two full passes of deliveries.
//!
//! * `metered` — the one-pass workload with an enabled metrics registry
//!   attached (`on/<n>`) vs its unmetered twin (`off/<n>`), timed
//!   back-to-back: prices the observability layer itself. CI gates `on`
//!   at ≤3% over `off` at n = 4096 (`BENCH_0007.json`).
//!
//! Run with `CRITERION_SNAPSHOT=out.jsonl` to dump machine-readable
//! measurements; `BENCH_0003.json` in the repo root is the checked-in
//! trajectory for the event loop (pre- and post-incremental-index).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ringleader_automata::Word;
use ringleader_core::{BidirMeetInMiddle, DfaOnePass, StatelessTwoPass};
use ringleader_langs::{DfaLanguage, Language};
use ringleader_sim::{RingRunner, RunPhase};

const SIZES: [usize; 3] = [64, 512, 4096];

fn word_for(lang: &dyn Language, n: usize, seed: u64) -> Word {
    let mut rng = StdRng::seed_from_u64(seed);
    lang.positive_example(n, &mut rng)
        .or_else(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            lang.negative_example(n, &mut rng)
        })
        .expect("language has examples at bench sizes")
}

/// Unidirectional one-pass run: n deliveries, one message in flight.
fn bench_one_pass(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let mut group = c.benchmark_group("engine_hot_loop/one_pass");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// Bidirectional meet-in-the-middle: probes collide, two active links.
fn bench_bidir_collision(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(ab)*", &sigma).unwrap();
    let proto = BidirMeetInMiddle::new(&lang);
    let mut group = c.benchmark_group("engine_hot_loop/bidir_collision");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// Stateless replay (Theorem 3 stage 1): two passes, replayed payloads.
fn bench_quadratic_stateless(c: &mut Criterion) {
    let proto = StatelessTwoPass::new(3);
    let lang = proto.language().clone();
    let mut group = c.benchmark_group("engine_hot_loop/quadratic_stateless");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &word, |b, w| {
            b.iter(|| RingRunner::new().run(&proto, w).unwrap());
        });
    }
    group.finish();
}

/// A minimal multi-lap token relay for the checkpoint bench: the leader
/// circulates one 8-bit frame `laps` times around the ring. Unlike the
/// one-pass protocols above it decouples delivery count from ring size
/// (n·laps deliveries on an n-ring), which is the regime checkpointing
/// targets: a snapshot costs O(n), so its amortized overhead at a fixed
/// delivery cadence depends on how many deliveries one ring-sweep buys.
struct LapRelay {
    laps: u32,
}

struct LapLeader {
    remaining: u32,
}

struct LapFollower;

impl ringleader_sim::Process for LapLeader {
    fn on_start(&mut self, ctx: &mut ringleader_sim::Context) -> ringleader_sim::ProcessResult {
        let frame = {
            let mut w = ringleader_bitio::BitWriter::new();
            w.write_bits(0xA5, 8);
            w.finish()
        };
        ctx.send(ringleader_sim::Direction::Clockwise, frame);
        Ok(())
    }

    fn on_message(
        &mut self,
        _d: ringleader_sim::Direction,
        msg: &ringleader_bitio::BitString,
        ctx: &mut ringleader_sim::Context,
    ) -> ringleader_sim::ProcessResult {
        self.remaining -= 1;
        if self.remaining == 0 {
            ctx.decide(true);
        } else {
            ctx.send(ringleader_sim::Direction::Clockwise, msg.clone());
        }
        Ok(())
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.remaining.to_le_bytes().to_vec())
    }

    fn load_state(&mut self, bytes: &[u8]) -> ringleader_sim::ProcessResult {
        let arr: [u8; 4] = bytes.try_into().map_err(|_| {
            ringleader_sim::ProcessError::InvalidState("lap counter is four bytes".into())
        })?;
        self.remaining = u32::from_le_bytes(arr);
        Ok(())
    }
}

impl ringleader_sim::Process for LapFollower {
    fn on_message(
        &mut self,
        _d: ringleader_sim::Direction,
        msg: &ringleader_bitio::BitString,
        ctx: &mut ringleader_sim::Context,
    ) -> ringleader_sim::ProcessResult {
        ctx.send(ringleader_sim::Direction::Clockwise, msg.clone());
        Ok(())
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn load_state(&mut self, _bytes: &[u8]) -> ringleader_sim::ProcessResult {
        Ok(())
    }
}

impl ringleader_sim::Protocol for LapRelay {
    fn name(&self) -> &'static str {
        "lap-relay"
    }

    fn topology(&self) -> ringleader_sim::Topology {
        ringleader_sim::Topology::Unidirectional
    }

    fn leader(&self, _input: ringleader_automata::Symbol) -> Box<dyn ringleader_sim::Process> {
        Box::new(LapLeader { remaining: self.laps })
    }

    fn follower(&self, _input: ringleader_automata::Symbol) -> Box<dyn ringleader_sim::Process> {
        Box::new(LapFollower)
    }
}

/// Checkpoint overhead: 2¹⁸ deliveries (laps × n held constant) run
/// uninterrupted vs paused/resumed at a 2¹⁶-delivery cadence (the
/// budgeted production setting — 3 snapshots) and at an aggressive 2¹⁴
/// cadence (15 snapshots) that makes the per-snapshot capture+restore
/// cost visible. Each pause serializes every process and link queue;
/// each resume rebuilds them — so this prices the whole crash-safety
/// round trip, not just the capture. One snapshot cycle costs O(n), so
/// the overhead at a fixed cadence scales with ring size: the two ring
/// sizes here bracket the ≤5% budget (met at n = 1024, where a cadence
/// window covers 64 ring-sweeps; ~2× over at n = 4096, where it covers
/// 16). `BENCH_0005.json` is the checked-in snapshot.
fn bench_checkpointed(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("a").unwrap();
    let mut group = c.benchmark_group("engine_hot_loop/checkpointed");
    group.sample_size(10);
    for (n, laps) in [(1024usize, 256u32), (4096, 64)] {
        let proto = LapRelay { laps };
        let word = Word::from_str(&"a".repeat(n), &sigma).unwrap();
        group.bench_function(format!("plain/{n}"), |b| {
            b.iter(|| RingRunner::new().run(&proto, &word).unwrap());
        });
        for cadence_log2 in [16u32, 14] {
            let cadence = 1usize << cadence_log2;
            group.bench_function(format!("every_2^{cadence_log2}/{n}"), |b| {
                b.iter(|| {
                    let runner = RingRunner::new();
                    let mut pause = cadence;
                    let mut phase = runner.run_until(&proto, &word, pause).unwrap();
                    loop {
                        match phase {
                            RunPhase::Done(outcome) => break outcome,
                            RunPhase::Paused(snap) => {
                                pause += cadence;
                                phase = runner.resume_until(&proto, &word, &snap, pause).unwrap();
                            }
                        }
                    }
                });
            });
        }
    }
    group.finish();
}

/// Metrics overhead: the one-pass workload with an enabled
/// `ringleader_obs::Metrics` registry attached, measured against its own
/// unmetered twin (`off/<n>` vs `on/<n>`, timed back-to-back so machine
/// drift between bench groups cancels out). The serial engine only
/// touches the registry once per run (one counter flush at the Done
/// transition), so the metered run must track the twin within a few
/// percent — CI's perf-smoke gate enforces ≤3% at n = 4096, the bound
/// that justifies calling the layer zero-cost-when-disabled *and*
/// cheap-when-enabled. `BENCH_0007.json` is the checked-in snapshot.
fn bench_metered(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let mut group = c.benchmark_group("engine_hot_loop/metered");
    for n in SIZES {
        let word = word_for(&lang, n, 0xE0);
        group.bench_with_input(BenchmarkId::new("off", n), &word, |b, w| {
            b.iter(|| {
                let mut runner = RingRunner::new();
                runner.metrics(ringleader_obs::Metrics::disabled());
                runner.run(&proto, w).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("on", n), &word, |b, w| {
            let metrics = ringleader_obs::Metrics::enabled();
            b.iter(|| {
                let mut runner = RingRunner::new();
                runner.metrics(metrics.clone());
                runner.run(&proto, w).unwrap()
            });
        });
    }
    group.finish();
}

/// Bounded-trace cost: the one-pass workload untraced vs ring-traced
/// (capacity 1024) vs fully traced. The ring's push is O(1) with a
/// fixed-size buffer, so it must track the untraced run within a few
/// percent while the full trace pays O(events) retention — the reason
/// `large`/`massive` profiles get a tail at all.
fn bench_trace_ring(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let n = 4096usize;
    let word = word_for(&lang, n, 0xE0);
    let mut group = c.benchmark_group("engine_hot_loop/trace");
    group.bench_function("untraced", |b| {
        b.iter(|| RingRunner::new().run(&proto, &word).unwrap());
    });
    group.bench_function("ring_1024", |b| {
        b.iter(|| {
            let mut runner = RingRunner::new();
            runner.trace_ring(1024);
            runner.run(&proto, &word).unwrap()
        });
    });
    group.bench_function("full", |b| {
        b.iter(|| {
            let mut runner = RingRunner::new();
            runner.record_trace(true);
            runner.run(&proto, &word).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    engine_hot_loop,
    bench_one_pass,
    bench_bidir_collision,
    bench_quadratic_stateless,
    bench_checkpointed,
    bench_metered,
    bench_trace_ring
);
criterion_main!(engine_hot_loop);
