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
//! Two more groups price what a run can switch on:
//!
//! * `metered` — the one-pass workload with an enabled metrics registry
//!   attached (`on/<n>`) vs its unmetered twin (`off/<n>`), timed
//!   back-to-back: prices the observability layer itself. CI gates `on`
//!   at ≤3% over `off` at n = 4096 (`BENCH_0007.json`).
//! * `trace` — the one-pass workload at n = 4096, untraced vs fully
//!   traced: prices the full event [`Trace`](ringleader_sim::Trace).
//!
//! One group prices a layer below the engine:
//!
//! * `bitstring` — the [`BitString`] copies the quadratic tiers make on
//!   every hop, at the payload sizes `wide_payload` sends.
//!
//! Run with `CRITERION_SNAPSHOT=out.jsonl` to dump machine-readable
//! measurements; `BENCH_0003.json` in the repo root is the checked-in
//! trajectory for the event loop (pre- and post-incremental-index).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ringleader_automata::Word;
use ringleader_bitio::BitString;
use ringleader_core::{BidirMeetInMiddle, DfaOnePass, StatelessTwoPass};
use ringleader_langs::{DfaLanguage, Language};
use ringleader_sim::RingRunner;

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

/// Tracing cost: the one-pass workload untraced vs fully traced. The
/// full trace clones every payload and retains O(events) of them.
fn bench_trace(c: &mut Criterion) {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let proto = DfaOnePass::new(&lang);
    let n = 4096usize;
    let word = word_for(&lang, n, 0xE0);
    let mut group = c.benchmark_group("engine_hot_loop/trace");
    group.bench_function("untraced", |b| {
        b.iter(|| RingRunner::new().run(&proto, &word).unwrap());
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

/// `BitString` copy kernels at 1 536 and 2 048 bits (the `L_g` windows
/// of `wide_payload`) and 49 152 bits (its widest collect-all message):
/// an append onto an empty string (a forwarded collect-all prefix), an
/// append behind three header bits (a `wcw` prefix or `L_g` window being
/// re-encoded), and `slice(1..m)` (the window dropping its oldest letter).
fn bench_bitstring(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hot_loop/bitstring");
    for bits in [1536usize, 2048, 49_152] {
        let payload = BitString::from_bits((0..bits).map(|i| i % 3 == 0));
        group.bench_with_input(BenchmarkId::new("extend_aligned", bits), &payload, |b, p| {
            b.iter(|| {
                let mut s = BitString::new();
                s.extend_from(criterion::black_box(p));
                s
            });
        });
        group.bench_with_input(BenchmarkId::new("extend_unaligned", bits), &payload, |b, p| {
            b.iter(|| {
                let mut s = BitString::from_bits([true, false, true]);
                s.extend_from(criterion::black_box(p));
                s
            });
        });
        group.bench_with_input(BenchmarkId::new("slice", bits), &payload, |b, p| {
            b.iter(|| criterion::black_box(p).slice(1..bits));
        });
    }
    group.finish();
}

criterion_group!(
    engine_hot_loop,
    bench_one_pass,
    bench_bidir_collision,
    bench_quadratic_stateless,
    bench_metered,
    bench_trace,
    bench_bitstring
);
criterion_main!(engine_hot_loop);
