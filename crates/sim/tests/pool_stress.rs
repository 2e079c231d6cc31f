//! Stress/soak rig for the sweep thread pool — heavily oversubscribed
//! worker counts, hundreds of grid points, and deliberate mid-run
//! panics. Ignored by default (it exists to shake out races, not to
//! gate every `cargo test`); the CI soak job runs it via
//! `cargo test -- --include-ignored`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ringleader_automata::{Alphabet, Symbol, Word};
use ringleader_bitio::BitString;
use ringleader_sim::pool::ordered_map;
use ringleader_sim::{Context, Direction, Process, ProcessResult, Protocol, RingRunner, Topology};

/// Minimal one-token protocol: leader sends one marked bit string around
/// the ring, accepts when it returns. Total bits = payload × n hops.
struct Loop;

struct Fwd;
impl Process for Fwd {
    fn on_message(&mut self, d: Direction, m: &BitString, ctx: &mut Context) -> ProcessResult {
        ctx.send(d, m.clone());
        Ok(())
    }
}

impl Protocol for Loop {
    fn name(&self) -> &'static str {
        "loop"
    }
    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }
    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        struct L;
        impl Process for L {
            fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                ctx.send(Direction::Clockwise, BitString::parse("1011").unwrap());
                Ok(())
            }
            fn on_message(
                &mut self,
                _d: Direction,
                _m: &BitString,
                ctx: &mut Context,
            ) -> ProcessResult {
                ctx.decide(true);
                Ok(())
            }
        }
        Box::new(L)
    }
    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(Fwd)
    }
}

fn ring(n: usize) -> Word {
    Word::from_str(&"a".repeat(n), &Alphabet::from_chars("a").unwrap()).unwrap()
}

/// 64 workers over 500 tiny grid points: every result arrives, in input
/// order, with the exact value the serial loop would compute — massive
/// oversubscription (64 threads on however few cores CI has) must not
/// lose, duplicate, or reorder work.
#[test]
#[ignore = "soak rig; run with --include-ignored"]
fn soak_64_workers_sweep_500_points_without_losing_results() {
    let points: Vec<usize> = (0..500).map(|i| i % 13 + 1).collect();
    let expected: Vec<usize> = points.iter().map(|&n| 4 * n).collect();
    let results = ordered_map(64, points, |_, n| {
        let outcome = RingRunner::new().run(&Loop, &ring(n)).unwrap();
        assert_eq!(outcome.decision, Some(true));
        outcome.stats.total_bits
    });
    assert_eq!(results, expected, "lost, duplicated, or reordered grid results");
}

/// A worker that panics mid-run must not deadlock the map or strand
/// results: every non-panicking point still completes, the earliest
/// panic (in grid order) reaches the caller, and the machinery shuts
/// down cleanly enough to run the whole thing again immediately.
#[test]
#[ignore = "soak rig; run with --include-ignored"]
fn soak_worker_panic_mid_run_shuts_down_cleanly() {
    for round in 0..3 {
        let completed = Arc::new(AtomicUsize::new(0));
        let completed_inner = Arc::clone(&completed);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            ordered_map(64, (0..500).collect::<Vec<usize>>(), |_, i| {
                assert!(i != 137, "injected failure at point 137");
                let outcome = RingRunner::new().run(&Loop, &ring(i % 13 + 1)).unwrap();
                completed_inner.fetch_add(1, Ordering::SeqCst);
                outcome.stats.total_bits
            })
        }));
        let payload = caught.expect_err("the injected panic must propagate");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_else(|| {
            payload.downcast_ref::<&str>().map(ToString::to_string).unwrap_or_default()
        });
        assert!(msg.contains("injected failure at point 137"), "round {round}: got {msg:?}");
        assert_eq!(
            completed.load(Ordering::SeqCst),
            499,
            "round {round}: panicking point must not strand other results"
        );
    }
}
