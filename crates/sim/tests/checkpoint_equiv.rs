//! Checkpoint/restore equivalence: `run → snapshot at event k → restore
//! → finish` must be **byte-identical** — trace, stats, and exact error
//! positions — to an uninterrupted run, for every scheduling policy,
//! including snapshots taken mid-fault-plan; the threaded runner resumes
//! event-engine snapshots with the same decision and bit totals.

use proptest::prelude::*;
use ringleader_automata::{Alphabet, Symbol, Word};
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_sim::{
    Context, Corruption, Direction, Fault, FaultAction, FaultPlan, Outcome, Process, ProcessError,
    ProcessResult, Protocol, RingRunner, RunPhase, Scheduler, SimError, ThreadedRunner, Topology,
};

fn word(n: usize) -> Word {
    Word::from_str(&"a".repeat(n), &Alphabet::from_chars("a").unwrap()).unwrap()
}

fn schedulers() -> [Scheduler; 3] {
    [Scheduler::Fifo, Scheduler::LongestQueue, Scheduler::Random { seed: 0xC0FFEE }]
}

// ---------------------------------------------------------------------------
// A genuinely stateful protocol: observables depend on per-process
// mutable state, so a restore that loses or corrupts state cannot stay
// byte-identical.
// ---------------------------------------------------------------------------

/// `burst` tokens circulate the bidirectional ring (half clockwise, half
/// counter-clockwise, so several messages are in flight and the
/// scheduling policy matters). Every follower counts its deliveries and
/// stamps the *current count* into each forwarded payload — wire traffic
/// is a function of process state. The leader decides once every token
/// has come home `laps` times.
#[derive(Clone)]
struct StatefulStorm {
    burst: usize,
    laps: u64,
}

fn encode(lap: u64, stamp: u64) -> BitString {
    let mut w = BitWriter::new();
    w.write_elias_delta(lap + 1);
    w.write_elias_delta(stamp + 1);
    w.finish()
}

fn decode(msg: &BitString) -> Result<(u64, u64), ProcessError> {
    let mut r = BitReader::new(msg);
    let lap = r.read_elias_delta()? - 1;
    let stamp = r.read_elias_delta()? - 1;
    Ok((lap, stamp))
}

struct StormLeader {
    laps: u64,
    burst: usize,
    returned: u64,
}

impl Process for StormLeader {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        for i in 0..self.burst {
            let dir = if i % 2 == 0 { Direction::Clockwise } else { Direction::CounterClockwise };
            ctx.send(dir, encode(0, 0));
        }
        Ok(())
    }

    fn on_message(&mut self, dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let (lap, _stamp) = decode(msg)?;
        if lap + 1 >= self.laps {
            self.returned += 1;
            if self.returned == self.burst as u64 {
                ctx.decide(true);
            }
        } else {
            ctx.send(dir, encode(lap + 1, self.returned));
        }
        Ok(())
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.returned.to_le_bytes().to_vec())
    }

    fn load_state(&mut self, bytes: &[u8]) -> ProcessResult {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| ProcessError::InvalidState("leader state is 8 bytes".into()))?;
        self.returned = u64::from_le_bytes(arr);
        Ok(())
    }
}

struct StormFollower {
    seen: u64,
}

impl Process for StormFollower {
    fn on_message(&mut self, dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let (lap, _stamp) = decode(msg)?;
        self.seen += 1;
        // The stamp makes the payload width depend on process state:
        // losing `seen` across a restore changes the bits on the wire.
        ctx.send(dir, encode(lap, self.seen));
        Ok(())
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(self.seen.to_le_bytes().to_vec())
    }

    fn load_state(&mut self, bytes: &[u8]) -> ProcessResult {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| ProcessError::InvalidState("follower state is 8 bytes".into()))?;
        self.seen = u64::from_le_bytes(arr);
        Ok(())
    }
}

impl Protocol for StatefulStorm {
    fn name(&self) -> &'static str {
        "stateful-storm"
    }

    fn topology(&self) -> Topology {
        Topology::Bidirectional
    }

    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(StormLeader { laps: self.laps, burst: self.burst, returned: 0 })
    }

    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(StormFollower { seen: 0 })
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn assert_outcomes_identical(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(a.decision, b.decision, "{label}: decision");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.trace, b.trace, "{label}: trace");
    assert_eq!(a.trace_ring, b.trace_ring, "{label}: trace ring");
}

/// Baseline run, then pause at `k` on `capture` and finish on `resume`;
/// the stitched run must match the baseline byte for byte. Returns
/// whether the run actually paused (small runs may finish first).
fn assert_kill_resume_identical(
    capture: &RingRunner,
    resume: &RingRunner,
    baseline: &Outcome,
    proto: &StatefulStorm,
    w: &Word,
    k: usize,
    label: &str,
) -> bool {
    match capture.run_until(proto, w, k).expect("pause point is reachable") {
        RunPhase::Done(outcome) => {
            assert_outcomes_identical(&outcome, baseline, label);
            false
        }
        RunPhase::Paused(snap) => {
            assert!(snap.deliveries() >= k, "{label}");
            let resumed = resume.resume(proto, w, &snap).expect("resume completes");
            assert_outcomes_identical(&resumed, baseline, label);
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial capture → serial resume, across every scheduling policy
    /// and a random pause point.
    #[test]
    fn serial_snapshot_restore_is_byte_identical(
        n in 2usize..16,
        burst in 1usize..4,
        laps in 1u64..4,
        k in 0usize..80,
        scheduler_pick in 0usize..3,
    ) {
        let proto = StatefulStorm { burst, laps };
        let w = word(n);
        let scheduler = schedulers()[scheduler_pick].clone();
        let mut runner = RingRunner::new();
        runner.scheduler(scheduler).record_trace(true);
        let baseline = runner.run(&proto, &w).unwrap();
        assert_kill_resume_identical(&runner, &runner, &baseline, &proto, &w, k, "serial");
    }

    /// Repeated pause/resume — checkpoint every `step` deliveries until
    /// done — matches one uninterrupted run, and snapshots survive a
    /// serde round trip between legs.
    #[test]
    fn chained_checkpoints_are_transparent(
        n in 2usize..12,
        step in 1usize..9,
        scheduler_pick in 0usize..3,
    ) {
        let proto = StatefulStorm { burst: 3, laps: 2 };
        let w = word(n);
        let scheduler = schedulers()[scheduler_pick].clone();
        let mut runner = RingRunner::new();
        runner.scheduler(scheduler).record_trace(true);
        let baseline = runner.run(&proto, &w).unwrap();

        let mut at = step;
        let mut phase = runner.run_until(&proto, &w, at).unwrap();
        while let RunPhase::Paused(snap) = phase {
            // Serialize/deserialize between legs, as the CLI would.
            let content = serde::Serialize::to_content(&*snap);
            let snap = serde::Deserialize::from_content(&content).unwrap();
            at += step;
            phase = runner.resume_until(&proto, &w, &snap, at).unwrap();
        }
        let outcome = phase.outcome().expect("loop ends when done");
        assert_outcomes_identical(&outcome, &baseline, "chained");
    }
}

// ---------------------------------------------------------------------------
// Error runs: the pause must not move, mask, or duplicate failures.
// ---------------------------------------------------------------------------

/// A fault plan that corrupts a late delivery: snapshotting *before* the
/// fault fires and resuming (re-supplying the plan) must produce the
/// exact same error at the exact same position as the uninterrupted run.
#[test]
fn snapshot_mid_fault_plan_reproduces_the_exact_error() {
    let proto = StatefulStorm { burst: 2, laps: 3 };
    let w = word(8);
    let position = 5;
    let mut plan = FaultPlan::new();
    plan.push(Fault {
        position,
        delivery: 4,
        recurring: false,
        action: FaultAction::Corrupt(Corruption::Zero),
    });

    for scheduler in schedulers() {
        let mut runner = RingRunner::new();
        runner.scheduler(scheduler).record_trace(true).fault_plan(plan.clone());
        let baseline = runner.run(&proto, &w).expect_err("corruption kills the run");
        let SimError::Process { position: base_pos, source: base_src } = &baseline else {
            panic!("expected a process error, got {baseline:?}");
        };
        assert_eq!(*base_pos, position);

        // Pause well before the fault fires, then resume with the plan
        // re-supplied.
        for k in [1usize, 6, 11] {
            match runner.run_until(&proto, &w, k) {
                Ok(RunPhase::Paused(snap)) => {
                    let err = runner.resume(&proto, &w, &snap).expect_err("fault still fires");
                    let SimError::Process { position: pos, source: src } = &err else {
                        panic!("expected a process error, got {err:?}");
                    };
                    assert_eq!(pos, base_pos, "k={k}");
                    assert_eq!(src, base_src, "k={k}");
                }
                Ok(RunPhase::Done(_)) => panic!("the faulty run cannot finish"),
                Err(err) => {
                    // The pause point may land after the fault fires.
                    assert_eq!(err, baseline, "k={k}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded runner: restore-only.
// ---------------------------------------------------------------------------

/// Single-token variant: with one message in flight at a time the bit
/// totals are schedule-independent, which the threaded runner (whose
/// schedule belongs to the OS) requires to match the event engine.
#[derive(Clone)]
struct StatefulRelay {
    laps: u64,
}

impl Protocol for StatefulRelay {
    fn name(&self) -> &'static str {
        "stateful-relay"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(StormLeader { laps: self.laps, burst: 1, returned: 0 })
    }

    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(StormFollower { seen: 0 })
    }
}

#[test]
fn threaded_resume_matches_event_engine_observables() {
    let proto = StatefulRelay { laps: 3 };
    let w = word(6);
    let runner = RingRunner::new();
    let baseline = runner.run(&proto, &w).unwrap();

    for k in [1usize, 4, 9] {
        let Some(snap) = runner.run_until(&proto, &w, k).unwrap().snapshot() else {
            continue;
        };
        let threaded = ThreadedRunner::new().resume(&proto, &w, &snap).unwrap();
        assert_eq!(Some(threaded.decision), baseline.decision, "k={k}");
        assert_eq!(threaded.total_bits, baseline.stats.total_bits, "k={k}");
        assert_eq!(threaded.message_count, baseline.stats.message_count, "k={k}");
    }
}

#[test]
fn threaded_resume_rejects_a_mismatched_snapshot() {
    let proto = StatefulStorm { burst: 2, laps: 2 };
    let snap = RingRunner::new()
        .run_until(&proto, &word(6), 3)
        .unwrap()
        .snapshot()
        .expect("storm runs longer than 3 deliveries");
    let err = ThreadedRunner::new().resume(&proto, &word(7), &snap).unwrap_err();
    assert!(matches!(err, SimError::Snapshot { .. }), "{err:?}");
}

// ---------------------------------------------------------------------------
// Trace rings ride through checkpoints too.
// ---------------------------------------------------------------------------

#[test]
fn trace_ring_survives_checkpoints_and_matches_the_trace_tail() {
    let proto = StatefulStorm { burst: 3, laps: 2 };
    let w = word(8);
    let capacity = 16;

    let mut full = RingRunner::new();
    full.record_trace(true);
    let baseline = full.run(&proto, &w).unwrap();
    let trace = baseline.trace.as_ref().unwrap();

    let mut ringed = RingRunner::new();
    ringed.trace_ring(capacity);
    let direct = ringed.run(&proto, &w).unwrap();

    // Interrupted run with the same ring: identical ring contents.
    let stitched = match ringed.run_until(&proto, &w, 7).unwrap() {
        RunPhase::Done(o) => o,
        RunPhase::Paused(snap) => ringed.resume(&proto, &w, &snap).unwrap(),
    };
    assert_eq!(direct.trace_ring, stitched.trace_ring);

    // The ring holds exactly the tail of the full trace.
    let ring = direct.trace_ring.as_ref().unwrap();
    let tail: Vec<_> = trace.events().iter().rev().take(capacity).rev().collect();
    assert_eq!(ring.tail(capacity), tail);
    assert_eq!(ring.dropped() as usize, trace.events().len().saturating_sub(capacity));
}

// ---------------------------------------------------------------------------
// Capture preconditions.
// ---------------------------------------------------------------------------

#[test]
fn capture_requires_save_state() {
    /// A protocol that never implements `save_state`.
    struct Opaque;
    struct Hop;
    impl Process for Hop {
        fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
            ctx.send(Direction::Clockwise, BitString::parse("1").unwrap());
            Ok(())
        }
        fn on_message(
            &mut self,
            dir: Direction,
            msg: &BitString,
            ctx: &mut Context,
        ) -> ProcessResult {
            if ctx.is_leader() {
                ctx.decide(true);
            } else {
                let mut w = BitWriter::new();
                for _ in 0..=msg.len() {
                    w.write_bit(true);
                }
                ctx.send(dir, w.finish());
            }
            Ok(())
        }
    }
    impl Protocol for Opaque {
        fn name(&self) -> &'static str {
            "opaque"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Hop)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Hop)
        }
    }

    let runner = RingRunner::new();
    // Plain runs don't need save_state...
    assert!(runner.run(&Opaque, &word(4)).is_ok());
    // ...but capture does.
    let err = runner.run_until(&Opaque, &word(4), 1).unwrap_err();
    assert!(matches!(err, SimError::Snapshot { .. }), "{err:?}");
    assert!(err.to_string().contains("save_state"), "{err}");
}
