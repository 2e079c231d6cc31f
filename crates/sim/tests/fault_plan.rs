//! Fault plans make every [`SimError`] variant reachable **on demand**:
//! a deterministic, seeded schedule of injections replaces the ad-hoc
//! corrupting adapters the failure tests used to hand-roll. Each test
//! here drives one variant from a plain [`FaultPlan`] on [`RingRunner`],
//! the one engine that applies plans, and pins the failure down to the
//! exact position.

use ringleader_automata::{Alphabet, Symbol, Word};
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_sim::{
    Context, Corruption, Direction, Fault, FaultAction, FaultPlan, Process, ProcessResult,
    Protocol, RingRunner, Scheduler, SimError, Topology,
};

fn word(n: usize) -> Word {
    Word::from_str(&"a".repeat(n), &Alphabet::from_chars("a").unwrap()).unwrap()
}

/// A framed relay: the leader circulates one token `laps` times; every
/// payload is an Elias-delta frame, so any corruption that breaks the
/// framing surfaces as a decode error at the receiving position.
#[derive(Clone)]
struct FramedRelay {
    laps: u64,
}

struct RelayLeader {
    laps: u64,
}

struct RelayFollower;

fn frame(lap: u64) -> BitString {
    let mut w = BitWriter::new();
    w.write_elias_delta(lap + 1);
    w.finish()
}

fn unframe(msg: &BitString) -> Result<u64, ringleader_bitio::DecodeError> {
    Ok(BitReader::new(msg).read_elias_delta()? - 1)
}

impl Process for RelayLeader {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        ctx.send(Direction::Clockwise, frame(0));
        Ok(())
    }

    fn on_message(&mut self, _d: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let lap = unframe(msg)?;
        if lap + 1 >= self.laps {
            ctx.decide(true);
        } else {
            ctx.send(Direction::Clockwise, frame(lap + 1));
        }
        Ok(())
    }
}

impl Process for RelayFollower {
    fn on_message(&mut self, _d: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let lap = unframe(msg)?;
        ctx.send(Direction::Clockwise, frame(lap));
        Ok(())
    }
}

impl Protocol for FramedRelay {
    fn name(&self) -> &'static str {
        "framed-relay"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(RelayLeader { laps: self.laps })
    }

    fn follower(&self, _input: Symbol) -> Box<dyn Process> {
        Box::new(RelayFollower)
    }
}

fn one_shot(position: usize, delivery: u64, action: FaultAction) -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(Fault { position, delivery, recurring: false, action });
    plan
}

/// Runs the relay under `plan` and returns the error the fault caused.
fn run_faulted(plan: &FaultPlan) -> SimError {
    let mut runner = RingRunner::new();
    runner.fault_plan(plan.clone());
    runner.run(&FramedRelay { laps: 3 }, &word(6)).expect_err("fault must fire")
}

// ---------------------------------------------------------------------------
// One test per SimError variant.
// ---------------------------------------------------------------------------

#[test]
fn empty_ring_is_reachable() {
    assert!(matches!(
        RingRunner::new().run(&FramedRelay { laps: 1 }, &Word::new()),
        Err(SimError::EmptyRing)
    ));
}

#[test]
fn illegal_send_is_reachable_by_injection() {
    // Inject a counter-clockwise send at a follower of a unidirectional
    // protocol: the topology check rejects it at that exact position.
    let plan = one_shot(
        2,
        1,
        FaultAction::InjectSend { direction: Direction::CounterClockwise, payload: frame(0) },
    );
    assert_eq!(
        run_faulted(&plan),
        SimError::IllegalSend { position: 2, direction: Direction::CounterClockwise }
    );
}

#[test]
fn follower_decided_is_reachable_by_injection() {
    let plan = one_shot(3, 1, FaultAction::InjectDecide { accept: true });
    assert_eq!(run_faulted(&plan), SimError::FollowerDecided { position: 3 });
}

#[test]
fn stalled_is_reachable_by_stalling_the_token() {
    // Swallow the only in-flight message: traffic dries up having
    // delivered exactly 2 messages (positions 1 and 2).
    let plan = one_shot(2, 1, FaultAction::Stall);
    assert_eq!(run_faulted(&plan), SimError::Stalled { deliveries: 2 });
}

#[test]
fn process_error_is_reachable_by_corruption() {
    // Zeroing the frame starves the Elias-delta reader at the receiver.
    let plan = one_shot(4, 1, FaultAction::Corrupt(Corruption::Zero));
    let err = run_faulted(&plan);
    let SimError::Process { position: 4, .. } = err else {
        panic!("expected a decode failure at position 4, got {err:?}");
    };
}

#[test]
fn event_limit_is_reachable_by_flooding() {
    // A recurring injection at every leader delivery doubles the traffic
    // forever; a small budget trips deterministically.
    let mut plan = FaultPlan::new();
    plan.push(Fault {
        position: 1,
        delivery: 1,
        recurring: true,
        action: FaultAction::InjectSend { direction: Direction::Clockwise, payload: frame(0) },
    });
    let mut runner = RingRunner::new();
    runner.fault_plan(plan).max_events(40);
    let err = runner.run(&FramedRelay { laps: 100 }, &word(6)).unwrap_err();
    assert_eq!(err, SimError::EventLimitExceeded { limit: 40 });
}

// ---------------------------------------------------------------------------
// Plan semantics.
// ---------------------------------------------------------------------------

#[test]
fn delay_faults_do_not_change_observables() {
    let plan = one_shot(1, 1, FaultAction::Delay { micros: 500 });
    let proto = FramedRelay { laps: 2 };
    let clean = RingRunner::new().run(&proto, &word(5)).unwrap();
    let mut runner = RingRunner::new();
    runner.fault_plan(plan);
    let delayed = runner.run(&proto, &word(5)).unwrap();
    assert_eq!(delayed.decision, clean.decision);
    assert_eq!(delayed.stats, clean.stats);
}

#[test]
fn corruption_can_be_survivable() {
    // Flipping a bit past the end of the frame is a no-op; the run
    // completes with identical observables.
    let plan = one_shot(2, 1, FaultAction::Corrupt(Corruption::FlipBit(1000)));
    let proto = FramedRelay { laps: 2 };
    let clean = RingRunner::new().run(&proto, &word(5)).unwrap();
    let mut runner = RingRunner::new();
    runner.fault_plan(plan);
    let faulted = runner.run(&proto, &word(5)).unwrap();
    assert_eq!(faulted.decision, clean.decision);
    assert_eq!(faulted.stats, clean.stats);
}

#[test]
fn recurring_faults_fire_on_every_later_delivery() {
    // Stall every delivery at position 1 from the first onwards: the
    // token never gets past it, whichever lap it is on.
    let mut plan = FaultPlan::new();
    plan.push(Fault { position: 1, delivery: 1, recurring: true, action: FaultAction::Stall });
    assert_eq!(run_faulted(&plan), SimError::Stalled { deliveries: 1 });
}

#[test]
fn scattered_plans_are_deterministic_across_runs() {
    // A seeded scatter of one-shot truncations: the outcome is the same
    // run after run, on fresh runners.
    let plan = FaultPlan::scatter(0xFEED, 6, 12, 4);
    let proto = FramedRelay { laps: 4 };
    let mut serial = RingRunner::new();
    serial.fault_plan(plan.clone());
    let baseline = serial.run(&proto, &word(6));
    for _ in 0..3 {
        let mut runner = RingRunner::new();
        runner.fault_plan(plan.clone());
        assert_eq!(runner.run(&proto, &word(6)), baseline);
    }
}

#[test]
fn faults_key_on_per_position_deliveries_across_schedulers() {
    // The fault coordinate system is (position, nth delivery at that
    // position) — independent of global interleaving, so the same plan
    // fires identically under every scheduling policy.
    let plan = one_shot(3, 2, FaultAction::Corrupt(Corruption::Zero));
    for scheduler in [Scheduler::Fifo, Scheduler::LongestQueue, Scheduler::Random { seed: 7 }] {
        let mut runner = RingRunner::new();
        runner.scheduler(scheduler.clone()).fault_plan(plan.clone());
        let err = runner.run(&FramedRelay { laps: 3 }, &word(5)).unwrap_err();
        assert!(matches!(err, SimError::Process { position: 3, .. }), "{scheduler:?}: {err:?}");
    }
}
