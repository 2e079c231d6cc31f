//! Metrics-equivalence suite: attaching an enabled
//! [`ringleader_obs::Metrics`] registry must never change a single
//! observable byte — decision, every [`ExecStats`] field, and the full
//! event trace — across the serial event loop, the threaded runner, and
//! every scheduling policy. The registry itself must still fill with
//! real telemetry: engine counters and gauges.
//!
//! This is the load-bearing contract of the observability layer:
//! telemetry is write-only from the engines' perspective (enforced
//! statically by detlint's `obs-boundary` rule) and zero-cost enough to
//! leave the schedule alone (enforced dynamically here).

use proptest::prelude::*;
use ringleader_automata::{Alphabet, Symbol, Word};
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_obs::{Metrics, RunReport, REPORT_VERSION};
use ringleader_sim::{
    Context, Direction, Outcome, Process, ProcessError, ProcessResult, Protocol, RingRunner,
    Scheduler, ThreadedRunner, Topology,
};

fn word(n: usize) -> Word {
    Word::from_str(&"a".repeat(n), &Alphabet::from_chars("a").unwrap()).unwrap()
}

fn schedulers() -> [Scheduler; 3] {
    [Scheduler::Fifo, Scheduler::LongestQueue, Scheduler::Random { seed: 0xC0FFEE }]
}

// ---------------------------------------------------------------------------
// A stateful storm protocol: several messages in flight so the
// scheduling policy matters, per-process state stamped into payloads so
// any disturbance shows in the bytes.
// ---------------------------------------------------------------------------

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
}

struct StormFollower {
    seen: u64,
}

impl Process for StormFollower {
    fn on_message(&mut self, dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let (lap, _stamp) = decode(msg)?;
        self.seen += 1;
        ctx.send(dir, encode(lap, self.seen));
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

/// A unidirectional one-pass (deterministic on real threads too).
struct OnePassToken;

impl Protocol for OnePassToken {
    fn name(&self) -> &'static str {
        "one-pass-token"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, _input: Symbol) -> Box<dyn Process> {
        struct L;
        impl Process for L {
            fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                ctx.send(Direction::Clockwise, encode(0, 0));
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
        struct F;
        impl Process for F {
            fn on_message(
                &mut self,
                dir: Direction,
                msg: &BitString,
                ctx: &mut Context,
            ) -> ProcessResult {
                ctx.send(dir, msg.clone());
                Ok(())
            }
        }
        Box::new(F)
    }
}

fn assert_outcomes_identical(a: &Outcome, b: &Outcome, label: &str) {
    assert_eq!(a.decision, b.decision, "{label}: decision");
    assert_eq!(a.stats, b.stats, "{label}: stats");
    assert_eq!(a.trace, b.trace, "{label}: trace");
}

fn runner(scheduler: &Scheduler, metrics: Option<Metrics>) -> RingRunner {
    let mut r = RingRunner::new();
    r.scheduler(scheduler.clone()).record_trace(true);
    if let Some(m) = metrics {
        r.metrics(m);
    }
    r
}

// ---------------------------------------------------------------------------
// Equivalence: metrics on vs. off is byte-identical.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every policy: an enabled registry must not perturb decision,
    /// stats, or a single trace event.
    #[test]
    fn metered_runs_are_byte_identical_to_unmetered(
        n in 2usize..20,
        burst in 1usize..4,
        laps in 1u64..4,
        scheduler_pick in 0usize..3,
    ) {
        let proto = StatefulStorm { burst, laps };
        let w = word(n);
        let scheduler = schedulers()[scheduler_pick].clone();
        let label = format!("{scheduler:?} n={n}");
        let plain = runner(&scheduler, None).run(&proto, &w).unwrap();
        let metrics = Metrics::enabled();
        let metered = runner(&scheduler, Some(metrics.clone())).run(&proto, &w).unwrap();
        assert_outcomes_identical(&plain, &metered, &label);
        // And the registry really recorded the run it watched.
        let report = metrics.run_report();
        prop_assert_eq!(
            report.counters.get("engine.deliveries").copied().unwrap_or(0),
            plain.stats.deliveries as u64
        );
        prop_assert_eq!(
            report.counters.get("engine.bits_sent").copied().unwrap_or(0),
            plain.stats.total_bits as u64
        );
    }
}

#[test]
fn metered_threaded_runs_match_unmetered() {
    for n in [1usize, 2, 5, 16] {
        let plain = ThreadedRunner::new().run(&OnePassToken, &word(n)).unwrap();
        let metrics = Metrics::enabled();
        let mut metered_runner = ThreadedRunner::new();
        metered_runner.metrics(metrics.clone());
        let metered = metered_runner.run(&OnePassToken, &word(n)).unwrap();
        assert_eq!(plain, metered, "n={n}");
        assert_eq!(metrics.counter_value("threaded.bits_sent"), plain.total_bits as u64);
        assert_eq!(metrics.counter_value("threaded.messages"), plain.message_count as u64);
    }
}

// ---------------------------------------------------------------------------
// Content: the registry fills with real telemetry.
// ---------------------------------------------------------------------------

#[test]
fn run_report_carries_engine_telemetry() {
    let metrics = Metrics::enabled();
    let proto = StatefulStorm { burst: 3, laps: 4 };
    let out = runner(&Scheduler::Fifo, Some(metrics.clone())).run(&proto, &word(64)).unwrap();
    assert!(out.decision.unwrap_or(false));

    let report = metrics.run_report();
    assert_eq!(report.version, REPORT_VERSION);
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("engine.deliveries"), out.stats.deliveries as u64);
    assert_eq!(counter("engine.scheduler_picks"), out.stats.deliveries as u64);
    assert_eq!(counter("engine.messages"), out.stats.message_count as u64);
    assert_eq!(counter("engine.bits_sent"), out.stats.total_bits as u64);
    assert_eq!(
        report.gauges.get("engine.max_message_bits").copied(),
        Some(out.stats.max_message_bits as u64)
    );

    // A plain run records exactly the engine's flush, nothing else.
    let counters: Vec<&str> = report.counters.keys().map(String::as_str).collect();
    assert_eq!(
        counters,
        ["engine.bits_sent", "engine.deliveries", "engine.messages", "engine.scheduler_picks"]
    );
    let gauges: Vec<&str> = report.gauges.keys().map(String::as_str).collect();
    assert_eq!(gauges, ["engine.bit_rounds", "engine.max_message_bits"]);
    assert!(report.timings.is_empty(), "{report:?}");

    // The report round-trips through its JSON wire format.
    let parsed = RunReport::from_json(&report.to_json_pretty()).expect("round-trip");
    assert_eq!(parsed, report);
}

#[test]
fn one_registry_accumulates_across_runs_and_engines() {
    let metrics = Metrics::enabled();
    let proto = StatefulStorm { burst: 2, laps: 2 };
    let first = runner(&Scheduler::Fifo, Some(metrics.clone())).run(&proto, &word(8)).unwrap();
    let second = runner(&Scheduler::Fifo, Some(metrics.clone())).run(&proto, &word(12)).unwrap();
    let mut threaded = ThreadedRunner::new();
    threaded.metrics(metrics.clone());
    let third = threaded.run(&OnePassToken, &word(5)).unwrap();
    assert_eq!(
        metrics.counter_value("engine.deliveries"),
        (first.stats.deliveries + second.stats.deliveries) as u64,
        "counters accumulate across runs sharing the registry"
    );
    assert_eq!(metrics.counter_value("threaded.messages"), third.message_count as u64);
}
