//! Real-concurrency backend on OS threads and crossbeam channels.
//!
//! The discrete-event engine *models* asynchrony; this backend *is*
//! asynchronous: one OS thread per processor and whatever interleaving
//! the OS scheduler produces. For the deterministic protocols of the
//! paper the bit totals must agree exactly with the event engine —
//! experiment E12 checks that, closing the gap between "simulated" and
//! "actually concurrent" executions.
//!
//! Where the serial event loop fixes the schedule, this backend
//! surrenders it to the OS on purpose, as evidence the measured bit
//! counts never depended on it. It applies no fault plan.
//!
//! Every processor owns one unbounded inbox that both neighbours send
//! into, and a worker is a plain blocking `recv` loop over it. Only one
//! thread sends on each link, so each link stays FIFO, while arrivals on
//! the two links interleave however the threads run: the paper's model
//! (§2), and nothing more.
//!
//! Two control envelopes share the inbox. They carry no protocol bits
//! and are excluded from the accounting:
//!
//! * `Halt`: when the leader decides, it floods `Halt` clockwise; each
//!   processor forwards it and stops. It travels behind the data already
//!   on each clockwise link, so every worker handles what its
//!   predecessor sent before the flood.
//! * `Stop`: when the watchdog fires or a worker fails, `Stop` is queued
//!   in every inbox behind the data already there; each worker handles
//!   what is ahead of it and stops. Traffic sent later queues behind the
//!   `Stop` and is never delivered, so a ring with tokens still
//!   circulating shuts down in bounded work.
//!
//! The watchdog deadline lives in exactly one place — the coordinating
//! thread's `recv_timeout` on the decision channel — so a stuck protocol
//! aborts within one configured timeout, not timeout-plus-slack.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use ringleader_obs::Metrics;

use ringleader_automata::Word;
use ringleader_bitio::BitString;

use crate::context::{Context, Process, Protocol};
use crate::{Direction, SimError, Topology};

/// Outcome of a threaded run: the decision plus coarse bit accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadedOutcome {
    /// The leader's decision.
    pub decision: bool,
    /// Total protocol bits sent across all links.
    pub total_bits: usize,
    /// Total protocol messages sent.
    pub message_count: usize,
}

/// What arrives in a processor's inbox.
enum Envelope {
    /// A protocol message and the direction it travels.
    Data(Direction, BitString),
    /// The leader decided: forward clockwise, then stop.
    Halt,
    /// The watchdog fired or a worker failed: stop.
    Stop,
}

/// Queues `Stop` in every inbox, behind the data already there.
fn stop_all(inboxes: &[Sender<Envelope>]) {
    for inbox in inboxes {
        // A worker that has already stopped dropped its receiver; its
        // `Stop` has nobody to reach.
        let _ = inbox.send(Envelope::Stop);
    }
}

/// Runs protocols with one OS thread per processor.
///
/// Supports ring topologies (not [`Topology::Line`]) and terminates via a
/// halt flood once the leader decides. A watchdog timeout guards against
/// protocol deadlocks.
///
/// # Examples
///
/// See `tests/` in this module and the E12 experiment; usage mirrors
/// [`RingRunner`](crate::RingRunner) but with wall-clock concurrency.
#[derive(Debug, Clone)]
pub struct ThreadedRunner {
    timeout: Duration,
    known_ring_size: bool,
    metrics: Metrics,
}

impl Default for ThreadedRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedRunner {
    /// A runner with a 30-second watchdog and unknown ring size.
    #[must_use]
    pub fn new() -> Self {
        Self {
            timeout: Duration::from_secs(30),
            known_ring_size: false,
            metrics: Metrics::disabled(),
        }
    }

    /// Sets the watchdog timeout after which a stuck run aborts.
    pub fn timeout(&mut self, timeout: Duration) -> &mut Self {
        self.timeout = timeout;
        self
    }

    /// Switches the Note 7.4 known-`n` mode on.
    pub fn known_ring_size(&mut self, on: bool) -> &mut Self {
        self.known_ring_size = on;
        self
    }

    /// Attaches a metrics registry; a successful run flushes
    /// `threaded.bits_sent` and `threaded.messages` into it. The default
    /// disabled handle records nothing.
    pub fn metrics(&mut self, metrics: Metrics) -> &mut Self {
        self.metrics = metrics;
        self
    }

    /// Executes `protocol` on a ring of real threads labelled with `word`.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyRing`] for an empty word.
    /// * [`SimError::IllegalSend`] / [`SimError::FollowerDecided`] /
    ///   [`SimError::Process`] on protocol bugs.
    /// * [`SimError::Stalled`] if the watchdog fires before a decision.
    pub fn run(&self, protocol: &dyn Protocol, word: &Word) -> Result<ThreadedOutcome, SimError> {
        let n = word.len();
        if n == 0 {
            return Err(SimError::EmptyRing);
        }
        let topology = protocol.topology();

        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let inboxes: Arc<[Sender<Envelope>]> = inboxes.into();
        let total_bits = Arc::new(AtomicUsize::new(0));
        let message_count = Arc::new(AtomicUsize::new(0));
        let failure: Arc<Mutex<Option<SimError>>> = Arc::new(Mutex::new(None));
        let (decision_tx, decision_rx) = unbounded::<bool>();

        let known = self.known_ring_size.then_some(n);
        let mut handles = Vec::with_capacity(n);
        for (i, inbox) in receivers.into_iter().enumerate() {
            let process = if i == 0 {
                protocol.leader(word.get(0).expect("non-empty word"))
            } else {
                protocol.follower(word.get(i).expect("index < n"))
            };
            let worker = Worker {
                position: i,
                n,
                topology,
                known,
                process,
                inbox,
                inboxes: Arc::clone(&inboxes),
                total_bits: Arc::clone(&total_bits),
                message_count: Arc::clone(&message_count),
                failure: Arc::clone(&failure),
                decision_tx: decision_tx.clone(),
            };
            handles.push(thread::spawn(move || worker.run()));
        }
        drop(decision_tx);

        // The watchdog's single source of truth: if no decision arrives
        // within the timeout, the run is declared stuck. (Workers that
        // fail stop the ring, and once every worker has stopped the
        // dropped decision senders disconnect this channel at once.)
        let decision = decision_rx.recv_timeout(self.timeout);
        if decision.is_err() {
            // A decision needs no `Stop`: the halt flood retires the ring,
            // and a worker that fails mid-flood queues `Stop` itself.
            stop_all(&inboxes);
        }
        for h in handles {
            let _ = h.join();
        }
        if let Some(err) = failure.lock().take() {
            return Err(err);
        }
        match decision {
            Ok(d) => {
                let outcome = ThreadedOutcome {
                    decision: d,
                    total_bits: total_bits.load(Ordering::SeqCst),
                    message_count: message_count.load(Ordering::SeqCst),
                };
                self.metrics.counter_add("threaded.bits_sent", outcome.total_bits as u64);
                self.metrics.counter_add("threaded.messages", outcome.message_count as u64);
                Ok(outcome)
            }
            Err(_) => Err(SimError::Stalled { deliveries: message_count.load(Ordering::SeqCst) }),
        }
    }
}

struct Worker {
    position: usize,
    n: usize,
    topology: Topology,
    known: Option<usize>,
    process: Box<dyn Process>,
    inbox: Receiver<Envelope>,
    /// Every processor's inbox, by position: the links to both
    /// neighbours, and the targets of a `Stop` this worker queues.
    inboxes: Arc<[Sender<Envelope>]>,
    total_bits: Arc<AtomicUsize>,
    message_count: Arc<AtomicUsize>,
    failure: Arc<Mutex<Option<SimError>>>,
    decision_tx: Sender<bool>,
}

impl Worker {
    fn run(mut self) {
        if self.position == 0 {
            let mut ctx = Context::new(true, self.known);
            if let Err(source) = self.process.on_start(&mut ctx) {
                self.fail(SimError::Process { position: 0, source });
                return;
            }
            if self.apply(ctx) {
                return;
            }
        }
        // `inboxes` keeps a sender to this inbox alive, so `recv` only
        // returns messages; `Halt` or `Stop` ends the loop.
        while let Ok(envelope) = self.inbox.recv() {
            let (direction, payload) = match envelope {
                Envelope::Data(direction, payload) => (direction, payload),
                Envelope::Halt => {
                    // Flood onward clockwise until it returns to the leader.
                    if self.position != self.n - 1 {
                        self.send(Direction::Clockwise, Envelope::Halt);
                    }
                    return;
                }
                Envelope::Stop => return,
            };
            let mut ctx = Context::new(self.position == 0, self.known);
            if let Err(source) = self.process.on_message(direction, &payload, &mut ctx) {
                self.fail(SimError::Process { position: self.position, source });
                return;
            }
            if self.apply(ctx) {
                return;
            }
        }
    }

    /// Queues `envelope` in the inbox of the neighbour in `direction`.
    fn send(&self, direction: Direction, envelope: Envelope) {
        let to = match direction {
            Direction::Clockwise => (self.position + 1) % self.n,
            Direction::CounterClockwise => (self.position + self.n - 1) % self.n,
        };
        // A neighbour that has stopped dropped its receiver; what is sent
        // to it is counted but never delivered.
        let _ = self.inboxes[to].send(envelope);
    }

    /// Applies buffered effects; returns `true` if this worker is done.
    fn apply(&mut self, ctx: Context) -> bool {
        let (outbox, decision) = ctx.into_effects();
        if decision.is_some() && self.position != 0 {
            self.fail(SimError::FollowerDecided { position: self.position });
            return true;
        }
        for (direction, payload) in outbox {
            if !self.topology.allows(self.position, direction, self.n) {
                self.fail(SimError::IllegalSend { position: self.position, direction });
                return true;
            }
            self.total_bits.fetch_add(payload.len(), Ordering::SeqCst);
            self.message_count.fetch_add(1, Ordering::SeqCst);
            self.send(direction, Envelope::Data(direction, payload));
        }
        if let Some(d) = decision {
            let _ = self.decision_tx.send(d);
            // Start the halt flood (skip for n = 1, nobody else to stop).
            if self.n > 1 {
                self.send(Direction::Clockwise, Envelope::Halt);
            }
            return true;
        }
        false
    }

    /// Records `err` unless an earlier failure is recorded, then stops
    /// the ring.
    fn fail(&self, err: SimError) {
        self.failure.lock().get_or_insert(err);
        stop_all(&self.inboxes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ProcessError, ProcessResult};
    use ringleader_automata::{Alphabet, Symbol};
    use std::time::Instant;

    struct Forwarder;
    impl Process for Forwarder {
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

    struct RoundTrip;
    impl Protocol for RoundTrip {
        fn name(&self) -> &'static str {
            "round-trip"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            struct L;
            impl Process for L {
                fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                    ctx.send(Direction::Clockwise, BitString::parse("10101").unwrap());
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
            Box::new(Forwarder)
        }
    }

    fn word(n: usize) -> Word {
        Word::from_str(&"0".repeat(n), &Alphabet::binary()).unwrap()
    }

    #[test]
    fn threaded_round_trip_matches_event_engine() {
        for n in [1usize, 2, 5, 16] {
            let threaded = ThreadedRunner::new().run(&RoundTrip, &word(n)).unwrap();
            let event = crate::RingRunner::new().run(&RoundTrip, &word(n)).unwrap();
            assert!(threaded.decision, "n={n}");
            assert_eq!(threaded.total_bits, event.stats.total_bits, "n={n}");
            assert_eq!(threaded.message_count, event.stats.message_count, "n={n}");
        }
    }

    #[test]
    fn empty_ring_rejected() {
        assert!(matches!(
            ThreadedRunner::new().run(&RoundTrip, &Word::new()),
            Err(SimError::EmptyRing)
        ));
    }

    #[test]
    fn watchdog_catches_stalls() {
        struct Silent;
        impl Protocol for Silent {
            fn name(&self) -> &'static str {
                "silent"
            }
            fn topology(&self) -> Topology {
                Topology::Unidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        _c: &mut Context,
                    ) -> ProcessResult {
                        Ok(())
                    }
                }
                Box::new(L)
            }
            fn follower(&self, _input: Symbol) -> Box<dyn Process> {
                Box::new(Forwarder)
            }
        }
        let mut runner = ThreadedRunner::new();
        runner.timeout(Duration::from_millis(200));
        assert!(matches!(runner.run(&Silent, &word(3)), Err(SimError::Stalled { .. })));
    }

    #[test]
    fn watchdog_deadline_is_single_sourced() {
        // The deadline used to be counted twice: each worker armed its
        // own `timeout` clock *and* the coordinator waited `timeout + 1s`
        // on top, so a stuck run aborted only after roughly double the
        // configured budget. Now the coordinator's `recv_timeout` is the
        // only clock: a stuck protocol must abort within ~1× timeout
        // (plus scheduling slack), not 2× + 1s.
        struct Mute;
        impl Protocol for Mute {
            fn name(&self) -> &'static str {
                "mute"
            }
            fn topology(&self) -> Topology {
                Topology::Unidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        _c: &mut Context,
                    ) -> ProcessResult {
                        Ok(())
                    }
                }
                Box::new(L)
            }
            fn follower(&self, _input: Symbol) -> Box<dyn Process> {
                Box::new(Forwarder)
            }
        }
        let timeout = Duration::from_millis(300);
        let mut runner = ThreadedRunner::new();
        runner.timeout(timeout);
        let start = Instant::now();
        let err = runner.run(&Mute, &word(4)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, SimError::Stalled { .. }), "{err:?}");
        assert!(elapsed >= timeout, "aborted before the budget: {elapsed:?}");
        // Well under the old 2×timeout + 1s behaviour; generous slack
        // for thread teardown on a loaded single-core runner.
        assert!(elapsed < timeout * 3, "watchdog budget double-counted: {elapsed:?}");
    }

    /// The leader starts `tokens` one-bit tokens and never decides; every
    /// processor, the leader too, forwards each token clockwise, so the
    /// ring has traffic in flight whenever it is stopped. With `fail_on`
    /// set, a follower labelled `1` fails on that delivery. Each process
    /// counts itself into `dropped` when its thread ends.
    struct Storm {
        tokens: usize,
        fail_on: Option<usize>,
        dropped: Arc<AtomicUsize>,
    }

    struct StormProcess {
        tokens: usize,
        fail_on: Option<usize>,
        deliveries: usize,
        dropped: Arc<AtomicUsize>,
    }

    impl Drop for StormProcess {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Process for StormProcess {
        fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
            for _ in 0..self.tokens {
                ctx.send(Direction::Clockwise, BitString::parse("1").unwrap());
            }
            Ok(())
        }
        fn on_message(&mut self, d: Direction, m: &BitString, ctx: &mut Context) -> ProcessResult {
            self.deliveries += 1;
            if self.fail_on == Some(self.deliveries) {
                return Err(ProcessError::InvalidState("injected failure".into()));
            }
            ctx.send(d, m.clone());
            Ok(())
        }
    }

    impl Storm {
        fn new(tokens: usize, fail_on: Option<usize>) -> Self {
            Storm { tokens, fail_on, dropped: Arc::new(AtomicUsize::new(0)) }
        }
        fn process(&self, tokens: usize, fail_on: Option<usize>) -> Box<dyn Process> {
            let dropped = Arc::clone(&self.dropped);
            Box::new(StormProcess { tokens, fail_on, deliveries: 0, dropped })
        }
    }

    impl Protocol for Storm {
        fn name(&self) -> &'static str {
            "storm"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            self.process(self.tokens, None)
        }
        fn follower(&self, input: Symbol) -> Box<dyn Process> {
            self.process(0, self.fail_on.filter(|_| input == Symbol(1)))
        }
    }

    #[test]
    fn watchdog_stops_a_ring_with_tokens_in_flight() {
        let timeout = Duration::from_millis(200);
        for (n, tokens) in [(2, 1), (2, 64), (3, 256), (4, 1024)] {
            let storm = Storm::new(tokens, None);
            let mut runner = ThreadedRunner::new();
            runner.timeout(timeout);
            let start = Instant::now();
            let err = runner.run(&storm, &word(n)).unwrap_err();
            let elapsed = start.elapsed();
            assert!(matches!(err, SimError::Stalled { .. }), "n={n} k={tokens}: {err:?}");
            assert!(elapsed < timeout * 3, "n={n} k={tokens}: stopped after {elapsed:?}");
            assert_eq!(storm.dropped.load(Ordering::SeqCst), n, "n={n} k={tokens}");
        }
    }

    #[test]
    fn failing_worker_stops_a_ring_with_tokens_in_flight() {
        // The follower at position 2 fails on its 5th delivery while 16
        // tokens circulate; the watchdog is far away, so only the
        // failure's `Stop` can end the run in time.
        let storm = Storm::new(16, Some(5));
        let timeout = Duration::from_secs(10);
        let mut runner = ThreadedRunner::new();
        runner.timeout(timeout);
        let ring = Word::from_str("0010", &Alphabet::binary()).unwrap();
        let start = Instant::now();
        let err = runner.run(&storm, &ring).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, SimError::Process { position: 2, source: ProcessError::InvalidState(_) }),
            "{err:?}"
        );
        assert!(elapsed < timeout / 2, "the failure did not stop the ring: {elapsed:?}");
        // `run` joined every worker: all four processes are gone.
        assert_eq!(storm.dropped.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn follower_decision_reported() {
        struct Rogue;
        impl Protocol for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn topology(&self) -> Topology {
                Topology::Unidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        ctx.send(Direction::Clockwise, BitString::parse("1").unwrap());
                        Ok(())
                    }
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        _c: &mut Context,
                    ) -> ProcessResult {
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
                        _d: Direction,
                        _m: &BitString,
                        ctx: &mut Context,
                    ) -> ProcessResult {
                        ctx.decide(false);
                        Ok(())
                    }
                }
                Box::new(F)
            }
        }
        let mut runner = ThreadedRunner::new();
        runner.timeout(Duration::from_secs(2));
        let err = runner.run(&Rogue, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::FollowerDecided { position: 1 }));
    }
}
