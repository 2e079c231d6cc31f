//! Real-concurrency backend on OS threads and crossbeam channels.
//!
//! The discrete-event engine *models* asynchrony; this backend *is*
//! asynchronous: one OS thread per processor, unbounded crossbeam channels
//! as links, and whatever interleaving the OS scheduler produces. For the
//! deterministic protocols of the paper the bit totals must agree exactly
//! with the event engine — experiment E12 checks that, closing the gap
//! between "simulated" and "actually concurrent" executions.
//!
//! Where the serial event loop fixes the schedule, this backend
//! surrenders it to the OS on purpose, as evidence the measured bit
//! counts never depended on it. It applies no fault plan.
//!
//! The backend piggybacks a control signal on the data channels: when the
//! leader decides, a `Halt` envelope is flooded clockwise so every thread
//! shuts down. Control envelopes carry no protocol bits and are excluded
//! from the accounting.
//!
//! Threads park on a real blocking `select!` over their two data links
//! and a shutdown channel — no polling. Shutdown is broadcast by
//! *disconnecting* the shutdown channel (dropping its only sender, held
//! in a shared slot): every parked worker observes the disconnect at
//! once, which a single in-band message could not do. The watchdog
//! deadline lives in exactly one place — the coordinating thread's
//! `recv_timeout` on the decision channel — so a stuck protocol aborts
//! within one configured timeout, not timeout-plus-slack.

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

/// What travels over a channel: protocol payloads or the shutdown flood.
enum Envelope {
    Data(Direction, BitString),
    Halt,
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

        // Channels: cw[i] feeds processor (i+1) % n from processor i;
        // ccw[i] feeds processor i from processor (i+1) % n.
        let mut cw_tx = Vec::with_capacity(n);
        let mut cw_rx = Vec::with_capacity(n);
        let mut ccw_tx = Vec::with_capacity(n);
        let mut ccw_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Envelope>();
            cw_tx.push(tx);
            cw_rx.push(rx);
            let (tx, rx) = unbounded::<Envelope>();
            ccw_tx.push(tx);
            ccw_rx.push(rx);
        }

        let total_bits = Arc::new(AtomicUsize::new(0));
        let message_count = Arc::new(AtomicUsize::new(0));
        let failure: Arc<Mutex<Option<SimError>>> = Arc::new(Mutex::new(None));
        let (decision_tx, decision_rx) = unbounded::<bool>();

        // Shutdown broadcast: the channel's single sender lives in this
        // shared slot; clearing the slot disconnects the channel, waking
        // every worker parked on it. Workers hold the slot (not a sender
        // clone) so a failing worker can broadcast too.
        let (shutdown_tx, shutdown_rx) = unbounded::<()>();
        let shutdown: Arc<Mutex<Option<Sender<()>>>> = Arc::new(Mutex::new(Some(shutdown_tx)));

        let known = self.known_ring_size.then_some(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
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
                // Processor i receives clockwise traffic on cw[(i-1+n)%n]
                // and counter-clockwise traffic on ccw[i].
                from_ccw_neighbor: cw_rx[(i + n - 1) % n].clone(),
                from_cw_neighbor: ccw_rx[i].clone(),
                to_cw_neighbor: cw_tx[i].clone(),
                to_ccw_neighbor: ccw_tx[(i + n - 1) % n].clone(),
                total_bits: Arc::clone(&total_bits),
                message_count: Arc::clone(&message_count),
                failure: Arc::clone(&failure),
                decision_tx: decision_tx.clone(),
                shutdown_rx: shutdown_rx.clone(),
                shutdown: Arc::clone(&shutdown),
            };
            handles.push(thread::spawn(move || worker.run()));
        }
        drop(decision_tx);

        // The watchdog's single source of truth: if no decision (and no
        // abort — workers that fail drop their decision senders, which
        // disconnects this channel promptly) arrives within the timeout,
        // the run is declared stuck.
        let decision = decision_rx.recv_timeout(self.timeout);
        if decision.is_err() {
            // Stall or abort: broadcast shutdown so parked workers exit.
            // On a clean decision the coordinator must NOT broadcast —
            // the halt flood retires every worker in FIFO order behind
            // the data still on its link, whereas the out-of-band
            // disconnect could win the select against deliverable
            // envelopes and make the bit totals timing-dependent. (A
            // worker that fails mid-flood broadcasts for itself, so the
            // flood cannot strand anyone on this path.)
            shutdown.lock().take();
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
    from_ccw_neighbor: Receiver<Envelope>,
    from_cw_neighbor: Receiver<Envelope>,
    to_cw_neighbor: Sender<Envelope>,
    to_ccw_neighbor: Sender<Envelope>,
    total_bits: Arc<AtomicUsize>,
    message_count: Arc<AtomicUsize>,
    failure: Arc<Mutex<Option<SimError>>>,
    decision_tx: Sender<bool>,
    shutdown_rx: Receiver<()>,
    shutdown: Arc<Mutex<Option<Sender<()>>>>,
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
        loop {
            // Queued protocol traffic takes strict priority over the
            // shutdown broadcast: the select's tie-break rotates among
            // ready channels (starvation-freedom), so without this
            // ordered drain a worker could exit with deliverable
            // envelopes still queued — and the bits their forwarding
            // would have sent become a coin flip. Only a worker whose
            // links are momentarily empty parks on the 3-way select.
            let polled = match self.from_ccw_neighbor.try_recv() {
                Ok(e) => Some((Direction::Clockwise, e)),
                Err(_) => match self.from_cw_neighbor.try_recv() {
                    Ok(e) => Some((Direction::CounterClockwise, e)),
                    Err(_) => None,
                },
            };
            let envelope = if let Some(hit) = polled {
                Ok(hit)
            } else {
                // Park until a neighbour sends or shutdown is broadcast —
                // a real blocking wait, no poll interval, no clock.
                crossbeam::channel::select! {
                    recv(self.from_ccw_neighbor) -> e => e.map(|e| (Direction::Clockwise, e)),
                    recv(self.from_cw_neighbor) -> e => e.map(|e| (Direction::CounterClockwise, e)),
                    recv(self.shutdown_rx) -> _signal => {
                        // Message or disconnect: either way, stop.
                        return;
                    }
                }
            };
            let Ok((direction, envelope)) = envelope else {
                return; // channel closed: peers are shutting down
            };
            match envelope {
                Envelope::Halt => {
                    // Flood onward clockwise until it returns to the leader.
                    if self.position != self.n - 1 {
                        let _ = self.to_cw_neighbor.send(Envelope::Halt);
                    }
                    return;
                }
                Envelope::Data(dir, payload) => {
                    debug_assert_eq!(dir, direction);
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
        }
    }

    /// Applies buffered effects; returns `true` if this worker is done.
    fn apply(&mut self, ctx: Context) -> bool {
        let (outbox, decision) = ctx.take();
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
            let target = match direction {
                Direction::Clockwise => &self.to_cw_neighbor,
                Direction::CounterClockwise => &self.to_ccw_neighbor,
            };
            let _ = target.send(Envelope::Data(direction, payload));
        }
        if let Some(d) = decision {
            let _ = self.decision_tx.send(d);
            // Start the halt flood (skip for n = 1, nobody else to stop).
            if self.n > 1 {
                let _ = self.to_cw_neighbor.send(Envelope::Halt);
            }
            return true;
        }
        false
    }

    fn fail(&self, err: SimError) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        // Wake every sibling parked on the shutdown channel: clearing the
        // slot drops the only sender, disconnecting the channel.
        self.shutdown.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ProcessResult;
    use ringleader_automata::{Alphabet, Symbol};

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
        let start = std::time::Instant::now();
        let err = runner.run(&Mute, &word(4)).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, SimError::Stalled { .. }), "{err:?}");
        assert!(elapsed >= timeout, "aborted before the budget: {elapsed:?}");
        // Well under the old 2×timeout + 1s behaviour; generous slack
        // for thread teardown on a loaded single-core runner.
        assert!(elapsed < timeout * 3, "watchdog budget double-counted: {elapsed:?}");
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
