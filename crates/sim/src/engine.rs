//! The discrete-event execution engine.

use ringleader_automata::Word;
use ringleader_bitio::BitString;
use ringleader_obs::Metrics;

use crate::context::{Context, Process, Protocol};
use crate::faults::FaultPlan;
use crate::sched::LinkIndex;
use crate::trace::{EventKind, Trace, TraceEvent};
use crate::{Direction, ExecStats, Scheduler, SimError, Topology};

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The leader's decision (`Some(true)` = accept). Always `Some` for a
    /// successful run.
    pub decision: Option<bool>,
    /// Bit-complexity accounting.
    pub stats: ExecStats,
    /// Full event trace, when [`RingRunner::record_trace`] was enabled.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// The decision, treating the (unreachable for well-formed protocols)
    /// missing case as reject.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.decision == Some(true)
    }
}

/// Configures and runs protocol executions on a simulated ring.
///
/// A non-consuming builder: configure scheduling, tracing, the known-`n`
/// mode, and an event budget, then call [`run`](RingRunner::run) any
/// number of times.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct RingRunner {
    scheduler: Scheduler,
    record_trace: bool,
    known_ring_size: bool,
    max_events: usize,
    fault_plan: Option<FaultPlan>,
    metrics: Metrics,
}

impl Default for RingRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl RingRunner {
    /// A runner with FIFO scheduling, no tracing, unknown ring size, and a
    /// generous event budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            scheduler: Scheduler::Fifo,
            record_trace: false,
            known_ring_size: false,
            max_events: 50_000_000,
            fault_plan: None,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a metrics handle: run-level counters and gauges flow into
    /// it (see the crate docs' Observability section).
    /// The default disabled handle costs nothing; either way the run's
    /// observables are byte-identical — metrics read state, never feed
    /// it, and the equivalence suite pins exactly that.
    pub fn metrics(&mut self, metrics: Metrics) -> &mut Self {
        self.metrics = metrics;
        self
    }

    /// Chooses the delivery [`Scheduler`].
    pub fn scheduler(&mut self, scheduler: Scheduler) -> &mut Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables or disables full event tracing (needed for information-state
    /// extraction and token-discipline validation).
    pub fn record_trace(&mut self, on: bool) -> &mut Self {
        self.record_trace = on;
        self
    }

    /// Installs a deterministic [`FaultPlan`] applied on every delivery.
    /// An empty plan (the default) costs nothing.
    pub fn fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault_plan = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Switches the paper's Note 7.4 mode on: every processor learns `n`
    /// via [`Context::known_ring_size`].
    pub fn known_ring_size(&mut self, on: bool) -> &mut Self {
        self.known_ring_size = on;
        self
    }

    /// Caps the number of deliveries before the run aborts with
    /// [`SimError::EventLimitExceeded`]. Guards against runaway protocols.
    pub fn max_events(&mut self, limit: usize) -> &mut Self {
        self.max_events = limit;
        self
    }

    /// Executes `protocol` on the ring labelled with `word`.
    ///
    /// Processor `i` receives letter `word[i]`; processor 0 is the leader
    /// and is started exactly once. The run ends when the leader decides.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyRing`] for an empty word.
    /// * [`SimError::IllegalSend`] / [`SimError::FollowerDecided`] /
    ///   [`SimError::Process`] on protocol bugs.
    /// * [`SimError::Stalled`] if traffic dries up without a decision.
    /// * [`SimError::EventLimitExceeded`] if the budget is exhausted.
    pub fn run(&self, protocol: &dyn Protocol, word: &Word) -> Result<Outcome, SimError> {
        let n = word.len();
        if n == 0 {
            return Err(SimError::EmptyRing);
        }
        let topology = protocol.topology();
        let mut processes: Vec<Box<dyn Process>> = Vec::with_capacity(n);
        for (i, &sym) in word.symbols().iter().enumerate() {
            processes.push(if i == 0 { protocol.leader(sym) } else { protocol.follower(sym) });
        }

        let mut links = Links::new(n, self.scheduler.build_index(2 * n));
        let mut stats = ExecStats::new(n);
        let mut trace = self.record_trace.then(Trace::default);
        let mut seq: u64 = 0;
        let mut deliveries: usize = 0;
        let fault_plan = self.fault_plan.as_ref();
        // Per-receiver delivery counts: the coordinates fault plans key on.
        // Kept only when a fault plan is installed.
        let mut position_deliveries = fault_plan.map(|_| vec![0u64; n]);

        // One context for the whole run; reset per event so the outbox
        // buffer's allocation is reused across deliveries.
        let mut ctx = Context::new(true, self.known_ring_size.then_some(n));

        // Start the leader.
        processes[0]
            .on_start(&mut ctx)
            .map_err(|source| SimError::Process { position: 0, source })?;
        let mut decision =
            apply_effects(&mut ctx, 0, n, topology, &mut links, &mut stats, &mut trace, &mut seq)?;

        while decision.is_none() {
            let Some(link) = links.choose() else {
                return Err(SimError::Stalled { deliveries });
            };
            if deliveries >= self.max_events {
                return Err(SimError::EventLimitExceeded { limit: self.max_events });
            }
            let mut payload = links.pop(link);
            deliveries += 1;

            // Decode link id back to (receiver, direction of travel).
            let (receiver, direction) = if link < n {
                ((link + 1) % n, Direction::Clockwise)
            } else {
                (link - n, Direction::CounterClockwise)
            };

            let fault = position_deliveries.as_mut().and_then(|counts| {
                counts[receiver] += 1;
                fault_plan.and_then(|p| p.for_delivery(receiver, counts[receiver]))
            });
            if let Some(f) = &fault {
                if let Some(c) = &f.corrupt {
                    payload = c.apply(&payload);
                }
                if f.delay_micros > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(f.delay_micros));
                }
            }

            if let Some(t) = &mut trace {
                t.push(TraceEvent {
                    seq,
                    kind: EventKind::Deliver,
                    position: receiver,
                    direction,
                    payload: payload.clone(),
                });
                seq += 1;
            }

            ctx.reset(receiver == 0);
            processes[receiver]
                .on_message(direction, &payload, &mut ctx)
                .map_err(|source| SimError::Process { position: receiver, source })?;
            if let Some(f) = &fault {
                if f.stall {
                    // Swallow the handler's effects: the processor "hangs".
                    ctx.reset(receiver == 0);
                }
                for (d, p) in &f.inject_sends {
                    ctx.send(*d, p.clone());
                }
                if let Some(accept) = f.inject_decide {
                    ctx.decide(accept);
                }
            }
            decision = apply_effects(
                &mut ctx, receiver, n, topology, &mut links, &mut stats, &mut trace, &mut seq,
            )?;
        }

        stats.deliveries = deliveries;
        flush_engine_metrics(&self.metrics, &stats);
        Ok(Outcome { decision, stats, trace })
    }
}

/// Folds a completed run's already-computed totals into the metrics
/// registry — one call when the leader decides, zero hot-loop cost.
/// Scheduler picks equal deliveries on the event engine (every pick
/// delivers exactly one message); bit-rounds is the max over per-link
/// bit totals, the unit of the Θ(D + log n) bound in PAPERS.md.
fn flush_engine_metrics(metrics: &Metrics, stats: &ExecStats) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.counter_add("engine.deliveries", stats.deliveries as u64);
    metrics.counter_add("engine.scheduler_picks", stats.deliveries as u64);
    metrics.counter_add("engine.messages", stats.message_count as u64);
    metrics.counter_add("engine.bits_sent", stats.total_bits as u64);
    metrics.gauge_max("engine.max_message_bits", stats.max_message_bits as u64);
    let bit_rounds = stats
        .clockwise_link_bits
        .iter()
        .chain(stats.counter_clockwise_link_bits.iter())
        .copied()
        .max()
        .unwrap_or(0);
    metrics.gauge_max("engine.bit_rounds", bit_rounds as u64);
}

/// The link queues plus the scheduler's incrementally maintained view of
/// them, sized by messages in flight rather than by ring size.
///
/// The only per-link state is `head`: one `u32` per link, 0 while the
/// link is empty, else the slot of its front message. It is built with
/// `vec![0; 2 * n]`, which the allocator serves from pre-zeroed pages, so
/// a link the run never touches never faults a page in; and an integer,
/// unlike a per-link payload, needs no per-element construction or drop.
/// Everything else in `Links` is sized by the messages in flight.
///
/// Every queued message, head or tail, is a [`Node`] in one `slab`,
/// chained front to back through `next`. The head node also carries its
/// link's `tail` slot (for O(1) append) and `backlog` (for the
/// [`LinkIndex`] notifications). Popped nodes go onto a free list
/// threaded through the same `next` field, so the slab only ever grows
/// to the peak number of messages in flight — one, for Theorem 1's
/// one-pass — and the hot path (`choose` → `pop` → `push`) keeps
/// reusing the same few cache-resident nodes.
///
/// Every queue mutation flows through [`push`](Links::push) /
/// [`pop`](Links::pop) so the [`LinkIndex`] stays exactly in sync; the
/// occupancy count and the xor of non-empty link ids make the unique
/// non-empty link recoverable in O(1) for the single-link fast path —
/// the common case for unidirectional one-pass protocols, where at most
/// one message is ever in flight.
///
/// Link ids: 0..n are clockwise links (i → i+1 mod n); n..2n are
/// counter-clockwise links (i+1 → i, stored at n + i). Slots are slab
/// indices plus one, so 0 can mean "none" in `head`, `next` and `free`.
struct Links {
    /// Slot of each link's front message; 0 for an empty link.
    head: Vec<u32>,
    /// Queued messages of every link, plus free nodes awaiting reuse.
    slab: Vec<Node>,
    /// Slot of the first free node; 0 when every node is queued.
    free: u32,
    index: Box<dyn LinkIndex>,
    /// Number of non-empty links.
    occupied: usize,
    /// Xor of the ids of all non-empty links; equals the unique non-empty
    /// link's id whenever `occupied == 1`.
    id_xor: usize,
}

/// One queued message in the [`Links`] slab.
struct Node {
    seq: u64,
    payload: BitString,
    /// Slot of the next message on the same link (0 = last); on a free
    /// node, the next free node.
    next: u32,
    /// Slot of the link's last message. Kept on the head node only.
    tail: u32,
    /// The link's queued-message count. Kept on the head node only.
    backlog: u32,
}

impl Links {
    fn new(n: usize, index: Box<dyn LinkIndex>) -> Self {
        Self { head: vec![0; 2 * n], slab: Vec::new(), free: 0, index, occupied: 0, id_xor: 0 }
    }

    fn node(&mut self, slot: u32) -> &mut Node {
        &mut self.slab[slot as usize - 1]
    }

    /// Stores a message in a free node, or a new one if none is free, and
    /// returns its slot.
    fn alloc(&mut self, seq: u64, payload: BitString) -> u32 {
        let node = Node { seq, payload, next: 0, tail: 0, backlog: 0 };
        if self.free == 0 {
            self.slab.push(node);
            u32::try_from(self.slab.len()).expect("fewer than 2^32 messages in flight")
        } else {
            let slot = self.free;
            self.free = std::mem::replace(self.node(slot), node).next;
            slot
        }
    }

    fn push(&mut self, link: usize, seq: u64, payload: BitString) {
        let slot = self.alloc(seq, payload);
        let head = self.head[link];
        let backlog = if head == 0 {
            self.head[link] = slot;
            let node = self.node(slot);
            node.tail = slot;
            node.backlog = 1;
            self.occupied += 1;
            self.id_xor ^= link;
            1
        } else {
            let front = self.node(head);
            let last = std::mem::replace(&mut front.tail, slot);
            front.backlog += 1;
            let backlog = front.backlog;
            self.node(last).next = slot;
            backlog
        };
        self.index.on_push(link, seq, backlog as usize);
    }

    /// The scheduling policy's pick, or `None` when the ring is quiescent.
    /// Skips the index when only one link is non-empty.
    fn choose(&mut self) -> Option<usize> {
        match self.occupied {
            0 => None,
            1 => {
                self.index.on_trivial_choose();
                Some(self.id_xor)
            }
            _ => Some(self.index.choose()),
        }
    }

    fn pop(&mut self, link: usize) -> BitString {
        let slot = self.head[link];
        debug_assert_ne!(slot, 0, "chosen link non-empty");
        let free = self.free;
        let front = self.node(slot);
        let payload = std::mem::take(&mut front.payload);
        let (next, tail, backlog) = (front.next, front.tail, front.backlog - 1);
        front.next = free;
        self.free = slot;
        self.head[link] = next;
        if next == 0 {
            self.occupied -= 1;
            self.id_xor ^= link;
            self.index.on_pop(link, None, 0);
        } else {
            let new_front = self.node(next);
            new_front.tail = tail;
            new_front.backlog = backlog;
            let next_seq = new_front.seq;
            self.index.on_pop(link, Some(next_seq), backlog as usize);
        }
        payload
    }

    /// Front-to-back contents of `link`, for the reference-model test.
    #[cfg(test)]
    fn queue_contents(&self, link: usize) -> Vec<(u64, BitString)> {
        let mut out = Vec::new();
        let mut slot = self.head[link];
        while slot != 0 {
            let node = &self.slab[slot as usize - 1];
            out.push((node.seq, node.payload.clone()));
            slot = node.next;
        }
        out
    }
}

/// Applies a handler's buffered sends/decision, draining the context for
/// reuse. Returns the decision if the leader made one.
#[allow(clippy::too_many_arguments)]
fn apply_effects(
    ctx: &mut Context,
    position: usize,
    n: usize,
    topology: Topology,
    links: &mut Links,
    stats: &mut ExecStats,
    trace: &mut Option<Trace>,
    seq: &mut u64,
) -> Result<Option<bool>, SimError> {
    let decision = ctx.take_decision();
    if decision.is_some() && position != 0 {
        return Err(SimError::FollowerDecided { position });
    }
    for (direction, payload) in ctx.drain_outbox() {
        if !topology.allows(position, direction, n) {
            return Err(SimError::IllegalSend { position, direction });
        }
        stats.record_send(position, direction, payload.len());
        if let Some(t) = trace {
            t.push(TraceEvent {
                seq: *seq,
                kind: EventKind::Send,
                position,
                direction,
                payload: payload.clone(),
            });
        }
        let link = match direction {
            Direction::Clockwise => position,
            // p_i sending counter-clockwise feeds the queue stored at n + (i-1 mod n).
            Direction::CounterClockwise => n + (position + n - 1) % n,
        };
        links.push(link, *seq, payload);
        *seq += 1;
    }
    Ok(decision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ProcessResult, Protocol};
    use crate::sched::testkit::{LinkView, NaiveChooser};
    use proptest::prelude::*;
    use ringleader_automata::{Alphabet, Symbol};
    use std::collections::VecDeque;

    /// `Links` side by side with a reference model: one `VecDeque` per
    /// link plus the naive-scan scheduler oracle.
    struct LinksAndReference {
        links: Links,
        oracle: NaiveChooser,
        reference: Vec<VecDeque<(u64, BitString)>>,
        seq: u64,
        in_flight: usize,
        peak: usize,
    }

    impl LinksAndReference {
        fn new(scheduler: &Scheduler, n: usize) -> Self {
            Self {
                links: Links::new(n, scheduler.build_index(2 * n)),
                oracle: NaiveChooser::new(scheduler),
                reference: vec![VecDeque::new(); 2 * n],
                seq: 0,
                in_flight: 0,
                peak: 0,
            }
        }

        fn push(&mut self, link: usize, bits: usize) {
            let message = payload(self.seq, bits);
            self.links.push(link, self.seq, message.clone());
            self.reference[link].push_back((self.seq, message));
            self.seq += 1;
            self.in_flight += 1;
            self.peak = self.peak.max(self.in_flight);
        }

        /// One delivery: both sides must pick the same link and yield the
        /// same payload.
        fn deliver(&mut self) {
            let views: Vec<LinkView> = self
                .reference
                .iter()
                .enumerate()
                .filter_map(|(id, q)| {
                    let &(head_seq, _) = q.front()?;
                    Some(LinkView { id, backlog: q.len(), head_seq })
                })
                .collect();
            let picked = self.links.choose().expect("messages in flight");
            assert_eq!(picked, self.oracle.choose(&views), "pick");
            let (_, expected) = self.reference[picked].pop_front().expect("picked non-empty");
            assert_eq!(self.links.pop(picked), expected, "payload from link {picked}");
            self.in_flight -= 1;
        }

        fn check(&self) {
            for (id, queue) in self.reference.iter().enumerate() {
                assert_eq!(self.links.queue_contents(id), Vec::from(queue.clone()), "link {id}");
            }
            let nodes = self.links.slab.len();
            assert!(nodes <= self.peak, "slab holds {nodes} nodes, peak in flight {}", self.peak);
        }
    }

    /// A payload of `bits` bits whose content depends on `seq`; lengths
    /// past 184 bits spill the `BitString` to the heap.
    fn payload(seq: u64, bits: usize) -> BitString {
        BitString::from_bits((0..bits).map(|i| (seq.rotate_left(i as u32) ^ i as u64) & 1 == 1))
    }

    proptest! {
        /// Each step is `(action, link, bits)`: a push, a burst of 3–5
        /// pushes onto one link, or a delivery; the queues drain at the end.
        #[test]
        fn links_match_a_reference_model(
            n in 1usize..8,
            script in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..300),
            seed in any::<u64>(),
        ) {
            for scheduler in [Scheduler::Fifo, Scheduler::Random { seed }, Scheduler::LongestQueue] {
                let mut model = LinksAndReference::new(&scheduler, n);
                for &(action, link, bits) in &script {
                    let (link, bits) = (usize::from(link) % (2 * n), usize::from(bits) % 400);
                    match action % 4 {
                        0 | 1 => model.push(link, bits),
                        2 => (0..3 + action % 3).for_each(|_| model.push(link, bits)),
                        _ if model.in_flight > 0 => model.deliver(),
                        _ => {}
                    }
                    model.check();
                }
                while model.in_flight > 0 {
                    model.deliver();
                    model.check();
                }
                prop_assert_eq!(model.links.choose(), None);
            }
        }
    }

    /// Forwards any message onward; used as the default follower.
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

    /// Leader sends one 3-bit message clockwise; accepts when it returns.
    struct RoundTripLeader;
    impl Process for RoundTripLeader {
        fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
            ctx.send(Direction::Clockwise, BitString::parse("101").unwrap());
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

    struct RoundTrip;
    impl Protocol for RoundTrip {
        fn name(&self) -> &'static str {
            "round-trip"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(RoundTripLeader)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Forwarder)
        }
    }

    fn word(n: usize) -> Word {
        let sigma = Alphabet::binary();
        Word::from_str(&"0".repeat(n), &sigma).unwrap()
    }

    #[test]
    fn round_trip_counts_bits_per_hop() {
        for n in [1usize, 2, 3, 10, 100] {
            let outcome = RingRunner::new().run(&RoundTrip, &word(n)).unwrap();
            assert_eq!(outcome.decision, Some(true), "n={n}");
            assert_eq!(outcome.stats.total_bits, 3 * n, "n={n}");
            assert_eq!(outcome.stats.message_count, n, "n={n}");
            assert_eq!(outcome.stats.max_message_bits, 3, "n={n}");
        }
    }

    #[test]
    fn empty_ring_rejected() {
        let w = Word::new();
        assert!(matches!(RingRunner::new().run(&RoundTrip, &w), Err(SimError::EmptyRing)));
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let mut runner = RingRunner::new();
        runner.record_trace(true);
        let outcome = runner.run(&RoundTrip, &word(3)).unwrap();
        let trace = outcome.trace.unwrap();
        // 3 sends + 3 deliveries.
        assert_eq!(trace.events().len(), 6);
        let sends = trace.events().iter().filter(|e| e.kind == EventKind::Send).count();
        assert_eq!(sends, 3);
        // Info states: every processor sent once and received once... except
        // the leader ordering (send first, then receive).
        let inputs = vec![Symbol(0); 3];
        let states = trace.info_states(&inputs);
        assert_eq!(states[0].entries.len(), 2);
        assert_eq!(states[1].entries.len(), 2);
    }

    /// Protocol violating direction rules on a unidirectional ring.
    struct BadDirection;
    impl Protocol for BadDirection {
        fn name(&self) -> &'static str {
            "bad-direction"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            struct L;
            impl Process for L {
                fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                    ctx.send(Direction::CounterClockwise, BitString::parse("1").unwrap());
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
            Box::new(Forwarder)
        }
    }

    #[test]
    fn illegal_direction_aborts() {
        let err = RingRunner::new().run(&BadDirection, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::IllegalSend { position: 0, .. }));
    }

    /// A follower that (illegally) decides.
    struct RogueFollower;
    impl Protocol for RogueFollower {
        fn name(&self) -> &'static str {
            "rogue"
        }
        fn topology(&self) -> Topology {
            Topology::Unidirectional
        }
        fn leader(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(RoundTripLeader)
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

    #[test]
    fn follower_decision_aborts() {
        let err = RingRunner::new().run(&RogueFollower, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::FollowerDecided { position: 1 }));
    }

    /// A leader that never decides and sends nothing.
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

    #[test]
    fn quiescence_without_decision_is_stalled() {
        let err = RingRunner::new().run(&Silent, &word(3)).unwrap_err();
        assert!(matches!(err, SimError::Stalled { deliveries: 0 }));
    }

    /// A two-processor ping-pong that never terminates.
    struct Livelock;
    impl Protocol for Livelock {
        fn name(&self) -> &'static str {
            "livelock"
        }
        fn topology(&self) -> Topology {
            Topology::Bidirectional
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
                    d: Direction,
                    m: &BitString,
                    ctx: &mut Context,
                ) -> ProcessResult {
                    ctx.send(d, m.clone());
                    Ok(())
                }
            }
            Box::new(L)
        }
        fn follower(&self, _input: Symbol) -> Box<dyn Process> {
            Box::new(Forwarder)
        }
    }

    #[test]
    fn event_limit_stops_runaways() {
        let mut runner = RingRunner::new();
        runner.max_events(100);
        let err = runner.run(&Livelock, &word(2)).unwrap_err();
        assert!(matches!(err, SimError::EventLimitExceeded { limit: 100 }));
    }

    #[test]
    fn known_ring_size_mode_is_visible() {
        struct NProtocol;
        impl Protocol for NProtocol {
            fn name(&self) -> &'static str {
                "known-n"
            }
            fn topology(&self) -> Topology {
                Topology::Unidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        // Decide immediately based on n: accept even sizes.
                        let n = ctx.known_ring_size().expect("runner set known_ring_size");
                        ctx.decide(n % 2 == 0);
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
                Box::new(Forwarder)
            }
        }
        let mut runner = RingRunner::new();
        runner.known_ring_size(true);
        assert!(runner.run(&NProtocol, &word(4)).unwrap().accepted());
        assert!(!runner.run(&NProtocol, &word(5)).unwrap().accepted());
    }

    #[test]
    fn single_processor_ring_self_loop() {
        // n = 1: the leader's clockwise neighbour is itself.
        let outcome = RingRunner::new().run(&RoundTrip, &word(1)).unwrap();
        assert!(outcome.accepted());
        assert_eq!(outcome.stats.total_bits, 3);
    }

    #[test]
    fn bidirectional_messages_cross() {
        /// Leader probes both ways; accepts after both probes return.
        struct BothWays;
        impl Protocol for BothWays {
            fn name(&self) -> &'static str {
                "both-ways"
            }
            fn topology(&self) -> Topology {
                Topology::Bidirectional
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L {
                    seen: usize,
                }
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        ctx.send(Direction::Clockwise, BitString::parse("10").unwrap());
                        ctx.send(Direction::CounterClockwise, BitString::parse("01").unwrap());
                        Ok(())
                    }
                    fn on_message(
                        &mut self,
                        _d: Direction,
                        _m: &BitString,
                        ctx: &mut Context,
                    ) -> ProcessResult {
                        self.seen += 1;
                        if self.seen == 2 {
                            ctx.decide(true);
                        }
                        Ok(())
                    }
                }
                Box::new(L { seen: 0 })
            }
            fn follower(&self, _input: Symbol) -> Box<dyn Process> {
                Box::new(Forwarder)
            }
        }
        for scheduler in [Scheduler::Fifo, Scheduler::Random { seed: 3 }, Scheduler::LongestQueue] {
            let mut runner = RingRunner::new();
            runner.scheduler(scheduler);
            let outcome = runner.run(&BothWays, &word(5)).unwrap();
            assert!(outcome.accepted());
            // Two probes, each crossing all 5 links once: 2 bits * 5 hops * 2 directions.
            assert_eq!(outcome.stats.total_bits, 20);
        }
    }

    #[test]
    fn line_topology_blocks_wraparound() {
        struct LineWrap;
        impl Protocol for LineWrap {
            fn name(&self) -> &'static str {
                "line-wrap"
            }
            fn topology(&self) -> Topology {
                Topology::Line
            }
            fn leader(&self, _input: Symbol) -> Box<dyn Process> {
                struct L;
                impl Process for L {
                    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
                        // Illegal: leader's counter-clockwise link does not exist on a line.
                        ctx.send(Direction::CounterClockwise, BitString::parse("1").unwrap());
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
                Box::new(Forwarder)
            }
        }
        let err = RingRunner::new().run(&LineWrap, &word(4)).unwrap_err();
        assert!(matches!(
            err,
            SimError::IllegalSend { position: 0, direction: Direction::CounterClockwise }
        ));
    }
}
