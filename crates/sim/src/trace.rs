//! Execution traces and information states.
//!
//! Theorem 4's lower-bound argument runs on **information states**: the
//! initial letter of a processor together with the ordered sequence of
//! messages (with directions) it sent or received. The trace machinery
//! here records executions precisely enough to extract those states, which
//! the `infostate` experiment (E3) uses to verify the paper's
//! cut-and-splice lemma exhaustively at small `n`.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use ringleader_automata::Symbol;
use ringleader_bitio::BitString;

use crate::Direction;

/// What happened in a single trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A processor handed a message to a link.
    Send,
    /// A link handed a message to a processor.
    Deliver,
}

/// One send or delivery, in global order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global sequence number (sends and deliveries share one clock).
    pub seq: u64,
    /// The kind of event.
    pub kind: EventKind,
    /// 0-based position of the processor acting (sender or receiver).
    pub position: usize,
    /// Direction of travel of the message.
    pub direction: Direction,
    /// The message bits.
    pub payload: BitString,
}

/// A full record of one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in global order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Extracts the per-processor [`InfoState`]s of this execution.
    ///
    /// `inputs[i]` must be the letter processor `i` held.
    ///
    /// # Panics
    ///
    /// Panics if an event references a position `>= inputs.len()`.
    #[must_use]
    pub fn info_states(&self, inputs: &[Symbol]) -> Vec<InfoState> {
        let mut states: Vec<InfoState> =
            inputs.iter().map(|&input| InfoState { input, entries: Vec::new() }).collect();
        for e in &self.events {
            let kind = match e.kind {
                EventKind::Send => InfoEventKind::Sent,
                EventKind::Deliver => InfoEventKind::Received,
            };
            states[e.position].entries.push(InfoStateEntry {
                kind,
                direction: e.direction,
                payload: e.payload.clone(),
            });
        }
        states
    }
}

/// How many closed [`IntervalStats`] windows a [`TraceRing`] retains.
const INTERVAL_HISTORY: usize = 64;

/// Aggregate statistics over one window of trace events.
///
/// A [`TraceRing`] closes a window every `capacity` events, so at
/// `massive` scale these are the only whole-run observability record:
/// the raw events themselves are long gone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Sequence number of the first event in the window.
    pub first_seq: u64,
    /// Sequence number of the last event in the window.
    pub last_seq: u64,
    /// Events in the window.
    pub events: u64,
    /// How many of them were sends.
    pub sends: u64,
    /// How many of them were deliveries.
    pub deliveries: u64,
    /// Total payload bits across the window's events.
    pub bits: u64,
}

/// A bounded trace: the last `capacity` events plus streamed per-interval
/// statistics, replacing the unbounded [`Trace`] vector at `large` and
/// `massive` scales where O(events) memory is untenable.
///
/// The ring keeps exactly the most recent `capacity` events (older ones
/// are dropped and counted in [`dropped`](TraceRing::dropped)), answers
/// [`tail`](TraceRing::tail)/[`since`](TraceRing::since) queries over that
/// window, and closes an [`IntervalStats`] record every `capacity` events
/// so long runs still stream coarse-grained progress. Memory is
/// O(capacity), independent of run length.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    current: IntervalStats,
    intervals: VecDeque<IntervalStats>,
}

impl TraceRing {
    /// Creates a ring retaining the last `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
            current: IntervalStats::default(),
            intervals: VecDeque::new(),
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.current.events == 0 {
            self.current.first_seq = event.seq;
        }
        self.current.last_seq = event.seq;
        self.current.events += 1;
        match event.kind {
            EventKind::Send => self.current.sends += 1,
            EventKind::Deliver => self.current.deliveries += 1,
        }
        self.current.bits += event.payload.len() as u64;
        if self.current.events == self.capacity as u64 {
            if self.intervals.len() == INTERVAL_HISTORY {
                self.intervals.pop_front();
            }
            self.intervals.push_back(std::mem::take(&mut self.current));
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The last `limit` retained events, oldest first.
    #[must_use]
    pub fn tail(&self, limit: usize) -> Vec<&TraceEvent> {
        let skip = self.events.len().saturating_sub(limit);
        self.events.iter().skip(skip).collect()
    }

    /// Retained events with a sequence number strictly greater than `seq`
    /// (pass the last seq you saw to get what happened since), oldest
    /// first. Events older than the ring's window are gone; check
    /// [`dropped`](TraceRing::dropped) to detect gaps.
    #[must_use]
    pub fn since(&self, seq: u64) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.seq > seq).collect()
    }

    /// Number of currently retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The configured retention capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events have been evicted from the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Closed per-interval statistics windows, oldest first (bounded to
    /// the most recent windows), followed by the still-open window if it
    /// has any events.
    #[must_use]
    pub fn intervals(&self) -> Vec<IntervalStats> {
        let mut out: Vec<IntervalStats> = self.intervals.iter().copied().collect();
        if self.current.events > 0 {
            out.push(self.current);
        }
        out
    }
}

/// Where the event loop records trace events: an unbounded [`Trace`], a
/// bounded [`TraceRing`], both, or neither.
///
/// Sequence-number consumption is keyed on [`active`](TraceSink::active):
/// a delivery consumes a seq exactly when *some* sink records it, so a
/// ring-traced run numbers events identically to a fully-traced one.
#[derive(Debug, Default)]
pub(crate) struct TraceSink {
    pub(crate) trace: Option<Trace>,
    pub(crate) ring: Option<TraceRing>,
}

impl TraceSink {
    pub(crate) fn new(record_trace: bool, ring_capacity: Option<usize>) -> Self {
        Self { trace: record_trace.then(Trace::default), ring: ring_capacity.map(TraceRing::new) }
    }

    pub(crate) fn active(&self) -> bool {
        self.trace.is_some() || self.ring.is_some()
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        match (&mut self.trace, &mut self.ring) {
            (Some(t), Some(r)) => {
                t.push(event.clone());
                r.push(event);
            }
            (Some(t), None) => t.push(event),
            (None, Some(r)) => r.push(event),
            (None, None) => {}
        }
    }
}

/// Whether an information-state entry was a send or a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InfoEventKind {
    /// The processor sent the message.
    Sent,
    /// The processor received the message.
    Received,
}

/// One entry of an information state: a message the processor sent or
/// received, with its direction of travel.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InfoStateEntry {
    /// Send or receive.
    pub kind: InfoEventKind,
    /// Direction the message travelled.
    pub direction: Direction,
    /// The message bits.
    pub payload: BitString,
}

/// The paper's information state of a processor after an execution: its
/// input letter plus the ordered sends/receives it participated in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InfoState {
    /// The processor's input letter.
    pub input: Symbol,
    /// Ordered message history.
    pub entries: Vec<InfoStateEntry>,
}

impl InfoState {
    /// Total bits across all entries — a size proxy used when estimating
    /// how many bits are needed to tell `⌈n/2⌉` distinct states apart.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.entries.iter().map(|e| e.payload.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind, position: usize, payload: &str) -> TraceEvent {
        TraceEvent {
            seq,
            kind,
            position,
            direction: Direction::Clockwise,
            payload: BitString::parse(payload).unwrap(),
        }
    }

    #[test]
    fn info_states_partition_events_by_position() {
        let mut t = Trace::default();
        t.push(ev(0, EventKind::Send, 0, "1"));
        t.push(ev(1, EventKind::Deliver, 1, "1"));
        t.push(ev(2, EventKind::Send, 1, "01"));
        t.push(ev(3, EventKind::Deliver, 0, "01"));
        let states = t.info_states(&[Symbol(0), Symbol(1)]);
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].entries.len(), 2);
        assert_eq!(states[0].entries[0].kind, InfoEventKind::Sent);
        assert_eq!(states[0].entries[1].kind, InfoEventKind::Received);
        assert_eq!(states[1].entries.len(), 2);
        assert_eq!(states[1].input, Symbol(1));
        assert_eq!(states[0].total_bits(), 3);
    }

    #[test]
    fn identical_histories_compare_equal() {
        let mut t1 = Trace::default();
        t1.push(ev(0, EventKind::Send, 0, "11"));
        let mut t2 = Trace::default();
        t2.push(ev(17, EventKind::Send, 0, "11")); // different seq, same history
        let s1 = t1.info_states(&[Symbol(0)]);
        let s2 = t2.info_states(&[Symbol(0)]);
        assert_eq!(s1, s2, "info states ignore global sequence numbers");
    }

    #[test]
    fn different_inputs_distinguish_states() {
        let t = Trace::default();
        let states = t.info_states(&[Symbol(0), Symbol(1)]);
        assert_ne!(states[0], states[1]);
    }

    #[test]
    fn events_accessor_preserves_order() {
        let mut t = Trace::default();
        t.push(ev(0, EventKind::Send, 0, "1"));
        t.push(ev(1, EventKind::Deliver, 1, "1"));
        assert_eq!(t.events().len(), 2);
        assert!(t.events()[0].seq < t.events()[1].seq);
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut ring = TraceRing::new(3);
        for seq in 0..10 {
            ring.push(ev(seq, EventKind::Send, 0, "1"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 7);
        let seqs: Vec<u64> = ring.tail(10).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        let seqs: Vec<u64> = ring.tail(2).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9]);
    }

    #[test]
    fn ring_since_is_strictly_after() {
        let mut ring = TraceRing::new(8);
        for seq in 0..5 {
            ring.push(ev(seq, EventKind::Deliver, 1, "01"));
        }
        let seqs: Vec<u64> = ring.since(2).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert!(ring.since(4).is_empty());
    }

    #[test]
    fn ring_streams_interval_stats() {
        let mut ring = TraceRing::new(4);
        for seq in 0..10 {
            let kind = if seq % 2 == 0 { EventKind::Send } else { EventKind::Deliver };
            ring.push(ev(seq, kind, 0, "101"));
        }
        let intervals = ring.intervals();
        // Two closed windows of 4 plus the open window of 2.
        assert_eq!(intervals.len(), 3);
        assert_eq!(intervals[0].first_seq, 0);
        assert_eq!(intervals[0].last_seq, 3);
        assert_eq!(intervals[0].events, 4);
        assert_eq!(intervals[0].sends, 2);
        assert_eq!(intervals[0].deliveries, 2);
        assert_eq!(intervals[0].bits, 12);
        assert_eq!(intervals[1].first_seq, 4);
        assert_eq!(intervals[2].events, 2);
        assert_eq!(intervals[2].first_seq, 8);
    }

    #[test]
    fn ring_interval_history_is_bounded() {
        let mut ring = TraceRing::new(1);
        for seq in 0..200 {
            ring.push(ev(seq, EventKind::Send, 0, "1"));
        }
        // Every event closes a window at capacity 1; retention is bounded.
        assert_eq!(ring.intervals().len(), 64);
        assert_eq!(ring.intervals()[63].last_seq, 199);
    }

    #[test]
    fn ring_capacity_is_at_least_one() {
        let mut ring = TraceRing::new(0);
        ring.push(ev(0, EventKind::Send, 0, "1"));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.len(), 1);
        assert!(!ring.is_empty());
    }

    #[test]
    fn ring_roundtrips_through_serde() {
        let mut ring = TraceRing::new(2);
        for seq in 0..5 {
            ring.push(ev(seq, EventKind::Deliver, 2, "11"));
        }
        let content = serde::Serialize::to_content(&ring);
        let back: TraceRing = serde::Deserialize::from_content(&content).unwrap();
        assert_eq!(ring, back);
    }
}
