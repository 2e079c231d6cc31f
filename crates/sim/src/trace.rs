//! Execution traces and information states.
//!
//! Theorem 4's lower-bound argument runs on **information states**: the
//! initial letter of a processor together with the ordered sequence of
//! messages (with directions) it sent or received. The trace machinery
//! here records executions precisely enough to extract those states, which
//! the `infostate` experiment (E3) uses to verify the paper's
//! cut-and-splice lemma exhaustively at small `n`.

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
}
