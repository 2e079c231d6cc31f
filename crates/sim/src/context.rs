//! The processor-side API: processes, protocols, and their context.

use std::error::Error;
use std::fmt;

use ringleader_automata::Symbol;
use ringleader_bitio::{BitString, DecodeError};

use crate::{Direction, Topology};

/// Error returned by a [`Process`] handler.
///
/// In the paper's model a correct algorithm never fails; a `ProcessError`
/// therefore signals an implementation bug (malformed message, impossible
/// state) and aborts the simulation with
/// [`SimError::Process`](crate::SimError::Process).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProcessError {
    /// A message failed to decode.
    Decode(DecodeError),
    /// The process reached a state its protocol deems impossible.
    InvalidState(String),
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessError::Decode(e) => write!(f, "message decode failed: {e}"),
            ProcessError::InvalidState(msg) => write!(f, "invalid protocol state: {msg}"),
        }
    }
}

impl Error for ProcessError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProcessError::Decode(e) => Some(e),
            ProcessError::InvalidState(_) => None,
        }
    }
}

impl From<DecodeError> for ProcessError {
    fn from(e: DecodeError) -> Self {
        ProcessError::Decode(e)
    }
}

/// Result type of [`Process`] handlers.
pub type ProcessResult = Result<(), ProcessError>;

/// Everything a processor may do during one event handler invocation.
///
/// A `Context` is handed to [`Process::on_start`] and
/// [`Process::on_message`]; sends and decisions are buffered and applied
/// by the engine when the handler returns.
#[derive(Debug)]
pub struct Context {
    outbox: Vec<(Direction, BitString)>,
    decision: Option<bool>,
    known_ring_size: Option<usize>,
    is_leader: bool,
}

impl Context {
    pub(crate) fn new(is_leader: bool, known_ring_size: Option<usize>) -> Self {
        Self { outbox: Vec::new(), decision: None, known_ring_size, is_leader }
    }

    /// Creates a context not owned by the engine, for adapter protocols
    /// that wrap an inner [`Process`] (e.g. the Theorem 5 cut-link
    /// transformation) and for unit-testing processes in isolation.
    ///
    /// Collect the buffered effects afterwards with
    /// [`into_effects`](Context::into_effects).
    #[must_use]
    pub fn detached(is_leader: bool, known_ring_size: Option<usize>) -> Self {
        Self::new(is_leader, known_ring_size)
    }

    /// Consumes the context, returning the buffered `(direction, message)`
    /// sends in order and the decision, if one was made.
    #[must_use]
    pub fn into_effects(self) -> (Vec<(Direction, BitString)>, Option<bool>) {
        (self.outbox, self.decision)
    }

    /// Queues `message` for the neighbour in `direction`.
    ///
    /// Whether the direction is legal depends on the [`Topology`]; an
    /// illegal send aborts the run with
    /// [`SimError::IllegalSend`](crate::SimError::IllegalSend) when the
    /// handler returns.
    pub fn send(&mut self, direction: Direction, message: BitString) {
        self.outbox.push((direction, message));
    }

    /// Records the leader's accept/reject decision and terminates the run.
    ///
    /// Calling this from a non-leader processor aborts the run with
    /// [`SimError::FollowerDecided`](crate::SimError::FollowerDecided):
    /// in the paper's model only the leader accepts or rejects the pattern.
    pub fn decide(&mut self, accept: bool) {
        self.decision = Some(accept);
    }

    /// The ring size, in the paper's Note 7.4 "known `n`" mode; `None` in
    /// the default unknown-size model.
    #[must_use]
    pub fn known_ring_size(&self) -> Option<usize> {
        self.known_ring_size
    }

    /// Whether this processor is the leader.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Clears the buffered effects for the next event handler, keeping the
    /// outbox's allocation. The engine reuses one context per run (the
    /// ring size mode never changes mid-run, so only the leader flag is
    /// refreshed).
    pub(crate) fn reset(&mut self, is_leader: bool) {
        self.outbox.clear();
        self.decision = None;
        self.is_leader = is_leader;
    }

    /// Removes and returns the buffered decision.
    pub(crate) fn take_decision(&mut self) -> Option<bool> {
        self.decision.take()
    }

    /// Drains the buffered sends in order, leaving the outbox's capacity
    /// in place for the next event.
    pub(crate) fn drain_outbox(&mut self) -> std::vec::Drain<'_, (Direction, BitString)> {
        self.outbox.drain(..)
    }
}

/// One processor's algorithm: a state machine driven by message events.
///
/// The simulator creates one `Process` per processor via the factories on
/// [`Protocol`], calls [`on_start`](Process::on_start) exactly once on the
/// leader, and then [`on_message`](Process::on_message) for every message
/// delivered to the processor.
pub trait Process: Send {
    /// Invoked once on the leader before any message flows.
    ///
    /// The default does nothing, which suits follower-only types.
    ///
    /// # Errors
    ///
    /// Implementations return [`ProcessError`] to signal protocol bugs;
    /// the engine aborts the run.
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        let _ = ctx;
        Ok(())
    }

    /// Invoked when a message travelling in `direction` arrives.
    ///
    /// A message travelling [`Direction::Clockwise`] arrived from the
    /// counter-clockwise neighbour; forwarding it onward means sending
    /// with the same `direction`.
    ///
    /// # Errors
    ///
    /// Implementations return [`ProcessError`] to signal protocol bugs;
    /// the engine aborts the run.
    fn on_message(
        &mut self,
        direction: Direction,
        message: &BitString,
        ctx: &mut Context,
    ) -> ProcessResult;
}

/// A distributed algorithm: factories for the leader and follower
/// processes plus the topology it runs on.
///
/// The single [`follower`](Protocol::follower) factory enforces the
/// paper's model requirement that *all processors other than the leader
/// execute the same algorithm* (parameterized only by their input letter).
///
/// Protocols are `Send + Sync`: a protocol value is an immutable factory
/// (all per-run state lives in the [`Process`] instances it creates), so
/// the parallel sweep executor can share one protocol across worker
/// threads.
pub trait Protocol: Send + Sync {
    /// Short name used in reports and benches.
    fn name(&self) -> &'static str;

    /// The topology this protocol requires.
    fn topology(&self) -> Topology;

    /// Creates the leader's process. `input` is the leader's letter `σ₁`.
    fn leader(&self, input: Symbol) -> Box<dyn Process>;

    /// Creates a follower's process. `input` is that processor's letter.
    fn follower(&self, input: Symbol) -> Box<dyn Process>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_sends_and_decision() {
        let mut ctx = Context::new(true, None);
        ctx.send(Direction::Clockwise, BitString::parse("101").unwrap());
        ctx.send(Direction::CounterClockwise, BitString::parse("0").unwrap());
        ctx.decide(true);
        let (outbox, decision) = ctx.into_effects();
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0].0, Direction::Clockwise);
        assert_eq!(outbox[0].1.len(), 3);
        assert_eq!(decision, Some(true));
    }

    #[test]
    fn context_exposes_mode() {
        let ctx = Context::new(false, Some(12));
        assert!(!ctx.is_leader());
        assert_eq!(ctx.known_ring_size(), Some(12));
        let ctx = Context::new(true, None);
        assert!(ctx.is_leader());
        assert_eq!(ctx.known_ring_size(), None);
    }

    #[test]
    fn process_error_from_decode_error() {
        let e: ProcessError = DecodeError::UnexpectedEnd { at: 0, needed: 1 }.into();
        assert!(matches!(e, ProcessError::Decode(_)));
        assert!(e.to_string().contains("decode failed"));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
