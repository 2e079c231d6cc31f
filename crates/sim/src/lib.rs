//! Asynchronous ring simulator with exact bit accounting.
//!
//! This crate is the "hardware" of the Mansour & Zaks reproduction: a
//! distributed, asynchronous, message-driven ring of processors with a
//! distinguished **leader**, exactly as §2 of the paper defines it:
//!
//! * Each processor holds one letter of the input word; the leader holds
//!   the first letter and initiates the algorithm.
//! * All non-leader processors run the *same* algorithm (enforced here by
//!   constructing every follower from one factory).
//! * Messages have arbitrary finite delays: a pluggable [`Scheduler`]
//!   chooses which in-flight message is delivered next (links stay FIFO).
//! * The ring size `n` is unknown to every processor — unless the
//!   experiment opts into the paper's Note 7.4 "known `n`" mode.
//! * Execution ends when the leader [`decide`](Context::decide)s; the
//!   total number of message bits sent up to that point is the execution's
//!   bit complexity.
//!
//! Three topologies are supported: the unidirectional ring (§3–4), the
//! bidirectional ring (§5–6), and the open line used in Stage 1 of the
//! Theorem 7 construction.
//!
//! # Execution engines
//!
//! One model, two engines, constrained to agree:
//!
//! * **Serial event loop** ([`RingRunner`]): one thread pops the
//!   scheduler's next in-flight message, delivers it, routes the sends.
//!   Every observable — decision, [`ExecStats`], [`Trace`] — is defined
//!   by this engine. The paper's protocols are token passes started by
//!   the leader, with one or a few messages in flight, so a single ring
//!   has no parallelism to extract; independent runs go wide instead,
//!   across grid points and specs ([`pool::ordered_map`]).
//! * **Threaded runner** ([`ThreadedRunner`]): one OS thread per
//!   processor, each a blocking `recv` loop over one inbox that both
//!   neighbours send into — the most literal reading of the
//!   asynchronous model, used to cross-check that the event loop didn't
//!   bake in a scheduling assumption.
//!
//! # Faults
//!
//! Faults are injected from a first-class plan rather than ad-hoc test
//! adapters. A [`FaultPlan`] ([`RingRunner::fault_plan`]) is a
//! deterministic schedule of injections keyed on (position,
//! per-position delivery count): corrupt/stall/inject-send/
//! inject-decide/delay. Every [`SimError`] variant is reachable on
//! demand — see the `faults` module docs. Only [`RingRunner`] applies
//! plans; [`ThreadedRunner`] has no fault-plan hook.
//!
//! # Observability
//!
//! Both engines record into a shared metrics registry when the caller
//! attaches one via [`RingRunner::metrics`] (or
//! [`ThreadedRunner::metrics`]): a `ringleader_obs::Metrics` handle of
//! named counters, max-gauges, and opaque timers. The default handle is
//! disabled and costs nothing — every record call is an inlined no-op
//! on a `None`.
//!
//! Engine counters flush *once*, when the leader decides, from totals
//! the run already computed (`engine.deliveries`,
//! `engine.scheduler_picks`, `engine.messages`, `engine.bits_sent`, and
//! the `engine.max_message_bits` / `engine.bit_rounds` gauges) — zero
//! hot-loop cost.
//!
//! The load-bearing contract: **metrics read state, they never feed
//! it**. Monotonic wall time lives only inside `ringleader_obs` (the
//! detlint `wallclock-in-sim` carve-out is granted to that one crate by
//! its `Policy:` header), and detlint's `obs-boundary` rule bans reading
//! metric values back in result-affecting crates. A metrics-enabled run
//! is therefore **byte-identical** — outcome, stats, trace, error
//! positions — to the same run with metrics disabled, across engines
//! and schedulers, pinned by `tests/metrics_equiv.rs`.
//!
//! # Examples
//!
//! A one-message protocol: the leader asks its clockwise neighbour to echo
//! one bit, then accepts.
//!
//! ```rust
//! use ringleader_bitio::BitString;
//! use ringleader_sim::{
//!     Context, Direction, Process, ProcessResult, Protocol, RingRunner, Topology,
//! };
//! use ringleader_automata::{Alphabet, Symbol, Word};
//!
//! struct Ping;
//! struct Echo;
//!
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
//!         ctx.send(Direction::Clockwise, BitString::parse("1").unwrap());
//!         Ok(())
//!     }
//!     fn on_message(&mut self, _dir: Direction, _msg: &BitString, ctx: &mut Context) -> ProcessResult {
//!         ctx.decide(true);
//!         Ok(())
//!     }
//! }
//! impl Process for Echo {
//!     fn on_message(&mut self, dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
//!         ctx.send(dir, msg.clone()); // forward onward around the ring
//!         Ok(())
//!     }
//! }
//!
//! struct PingProtocol;
//! impl Protocol for PingProtocol {
//!     fn name(&self) -> &'static str { "ping" }
//!     fn topology(&self) -> Topology { Topology::Unidirectional }
//!     fn leader(&self, _input: Symbol) -> Box<dyn Process> { Box::new(Ping) }
//!     fn follower(&self, _input: Symbol) -> Box<dyn Process> { Box::new(Echo) }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sigma = Alphabet::binary();
//! let word = Word::from_str("0000", &sigma)?; // ring of 4
//! let outcome = RingRunner::new().run(&PingProtocol, &word)?;
//! assert_eq!(outcome.decision, Some(true));
//! assert_eq!(outcome.stats.total_bits, 4); // one bit per hop
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod engine;
mod error;
mod faults;
pub mod pool;
mod sched;
mod stats;
mod threaded;
mod token;
mod trace;

pub use context::{Context, Process, ProcessError, ProcessResult, Protocol};
pub use engine::{Outcome, RingRunner};
pub use error::SimError;
#[doc(hidden)]
pub use faults::testkit as fault_testkit;
pub use faults::{Corruption, Fault, FaultAction, FaultPlan};
pub use sched::Scheduler;
#[doc(hidden)]
pub use sched::{testkit as sched_testkit, LinkIndex};
pub use stats::ExecStats;
pub use threaded::ThreadedRunner;
pub use token::{token_violations, validate_token_discipline};
pub use trace::{EventKind, InfoState, InfoStateEntry, Trace, TraceEvent};

use serde::{Deserialize, Serialize};

/// Direction a message travels around the ring.
///
/// `Clockwise` is the direction of the unidirectional model: from `pᵢ` to
/// `pᵢ₊₁`, with the leader as `p₁`. A processor that receives a message
/// travelling `d` and wants to forward it onward sends it with the same
/// `d`; replying back uses [`Direction::opposite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Towards the next processor (`pᵢ → pᵢ₊₁`).
    Clockwise,
    /// Towards the previous processor (`pᵢ → pᵢ₋₁`).
    CounterClockwise,
}

impl Direction {
    /// The other direction.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Clockwise => Direction::CounterClockwise,
            Direction::CounterClockwise => Direction::Clockwise,
        }
    }
}

/// The communication graph a protocol runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// Ring where messages may only travel clockwise (paper §3–4).
    Unidirectional,
    /// Ring where both directions are allowed (paper §5–6).
    Bidirectional,
    /// Open line `p₁ … pₙ`: the bidirectional ring with the `pₙ ↔ p₁`
    /// link removed (Stage 1 of Theorem 7).
    Line,
}

impl Topology {
    /// Whether this topology admits a message from `position` (0-based,
    /// leader = 0) in `direction` on a ring/line of `n` processors.
    #[must_use]
    pub fn allows(self, position: usize, direction: Direction, n: usize) -> bool {
        match self {
            Topology::Unidirectional => direction == Direction::Clockwise,
            Topology::Bidirectional => true,
            Topology::Line => match direction {
                // The missing link is between p_n (index n-1) and p_1 (index 0).
                Direction::Clockwise => position != n - 1,
                Direction::CounterClockwise => position != 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involutive() {
        assert_eq!(Direction::Clockwise.opposite(), Direction::CounterClockwise);
        assert_eq!(Direction::Clockwise.opposite().opposite(), Direction::Clockwise);
    }

    #[test]
    fn unidirectional_allows_only_clockwise() {
        for pos in 0..4 {
            assert!(Topology::Unidirectional.allows(pos, Direction::Clockwise, 4));
            assert!(!Topology::Unidirectional.allows(pos, Direction::CounterClockwise, 4));
        }
    }

    #[test]
    fn bidirectional_allows_everything() {
        for pos in 0..4 {
            assert!(Topology::Bidirectional.allows(pos, Direction::Clockwise, 4));
            assert!(Topology::Bidirectional.allows(pos, Direction::CounterClockwise, 4));
        }
    }

    #[test]
    fn line_cuts_the_wraparound_link() {
        let n = 5;
        assert!(!Topology::Line.allows(n - 1, Direction::Clockwise, n));
        assert!(!Topology::Line.allows(0, Direction::CounterClockwise, n));
        for pos in 0..n - 1 {
            assert!(Topology::Line.allows(pos, Direction::Clockwise, n));
        }
        for pos in 1..n {
            assert!(Topology::Line.allows(pos, Direction::CounterClockwise, n));
        }
    }
}
