//! Deterministic fault injection — first-class fault plans.
//!
//! The paper's model has no faults: a correct protocol never sees a
//! corrupted message, never stalls, never loses a processor. That makes
//! the *failure paths* of this simulator — every [`SimError`] variant —
//! unreachable from correct protocols, and historically they were
//! exercised only by ad-hoc corrupting adapters buried in integration
//! tests. A [`FaultPlan`] turns fault injection into a library
//! capability: a deterministic schedule of injections, keyed by
//! `(position, per-position delivery count)`, that [`RingRunner`]
//! applies at exactly the same point of every execution. Equal plans on
//! equal runs give equal failures — fault injection is as reproducible
//! as the runs themselves. The threaded runner applies no plans.
//!
//! The plan is evaluated on the *receiving* side of a delivery:
//!
//! * [`FaultAction::Corrupt`] rewrites the payload before the handler
//!   (and before the trace records the delivery — the trace shows what
//!   the processor actually saw);
//! * [`FaultAction::Stall`] discards the handler's sends and decision,
//!   making the processor appear unresponsive for that event;
//! * [`FaultAction::InjectSend`] / [`FaultAction::InjectDecide`] append
//!   effects after the handler, as if the processor had emitted them —
//!   the direct route to [`SimError::IllegalSend`],
//!   [`SimError::FollowerDecided`], and (by flooding)
//!   [`SimError::EventLimitExceeded`];
//! * [`FaultAction::Delay`] sleeps before handling — wall-clock only,
//!   observables unchanged, for exercising timeouts and backpressure.
//!
//! [`RingRunner`]: crate::RingRunner
//! [`SimError`]: crate::SimError
//! [`SimError::IllegalSend`]: crate::SimError::IllegalSend
//! [`SimError::FollowerDecided`]: crate::SimError::FollowerDecided
//! [`SimError::EventLimitExceeded`]: crate::SimError::EventLimitExceeded

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ringleader_bitio::BitString;

use crate::Direction;

/// A payload rewrite applied to a message as it is delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Corruption {
    /// Drop the last `k` bits (saturating: at most the whole message).
    TruncateBits(usize),
    /// Flip the bit at a 0-based index; an out-of-range index leaves the
    /// message intact.
    FlipBit(usize),
    /// Replace the payload with the empty message.
    Zero,
}

impl Corruption {
    /// The corrupted form of `payload`.
    #[must_use]
    pub fn apply(&self, payload: &BitString) -> BitString {
        match self {
            Corruption::TruncateBits(k) => payload.slice(0..payload.len().saturating_sub(*k)),
            Corruption::FlipBit(i) => BitString::from_bits(
                payload.iter().enumerate().map(|(j, b)| if j == *i { !b } else { b }),
            ),
            Corruption::Zero => BitString::new(),
        }
    }
}

/// What a [`Fault`] does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Rewrite the delivered payload before the handler sees it.
    Corrupt(Corruption),
    /// Discard the handler's sends and decision for this delivery.
    Stall,
    /// Append a send after the handler returns, as if the receiving
    /// processor had sent it.
    InjectSend {
        /// Direction of the injected message.
        direction: Direction,
        /// Payload of the injected message.
        payload: BitString,
    },
    /// Force a decision after the handler returns, as if the receiving
    /// processor had decided.
    InjectDecide {
        /// The forced decision.
        accept: bool,
    },
    /// Sleep for this long before handling the message. Wall-clock only:
    /// no observable (trace, stats, decision) changes.
    Delay {
        /// Sleep duration in microseconds.
        micros: u64,
    },
}

/// One scheduled injection: fire `action` when the processor at
/// `position` receives its `delivery`-th message (1-based, counted per
/// receiver — a coordinate independent of how deliveries elsewhere
/// interleave, unlike global event indexes, which shift when tracing
/// toggles seq consumption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// 0-based position of the receiving processor (leader = 0).
    pub position: usize,
    /// 1-based count of deliveries at `position` at which to fire.
    pub delivery: u64,
    /// Fire on every delivery from `delivery` onwards instead of once.
    pub recurring: bool,
    /// The injection to perform.
    pub action: FaultAction,
}

/// A deterministic schedule of fault injections.
///
/// Only [`RingRunner`](crate::RingRunner) applies plans; the threaded
/// runner has no fault-plan hook. An empty plan is free: the engine
/// skips fault lookup entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault to the plan.
    pub fn push(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan schedules no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// A seeded plan of `count` one-shot single-bit truncations scattered
    /// uniformly over positions `0..n` and per-position deliveries
    /// `1..=max_delivery`. Equal seeds give equal plans — the fuzzing
    /// entry point for "corrupt *somewhere*, deterministically".
    #[must_use]
    pub fn scatter(seed: u64, n: usize, max_delivery: u64, count: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        for _ in 0..count {
            let position = rng.gen_range(0..n.max(1));
            let delivery = rng.gen_range(0..max_delivery.max(1)) + 1;
            plan.push(Fault {
                position,
                delivery,
                recurring: false,
                action: FaultAction::Corrupt(Corruption::TruncateBits(1)),
            });
        }
        plan
    }

    /// Resolves every fault firing when `position` receives its
    /// `delivery`-th message, folded into one [`DeliveryFault`]. Returns
    /// `None` (the overwhelmingly common case) when nothing fires.
    pub(crate) fn for_delivery(&self, position: usize, delivery: u64) -> Option<DeliveryFault> {
        let mut hit: Option<DeliveryFault> = None;
        for fault in &self.faults {
            let fires = fault.position == position
                && if fault.recurring {
                    delivery >= fault.delivery
                } else {
                    delivery == fault.delivery
                };
            if !fires {
                continue;
            }
            let slot = hit.get_or_insert_with(DeliveryFault::default);
            match &fault.action {
                FaultAction::Corrupt(c) => slot.corrupt = Some(c.clone()),
                FaultAction::Stall => slot.stall = true,
                FaultAction::InjectSend { direction, payload } => {
                    slot.inject_sends.push((*direction, payload.clone()));
                }
                FaultAction::InjectDecide { accept } => slot.inject_decide = Some(*accept),
                FaultAction::Delay { micros } => slot.delay_micros += micros,
            }
        }
        hit
    }
}

/// Everything the fault plan injects at one delivery, pre-resolved so
/// the engine applies it without re-scanning the plan. When several faults
/// fire together, sends and delays accumulate; for corrupt and decide
/// the *last* scheduled fault wins.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryFault {
    pub(crate) corrupt: Option<Corruption>,
    pub(crate) stall: bool,
    pub(crate) delay_micros: u64,
    pub(crate) inject_sends: Vec<(Direction, BitString)>,
    pub(crate) inject_decide: Option<bool>,
}

/// Adapter-style fault injectors for tests that need to corrupt at the
/// *protocol* layer (wrapping factories) rather than the delivery layer.
///
/// `#[doc(hidden)]` like [`crate::sched::testkit`]: test-support
/// surface, not part of the supported API. Prefer [`FaultPlan`] — it is
/// engine-applied and position-exact; the adapter
/// survives for tests of the wrapping technique itself (the Theorem 5
/// cut-link transformation uses the same detached-context pattern).
#[doc(hidden)]
pub mod testkit {
    use ringleader_automata::Symbol;
    use ringleader_bitio::BitString;

    use crate::context::{Context, Process, ProcessResult, Protocol};
    use crate::{Direction, Topology};

    /// Wraps a protocol, truncating the last bit of every message sent by
    /// the process at `at_position` (0 = the leader; any other value
    /// corrupts every follower, since factories cannot see positions) —
    /// a "wire fault" injector.
    pub struct TruncatingAdapter<P> {
        inner: P,
        at_position: usize,
    }

    impl<P> TruncatingAdapter<P> {
        /// Wraps `inner`, corrupting sends leaving `at_position`.
        #[must_use]
        pub fn new(inner: P, at_position: usize) -> Self {
            Self { inner, at_position }
        }
    }

    /// The per-process wrapper [`TruncatingAdapter`] constructs: runs the
    /// inner handler against a detached context, then re-emits its
    /// effects with payloads truncated by one bit.
    pub struct TruncatingProcess {
        inner: Box<dyn Process>,
        corrupt: bool,
    }

    impl Process for TruncatingProcess {
        fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
            self.inner.on_start(ctx)
        }

        fn on_message(
            &mut self,
            dir: Direction,
            msg: &BitString,
            ctx: &mut Context,
        ) -> ProcessResult {
            let mut inner_ctx = Context::detached(ctx.is_leader(), ctx.known_ring_size());
            self.inner.on_message(dir, msg, &mut inner_ctx)?;
            let (sends, decision) = inner_ctx.into_effects();
            for (d, payload) in sends {
                let payload = if self.corrupt && !payload.is_empty() {
                    payload.slice(0..payload.len() - 1)
                } else {
                    payload
                };
                ctx.send(d, payload);
            }
            if let Some(dec) = decision {
                ctx.decide(dec);
            }
            Ok(())
        }
    }

    impl<P: Protocol> Protocol for TruncatingAdapter<P> {
        fn name(&self) -> &'static str {
            "truncating-adapter"
        }

        fn topology(&self) -> Topology {
            self.inner.topology()
        }

        fn leader(&self, input: Symbol) -> Box<dyn Process> {
            Box::new(TruncatingProcess {
                inner: self.inner.leader(input),
                corrupt: self.at_position == 0,
            })
        }

        fn follower(&self, input: Symbol) -> Box<dyn Process> {
            Box::new(TruncatingProcess {
                inner: self.inner.follower(input),
                corrupt: self.at_position != 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> BitString {
        BitString::parse(s).unwrap()
    }

    #[test]
    fn corruption_truncate_saturates() {
        assert_eq!(Corruption::TruncateBits(1).apply(&bits("101")), bits("10"));
        assert_eq!(Corruption::TruncateBits(5).apply(&bits("101")), BitString::new());
    }

    #[test]
    fn corruption_flip_and_zero() {
        assert_eq!(Corruption::FlipBit(0).apply(&bits("101")), bits("001"));
        assert_eq!(Corruption::FlipBit(2).apply(&bits("101")), bits("100"));
        assert_eq!(Corruption::FlipBit(9).apply(&bits("101")), bits("101"));
        assert_eq!(Corruption::Zero.apply(&bits("101")), BitString::new());
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let mut plan = FaultPlan::new();
        plan.push(Fault { position: 2, delivery: 3, recurring: false, action: FaultAction::Stall });
        assert!(plan.for_delivery(2, 2).is_none());
        assert!(plan.for_delivery(2, 3).is_some_and(|f| f.stall));
        assert!(plan.for_delivery(2, 4).is_none());
        assert!(plan.for_delivery(1, 3).is_none());
    }

    #[test]
    fn recurring_fires_from_delivery_onwards() {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            position: 0,
            delivery: 2,
            recurring: true,
            action: FaultAction::Corrupt(Corruption::Zero),
        });
        assert!(plan.for_delivery(0, 1).is_none());
        assert!(plan.for_delivery(0, 2).is_some());
        assert!(plan.for_delivery(0, 100).is_some());
    }

    #[test]
    fn coinciding_faults_fold_into_one() {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            position: 1,
            delivery: 1,
            recurring: false,
            action: FaultAction::Corrupt(Corruption::TruncateBits(1)),
        });
        plan.push(Fault {
            position: 1,
            delivery: 1,
            recurring: false,
            action: FaultAction::InjectSend { direction: Direction::Clockwise, payload: bits("1") },
        });
        plan.push(Fault {
            position: 1,
            delivery: 1,
            recurring: false,
            action: FaultAction::Delay { micros: 5 },
        });
        let f = plan.for_delivery(1, 1).unwrap();
        assert!(f.corrupt.is_some());
        assert_eq!(f.inject_sends.len(), 1);
        assert_eq!(f.delay_micros, 5);
        assert!(!f.stall);
    }

    #[test]
    fn scatter_is_seed_deterministic_and_bounded() {
        let a = FaultPlan::scatter(9, 8, 20, 12);
        let b = FaultPlan::scatter(9, 8, 20, 12);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 12);
        for f in a.faults() {
            assert!(f.position < 8);
            assert!((1..=20).contains(&f.delivery));
            assert!(!f.recurring);
        }
        assert_ne!(a, FaultPlan::scatter(10, 8, 20, 12));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::default().for_delivery(0, 1).is_none());
    }
}
