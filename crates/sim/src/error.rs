//! Simulation errors.

use std::error::Error;
use std::fmt;

use crate::context::ProcessError;
use crate::Direction;

/// An error that aborts a simulation run.
///
/// Every variant indicates either a protocol implementation bug (the
/// paper's model rules them out for correct algorithms) or a configuration
/// problem; none of them occur in the shipped protocols' test suites.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The input word was empty — a ring needs at least one processor.
    EmptyRing,
    /// A processor sent in a direction the topology forbids.
    IllegalSend {
        /// 0-based position of the offending processor (leader = 0).
        position: usize,
        /// The forbidden direction.
        direction: Direction,
    },
    /// A non-leader processor called [`decide`](crate::Context::decide).
    FollowerDecided {
        /// 0-based position of the offending processor.
        position: usize,
    },
    /// All messages were delivered but the leader never decided.
    Stalled {
        /// Number of deliveries that had occurred.
        deliveries: usize,
    },
    /// The configured event budget was exhausted (runaway protocol).
    EventLimitExceeded {
        /// The limit that was hit.
        limit: usize,
    },
    /// A process handler failed.
    Process {
        /// 0-based position of the failing processor.
        position: usize,
        /// The underlying failure.
        source: ProcessError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyRing => write!(f, "ring must have at least one processor"),
            SimError::IllegalSend { position, direction } => {
                write!(f, "processor {position} sent {direction:?}, forbidden by topology")
            }
            SimError::FollowerDecided { position } => {
                write!(f, "follower {position} attempted to decide (only the leader may)")
            }
            SimError::Stalled { deliveries } => {
                write!(
                    f,
                    "no messages in flight after {deliveries} deliveries but leader never decided"
                )
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit {limit} exceeded")
            }
            SimError::Process { position, source } => {
                write!(f, "processor {position} failed: {source}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Process { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = SimError::IllegalSend { position: 3, direction: Direction::CounterClockwise };
        assert!(e.to_string().contains("processor 3"));
        let e = SimError::Stalled { deliveries: 17 };
        assert!(e.to_string().contains("17"));
        let e = SimError::EventLimitExceeded { limit: 9 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn process_error_is_source() {
        use std::error::Error as _;
        let e =
            SimError::Process { position: 1, source: ProcessError::InvalidState("boom".into()) };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
