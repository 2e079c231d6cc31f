//! Engine checkpoint/restore — crash safety for massive runs.
//!
//! An [`EngineSnapshot`] captures *everything the event loop needs* to
//! continue a run as if it had never stopped: per-process protocol
//! state, every link queue with its global sequence numbers, the
//! scheduler's RNG (the occupancy index itself is rebuilt by replaying
//! the queues), accumulated [`ExecStats`], the trace or trace ring, the
//! global seq clock, the delivery count, and the per-position delivery
//! counters fault plans key on. `run → snapshot at event k → restore →
//! finish` is byte-identical — trace, stats, and exact error positions —
//! to an uninterrupted run; the equivalence proptests in
//! `crates/sim/tests/checkpoint_equiv.rs` pin this across scheduling
//! policies. The threaded runner can resume a snapshot but not capture
//! one; see the crate docs' *crash safety & faults* section.
//!
//! Snapshots are serde-serializable (versioned with
//! [`SNAPSHOT_VERSION`]) so the experiments CLI can write them to disk
//! between sweep points and `--resume` after a crash.
//!
//! [`ExecStats`]: crate::ExecStats

use serde::{Deserialize, Serialize};

use ringleader_bitio::BitString;

use crate::engine::Outcome;
use crate::error::SimError;
use crate::sched::Scheduler;
use crate::stats::ExecStats;
use crate::trace::{Trace, TraceRing};

/// Format version stamped into every [`EngineSnapshot`]; restore rejects
/// other versions with [`SimError::Snapshot`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// A paused run: the complete engine state at a delivery boundary.
///
/// Produced by [`RingRunner::run_until`](crate::RingRunner::run_until) /
/// [`resume_until`](crate::RingRunner::resume_until); consumed by
/// [`resume`](crate::RingRunner::resume). The run's *configuration*
/// (scheduler, known-`n` mode, event budget, tracing mode) travels
/// inside the snapshot, so resuming reproduces the interrupted run even
/// on a differently-configured runner; only the fault plan and the
/// metrics handle of the resuming runner apply.
///
/// The fault plan is deliberately **not** serialized: the caller
/// re-supplies it on resume, and the snapshot's per-position delivery
/// counters keep its triggers aligned with the interrupted execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    pub(crate) version: u32,
    pub(crate) n: usize,
    pub(crate) scheduler: Scheduler,
    pub(crate) known_ring_size: bool,
    pub(crate) max_events: usize,
    /// Global send/trace sequence clock.
    pub(crate) seq: u64,
    /// Deliveries performed so far.
    pub(crate) deliveries: usize,
    /// Per-receiver delivery counts (fault-plan coordinates).
    pub(crate) position_deliveries: Vec<u64>,
    pub(crate) stats: ExecStats,
    /// Queue contents per link id (`0..n` clockwise, `n..2n`
    /// counter-clockwise), front of queue first.
    pub(crate) links: Vec<Vec<(u64, BitString)>>,
    /// Scheduler RNG state ([`Scheduler::Random`] only).
    pub(crate) rng: Option<Vec<u64>>,
    /// Per-process protocol state from [`Process::save_state`],
    /// positions `0..n`.
    ///
    /// [`Process::save_state`]: crate::Process::save_state
    pub(crate) processes: Vec<Vec<u8>>,
    pub(crate) trace: Option<Trace>,
    pub(crate) ring: Option<TraceRing>,
}

impl EngineSnapshot {
    /// The snapshot format version.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Ring size the snapshot was captured on.
    #[must_use]
    pub fn ring_size(&self) -> usize {
        self.n
    }

    /// Deliveries performed before the pause.
    #[must_use]
    pub fn deliveries(&self) -> usize {
        self.deliveries
    }

    /// Messages currently in flight across all links.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.links.iter().map(Vec::len).sum()
    }

    /// Checks the snapshot is resumable on a ring of `n` processors.
    ///
    /// A deserialized snapshot is untrusted input, and both runners index
    /// its vectors by position and link id. So besides the version and
    /// ring size, every per-position and per-link vector must have its
    /// exact length, and each link's seqs must strictly increase and stay
    /// below the `seq` clock — the FIFO index relies on both.
    pub(crate) fn validate(&self, n: usize) -> Result<(), SimError> {
        let reject = |reason: String| Err(SimError::Snapshot { reason });
        if self.version != SNAPSHOT_VERSION {
            return reject(format!(
                "snapshot version {} unsupported (this build reads {SNAPSHOT_VERSION})",
                self.version
            ));
        }
        if self.n != n {
            return reject(format!("snapshot of a {}-ring cannot resume a {n}-ring", self.n));
        }
        let lengths = [
            ("links", self.links.len(), 2 * n),
            ("processes", self.processes.len(), n),
            ("position_deliveries", self.position_deliveries.len(), n),
            ("stats.clockwise_link_bits", self.stats.clockwise_link_bits.len(), n),
            ("stats.counter_clockwise_link_bits", self.stats.counter_clockwise_link_bits.len(), n),
        ];
        for (field, len, expected) in lengths {
            if len != expected {
                return reject(format!(
                    "snapshot field `{field}` has {len} entries; a {n}-ring needs {expected}"
                ));
            }
        }
        for (link, queue) in self.links.iter().enumerate() {
            let mut previous = None;
            for &(seq, _) in queue {
                if seq >= self.seq {
                    return reject(format!(
                        "snapshot field `links[{link}]` holds seq {seq}, not below the seq \
                         clock {}",
                        self.seq
                    ));
                }
                if let Some(prev) = previous.filter(|&prev| seq <= prev) {
                    return reject(format!(
                        "snapshot field `links[{link}]` seqs do not strictly increase \
                         ({prev} then {seq})"
                    ));
                }
                previous = Some(seq);
            }
        }
        Ok(())
    }
}

/// Result of [`RingRunner::run_until`](crate::RingRunner::run_until):
/// either the run finished before the pause point, or it paused and
/// produced a snapshot.
// `Done` is much larger than the boxed `Paused` pointer, but the enum is
// a transient return value consumed immediately — boxing `Outcome` would
// cost an allocation on every completed run to save nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunPhase {
    /// The run completed (decision reached) before the pause point.
    Done(Outcome),
    /// The run paused at the requested delivery boundary.
    Paused(Box<EngineSnapshot>),
}

impl RunPhase {
    /// The outcome, if the run completed.
    #[must_use]
    pub fn outcome(self) -> Option<Outcome> {
        match self {
            RunPhase::Done(o) => Some(o),
            RunPhase::Paused(_) => None,
        }
    }

    /// The snapshot, if the run paused.
    #[must_use]
    pub fn snapshot(self) -> Option<EngineSnapshot> {
        match self {
            RunPhase::Done(_) => None,
            RunPhase::Paused(s) => Some(*s),
        }
    }

    /// Whether the run paused.
    #[must_use]
    pub fn is_paused(&self) -> bool {
        matches!(self, RunPhase::Paused(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(n: usize) -> EngineSnapshot {
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            n,
            scheduler: Scheduler::Fifo,
            known_ring_size: false,
            max_events: 100,
            seq: 7,
            deliveries: 3,
            position_deliveries: vec![0; n],
            stats: ExecStats::new(n),
            links: vec![Vec::new(); 2 * n],
            rng: None,
            processes: vec![Vec::new(); n],
            trace: None,
            ring: None,
        }
    }

    /// Asserts `snap` is rejected for a 4-ring with a reason naming `field`.
    fn assert_rejected(snap: &EngineSnapshot, field: &str) {
        let err = snap.validate(4).unwrap_err();
        assert!(matches!(err, SimError::Snapshot { .. }), "{err:?}");
        assert!(err.to_string().contains(&format!("`{field}")), "{err}");
    }

    fn message(seq: u64) -> (u64, BitString) {
        (seq, BitString::parse("1").unwrap())
    }

    #[test]
    fn validate_checks_version_and_ring_size() {
        assert!(snapshot(4).validate(4).is_ok());
        let err = snapshot(4).validate(5).unwrap_err();
        assert!(matches!(err, SimError::Snapshot { .. }), "{err:?}");
        let mut wrong = snapshot(4);
        wrong.version = 99;
        let err = wrong.validate(4).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn validate_accepts_increasing_seqs_below_the_clock() {
        let mut s = snapshot(4);
        s.links[2] = vec![message(1), message(4), message(6)];
        s.links[5] = vec![message(0)];
        assert!(s.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_more_than_2n_links() {
        let mut s = snapshot(4);
        s.links.push(vec![message(0)]);
        assert_rejected(&s, "links");
    }

    #[test]
    fn validate_rejects_a_short_processes_vector() {
        // A short vector would restore only a prefix of the processes.
        let mut s = snapshot(4);
        s.processes.pop();
        assert_rejected(&s, "processes");
    }

    #[test]
    fn validate_rejects_a_wrong_length_position_deliveries() {
        let mut s = snapshot(4);
        s.position_deliveries.push(0);
        assert_rejected(&s, "position_deliveries");
    }

    #[test]
    fn validate_rejects_a_wrong_length_clockwise_stats_vector() {
        let mut s = snapshot(4);
        s.stats.clockwise_link_bits.truncate(2);
        assert_rejected(&s, "stats.clockwise_link_bits");
    }

    #[test]
    fn validate_rejects_a_wrong_length_counter_clockwise_stats_vector() {
        let mut s = snapshot(4);
        s.stats.counter_clockwise_link_bits.push(0);
        assert_rejected(&s, "stats.counter_clockwise_link_bits");
    }

    #[test]
    fn validate_rejects_link_seqs_that_do_not_increase() {
        let mut s = snapshot(4);
        s.links[3] = vec![message(2), message(2)];
        assert_rejected(&s, "links[3]");
        s.links[3] = vec![message(5), message(1)];
        assert_rejected(&s, "links[3]");
    }

    #[test]
    fn validate_rejects_link_seqs_at_or_past_the_clock() {
        let mut s = snapshot(4);
        s.links[6] = vec![message(1), message(7)];
        assert_rejected(&s, "links[6]");
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let mut s = snapshot(2);
        s.links[1].push((5, BitString::parse("101").unwrap()));
        s.rng = Some(vec![1, 2, 3, 4]);
        s.processes[0] = vec![9, 8];
        let content = serde::Serialize::to_content(&s);
        let back: EngineSnapshot = serde::Deserialize::from_content(&content).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.in_flight(), 1);
        assert_eq!(back.ring_size(), 2);
        assert_eq!(back.deliveries(), 3);
        assert_eq!(back.version(), SNAPSHOT_VERSION);
    }
}
