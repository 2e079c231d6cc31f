//! Crash-safe experiment driving: the [`RunLedger`].
//!
//! An `experiments` invocation runs many specs; an interruption (OOM
//! kill, pre-emption, ctrl-C) should not throw away the specs that
//! already finished. The ledger is the crash-safety story: after each
//! spec completes, its full [`ExperimentResult`] is appended to a JSON
//! ledger file on disk; a resumed invocation loads the ledger, skips
//! every completed spec, and splices the stored results into the final
//! envelope **in spec order** — so the resumed run's JSON output is
//! byte-identical to what the uninterrupted run would have produced.
//!
//! Writes are atomic (write to a sibling temp file, then rename), so a
//! crash *during* a ledger write leaves the previous ledger intact
//! rather than a torn file.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::registry::Scale;
use crate::report::ExperimentResult;

/// Current ledger schema version; bumped on incompatible layout change.
pub const LEDGER_VERSION: u32 = 1;

/// One completed spec in a [`RunLedger`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The experiment id, as registered (`E1`, `E7`, ...).
    pub id: String,
    /// The spec's complete result, exactly as the run produced it.
    pub result: ExperimentResult,
}

/// A persistent record of which specs a (possibly interrupted) batch run
/// has already completed, with their full results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunLedger {
    /// Schema version ([`LEDGER_VERSION`]).
    pub version: u32,
    /// The scale profile the run was started at. A ledger only resumes a
    /// run of the *same* profile — mixing grids would splice results
    /// measured on different workloads into one envelope.
    pub scale: String,
    completed: Vec<LedgerEntry>,
}

impl RunLedger {
    /// An empty ledger for a run at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        RunLedger {
            version: LEDGER_VERSION,
            scale: scale.label().to_string(),
            completed: Vec::new(),
        }
    }

    /// Whether this ledger belongs to a run at `scale`.
    #[must_use]
    pub fn matches_scale(&self, scale: Scale) -> bool {
        self.scale == scale.label()
    }

    /// Records a completed spec. Re-recording an id replaces the stored
    /// result (last write wins), keeping one entry per spec.
    pub fn record(&mut self, result: ExperimentResult) {
        let id = result.id.clone();
        if let Some(entry) = self.completed.iter_mut().find(|e| e.id == id) {
            entry.result = result;
        } else {
            self.completed.push(LedgerEntry { id, result });
        }
    }

    /// The stored result for `id`, if that spec completed.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&ExperimentResult> {
        self.completed.iter().find(|e| e.id == id).map(|e| &e.result)
    }

    /// Whether `id` already completed.
    #[must_use]
    pub fn is_complete(&self, id: &str) -> bool {
        self.get(id).is_some()
    }

    /// Completed entries, in completion order.
    #[must_use]
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.completed
    }

    /// Number of completed specs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether nothing has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Atomically writes the ledger to `path` (temp file + rename), so an
    /// interrupted save never corrupts an existing ledger.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, json)?;
        fs::rename(&tmp, path)
    }

    /// Loads a ledger from `path`, rejecting unknown schema versions.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on malformed JSON or a
    /// version mismatch; propagates filesystem errors otherwise.
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        let ledger: RunLedger = serde_json::from_str(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if ledger.version != LEDGER_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ledger schema v{} (this build reads v{LEDGER_VERSION})", ledger.version),
            ));
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;

    fn result(id: &str, bits: usize) -> ExperimentResult {
        let mut r = ExperimentResult::new(id, "t", "c", vec!["n".into(), "bits".into()]);
        r.push_row(vec!["8".into(), bits.to_string()]);
        r.set_verdict(Verdict::Reproduced);
        r
    }

    #[test]
    fn record_get_and_replace() {
        let mut ledger = RunLedger::new(Scale::Smoke);
        assert!(ledger.is_empty());
        ledger.record(result("E1", 16));
        ledger.record(result("E2", 24));
        assert_eq!(ledger.len(), 2);
        assert!(ledger.is_complete("E1"));
        assert!(!ledger.is_complete("E3"));
        // Last write wins, without duplicating the entry.
        ledger.record(result("E1", 99));
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.get("E1").unwrap().rows[0][1], "99");
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("ringleader-ledger-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.json");
        let mut ledger = RunLedger::new(Scale::Paper);
        ledger.record(result("E1", 16));
        ledger.save(&path).unwrap();
        let back = RunLedger::load(&path).unwrap();
        assert_eq!(back, ledger);
        assert!(back.matches_scale(Scale::Paper));
        assert!(!back.matches_scale(Scale::Smoke));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_future_versions() {
        let dir = std::env::temp_dir().join("ringleader-ledger-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("future.json");
        let mut ledger = RunLedger::new(Scale::Smoke);
        ledger.version = LEDGER_VERSION + 1;
        let json = serde_json::to_string(&ledger).unwrap();
        fs::write(&path, json).unwrap();
        let err = RunLedger::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_file(&path).unwrap();
    }
}
