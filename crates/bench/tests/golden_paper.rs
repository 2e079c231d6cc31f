//! Golden-file regression: `--scale paper` must reproduce the seed-era
//! experiment output **byte for byte**.
//!
//! The golden file (`tests/golden/experiments_paper.json`) was generated
//! by the pre-registry `experiments --json` binary: a pretty-printed
//! array of the fourteen `ExperimentResult` records, all REPRODUCED.
//! The registry refactor moved every driver behind
//! [`ringleader_bench::registry`], so this test pins that the paper
//! scale's results — serialized exactly the way the historical binary
//! serialized them — still match the seed bytes, for the serial executor
//! and for an 8-worker pool. The worker count must be unobservable in
//! the output.

use ringleader_analysis::{ExperimentHarness, Parallel, Scale, Serial, SweepExecutor, Verdict};
use ringleader_bench::registry;

const GOLDEN: &str = include_str!("golden/experiments_paper.json");

/// Serializes results the way the pre-registry binary did: a pretty
/// JSON array of records plus a trailing newline.
fn render(exec: &dyn SweepExecutor) -> String {
    let registry = registry();
    let results = ExperimentHarness::new(exec, Scale::Paper).run_all(&registry);
    assert_eq!(results.len(), 14);
    for r in &results {
        assert_eq!(r.verdict, Verdict::Reproduced, "{r}");
    }
    let payload: Vec<serde_json::Value> = results
        .iter()
        .map(|r| serde_json::to_value(r).expect("string-only structs serialize"))
        .collect();
    format!("{}\n", serde_json::to_string_pretty(&payload).expect("valid JSON"))
}

/// Panics with the first differing line instead of dumping two ~20 kB
/// strings on mismatch.
fn assert_same(got: &str, label: &str) {
    if got == GOLDEN {
        return;
    }
    for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, w, "{label}: first divergence from golden file at line {}", i + 1);
    }
    panic!(
        "{label}: output is a strict prefix/extension of the golden file \
         ({} vs {} lines)",
        got.lines().count(),
        GOLDEN.lines().count()
    );
}

#[test]
fn paper_scale_matches_the_seed_output_byte_for_byte() {
    assert_same(&render(&Serial), "serial");
}

#[test]
fn paper_scale_is_worker_invariant_against_the_same_golden() {
    assert_same(&render(&Parallel(8)), "8 workers");
}
