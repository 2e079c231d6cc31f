//! Regenerates every quantitative claim of Mansour & Zaks (PODC 1986).
//!
//! ```text
//! experiments                       # run all fourteen experiments
//! experiments e7 e10                # run a subset, in argument order
//! experiments --filter counter      # run experiments matching a substring
//! experiments --scale large         # smoke | paper (default) | large | massive
//! experiments --json out.json       # also dump the versioned JSON envelope
//! experiments --workers 8           # parallel sweeps on 8 threads
//! experiments --workers 0           # one thread per CPU
//! experiments --checkpoint-dir ckpt # write a resume ledger after each spec
//! experiments --resume ckpt/ledger-smoke.json   # skip completed specs
//! experiments --halt-after 3        # stop (exit 2) after 3 fresh specs
//! experiments --metrics run.json    # dump a versioned RunReport of telemetry
//! experiments --progress            # heartbeat on stderr after each spec
//! experiments --list                # list experiment ids and titles
//! ```
//!
//! The id table, `--list`, and dispatch all derive from
//! [`ringleader_bench::registry`] — there is no second experiment table
//! to drift. `--workers N` fans every sweep's grid points out to `N`
//! worker threads; each single run stays on one thread, because a
//! leader-started token pass has nothing to run in parallel. Results
//! (tables and JSON) are byte-identical for every `N` — only wall-clock
//! time changes. Unknown flags are rejected (a typo like `--jsn` must
//! not silently run the full suite).
//!
//! The JSON envelope is versioned: `schema_version`, the scale profile,
//! and each experiment's grid metadata ride alongside the result
//! records, so downstream diffs are self-describing. At `--scale paper`
//! the `result` records are byte-identical to the historical
//! (pre-registry) output.
//!
//! # Crash safety
//!
//! `--checkpoint-dir D` appends every completed spec's full result to a
//! [`RunLedger`] at `D/ledger-<scale>.json`, rewritten after every
//! freshly computed spec (atomic temp-file and rename writes). If the
//! invocation dies — OOM kill, pre-emption, ctrl-C — rerunning with
//! `--resume <ledger>` skips every completed spec and splices its stored
//! result into the output *in spec order*: the resumed run's tables and
//! JSON envelope are byte-identical to the uninterrupted run's.
//! `--halt-after N` stops deterministically (exit code 2) after `N`
//! freshly-computed specs — the hook the tests and CI use to rehearse
//! the kill-resume cycle without actual signal delivery.
//!
//! # Observability
//!
//! `--metrics <path>` attaches an enabled
//! [`Metrics`](ringleader_obs::Metrics) registry to every run and dumps
//! a versioned [`RunReport`](ringleader_obs::RunReport) JSON at the end:
//! engine counters and gauges. `--progress` prints an elapsed-time
//! heartbeat to stderr after each spec. Both are observability only — stdout tables
//! and the `--json` envelope are byte-identical with or without them.
//!
//! Exit code 0 iff every executed experiment's verdict is REPRODUCED;
//! exit code 2 on a `--halt-after` stop.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ringleader_analysis::{
    executor_for, ExperimentHarness, ExperimentResult, RunLedger, Scale, ScaleGrid, Verdict,
};
use ringleader_bench::registry;
use ringleader_obs::{Metrics, Progress};
use serde::Serialize;

/// Schema version of the `--json` envelope. Bump when the envelope
/// layout (not the experiment grids) changes shape.
const SCHEMA_VERSION: u32 = 1;

const KNOWN_FLAGS: &str = "--list, --scale <smoke|paper|large|massive>, --filter <substring>, \
     --workers <n>, --json <path>, --checkpoint-dir <dir>, --resume <ledger>, \
     --halt-after <n>, --metrics <path>, --progress";

#[derive(Serialize)]
struct EnvelopeEntry {
    id: String,
    grid: ScaleGrid,
    result: serde_json::Value,
}

#[derive(Serialize)]
struct Envelope {
    schema_version: u32,
    scale: String,
    experiments: Vec<EnvelopeEntry>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = registry();

    let mut json_path: Option<String> = None;
    let mut workers = 1usize;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut halt_after: Option<usize> = None;
    let mut metrics_path: Option<String> = None;
    let mut progress_flag = false;
    let mut scale = Scale::Paper;
    let mut filter: Option<String> = None;
    let mut list = false;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match iter.next().as_deref().map(str::parse::<usize>) {
                Some(Ok(n)) => workers = n,
                _ => {
                    eprintln!("--workers requires a thread count (0 = one per CPU)");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-dir" => match iter.next() {
                Some(dir) => checkpoint_dir = Some(dir),
                None => {
                    eprintln!("--checkpoint-dir requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match iter.next() {
                Some(path) => resume_path = Some(path),
                None => {
                    eprintln!("--resume requires a ledger path");
                    return ExitCode::FAILURE;
                }
            },
            "--halt-after" => match iter.next().as_deref().map(str::parse::<usize>) {
                Some(Ok(n)) if n >= 1 => halt_after = Some(n),
                _ => {
                    eprintln!("--halt-after requires a spec count of at least 1");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics" => match iter.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("--metrics requires a path for the RunReport JSON");
                    return ExitCode::FAILURE;
                }
            },
            "--progress" => progress_flag = true,
            "--scale" => match iter.next().as_deref().map(Scale::parse) {
                Some(Some(s)) => scale = s,
                Some(None) => {
                    eprintln!("--scale must be one of: smoke, paper, large, massive");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--scale requires a profile (smoke, paper, large, massive)");
                    return ExitCode::FAILURE;
                }
            },
            "--filter" => match iter.next() {
                Some(needle) => filter = Some(needle),
                None => {
                    eprintln!("--filter requires a substring");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?} (known flags: {KNOWN_FLAGS})");
                return ExitCode::FAILURE;
            }
            _ => ids.push(arg),
        }
    }

    if list {
        for spec in registry.specs() {
            println!("{:>4}  {}", spec.id().to_ascii_lowercase(), spec.title());
        }
        return ExitCode::SUCCESS;
    }

    // Selection: explicit ids in argument order (duplicates allowed, like
    // the historical CLI), then any filter matches not already selected,
    // in registry order; no selectors at all means the full suite.
    let mut selected = Vec::new();
    for id in &ids {
        match registry.get(id) {
            Some(spec) => selected.push(spec),
            None => {
                eprintln!("unknown experiment id {id:?} (try --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(needle) = &filter {
        let matches = registry.filter(needle);
        if matches.is_empty() {
            eprintln!("no experiment id or title matches --filter {needle:?} (try --list)");
            return ExitCode::FAILURE;
        }
        for spec in matches {
            if !selected.iter().any(|s| s.id() == spec.id()) {
                selected.push(spec);
            }
        }
    }
    if selected.is_empty() {
        selected = registry.specs().iter().collect();
    }

    // Crash safety: load any prior ledger, decide where checkpoints go.
    // With --checkpoint-dir the ledger lives at <dir>/ledger-<scale>.json;
    // a bare --resume keeps checkpointing to the resumed file itself.
    let mut ledger = match &resume_path {
        Some(path) => match RunLedger::load(Path::new(path)) {
            Ok(l) if l.matches_scale(scale) => {
                println!("resuming from {path}: {} experiment(s) already complete", l.len());
                l
            }
            Ok(l) => {
                eprintln!(
                    "{path} is a {} ledger; this invocation runs at {} (pass --scale {})",
                    l.scale,
                    scale.label(),
                    l.scale
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("failed loading ledger {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => RunLedger::new(scale),
    };
    let ledger_path: Option<PathBuf> = checkpoint_dir
        .as_ref()
        .map(|dir| Path::new(dir).join(format!("ledger-{}.json", scale.label())))
        .or_else(|| resume_path.as_ref().map(PathBuf::from));
    if let Some(dir) = &checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed creating checkpoint dir {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let write_metrics = |metrics: &Metrics| -> Result<(), ExitCode> {
        if let Some(path) = &metrics_path {
            if let Err(e) = metrics.write_report(Path::new(path)) {
                eprintln!("failed writing metrics report {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            println!("wrote {path}");
        }
        Ok(())
    };

    // 0 means "one worker per CPU" — executor_for shares the convention.
    let exec = executor_for(workers);
    // Telemetry never feeds back: results are byte-identical whether the
    // registry is enabled, disabled, or absent.
    let metrics = if metrics_path.is_some() { Metrics::enabled() } else { Metrics::disabled() };
    let progress = Progress::new(progress_flag);
    let harness = ExperimentHarness::new(exec.as_ref(), scale).with_metrics(metrics.clone());

    // Run in spec order, skipping anything the ledger already holds; the
    // splice keeps tables and envelope byte-identical to an
    // uninterrupted run.
    let mut results: Vec<ExperimentResult> = Vec::with_capacity(selected.len());
    let mut fresh = 0usize;
    for spec in &selected {
        if let Some(stored) = ledger.get(spec.id()) {
            results.push(stored.clone());
            progress.tick(&format!("{} spliced from ledger", spec.id()));
            continue;
        }
        let result = harness.run(spec);
        ledger.record(result.clone());
        results.push(result);
        fresh += 1;
        progress.tick(&format!("{} done ({fresh} fresh)", spec.id()));
        if let Some(path) = &ledger_path {
            if let Err(e) = ledger.save(path) {
                eprintln!("failed writing ledger {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if halt_after == Some(fresh) {
            match &ledger_path {
                Some(path) => eprintln!(
                    "halted after {fresh} fresh experiment(s); resume with --resume {}",
                    path.display()
                ),
                None => eprintln!("halted after {fresh} fresh experiment(s); no ledger was kept"),
            }
            // The report covers only the specs run before the halt.
            if let Err(code) = write_metrics(&metrics) {
                return code;
            }
            return ExitCode::from(2);
        }
    }

    let mut all_reproduced = true;
    for r in &results {
        println!("{r}");
        if r.verdict != Verdict::Reproduced {
            all_reproduced = false;
        }
    }

    println!(
        "summary: {}/{} experiments reproduced",
        results.iter().filter(|r| r.verdict == Verdict::Reproduced).count(),
        results.len()
    );

    if let Some(path) = json_path {
        let envelope = Envelope {
            schema_version: SCHEMA_VERSION,
            scale: scale.label().to_owned(),
            experiments: selected
                .iter()
                .zip(&results)
                .map(|(spec, r)| EnvelopeEntry {
                    id: spec.id().to_owned(),
                    grid: spec.grid(scale).clone(),
                    result: serde_json::to_value(r).expect("string-only structs serialize"),
                })
                .collect(),
        };
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                if let Err(e) =
                    writeln!(f, "{}", serde_json::to_string_pretty(&envelope).expect("valid JSON"))
                {
                    eprintln!("failed writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            Err(e) => {
                eprintln!("failed creating {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Err(code) = write_metrics(&metrics) {
        return code;
    }
    progress.tick("suite complete");

    if all_reproduced {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
