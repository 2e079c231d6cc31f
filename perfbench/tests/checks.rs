//! The benchmark's own checks, on smoke-sized inputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ringleader_core::CollectAll;
use ringleader_langs::{AnBnCn, Language, WcW};
use ringleader_sim::{Protocol, RingRunner};

use perfbench::inputs::{digest, Case, EngineInputs, Inputs};
use perfbench::{measure, per_layer, run, set_up, Options, Setup, Workload, END_TO_END};

fn smoke(workload: Workload, trace: bool) -> Options {
    Options { workload, seed: 7, seconds: 0.0, trace, smoke: true }
}

fn names(report: &perfbench::Report) -> Vec<String> {
    report.metrics.iter().map(|(n, _, _)| n.clone()).collect()
}

#[test]
fn smoke_legs_pass_every_check() {
    for workload in Workload::ALL {
        let report = run(&smoke(workload, false));
        assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0);
        let expected: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&report), expected);
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

#[test]
fn traced_smoke_legs_split_every_layer_and_repeat_the_fingerprint() {
    for workload in Workload::ALL {
        let plain = run(&smoke(workload, false));
        let traced = run(&smoke(workload, true));
        // `correct` includes the untraced and traced passes agreeing.
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.notes);
        assert_eq!(traced.fingerprint, plain.fingerprint, "{}", workload.name());
        assert!(plain.fingerprint.deliveries > 0);
        let expected: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names(&traced), expected);
        let value = |name: &str| {
            traced.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v).expect("listed")
        };
        let suite = workload == Workload::SuiteLarge;
        assert_eq!(value("sweep.jobs") > 0.0, suite, "{}", workload.name());
        assert_eq!(value("handlers.calls") > 0.0, !suite, "{}", workload.name());
        assert_eq!(value("engine.deliveries"), plain.fingerprint.deliveries as f64);
    }
}

#[test]
fn one_seed_gives_one_set_of_inputs() {
    for workload in Workload::ALL {
        let (a, setup) = set_up(&smoke(workload, false));
        assert!(setup.repeatable() && setup.reps() >= 3, "{}", workload.name());
        let (b, _) = set_up(&smoke(workload, false));
        assert_eq!(digest(&a), digest(&b), "{}", workload.name());
        let (c, _) = set_up(&Options { seed: 8, ..smoke(workload, false) });
        // The registry fixes the suite's inputs; every other workload
        // samples its words from the seed.
        assert_eq!(
            digest(&a) == digest(&c),
            workload == Workload::SuiteLarge,
            "{}",
            workload.name()
        );
    }
}

/// `CollectAll` wired to `wcw` but judged against `0ⁿ1ⁿ2ⁿ`: the run is
/// fast and well-formed, and every member word is decided wrongly.
#[test]
fn a_wrong_pairing_is_reported_as_failed() {
    let judge = AnBnCn::new();
    let protocols: Vec<Box<dyn Protocol>> = vec![Box::new(CollectAll::new(Arc::new(WcW::new())))];
    let mut rng = StdRng::seed_from_u64(1);
    let cases = [true, false, true, false]
        .into_iter()
        .map(|positive| {
            let word = if positive {
                judge.positive_example(30, &mut rng)
            } else {
                judge.negative_example(30, &mut rng)
            }
            .expect("0ⁿ1ⁿ2ⁿ has words of length 30 on both sides");
            Case {
                protocol: 0,
                expected: judge.contains(&word),
                word,
                runner: RingRunner::new(),
                schedule: 0,
                predicted_bits: None,
                max_message_bits: None,
                group: None,
            }
        })
        .collect();
    let inputs = Inputs::Engine(EngineInputs { protocols, cases });
    let report = measure(&inputs, &mut Setup::default(), &smoke(Workload::WidePayload, false));
    assert!(!report.correct);
    assert!(report.failed > 0 && report.failed < report.attempted, "{:?}", report.notes);
    assert!(report.notes.iter().any(|n| n.starts_with("fail_ratio = 0.")), "{:?}", report.notes);
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let mut listed = Workload::ALL.iter().map(|w| w.name().to_string()).collect::<Vec<_>>();
    listed.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    listed.extend(per_layer().into_iter().map(|(n, _)| n));
    for name in &listed {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
    }
    assert_eq!(json.matches("\"name\":").count(), listed.len(), "BENCHMARK.json lists extra names");
}

#[test]
fn quantiles_interpolate() {
    let mut xs = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(perfbench::median(&mut xs), 2.5);
    assert!((perfbench::quantile(&mut xs, 0.9) - 3.7).abs() < 1e-12);
    assert_eq!(perfbench::median(&mut []), 0.0);
}
