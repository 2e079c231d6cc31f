//! E1 and E5: regular languages cost `O(n)` bits, uni- and bidirectionally.

use ringleader_analysis::{
    fit_label, fit_series, sweep_protocol_with, ExperimentResult, ExperimentSpec, GridProfile,
    GrowthModel, RunCtx, ScaleGrid, ScheduleScenario, Verdict,
};
use ringleader_core::{BidirMeetInMiddle, DfaOnePass};
use ringleader_langs::{regular_corpus, DfaLanguage, Language};

/// E1 — Theorem 1: every regular language is recognized in exactly
/// `n·⌈log₂|Q|⌉` bits by the one-pass state-forwarding algorithm.
///
/// For each corpus language the sweep must (i) decide correctly, (ii)
/// match the closed-form bit count at every size, and (iii) fit the
/// linear model. Carries the `dfa-one-pass` schedule scenario replayed
/// by E12's matrix.
pub(crate) fn e1_spec() -> ExperimentSpec {
    ExperimentSpec::new(
        "E1",
        "Regular languages: one pass, n·ceil(log|Q|) bits",
        "Theorem 1: BIT_A(n) <= ceil(log |Q|) * n = O(n)",
        GridProfile::per_scale(
            ScaleGrid::new(vec![16, 32, 64], 2),
            ScaleGrid::new(vec![16, 32, 64, 128, 256, 512, 1024], 3),
            ScaleGrid::new(vec![4096, 16384, 65536], 2),
        )
        // The linear tier is cheap enough for single runs at a million
        // processors on the serial engine.
        .massive(ScaleGrid::new(vec![131_072, 262_144, 524_288, 1_000_000], 1)),
        run_e1,
    )
    .with_expected_model(GrowthModel::Linear)
    .with_scenario(dfa_scenario())
}

/// The deterministic one-pass DFA scenario: schedules cannot change its
/// bits, making it the matrix's regular-language representative.
fn dfa_scenario() -> ScheduleScenario {
    let sigma = ringleader_automata::Alphabet::from_chars("ab").expect("valid alphabet");
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).expect("pattern compiles");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let word = lang.positive_example(64, &mut rng).expect("positives exist");
    ScheduleScenario::new("dfa-one-pass", move || Box::new(DfaOnePass::new(&lang)), word)
}

fn run_e1(ctx: &RunCtx<'_>) -> ExperimentResult {
    let mut result = ctx.new_result(vec![
        "language".into(),
        "|Q|".into(),
        "bits/msg".into(),
        format!("bits(n={})", ctx.max_size()),
        "predicted".into(),
        "fit".into(),
    ]);
    let mut all_good = true;
    for lang in regular_corpus() {
        let proto = DfaOnePass::new(&lang);
        let config = ctx.sweep_config();
        let points = match sweep_protocol_with(&proto, &lang, &config, ctx.exec()) {
            Ok(p) => p,
            Err(e) => {
                result.push_note(format!("{}: simulation error {e}", lang.name()));
                all_good = false;
                continue;
            }
        };
        let exact = points.iter().all(|p| p.bits == proto.predicted_bits(p.n));
        let series: Vec<(usize, f64)> = points.iter().map(|p| (p.n, p.bits as f64)).collect();
        // A 0-bit-per-message protocol (|Q|=1) measures 0 at every n and
        // cannot be fitted; exactness already covers it.
        let fit_cell = if proto.state_bits() == 0 {
            "exact-zero".to_owned()
        } else {
            let fit = fit_series(&series);
            if fit.best_model != GrowthModel::Linear {
                all_good = false;
            }
            fit_label(&fit)
        };
        if !exact {
            all_good = false;
        }
        let last = points.last().expect("non-empty sweep");
        result.push_row(vec![
            lang.name(),
            lang.dfa().state_count().to_string(),
            proto.state_bits().to_string(),
            last.bits.to_string(),
            proto.predicted_bits(last.n).to_string(),
            fit_cell,
        ]);
    }
    result.push_note("every row's bits match the closed form at every swept size");
    result.set_verdict(if all_good {
        Verdict::Reproduced
    } else {
        Verdict::Failed("some language missed the linear bound".into())
    });
    result
}

/// E5 — Theorems 6/7: bidirectional rings change nothing asymptotically:
/// the meet-in-the-middle protocol stays linear with constant-size
/// messages, while genuinely using both directions.
pub(crate) fn e5_spec() -> ExperimentSpec {
    ExperimentSpec::new(
        "E5",
        "Bidirectional regular recognition stays O(n)",
        "Theorems 6/7: O(n) bits iff regular, also on bidirectional rings",
        GridProfile::per_scale(
            ScaleGrid::new(vec![16, 32, 64], 2),
            ScaleGrid::new(vec![16, 32, 64, 128, 256, 512, 1024], 3),
            ScaleGrid::new(vec![4096, 16384, 32768], 2),
        ),
        run_e5,
    )
    .with_expected_model(GrowthModel::Linear)
}

fn run_e5(ctx: &RunCtx<'_>) -> ExperimentResult {
    let mut result = ctx.new_result(vec![
        "language".into(),
        format!("bits(n={})", ctx.max_size()),
        "unidir bits".into(),
        "ratio".into(),
        "max msg bits".into(),
        "fit".into(),
    ]);
    let mut all_good = true;
    for lang in regular_corpus() {
        let bidir = BidirMeetInMiddle::new(&lang);
        let unidir = DfaOnePass::new(&lang);
        let config = ctx.sweep_config();
        let (bi_points, uni_points) = match (
            sweep_protocol_with(&bidir, &lang, &config, ctx.exec()),
            sweep_protocol_with(&unidir, &lang, &config, ctx.exec()),
        ) {
            (Ok(b), Ok(u)) => (b, u),
            _ => {
                result.push_note(format!("{}: simulation error", lang.name()));
                all_good = false;
                continue;
            }
        };
        let last = bi_points.last().expect("non-empty sweep");
        let uni_last = uni_points.last().expect("non-empty sweep");
        let ratio =
            if uni_last.bits > 0 { last.bits as f64 / uni_last.bits as f64 } else { f64::NAN };
        // Message sizes bounded by a constant (|Q|-dependent, n-independent).
        if last.max_message_bits > bidir.message_bits_bound() {
            all_good = false;
        }
        let series: Vec<(usize, f64)> =
            bi_points.iter().filter(|p| p.bits > 0).map(|p| (p.n, p.bits as f64)).collect();
        let fit_cell = if series.len() >= 3 {
            let fit = fit_series(&series);
            if fit.best_model != GrowthModel::Linear {
                all_good = false;
            }
            fit_label(&fit)
        } else {
            "exact-zero".to_owned()
        };
        result.push_row(vec![
            lang.name(),
            last.bits.to_string(),
            uni_last.bits.to_string(),
            if ratio.is_nan() { "-".into() } else { format!("{ratio:.2}") },
            last.max_message_bits.to_string(),
            fit_cell,
        ]);
    }
    result.push_note("bidirectional constant is larger (g-function probes carry |Q| bits) but growth stays linear");

    // BIT quantifies over all executions: measure the schedule spread for
    // one representative workload and confirm even the worst case is O(n).
    let lang = &regular_corpus()[2]; // (a|b)*abb
    let bidir = BidirMeetInMiddle::new(lang);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(6);
    if let Some(word) =
        lang.positive_example(256, &mut rng).or_else(|| lang.negative_example(256, &mut rng))
    {
        match ringleader_analysis::bits_across_schedules(&bidir, &word, 6) {
            Ok(bits) => {
                let min = bits.iter().min().copied().unwrap_or(0);
                let max = bits.iter().max().copied().unwrap_or(0);
                if max > 16 * 256 {
                    // Far above any linear constant seen in the table.
                    all_good = false;
                }
                result.push_note(format!(
                    "schedule spread at n=256 over 8 schedules: {min}..{max} bits (worst case still O(n))"
                ));
            }
            Err(e) => {
                all_good = false;
                result.push_note(format!("schedule sweep failed: {e}"));
            }
        }
    }

    result.set_verdict(if all_good {
        Verdict::Reproduced
    } else {
        Verdict::Failed("bidirectional protocol exceeded linear behaviour".into())
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringleader_analysis::{Scale, Serial};

    #[test]
    fn e1_reproduces() {
        let r = e1_spec().run(&Serial, Scale::Paper);
        assert_eq!(r.verdict, Verdict::Reproduced, "{r}");
        assert_eq!(r.rows.len(), regular_corpus().len());
        // Every predicted column equals the measured column.
        for row in &r.rows {
            assert_eq!(row[3], row[4], "{row:?}");
        }
    }

    #[test]
    fn e5_reproduces() {
        let r = e5_spec().run(&Serial, Scale::Paper);
        assert_eq!(r.verdict, Verdict::Reproduced, "{r}");
        assert_eq!(r.rows.len(), regular_corpus().len());
    }

    #[test]
    fn e1_smoke_scale_stays_linear_and_exact() {
        let r = e1_spec().run(&Serial, Scale::Smoke);
        assert_eq!(r.verdict, Verdict::Reproduced, "{r}");
        // The headline column follows the smoke grid's largest size.
        assert!(r.columns.contains(&"bits(n=64)".to_owned()), "{:?}", r.columns);
    }
}
