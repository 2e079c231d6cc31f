//! Theorem 1: one-pass recognition of regular languages in `O(n)` bits.
//!
//! Every processor holds a copy of a finite automaton `FA = (Q, Σ, δ, q₀, F)`.
//! The leader sends `q₁ = δ(q₀, σ₁)`; processor `pᵢ` receives `qᵢ₋₁` and
//! forwards `qᵢ = δ(qᵢ₋₁, σᵢ)`. After one pass the leader holds
//! `qₙ = δ(q₀, w)` and accepts iff `qₙ ∈ F`. Each message is one state id:
//! exactly `⌈log₂ |Q|⌉` bits, `n` messages, `BIT_A(n) = n·⌈log₂ |Q|⌉ = O(n)`.

use std::sync::Arc;

use ringleader_automata::{Dfa, StateId, Symbol};
use ringleader_bitio::{bits_for, BitReader, BitString, BitWriter};
use ringleader_langs::DfaLanguage;
use ringleader_sim::{Context, Direction, Process, ProcessResult, Protocol, Topology};

/// The Theorem 1 protocol: unidirectional, one pass, `⌈log |Q|⌉` bits per
/// message.
///
/// Always runs the *minimized* automaton, making the per-message width the
/// best possible for the state-forwarding strategy.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct DfaOnePass {
    dfa: Arc<Dfa>,
    state_bits: u32,
}

impl DfaOnePass {
    /// Builds the protocol for a regular language.
    #[must_use]
    pub fn new(language: &DfaLanguage) -> Self {
        Self::from_dfa(language.dfa())
    }

    /// Builds the protocol from an explicit automaton (minimized first).
    #[must_use]
    pub fn from_dfa(dfa: &Dfa) -> Self {
        let dfa = dfa.minimized();
        let state_bits = bits_for(dfa.state_count());
        Self { dfa: Arc::new(dfa), state_bits }
    }

    /// Bits per message: `⌈log₂ |Q|⌉`.
    #[must_use]
    pub fn state_bits(&self) -> u32 {
        self.state_bits
    }

    /// The exact bit complexity on a ring of `n` processors:
    /// `n·⌈log₂ |Q|⌉`.
    #[must_use]
    pub fn predicted_bits(&self, n: usize) -> usize {
        n * self.state_bits as usize
    }

    fn encode(&self, state: StateId) -> BitString {
        let mut w = BitWriter::new();
        w.write_bits(u64::from(state.0), self.state_bits);
        w.finish()
    }

    fn decode(&self, msg: &BitString) -> Result<StateId, ringleader_bitio::DecodeError> {
        let mut r = BitReader::new(msg);
        let v = r.read_bits(self.state_bits)?;
        Ok(StateId(v as u32))
    }
}

impl Protocol for DfaOnePass {
    fn name(&self) -> &'static str {
        "dfa-one-pass"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(LeaderProcess { proto: self.clone(), input })
    }

    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(FollowerProcess { proto: self.clone(), input })
    }
}

impl crate::graph::OnePassRule for DfaOnePass {
    fn alphabet(&self) -> ringleader_automata::Alphabet {
        self.dfa.alphabet().clone()
    }

    fn initial(&self, letter: Symbol) -> BitString {
        self.encode(self.dfa.step(self.dfa.start(), letter))
    }

    fn next(&self, incoming: &BitString, letter: Symbol) -> BitString {
        let q = self.decode(incoming).expect("explorer feeds back our own encodings");
        self.encode(self.dfa.step(q, letter))
    }

    fn accept(&self, final_message: &BitString) -> bool {
        let q = self.decode(final_message).expect("explorer feeds back our own encodings");
        self.dfa.is_accepting(q)
    }

    fn accept_empty(&self) -> bool {
        self.dfa.is_accepting(self.dfa.start())
    }
}

struct LeaderProcess {
    proto: DfaOnePass,
    input: Symbol,
}

impl Process for LeaderProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        let q1 = self.proto.dfa.step(self.proto.dfa.start(), self.input);
        ctx.send(Direction::Clockwise, self.proto.encode(q1));
        Ok(())
    }

    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let qn = self.proto.decode(msg)?;
        ctx.decide(self.proto.dfa.is_accepting(qn));
        Ok(())
    }
}

struct FollowerProcess {
    proto: DfaOnePass,
    input: Symbol,
}

impl Process for FollowerProcess {
    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let q = self.proto.decode(msg)?;
        let next = self.proto.dfa.step(q, self.input);
        ctx.send(Direction::Clockwise, self.proto.encode(next));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringleader_automata::{Alphabet, Word};
    use ringleader_langs::{regular_corpus, Language};
    use ringleader_sim::RingRunner;

    #[test]
    fn decision_matches_language_on_corpus() {
        let mut rng = StdRng::seed_from_u64(11);
        for lang in regular_corpus() {
            let proto = DfaOnePass::new(&lang);
            for n in 1..=10usize {
                for _ in 0..6 {
                    for want in [true, false] {
                        let Some(w) = (if want {
                            lang.positive_example(n, &mut rng)
                        } else {
                            lang.negative_example(n, &mut rng)
                        }) else {
                            continue;
                        };
                        let outcome = RingRunner::new().run(&proto, &w).unwrap();
                        assert_eq!(outcome.accepted(), want, "{} on {:?}", lang.name(), w);
                    }
                }
            }
        }
    }

    #[test]
    fn bit_complexity_is_exactly_n_log_q() {
        let mut rng = StdRng::seed_from_u64(7);
        for lang in regular_corpus() {
            let proto = DfaOnePass::new(&lang);
            for n in [1usize, 2, 8, 33, 100] {
                let w = lang
                    .positive_example(n, &mut rng)
                    .or_else(|| lang.negative_example(n, &mut rng))
                    .expect("some word of every length exists");
                let outcome = RingRunner::new().run(&proto, &w).unwrap();
                assert_eq!(
                    outcome.stats.total_bits,
                    proto.predicted_bits(n),
                    "{} at n={n}",
                    lang.name()
                );
                assert_eq!(outcome.stats.message_count, n);
                assert_eq!(outcome.stats.max_message_bits, proto.state_bits() as usize);
            }
        }
    }

    #[test]
    fn exhaustive_equivalence_small_n() {
        // For every word of length <= 9 the protocol decision equals DFA
        // membership — the full Theorem 1 statement at small scale.
        let sigma = Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("(a|b)*abb", &sigma).unwrap();
        let proto = DfaOnePass::new(&lang);
        for len in 1..=9usize {
            for idx in 0..(1usize << len) {
                let text: String =
                    (0..len).map(|i| if (idx >> i) & 1 == 0 { 'a' } else { 'b' }).collect();
                let w = Word::from_str(&text, &sigma).unwrap();
                let outcome = RingRunner::new().run(&proto, &w).unwrap();
                assert_eq!(outcome.accepted(), lang.contains(&w), "{text}");
            }
        }
    }

    #[test]
    fn single_state_automaton_sends_zero_bit_messages() {
        // Universal language: |Q| = 1 → 0 bits per message; the pass still
        // happens (n messages) but costs nothing.
        let sigma = Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("(a|b)*", &sigma).unwrap();
        assert_eq!(lang.dfa().state_count(), 1);
        let proto = DfaOnePass::new(&lang);
        let w = Word::from_str("abba", &sigma).unwrap();
        let outcome = RingRunner::new().run(&proto, &w).unwrap();
        assert!(outcome.accepted());
        assert_eq!(outcome.stats.total_bits, 0);
        assert_eq!(outcome.stats.message_count, 4);
    }

    #[test]
    fn one_pass_uses_each_link_once() {
        let sigma = Alphabet::from_chars("ab").unwrap();
        let lang = DfaLanguage::from_regex("a*b*", &sigma).unwrap();
        let proto = DfaOnePass::new(&lang);
        let w = Word::from_str("aabb", &sigma).unwrap();
        let outcome = RingRunner::new().run(&proto, &w).unwrap();
        let per_link = proto.state_bits() as usize;
        assert!(outcome.stats.clockwise_link_bits.iter().all(|&b| b == per_link));
        assert!(outcome.stats.counter_clockwise_link_bits.iter().all(|&b| b == 0));
    }
}
