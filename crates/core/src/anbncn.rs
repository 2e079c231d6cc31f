//! Note 7.2: `{0ⁿ1ⁿ2ⁿ}` in `O(n log n)` bits with three counters.
//!
//! "The language `L = {0ⁿ1ⁿ2ⁿ | n > 0}` can be recognized in `O(n log n)`
//! bits, using three counters sent around the ring." The single message
//! carries a 1-bit validity flag, a 2-bit phase (which letter region the
//! scan is in), and three Elias-delta counters. Each processor checks the
//! region sequence is non-decreasing `0 → 1 → 2` and bumps its letter's
//! counter; the leader accepts iff the structure held and all three
//! counters agree. Every message is `O(log n)` bits, so the pass totals
//! `O(n log n)` — a context-sensitive language *below* the `Θ(n²)` cost of
//! the context-free `wcw`: the bit hierarchy defies Chomsky.

use ringleader_automata::Symbol;
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_langs::{AnBnCn, Language};
use ringleader_sim::{
    Context, Direction, Process, ProcessError, ProcessResult, Protocol, Topology,
};

/// The three-counter recognizer for `0ⁿ1ⁿ2ⁿ`.
///
/// # Examples
///
/// ```rust
/// # use ringleader_core::ThreeCounters;
/// # use ringleader_langs::Language;
/// # use ringleader_automata::Word;
/// # use ringleader_sim::RingRunner;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let proto = ThreeCounters::new();
/// let w = Word::from_str("001122", proto.language().alphabet())?;
/// assert!(RingRunner::new().run(&proto, &w)?.accepted());
/// let w = Word::from_str("002112", proto.language().alphabet())?;
/// assert!(!RingRunner::new().run(&proto, &w)?.accepted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThreeCounters {
    language: AnBnCn,
}

/// The in-flight token: scan validity, current region, three counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token {
    valid: bool,
    region: u8,
    counts: [u64; 3],
}

impl Token {
    fn encode(&self) -> BitString {
        let mut w = BitWriter::new();
        w.write_bit(self.valid);
        w.write_bits(u64::from(self.region), 2);
        for c in self.counts {
            w.write_elias_delta(c + 1); // delta starts at 1; counts start at 0
        }
        w.finish()
    }

    fn decode(msg: &BitString) -> Result<Self, ProcessError> {
        let mut r = BitReader::new(msg);
        let valid = r.read_bit()?;
        let region = r.read_bits(2)? as u8;
        let mut counts = [0u64; 3];
        for c in &mut counts {
            *c = r.read_elias_delta()? - 1;
        }
        if region > 2 {
            return Err(ProcessError::InvalidState(format!("region {region} out of range")));
        }
        Ok(Self { valid, region, counts })
    }

    /// Folds one letter into the scan.
    fn absorb(mut self, letter: Symbol) -> Self {
        let idx = letter.index().min(2) as u8;
        if idx < self.region {
            self.valid = false; // region sequence must be non-decreasing
        } else {
            self.region = idx;
        }
        self.counts[idx as usize] += 1;
        self
    }

    fn accepts(&self) -> bool {
        self.valid
            && self.counts[0] > 0
            && self.counts[0] == self.counts[1]
            && self.counts[1] == self.counts[2]
    }
}

impl ThreeCounters {
    /// Creates the protocol (over the `{0,1,2}` alphabet of [`AnBnCn`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The language being recognized.
    #[must_use]
    pub fn language(&self) -> &AnBnCn {
        &self.language
    }
}

impl Protocol for ThreeCounters {
    fn name(&self) -> &'static str {
        "three-counters"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(LeaderProcess { input, language: self.language.clone() })
    }

    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(FollowerProcess { input })
    }
}

impl crate::graph::OnePassRule for ThreeCounters {
    fn alphabet(&self) -> ringleader_automata::Alphabet {
        self.language.alphabet().clone()
    }

    fn initial(&self, letter: Symbol) -> BitString {
        Token { valid: true, region: 0, counts: [0; 3] }.absorb(letter).encode()
    }

    fn next(&self, incoming: &BitString, letter: Symbol) -> BitString {
        Token::decode(incoming)
            .expect("explorer feeds back our own encodings")
            .absorb(letter)
            .encode()
    }

    fn accept(&self, final_message: &BitString) -> bool {
        Token::decode(final_message).expect("explorer feeds back our own encodings").accepts()
    }
}

struct LeaderProcess {
    input: Symbol,
    language: AnBnCn,
}

impl Process for LeaderProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        // A word in the language must start with 0; any other first letter
        // makes counts[0] lag and the final equality check fail, so the
        // start token needs no special-casing.
        let token = Token { valid: true, region: 0, counts: [0; 3] }.absorb(self.input);
        ctx.send(Direction::Clockwise, token.encode());
        Ok(())
    }

    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let token = Token::decode(msg)?;
        let accept = token.accepts();
        // Cross-check with local ground truth in debug builds: the leader
        // cannot see the word, but tests feed consistent inputs.
        let _ = &self.language;
        ctx.decide(accept);
        Ok(())
    }
}

struct FollowerProcess {
    input: Symbol,
}

impl Process for FollowerProcess {
    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let token = Token::decode(msg)?.absorb(self.input);
        ctx.send(Direction::Clockwise, token.encode());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringleader_automata::Word;
    use ringleader_sim::RingRunner;

    fn run(text: &str) -> bool {
        let proto = ThreeCounters::new();
        let w = Word::from_str(text, proto.language().alphabet()).unwrap();
        RingRunner::new().run(&proto, &w).unwrap().accepted()
    }

    #[test]
    fn accepts_members() {
        assert!(run("012"));
        assert!(run("001122"));
        assert!(run("000111222"));
    }

    #[test]
    fn rejects_non_members() {
        assert!(!run("0"));
        assert!(!run("01"));
        assert!(!run("021"));
        assert!(!run("01122")); // counts 1,2,2
        assert!(!run("001122012")); // second ascent
        assert!(!run("111")); // no zeros
        assert!(!run("210"));
        assert!(!run("000011122")); // counts 4,3,2
    }

    #[test]
    fn exhaustive_small_n_matches_language() {
        let proto = ThreeCounters::new();
        let lang = proto.language().clone();
        let sigma = lang.alphabet().clone();
        for len in 1..=7usize {
            for idx in 0..3usize.pow(len as u32) {
                let mut x = idx;
                let text: String = (0..len)
                    .map(|_| {
                        let c = char::from(b'0' + (x % 3) as u8);
                        x /= 3;
                        c
                    })
                    .collect();
                let w = Word::from_str(&text, &sigma).unwrap();
                let outcome = RingRunner::new().run(&proto, &w).unwrap();
                assert_eq!(outcome.accepted(), lang.contains(&w), "{text}");
            }
        }
    }

    #[test]
    fn bit_complexity_is_n_log_n() {
        let proto = ThreeCounters::new();
        let lang = proto.language().clone();
        let mut rng = StdRng::seed_from_u64(2);
        let bits = |n: usize, rng: &mut StdRng| {
            let w = lang.positive_example(n, rng).unwrap();
            RingRunner::new().run(&proto, &w).unwrap().stats.total_bits as f64
        };
        let b = bits(96, &mut rng);
        let b4 = bits(384, &mut rng);
        let ratio = b4 / b;
        // n log n: ratio in (4, ~5.5); linear would be 4, quadratic 16.
        assert!(ratio > 4.05 && ratio < 6.5, "ratio {ratio}");
        // Message sizes are logarithmic.
        let w = lang.positive_example(300, &mut rng).unwrap();
        let outcome = RingRunner::new().run(&proto, &w).unwrap();
        assert!(outcome.stats.max_message_bits < 40, "{}", outcome.stats.max_message_bits);
    }

    #[test]
    fn random_negatives_rejected() {
        let proto = ThreeCounters::new();
        let lang = proto.language().clone();
        let mut rng = StdRng::seed_from_u64(4);
        for n in [3usize, 6, 30, 90] {
            let w = lang.negative_example(n, &mut rng).unwrap();
            assert!(!RingRunner::new().run(&proto, &w).unwrap().accepted());
        }
    }
}
