//! Note 7.3: recognizing `L_g` in `Θ(g(n))` bits.
//!
//! The paper's algorithm: "The leader computes `n` (using `O(n log n)`
//! bits), and then determines `|x| (= ⌊g(n)/n⌋)`, and compares every
//! segment of length `|x|` with the next segment (using `O(|x|·n) =
//! O(g(n))` bits). Therefore `BIT_A(n) = O(g(n) + n log n) = O(g(n))`."
//!
//! Implementation:
//!
//! * **Phase 1** — the counting pass of
//!   [`CountRingSize`](crate::CountRingSize) (`Θ(n log n)` bits). Skipped automatically when the runner provides
//!   the ring size (the paper's Note 7.4 known-`n` mode).
//! * **Phase 2** — a sliding window of the last `m = ⌊g(n)/n⌋` letters
//!   travels once around the ring; each processor compares its letter with
//!   the window head (the letter `m` positions back). For the paper's
//!   literal `L_g` the tail `y` is exempt from checking, which requires a
//!   position counter and check limit in the message (`O(log n)` bits,
//!   absorbed by `g ≥ n log n`); for the fully-periodic variant
//!   ([`LgLanguage::fully_periodic`]) the message is just
//!   `valid + window`, giving `Θ(n·m)` bits for *every* `g` down to
//!   `g(n) = n` — that is Note 7.4's "no gap" statement.

use ringleader_automata::Symbol;
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_langs::LgLanguage;
use ringleader_sim::{
    Context, Direction, Process, ProcessError, ProcessResult, Protocol, Topology,
};

/// The `L_g` recognizer (Note 7.3), with automatic known-`n` support.
///
/// # Examples
///
/// ```rust
/// # use ringleader_core::LgRecognizer;
/// # use ringleader_langs::{GrowthFunction, Language, LgLanguage};
/// # use ringleader_sim::RingRunner;
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lang = LgLanguage::new(GrowthFunction::NSqrtN);
/// let proto = LgRecognizer::new(&lang);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let w = lang.positive_example(64, &mut rng).unwrap();
/// assert!(RingRunner::new().run(&proto, &w)?.accepted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LgRecognizer {
    language: LgLanguage,
}

impl LgRecognizer {
    /// Builds the recognizer for an [`LgLanguage`] (either tail variant).
    #[must_use]
    pub fn new(language: &LgLanguage) -> Self {
        Self { language: language.clone() }
    }

    /// The language being recognized.
    #[must_use]
    pub fn language(&self) -> &LgLanguage {
        &self.language
    }
}

/// Message tags.
const TAG_COUNT: bool = false;
const TAG_WINDOW: bool = true;

/// The phase-2 sliding-window token.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WindowToken {
    valid: bool,
    /// Period `m` (every processor needs it to size the window).
    m: u64,
    /// Letters absorbed so far / check limit — present only for the
    /// literal (free-tail) language.
    pos_limit: Option<(u64, u64)>,
    /// The last `min(pos, m)` letters (a=0, b=1), oldest first.
    window: BitString,
}

impl WindowToken {
    fn encode(&self) -> BitString {
        let mut w = BitWriter::new();
        w.write_bit(TAG_WINDOW);
        w.write_bit(self.valid);
        w.write_bit(self.pos_limit.is_some());
        if let Some((pos, limit)) = self.pos_limit {
            w.write_elias_delta(pos + 1);
            w.write_elias_delta(limit + 1);
        }
        w.write_elias_delta(self.m);
        w.write_elias_delta(self.window.len() as u64 + 1);
        w.write_bitstring(&self.window);
        w.finish()
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, ProcessError> {
        let valid = r.read_bit()?;
        let has_pos = r.read_bit()?;
        let pos_limit = if has_pos {
            let pos = r.read_elias_delta()? - 1;
            let limit = r.read_elias_delta()? - 1;
            Some((pos, limit))
        } else {
            None
        };
        let m = r.read_elias_delta()?;
        let len = r.read_elias_delta()? - 1;
        let window = r.read_bitstring(len as usize)?;
        Ok(Self { valid, m, pos_limit, window })
    }

    /// Folds one letter (false = a, true = b) into the scan.
    fn absorb(mut self, letter: bool) -> Self {
        let m = self.m as usize;
        if self.window.len() == m {
            let front = self.window.get(0);
            self.window = self.window.slice(1..m);
            let check_active = match self.pos_limit {
                // Literal L_g: only positions pos < limit are constrained.
                Some((pos, limit)) => pos < limit,
                // Fully periodic: every position with a full window.
                None => true,
            };
            if check_active && front != Some(letter) {
                self.valid = false;
            }
        }
        self.window.push(letter);
        if let Some((pos, limit)) = self.pos_limit {
            self.pos_limit = Some((pos + 1, limit));
        }
        self
    }
}

impl Protocol for LgRecognizer {
    fn name(&self) -> &'static str {
        "lg-recognizer"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(LeaderProcess { language: self.language.clone(), input, phase2_started: false })
    }

    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(FollowerProcess { input })
    }
}

struct LeaderProcess {
    language: LgLanguage,
    input: Symbol,
    phase2_started: bool,
}

impl LeaderProcess {
    /// Launches the window pass once `n` is known.
    fn start_phase2(&mut self, n: usize, ctx: &mut Context) {
        let m = self.language.period(n);
        if n < m {
            // Cannot fit one copy of x: every word is out.
            ctx.decide(false);
            return;
        }
        let checked = if self.language.has_periodic_tail() { n - m } else { (n / m - 1) * m };
        if checked == 0 {
            // The periodicity constraint is vacuous: every word is in.
            ctx.decide(true);
            return;
        }
        self.phase2_started = true;
        let token = WindowToken {
            valid: true,
            m: m as u64,
            // limit = last constrained position + m = checked + m.
            pos_limit: (!self.language.has_periodic_tail()).then(|| (0, (checked + m) as u64)),
            window: BitString::new(),
        }
        .absorb(self.input.index() == 1);
        ctx.send(Direction::Clockwise, token.encode());
    }
}

impl Process for LeaderProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        if let Some(n) = ctx.known_ring_size() {
            // Note 7.4: n is known — skip the counting pass entirely.
            self.start_phase2(n, ctx);
        } else {
            let mut w = BitWriter::new();
            w.write_bit(TAG_COUNT);
            w.write_elias_delta(1);
            ctx.send(Direction::Clockwise, w.finish());
        }
        Ok(())
    }

    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let mut r = BitReader::new(msg);
        let tag = r.read_bit()?;
        if tag == TAG_COUNT {
            if self.phase2_started {
                return Err(ProcessError::InvalidState("count token after phase 2".into()));
            }
            let n = r.read_elias_delta()? as usize;
            self.start_phase2(n, ctx);
        } else {
            let token = WindowToken::decode(&mut r)?;
            ctx.decide(token.valid);
        }
        Ok(())
    }
}

struct FollowerProcess {
    input: Symbol,
}

impl Process for FollowerProcess {
    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let mut r = BitReader::new(msg);
        let tag = r.read_bit()?;
        let out = if tag == TAG_COUNT {
            let count = r.read_elias_delta()?;
            let mut w = BitWriter::new();
            w.write_bit(TAG_COUNT);
            w.write_elias_delta(count + 1);
            w.finish()
        } else {
            WindowToken::decode(&mut r)?.absorb(self.input.index() == 1).encode()
        };
        ctx.send(Direction::Clockwise, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringleader_automata::Word;
    use ringleader_langs::{GrowthFunction, Language};
    use ringleader_sim::RingRunner;

    fn growths() -> [GrowthFunction; 5] {
        [
            GrowthFunction::NLogN,
            GrowthFunction::NQuarterLog,
            GrowthFunction::NSqrtN,
            GrowthFunction::NSquaredHalf,
            GrowthFunction::NSquared,
        ]
    }

    #[test]
    fn decisions_match_language_on_samples() {
        let mut rng = StdRng::seed_from_u64(21);
        for g in growths() {
            for lang in [LgLanguage::new(g), LgLanguage::fully_periodic(g)] {
                let proto = LgRecognizer::new(&lang);
                for n in [2usize, 3, 8, 16, 17, 30, 64, 100] {
                    if let Some(w) = lang.positive_example(n, &mut rng) {
                        let outcome = RingRunner::new().run(&proto, &w).unwrap();
                        assert!(outcome.accepted(), "{} n={n} positive", lang.name());
                    }
                    if let Some(w) = lang.negative_example(n, &mut rng) {
                        let outcome = RingRunner::new().run(&proto, &w).unwrap();
                        assert!(!outcome.accepted(), "{} n={n} negative", lang.name());
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_small_n() {
        let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
        for g in [GrowthFunction::NLogN, GrowthFunction::NSqrtN] {
            for lang in [LgLanguage::new(g), LgLanguage::fully_periodic(g)] {
                let proto = LgRecognizer::new(&lang);
                for len in 1..=10usize {
                    for idx in 0..(1usize << len) {
                        let text: String =
                            (0..len).map(|i| if (idx >> i) & 1 == 0 { 'a' } else { 'b' }).collect();
                        let w = Word::from_str(&text, &sigma).unwrap();
                        let outcome = RingRunner::new().run(&proto, &w).unwrap();
                        assert_eq!(
                            outcome.accepted(),
                            lang.contains(&w),
                            "{} on {text}",
                            lang.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn known_n_skips_counting_pass() {
        let mut rng = StdRng::seed_from_u64(5);
        let lang = LgLanguage::new(GrowthFunction::NSqrtN);
        let proto = LgRecognizer::new(&lang);
        let w = lang.positive_example(64, &mut rng).unwrap();
        let unknown = RingRunner::new().run(&proto, &w).unwrap();
        let known = {
            let mut r = RingRunner::new();
            r.known_ring_size(true);
            r.run(&proto, &w).unwrap()
        };
        assert!(unknown.accepted() && known.accepted());
        // Known-n drops the counting pass: strictly fewer bits and half the
        // messages.
        assert!(known.stats.total_bits < unknown.stats.total_bits);
        assert_eq!(known.stats.message_count * 2, unknown.stats.message_count);
    }

    #[test]
    fn bits_scale_with_g() {
        // For each g, bits(n)/g(n) should be bounded; and across g's at the
        // same n the measured bits should be ordered like g.
        let mut rng = StdRng::seed_from_u64(13);
        let n = 256usize;
        let mut measured = Vec::new();
        for g in [GrowthFunction::NLogN, GrowthFunction::NSqrtN, GrowthFunction::NSquaredHalf] {
            let lang = LgLanguage::new(g);
            let proto = LgRecognizer::new(&lang);
            let w = lang.positive_example(n, &mut rng).unwrap();
            let bits = RingRunner::new().run(&proto, &w).unwrap().stats.total_bits;
            measured.push((g, bits));
        }
        assert!(measured[0].1 < measured[1].1, "{measured:?}");
        assert!(measured[1].1 < measured[2].1, "{measured:?}");
        // Quadratic tier really is ~n²-ish: window of m=n... m=n means
        // i=1 → leader accepts instantly. For g=n², at n=256 m=256 → the
        // constraint is vacuous and phase 2 is skipped; bits = counting
        // pass only. Verify that special case explicitly:
        let lang = LgLanguage::new(GrowthFunction::NSquared);
        let proto = LgRecognizer::new(&lang);
        let w = lang.positive_example(n, &mut rng).unwrap();
        let outcome = RingRunner::new().run(&proto, &w).unwrap();
        assert!(outcome.accepted());
    }

    #[test]
    fn periodic_variant_known_n_messages_are_window_sized() {
        // Fully periodic + known n: no counting pass, no position fields —
        // message size is m + O(log m) framing. This is the protocol whose
        // bit complexity is Θ(n·m) for every m ≥ 1.
        let mut rng = StdRng::seed_from_u64(9);
        let lang = LgLanguage::fully_periodic(GrowthFunction::NSqrtN);
        let proto = LgRecognizer::new(&lang);
        let n = 144usize; // m = 12
        let w = lang.positive_example(n, &mut rng).unwrap();
        let mut runner = RingRunner::new();
        runner.known_ring_size(true);
        let outcome = runner.run(&proto, &w).unwrap();
        assert!(outcome.accepted());
        assert_eq!(outcome.stats.message_count, n);
        let m = lang.period(n);
        // window m bits + tag/valid/flag + delta(m) + delta(len+1): small.
        assert!(outcome.stats.max_message_bits <= m + 20, "{}", outcome.stats.max_message_bits);
    }

    /// The window token kept as a `Vec<bool>` and written one bit at a
    /// time, independent of `BitString`'s bulk copies: the reference the
    /// wire format is pinned to.
    struct ReferenceWindow {
        valid: bool,
        m: u64,
        pos_limit: Option<(u64, u64)>,
        window: Vec<bool>,
    }

    impl ReferenceWindow {
        fn encode(&self) -> BitString {
            let mut w = BitWriter::new();
            w.write_bit(TAG_WINDOW);
            w.write_bit(self.valid);
            w.write_bit(self.pos_limit.is_some());
            if let Some((pos, limit)) = self.pos_limit {
                w.write_elias_delta(pos + 1);
                w.write_elias_delta(limit + 1);
            }
            w.write_elias_delta(self.m);
            w.write_elias_delta(self.window.len() as u64 + 1);
            for &b in &self.window {
                w.write_bit(b);
            }
            w.finish()
        }

        fn absorb(&mut self, letter: bool) {
            if self.window.len() == self.m as usize {
                let front = self.window.remove(0);
                let check_active = match self.pos_limit {
                    Some((pos, limit)) => pos < limit,
                    None => true,
                };
                if check_active && front != letter {
                    self.valid = false;
                }
            }
            self.window.push(letter);
            if let Some((pos, limit)) = self.pos_limit {
                self.pos_limit = Some((pos + 1, limit));
            }
        }
    }

    /// The payloads the per-bit reference sends on `w`, in ring order.
    fn reference_sends(lang: &LgLanguage, w: &Word, known_n: bool) -> Vec<BitString> {
        let n = w.len();
        let mut sends = Vec::new();
        if !known_n {
            for count in 1..=n as u64 {
                let mut c = BitWriter::new();
                c.write_bit(TAG_COUNT).write_elias_delta(count);
                sends.push(c.finish());
            }
        }
        let m = lang.period(n);
        if n < m {
            return sends;
        }
        let checked = if lang.has_periodic_tail() { n - m } else { (n / m - 1) * m };
        if checked == 0 {
            return sends;
        }
        let mut token = ReferenceWindow {
            valid: true,
            m: m as u64,
            pos_limit: (!lang.has_periodic_tail()).then(|| (0, (checked + m) as u64)),
            window: Vec::new(),
        };
        for &letter in w.symbols() {
            token.absorb(letter.index() == 1);
            sends.push(token.encode());
        }
        sends
    }

    #[test]
    fn every_send_matches_the_per_bit_reference_encoder() {
        // Every growth function, both tails, n known and unknown; at n = 372
        // the n²/2 window holds 186 letters, past the 184-bit inline capacity.
        let mut rng = StdRng::seed_from_u64(31);
        for g in growths() {
            for lang in [LgLanguage::new(g), LgLanguage::fully_periodic(g)] {
                let proto = LgRecognizer::new(&lang);
                for n in [5usize, 64, 372] {
                    let words =
                        [lang.positive_example(n, &mut rng), lang.negative_example(n, &mut rng)];
                    for w in words.into_iter().flatten() {
                        for known_n in [false, true] {
                            let mut runner = RingRunner::new();
                            runner.record_trace(true).known_ring_size(known_n);
                            let outcome = runner.run(&proto, &w).unwrap();
                            let sends: Vec<BitString> = outcome
                                .trace
                                .as_ref()
                                .unwrap()
                                .events()
                                .iter()
                                .filter(|e| e.kind == ringleader_sim::EventKind::Send)
                                .map(|e| e.payload.clone())
                                .collect();
                            assert_eq!(
                                sends,
                                reference_sends(&lang, &w, known_n),
                                "{} n = {n} known_n = {known_n}",
                                lang.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tail_is_free_only_in_literal_variant() {
        // n = 18, g = n^1.5 → m = 5, i = 3, tail r = 3: literal L_g leaves
        // the last 3 letters unconstrained; the periodic variant does not.
        let sigma = ringleader_automata::Alphabet::from_chars("ab").unwrap();
        let base: String = "ababa".chars().cycle().take(15).collect();
        let word_free_tail = Word::from_str(&format!("{base}bbb"), &sigma).unwrap();
        let literal = LgLanguage::new(GrowthFunction::NSqrtN);
        let periodic = LgLanguage::fully_periodic(GrowthFunction::NSqrtN);
        assert!(literal.contains(&word_free_tail));
        assert!(!periodic.contains(&word_free_tail));
        for (lang, expect) in [(literal, true), (periodic, false)] {
            let proto = LgRecognizer::new(&lang);
            let outcome = RingRunner::new().run(&proto, &word_free_tail).unwrap();
            assert_eq!(outcome.accepted(), expect, "{}", lang.name());
        }
    }
}
