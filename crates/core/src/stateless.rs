//! Theorem 3, Stage 1: the stateless-replay transformation `A → A′`.
//!
//! Theorem 3 reduces any multi-pass `O(n)`-bit unidirectional algorithm to
//! a one-pass one. Its first stage builds an equivalent algorithm `A′`
//! "that will not need any information about previous messages kept in the
//! processors": in pass `i` each message carries all `i−1` earlier
//! pass-messages plus the new one, so a processor can re-simulate its own
//! history from the wire instead of remembering it. The paper bounds the
//! cost by `BIT_{A′}(n) ≤ π_A · BIT_A(n) ≤ c²n = O(n)` — still linear,
//! because the pass count `π_A` of an `O(n)` algorithm is bounded
//! (Corollary 4).
//!
//! [`StatelessTwoPass`] is that construction applied to the Note 7.5
//! two-pass parity algorithm (the workspace's canonical multi-pass
//! protocol): pass-2 messages additionally carry the pass-1 counter, and
//! followers hold **no** mutable state — each handler re-derives
//! everything from the message alone. Statelessness costs a 1-bit pass
//! tag per message (a stateful processor distinguishes passes by counting
//! arrivals) plus the replayed pass-1 counter in pass 2: `(1+k)` +
//! `(1+2k+1) = (3k+3)·n` bits vs the stateful `(2k+1)·n` — the paper's
//! `π_A`-bounded blow-up, visible on the wire, with the complexity class
//! unchanged.

use ringleader_automata::Symbol;
use ringleader_bitio::{BitReader, BitString, BitWriter};
use ringleader_langs::TradeoffLanguage;
use ringleader_sim::{Context, Direction, Process, ProcessResult, Protocol, Topology};

/// The stateless replica of [`TwoPassParity`](crate::TwoPassParity)
/// (Theorem 3 Stage 1 construction).
///
/// Recognizes the same [`TradeoffLanguage`]; followers keep no state
/// between messages — message framing alone distinguishes the passes.
///
/// # Examples
///
/// ```rust
/// # use ringleader_core::{StatelessTwoPass, TwoPassParity};
/// # use ringleader_langs::Language;
/// # use ringleader_automata::Word;
/// # use ringleader_sim::RingRunner;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stateless = StatelessTwoPass::new(2);
/// let stateful = TwoPassParity::new(2);
/// let w = Word::from_str("ABBA", stateless.language().alphabet())?;
/// let a = RingRunner::new().run(&stateless, &w)?;
/// let b = RingRunner::new().run(&stateful, &w)?;
/// assert_eq!(a.decision, b.decision);
/// // The stateless construction pays (3k+3)n instead of (2k+1)n.
/// assert_eq!(a.stats.total_bits, stateless.predicted_bits(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StatelessTwoPass {
    language: TradeoffLanguage,
    k: u32,
}

impl StatelessTwoPass {
    /// Builds the protocol for family member `k` (alphabet `2^k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=5` (see [`TradeoffLanguage::new`]).
    #[must_use]
    pub fn new(k: u32) -> Self {
        Self { language: TradeoffLanguage::new(k), k }
    }

    /// The language being recognized.
    #[must_use]
    pub fn language(&self) -> &TradeoffLanguage {
        &self.language
    }

    /// Exact bit complexity: pass 1 costs `(1+k)·n` (tag + counter), pass
    /// 2 carries the replayed history too: `(2+2k)·n`. Total `(3k+3)·n`.
    #[must_use]
    pub fn predicted_bits(&self, n: usize) -> usize {
        (3 * self.k as usize + 3) * n
    }

    fn modulus(&self) -> u64 {
        self.language.modulus() as u64
    }
}

/// Message layout: a 1-bit pass tag, then
/// * pass 1: `count` (k bits);
/// * pass 2: replayed pass-1 `count` (k bits) + `designated` (k bits) +
///   parity (1 bit). The replay is what lets a stateless processor act in
///   pass 2 exactly as its stateful twin would — it re-derives "what did I
///   forward in pass 1" from the wire.
#[derive(Debug, Clone, Copy)]
enum Frame {
    Pass1 { count: u64 },
    Pass2 { replayed_count: u64, designated: u64, parity: u64 },
}

impl Frame {
    fn encode(self, k: u32) -> BitString {
        let mut w = BitWriter::new();
        match self {
            Frame::Pass1 { count } => {
                w.write_bit(false);
                w.write_bits(count, k);
            }
            Frame::Pass2 { replayed_count, designated, parity } => {
                w.write_bit(true);
                w.write_bits(replayed_count, k);
                w.write_bits(designated, k);
                w.write_bits(parity, 1);
            }
        }
        w.finish()
    }

    fn decode(msg: &BitString, k: u32) -> Result<Self, ringleader_bitio::DecodeError> {
        let mut r = BitReader::new(msg);
        if r.read_bit()? {
            Ok(Frame::Pass2 {
                replayed_count: r.read_bits(k)?,
                designated: r.read_bits(k)?,
                parity: r.read_bits(1)?,
            })
        } else {
            Ok(Frame::Pass1 { count: r.read_bits(k)? })
        }
    }
}

impl Protocol for StatelessTwoPass {
    fn name(&self) -> &'static str {
        "stateless-two-pass"
    }

    fn topology(&self) -> Topology {
        Topology::Unidirectional
    }

    fn leader(&self, input: Symbol) -> Box<dyn Process> {
        Box::new(LeaderProcess { k: self.k, modulus: self.modulus(), input })
    }

    fn follower(&self, input: Symbol) -> Box<dyn Process> {
        // The whole point: the follower struct holds only its immutable
        // input letter — no pass counter, no remembered messages.
        Box::new(StatelessFollower { k: self.k, modulus: self.modulus(), input })
    }
}

struct LeaderProcess {
    k: u32,
    modulus: u64,
    input: Symbol,
}

impl Process for LeaderProcess {
    fn on_start(&mut self, ctx: &mut Context) -> ProcessResult {
        ctx.send(Direction::Clockwise, Frame::Pass1 { count: 1 % self.modulus }.encode(self.k));
        Ok(())
    }

    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        match Frame::decode(msg, self.k)? {
            Frame::Pass1 { count } => {
                // The counter returned: launch pass 2 with the history
                // replayed in every message.
                let designated = count;
                let parity = u64::from(self.input.index() as u64 == designated);
                ctx.send(
                    Direction::Clockwise,
                    Frame::Pass2 { replayed_count: count, designated, parity }.encode(self.k),
                );
            }
            Frame::Pass2 { parity, .. } => {
                ctx.decide(parity == 0);
            }
        }
        Ok(())
    }
}

struct StatelessFollower {
    k: u32,
    modulus: u64,
    input: Symbol,
}

impl Process for StatelessFollower {
    fn on_message(&mut self, _dir: Direction, msg: &BitString, ctx: &mut Context) -> ProcessResult {
        let out = match Frame::decode(msg, self.k)? {
            Frame::Pass1 { count } => Frame::Pass1 { count: (count + 1) % self.modulus },
            Frame::Pass2 { replayed_count, designated, parity } => {
                // Re-simulate the pass-1 action from the replayed history
                // (the stateful variant would have *remembered* having
                // forwarded `replayed_count + 1`), then do the pass-2 work.
                let replayed_count = (replayed_count + 1) % self.modulus;
                let parity = parity ^ u64::from(self.input.index() as u64 == designated);
                Frame::Pass2 { replayed_count, designated, parity }
            }
        };
        ctx.send(Direction::Clockwise, out.encode(self.k));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoPassParity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ringleader_automata::Word;
    use ringleader_langs::Language;
    use ringleader_sim::RingRunner;

    #[test]
    fn agrees_with_stateful_twin_exhaustively() {
        let stateless = StatelessTwoPass::new(2);
        let stateful = TwoPassParity::new(2);
        for len in 1..=5usize {
            for idx in 0..4usize.pow(len as u32) {
                let mut x = idx;
                let symbols: Vec<_> = (0..len)
                    .map(|_| {
                        let s = Symbol((x % 4) as u16);
                        x /= 4;
                        s
                    })
                    .collect();
                let w = Word::from_symbols(symbols);
                let a = RingRunner::new().run(&stateless, &w).unwrap().accepted();
                let b = RingRunner::new().run(&stateful, &w).unwrap().accepted();
                assert_eq!(a, b, "idx={idx} len={len}");
            }
        }
    }

    #[test]
    fn decides_the_language_correctly() {
        let mut rng = StdRng::seed_from_u64(8);
        for k in 1..=4u32 {
            let proto = StatelessTwoPass::new(k);
            let lang = proto.language().clone();
            for n in [1usize, 2, 9, 40] {
                for want in [true, false] {
                    let Some(w) = (if want {
                        lang.positive_example(n, &mut rng)
                    } else {
                        lang.negative_example(n, &mut rng)
                    }) else {
                        continue;
                    };
                    assert_eq!(
                        RingRunner::new().run(&proto, &w).unwrap().accepted(),
                        want,
                        "k={k} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_overhead_matches_theorem3_accounting() {
        // (3k+1)n stateless vs (2k+1)n stateful: same complexity class,
        // π_A-bounded blow-up — exactly the Stage 1 cost statement.
        let mut rng = StdRng::seed_from_u64(4);
        for k in 1..=5u32 {
            let stateless = StatelessTwoPass::new(k);
            let stateful = TwoPassParity::new(k);
            let n = 60usize;
            let w = stateless.language().positive_example(n, &mut rng).unwrap();
            let a = RingRunner::new().run(&stateless, &w).unwrap().stats.total_bits;
            let b = RingRunner::new().run(&stateful, &w).unwrap().stats.total_bits;
            assert_eq!(a, stateless.predicted_bits(n), "k={k}");
            assert_eq!(a, b + (k as usize + 2) * n, "k={k}: tag+replay add (k+2)n");
            // Bounded blow-up: at most doubling (equality only at k=1).
            assert!(a <= 2 * b, "k={k}");
        }
    }
}
