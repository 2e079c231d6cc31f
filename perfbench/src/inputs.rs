//! Workload inputs, generated from the seed through the public APIs.
//!
//! Generating them is the benchmark's set-up phase: word sampling and
//! ground truth in `langs`, regex→DFA conversion, minimization and
//! protocol construction in `automata`/`core`, and `registry()` for the
//! suite. Each call into those layers is timed, because every one is
//! long enough that a clock read is noise beside it.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ringleader_analysis::{Registry, Scale};
use ringleader_automata::Word;
use ringleader_core::{BidirMeetInMiddle, CollectAll, DfaOnePass, LgRecognizer, WcWPrefixForward};
use ringleader_langs::{regular_corpus, AnBnCn, GrowthFunction, Language, LgLanguage, WcW};
use ringleader_sim::{Protocol, RingRunner, Scheduler};

use crate::Workload;

/// Scheduler labels, indexed by [`Case::schedule`].
pub const SCHEDULES: [&str; 3] = ["fifo", "random", "longest_queue"];

/// One `RingRunner::run` and the checks its outcome must pass.
pub struct Case {
    /// Index into [`EngineInputs::protocols`].
    pub protocol: usize,
    /// The ring's labels.
    pub word: Word,
    /// `Language::contains(word)`, the decision the leader must reach.
    pub expected: bool,
    /// The runner, with this case's scheduler.
    pub runner: RingRunner,
    /// Index into [`SCHEDULES`].
    pub schedule: usize,
    /// Exact bits the run must send, where the protocol has a closed form.
    pub predicted_bits: Option<usize>,
    /// Largest message the run may send, where the protocol bounds it.
    pub max_message_bits: Option<usize>,
    /// Cases sharing a group run one word under several schedules and
    /// must reach one decision.
    pub group: Option<usize>,
}

/// Protocols and the runs to make with them.
pub struct EngineInputs {
    /// The protocols under test.
    pub protocols: Vec<Box<dyn Protocol>>,
    /// The runs of one pass, in order.
    pub cases: Vec<Case>,
}

/// A workload's inputs.
pub enum Inputs {
    /// Single runs through `RingRunner::run`.
    Engine(EngineInputs),
    /// Every registered spec through `ExperimentHarness`.
    Suite(Registry, Scale),
}

/// Time spent in each layer while generating inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    /// Seconds in `Language` calls: example sampling and ground truth.
    pub sample_s: f64,
    /// Words sampled.
    pub words: usize,
    /// Seconds building automata, protocols and the registry.
    pub build_s: f64,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Generates `workload`'s inputs for `seed`; `smoke` shrinks every ring
/// to a few dozen processors and the suite to `Scale::Smoke`.
pub fn generate(workload: Workload, seed: u64, smoke: bool, spans: &mut SetupSpans) -> Inputs {
    match workload {
        Workload::TokenRing => Inputs::Engine(token_ring(seed, smoke, spans)),
        Workload::WidePayload => Inputs::Engine(wide_payload(seed, smoke, spans)),
        Workload::BidirAdversary => Inputs::Engine(bidir_adversary(seed, smoke, spans)),
        Workload::SuiteLarge => {
            let registry = timed(&mut spans.build_s, ringleader_bench::registry);
            Inputs::Suite(registry, if smoke { Scale::Smoke } else { Scale::Large })
        }
    }
}

/// Samples a word of length `n` on the requested side of `lang`, with its
/// ground truth.
fn sample(
    lang: &dyn Language,
    n: usize,
    positive: bool,
    rng: &mut StdRng,
    spans: &mut SetupSpans,
) -> (Word, bool) {
    let word = timed(&mut spans.sample_s, || {
        if positive {
            lang.positive_example(n, rng)
        } else {
            lang.negative_example(n, rng)
        }
    })
    .unwrap_or_else(|| panic!("{} has no word of length {n} (member: {positive})", lang.name()));
    spans.words += 1;
    let expected = timed(&mut spans.sample_s, || lang.contains(&word));
    (word, expected)
}

/// `token_ring` runs: (regular corpus index, log₂ n, member word?). Each
/// language is tied to its slot, so every seed does the same work and
/// only the words change. The 2¹⁸ runs are the middle 30–70% of run
/// times and the 2²⁰ runs the top 20%, so the median and p90 run fall in
/// the middle of one size class rather than between two. The largest
/// rings get the smallest automata, since sampling a word of length n
/// builds an n × |Q| table.
const TOKEN_RING_SLOTS: [(usize, u32, bool); 10] = [
    (3, 17, true),
    (3, 17, false),
    (4, 17, false),
    (2, 18, true),
    (2, 18, false),
    (1, 18, true),
    (1, 18, false),
    (0, 19, true),
    (5, 20, true),
    (5, 20, false),
];

/// `DfaOnePass` over the regular corpus on unidirectional rings of
/// 2¹⁷–2²⁰ processors.
fn token_ring(seed: u64, smoke: bool, spans: &mut SetupSpans) -> EngineInputs {
    let corpus = timed(&mut spans.build_s, regular_corpus);
    let protocols: Vec<DfaOnePass> =
        timed(&mut spans.build_s, || corpus.iter().map(DfaOnePass::new).collect());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for (lang, log_n, positive) in TOKEN_RING_SLOTS {
        let n = 1usize << if smoke { log_n - 11 } else { log_n };
        let (word, expected) = sample(&corpus[lang], n, positive, &mut rng, spans);
        cases.push(Case {
            protocol: lang,
            word,
            expected,
            runner: RingRunner::new(),
            schedule: 0,
            predicted_bits: Some(protocols[lang].predicted_bits(n)),
            max_message_bits: None,
            group: None,
        });
    }
    let protocols = protocols.into_iter().map(|p| Box::new(p) as Box<dyn Protocol>).collect();
    EngineInputs { protocols, cases }
}

/// `wide_payload` runs: (protocol, n, smoke n, member word?). Run times
/// fall into classes as `token_ring`'s do: cheap collect-all runs at the
/// bottom 30%, `L_g` at n = 3072 in the middle (with one `wcw` run of
/// about the same length), and `L_g` at n = 4096 as the top 20%. `wcw`
/// gets a member word: half of its non-members are random words whose
/// token dies at the second `c`, so their cost would swing with the seed.
const WIDE_PAYLOAD_SLOTS: [(usize, usize, usize, bool); 10] = [
    (1, 24576, 96, true),
    (1, 24576, 96, false),
    (1, 24576, 96, true),
    (2, 3072, 48, true),
    (2, 3072, 48, false),
    (2, 3072, 48, true),
    (2, 3072, 48, false),
    (0, 4097, 65, true),
    (2, 4096, 64, true),
    (2, 4096, 64, false),
];

/// The quadratic tiers: `wcw` prefix forwarding, collect-all over
/// `0ⁿ1ⁿ2ⁿ` (messages up to 49 152 bits), and the `L_g` recognizer at
/// `g = n·⌊n/2⌋`.
fn wide_payload(seed: u64, smoke: bool, spans: &mut SetupSpans) -> EngineInputs {
    let (wcw, anbncn, lg) = timed(&mut spans.build_s, || {
        (WcW::new(), AnBnCn::new(), LgLanguage::new(GrowthFunction::NSquaredHalf))
    });
    let protocols = timed(&mut spans.build_s, || {
        vec![
            Box::new(WcWPrefixForward::new()) as Box<dyn Protocol>,
            Box::new(CollectAll::new(Arc::new(anbncn.clone()))),
            Box::new(LgRecognizer::new(&lg)),
        ]
    });
    let langs: [&dyn Language; 3] = [&wcw, &anbncn, &lg];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for (protocol, n, smoke_n, positive) in WIDE_PAYLOAD_SLOTS {
        let n = if smoke { smoke_n } else { n };
        let (word, expected) = sample(langs[protocol], n, positive, &mut rng, spans);
        cases.push(Case {
            protocol,
            word,
            expected,
            runner: RingRunner::new(),
            schedule: 0,
            predicted_bits: None,
            max_message_bits: None,
            group: None,
        });
    }
    EngineInputs { protocols, cases }
}

/// `bidir_adversary` words: regular corpus languages, each with a member
/// and a non-member word.
const BIDIR_LANGS: [usize; 4] = [0, 2, 3, 5];

/// `BidirMeetInMiddle` on rings of 2¹⁵, every word under FIFO, a seeded
/// random schedule, and longest-queue-first.
fn bidir_adversary(seed: u64, smoke: bool, spans: &mut SetupSpans) -> EngineInputs {
    let corpus = timed(&mut spans.build_s, regular_corpus);
    let protocols: Vec<BidirMeetInMiddle> =
        timed(&mut spans.build_s, || corpus.iter().map(BidirMeetInMiddle::new).collect());
    let n = if smoke { 64 } else { 1 << 15 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    let words = BIDIR_LANGS.iter().flat_map(|&lang| [(lang, true), (lang, false)]);
    for (group, (lang, positive)) in words.enumerate() {
        let (word, expected) = sample(&corpus[lang], n, positive, &mut rng, spans);
        let schedulers = [
            Scheduler::Fifo,
            Scheduler::Random { seed: crate::mix(seed ^ group as u64) },
            Scheduler::LongestQueue,
        ];
        for (schedule, scheduler) in schedulers.into_iter().enumerate() {
            let mut runner = RingRunner::new();
            runner.scheduler(scheduler);
            cases.push(Case {
                protocol: lang,
                word: word.clone(),
                expected,
                runner,
                schedule,
                predicted_bits: None,
                max_message_bits: Some(protocols[lang].message_bits_bound()),
                group: Some(group),
            });
        }
    }
    let protocols = protocols.into_iter().map(|p| Box::new(p) as Box<dyn Protocol>).collect();
    EngineInputs { protocols, cases }
}

/// A digest of the inputs, to check that one seed always gives the same
/// inputs.
#[must_use]
pub fn digest(inputs: &Inputs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    match inputs {
        Inputs::Engine(e) => {
            for case in &e.cases {
                eat(case.protocol as u64);
                eat(u64::from(case.expected));
                eat(case.schedule as u64);
                eat(case.word.len() as u64);
                for s in case.word.symbols() {
                    eat(s.index() as u64);
                }
            }
        }
        Inputs::Suite(registry, _) => {
            for id in registry.ids() {
                for b in id.bytes() {
                    eat(u64::from(b));
                }
            }
        }
    }
    h
}
