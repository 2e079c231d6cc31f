//! Delivery scheduling — the asynchrony adversary.
//!
//! In the asynchronous model every message has an arbitrary finite delay.
//! The engine models this by keeping one FIFO queue per link and letting a
//! scheduling policy choose, at each step, *which non-empty link* delivers
//! its head message. FIFO-per-link is preserved in every policy (links are
//! channels); the adversary only controls interleaving across links.
//!
//! # The incremental active-link index
//!
//! Naively, each delivery would scan all `2n` link queues to collect the
//! non-empty ones and then apply the policy — O(n) engine overhead *per
//! event*, an extra factor of `n` on exactly the large rings where the
//! paper's Θ(n log n)-bit protocols get interesting. Instead, every policy
//! here is a stateful [`LinkIndex`]: the engine notifies it on each queue
//! transition (`on_push` / `on_pop`) and asks `choose()` for the next
//! link, which each policy answers in O(1) or O(log n):
//!
//! * [`Scheduler::Fifo`] — a monotone **min-heap** keyed by the head
//!   message's global sequence number. A link owns exactly one heap entry
//!   while non-empty; a pop replaces the entry with the link's next head
//!   (whose seq is strictly larger), so lazy deletion is never needed.
//! * [`Scheduler::LongestQueue`] — **backlog buckets**: `buckets[b]` holds
//!   the ids of links with backlog `b` (an ordered set, because ties break
//!   towards the lowest id). Pushes and pops move a link one bucket up or
//!   down; the maximum backlog changes by at most one per operation, so
//!   tracking it is amortized O(1).
//! * [`Scheduler::Random`] — a **Fenwick (binary indexed) tree** over link
//!   ids storing 1 for each non-empty link. `choose()` draws `k` and finds
//!   the `k`-th smallest non-empty id by binary descent. The tree — rather
//!   than a dense swap-remove vector — is what keeps the policy
//!   *byte-identical* to the historical scan implementation: the scan
//!   indexed into the id-sorted list of non-empty links, so the `k`-th
//!   pick must be the `k`-th smallest id, an order a swap-remove vector
//!   does not maintain.
//!
//! # Oracle testing
//!
//! The pre-index scan implementation is retained as a *reference oracle*
//! ([`testkit::NaiveChooser`], `#[doc(hidden)]`, compiled only for tests
//! and the scheduler-equivalence suite): given the full list of non-empty
//! links it picks exactly what the seed engine picked. Property tests
//! (`crates/sim/tests/sched_equiv.rs`) drive both implementations through
//! randomized push/deliver schedules and assert the chosen link sequences
//! are identical for every policy, and the engine's own determinism suite
//! pins full-run equivalence. Each index also counts its elementary
//! operations ([`LinkIndex::index_ops`]) so tests can assert the
//! per-event cost stays O(log n) instead of O(n).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Policy choosing the next link to deliver from.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Scheduler {
    /// Deliver messages in global send order (the "synchronous-looking"
    /// baseline; still a legal asynchronous execution).
    #[default]
    Fifo,
    /// Uniformly random choice among non-empty links, seeded for
    /// reproducibility.
    Random {
        /// RNG seed; equal seeds give equal executions.
        seed: u64,
    },
    /// Always deliver from the non-empty link with the *largest* backlog,
    /// breaking ties by lowest link index. A simple adversarial policy
    /// that maximizes reordering across links.
    LongestQueue,
}

impl Scheduler {
    /// Builds the incremental index for a ring with `links` link queues.
    pub(crate) fn build_index(&self, links: usize) -> Box<dyn LinkIndex> {
        match self {
            Scheduler::Fifo => Box::<FifoIndex>::default(),
            Scheduler::Random { seed } => Box::new(RandomIndex::new(links, *seed)),
            Scheduler::LongestQueue => Box::new(LongestQueueIndex::new(links)),
        }
    }
}

/// An incrementally maintained index over the non-empty links.
///
/// The engine owns one `LinkIndex` per run and keeps it in sync with the
/// link queues: [`on_push`](LinkIndex::on_push) after every enqueue,
/// [`on_pop`](LinkIndex::on_pop) after every dequeue. Between updates,
/// [`choose`](LinkIndex::choose) returns the policy's pick among the
/// currently non-empty links without scanning them.
///
/// Contract (upheld by the engine, asserted in debug builds):
///
/// * notifications report the queue state *after* the operation;
/// * the engine only pops the link most recently returned by `choose`
///   (or the unique non-empty link, via the single-link fast path).
///
/// This trait is public only so the scheduler-equivalence tests can drive
/// implementations directly; it is not part of the supported API.
#[doc(hidden)]
pub trait LinkIndex {
    /// A message with global sequence number `seq` was enqueued on `link`;
    /// the link's backlog is now `backlog` (≥ 1).
    fn on_push(&mut self, link: usize, seq: u64, backlog: usize);

    /// The head message of `link` was dequeued; the link's new head (if
    /// any) has sequence number `next_head_seq` and the backlog is now
    /// `backlog`.
    fn on_pop(&mut self, link: usize, next_head_seq: Option<u64>, backlog: usize);

    /// The policy's pick among the non-empty links. Must not be called
    /// while every link is empty.
    fn choose(&mut self) -> usize;

    /// Invoked *instead of* [`choose`](LinkIndex::choose) when exactly one
    /// link is non-empty and the engine short-circuits the pick. Policies
    /// whose choice has side effects (the random policy consumes RNG
    /// state) replicate them here so executions stay identical with and
    /// without the fast path.
    fn on_trivial_choose(&mut self) {}

    /// Cumulative count of elementary index operations (heap pushes/pops,
    /// bucket moves, Fenwick node visits). Test instrumentation: the
    /// equivalence suite asserts this stays O(log n) per event where the
    /// historical scan cost O(n).
    fn index_ops(&self) -> u64;
}

/// FIFO policy: a min-heap of `(head_seq, link)` with one entry per
/// non-empty link, so it grows with the links in use, not the ring size.
///
/// Sequence numbers within a link are strictly increasing, so the global
/// minimum over all queued messages always sits at some link's head and
/// the heap top is exactly the scan's `min_by_key(head_seq)` pick.
#[derive(Default)]
struct FifoIndex {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    ops: u64,
}

impl LinkIndex for FifoIndex {
    fn on_push(&mut self, link: usize, seq: u64, backlog: usize) {
        self.ops += 1;
        // Only a push that makes the link non-empty changes its head.
        if backlog == 1 {
            self.heap.push(Reverse((seq, link)));
        }
    }

    fn on_pop(&mut self, link: usize, next_head_seq: Option<u64>, _backlog: usize) {
        self.ops += 1;
        // The engine pops only the link this policy chose, which is the
        // heap top; replace its entry with the link's next head, if any.
        let top = self.heap.pop().expect("pop notification without queued links");
        debug_assert_eq!(top.0 .1, link, "popped link must be the FIFO minimum");
        if let Some(seq) = next_head_seq {
            self.heap.push(Reverse((seq, link)));
        }
    }

    fn choose(&mut self) -> usize {
        self.ops += 1;
        self.heap.peek().expect("choose() requires a non-empty link").0 .1
    }

    fn index_ops(&self) -> u64 {
        self.ops
    }
}

/// Longest-queue policy: links bucketed by backlog, ordered within each
/// bucket so ties break towards the lowest id.
struct LongestQueueIndex {
    /// `buckets[b]` = ids of links whose backlog is exactly `b` (`b ≥ 1`).
    buckets: Vec<BTreeSet<usize>>,
    /// Largest `b` with `buckets[b]` non-empty; 0 when all links are empty.
    max_backlog: usize,
    ops: u64,
}

impl LongestQueueIndex {
    fn new(_links: usize) -> Self {
        Self { buckets: vec![BTreeSet::new(); 2], max_backlog: 0, ops: 0 }
    }

    fn move_link(&mut self, link: usize, from: usize, to: usize) {
        if from > 0 {
            let removed = self.buckets[from].remove(&link);
            debug_assert!(removed, "link {link} missing from backlog bucket {from}");
        }
        if to > 0 {
            if self.buckets.len() <= to {
                self.buckets.resize(to + 1, BTreeSet::new());
            }
            self.buckets[to].insert(link);
        }
    }
}

impl LinkIndex for LongestQueueIndex {
    fn on_push(&mut self, link: usize, _seq: u64, backlog: usize) {
        self.ops += 1;
        self.move_link(link, backlog - 1, backlog);
        self.max_backlog = self.max_backlog.max(backlog);
    }

    fn on_pop(&mut self, link: usize, _next_head_seq: Option<u64>, backlog: usize) {
        self.ops += 1;
        self.move_link(link, backlog + 1, backlog);
        // The maximum drops by at most one per pop; each loop iteration
        // here is paid for by the push that raised max_backlog earlier.
        while self.max_backlog > 0 && self.buckets[self.max_backlog].is_empty() {
            self.max_backlog -= 1;
            self.ops += 1;
        }
    }

    fn choose(&mut self) -> usize {
        self.ops += 1;
        *self.buckets[self.max_backlog].iter().next().expect("choose() requires a non-empty link")
    }

    fn index_ops(&self) -> u64 {
        self.ops
    }
}

/// Random policy: a Fenwick tree of 0/1 occupancy over link ids.
///
/// `choose()` draws `k` uniformly over the non-empty count and selects the
/// `k`-th smallest non-empty link id by binary descent — the same link the
/// historical scan's `links[rng.gen_range(0..len)]` picked, because the
/// scan's list was id-sorted. Equal seeds therefore give executions
/// byte-identical to the seed implementation.
struct RandomIndex {
    rng: StdRng,
    /// 1-based Fenwick tree over link ids; `tree[i]` covers a power-of-two
    /// span of links ending at id `i - 1`.
    tree: Vec<u32>,
    /// Number of currently non-empty links.
    occupied: usize,
    /// Largest power of two ≤ tree span, the descent's starting stride.
    top_stride: usize,
    ops: u64,
}

impl RandomIndex {
    fn new(links: usize, seed: u64) -> Self {
        let top_stride = if links == 0 { 0 } else { links.next_power_of_two() };
        Self {
            rng: StdRng::seed_from_u64(seed),
            tree: vec![0; links + 1],
            occupied: 0,
            top_stride,
            ops: 0,
        }
    }

    /// Adds `delta` (±1) to link `id`'s occupancy.
    fn update(&mut self, id: usize, delta: i32) {
        let mut i = id + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
            self.ops += 1;
        }
    }

    /// Index of the `(k+1)`-th non-empty link (0-based rank `k`).
    fn select(&mut self, k: usize) -> usize {
        debug_assert!(k < self.occupied);
        let mut rank = (k + 1) as u32;
        let mut pos = 0usize;
        let mut stride = self.top_stride;
        while stride > 0 {
            let next = pos + stride;
            if next < self.tree.len() && self.tree[next] < rank {
                rank -= self.tree[next];
                pos = next;
            }
            stride >>= 1;
            self.ops += 1;
        }
        pos // 1-based tree position `pos + 1` holds the answer; link id = pos.
    }
}

impl LinkIndex for RandomIndex {
    fn on_push(&mut self, link: usize, _seq: u64, backlog: usize) {
        if backlog == 1 {
            self.update(link, 1);
            self.occupied += 1;
        }
    }

    fn on_pop(&mut self, link: usize, _next_head_seq: Option<u64>, backlog: usize) {
        if backlog == 0 {
            self.update(link, -1);
            self.occupied -= 1;
        }
    }

    fn choose(&mut self) -> usize {
        let k = self.rng.gen_range(0..self.occupied);
        self.select(k)
    }

    fn on_trivial_choose(&mut self) {
        // The scan implementation drew `gen_range(0..1)` even with a single
        // candidate; consume the identical RNG state so executions with the
        // single-link fast path stay byte-identical to ones without it.
        let k = self.rng.gen_range(0..1usize);
        debug_assert_eq!(k, 0);
        self.ops += 1;
    }

    fn index_ops(&self) -> u64 {
        self.ops
    }
}

/// Test-support surface: the retained naive-scan oracle and direct access
/// to the incremental indexes.
///
/// Everything here exists for the scheduler-equivalence property tests
/// (`crates/sim/tests/sched_equiv.rs`) and the soak benches; it is
/// `#[doc(hidden)]` because it is not part of the supported API and may
/// change shape in any release.
#[doc(hidden)]
pub mod testkit {
    use super::{LinkIndex, Scheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A link's visible state, as the scan-based seed engine presented it.
    #[derive(Debug, Clone, Copy)]
    pub struct LinkView {
        /// Dense link id.
        pub id: usize,
        /// Number of queued messages.
        pub backlog: usize,
        /// Global sequence number of the head message (send order).
        pub head_seq: u64,
    }

    /// The seed implementation's scan-based policies, verbatim: the oracle
    /// the incremental [`LinkIndex`] implementations are tested against.
    ///
    /// `links` must be sorted by id (the seed engine produced them that
    /// way by scanning queues in id order) and non-empty.
    pub enum NaiveChooser {
        /// Oldest head wins.
        Fifo,
        /// Uniform over the id-sorted non-empty list.
        Random(StdRng),
        /// Largest backlog wins, ties to the lowest id.
        LongestQueue,
    }

    impl NaiveChooser {
        /// Builds the oracle for `scheduler`.
        #[must_use]
        pub fn new(scheduler: &Scheduler) -> Self {
            match scheduler {
                Scheduler::Fifo => NaiveChooser::Fifo,
                Scheduler::Random { seed } => NaiveChooser::Random(StdRng::seed_from_u64(*seed)),
                Scheduler::LongestQueue => NaiveChooser::LongestQueue,
            }
        }

        /// The seed engine's pick among `links` (non-empty, id-sorted).
        pub fn choose(&mut self, links: &[LinkView]) -> usize {
            match self {
                NaiveChooser::Fifo => {
                    links
                        .iter()
                        .min_by_key(|l| l.head_seq)
                        .expect("choose() requires at least one link")
                        .id
                }
                NaiveChooser::Random(rng) => links[rng.gen_range(0..links.len())].id,
                NaiveChooser::LongestQueue => {
                    links
                        .iter()
                        .max_by(|a, b| a.backlog.cmp(&b.backlog).then(b.id.cmp(&a.id)))
                        .expect("choose() requires at least one link")
                        .id
                }
            }
        }
    }

    /// Builds the production incremental index for `scheduler` over
    /// `links` link queues, for driving directly in tests.
    #[must_use]
    pub fn build_index(scheduler: &Scheduler, links: usize) -> Box<dyn LinkIndex> {
        scheduler.build_index(links)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{build_index, LinkView, NaiveChooser};
    use super::*;

    /// Replays `pushes` (id-ordered seq assignment) into an index and
    /// returns it alongside the equivalent LinkView list.
    fn index_with(
        scheduler: &Scheduler,
        links: usize,
        heads: &[(usize, u64, usize)], // (id, head_seq, backlog)
    ) -> (Box<dyn LinkIndex>, Vec<LinkView>) {
        let mut idx = build_index(scheduler, links);
        // Enqueue each link's backlog: head first (head_seq), then
        // arbitrary later seqs, mirroring FIFO queue growth.
        for &(id, head_seq, backlog) in heads {
            for j in 0..backlog {
                idx.on_push(id, head_seq + j as u64 * 1000, j + 1);
            }
        }
        let views = heads
            .iter()
            .map(|&(id, head_seq, backlog)| LinkView { id, backlog, head_seq })
            .collect();
        (idx, views)
    }

    #[test]
    fn fifo_picks_oldest_head() {
        let (mut idx, _) = index_with(&Scheduler::Fifo, 3, &[(0, 9, 1), (1, 2, 3), (2, 5, 1)]);
        assert_eq!(idx.choose(), 1);
    }

    #[test]
    fn fifo_pop_promotes_next_head() {
        let mut idx = build_index(&Scheduler::Fifo, 4);
        idx.on_push(2, 0, 1);
        idx.on_push(2, 1, 2);
        idx.on_push(0, 2, 1);
        assert_eq!(idx.choose(), 2);
        idx.on_pop(2, Some(1), 1);
        assert_eq!(idx.choose(), 2, "seq 1 still beats seq 2");
        idx.on_pop(2, None, 0);
        assert_eq!(idx.choose(), 0);
    }

    #[test]
    fn longest_queue_picks_biggest_backlog_lowest_id() {
        let (mut idx, _) =
            index_with(&Scheduler::LongestQueue, 3, &[(0, 1, 2), (1, 9, 5), (2, 3, 5)]);
        assert_eq!(idx.choose(), 1);
    }

    #[test]
    fn longest_queue_max_tracks_pops() {
        let mut idx = build_index(&Scheduler::LongestQueue, 3);
        for j in 0..3 {
            idx.on_push(1, j, j as usize + 1);
        }
        idx.on_push(0, 10, 1);
        assert_eq!(idx.choose(), 1);
        idx.on_pop(1, Some(1), 2);
        idx.on_pop(1, Some(2), 1);
        // Backlogs now tie at 1; the lowest id wins.
        assert_eq!(idx.choose(), 0);
    }

    #[test]
    fn random_is_reproducible_across_builds() {
        let heads = [(0usize, 1u64, 1usize), (1, 2, 1), (2, 3, 1), (3, 4, 1)];
        let seq_for = |seed: u64| -> Vec<usize> {
            let (mut idx, _) = index_with(&Scheduler::Random { seed }, 4, &heads);
            (0..20).map(|_| idx.choose()).collect()
        };
        assert_eq!(seq_for(42), seq_for(42));
        // And a different seed differs somewhere (overwhelmingly likely).
        assert_ne!(seq_for(42), seq_for(43));
    }

    #[test]
    fn random_only_picks_listed_links() {
        let (mut idx, _) = index_with(&Scheduler::Random { seed: 7 }, 12, &[(4, 0, 1), (9, 1, 2)]);
        for _ in 0..50 {
            let id = idx.choose();
            assert!(id == 4 || id == 9);
        }
    }

    #[test]
    fn random_matches_naive_oracle_stream() {
        // Same seed, same candidate set ⇒ the Fenwick index and the scan
        // oracle draw identical RNG values and pick identical links.
        let heads = [(1usize, 0u64, 1usize), (3, 1, 2), (4, 2, 1), (10, 3, 4)];
        let scheduler = Scheduler::Random { seed: 1234 };
        let (mut idx, views) = index_with(&scheduler, 16, &heads);
        let mut oracle = NaiveChooser::new(&scheduler);
        for _ in 0..200 {
            assert_eq!(idx.choose(), oracle.choose(&views));
        }
    }

    #[test]
    fn trivial_choose_keeps_random_stream_aligned() {
        // Drawing via on_trivial_choose must leave the RNG exactly where a
        // full choose() over one candidate would have.
        let scheduler = Scheduler::Random { seed: 9 };
        let (mut fast, _) = index_with(&scheduler, 8, &[(5, 0, 1)]);
        let (mut slow, _) = index_with(&scheduler, 8, &[(5, 0, 1)]);
        fast.on_trivial_choose();
        assert_eq!(slow.choose(), 5);
        // Open a second link; both indexes must now agree on every pick.
        fast.on_push(2, 1, 1);
        slow.on_push(2, 1, 1);
        for _ in 0..50 {
            assert_eq!(fast.choose(), slow.choose());
        }
    }

    #[test]
    fn index_ops_counts_work() {
        let mut idx = build_index(&Scheduler::Fifo, 4);
        let before = idx.index_ops();
        idx.on_push(0, 0, 1);
        idx.choose();
        assert!(idx.index_ops() > before);
    }

    #[test]
    fn default_is_fifo() {
        assert_eq!(Scheduler::default(), Scheduler::Fifo);
    }
}
