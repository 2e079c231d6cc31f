//! Work-stealing thread pool for fanning sweep grids out to OS threads.
//!
//! The experiment layer measures (protocol, ring size, seed) grid points
//! that are completely independent of each other; this module runs them
//! concurrently without giving up the property every experiment depends
//! on: **regenerability**. Two contracts make parallel sweeps
//! bit-identical to serial ones:
//!
//! 1. **Ordered collection.** [`ordered_map`] returns results in *input*
//!    order, whatever order workers finish in. Each job travels with its
//!    input index; results are placed by index, so downstream folds
//!    (worst-case selection, fitting, report rows) see exactly the
//!    sequence a serial loop would have produced.
//! 2. **Per-point RNG seeding.** Callers must not thread one RNG through
//!    the jobs (that would make point `k`'s workload depend on how many
//!    points ran before it). Instead every grid point derives its own
//!    seed from the sweep's base seed and the point's coordinates — see
//!    `SweepGrid` in `ringleader_analysis` — so a point's workload is a
//!    pure function of (base seed, coordinates), independent of worker
//!    count, scheduling, and completion order.
//!
//! Scheduling is work-stealing over plain `std::thread` + crossbeam
//! channels (no external pool dependency): jobs are dealt round-robin
//! into one MPMC queue per worker; a worker drains its own queue first
//! and then steals from its siblings', so a worker stuck on an expensive
//! point never strands cheap points behind it. Because the whole grid is
//! enqueued before the workers start, queues only ever report `Ok` or
//! `Disconnected` — workers never block mid-map.
//!
//! A job that panics does not poison the map: the panic is caught, the
//! remaining jobs still run, and the first panic (in input order) is
//! re-raised on the caller's thread after every worker has finished —
//! the same observable behaviour as a serial loop that panics at that
//! point, minus the later results.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

use crossbeam::channel::{unbounded, Receiver, Sender};

/// Default worker count: the machine's available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over `items` on `workers` threads, returning the results in
/// input order regardless of completion order.
///
/// `f` receives each item's input index alongside the item. With
/// `workers <= 1` the map degenerates to a strictly serial in-place loop
/// (no threads spawned), which is also the reference behaviour parallel
/// runs must reproduce.
///
/// # Panics
///
/// If one or more jobs panic, every remaining job still runs, and the
/// panic of the earliest affected *input index* is re-raised here once
/// all workers have stopped — deterministic, unlike racing the workers.
pub fn ordered_map<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let n = items.len();
    let workers = workers.min(n);

    type Queue<I> = (Sender<(usize, I)>, Receiver<(usize, I)>);
    // One queue per worker; the whole grid is dealt before anyone runs.
    let mut queues: Vec<Queue<I>> = Vec::new();
    for _ in 0..workers {
        queues.push(unbounded());
    }
    for (i, item) in items.into_iter().enumerate() {
        assert!(queues[i % workers].0.send((i, item)).is_ok(), "receiver held below");
    }
    let receivers: Vec<Receiver<(usize, I)>> = queues.iter().map(|(_, rx)| rx.clone()).collect();
    // Drop the senders: from here on every queue is a frozen deque and
    // `try_recv` can only yield `Ok` or `Disconnected`.
    drop(queues);

    let (results_tx, results_rx) = unbounded::<(usize, Result<T, Panic>)>();
    thread::scope(|scope| {
        for w in 0..workers {
            let receivers = &receivers;
            let f = &f;
            let results_tx = results_tx.clone();
            scope.spawn(move || {
                // Own queue first, then steal from siblings in ring order.
                loop {
                    let mut job = None;
                    for k in 0..receivers.len() {
                        if let Ok(next) = receivers[(w + k) % receivers.len()].try_recv() {
                            job = Some(next);
                            break;
                        }
                    }
                    let Some((i, item)) = job else { break };
                    let out = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                    let _ = results_tx.send((i, out));
                }
            });
        }
        drop(results_tx);

        let mut slots: Vec<Option<Result<T, Panic>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, out) = results_rx.recv().expect("every job reports exactly once");
            slots[i] = Some(out);
        }
        // Workers have sent everything; the scope joins them on exit.
        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<Panic> = None;
        for slot in slots {
            match slot.expect("all slots filled") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    })
}

type Panic = Box<dyn std::any::Any + Send + 'static>;
#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn ordered_map_preserves_input_order() {
        for workers in [1usize, 2, 4, 9] {
            let items: Vec<usize> = (0..50).collect();
            let out = ordered_map(workers, items, |i, x| {
                assert_eq!(i, x);
                // Reverse the natural completion order: early items slow.
                if x < 8 {
                    thread::sleep(Duration::from_millis(3));
                }
                x * 10
            });
            assert_eq!(out, (0..50).map(|x| x * 10).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn ordered_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(ordered_map(4, empty, |_, x| x).is_empty());
        assert_eq!(ordered_map(4, vec![7u8], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn ordered_map_propagates_earliest_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            ordered_map(4, (0..20).collect::<Vec<usize>>(), |_, x| {
                if x == 13 {
                    panic!("boom at thirteen");
                }
                if x == 17 {
                    panic!("boom at seventeen");
                }
                x
            })
        }));
        let payload = caught.expect_err("must propagate the panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom at thirteen", "earliest input index wins");
    }

    #[test]
    fn ordered_map_overlaps_waiting_work() {
        // Jobs that *wait* (as simulation points blocked on channels do)
        // must overlap: 12 jobs × 20 ms on 4 workers ≈ 3 rounds, far
        // below the 240 ms a serial loop needs. Generous bound to stay
        // robust on a loaded single-core CI runner.
        let start = Instant::now();
        let out = ordered_map(4, vec![(); 12], |i, ()| {
            thread::sleep(Duration::from_millis(20));
            i
        });
        let elapsed = start.elapsed();
        assert_eq!(out.len(), 12);
        assert!(elapsed < Duration::from_millis(200), "no overlap: {elapsed:?}");
    }
}
