//! A scoped-thread job pool for embarrassingly parallel job grids.
//!
//! Built on [`std::thread::scope`] only — no external dependencies.
//! Workers claim jobs from one shared atomic cursor: each free worker
//! takes the next unclaimed index. The jobs of a sweep vary widely in
//! cost (a 1024-bit adder point costs ~100× a 32-bit one), so claiming
//! one job at a time — not static chunking — is what keeps all cores
//! busy to the end.
//!
//! Results come back in submission order no matter which worker ran
//! what: one reorder buffer holds early finishers and hands the
//! contiguous prefix to an in-order callback ([`map_streamed`]), so
//! streamed and collected output both diff byte-for-byte against a
//! serial run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One job's output together with its wall-clock execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed<R> {
    /// What the job computed.
    pub value: R,
    /// How long the closure ran on its worker.
    pub duration: Duration,
}

/// The number of workers to use by default: every available core.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every item on `threads` workers, hands each result to
/// `deliver` as soon as it and every earlier result are done, and
/// returns the timed results in submission order. `deliver` sees each
/// index of `0..items.len()` exactly once, in order, one call at a time
/// (behind the reorder lock) but not always on the same thread; one
/// that blocks stalls delivery, not correctness. `Timed::duration`
/// covers `f` only.
///
/// `threads == 1` runs inline on the calling thread (no spawn, same code
/// path for the closure), which gives tests a serial reference. Requests
/// beyond the job count are clamped — a worker without a possible job is
/// never spawned. A zero thread count is a caller bug (the CLI rejects
/// `--threads 0`): debug builds assert; release builds clamp to one
/// worker rather than deadlock or spawn nothing.
///
/// # Panics
///
/// Propagates panics from `f` and `deliver` (the scope joins all
/// workers first), and asserts `threads > 0` in debug builds.
pub fn map_streamed<T, R, F, D>(items: &[T], threads: usize, f: F, deliver: D) -> Vec<Timed<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    D: Fn(usize, &R) + Sync,
{
    debug_assert!(
        threads > 0,
        "pool::map_streamed called with zero threads; validate --threads at the CLI layer"
    );
    let threads = threads.clamp(1, items.len().max(1));
    let run = |idx: usize| {
        let t0 = Instant::now();
        let value = f(idx, &items[idx]);
        Timed {
            value,
            duration: t0.elapsed(),
        }
    };
    if threads <= 1 {
        return (0..items.len())
            .map(|idx| {
                let timed = run(idx);
                deliver(idx, &timed.value);
                timed
            })
            .collect();
    }

    // The next unclaimed job. `Relaxed` suffices: the cursor publishes
    // no data (items are shared read-only, results travel through the
    // reorder lock), and `fetch_add` alone makes each claim unique.
    let cursor = AtomicUsize::new(0);
    // The reorder buffer: completed results by index, plus the index of
    // the next one to deliver.
    let reorder = Mutex::new((
        (0..items.len())
            .map(|_| None)
            .collect::<Vec<Option<Timed<R>>>>(),
        0,
    ));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (cursor, reorder, run, deliver) = (&cursor, &reorder, &run, &deliver);
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let timed = run(idx);
                let (slots, next) = &mut *reorder.lock().expect("reorder lock");
                debug_assert!(slots[idx].is_none(), "job {idx} ran twice");
                slots[idx] = Some(timed);
                while let Some(Some(ready)) = slots.get(*next) {
                    deliver(*next, &ready.value);
                    *next += 1;
                }
            });
        }
    });
    let (slots, _) = reorder.into_inner().expect("reorder lock");
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// [`map_streamed`] without a callback.
    fn map<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<Timed<R>> {
        map_streamed(items, threads, f, |_, _| {})
    }

    #[test]
    fn preserves_submission_order_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = map(&items, threads, |i, &x| {
                assert_eq!(i, x, "index must match item position");
                x * 3
            });
            assert_eq!(out.len(), 97);
            for (i, t) in out.iter().enumerate() {
                assert_eq!(t.value, i * 3, "threads={threads}");
            }
        }
    }

    #[test]
    fn callback_sees_every_index_once_in_order_under_uneven_costs() {
        // Early indices are the slowest, so later ones finish first and
        // must wait in the reorder buffer.
        let items: Vec<u64> = (0..40).collect();
        for threads in 1..=8 {
            let seen = Mutex::new(Vec::new());
            let out = map_streamed(
                &items,
                threads,
                |_, &x| {
                    let mut acc = x;
                    for i in 0..(40 - x) * 20_000 {
                        acc = std::hint::black_box(acc.wrapping_add(i ^ x));
                    }
                    (x, acc)
                },
                |i, &(x, _)| seen.lock().unwrap().push((i, x)),
            );
            let expected: Vec<(usize, u64)> = (0..40).map(|i| (i, i as u64)).collect();
            assert_eq!(seen.into_inner().unwrap(), expected, "threads {threads}");
            let order: Vec<u64> = out.iter().map(|t| t.value.0).collect();
            assert_eq!(order, items, "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<u32> = (0..16).collect();
        map(&items, 4, |_, &x| assert_ne!(x, 7, "job 7 fails"));
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        map(&items, 7, |_, &i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job {i}");
        }
    }

    #[test]
    fn stealing_drains_skewed_workloads() {
        // One pathological job plus many cheap ones: the cheap jobs must
        // not wait behind the expensive one (they live in other queues
        // and are stolen while worker 0 grinds).
        let items: Vec<u64> = (0..32).collect();
        let out = map(&items, 4, |_, &x| {
            let spins = if x == 0 { 2_000_000 } else { 10 };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(i ^ x);
            }
            acc
        });
        assert_eq!(out.len(), 32);
        // The expensive job really was the slow one.
        let slowest = out
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| t.duration)
            .map(|(i, _)| i);
        assert_eq!(slowest, Some(0));
    }

    #[test]
    fn clamps_thread_count_to_job_count() {
        let out = map(&[1u32, 2], 16, |_, &x| x + 1);
        assert_eq!(out.iter().map(|t| t.value).collect::<Vec<_>>(), [2, 3]);
        let empty: Vec<Timed<u32>> = map(&[], 4, |_, &x: &u32| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn timings_are_recorded() {
        let out = map(&[1u32], 1, |_, _| {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert!(out[0].duration >= Duration::from_millis(2));
    }
}
