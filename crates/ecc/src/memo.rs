//! A single-flight memo table: the one keyed cache in the workspace.
//!
//! [`Memo`] backs both `cqla_core`'s `EvalCtx` (one instance per family
//! of evaluation sub-results: ECC metrics per `(tech, code, level)`,
//! adder schedules per `(bits, blocks)`, …) and the HTTP service's
//! bounded results cache. Its contract:
//!
//! - **Single-flight.** The first caller on a missing key computes it
//!   *without* holding the table lock; concurrent callers on the same key
//!   park until that value lands and return it. A key is computed once,
//!   however many threads race on it — other keys never wait.
//! - **Cancellation.** A fallible computation that returns `Err`, or one
//!   that panics, stores nothing: the key is released and one parked
//!   waiter takes over the computation. The `Err` (or the panic) goes to
//!   the caller that ran it.
//! - **Outcome.** Every lookup reports an [`Outcome`] — answered from the
//!   table, answered by waiting on another caller, or computed — and the
//!   table keeps a counter for each.
//! - **Capacity.** [`Memo::with_capacity`] bounds the table: storing past
//!   the bound evicts the least-recently-used entry (counted by
//!   [`Memo::evictions`]). [`Memo::new`] is unbounded.
//!
//! Values are cloned out on every lookup, so large values belong behind
//! an `Arc`.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// How a [`Memo`] lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The value was already stored.
    Hit,
    /// Another caller was computing the key; this one waited for it.
    Coalesced,
    /// This caller ran the computation.
    Computed,
}

/// The lock-protected part of a [`Memo`].
#[derive(Debug)]
struct Table<K, V> {
    /// Stored values with their last-use stamp.
    ready: HashMap<K, (V, u64)>,
    /// Keys some caller is computing right now.
    pending: HashSet<K>,
    /// Logical clock for the LRU stamps.
    tick: u64,
}

/// A concurrent single-flight memo table for one family of keyed
/// computations. See the [module docs](self) for the contract.
///
/// # Examples
///
/// ```
/// use cqla_ecc::memo::{Memo, Outcome};
///
/// let memo: Memo<u32, u64> = Memo::new();
/// assert_eq!(memo.try_get_or_compute(6, || Ok::<_, ()>(720)), Ok((720, Outcome::Computed)));
/// assert_eq!(memo.try_get_or_compute(6, || Err("memoized")), Ok((720, Outcome::Hit)));
/// assert_eq!((memo.hits(), memo.misses()), (1, 1));
///
/// // A failed computation is not stored.
/// assert_eq!(memo.try_get_or_compute(7, || Err("nope")), Err("nope"));
/// assert_eq!(memo.try_get_or_compute(7, || Ok::<_, ()>(5040)), Ok((5040, Outcome::Computed)));
/// ```
#[derive(Debug)]
pub struct Memo<K, V> {
    table: Mutex<Table<K, V>>,
    /// Signalled whenever a pending key is stored or released.
    settled: Condvar,
    capacity: usize,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::with_capacity(usize::MAX)
    }
}

impl<K, V> Memo<K, V> {
    /// Creates an empty table that evicts the least-recently-used entry
    /// once it holds `capacity` values (at least one).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            table: Mutex::new(Table {
                ready: HashMap::new(),
                pending: HashSet::new(),
                tick: 0,
            }),
            settled: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The table, even if a panicking thread poisoned its lock: every
    /// critical section leaves the table consistent, and the release
    /// path runs during unwinding, where a second panic would abort.
    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lookups answered from the table without waiting.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups answered by waiting on another caller's computation.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Lookups that ran the computation (whether or not it succeeded).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to respect the capacity.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of values stored (computations in flight not included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().ready.len()
    }

    /// Whether no value is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// Creates an empty, unbounded table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the value for `key` and how it was obtained, running
    /// `compute` on a miss. An `Err` is returned to this caller and
    /// nothing is stored; parked waiters retry, one of them computing.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error when this caller ran it.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `compute`, after releasing the key.
    pub fn try_get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Outcome), E> {
        let mut waited = false;
        let mut table = self.lock();
        loop {
            table.tick += 1;
            let tick = table.tick;
            if let Some((value, stamp)) = table.ready.get_mut(&key) {
                *stamp = tick;
                let value = value.clone();
                drop(table);
                return Ok(if waited {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    (value, Outcome::Coalesced)
                } else {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    (value, Outcome::Hit)
                });
            }
            if !table.pending.contains(&key) {
                break;
            }
            waited = true;
            table = self
                .settled
                .wait(table)
                .unwrap_or_else(PoisonError::into_inner);
        }
        table.pending.insert(key.clone());
        drop(table);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Released on drop, so an `Err` or a panic frees the key.
        let mut flight = Flight {
            memo: self,
            key: Some(key),
        };
        let value = compute()?;
        let key = flight.key.take().expect("flight owns its key");
        let mut table = self.lock();
        table.pending.remove(&key);
        self.store(&mut table, key, value.clone());
        drop(table);
        self.settled.notify_all();
        Ok((value, Outcome::Computed))
    }

    /// Stores a value, first evicting the least-recently-used entry if
    /// the table is full and `key` is new. The O(n) scan runs only on
    /// stores into a full table, never on hits.
    fn store(&self, table: &mut Table<K, V>, key: K, value: V) {
        if table.ready.len() >= self.capacity && !table.ready.contains_key(&key) {
            let lru = table
                .ready
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                table.ready.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        table.tick += 1;
        let tick = table.tick;
        table.ready.insert(key, (value, tick));
    }
}

/// A computation in progress: releases its key (waking the waiters, one
/// of which takes over) unless the value was stored.
struct Flight<'a, K: Eq + Hash, V> {
    memo: &'a Memo<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.memo.lock().pending.remove(&key);
            self.memo.settled.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
        /// The value for `key`, running the infallible `compute` on a miss.
        fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
            let Ok((value, _)) = self.try_get_or_compute(key, || Ok::<_, Infallible>(compute()));
            value
        }
    }

    #[test]
    fn second_lookup_hits_without_recomputing() {
        let memo: Memo<(u32, u32), f64> = Memo::new();
        let mut runs = 0;
        for _ in 0..3 {
            let v = memo.get_or_compute((2, 3), || {
                runs += 1;
                6.0
            });
            assert_eq!(v, 6.0);
        }
        assert_eq!(runs, 1);
        assert_eq!(memo.hits(), 2);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let memo: Memo<u32, u32> = Memo::new();
        assert_eq!(memo.get_or_compute(1, || 10), 10);
        assert_eq!(memo.get_or_compute(2, || 20), 20);
        assert_eq!(memo.len(), 2);
        assert!(!memo.is_empty());
    }

    #[test]
    fn concurrent_lookups_agree() {
        let memo: Memo<u32, u64> = Memo::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..32u32 {
                        assert_eq!(
                            memo.get_or_compute(k, || u64::from(k) * 3),
                            u64::from(k) * 3
                        );
                    }
                });
            }
        });
        assert_eq!(memo.len(), 32);
        assert_eq!(memo.misses(), 32, "every key computed exactly once");
        assert_eq!(memo.hits() + memo.coalesced(), 3 * 32);
    }

    #[test]
    fn two_threads_on_one_key_compute_it_once() {
        let memo: Memo<u32, u64> = Memo::new();
        let runs = AtomicUsize::new(0);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let v = memo.get_or_compute(1, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Long enough that the other thread arrives
                        // while this computation is in flight.
                        std::thread::sleep(Duration::from_millis(50));
                        7
                    });
                    assert_eq!(v, 7);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits() + memo.coalesced(), 1);
    }

    #[test]
    fn failed_or_panicking_computes_are_not_stored_and_release_waiters() {
        let memo: Memo<u32, u64> = Memo::new();
        assert_eq!(memo.try_get_or_compute(1, || Err("bad")), Err("bad"));
        assert!(memo.is_empty());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(1, || panic!("compute failed"))
        }));
        assert!(panicked.is_err());
        assert!(memo.is_empty());
        // Neither left the key blocked: the next caller computes it.
        assert_eq!(memo.get_or_compute(1, || 9), 9);
        assert_eq!(memo.misses(), 3);

        // A waiter parked on a failing owner retries and computes.
        let entered = Barrier::new(2);
        let owner_done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let r = memo.try_get_or_compute(2, || {
                    entered.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    owner_done.store(1, Ordering::SeqCst);
                    Err(())
                });
                assert_eq!(r, Err(()));
            });
            s.spawn(|| {
                entered.wait();
                let r = memo.try_get_or_compute(2, || {
                    assert_eq!(owner_done.load(Ordering::SeqCst), 1, "ran after the owner");
                    Ok::<_, ()>(11)
                });
                assert_eq!(r, Ok((11, Outcome::Computed)));
            });
        });
        assert_eq!(memo.get_or_compute(2, || unreachable!("stored")), 11);
    }

    #[test]
    fn single_flight_protocol_resolves_hits_and_retries_abandons() {
        let memo: Memo<&str, String> = Memo::new();
        // Cold miss: the caller computes; an `Err` abandons the key.
        assert_eq!(memo.try_get_or_compute("k", || Err(())), Err(()));
        // Abandoning re-opens the key: the next lookup computes again.
        let resolved = memo.try_get_or_compute("k", || Ok::<_, ()>("body".to_owned()));
        assert_eq!(resolved, Ok(("body".to_owned(), Outcome::Computed)));
        // Resolving lands the body; later lookups hit.
        let hit = memo.try_get_or_compute("k", || -> Result<String, ()> { unreachable!() });
        assert_eq!(hit, Ok(("body".to_owned(), Outcome::Hit)));
        // A parked waiter receives the owner's body as coalesced.
        let computing = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_compute("k2", || {
                    computing.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    "body2".to_owned()
                })
            });
            s.spawn(|| {
                computing.wait();
                let r = memo.try_get_or_compute("k2", || -> Result<String, ()> {
                    panic!("a waiter must never compute a resolved key")
                });
                // Coalesced if it parked before the resolve, a plain hit
                // if it arrived after — both carry the body.
                let (body, outcome) = r.unwrap();
                assert_eq!(body, "body2");
                assert_ne!(outcome, Outcome::Computed);
            });
        });
    }

    /// The value stored under `key`, if any (a lookup that never
    /// computes).
    fn stored<V: Clone>(memo: &Memo<&'static str, V>, key: &'static str) -> Option<V> {
        let lookup = memo.try_get_or_compute(key, || Err(()));
        lookup.ok().map(|(value, _)| value)
    }

    #[test]
    fn lru_cache_evicts_the_least_recently_used_entry() {
        let memo: Memo<&str, &str> = Memo::with_capacity(2);
        assert_eq!(memo.get_or_compute("a", || "A"), "A");
        assert_eq!(memo.get_or_compute("b", || "B"), "B");
        assert_eq!(memo.evictions(), 0);
        // Touch `a` so `b` becomes the least recently used…
        assert_eq!(memo.get_or_compute("a", || unreachable!()), "A");
        // …then overflow: `b` must go, `a` must stay.
        assert_eq!(memo.get_or_compute("c", || "C"), "C");
        assert_eq!(memo.evictions(), 1);
        assert_eq!(memo.len(), 2);
        assert_eq!(stored(&memo, "b"), None, "LRU entry must be evicted");
        assert_eq!(stored(&memo, "a"), Some("A"));
        assert_eq!(stored(&memo, "c"), Some("C"));
    }
}
