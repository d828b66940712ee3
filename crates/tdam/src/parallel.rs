//! Reusable scoped-thread worker pool with deterministic work splitting.
//!
//! The Monte Carlo runner ([`crate::monte_carlo`]), the fault-campaign
//! driver ([`crate::resilience`]), and the batched query engine
//! ([`crate::engine::SimilarityEngine::search_batch`]) all need the same
//! shape of parallelism: a fixed set of independent work items, fanned out
//! over `std::thread::scope` workers, with results collected **in item
//! order** so the outcome is identical no matter how many threads ran or
//! how the scheduler interleaved them. This module is that shape, written
//! once.
//!
//! Determinism has two halves:
//!
//! 1. **Ordering** — [`run_chunked`] writes each item's result into a
//!    pre-allocated slot indexed by the item, so the returned `Vec` is in
//!    item order regardless of scheduling.
//! 2. **Seeding** — randomized workloads derive each item's RNG seed from
//!    the item index via [`mix_seed`], never from the worker-thread index,
//!    so changing the thread count cannot change the sampled streams.
//!
//! # Examples
//!
//! ```
//! use tdam::parallel::run_chunked;
//! use tdam::TdamError;
//!
//! let squares: Vec<usize> =
//!     run_chunked::<_, TdamError, _>(8, Some(3), |i| Ok(i * i)).unwrap();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use crate::TdamError;

/// Marker error: a worker thread panicked or its result slot was never
/// filled. Convert it into the caller's error type via `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLost;

impl core::fmt::Display for WorkerLost {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "a parallel worker thread was lost")
    }
}

impl std::error::Error for WorkerLost {}

impl From<WorkerLost> for TdamError {
    fn from(_: WorkerLost) -> Self {
        TdamError::Worker
    }
}

/// Resolves a requested worker count: `None` means all available cores,
/// and the result is always clamped to `1..=items.max(1)` so callers never
/// spawn idle threads.
pub fn resolve_threads(items: usize, threads: Option<usize>) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    threads.unwrap_or(available).max(1).min(items.max(1))
}

/// SplitMix64: one hop of the reference generator — add the golden
/// gamma, then finalize. The crate's one seeding primitive: corpus
/// training, sim schedules, fault- and crash-campaign seeds and
/// [`mix_seed`] all draw from it.
pub(crate) fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes an item index into a base seed (SplitMix64 finalizer), so
/// every item owns an independent RNG stream derived only from
/// `(base, index)` — never from which worker thread picked the item up.
pub fn mix_seed(base: u64, index: u64) -> u64 {
    splitmix(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Runs `f(item)` for every item in `0..items` across scoped worker
/// threads and returns **every** slot's outcome in item order.
///
/// This is the panic-isolating primitive behind [`run_chunked`] and the
/// serving runtime ([`crate::runtime`]): each item's call is wrapped in
/// [`std::panic::catch_unwind`], so a panicking item poisons only its own
/// slot (`Err(E::from(WorkerLost))`) while every sibling item — including
/// the rest of the panicking worker's chunk — still completes. Work is
/// split into contiguous chunks, one per worker; each worker writes into
/// its own slice of the pre-allocated slot vector, so no locks are needed
/// and the output order is independent of scheduling. `threads: None`
/// uses all available cores (see [`resolve_threads`]).
pub fn run_chunked_partial<R, E, F>(items: usize, threads: Option<usize>, f: F) -> Vec<Result<R, E>>
where
    R: Send,
    E: Send + From<WorkerLost>,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // One item's panic must not skip its siblings, so the per-item call is
    // caught here rather than surfacing at `join`. `AssertUnwindSafe` is
    // sound because a poisoned item's only observable state is its own
    // slot, which is overwritten with the error.
    let guarded = |i: usize| -> Result<R, E> {
        catch_unwind(AssertUnwindSafe(|| f(i))).unwrap_or_else(|_| Err(E::from(WorkerLost)))
    };

    if items == 0 {
        return Vec::new();
    }
    let n_threads = resolve_threads(items, threads);
    if n_threads == 1 {
        return (0..items).map(guarded).collect();
    }
    let chunk_size = items.div_ceil(n_threads);
    let mut slots: Vec<Option<Result<R, E>>> = Vec::with_capacity(items);
    slots.resize_with(items, || None);
    let guarded = &guarded;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, chunk) in slots.chunks_mut(chunk_size).enumerate() {
            let base = c * chunk_size;
            handles.push(scope.spawn(move || {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(guarded(base + offset));
                }
            }));
        }
        // Workers cannot panic past `guarded`; joining still collects the
        // (impossible) residue rather than propagating it.
        for h in handles {
            let _ = h.join();
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(E::from(WorkerLost))))
        .collect()
}

/// Runs `f(item)` for every item in `0..items` across scoped worker
/// threads and returns the results **in item order**.
///
/// All-or-nothing view of [`run_chunked_partial`]: every item still runs
/// (a panicking item no longer aborts its worker's remaining chunk), but
/// only the first failure in item order is reported.
///
/// # Errors
///
/// Returns the first per-item error in item order; an item whose call
/// panicked contributes `E::from(WorkerLost)` at its slot.
pub fn run_chunked<R, E, F>(items: usize, threads: Option<usize>, f: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send + From<WorkerLost>,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    run_chunked_partial(items, threads, f).into_iter().collect()
}

/// [`run_chunked`] with one reusable scratch value per worker: `init()`
/// runs once per worker thread, and `f(&mut scratch, item)` serves every
/// item in that worker's chunk against the same scratch — the batch
/// serving path's way of hoisting per-item heap allocation (query bit
/// planes, result buffers) out of the hot loop.
///
/// The scratch contract: `f` must fully reinitialize any scratch state it
/// reads, because after a panicking item the same scratch (in whatever
/// state the panic left it) is handed to the worker's next item. The
/// packed kernel obeys this by construction — query expansion overwrites
/// every scratch word before the kernel reads any.
///
/// # Errors
///
/// As [`run_chunked`]: the first per-item error in item order, with a
/// panicking item contributing `E::from(WorkerLost)` at its slot.
pub fn run_chunked_scratch<S, R, E, I, F>(
    items: usize,
    threads: Option<usize>,
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send + From<WorkerLost>,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<R, E> + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Same per-item panic isolation as `run_chunked_partial`:
    // `AssertUnwindSafe` is sound because a poisoned item's slot is
    // overwritten with the error, and the scratch contract above makes a
    // torn scratch unobservable to the next item.
    let guarded = |scratch: &mut S, i: usize| -> Result<R, E> {
        catch_unwind(AssertUnwindSafe(|| f(scratch, i)))
            .unwrap_or_else(|_| Err(E::from(WorkerLost)))
    };

    if items == 0 {
        return Ok(Vec::new());
    }
    let n_threads = resolve_threads(items, threads);
    if n_threads == 1 {
        let mut scratch = init();
        return (0..items).map(|i| guarded(&mut scratch, i)).collect();
    }
    let chunk_size = items.div_ceil(n_threads);
    let mut slots: Vec<Option<Result<R, E>>> = Vec::with_capacity(items);
    slots.resize_with(items, || None);
    let guarded = &guarded;
    let init = &init;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, chunk) in slots.chunks_mut(chunk_size).enumerate() {
            let base = c * chunk_size;
            handles.push(scope.spawn(move || {
                let mut scratch = init();
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(guarded(&mut scratch, base + offset));
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(E::from(WorkerLost))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_item_order_for_any_thread_count() {
        for threads in [Some(1), Some(2), Some(3), Some(7), Some(64), None] {
            let out: Vec<usize> =
                run_chunked::<_, TdamError, _>(23, threads, |i| Ok(i * 3)).unwrap();
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<u8> = run_chunked::<_, TdamError, _>(0, None, |_| Ok(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_in_item_order_wins() {
        let err = run_chunked::<usize, TdamError, _>(16, Some(4), |i| {
            if i >= 5 {
                Err(TdamError::RowOutOfBounds { row: i, rows: 5 })
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, TdamError::RowOutOfBounds { row: 5, rows: 5 });
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(4, Some(100)), 4);
        assert_eq!(resolve_threads(4, Some(0)), 1);
        assert_eq!(resolve_threads(0, Some(8)), 1);
        assert!(resolve_threads(1000, None) >= 1);
    }

    #[test]
    fn splitmix_matches_the_reference_generator() {
        // First output of reference SplitMix64 seeded with 0.
        assert_eq!(splitmix(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn mix_seed_decorrelates_indices() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable: pure function of (base, index).
        assert_eq!(a, mix_seed(42, 0));
    }

    #[test]
    fn worker_panic_is_reported_not_propagated() {
        let err = run_chunked::<usize, TdamError, _>(8, Some(4), |i| {
            if i == 6 {
                panic!("boom");
            }
            Ok(i)
        })
        .unwrap_err();
        assert_eq!(err, TdamError::Worker);
    }

    #[test]
    fn panic_poisons_only_its_own_slot() {
        // Item 5 panics; with 2 workers its chunk is items 4..8, so the
        // old join-based capture lost items 6 and 7 too. Per-slot capture
        // must complete every sibling, including the panicking worker's
        // remaining chunk, for any thread count.
        for threads in [Some(1), Some(2), Some(4), None] {
            let slots = run_chunked_partial::<usize, TdamError, _>(8, threads, |i| {
                if i == 5 {
                    panic!("poisoned query");
                }
                Ok(i * 2)
            });
            assert_eq!(slots.len(), 8);
            for (i, slot) in slots.iter().enumerate() {
                if i == 5 {
                    assert_eq!(slot, &Err(TdamError::Worker));
                } else {
                    assert_eq!(slot, &Ok(i * 2));
                }
            }
        }
    }

    #[test]
    fn scratch_results_in_item_order_for_any_thread_count() {
        for threads in [Some(1), Some(2), Some(3), Some(7), Some(64), None] {
            let out: Vec<usize> = run_chunked_scratch::<_, _, TdamError, _, _>(
                23,
                threads,
                || vec![0usize; 4],
                |scratch, i| {
                    scratch[0] = i * 3;
                    Ok(scratch[0])
                },
            )
            .unwrap();
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scratch_survives_a_panicking_item() {
        // Item 5 panics mid-chunk; its worker's scratch must keep serving
        // the rest of the chunk (items fully reinitialize their state).
        for threads in [Some(1), Some(2), None] {
            let err = run_chunked_scratch::<_, usize, TdamError, _, _>(
                8,
                threads,
                || 0usize,
                |scratch, i| {
                    if i == 5 {
                        panic!("torn scratch");
                    }
                    *scratch = i;
                    Ok(*scratch)
                },
            )
            .unwrap_err();
            assert_eq!(err, TdamError::Worker);
        }
    }

    #[test]
    fn partial_keeps_every_error_in_place() {
        let slots = run_chunked_partial::<usize, TdamError, _>(6, Some(3), |i| {
            if i % 2 == 1 {
                Err(TdamError::RowOutOfBounds { row: i, rows: 3 })
            } else {
                Ok(i)
            }
        });
        assert_eq!(
            slots,
            vec![
                Ok(0),
                Err(TdamError::RowOutOfBounds { row: 1, rows: 3 }),
                Ok(2),
                Err(TdamError::RowOutOfBounds { row: 3, rows: 3 }),
                Ok(4),
                Err(TdamError::RowOutOfBounds { row: 5, rows: 3 }),
            ]
        );
    }
}
