//! The one worker pool: compute `f(i)` for every `i in 0..n` on up to
//! `workers` threads and return the results in index order.
//!
//! Every fan-out in the workspace rides [`run_indexed`]: the batched
//! evaluator's fixed-chunk parallel path, Monte-Carlo's per-worker
//! draws, simulated annealing's restarts, the portfolio race and the
//! bench sweeps. Workers *steal* the next unclaimed index from a shared
//! atomic counter, so a slow item (the saturated end of a load curve, a
//! long anneal) never strands the rest of the grid behind it.
//!
//! Each result is stored under its own index, so the output — and
//! therefore every merge, table and golden built on it — is identical to
//! the serial order whatever the worker count or steal interleaving. The
//! closure receives only the index; callers index into their own item
//! lists, which keeps borrows trivially `Sync`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Core count the host reports (1 if detection fails). Callers apply
/// their own cap: the solvers stop at 8 workers, the sweeps use them all.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(0..n)` on `workers` threads and return the results in index
/// order.
///
/// `workers` is clamped to `1..=n` (`0` counts as `1`). One worker runs
/// every item inline on the caller's thread; `w > 1` workers are `w`
/// scoped threads while the caller waits. Blocks until the whole grid is
/// done. If an item panics, its worker stops, the others finish the
/// grid, and the panic is re-raised to the caller with its own payload.
pub fn run_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        let mut parts = Vec::with_capacity(workers);
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (i, value) in parts.into_iter().flatten() {
            slots[i] = Some(value);
        }
    });
    // Every index in 0..n was claimed by exactly one worker, so no slot
    // is empty and flattening keeps index order.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_indexed(workers, 37, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_grid_returns_empty() {
        let got: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn stealing_covers_every_index_exactly_once() {
        let calls = AtomicU64::new(0);
        let got = run_indexed(3, 100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_panicking_item_reaches_the_caller_with_its_message() {
        // With more than one worker every item runs on a spawned thread,
        // so the message has to cross the join.
        let _ = run_indexed(3, 10, |i| {
            if i == 5 {
                panic!("item {i} failed");
            }
            i
        });
    }

    #[test]
    fn worker_count_is_clamped_to_the_grid() {
        let caller = std::thread::current().id();
        // Zero workers counts as one: every item runs inline.
        let ids = run_indexed(0, 4, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller; 4]);
        // More workers than items: one result per item, in order, all
        // computed on spawned threads.
        let ids = run_indexed(64, 3, |i| (i, std::thread::current().id()));
        assert_eq!(ids.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(ids.iter().all(|&(_, id)| id != caller));
        assert!(detected_cores() >= 1);
    }
}
