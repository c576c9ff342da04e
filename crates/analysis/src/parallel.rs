use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Applies `f` to every item across `threads` OS threads, preserving
/// input order in the output.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs — ubiquitous in Monte-Carlo sweeps where large configurations
/// run longest — still balance. Panics in `f` propagate.
///
/// With `threads <= 1` or a single item, runs inline with no spawning.
///
/// # Examples
///
/// ```
/// use sparsegossip_analysis::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(items, threads, || (), |(), item| f(item))
}

/// As [`parallel_map`], but each worker thread first builds a private
/// state with `init` and hands `f` a mutable reference to it for every
/// item it processes.
///
/// This is the scratch-reuse hook of the sweep machinery: a worker's
/// state (e.g. a warmed-up simulation scratch) persists across all the
/// items that worker picks up, so per-item setup cost is paid once per
/// thread instead of once per item. Because work distribution is
/// dynamic, *which* items share a state is scheduling-dependent —
/// states must therefore never influence results, only speed. Output
/// order is input order regardless.
///
/// # Examples
///
/// ```
/// use sparsegossip_analysis::parallel_map_with;
///
/// // Each worker reuses one growable buffer for all its items.
/// let out = parallel_map_with(
///     &[1usize, 2, 3],
///     2,
///     Vec::new,
///     |buf: &mut Vec<usize>, &n| {
///         buf.clear();
///         buf.extend(0..n);
///         buf.iter().sum::<usize>()
///     },
/// );
/// assert_eq!(out, vec![0, 1, 3]);
/// ```
pub fn parallel_map_with<T, S, U, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    if threads <= 1 || items.len() == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let threads = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<U>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&mut state, &items[i]);
                    *results[i].lock() = Some(out);
                }
            });
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "scoped threads fill every slot before joining"
    )]
    let filled = results
        .into_iter()
        .map(|m| m.into_inner().expect("every slot filled"))
        .collect();
    filled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = parallel_map(&[1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(&[10], 16, |&x| x - 1);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn per_worker_state_persists_and_output_is_ordered() {
        // Count how many items each worker state saw; the total must be
        // the item count and the output must stay in input order.
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_with(
            &items,
            4,
            || 0usize,
            |seen, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(out.len(), 64);
        for (i, &(x, seen)) in out.iter().enumerate() {
            assert_eq!(x, i);
            assert!(seen >= 1);
        }
        let total: usize = {
            // Each worker's last-seen counts sum to 64, but we can only
            // observe per-item snapshots; the serial path is exact.
            let serial = parallel_map_with(
                &items,
                1,
                || 0usize,
                |s, _| {
                    *s += 1;
                    *s
                },
            );
            *serial.last().unwrap()
        };
        assert_eq!(total, 64, "serial path reuses one state for all items");
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still produce correct,
        // ordered output.
        let items: Vec<u64> = (0..32)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let out = parallel_map(&items, 4, |&n| (0..n).sum::<u64>());
        for (n, got) in items.iter().zip(&out) {
            assert_eq!(*got, n * (n - 1) / 2);
        }
    }
}
