//! The one parallel level of reconstruction (DESIGN.md §6).
//!
//! Per-container tasks are independent (paper §4.1) and never spawn
//! further tasks, so one shared queue balances skewed task sizes as well
//! as work stealing would: a worker that finishes a short task pulls the
//! next one. Everything inside a task — scoring, MIS, commit, refit —
//! runs sequentially on the worker that pulled it.

use crossbeam::channel::unbounded;
use parking_lot::Mutex;

/// Apply `f` to every item on `min(threads, items.len())` scoped workers
/// pulling from one shared queue. Each result lands in its item's slot,
/// so the output is in input order and equals the sequential map for
/// every thread count; `f` must be deterministic per item. With at most
/// one worker it runs inline on the calling thread.
pub(crate) fn ordered_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let (tx, rx) = unbounded();
    for pair in items.into_iter().enumerate() {
        // Unbounded, with `rx` alive below: the send cannot fail.
        let _ = tx.send(pair);
    }
    drop(tx); // the queue ends once drained
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (rx, slots, f) = (&rx, &slots, &f);
            scope.spawn(move || {
                for (i, item) in rx {
                    *slots[i].lock() = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every queued item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deliberately uneven per-item cost: every seventh item spins a
    /// hundred times longer, so workers finish out of step.
    fn uneven(x: u64) -> (u64, u64) {
        let spins = if x.is_multiple_of(7) { 20_000 } else { 200 };
        let mut acc = x;
        for _ in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        (x, acc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ordered_map_equals_the_sequential_map(
            threads in 0usize..10,
            items in prop::collection::vec(any::<u64>(), 0..200),
        ) {
            let sequential: Vec<(u64, u64)> = items.iter().map(|&x| uneven(x)).collect();
            prop_assert_eq!(ordered_map(threads, items, uneven), sequential);
        }
    }
}
