//! Minimal order-preserving parallel map over scoped threads.
//!
//! The workspace builds without registry dependencies, so this
//! implements the one rayon shape the engine still needs — `par_iter().map().collect()`
//! — on `std::thread::scope`: workers take the next item from a shared
//! index counter, and results are merged back into input order. Output
//! is therefore *bit-identical* to the serial map regardless of thread
//! count or scheduling. The sweep itself runs on its own per-batch
//! worker pool (see [`crate::explore::CACHE_FLUSH_CHUNK`]); only the
//! Pareto-front lift maps its points through here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// input order. `f` receives `(index, &item)`. Falls back to a plain
/// serial map for `threads <= 1` or tiny inputs.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected.lock().expect("worker panicked").extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().expect("worker panicked");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map(&items, 1, |_, &x| x * 3 + 1);
        let parallel = par_map(&items, 8, |_, &x| x * 3 + 1);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[10], 31);
    }

    #[test]
    fn passes_indices() {
        let items = vec!["a"; 64];
        let out = par_map(&items, 4, |i, _| i);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u8], 8, |_, &x| x + 1), vec![6]);
    }
}
