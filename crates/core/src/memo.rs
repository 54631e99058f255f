//! The engine's one compute-once memo.
//!
//! [`OnceMap`] maps each key to a cell that is initialised at most once,
//! however many threads ask for the key at the same time. The component
//! database, the schedule memo and the netlist evaluator all keep their
//! values in one. A cell is filled outside the map's lock, so other keys
//! stay readable while a slow value is computed; a filler that panics
//! leaves its cell empty, and the next asker (also one that was waiting
//! on the panicking filler) fills it instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// FxHash-style multiply-rotate hasher for the memo's map. A fold looks
/// up every component of a point, and SipHash's per-lookup setup would
/// be most of that cost; the small integer keys need no more hash
/// quality than this. The map is never iterated in an order anything
/// observable depends on.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type Cells<K, V> = HashMap<K, Arc<OnceLock<V>>, BuildHasherDefault<KeyHasher>>;

/// A map whose every value is computed once: a cell per key behind one
/// `RwLock`, hashed once per lookup. Lookups of ready values take the
/// read lock only.
#[derive(Debug)]
pub(crate) struct OnceMap<K, V> {
    cells: RwLock<Cells<K, V>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        OnceMap {
            cells: RwLock::new(Cells::default()),
        }
    }
}

impl<K: Hash + Eq, V> OnceMap<K, V> {
    /// The value of `key`, running `init` to compute it when no other
    /// caller has; a caller that meets a cell being filled waits for it.
    pub(crate) fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        if let Some(value) = self.read(|ready| ready.get(&key).cloned()) {
            return value;
        }
        self.cell(key).0.get_or_init(init).clone()
    }

    /// The cell of `key`, and whether this call inserted it (empty). A
    /// caller that inserted a cell fills it; the others may move on to
    /// other keys and wait on this one later through its cell.
    pub(crate) fn cell(&self, key: K) -> (Arc<OnceLock<V>>, bool) {
        if let Some(cell) = self.lock().get(&key) {
            return (Arc::clone(cell), false);
        }
        // No code that can panic runs under the write lock, so a
        // poisoned lock still holds a whole map.
        let mut cells = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        let mut inserted = false;
        let cell = cells.entry(key).or_insert_with(|| {
            inserted = true;
            Arc::default()
        });
        (Arc::clone(cell), inserted)
    }

    /// Runs `f` under one acquisition of the read lock, over the values
    /// ready at that moment.
    pub(crate) fn read<T>(&self, f: impl FnOnce(Ready<'_, K, V>) -> T) -> T {
        f(Ready(&self.lock()))
    }

    fn lock(&self) -> RwLockReadGuard<'_, Cells<K, V>> {
        self.cells.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The values of a [`OnceMap`] that are ready, under its read lock.
pub(crate) struct Ready<'a, K, V>(&'a Cells<K, V>);

impl<'a, K: Hash + Eq, V> Ready<'a, K, V> {
    /// The value of `key`, if its cell is filled.
    pub(crate) fn get(&self, key: &K) -> Option<&'a V> {
        self.0.get(key)?.get()
    }

    /// How many cells are filled.
    pub(crate) fn len(&self) -> usize {
        self.0.values().filter(|cell| cell.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn concurrent_askers_initialise_a_key_exactly_once() {
        let (map, runs) = (OnceMap::<u32, usize>::default(), AtomicUsize::new(0));
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let value = map.get_or_init(7, || {
                        std::thread::sleep(Duration::from_millis(10));
                        runs.fetch_add(1, Ordering::SeqCst) + 100
                    });
                    assert_eq!(value, 100);
                });
            }
        });
        assert_eq!(runs.into_inner(), 1, "the initialiser ran twice");
        assert_eq!(map.read(|ready| ready.len()), 1);
    }

    #[test]
    fn a_panicking_initialiser_leaves_the_cell_empty() {
        let map = OnceMap::<u32, u32>::default();
        let fails = || catch_unwind(AssertUnwindSafe(|| map.get_or_init(1, || panic!("fails"))));
        assert!(fails().is_err());
        assert_eq!(
            map.read(|ready| (ready.get(&1).copied(), ready.len())),
            (None, 0)
        );
        // The next caller initialises the key itself, once.
        assert_eq!(map.get_or_init(1, || 5), 5);
        assert_eq!(map.get_or_init(1, || 6), 5);

        // So does a caller that was blocked on the panicking initialiser.
        let (entered, waiting) = (Barrier::new(2), AtomicBool::new(false));
        let waited = std::thread::scope(|scope| {
            let failing = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    map.get_or_init(2, || {
                        entered.wait();
                        while !waiting.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("fails")
                    })
                }))
            });
            entered.wait();
            let waiter = scope.spawn(|| {
                waiting.store(true, Ordering::SeqCst);
                map.get_or_init(2, || 9)
            });
            assert!(failing.join().unwrap().is_err());
            waiter.join().unwrap()
        });
        assert_eq!(waited, 9);
    }

    #[test]
    fn a_caller_skips_a_cell_another_holds_then_waits_for_it() {
        let map = &OnceMap::<u32, u32>::default();
        let (held, held_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (cell, inserted_by_me) = map.cell(1);
                assert!(inserted_by_me);
                held.send(()).unwrap();
                // Hold the cell, empty, until B has moved past it.
                release_rx.recv().unwrap();
                cell.get_or_init(|| 10);
            });
            held_rx.recv().unwrap();
            let b = scope.spawn(move || {
                let (k1, inserted_by_me) = map.cell(1);
                assert!(!inserted_by_me, "A inserted k1");
                // B still initialises the key nobody holds…
                let k2 = map.get_or_init(2, || 20);
                release.send(()).unwrap();
                // …and then receives A's value for k1.
                (k2, *k1.wait())
            });
            assert_eq!(b.join().unwrap(), (20, 10));
        });
    }
}
