//! The daemon's admission gate: at most N jobs run at once, and waiting
//! jobs start in rank order.
//!
//! Each job waits on the thread of the connection that submitted it.
//! Ordering is deliberate and total: higher priority first, then
//! *smaller* budget first (an unbudgeted sweep is treated as infinite —
//! short interactive jobs slip past long batch sweeps of equal
//! priority), then FIFO by admission sequence so equal jobs can never
//! starve or reorder. [`Gate::close`] refuses new jobs; jobs already
//! waiting still drain. Every lock acquisition shrugs off poisoning —
//! a job that panics must not wedge the gate for the rest of the
//! daemon's life (the fault-injection suite pins this).

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Scheduling key for one admitted job, greatest first: priority, then
/// the smaller budget, then the earlier admission sequence number.
type Rank = (i64, Reverse<usize>, Reverse<u64>);

struct Inner {
    waiting: BTreeSet<Rank>,
    next_seq: u64,
    running: usize,
    closed: bool,
}

/// Admits at most `slots` jobs at once, best-ranked waiting job first.
pub struct Gate {
    slots: usize,
    inner: Mutex<Inner>,
    turn: Condvar,
}

impl Gate {
    /// An open gate with `slots` job slots (at least one).
    pub fn new(slots: usize) -> Gate {
        Gate {
            slots: slots.max(1),
            inner: Mutex::new(Inner {
                waiting: BTreeSet::new(),
                next_seq: 0,
                running: 0,
                closed: false,
            }),
            turn: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a job. `budget` of `None` ranks as unbounded (last among
    /// equal priorities). Returns `None` if the gate is closed.
    pub fn enter(&self, priority: i64, budget: Option<usize>) -> Option<Ticket<'_>> {
        let mut inner = self.lock();
        if inner.closed {
            return None;
        }
        let rank = (
            priority,
            Reverse(budget.unwrap_or(usize::MAX)),
            Reverse(inner.next_seq),
        );
        inner.next_seq += 1;
        inner.waiting.insert(rank);
        Some(Ticket {
            gate: self,
            rank,
            admitted: false,
        })
    }

    /// Jobs currently waiting for a slot.
    pub fn waiting(&self) -> usize {
        self.lock().waiting.len()
    }

    /// Closes the gate: later [`Gate::enter`] calls are refused, and
    /// jobs already waiting still drain.
    pub fn close(&self) {
        self.lock().closed = true;
    }
}

/// One job's place at the [`Gate`]: waiting until [`Ticket::wait`]
/// returns, then holding a slot until dropped.
pub struct Ticket<'a> {
    gate: &'a Gate,
    rank: Rank,
    admitted: bool,
}

impl Ticket<'_> {
    /// Blocks until this job is the best-ranked waiting one and a slot
    /// is free, then takes the slot.
    pub fn wait(&mut self) {
        let gate = self.gate;
        let mut inner = gate.lock();
        while inner.running >= gate.slots || inner.waiting.last() != Some(&self.rank) {
            inner = gate
                .turn
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.waiting.pop_last();
        inner.running += 1;
        self.admitted = true;
        drop(inner);
        // The next-ranked job may fit a slot that is still free.
        gate.turn.notify_all();
    }
}

impl Drop for Ticket<'_> {
    /// Frees the slot, or leaves the queue if the job never started.
    fn drop(&mut self) {
        let mut inner = self.gate.lock();
        if self.admitted {
            inner.running -= 1;
        } else {
            inner.waiting.remove(&self.rank);
        }
        drop(inner);
        self.gate.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A ticket that already holds one of `gate`'s slots.
    fn admitted(gate: &Gate) -> Ticket<'_> {
        let mut ticket = gate.enter(0, None).expect("open gate");
        ticket.wait();
        ticket
    }

    #[test]
    fn admits_by_priority_then_budget_then_fifo() {
        let gate = Gate::new(1);
        let holder = admitted(&gate);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (name, priority, budget) in [
                ("batch", 0, None),
                ("quick", 0, Some(8)),
                ("urgent", 5, None),
                ("second-of-equals", 0, Some(8)),
            ] {
                // Entered here, in this order, so the sequence numbers
                // are fixed; each job records its start while it still
                // holds the only slot, so the record is the start order.
                let mut ticket = gate.enter(priority, budget).expect("open gate");
                let order = &order;
                scope.spawn(move || {
                    ticket.wait();
                    order.lock().unwrap().push(name);
                });
            }
            assert_eq!(gate.waiting(), 4);
            drop(holder);
        });
        // seq breaks the tie between the two budget-8 jobs: "quick"
        // was admitted first.
        assert_eq!(
            order.into_inner().unwrap(),
            ["urgent", "quick", "second-of-equals", "batch"]
        );
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn close_refuses_new_jobs_and_waiting_jobs_still_drain() {
        let gate = Gate::new(1);
        let holder = admitted(&gate);
        let mut waiting = gate.enter(0, None).expect("open gate");
        let abandoned = gate.enter(0, None).expect("open gate");
        gate.close();
        assert!(
            gate.enter(0, None).is_none(),
            "closed gate must refuse jobs"
        );
        assert_eq!(gate.waiting(), 2);
        drop(abandoned);
        assert_eq!(gate.waiting(), 1, "a dropped ticket leaves the queue");
        std::thread::scope(|scope| {
            let drained = scope.spawn(move || waiting.wait());
            drop(holder);
            drained.join().expect("the waiting job drains after close");
        });
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn freed_slots_admit_every_waiting_job_at_most_slots_at_once() {
        let gate = Gate::new(2);
        let running = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let _slot = admitted(&gate);
                    let before = running.fetch_add(1, Ordering::SeqCst);
                    assert!(before < 2, "never more jobs than slots");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(gate.waiting(), 0, "every waiting job was admitted");
    }
}
