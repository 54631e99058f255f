//! The sweep's per-run schedule memo.
//!
//! The list scheduler sees only a small projection of an architecture —
//! its [`SchedulerView`]: the bus count, the unit count of each FU class
//! the workload uses, and the register-file geometry. Template knobs
//! outside that projection (the MUL and CMP counts on crypt, which has
//! neither op; pipelining × ALU products that land on one unit count;
//! RF banking that lands on one bank geometry) leave the schedule
//! unchanged, so [`ScheduleMemo`] schedules each distinct
//! `(workload, view)` pair once and answers every other point from the
//! memo. A 16,384-point neighbour walk of the huge space has 720
//! distinct views for crypt.
//!
//! Every memoised answer is exactly what [`Scheduler::run`] returns for
//! the point itself; the `schedule_view` differential test checks this
//! across the knob radices of every preset space.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use tta_arch::Architecture;
use tta_movec::{Schedule, Scheduler, SchedulerView};
use tta_workloads::Workload;

use crate::explore::CycleSource;

/// Lock shards of the memo (the same count as the sweep cache's).
const SHARDS: usize = 16;

/// `(trace cycles, spills)` of one scheduled workload; `None` when it
/// cannot be scheduled.
type Outcome = Option<(u32, u32)>;

/// One shard: a cell per `(workload index, view)`, filled by the first
/// worker that asks for it while later askers wait on the cell.
type Shard = HashMap<(usize, SchedulerView), Arc<OnceLock<Outcome>>>;

/// Scheduler accounting of one sweep ([`crate::ExploreResult::schedule`]).
/// Observability only: no rendered format carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// `(point, workload)` pairs whose cycle count the sweep needed.
    pub lookups: u64,
    /// [`Scheduler::run`] calls actually made to answer them.
    pub runs: u64,
}

/// Schedule outcomes of one sweep, memoised by `(workload, view)`.
///
/// Under [`CycleSource::Model`] each distinct `(workload index,`
/// [`SchedulerView`]`)` is scheduled once; the key is the full view
/// under exact equality, never a hash alone. Under
/// [`CycleSource::Simulate`] the memo is bypassed, because lowering
/// needs every point's own [`Schedule`].
#[derive(Debug)]
pub struct ScheduleMemo<'a> {
    workloads: &'a [Workload],
    source: CycleSource,
    shards: [Mutex<Shard>; SHARDS],
    lookups: AtomicU64,
    runs: AtomicU64,
}

impl<'a> ScheduleMemo<'a> {
    /// An empty memo for a sweep over `workloads` counting `source`
    /// cycles.
    pub fn new(workloads: &'a [Workload], source: CycleSource) -> Self {
        ScheduleMemo {
            workloads,
            source,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            lookups: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    /// The trace cycle count and spill count of workload `index` on
    /// `arch` — bit-identical to scheduling (and, under
    /// [`CycleSource::Simulate`], executing) the point directly. `None`
    /// when `arch` is invalid, the workload cannot be scheduled on it,
    /// or its lowered program cannot run.
    ///
    /// # Panics
    ///
    /// Panics when `index` is not a workload of the memo's suite.
    pub fn trace_cycles(&self, arch: &Architecture, index: usize) -> Option<(u32, u32)> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let w = &self.workloads[index];
        match self.source {
            CycleSource::Simulate => {
                let schedule = self.run(arch, w)?;
                Some((executed_cycles(arch, w, &schedule)?, schedule.spills))
            }
            CycleSource::Model => {
                // Validity depends on instance names and port buses,
                // which the view leaves out, so every point pays for its
                // own check before it may share a memoised schedule.
                arch.validate().ok()?;
                let key = (index, SchedulerView::new(arch, &w.dfg));
                let mut hasher = DefaultHasher::new();
                key.hash(&mut hasher);
                let shard = hasher.finish() as usize % SHARDS;
                let cell = Arc::clone(
                    self.shards[shard]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .entry(key)
                        .or_default(),
                );
                // A poisoned shard is still whole (its one update is the
                // `or_default` insert above), and a cell whose filler
                // panicked stays empty for the next asker. The cell is
                // filled outside the shard lock, so other views keep
                // flowing while this one schedules.
                *cell.get_or_init(|| self.run(arch, w).map(|s| (s.cycles, s.spills)))
            }
        }
    }

    /// Lookups and scheduler runs so far.
    pub fn stats(&self) -> ScheduleStats {
        ScheduleStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
        }
    }

    fn run(&self, arch: &Architecture, w: &Workload) -> Option<Schedule> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        Scheduler::new(arch).run(&w.dfg).ok()
    }
}

/// One workload's executed (simulated) trace cycle count on `arch`,
/// or `None` when the lowered program cannot run there.
fn executed_cycles(arch: &Architecture, w: &Workload, schedule: &Schedule) -> Option<u32> {
    let program = tta_sim::lower(arch, &w.dfg, schedule, &w.inputs, &w.mem).ok()?;
    let options = tta_sim::SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    };
    let trace = tta_sim::Simulator::new(arch)
        .options(options)
        .run(&program)
        .ok()?;
    u32::try_from(trace.cycles).ok()
}
