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

use std::sync::atomic::{AtomicU64, Ordering};

use tta_arch::Architecture;
use tta_movec::{Schedule, Scheduler, SchedulerView, UsedClasses};
use tta_workloads::Workload;

use crate::explore::CycleSource;
use crate::memo::OnceMap;

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
///
/// The outcomes live in a `OnceMap`: the first worker that asks for a
/// view schedules it outside the map's lock, so other views keep flowing
/// meanwhile, and later askers of that view wait for its outcome. A
/// scheduler run that panics leaves the view's cell empty for the next
/// asker.
#[derive(Debug)]
pub struct ScheduleMemo<'a> {
    workloads: &'a [Workload],
    /// The FU classes of each workload's DFG, in workload order.
    classes: Vec<UsedClasses>,
    source: CycleSource,
    /// `(trace cycles, spills)` per `(workload index, view)`; `None`
    /// when the workload cannot be scheduled.
    outcomes: OnceMap<(usize, SchedulerView), Option<(u32, u32)>>,
    lookups: AtomicU64,
    runs: AtomicU64,
}

impl<'a> ScheduleMemo<'a> {
    /// An empty memo for a sweep over `workloads` counting `source`
    /// cycles.
    pub fn new(workloads: &'a [Workload], source: CycleSource) -> Self {
        ScheduleMemo {
            workloads,
            classes: workloads.iter().map(|w| UsedClasses::of(&w.dfg)).collect(),
            source,
            outcomes: OnceMap::default(),
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
        self.lookup(arch, index, self.admits(arch))
    }

    /// Whether `arch` may be looked up at all. Validity depends on
    /// instance names and port buses, which the view leaves out, so under
    /// [`CycleSource::Model`] every point pays for its own check before it
    /// may share a memoised schedule; a simulated point schedules itself.
    /// The answer holds for every workload, so a sweep asks once per
    /// point.
    pub(crate) fn admits(&self, arch: &Architecture) -> bool {
        self.source == CycleSource::Simulate || arch.validate().is_ok()
    }

    /// [`ScheduleMemo::trace_cycles`] given [`ScheduleMemo::admits`]'s
    /// answer for `arch`: a refused point still counts as one lookup.
    pub(crate) fn lookup(
        &self,
        arch: &Architecture,
        index: usize,
        admitted: bool,
    ) -> Option<(u32, u32)> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if !admitted {
            return None;
        }
        let w = &self.workloads[index];
        match self.source {
            CycleSource::Simulate => {
                let schedule = self.run(arch, w)?;
                Some((executed_cycles(arch, w, &schedule)?, schedule.spills))
            }
            CycleSource::Model => self.memoised(arch, index),
        }
    }

    /// Schedules `arch` for every workload a lookup of the point would
    /// reach, up to the first one that cannot be scheduled, without
    /// counting a lookup. A sweep worker that has no chunk left fills the
    /// memo this way ahead of the workers still evaluating, so their
    /// lookups of the same points answer from the memo; the runs are the
    /// ones those lookups would have made. Nothing is memoised under
    /// [`CycleSource::Simulate`], so nothing is filled.
    pub(crate) fn fill(&self, arch: &Architecture) {
        if self.source == CycleSource::Model && self.admits(arch) {
            for index in 0..self.workloads.len() {
                if self.memoised(arch, index).is_none() {
                    return;
                }
            }
        }
    }

    /// The memoised `(trace cycles, spills)` of workload `index` on
    /// `arch`, scheduling its view on the first ask.
    fn memoised(&self, arch: &Architecture, index: usize) -> Option<(u32, u32)> {
        let view = SchedulerView::with_classes(arch, self.classes[index]);
        self.outcomes.get_or_init((index, view), || {
            self.run(arch, &self.workloads[index])
                .map(|s| (s.cycles, s.spills))
        })
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
    let trace = tta_sim::run_lowered(arch, &w.dfg, schedule, &w.inputs, &w.mem).ok()?;
    u32::try_from(trace.cycles).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_point_counts_one_lookup_and_no_run() {
        let suite = [tta_workloads::suite::crypt(1)];
        let valid = Architecture::figure9();
        let mut invalid = valid.clone();
        invalid.fus[1].name = invalid.fus[0].name.clone();
        let memo = ScheduleMemo::new(&suite, CycleSource::Model);
        assert!(memo.admits(&valid));
        assert!(!memo.admits(&invalid));
        assert_eq!(memo.lookup(&invalid, 0, false), None);
        assert_eq!(memo.trace_cycles(&invalid, 0), None);
        let cycles = memo.lookup(&valid, 0, true);
        assert!(cycles.is_some());
        assert_eq!(memo.trace_cycles(&valid, 0), cycles);
        let stats = memo.stats();
        assert_eq!((stats.lookups, stats.runs), (4, 1));
        // A simulated point schedules itself, so nothing is refused up
        // front.
        assert!(ScheduleMemo::new(&suite, CycleSource::Simulate).admits(&invalid));
    }
}
