//! The design-space exploration pipeline: MOVE-style area/time sweep,
//! Pareto reduction, test-cost lifting and weighted-norm selection —
//! Sections 2–4 of the paper end to end.
//!
//! The entry point is the [`Exploration`] builder:
//!
//! ```no_run
//! use tta_arch::template::TemplateSpace;
//! use tta_core::explore::Exploration;
//! use tta_core::parallel::default_threads;
//! use tta_workloads::suite;
//!
//! let result = Exploration::over(TemplateSpace::fast_default())
//!     .workload(&suite::crypt(1))
//!     .threads(default_threads())
//!     .run();
//! let best = result.select_equal_weights();
//! println!("selected: {}", best.architecture);
//! ```
//!
//! Cost axes are pluggable via the [`crate::models`] traits; the sweep
//! runs serially or on a pool of worker threads sharing one
//! [`ComponentDb`], and parallel runs are bit-identical to serial ones.
//! Attach a [`SweepCache`] ([`Exploration::cache`]) and re-runs skip
//! every already-evaluated point, bit-identically.
//!
//! *Which* points get evaluated is equally pluggable
//! ([`crate::search`]): the default [`Exhaustive`] strategy sweeps the
//! whole space exactly like the classic engine, while
//! [`Exploration::strategy`] + [`Exploration::budget`] +
//! [`Exploration::seed`] run budgeted random or front-guided searches
//! over spaces too large to enumerate — evaluations stream through a
//! [`ParetoArchive`] instead of a full-set re-scan, and
//! [`ExploreResult::search`] records how the space was searched.
//!
//! # Migration from the old `Explorer`
//!
//! PR 1 replaced the monolithic `Explorer`/`ExploreConfig` driver with
//! this builder; the shim is gone. The replacements below are
//! compile-checked (they run as doc-tests on the tiny space).
//!
//! `Explorer::new(ExploreConfig::fast()).run(&w)` became the builder
//! chain, `ExploreConfig::paper()/fast()` became
//! [`TemplateSpace::paper_default`]/[`TemplateSpace::fast_default`],
//! the serial-only sweep grew [`Exploration::threads`] (bit-identical
//! at any worker count), and results moved from bare
//! `(area, exec_time, Option<test_cost>)` fields to accessors plus a
//! typed [`ObjectiveVector`]:
//!
//! ```
//! use tta_arch::template::TemplateSpace;
//! use tta_core::explore::{Exploration, Objective};
//! use tta_workloads::suite;
//!
//! let w = suite::crypt(1);
//! let result = Exploration::over(TemplateSpace::tiny())
//!     .workload(&w)
//!     .threads(2) // bit-identical to the serial sweep
//!     .run();
//!
//! // `result.pareto2d` / `pareto2d_points()` / `pareto3d_points()`
//! // became `result.pareto` / `pareto_points()` / `pareto_vectors()`:
//! assert!(!result.pareto.is_empty());
//! let e = result.pareto_points()[0];
//!
//! // `EvaluatedArch { area, exec_time, test_cost }` fields became
//! // accessors over the typed objective vector:
//! assert!(e.area() > 0.0 && e.exec_time() > 0.0);
//! assert_eq!(e.test_cost(), e.objectives.get(Objective::TestCost));
//!
//! // Any subset of the axes projects to a typed sub-vector:
//! let p = e.objectives.project(&[Objective::Area, Objective::TestCost]);
//! assert_eq!(p.unwrap().values().len(), 2);
//! ```
//!
//! `Explorer::architecture_area`/`clock_period` became the
//! [`crate::models`] traits, the magic interconnect constants became an
//! explicit [`InterconnectModel`], and `ComponentDb::get(&mut self)`
//! became interior-mutable `get(&self)` (shareable across threads,
//! [`ComponentDb::warm`] pre-annotates):
//!
//! ```
//! use tta_arch::Architecture;
//! use tta_core::models::{
//!     AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, InterconnectModel, TimingModel,
//! };
//! use tta_core::ComponentDb;
//!
//! let db = ComponentDb::new(); // note: not `mut`
//! let arch = Architecture::figure9();
//! let area = AnnotatedAreaModel::default().area(&arch, &db);
//! let clock = AnnotatedTimingModel::default().clock_period(&arch, &db);
//! assert!(area > 0.0 && clock > 0.0);
//!
//! // The paper's constants, explicit and swappable:
//! let ic = InterconnectModel { bus_area_per_bit: 6.0, ..InterconnectModel::paper() };
//! let wider = AnnotatedAreaModel::new(ic).area(&arch, &db);
//! assert!(wider > area);
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_workloads::{WeightedWorkload, Workload};

use crate::backannotate::ComponentDb;
use crate::cache::{
    arch_fingerprint, workload_fingerprint, EvalEntry, Fingerprint, SweepCache,
    CACHE_ADDRESS_VERSION,
};
use crate::models::{
    AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel, InterconnectModel,
    NetlistAreaModel, NetlistEvaluator, NetlistTimingModel, TestCostModel, TimingModel,
};
use crate::norm::{select, Norm, Weights};
use crate::parallel::par_map;
use crate::pareto::{pareto_front, ParetoArchive};
use crate::schedmemo::{ScheduleMemo, ScheduleStats};
use crate::search::{Exhaustive, Observation, SearchState, SearchStrategy, WalkOrder};

// ---------------------------------------------------------------------
// Objectives
// ---------------------------------------------------------------------

/// One axis of the exploration's objective space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Silicon area, NAND2 gate equivalents (minimise).
    Area,
    /// Full-application execution time, normalised gate delays
    /// (minimise).
    ExecTime,
    /// eq. (14) functional test cost, cycles (minimise).
    TestCost,
}

impl Objective {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Area => "area",
            Objective::ExecTime => "exec_time",
            Objective::TestCost => "test_cost",
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed point in objective space: named axes with their values, in a
/// fixed order. Replaces the old `(area, exec_time, Option<test_cost>)`
/// side-channel — an axis is either present (with a value) or absent,
/// and lookups never panic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectiveVector {
    axes: Vec<Objective>,
    values: Vec<f64>,
}

impl ObjectiveVector {
    /// Builds a vector from `(axis, value)` pairs.
    pub fn new(pairs: impl IntoIterator<Item = (Objective, f64)>) -> Self {
        let mut v = ObjectiveVector::default();
        for (axis, value) in pairs {
            v.push(axis, value);
        }
        v
    }

    /// Appends an axis. Panics if the axis is already present (each axis
    /// appears at most once).
    pub fn push(&mut self, axis: Objective, value: f64) {
        assert!(
            !self.axes.contains(&axis),
            "objective axis {axis} already present"
        );
        self.axes.push(axis);
        self.values.push(value);
    }

    /// The value on `axis`, or `None` when the axis is absent.
    pub fn get(&self, axis: Objective) -> Option<f64> {
        self.axes
            .iter()
            .position(|&a| a == axis)
            .map(|i| self.values[i])
    }

    /// The axes, in storage order.
    pub fn axes(&self) -> &[Objective] {
        &self.axes
    }

    /// The raw values, in axis order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of axes.
    pub fn len(&self) -> usize {
        self.axes.len()
    }

    /// Whether no axis is present.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The sub-vector over `axes`, or `None` if any axis is absent.
    pub fn project(&self, axes: &[Objective]) -> Option<ObjectiveVector> {
        let values: Option<Vec<f64>> = axes.iter().map(|&a| self.get(a)).collect();
        Some(ObjectiveVector {
            axes: axes.to_vec(),
            values: values?,
        })
    }
}

// ---------------------------------------------------------------------
// Evaluated points and results
// ---------------------------------------------------------------------

/// One fully evaluated architecture (a point of Figures 2 and 8).
#[derive(Debug, Clone)]
pub struct EvaluatedArch {
    /// The architecture itself.
    pub architecture: Architecture,
    /// Aggregate (unweighted) full-application cycle count over the
    /// workload suite.
    pub cycles: u64,
    /// Per-workload cycle counts, in [`ExploreResult::workloads`] order.
    pub workload_cycles: Vec<u64>,
    /// Weight-scaled aggregate cycles `Σ wᵢ·cyclesᵢ` — the quantity the
    /// exec-time axis is built from. Equals `cycles as f64` when every
    /// suite member has weight 1.
    pub weighted_cycles: f64,
    /// Register-pressure overflow events summed over the schedules.
    pub spills: u32,
    /// The typed objective coordinates: `[Area, ExecTime]` for every
    /// point, plus `TestCost` once the point is lifted onto the front.
    pub objectives: ObjectiveVector,
}

impl EvaluatedArch {
    /// Cell + interconnect area, NAND2 gate equivalents.
    pub fn area(&self) -> f64 {
        self.objectives
            .get(Objective::Area)
            .expect("every evaluated point has an area axis")
    }

    /// Execution time = cycles × clock period (normalised gate delays).
    pub fn exec_time(&self) -> f64 {
        self.objectives
            .get(Objective::ExecTime)
            .expect("every evaluated point has an exec-time axis")
    }

    /// The test-cost axis. Under [`LiftMode::ParetoOnly`] it is present
    /// exactly for Pareto points (the paper evaluates test cost on the
    /// Pareto set only); under [`LiftMode::Full`] every evaluated point
    /// carries it.
    pub fn test_cost(&self) -> Option<f64> {
        self.objectives.get(Objective::TestCost)
    }
}

/// When (and for which points) the test axis joins the objective
/// space.
///
/// The paper lifts test cost *after* Pareto reduction: "only the
/// architectures that correspond to the Pareto points in the design
/// space are evaluated in terms of testing". That is cheap — the front
/// is small — but it can *miss* true 3-D trade-offs: a point dominated
/// in (area, time) whose test cost undercuts all of its dominators is
/// Pareto-optimal in 3-D, yet the post-hoc lift never sees it.
/// [`LiftMode::Full`] promotes the test axis to a first-class sweep
/// objective instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LiftMode {
    /// The paper's flow (the default): sweep on (area, time), reduce to
    /// the 2-D front, then lift only the front points with the test
    /// axis. Bit-identical — results and cache entries — to the
    /// pre-lift-mode engine.
    #[default]
    ParetoOnly,
    /// Full 3-D co-exploration: every feasible point is costed on the
    /// test axis during evaluation, the streaming front is maintained
    /// in (area, time, test), and per-point test totals are persisted
    /// inline in the sweep cache (format v3).
    Full,
}

impl LiftMode {
    /// Short machine-readable label (`pareto` / `full`), used by CLI
    /// flags and structured output.
    pub fn label(self) -> &'static str {
        match self {
            LiftMode::ParetoOnly => "pareto",
            LiftMode::Full => "full",
        }
    }
}

impl std::fmt::Display for LiftMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a point's cycle counts come from.
///
/// The default, [`CycleSource::Model`], is the scheduler's analytic
/// count — bit-identical (objectives, front, cache addresses) to the
/// engine before this knob existed. [`CycleSource::Simulate`] lowers
/// every scheduled workload to an executable move program and runs it
/// on the `tta_sim` interpreter, using the *executed* cycle count
/// instead. The two agree exactly when the analytic model is honest
/// (the repo's headline property test), so `Simulate` is the
/// slow-but-falsifiable cross-check: any scheduler/model drift shows
/// up as a changed objective. Simulated sweeps fold the source into
/// the sweep-cache content address, so the two kinds of entries never
/// mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CycleSource {
    /// Analytic cycle counts from the movec scheduler (the default).
    #[default]
    Model,
    /// Executed cycle counts from cycle-accurate simulation.
    Simulate,
}

impl CycleSource {
    /// Short machine-readable label (`model` / `simulate`), used by
    /// CLI flags and structured output.
    pub fn label(self) -> &'static str {
        match self {
            CycleSource::Model => "model",
            CycleSource::Simulate => "simulate",
        }
    }
}

impl std::fmt::Display for CycleSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where the area and clock axes of a point come from.
///
/// The default, [`FidelityMode::Table`], is the paper's back-annotation
/// flow: per-*component* records from the [`ComponentDb`], folded with
/// the analytic interconnect terms — bit-identical (objectives, front,
/// cache addresses) to the engine before this knob existed.
/// [`FidelityMode::Netlist`] elaborates every visited point to a full
/// gate-level netlist ([`tta_netlist::elaborate()`]) — every FU and RF
/// behind its socket group, buses as OR-merge fabric — and sources the
/// area axis from the elaborated cell area and the clock axis from the
/// fanout-loaded static timing analysis ([`tta_netlist::timing::sta`]
/// tier). Netlist sweeps see structure the table fold cannot: shared
/// socket fronts, bus fanout load, per-point wiring. They are slower per
/// point; consecutive Gray-walk neighbours amortise this through
/// incremental re-elaboration
/// ([`tta_netlist::IncrementalElaborator`]).
///
/// The knob only fills *empty* area/timing model slots: custom models
/// installed via [`Exploration::models`] and friends always win. The
/// test axis keeps its configured model in both fidelities. Netlist
/// models fingerprint differently from table ones, so the persistent
/// sweep cache never mixes entries across fidelities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FidelityMode {
    /// Back-annotated per-component records (the default).
    #[default]
    Table,
    /// Per-point gate-level netlist elaboration.
    Netlist,
}

impl FidelityMode {
    /// Short machine-readable label (`table` / `netlist`), used by CLI
    /// flags and structured output.
    pub fn label(self) -> &'static str {
        match self {
            FidelityMode::Table => "table",
            FidelityMode::Netlist => "netlist",
        }
    }
}

impl std::fmt::Display for FidelityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened to the persistent sweep cache during a run — recorded
/// on every [`ExploreResult`] so a sweep that silently lost its
/// persistence (read-only directory, full disk) is distinguishable
/// from one that saved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache was attached ([`Exploration::cache`] never called).
    NotAttached,
    /// A cache was attached but bypassed: every installed cost model
    /// declined to fingerprint itself, so no entry could be
    /// content-addressed. Always safe — just no persistence.
    Bypassed,
    /// The cache was consulted and the end-of-run flush succeeded.
    Flushed,
    /// The end-of-run flush failed (the payload is its error). The
    /// sweep results are complete and correct — evaluation never
    /// depends on persistence — but fresh entries may not have been
    /// compacted into the cache file, so the next run may re-evaluate
    /// them.
    FlushFailed(String),
}

/// Cooperative cancellation handle for a running exploration.
///
/// Clone the token, hand one copy to [`Exploration::cancel_token`] and
/// keep the other; calling [`CancelToken::cancel`] (from any thread)
/// makes the sweep stop at its next cancellation point — between
/// evaluation chunks, or before the next strategy round — rather than
/// running its in-flight batch to completion. A cancelled run still
/// returns a complete, internally consistent [`ExploreResult`] over
/// whatever it evaluated, with [`ExploreResult::cancelled`] set. To
/// resume, run the same exploration again over the same
/// [`SweepCache`]: the chunks the cancelled run merged answer as hits,
/// and the result is bit-identical to an uninterrupted run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Requests cancellation. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The boxed observer callback installed via [`Exploration::progress`].
type ProgressObserver<'db> = Box<dyn FnMut(&SweepProgress) + 'db>;

/// A live snapshot of a running sweep, delivered to the observer
/// installed via [`Exploration::progress`] after every evaluated chunk.
///
/// Everything here is observability: the callback can stream it to a
/// client, log it, or use it to decide to [`CancelToken::cancel`] —
/// none of it feeds back into evaluation, so installing an observer
/// never changes a single result bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProgress {
    /// Strategy rounds started so far.
    pub round: usize,
    /// Points evaluated so far (feasible + infeasible).
    pub visited: usize,
    /// Feasible points so far.
    pub feasible: usize,
    /// Infeasible points so far.
    pub infeasible: usize,
    /// Current size of the streaming Pareto front.
    pub front: usize,
    /// Total number of points in the template space.
    pub space_len: usize,
}

/// Failure modes of [`Exploration::try_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreError {
    /// The builder was run without any workload.
    EmptyWorkloads,
    /// A suite member carries a weight that is not finite and positive;
    /// the payload is its index in the suite.
    InvalidWeight(usize),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::EmptyWorkloads => {
                f.write_str("Exploration::run needs at least one workload (use .workload(..))")
            }
            ExploreError::InvalidWeight(i) => write!(
                f,
                "workload #{i} has a non-finite or non-positive weight \
                 (weights must be finite and > 0)"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// How a sweep searched its space — recorded on every
/// [`ExploreResult`], and surfaced by the CLI's JSON/CSV output so a
/// sampled front is never mistaken for an exhaustive one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchInfo {
    /// The strategy's [`SearchStrategy::name`].
    pub strategy: String,
    /// The configured evaluation budget (`None` = unlimited).
    pub budget: Option<usize>,
    /// The configured RNG seed (`None` = the default, 0).
    pub seed: Option<u64>,
    /// Total number of points in the template space.
    pub space_len: usize,
    /// Points actually visited (feasible + infeasible).
    pub evaluations: usize,
    /// Strategy batches evaluated.
    pub rounds: usize,
}

impl SearchInfo {
    /// Whether every point of the space was visited.
    pub fn exhausted_space(&self) -> bool {
        self.evaluations == self.space_len
    }
}

/// Result of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Every feasible evaluated point, in evaluation order (enumeration
    /// order for the default [`Exhaustive`] strategy).
    pub evaluated: Vec<EvaluatedArch>,
    /// Indices (into `evaluated`) of the Pareto front, in ascending
    /// order.
    ///
    /// Under [`LiftMode::ParetoOnly`] the front is computed on the 2-D
    /// (area, time) sweep axes — Figure 2 — and its members are then
    /// lifted with the test axis — Figure 8. Lifting preserves
    /// non-domination, so these are also exactly the N-dimensional
    /// Pareto points of the lifted vectors. Under [`LiftMode::Full`]
    /// this is the true 3-D (area, time, test) front, which contains
    /// every design-front point plus any trade-off the post-hoc lift
    /// misses (see [`ExploreResult::design_front`]).
    pub pareto: Vec<usize>,
    /// Architectures visited but infeasible for the workload suite
    /// (unschedulable, or outside the component model's domain).
    pub infeasible: usize,
    /// Names of the workloads the sweep aggregated over.
    pub workloads: Vec<String>,
    /// Aggregation weight of each workload, in [`ExploreResult::workloads`]
    /// order (all 1 unless a weighted suite was installed).
    pub weights: Vec<f64>,
    /// How many visited points were infeasible *because of* each
    /// workload (the first suite member that failed to schedule gets
    /// the blame), in [`ExploreResult::workloads`] order. Points outside
    /// the component model's domain are counted in
    /// [`ExploreResult::infeasible`] but blamed on no workload.
    pub blocked: Vec<usize>,
    /// Which strategy searched the space, under what budget and seed.
    pub search: SearchInfo,
    /// When the test axis joined the objective space.
    pub lift: LiftMode,
    /// Where the area and clock axes came from ([`FidelityMode`]):
    /// the back-annotated component tables, or per-point gate-level
    /// netlist elaboration.
    pub fidelity: FidelityMode,
    /// Whether the attached persistent cache (if any) saved its
    /// entries; see [`CacheStatus`].
    pub cache_status: CacheStatus,
    /// Schedule-memo counters ([`ScheduleStats`]): how many
    /// `(point, workload)` cycle counts the sweep needed and how many
    /// list-scheduler runs answered them. Observability only — no
    /// rendered format carries them.
    pub schedule: ScheduleStats,
    /// Whether the run stopped at a cancellation point
    /// ([`Exploration::cancel_token`]) before the strategy was done.
    /// Everything else on the result covers exactly what *was*
    /// evaluated; renderers treat a cancelled result like any other.
    pub cancelled: bool,
}

/// Per-workload slice of an exploration — one row of
/// [`ExploreResult::workload_breakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBreakdown<'a> {
    /// Workload name.
    pub name: &'a str,
    /// Aggregation weight.
    pub weight: f64,
    /// Visited points this workload was the first to make infeasible.
    pub blocked: usize,
    /// This workload's cycle count on the weighted-norm-selected
    /// architecture (equal weights, Euclidean), when a selection exists.
    pub selected_cycles: Option<u64>,
}

impl ExploreResult {
    /// The Pareto points, in enumeration order.
    pub fn pareto_points(&self) -> Vec<&EvaluatedArch> {
        self.pareto.iter().map(|&i| &self.evaluated[i]).collect()
    }

    /// The full N-dimensional objective vectors of the Pareto front.
    pub fn pareto_vectors(&self) -> Vec<&ObjectiveVector> {
        self.pareto
            .iter()
            .map(|&i| &self.evaluated[i].objectives)
            .collect()
    }

    /// The objective axes of the (lifted) front points.
    pub fn axes(&self) -> &[Objective] {
        self.pareto
            .first()
            .map(|&i| self.evaluated[i].objectives.axes())
            .unwrap_or(&[])
    }

    /// Whether `evaluated[index]` is on the Pareto front.
    pub fn is_on_front(&self, index: usize) -> bool {
        self.pareto.binary_search(&index).is_ok()
    }

    /// Selects the architecture with minimal weighted norm over the
    /// lifted front (Figure 9), or `None` for an empty front.
    pub fn try_select(&self, weights: &Weights, norm: Norm) -> Option<&EvaluatedArch> {
        if self.pareto.is_empty() {
            return None;
        }
        let pts: Vec<Vec<f64>> = self
            .pareto_vectors()
            .iter()
            .map(|v| v.values().to_vec())
            .collect();
        let local = select(&pts, weights, norm);
        Some(&self.evaluated[self.pareto[local]])
    }

    /// Selects the Figure 9 architecture: minimal weighted norm over the
    /// lifted front.
    ///
    /// # Panics
    ///
    /// Panics when the front is empty (no feasible point) or the weight
    /// dimensionality mismatches [`ExploreResult::axes`]; use
    /// [`ExploreResult::try_select`] for a fallible variant.
    pub fn select(&self, weights: &Weights, norm: Norm) -> &EvaluatedArch {
        self.try_select(weights, norm)
            .expect("cannot select from an empty Pareto front")
    }

    /// The paper's setting: equal weights over all axes, Euclidean norm.
    pub fn select_equal_weights(&self) -> &EvaluatedArch {
        self.try_select_equal_weights()
            .expect("cannot select from an empty Pareto front")
    }

    /// Fallible variant of [`ExploreResult::select_equal_weights`]:
    /// `None` for an empty front.
    pub fn try_select_equal_weights(&self) -> Option<&EvaluatedArch> {
        self.try_select(&Weights::equal(self.axes().len()), Norm::Euclidean)
    }

    /// The per-workload view of the run: name, weight, how many points
    /// the workload blocked, and its cycle share on the equal-weight
    /// selection — one row per suite member, in suite order.
    pub fn workload_breakdown(&self) -> Vec<WorkloadBreakdown<'_>> {
        let selected = self.try_select_equal_weights();
        self.workloads
            .iter()
            .enumerate()
            .map(|(i, name)| WorkloadBreakdown {
                name,
                weight: self.weights[i],
                blocked: self.blocked[i],
                selected_cycles: selected.map(|e| e.workload_cycles[i]),
            })
            .collect()
    }

    /// Indices of the 2-D *design* front: the Pareto front of the
    /// (area, time) sweep axes alone — exactly the points the paper's
    /// post-hoc lift evaluates for test cost. Under
    /// [`LiftMode::ParetoOnly`] this equals [`ExploreResult::pareto`];
    /// under [`LiftMode::Full`] the difference `pareto ∖ design_front`
    /// is precisely the set of true 3-D trade-offs the Pareto-only
    /// lift misses.
    ///
    /// One caveat on the converse containment: the 2-D front keeps
    /// *every* exactly coordinate-tied point, but in 3-D a tied point
    /// with the cheaper test cost strictly dominates its twin. A
    /// design-front point can therefore be absent from the full 3-D
    /// front exactly when another point ties it in both (area, time)
    /// and beats it on test — possible in principle with custom cost
    /// models that quantise coarsely, though not observed with the
    /// annotated defaults.
    pub fn design_front(&self) -> Vec<usize> {
        let pts2d: Vec<Vec<f64>> = self
            .evaluated
            .iter()
            .map(|e| vec![e.area(), e.exec_time()])
            .collect();
        pareto_front(&pts2d)
    }

    /// Projection property (Figure 8 caption): the lifted points
    /// projected onto (area, time) are exactly the Figure 2 front.
    /// Always true under [`LiftMode::ParetoOnly`]; under
    /// [`LiftMode::Full`] it holds exactly when the full 3-D sweep
    /// found nothing the post-hoc lift misses.
    pub fn projection_holds(&self) -> bool {
        let pts2d: Vec<Vec<f64>> = self
            .pareto_points()
            .iter()
            .map(|e| vec![e.area(), e.exec_time()])
            .collect();
        pareto_front(&pts2d).len() == pts2d.len()
    }
}

// ---------------------------------------------------------------------
// The Exploration builder
// ---------------------------------------------------------------------

/// Composable exploration pipeline over a template space.
///
/// Configure the space, workload suite and cost models, then [`run`]
/// the staged flow: sweep → Pareto-reduce → lift test cost → done. See
/// the [module docs](self) for an example.
///
/// [`run`]: Exploration::run
pub struct Exploration<'db> {
    space: TemplateSpace,
    workloads: Vec<Workload>,
    // One aggregation weight per workload (1.0 unless weighted).
    weights: Vec<f64>,
    // None = the default annotated model parameterised by `interconnect`,
    // resolved at `run()` — so custom models always win over
    // `.interconnect(..)` regardless of builder-call order.
    area: Option<Box<dyn AreaModel>>,
    timing: Option<Box<dyn TimingModel>>,
    test: Option<Box<dyn TestCostModel>>,
    interconnect: InterconnectModel,
    db: Option<&'db ComponentDb>,
    cache: Option<&'db SweepCache>,
    threads: usize,
    // None = the default Exhaustive strategy, resolved at run().
    strategy: Option<Box<dyn SearchStrategy>>,
    budget: Option<usize>,
    seed: Option<u64>,
    lift: LiftMode,
    cycle_source: CycleSource,
    fidelity: FidelityMode,
    cancel: Option<CancelToken>,
    progress: Option<ProgressObserver<'db>>,
}

/// The engine materialises and evaluates batches in chunks of this many
/// points: a worker builds one chunk of [`Architecture`]s at a time, so
/// about one chunk per worker is alive at once (even the exhaustive
/// whole-space batch streams through bounded memory). Chunks are merged
/// into the run in order, and with a cache attached each merged chunk
/// is checkpointed: its new entries are appended to the cache journal
/// ([`SweepCache::checkpoint`]) instead of rewriting the whole file,
/// which happens once per run. An interrupted paper-scale run therefore
/// resumes from the last completed chunk rather than from scratch. The
/// chunk boundary is also the engine's cancellation and
/// progress-reporting grain: a cancelled run
/// ([`Exploration::cancel_token`]) merges at most one more chunk after
/// the request.
pub const CACHE_FLUSH_CHUNK: usize = 64;

impl<'db> Exploration<'db> {
    /// Starts a pipeline over `space` with the paper's default models
    /// (back-annotated components + paper interconnect constants), no
    /// workloads, and a serial sweep.
    pub fn over(space: TemplateSpace) -> Self {
        Exploration {
            space,
            workloads: Vec::new(),
            weights: Vec::new(),
            area: None,
            timing: None,
            test: None,
            interconnect: InterconnectModel::paper(),
            db: None,
            cache: None,
            threads: 1,
            strategy: None,
            budget: None,
            seed: None,
            lift: LiftMode::default(),
            cycle_source: CycleSource::default(),
            fidelity: FidelityMode::default(),
            cancel: None,
            progress: None,
        }
    }

    /// Adds one workload to the suite at weight 1. With several
    /// workloads the sweep aggregates full-application cycles across
    /// the suite (weights scale each member's contribution); an
    /// architecture is feasible only if *every* workload schedules.
    pub fn workload(self, w: &Workload) -> Self {
        self.workload_weighted(w, 1.0)
    }

    /// Adds one workload with an explicit aggregation weight: the
    /// exec-time axis becomes `clock × Σ wᵢ·cyclesᵢ`, so weight 2 counts
    /// a member twice as heavily as weight 1. Weights must be finite
    /// and positive ([`Exploration::try_run`] reports
    /// [`ExploreError::InvalidWeight`] otherwise), and are part of the
    /// sweep-cache content address.
    pub fn workload_weighted(mut self, w: &Workload, weight: f64) -> Self {
        self.workloads.push(w.clone());
        self.weights.push(weight);
        self
    }

    /// Adds every workload of a suite at weight 1.
    pub fn workloads<'a>(mut self, ws: impl IntoIterator<Item = &'a Workload>) -> Self {
        for w in ws {
            self = self.workload(w);
        }
        self
    }

    /// Adds every member of a weighted suite (e.g. one instantiated by
    /// `tta_workloads::SuiteRegistry::instantiate`), carrying each
    /// member's weight into the aggregation.
    pub fn suite<'a>(mut self, members: impl IntoIterator<Item = &'a WeightedWorkload>) -> Self {
        for m in members {
            self = self.workload_weighted(&m.workload, m.weight);
        }
        self
    }

    /// Replaces all three cost models at once.
    pub fn models(
        mut self,
        area: impl AreaModel + 'static,
        timing: impl TimingModel + 'static,
        test: impl TestCostModel + 'static,
    ) -> Self {
        self.area = Some(Box::new(area));
        self.timing = Some(Box::new(timing));
        self.test = Some(Box::new(test));
        self
    }

    /// Replaces the area model.
    pub fn area_model(mut self, m: impl AreaModel + 'static) -> Self {
        self.area = Some(Box::new(m));
        self
    }

    /// Replaces the timing model.
    pub fn timing_model(mut self, m: impl TimingModel + 'static) -> Self {
        self.timing = Some(Box::new(m));
        self
    }

    /// Replaces the test-cost model.
    pub fn test_cost_model(mut self, m: impl TestCostModel + 'static) -> Self {
        self.test = Some(Box::new(m));
        self
    }

    /// Uses `ic` for whichever of the annotated default area/timing
    /// models are still in effect at [`Exploration::run`]. A custom
    /// model installed via [`Exploration::models`] /
    /// [`Exploration::area_model`] / [`Exploration::timing_model`]
    /// always wins, regardless of call order.
    pub fn interconnect(mut self, ic: InterconnectModel) -> Self {
        self.interconnect = ic;
        self
    }

    /// Shares an existing back-annotation database, so repeated runs
    /// (different workloads, weights or models) reuse component records.
    pub fn with_db(mut self, db: &'db ComponentDb) -> Self {
        self.db = Some(db);
        self
    }

    /// Attaches a persistent evaluation cache ([`crate::cache`]):
    /// points whose content address is already cached skip scheduling
    /// and model evaluation, and fresh results are persisted in chunks
    /// so an interrupted sweep resumes where it stopped. Warm-cache
    /// results are bit-identical to cold ones.
    ///
    /// Caching silently disables itself when any installed cost model
    /// returns `None` from its `fingerprint()` method (the result could
    /// not be content-addressed). Flush failures never abort the sweep
    /// — a read-only cache directory costs persistence, not results —
    /// but they are reported through
    /// [`ExploreResult::cache_status`] instead of being swallowed.
    pub fn cache(mut self, cache: &'db SweepCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Chooses when the test axis joins the objective space (default
    /// [`LiftMode::ParetoOnly`], the paper's post-hoc lift, which is
    /// bit-identical to the pre-lift-mode engine).
    /// [`LiftMode::Full`] costs *every* feasible point on the test
    /// axis and maintains the true 3-D front.
    pub fn lift(mut self, mode: LiftMode) -> Self {
        self.lift = mode;
        self
    }

    /// Chooses where cycle counts come from (default
    /// [`CycleSource::Model`], the analytic scheduler count,
    /// bit-identical to the engine without the knob).
    /// [`CycleSource::Simulate`] executes every scheduled workload on
    /// the cycle-accurate simulator instead — slower, but it turns any
    /// scheduler/model drift into a visible objective change.
    pub fn cycle_source(mut self, source: CycleSource) -> Self {
        self.cycle_source = source;
        self
    }

    /// Chooses where the area and clock axes come from (default
    /// [`FidelityMode::Table`], the back-annotated per-component fold,
    /// bit-identical to the engine without the knob).
    /// [`FidelityMode::Netlist`] elaborates every visited point to a
    /// gate-level netlist and reads both axes off the elaborated
    /// design; see [`FidelityMode`].
    pub fn fidelity(mut self, mode: FidelityMode) -> Self {
        self.fidelity = mode;
        self
    }

    /// Evaluates the sweep (and the lift stage) on `n` worker threads
    /// (default 1, a serial sweep; `0` counts as 1). Results, cache
    /// files and progress events are bit-identical at every count;
    /// [`crate::parallel::default_threads`] is the machine's available
    /// parallelism.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Replaces the search strategy deciding *which* points of the
    /// space get evaluated (see [`crate::search`]). The default is
    /// [`Exhaustive`], which visits every point in enumeration order
    /// and is bit-identical — results and cache keys — to the classic
    /// sweep. Non-exhaustive strategies are folded into the sweep-cache
    /// content address, so sampled runs never share entries with
    /// exhaustive ones.
    pub fn strategy(mut self, s: impl SearchStrategy + 'static) -> Self {
        self.strategy = Some(Box::new(s));
        self
    }

    /// Caps the number of points visited (feasible or not, cached or
    /// not — a warm cache changes the cost of a budgeted run, never its
    /// trajectory). Unlimited by default; the [`Exhaustive`] strategy
    /// under a budget evaluates the first `n` points in enumeration
    /// order.
    pub fn budget(mut self, n: usize) -> Self {
        self.budget = Some(n);
        self
    }

    /// Seeds the strategy's random generator (default 0). Runs with the
    /// same strategy, budget and seed evaluate the same points in the
    /// same order, bit-identically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Installs a cooperative cancellation token (see [`CancelToken`]):
    /// cancelling it stops the sweep at the next chunk boundary — at
    /// most [`CACHE_FLUSH_CHUNK`] points late — instead of running the
    /// in-flight batch to completion. The cancelled run still returns a
    /// consistent partial [`ExploreResult`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Installs a progress observer, called after every evaluated chunk
    /// with a [`SweepProgress`] snapshot (live front size and visit
    /// counts). Pure observability: the
    /// callback cannot change any result bit — though it may share a
    /// [`CancelToken`] with the run and cancel it.
    pub fn progress(mut self, observer: impl FnMut(&SweepProgress) + 'db) -> Self {
        self.progress = Some(Box::new(observer));
        self
    }

    /// Runs the staged flow: strategy-driven sweep → streaming Pareto
    /// front → test-cost lifting of the front.
    ///
    /// # Panics
    ///
    /// Panics if no workload was added; [`Exploration::try_run`] is the
    /// fallible variant.
    pub fn run(self) -> ExploreResult {
        match self.try_run() {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Exploration::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::EmptyWorkloads`] when no workload was
    /// added to the builder.
    pub fn try_run(mut self) -> Result<ExploreResult, ExploreError> {
        if self.workloads.is_empty() {
            return Err(ExploreError::EmptyWorkloads);
        }
        let invalid = |w: &f64| !w.is_finite() || *w <= 0.0;
        if let Some(i) = self.weights.iter().position(invalid) {
            return Err(ExploreError::InvalidWeight(i));
        }
        let mut strategy = self.strategy.take().unwrap_or_else(|| Box::new(Exhaustive));
        let cancel = self.cancel.take();
        let progress = self.progress.take();
        self.resolve_models();
        let private_db = ComponentDb::new();
        let plan = SweepPlan::resolve(&self, self.db.unwrap_or(&private_db), &*strategy);
        let mut run = SweepRun::new(&plan, progress);
        let cancelled = run.search(&mut *strategy, cancel.as_ref());
        // The streaming archive *is* the mode's Pareto front — the 2-D
        // (area, time) front of Figure 2 under ParetoOnly, the true 3-D
        // front under Full. `pareto_front` stays on as the verification
        // oracle.
        let pareto = run.archive.ids();
        #[cfg(debug_assertions)]
        {
            let pts: Vec<Vec<f64>> = run
                .evaluated
                .iter()
                .map(|e| e.objectives.values().to_vec())
                .collect();
            debug_assert_eq!(
                pareto,
                pareto_front(&pts),
                "streaming front must match the batch oracle"
            );
        }
        plan.lift(&mut run.evaluated, &pareto);
        Ok(ExploreResult {
            evaluated: run.evaluated,
            pareto,
            infeasible: run.infeasible,
            workloads: self.workloads.iter().map(|w| w.name.clone()).collect(),
            weights: self.weights.clone(),
            blocked: run.blocked,
            search: SearchInfo {
                strategy: strategy.name().to_string(),
                budget: self.budget,
                seed: self.seed,
                space_len: self.space.len(),
                evaluations: run.state.observations().len(),
                rounds: run.state.round(),
            },
            lift: self.lift,
            fidelity: self.fidelity,
            cache_status: plan.flush(),
            schedule: plan.schedules.stats(),
            cancelled,
        })
    }

    /// Fills the empty model slots: under [`FidelityMode::Netlist`] the
    /// area and timing slots get the elaboration-backed models, and
    /// every slot still empty then gets the annotated default
    /// parameterised by the configured [`InterconnectModel`]. Installed
    /// models are never replaced.
    fn resolve_models(&mut self) {
        let ic = self.interconnect;
        if self.fidelity == FidelityMode::Netlist {
            let eval = Arc::new(NetlistEvaluator::new());
            self.area
                .get_or_insert_with(|| Box::new(NetlistAreaModel::new(ic, Arc::clone(&eval))));
            self.timing
                .get_or_insert_with(|| Box::new(NetlistTimingModel::new(ic, eval)));
        }
        self.area
            .get_or_insert_with(|| Box::new(AnnotatedAreaModel::new(ic)));
        self.timing
            .get_or_insert_with(|| Box::new(AnnotatedTimingModel::new(ic)));
        self.test.get_or_insert_with(|| Box::new(Eq14TestCostModel));
    }
}

/// One sweep evaluation: a feasible point, or why the point dropped
/// (`Err(Some(i))` = suite member `i` failed to schedule first,
/// `Err(None)` = the cost models returned a non-finite value).
type PointOutcome = Result<EvaluatedArch, Option<usize>>;

/// A point's sweep-cache content address under `base`.
fn point_key(base: u64, arch: &Architecture) -> u64 {
    Fingerprint::new()
        .u64(base)
        .u64(arch_fingerprint(arch))
        .finish()
}

/// One run's resolved plan: everything the stages read, resolved once
/// from the builder. The sweep workers share it: the database, the
/// schedule memo and the cache synchronise internally, so any number of
/// workers evaluate chunks at once.
struct SweepPlan<'a> {
    space: &'a TemplateSpace,
    workloads: &'a [Workload],
    weights: &'a [f64],
    area: &'a dyn AreaModel,
    timing: &'a dyn TimingModel,
    test: &'a dyn TestCostModel,
    db: &'a ComponentDb,
    // One schedule per distinct (workload, scheduler view) for the
    // whole run.
    schedules: ScheduleMemo<'a>,
    // The attached cache, and the eval and test caches in use with their
    // content-address bases.
    cache: Option<&'a SweepCache>,
    eval_cache: Option<(&'a SweepCache, u64)>,
    test_cache: Option<(&'a SweepCache, u64)>,
    lift: LiftMode,
    // The test model's fingerprint, tagging full-lift inline totals.
    full_test_fp: u64,
    threads: usize,
    budget: usize,
    seed: u64,
}

/// One evaluated chunk waiting for its merge: an outcome per point and
/// the cache entries the chunk computed, both in point order.
struct EvaluatedChunk {
    outcomes: Vec<PointOutcome>,
    stores: Vec<(u64, EvalEntry)>,
}

impl<'a> SweepPlan<'a> {
    /// Resolves the plan of a builder whose model slots are filled
    /// ([`Exploration::resolve_models`]).
    fn resolve(x: &'a Exploration<'_>, db: &'a ComponentDb, strategy: &dyn SearchStrategy) -> Self {
        const FILLED: &str = "resolve_models fills every model slot";
        let test = x.test.as_deref().expect(FILLED);
        let test_fp = test.fingerprint();
        let mut plan = SweepPlan {
            space: &x.space,
            workloads: &x.workloads,
            weights: &x.weights,
            area: x.area.as_deref().expect(FILLED),
            timing: x.timing.as_deref().expect(FILLED),
            test,
            db,
            schedules: ScheduleMemo::new(&x.workloads, x.cycle_source),
            cache: x.cache,
            eval_cache: None,
            test_cache: None,
            lift: x.lift,
            full_test_fp: test_fp.unwrap_or(0),
            threads: x.threads,
            budget: x.budget.unwrap_or(usize::MAX),
            seed: x.seed.unwrap_or(0),
        };
        [plan.eval_cache, plan.test_cache] = plan.cache_bases(x, test_fp, strategy);
        plan
    }

    /// The attached cache with the content-address bases of its eval and
    /// its test entries: everything that determines a point's result
    /// except the point itself. `None` (no cache attached, a model that
    /// cannot fingerprint itself, or a test half the lift never reads)
    /// bypasses that half of the cache.
    fn cache_bases(
        &self,
        x: &Exploration<'_>,
        test_fp: Option<u64>,
        strategy: &dyn SearchStrategy,
    ) -> [Option<(&'a SweepCache, u64)>; 2] {
        let Some(cache) = self.cache else {
            return [None, None];
        };
        let (version, db_fp) = (u64::from(CACHE_ADDRESS_VERSION), self.db.fingerprint());
        let eval = self.area.fingerprint().zip(self.timing.fingerprint());
        let eval = eval.map(|(a, t)| {
            let base = Fingerprint::new().str("eval").u64(version).u64(a).u64(t);
            let mut base = base.u64(db_fp).u64(self.workloads.len() as u64);
            // Weights ride along with each workload: a reweighted suite
            // changes the exec-time axis, so it must change the address.
            for (w, &weight) in self.workloads.iter().zip(self.weights) {
                base = base.u64(workload_fingerprint(w)).f64(weight);
            }
            // Simulated cycle counts are a different observable (they
            // *should* equal the model, but proving that is the point),
            // so they get their own address family. `Model` leaves the
            // address untouched — bit-identical to pre-knob sweeps.
            match x.cycle_source {
                CycleSource::Model => base,
                CycleSource::Simulate => base.str("cycles").str("simulate"),
            }
        });
        // A full lift stores per-point test totals *inline* in the eval
        // entries, tagged with the test model's fingerprint — an
        // unfingerprintable test model therefore bypasses the eval
        // cache entirely in that mode (the totals could not be
        // validated). The eval content address itself is deliberately
        // unchanged, so both lift modes share their scheduling work.
        let eval = eval.filter(|_| self.lift == LiftMode::ParetoOnly || test_fp.is_some());
        let test = test_fp.filter(|_| self.lift == LiftMode::ParetoOnly);
        let test = test.map(|fp| {
            Fingerprint::new()
                .str("test")
                .u64(version)
                .u64(fp)
                .u64(db_fp)
        });
        // Non-exhaustive strategies fold their identity (plus budget and
        // seed, which shape the trajectory) into both bases, so a
        // sampled run's entries can never be confused with an
        // exhaustive sweep's.
        [eval, test].map(|base| {
            let base = base?;
            let salted = match strategy.cache_salt() {
                None => base,
                Some(salt) => base
                    .str("strategy")
                    .str(strategy.name())
                    .u64(salt)
                    .u64(x.budget.map_or(u64::MAX, |b| b as u64))
                    .u64(self.seed),
            };
            Some((cache, salted.finish()))
        })
    }

    /// The per-chunk pipeline a sweep worker runs:
    /// [`materialise`](Self::materialise) →
    /// [`lookup`](Self::lookup) → [`evaluate`](Self::evaluate).
    fn evaluate_chunk(&self, indices: &[usize]) -> EvaluatedChunk {
        let archs = self.materialise(indices);
        let (keys, prefetched) = self.lookup(&archs);
        self.evaluate(archs, &keys, prefetched)
    }

    /// Stage: builds the chunk's architectures from their space indices,
    /// once each: [`evaluate`](Self::evaluate) moves every feasible one
    /// into its result.
    fn materialise(&self, indices: &[usize]) -> Vec<Architecture> {
        indices.iter().map(|&i| self.space.point(i)).collect()
    }

    /// Stage: each point's content address and the entry the eval cache
    /// holds for it, in ONE batched read (one lock acquisition for the
    /// whole chunk); both empty without an eval cache.
    fn lookup(&self, archs: &[Architecture]) -> (Vec<u64>, Vec<Option<EvalEntry>>) {
        let Some((cache, base)) = self.eval_cache else {
            return (Vec::new(), Vec::new());
        };
        let keys: Vec<u64> = archs.iter().map(|arch| point_key(base, arch)).collect();
        let prefetched = cache.lookup_eval_batch(&keys);
        (keys, prefetched)
    }

    /// Stage: one pipeline per point — rehydrate the prefetched entry or
    /// evaluate, add the test total under a full lift, and note what had
    /// to be computed. Each feasible outcome takes ownership of its
    /// architecture; an infeasible one drops it. The cache is never
    /// written here: the merge stores the chunk's entries in sweep
    /// order.
    fn evaluate(
        &self,
        archs: Vec<Architecture>,
        keys: &[u64],
        mut prefetched: Vec<Option<EvalEntry>>,
    ) -> EvaluatedChunk {
        let mut stores = Vec::new();
        let mut rejected = 0;
        let outcomes = archs
            .into_iter()
            .enumerate()
            .map(|(k, arch)| {
                let entry = prefetched.get_mut(k).and_then(Option::take);
                let inline_test = match &entry {
                    Some(EvalEntry::Feasible { test, .. }) => *test,
                    _ => None,
                };
                // 1. Rehydrate or evaluate. A cache entry inconsistent
                // with this suite (corrupt or hash-colliding) hands the
                // point back and it is re-evaluated — a bad cache may
                // cost time, never correctness or a panic.
                let (outcome, mut dirty) = match entry {
                    None => (self.evaluate_point(arch), true),
                    Some(entry) => {
                        match rehydrate(arch, self.workloads.len(), self.weights, entry) {
                            Ok(outcome) => (outcome, false),
                            Err(arch) => {
                                rejected += 1;
                                (self.evaluate_point(arch), true)
                            }
                        }
                    }
                };
                // 2. Under a full lift every feasible point carries the
                // test axis: the entry's inline total when it came from
                // this test model, a fresh fold otherwise (a Pareto-only
                // entry reuses its scheduling work and is stored back
                // upgraded).
                let total = match (self.lift, &outcome) {
                    (LiftMode::Full, Ok(e)) => Some(match inline_test {
                        Some((fp, bits)) if fp == self.full_test_fp && !dirty => {
                            f64::from_bits(bits)
                        }
                        _ => {
                            dirty = true;
                            self.test.test_cost(&e.architecture, self.db).total
                        }
                    }),
                    _ => None,
                };
                // 3. With a cache, note what this point computed.
                if dirty && self.eval_cache.is_some() {
                    let test = total.map(|t| (self.full_test_fp, t.to_bits()));
                    stores.push((keys[k], dehydrate(&outcome, test)));
                }
                match total {
                    Some(total) => finish_full(outcome?, total),
                    None => outcome,
                }
            })
            .collect();
        if let Some((cache, _)) = self.eval_cache {
            cache.count_rejected(rejected);
        }
        EvaluatedChunk { outcomes, stores }
    }

    /// Evaluates one architecture on a workload suite (area + throughput
    /// only; the test axis is lifted later, on front points). Infeasibility
    /// is entirely the models’ verdict: a non-finite area or clock period
    /// (the default annotated models return infinity for out-of-
    /// [`crate::backannotate::ComponentKey`]-domain geometries) or an
    /// unschedulable workload drops the point — the error records which.
    /// Cycle counts come from the run's [`ScheduleMemo`]: the modelled
    /// count of a `(workload, scheduler view)` pair is computed once per
    /// run, and a simulated count executes the point's own schedule (a
    /// program that cannot lower or run is as infeasible as one that cannot
    /// schedule).
    fn evaluate_point(&self, arch: Architecture) -> PointOutcome {
        let mut workload_cycles = Vec::with_capacity(self.workloads.len());
        let mut spills = 0u32;
        let admitted = self.schedules.admits(&arch);
        for (i, w) in self.workloads.iter().enumerate() {
            let (trace_cycles, workload_spills) =
                self.schedules.lookup(&arch, i, admitted).ok_or(Some(i))?;
            workload_cycles.push(w.application_cycles(trace_cycles));
            spills += workload_spills;
        }
        let cycles: u64 = workload_cycles.iter().sum();
        let weighted_cycles = weighted_sum(&workload_cycles, self.weights);
        let area = self.area.area(&arch, self.db);
        let clock = self.timing.clock_period(&arch, self.db);
        // Exec time must be finite too: a finite-but-extreme weight can
        // overflow the weighted aggregate, and an infinite axis would turn
        // the norm selection into NaN comparisons downstream.
        let exec_time = weighted_cycles * clock;
        if !area.is_finite() || !clock.is_finite() || !exec_time.is_finite() {
            return Err(None);
        }
        Ok(EvaluatedArch {
            architecture: arch,
            cycles,
            workload_cycles,
            spills,
            weighted_cycles,
            objectives: ObjectiveVector::new([
                (Objective::Area, area),
                (Objective::ExecTime, exec_time),
            ]),
        })
    }

    /// Stage: stores a merged chunk's fresh entries in the eval cache and
    /// checkpoints them into its journal.
    fn store(&self, stores: Vec<(u64, EvalEntry)>) {
        if let Some((cache, _)) = self.eval_cache {
            for (key, entry) in stores {
                cache.store_eval(key, entry);
            }
            // A failed append only coarsens crash-resume: the entries
            // stay in memory, and the end-of-run flush reports whether
            // they reached disk.
            let _ = cache.checkpoint();
        }
    }

    /// Stage 3 (ParetoOnly): lifts the front with the test axis —
    /// Figure 8. "only the architectures that correspond to the Pareto
    /// points in the design space are evaluated in terms of testing". A
    /// Full sweep already carries the axis on every point, so the stage
    /// does nothing.
    fn lift(&self, evaluated: &mut [EvaluatedArch], pareto: &[usize]) {
        if self.lift == LiftMode::Full {
            return;
        }
        let costs = par_map(pareto, self.threads, |_, &i| {
            let arch = &evaluated[i].architecture;
            let cached = self
                .test_cache
                .map(|(cache, base)| (cache, point_key(base, arch)));
            if let Some(total) = cached.and_then(|(cache, key)| cache.lookup_test(key)) {
                return total;
            }
            let total = self.test.test_cost(arch, self.db).total;
            if let Some((cache, key)) = cached {
                cache.store_test(key, total);
            }
            total
        });
        for (&i, total) in pareto.iter().zip(costs) {
            evaluated[i].objectives.push(Objective::TestCost, total);
        }
    }

    /// Stage: one compaction per run, after the lift and whether or not
    /// the run was cancelled — the journal the chunks were checkpointed
    /// into becomes the sorted v3 file.
    fn flush(&self) -> CacheStatus {
        match self.cache {
            None => CacheStatus::NotAttached,
            Some(_) if self.eval_cache.or(self.test_cache).is_none() => CacheStatus::Bypassed,
            Some(cache) => match cache.flush() {
                Err(e) => CacheStatus::FlushFailed(e.to_string()),
                Ok(()) => CacheStatus::Flushed,
            },
        }
    }
}

/// The coordinator's side of a sweep: the state the in-order merge
/// updates, chunk by chunk, exactly as a serial sweep would.
struct SweepRun<'p> {
    plan: &'p SweepPlan<'p>,
    evaluated: Vec<EvaluatedArch>,
    // The space index of each `evaluated` point.
    eval_space_index: Vec<usize>,
    blocked: Vec<usize>,
    infeasible: usize,
    state: SearchState,
    archive: ParetoArchive,
    progress: Option<ProgressObserver<'p>>,
}

impl<'p> SweepRun<'p> {
    fn new(plan: &'p SweepPlan<'p>, progress: Option<ProgressObserver<'p>>) -> Self {
        SweepRun {
            plan,
            evaluated: Vec::new(),
            eval_space_index: Vec::new(),
            blocked: vec![0; plan.workloads.len()],
            infeasible: 0,
            state: SearchState::new(),
            archive: ParetoArchive::new(),
            progress,
        }
    }

    /// Stages 1–2, batched: the strategy proposes point indices, the
    /// engine lazily builds and evaluates them, and every feasible
    /// result streams into an incrementally maintained Pareto archive
    /// that guides the next proposal round. No stage ever materialises
    /// the space. Returns whether `cancel` stopped the search.
    fn search(&mut self, strategy: &mut dyn SearchStrategy, cancel: Option<&CancelToken>) -> bool {
        loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return true;
            }
            let fresh = self.plan_batch(strategy);
            if fresh.is_empty() {
                return false;
            }
            self.state.begin_round();
            if !self.sweep_batch(&fresh, cancel) {
                return true;
            }
        }
    }

    /// Stage: asks the strategy for its next batch and keeps the
    /// in-range, never-seen proposals, claimed and truncated to the
    /// remaining budget (none once the budget is spent).
    fn plan_batch(&mut self, strategy: &mut dyn SearchStrategy) -> Vec<usize> {
        let remaining = self.plan.budget.saturating_sub(self.state.visited());
        if remaining == 0 {
            return Vec::new();
        }
        let space = self.plan.space;
        let front_spaces: Vec<usize> = self
            .archive
            .ids()
            .iter()
            .map(|&id| self.eval_space_index[id])
            .collect();
        let ctx = self
            .state
            .context(space, self.plan.seed, remaining, &front_spaces);
        let batch = strategy.next_batch(&ctx);
        let space_len = space.len();
        let mut fresh: Vec<usize> = Vec::new();
        for i in batch {
            if i < space_len && self.state.claim(i) {
                fresh.push(i);
                if fresh.len() == remaining {
                    break;
                }
            }
        }
        // A strategy may ask for its batches to be *evaluated* in
        // neighbour (Gray-walk) order: consecutive points then differ in
        // one template knob, which decides the order in which scheduler
        // views repeat in the schedule memo (and lets netlist fidelity
        // re-elaborate incrementally). The re-sort happens after budget
        // truncation, so it changes when a point is evaluated, never
        // whether — and per-point cache addresses and memoised schedules
        // are visit-order independent.
        if strategy.walk_order() == WalkOrder::Neighbour {
            fresh.sort_by_key(|&i| space.neighbour_rank(i));
        }
        fresh
    }

    /// Evaluates one planned batch in [`CACHE_FLUSH_CHUNK`]-point chunks
    /// and merges the chunks in order. Returns `false` when `cancel`
    /// stopped the batch.
    ///
    /// With more than one thread the batch gets one scoped pool: each
    /// worker claims the next chunk rank from a shared counter and
    /// evaluates the whole chunk, while this thread merges finished
    /// chunks strictly in rank order. The front, the cache journal, the
    /// progress events and the cancellation boundary therefore match
    /// the serial sweep's exactly; only the evaluation runs ahead.
    fn sweep_batch(&mut self, fresh: &[usize], cancel: Option<&CancelToken>) -> bool {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let plan = self.plan;
        let chunks: Vec<&[usize]> = fresh.chunks(CACHE_FLUSH_CHUNK).collect();
        let threads = plan.threads.min(chunks.len());
        if threads <= 1 {
            for indices in chunks {
                // The cooperative cancellation point: a cancel request
                // lands between chunks, so a cancelled run stops at
                // most one chunk after the request — never after the
                // whole in-flight batch.
                if cancelled() {
                    return false;
                }
                self.merge(indices, plan.evaluate_chunk(indices));
            }
            return true;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (done, finished) = mpsc::channel::<(usize, EvaluatedChunk)>();
            for _ in 0..threads {
                let done = done.clone();
                let (next, chunks) = (&next, &chunks);
                scope.spawn(move || loop {
                    if cancelled() {
                        break;
                    }
                    let rank = next.fetch_add(1, Ordering::Relaxed);
                    let Some(indices) = chunks.get(rank) else {
                        break;
                    };
                    // A closed channel means the merge stopped.
                    if done.send((rank, plan.evaluate_chunk(indices))).is_err() {
                        break;
                    }
                });
            }
            drop(done);
            // Chunks finish out of order; each waits here until every
            // lower rank is merged.
            let mut waiting: Vec<Option<EvaluatedChunk>> = chunks.iter().map(|_| None).collect();
            let mut merged = 0;
            for (rank, chunk) in finished {
                waiting[rank] = Some(chunk);
                while let Some(chunk) = waiting.get_mut(merged).and_then(Option::take) {
                    // The same cancellation point as the serial loop.
                    if cancelled() {
                        return false;
                    }
                    self.merge(chunks[merged], chunk);
                    merged += 1;
                }
            }
            // Every chunk arrives unless a worker saw the cancellation
            // (a panicking worker re-raises when the scope joins).
            merged == chunks.len() || !cancelled()
        })
    }

    /// Merges one evaluated chunk of the points `indices` into the run:
    /// [`store`](SweepPlan::store) → [`insert`](Self::insert) →
    /// [`report`](Self::report).
    fn merge(&mut self, indices: &[usize], chunk: EvaluatedChunk) {
        self.plan.store(chunk.stores);
        self.insert(indices, chunk.outcomes);
        self.report();
    }

    /// Stage: feasible results join the evaluated set and are offered to
    /// the archive (insert-time dominance check — no full-set re-scan);
    /// every outcome becomes an observation the strategy can steer by,
    /// and every infeasible one is counted against the workload that
    /// blocked it.
    fn insert(&mut self, indices: &[usize], outcomes: Vec<PointOutcome>) {
        for (&index, outcome) in indices.iter().zip(outcomes) {
            let objectives = outcome.as_ref().ok().map(|e| (e.area(), e.exec_time()));
            self.state.record(Observation { index, objectives });
            match outcome {
                Ok(e) => {
                    // ParetoOnly points carry [area, time], Full points
                    // [area, time, test] — the archive streams whichever
                    // front the mode defines.
                    self.archive
                        .try_insert(self.evaluated.len(), e.objectives.values());
                    self.eval_space_index.push(index);
                    self.evaluated.push(e);
                }
                Err(why) => {
                    self.infeasible += 1;
                    if let Some(w) = why {
                        self.blocked[w] += 1;
                    }
                }
            }
        }
    }

    /// Stage: per-chunk progress, live telemetry for streaming clients.
    /// Observability only — the snapshot is built from state the chunk
    /// already produced.
    fn report(&mut self) {
        if let Some(observer) = self.progress.as_mut() {
            observer(&SweepProgress {
                round: self.state.round(),
                visited: self.state.observations().len(),
                feasible: self.evaluated.len(),
                infeasible: self.infeasible,
                front: self.archive.len(),
                space_len: self.plan.space.len(),
            });
        }
    }
}

/// Weight-scaled aggregate cycles. Each term `wᵢ·cᵢ` and every partial
/// sum is an exact integer below 2⁵³ when all weights are 1, so the
/// unit-weight aggregate is bit-identical to `(Σ cᵢ) as f64` — weighted
/// suites change results only when they actually reweight.
fn weighted_sum(workload_cycles: &[u64], weights: &[f64]) -> f64 {
    workload_cycles
        .iter()
        .zip(weights)
        .map(|(&c, &w)| w * c as f64)
        .sum()
}

/// Rebuilds the evaluation of `arch` from its cache entry; a feasible
/// one takes ownership of `arch`. The floats come back as the exact bit
/// patterns the original evaluation produced (the weighted aggregate is
/// deterministically recomputed from the cached per-workload cycles),
/// so a warm sweep is bit-identical to a cold one. Entries
/// `evaluate_point` could not have produced for a suite of
/// `n_workloads` members (a corrupt or hand-edited cache line, or a
/// content-address collision) hand `arch` back as `Err`, for a fresh
/// evaluation: a wrong workload count or `blocked` index, `cycles`
/// other than the (non-overflowing) sum of the workload cycles, or a
/// non-finite area or exec time.
fn rehydrate(
    arch: Architecture,
    n_workloads: usize,
    weights: &[f64],
    entry: EvalEntry,
) -> Result<PointOutcome, Architecture> {
    match entry {
        EvalEntry::Infeasible { blocked } => {
            let blocked = match blocked {
                None => None,
                Some(w) if (w as usize) < n_workloads => Some(w as usize),
                Some(_) => return Err(arch),
            };
            Ok(Err(blocked))
        }
        EvalEntry::Feasible {
            cycles,
            workload_cycles,
            spills,
            area_bits,
            exec_bits,
            test: _,
        } => {
            let sum = workload_cycles
                .iter()
                .try_fold(0u64, |acc, &c| acc.checked_add(c));
            let (area, exec) = (f64::from_bits(area_bits), f64::from_bits(exec_bits));
            if workload_cycles.len() != n_workloads
                || sum != Some(cycles)
                || !area.is_finite()
                || !exec.is_finite()
            {
                return Err(arch);
            }
            let weighted_cycles = weighted_sum(&workload_cycles, weights);
            Ok(Ok(EvaluatedArch {
                architecture: arch,
                cycles,
                workload_cycles,
                spills,
                weighted_cycles,
                objectives: ObjectiveVector::new([
                    (Objective::Area, area),
                    (Objective::ExecTime, exec),
                ]),
            }))
        }
    }
}

/// Pushes the test axis onto a feasible 2-D evaluation, turning a
/// non-finite total into an infeasible point (the same convention as
/// the area/timing axes: an infinite coordinate would poison the norm
/// selection downstream). The cache keeps the *feasible* 2-D entry
/// either way, so a Pareto-only run sharing the cache still sees the
/// point.
fn finish_full(mut e: EvaluatedArch, total: f64) -> PointOutcome {
    if !total.is_finite() {
        return Err(None);
    }
    e.objectives.push(Objective::TestCost, total);
    Ok(e)
}

/// The cache entry for a fresh evaluation (2-D payload; the test axis,
/// if already pushed, is *not* read from the objectives); `test`
/// carries the inline `(model fingerprint, total bits)` pair of a
/// full-lift sweep.
fn dehydrate(e: &PointOutcome, test: Option<(u64, u64)>) -> EvalEntry {
    match e {
        Err(blocked) => EvalEntry::Infeasible {
            blocked: blocked.map(|w| w as u32),
        },
        Ok(e) => EvalEntry::Feasible {
            cycles: e.cycles,
            workload_cycles: e.workload_cycles.clone(),
            spills: e.spills,
            area_bits: e.area().to_bits(),
            exec_bits: e.exec_time().to_bits(),
            test,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_arch::FuKind;
    use tta_workloads::suite;

    /// A feasible cache row for a two-workload suite, consistent with
    /// what `evaluate_point` writes.
    fn feasible_row(workload_cycles: Vec<u64>, cycles: u64, area: f64, exec: f64) -> EvalEntry {
        EvalEntry::Feasible {
            cycles,
            workload_cycles,
            spills: 2,
            area_bits: area.to_bits(),
            exec_bits: exec.to_bits(),
            test: None,
        }
    }

    #[test]
    fn rehydrate_keeps_a_consistent_row_bit_exact() {
        let arch = TemplateSpace::fast_default().point(0);
        let row = feasible_row(vec![300, 45], 345, 4000.5, 77.25);
        let Ok(Ok(e)) = rehydrate(arch.clone(), 2, &[0.25, 0.75], row) else {
            panic!("a consistent row must rehydrate");
        };
        assert_eq!(e.architecture.name, arch.name);
        assert_eq!(
            (e.cycles, e.workload_cycles.as_slice(), e.spills),
            (345, &[300, 45][..], 2)
        );
        assert_eq!(
            e.weighted_cycles.to_bits(),
            weighted_sum(&[300, 45], &[0.25, 0.75]).to_bits()
        );
        assert_eq!(
            e.objectives.get(Objective::Area).map(f64::to_bits),
            Some(4000.5f64.to_bits())
        );
        assert_eq!(
            e.objectives.get(Objective::ExecTime).map(f64::to_bits),
            Some(77.25f64.to_bits())
        );
    }

    #[test]
    fn rehydrate_rejects_an_overflowing_cycle_sum() {
        let arch = TemplateSpace::fast_default().point(0);
        // The wrapping sum of the workload cycles is 4 == `cycles`; only
        // a checked sum sees that no evaluation could have written it.
        let row = feasible_row(vec![u64::MAX, 5], 4, 4000.5, 77.25);
        assert!(rehydrate(arch.clone(), 2, &[0.5, 0.5], row).is_err());
        let row = feasible_row(vec![300, 45], 346, 4000.5, 77.25);
        assert!(rehydrate(arch.clone(), 2, &[0.5, 0.5], row).is_err());
    }

    #[test]
    fn rehydrate_rejects_non_finite_area_or_exec_time() {
        let arch = TemplateSpace::fast_default().point(0);
        for (area, exec) in [
            (f64::NAN, 77.25),
            (f64::INFINITY, 77.25),
            (4000.5, f64::NAN),
            (4000.5, f64::NEG_INFINITY),
        ] {
            let row = feasible_row(vec![300, 45], 345, area, exec);
            assert!(
                rehydrate(arch.clone(), 2, &[0.5, 0.5], row).is_err(),
                "area {area}, exec {exec}"
            );
        }
    }

    #[test]
    fn rehydrate_rejects_rows_shaped_for_another_suite() {
        let arch = TemplateSpace::fast_default().point(0);
        let row = feasible_row(vec![345], 345, 4000.5, 77.25);
        assert!(rehydrate(arch.clone(), 2, &[0.5, 0.5], row).is_err());
        let blamed = |blocked| {
            rehydrate(
                arch.clone(),
                2,
                &[0.5, 0.5],
                EvalEntry::Infeasible { blocked },
            )
        };
        assert!(matches!(blamed(Some(1)), Ok(Err(Some(1)))));
        assert!(matches!(blamed(None), Ok(Err(None))));
        assert!(blamed(Some(2)).is_err());
    }

    #[test]
    fn fast_exploration_produces_a_front() {
        let result = Exploration::over(TemplateSpace::fast_default())
            .workload(&suite::crypt(1))
            .run();
        assert!(result.evaluated.len() >= 6, "{}", result.evaluated.len());
        assert!(!result.pareto.is_empty());
        assert!(result.projection_holds());
        // Test axis present exactly on the front.
        for (i, e) in result.evaluated.iter().enumerate() {
            assert_eq!(e.test_cost().is_some(), result.is_on_front(i));
        }
        let best = result.select_equal_weights();
        assert!(best.test_cost().is_some());
        assert_eq!(
            result.axes(),
            [Objective::Area, Objective::ExecTime, Objective::TestCost]
        );
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let serial = Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(&db)
            .run();
        let parallel = Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(&db)
            .threads(2)
            .run();
        assert_eq!(serial.evaluated.len(), parallel.evaluated.len());
        for (a, b) in serial.evaluated.iter().zip(&parallel.evaluated) {
            assert_eq!(a.architecture.name, b.architecture.name);
            assert_eq!(a.objectives, b.objectives);
            assert_eq!(a.cycles, b.cycles);
        }
        assert_eq!(serial.pareto, parallel.pareto);
        assert_eq!(
            serial.select_equal_weights().architecture.name,
            parallel.select_equal_weights().architecture.name
        );
    }

    #[test]
    fn concurrent_sweeps_share_one_cold_db() {
        let w = suite::crypt(1);
        let sweep = |db: &ComponentDb, threads| {
            let result = Exploration::over(TemplateSpace::fast_default())
                .workload(&w)
                .with_db(db)
                .threads(threads)
                .run();
            format!("{result:?}")
        };
        let fresh = ComponentDb::new();
        let serial = sweep(&fresh, 1);
        let db = ComponentDb::new();
        let shared: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| sweep(&db, 2))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep thread"))
                .collect()
        });
        for rendered in &shared {
            assert!(rendered == &serial, "a shared-db sweep renders other bytes");
        }
        assert_eq!(db.annotations(), db.len(), "a key was annotated twice");
        assert_eq!(db.len(), fresh.len());
    }

    #[test]
    fn multi_workload_aggregates_cycles() {
        let crypt = suite::crypt(1);
        let checksum = suite::checksum32();
        let db = ComponentDb::new();
        let combined = Exploration::over(TemplateSpace::fast_default())
            .workloads([&crypt, &checksum])
            .with_db(&db)
            .run();
        let solo = Exploration::over(TemplateSpace::fast_default())
            .workload(&crypt)
            .with_db(&db)
            .run();
        assert_eq!(
            combined.workloads,
            vec![crypt.name.clone(), checksum.name.clone()]
        );
        // Aggregate cycles are the per-workload sum, and are at least
        // the single-workload cycles for the same architecture.
        for e in &combined.evaluated {
            assert_eq!(e.cycles, e.workload_cycles.iter().sum::<u64>());
            assert_eq!(e.workload_cycles.len(), 2);
            if let Some(s) = solo
                .evaluated
                .iter()
                .find(|s| s.architecture.name == e.architecture.name)
            {
                assert!(e.cycles >= s.cycles);
            }
        }
    }

    #[test]
    fn custom_interconnect_shifts_the_space() {
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let paper = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .run();
        let free = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .interconnect(InterconnectModel::free())
            .run();
        for (p, f) in paper.evaluated.iter().zip(&free.evaluated) {
            assert!(f.area() < p.area(), "free interconnect must shrink area");
            assert!(f.exec_time() < p.exec_time());
        }
    }

    #[test]
    fn custom_model_wins_over_interconnect_regardless_of_order() {
        struct FlatArea;
        impl crate::models::AreaModel for FlatArea {
            fn area(&self, _: &Architecture, _: &ComponentDb) -> f64 {
                42.0
            }
        }
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        // interconnect() *after* the custom model must not displace it.
        let result = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .area_model(FlatArea)
            .interconnect(InterconnectModel::free())
            .run();
        for e in &result.evaluated {
            assert_eq!(e.area(), 42.0);
        }
        // …and the free interconnect still reaches the default timing
        // model: zero bus penalty means a smaller clock than paper's.
        let paper = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .run();
        for (f, p) in result.evaluated.iter().zip(&paper.evaluated) {
            assert!(f.exec_time() < p.exec_time());
        }
    }

    #[test]
    fn unit_weights_are_bit_identical_to_unweighted() {
        let crypt = suite::crypt(1);
        let checksum = suite::checksum32();
        let db = ComponentDb::new();
        let plain = Exploration::over(TemplateSpace::tiny())
            .workloads([&crypt, &checksum])
            .with_db(&db)
            .run();
        let weighted = Exploration::over(TemplateSpace::tiny())
            .workload_weighted(&crypt, 1.0)
            .workload_weighted(&checksum, 1.0)
            .with_db(&db)
            .run();
        for (a, b) in plain.evaluated.iter().zip(&weighted.evaluated) {
            assert_eq!(a.objectives, b.objectives);
            assert_eq!(a.weighted_cycles, a.cycles as f64);
        }
    }

    #[test]
    fn weights_scale_the_exec_time_axis() {
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let base = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .run();
        let doubled = Exploration::over(TemplateSpace::tiny())
            .workload_weighted(&w, 2.0)
            .with_db(&db)
            .run();
        for (a, b) in base.evaluated.iter().zip(&doubled.evaluated) {
            assert_eq!(a.area(), b.area(), "weights never touch area");
            assert_eq!(2.0 * a.exec_time(), b.exec_time());
            assert_eq!(a.cycles, b.cycles, "raw cycles stay unweighted");
            assert_eq!(b.weighted_cycles, 2.0 * a.cycles as f64);
        }
    }

    #[test]
    fn weights_can_move_the_selection() {
        // crypt (no MUL needed) vs dct8 (MUL-bound) on a space with a
        // MUL knob: cranking the DSP member's weight far enough must
        // shift the equal-weight selection toward a machine that serves
        // it, and per-workload breakdowns must blame dct8 for every
        // MUL-less point.
        let crypt = suite::crypt(1);
        let dct = suite::dct8();
        let db = ComponentDb::new();
        let mut space = TemplateSpace::tiny();
        space.muls = vec![0, 1];
        let crypt_heavy = Exploration::over(space.clone())
            .workload_weighted(&crypt, 1000.0)
            .workload_weighted(&dct, 1.0)
            .with_db(&db)
            .run();
        let dct_heavy = Exploration::over(space)
            .workload_weighted(&crypt, 1.0)
            .workload_weighted(&dct, 1000.0)
            .with_db(&db)
            .run();
        // dct8 is in both suites, so only MUL-bearing points are
        // feasible and dct8 gets the blame for the rest.
        assert_eq!(crypt_heavy.blocked, vec![0, crypt_heavy.infeasible]);
        let b = crypt_heavy.workload_breakdown();
        assert_eq!(b[1].name, "dct8");
        assert_eq!(b[1].blocked, crypt_heavy.infeasible);
        assert!(b[1].selected_cycles.is_some());
        // The exec-time axis ordering may differ between the two
        // weightings; the selections both exist.
        assert!(crypt_heavy
            .try_select(&Weights::equal(3), Norm::Euclidean)
            .is_some());
        assert!(dct_heavy
            .try_select(&Weights::equal(3), Norm::Euclidean)
            .is_some());
    }

    #[test]
    fn overflowing_weighted_exec_time_drops_the_point() {
        // A finite-but-absurd weight overflows the weighted aggregate;
        // the point must drop as infeasible instead of carrying an
        // infinite axis into the norm selection (NaN comparisons).
        let w = suite::crypt(1);
        let result = Exploration::over(TemplateSpace::tiny())
            .workload_weighted(&w, 1e308)
            .run();
        assert!(result.evaluated.is_empty());
        assert_eq!(result.infeasible, TemplateSpace::tiny().len());
        assert!(result
            .try_select(&Weights::equal(0), Norm::Euclidean)
            .is_none());
    }

    #[test]
    fn invalid_weights_are_reported() {
        let w = suite::crypt(1);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = Exploration::over(TemplateSpace::tiny())
                .workload(&w)
                .workload_weighted(&w, bad)
                .try_run()
                .unwrap_err();
            assert_eq!(e, ExploreError::InvalidWeight(1), "{bad}");
        }
    }

    #[test]
    fn area_grows_with_units() {
        use tta_arch::template::TemplateBuilder;
        let db = ComponentDb::new();
        let model = AnnotatedAreaModel::default();
        let small = TemplateBuilder::new("s", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .fu(FuKind::Immediate)
            .rf(8, 1, 2)
            .build();
        let big = TemplateBuilder::new("b", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Alu)
            .fu(FuKind::Cmp)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .fu(FuKind::Immediate)
            .rf(8, 1, 2)
            .rf(8, 1, 2)
            .build();
        assert!(model.area(&big, &db) > model.area(&small, &db));
    }

    #[test]
    fn full_lift_costs_every_point_and_keeps_the_design_front() {
        let db = ComponentDb::new();
        let w = suite::crypt(1);
        let full = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .lift(LiftMode::Full)
            .run();
        assert_eq!(full.lift, LiftMode::Full);
        for e in &full.evaluated {
            assert_eq!(
                e.objectives.axes(),
                [Objective::Area, Objective::ExecTime, Objective::TestCost]
            );
            assert!(e.test_cost().is_some());
        }
        // The 3-D front contains the whole 2-D design front.
        let design = full.design_front();
        assert!(design.iter().all(|i| full.pareto.contains(i)));
        // Selection works over the 3-D front.
        assert!(full.try_select_equal_weights().is_some());
    }

    #[test]
    fn full_lift_test_axis_is_the_test_models_fold() {
        let db = ComponentDb::new();
        let w = suite::crypt(1);
        for threads in [1, 2] {
            let full = Exploration::over(TemplateSpace::fast_default())
                .workload(&w)
                .with_db(&db)
                .lift(LiftMode::Full)
                .threads(threads)
                .run();
            for e in &full.evaluated {
                let folded = Eq14TestCostModel.test_cost(&e.architecture, &db).total;
                assert_eq!(
                    e.test_cost().map(f64::to_bits),
                    Some(folded.to_bits()),
                    "{}",
                    e.architecture.name
                );
            }
        }
    }

    #[test]
    fn neighbour_walk_visits_every_point_once() {
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let space = TemplateSpace::fast_default();
        let walked = Exploration::over(space.clone())
            .workload(&w)
            .with_db(&db)
            .strategy(crate::search::Exhaustive::neighbour())
            .run();
        assert_eq!(walked.search.evaluations, space.len());
        let plain = Exploration::over(space).workload(&w).with_db(&db).run();
        let names = |r: &ExploreResult| {
            let mut v: Vec<String> = r
                .evaluated
                .iter()
                .map(|e| e.architecture.name.clone())
                .collect();
            v.sort();
            v
        };
        let walked_names = names(&walked);
        let mut unique = walked_names.clone();
        unique.dedup();
        assert_eq!(walked_names, unique, "no point is evaluated twice");
        assert_eq!(walked_names, names(&plain));
        assert_eq!(walked.infeasible, plain.infeasible);
    }

    #[test]
    fn cache_status_distinguishes_missing_bypassed_and_flushed() {
        use crate::cache::SweepCache;
        let db = ComponentDb::new();
        let w = suite::crypt(1);
        let none = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .run();
        assert_eq!(none.cache_status, CacheStatus::NotAttached);

        let cache = SweepCache::in_memory();
        let flushed = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .cache(&cache)
            .run();
        assert_eq!(flushed.cache_status, CacheStatus::Flushed);

        // A fully unfingerprintable model stack bypasses caching.
        struct Opaque;
        impl crate::models::AreaModel for Opaque {
            fn area(&self, _: &Architecture, _: &ComponentDb) -> f64 {
                1.0
            }
        }
        struct OpaqueTime;
        impl crate::models::TimingModel for OpaqueTime {
            fn clock_period(&self, _: &Architecture, _: &ComponentDb) -> f64 {
                1.0
            }
        }
        struct OpaqueTest;
        impl crate::models::TestCostModel for OpaqueTest {
            fn test_cost(
                &self,
                a: &Architecture,
                db: &ComponentDb,
            ) -> crate::testcost::ArchTestCost {
                crate::testcost::architecture_test_cost(a, db)
            }
        }
        let cache = SweepCache::in_memory();
        let bypassed = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .models(Opaque, OpaqueTime, OpaqueTest)
            .cache(&cache)
            .run();
        assert_eq!(bypassed.cache_status, CacheStatus::Bypassed);
        assert!(cache.is_empty(), "nothing may be stored when bypassed");

        // In Full mode an unfingerprintable *test* model alone bypasses
        // the eval cache too (inline totals could not be validated).
        let cache = SweepCache::in_memory();
        let full_bypassed = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .test_cost_model(OpaqueTest)
            .lift(LiftMode::Full)
            .cache(&cache)
            .run();
        assert_eq!(full_bypassed.cache_status, CacheStatus::Bypassed);
        assert!(cache.is_empty());
    }

    #[test]
    fn simulated_cycles_reproduce_the_model_bit_identically() {
        // The analytic model is honest (the sim crate's property test),
        // so swapping the cycle source must not move a single bit of
        // the objectives, front or selection.
        let db = ComponentDb::new();
        let reg = tta_workloads::SuiteRegistry::standard();
        let members = reg
            .instantiate("paper", &tta_workloads::SuiteParams::fast())
            .unwrap();
        let model = Exploration::over(TemplateSpace::fast_default())
            .suite(&members)
            .with_db(&db)
            .run();
        let sim = Exploration::over(TemplateSpace::fast_default())
            .suite(&members)
            .with_db(&db)
            .cycle_source(CycleSource::Simulate)
            .run();
        assert_eq!(model.evaluated.len(), sim.evaluated.len());
        assert_eq!(model.pareto, sim.pareto);
        for (m, s) in model.evaluated.iter().zip(&sim.evaluated) {
            assert_eq!(m.cycles, s.cycles);
            assert_eq!(m.workload_cycles, s.workload_cycles);
            assert_eq!(
                m.objectives.values().to_vec(),
                s.objectives.values().to_vec()
            );
        }
        assert_eq!(
            model.select_equal_weights().architecture.name,
            sim.select_equal_weights().architecture.name
        );
    }

    #[test]
    fn cycle_source_separates_cache_addresses() {
        use crate::cache::SweepCache;
        let db = ComponentDb::new();
        let w = suite::crypt(1);
        let cache = SweepCache::in_memory();
        let model = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .cache(&cache)
            .run();
        let after_model = cache.len();
        assert!(after_model > 0);
        // A simulated sweep must not answer from (or collide with) the
        // model sweep's entries: same results, disjoint addresses.
        let sim = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .cache(&cache)
            .cycle_source(CycleSource::Simulate)
            .run();
        // Eval addresses must be disjoint: the simulated sweep cannot
        // answer from the model sweep's entries, so it stores one fresh
        // eval entry per point. (Test-lift entries *are* shared — the
        // test axis does not depend on the cycle source.)
        let after_sim = cache.len();
        assert_eq!(
            after_sim,
            after_model + sim.evaluated.len() + sim.infeasible,
            "one fresh eval entry per simulated point"
        );
        assert_eq!(model.pareto, sim.pareto);
        // Warm re-runs of each source stay bit-identical to cold ones.
        let model2 = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(&db)
            .cache(&cache)
            .run();
        assert_eq!(cache.len(), after_sim, "warm model run added entries");
        assert_eq!(model.pareto, model2.pareto);
        assert_eq!(model.evaluated.len(), model2.evaluated.len());
    }

    #[test]
    fn pre_cancelled_run_evaluates_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let result = Exploration::over(TemplateSpace::fast_default())
            .workload(&suite::crypt(1))
            .cancel_token(token)
            .run();
        assert!(result.cancelled);
        assert_eq!(result.search.evaluations, 0);
        assert!(result.evaluated.is_empty());
    }

    #[test]
    fn cancellation_stops_within_one_chunk_of_the_request() {
        // Regression (PR 9): the batch loop used to have no cancellation
        // check between chunks — cancelling a huge-space job only took
        // effect after the entire in-flight batch. Cancel from the first
        // progress callback; the run must stop before a second chunk,
        // on the inline path and on the worker pool alike.
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let mut stops = Vec::new();
        for threads in [1, 2] {
            let token = CancelToken::new();
            let cancel = token.clone();
            let result = Exploration::over(TemplateSpace::huge())
                .workload(&w)
                .with_db(&db)
                .strategy(crate::search::Exhaustive::neighbour())
                .threads(threads)
                .cancel_token(token)
                .progress(move |_| cancel.cancel())
                .run();
            assert!(result.cancelled);
            assert!(result.search.evaluations >= 1);
            assert!(
                result.search.evaluations <= CACHE_FLUSH_CHUNK,
                "cancelled after the first chunk must stop before the second \
                 ({threads} threads): {}",
                result.search.evaluations
            );
            let names: Vec<String> = result
                .evaluated
                .iter()
                .map(|e| e.architecture.name.clone())
                .collect();
            stops.push((result.search.evaluations, result.infeasible, names));
        }
        assert_eq!(stops[0], stops[1], "the pool stops at the serial boundary");
    }

    #[test]
    fn progress_streams_every_chunk_without_changing_results() {
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let spec = |threads| {
            Exploration::over(TemplateSpace::huge())
                .workload(&w)
                .with_db(&db)
                .strategy(crate::search::Exhaustive::neighbour())
                .budget(160)
                .threads(threads)
        };
        let plain = spec(1).run();
        let mut streams = Vec::new();
        for threads in [1, 2] {
            let snaps: Arc<std::sync::Mutex<Vec<SweepProgress>>> = Arc::default();
            let sink = Arc::clone(&snaps);
            let observed = spec(threads)
                .progress(move |p| sink.lock().unwrap().push(p.clone()))
                .run();
            let snaps = snaps.lock().unwrap().clone();
            // One snapshot per chunk, monotone, ending at the final tally.
            assert_eq!(snaps.len(), 160usize.div_ceil(CACHE_FLUSH_CHUNK));
            assert!(snaps.windows(2).all(|w| w[0].visited < w[1].visited));
            let last = snaps.last().unwrap();
            assert_eq!(last.visited, observed.search.evaluations);
            assert_eq!(last.feasible, observed.evaluated.len());
            assert_eq!(last.infeasible, observed.infeasible);
            assert_eq!(last.space_len, TemplateSpace::huge().len());
            // Observability only: the observer changes no result bit.
            assert_eq!(observed.pareto, plain.pareto);
            assert_eq!(observed.evaluated.len(), plain.evaluated.len());
            for (a, b) in observed.evaluated.iter().zip(&plain.evaluated) {
                assert_eq!(a.objectives, b.objectives);
            }
            streams.push(snaps);
        }
        assert_eq!(streams[0], streams[1], "the pool streams the serial events");
    }

    #[test]
    fn cancelled_pool_run_journals_exactly_the_serial_chunks() {
        use crate::cache::SweepCache;
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        // (journal at the first progress event, flushed v3 file) per
        // thread count. The budget leaves the pool's second worker
        // chunks to run ahead of the merge; none of them may reach the
        // journal.
        let runs: Vec<(Vec<u8>, Vec<u8>)> = [1, 2]
            .into_iter()
            .map(|threads| {
                let dir = std::env::temp_dir().join(format!(
                    "ttadse-explore-pool-journal-{threads}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let cache = SweepCache::open(&dir).expect("cache dir");
                let journal = cache.journal_path().to_path_buf();
                let seen: Arc<std::sync::Mutex<Option<Vec<u8>>>> = Arc::default();
                let sink = Arc::clone(&seen);
                let token = CancelToken::new();
                let cancel = token.clone();
                let result = Exploration::over(TemplateSpace::huge())
                    .workload(&w)
                    .with_db(&db)
                    .strategy(crate::search::Exhaustive::neighbour())
                    .budget(8 * CACHE_FLUSH_CHUNK)
                    .cache(&cache)
                    .threads(threads)
                    .cancel_token(token)
                    .progress(move |_| {
                        let mut seen = sink.lock().unwrap();
                        if seen.is_none() {
                            *seen = Some(std::fs::read(&journal).expect("journal"));
                        }
                        cancel.cancel();
                    })
                    .run();
                assert!(result.cancelled);
                assert_eq!(result.search.evaluations, CACHE_FLUSH_CHUNK);
                assert_eq!(result.cache_status, CacheStatus::Flushed);
                assert!(!cache.journal_path().exists(), "the flush compacts");
                let file = std::fs::read(cache.path()).expect("v3 file");
                let _ = std::fs::remove_dir_all(&dir);
                let journal = seen.lock().unwrap().take().expect("a progress event");
                (journal, file)
            })
            .collect();
        assert!(!runs[0].0.is_empty());
        assert_eq!(runs[0].0, runs[1].0, "journal after the first chunk");
        assert_eq!(runs[0].1, runs[1].1, "flushed v3 file");
    }

    #[test]
    fn resumed_run_matches_uninterrupted_bit_for_bit() {
        use crate::cache::SweepCache;
        use crate::search::{HillClimb, RandomSample};
        // Resume is a re-run over the same cache: the chunks a cancelled
        // run merged answer as hits, and every strategy — the seeded
        // ones included — retraces the uninterrupted trajectory.
        let w = suite::crypt(1);
        let db = ComponentDb::new();
        let spec = |strategy: usize| {
            let e = Exploration::over(TemplateSpace::huge())
                .workload(&w)
                .with_db(&db)
                .budget(160)
                .seed(7);
            match strategy {
                0 => e.strategy(Exhaustive),
                1 => e.strategy(Exhaustive::neighbour()),
                2 => e.strategy(RandomSample),
                _ => e.strategy(HillClimb::default()),
            }
        };
        let points = |r: &ExploreResult| -> Vec<(String, ObjectiveVector)> {
            let named = r.evaluated.iter().map(|e| e.architecture.name.clone());
            named
                .zip(r.evaluated.iter().map(|e| e.objectives.clone()))
                .collect()
        };
        for strategy in 0..4 {
            let full = spec(strategy).run();
            assert_eq!(full.search.evaluations, 160);
            // Interrupt a caching run after its first chunk…
            let token = CancelToken::new();
            let cancel = token.clone();
            let cache = SweepCache::in_memory();
            let partial = spec(strategy)
                .cache(&cache)
                .cancel_token(token)
                .progress(move |_| cancel.cancel())
                .run();
            assert!(partial.cancelled);
            assert!(partial.search.evaluations > 0 && partial.search.evaluations < 160);
            // …and run it again over the same cache: the merged prefix
            // answers from the cache, and the result is bit-identical to
            // the uninterrupted run.
            let hits_before = cache.hits();
            let resumed = spec(strategy).cache(&cache).run();
            let name = &full.search.strategy;
            assert!(cache.hits() - hits_before >= partial.search.evaluations as u64);
            assert!(!resumed.cancelled, "{name}");
            assert_eq!(points(&resumed), points(&full), "{name}");
            assert_eq!(resumed.infeasible, full.infeasible, "{name}");
            assert_eq!(resumed.pareto, full.pareto, "{name}");
            assert_eq!(resumed.search, full.search, "{name}");
        }
    }

    #[test]
    fn objective_vector_is_typed_and_total() {
        let mut v = ObjectiveVector::new([(Objective::Area, 10.0)]);
        v.push(Objective::ExecTime, 20.0);
        assert_eq!(v.get(Objective::Area), Some(10.0));
        assert_eq!(v.get(Objective::TestCost), None);
        assert_eq!(v.values(), &[10.0, 20.0]);
        assert_eq!(v.project(&[Objective::ExecTime]).unwrap().values(), &[20.0]);
        assert!(v.project(&[Objective::Area, Objective::TestCost]).is_none());
    }

    #[test]
    fn netlist_fidelity_sweeps_and_differs_from_table() {
        let w = suite::crypt(1);
        let table = Exploration::over(TemplateSpace::tiny()).workload(&w).run();
        let netlist = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .fidelity(FidelityMode::Netlist)
            .run();
        assert_eq!(table.fidelity, FidelityMode::Table);
        assert_eq!(netlist.fidelity, FidelityMode::Netlist);
        // Same points are feasible under both fidelities; the exec-time
        // axis still carries the clock scale, the area axis the gate
        // count — both finite and positive.
        assert_eq!(table.evaluated.len(), netlist.evaluated.len());
        let mut area_differs = false;
        for (t, n) in table.evaluated.iter().zip(&netlist.evaluated) {
            assert_eq!(t.architecture.name, n.architecture.name);
            assert_eq!(t.cycles, n.cycles, "fidelity must not touch scheduling");
            let area = n.objectives.get(Objective::Area).unwrap();
            let exec = n.objectives.get(Objective::ExecTime).unwrap();
            assert!(area.is_finite() && area > 0.0, "{area}");
            assert!(exec.is_finite() && exec > 0.0, "{exec}");
            if area != t.objectives.get(Objective::Area).unwrap() {
                area_differs = true;
            }
        }
        assert!(
            area_differs,
            "elaborated area should not coincide with the table figures"
        );
        assert!(!netlist.pareto.is_empty());
        assert!(netlist.projection_holds());
    }

    #[test]
    fn netlist_fidelity_parallel_is_bit_identical_to_serial() {
        let w = suite::crypt(1);
        let serial = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .fidelity(FidelityMode::Netlist)
            .run();
        let parallel = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .fidelity(FidelityMode::Netlist)
            .threads(2)
            .run();
        assert_eq!(serial.evaluated.len(), parallel.evaluated.len());
        for (a, b) in serial.evaluated.iter().zip(&parallel.evaluated) {
            assert_eq!(a.architecture.name, b.architecture.name);
            assert_eq!(a.objectives, b.objectives);
        }
        assert_eq!(serial.pareto, parallel.pareto);
    }

    #[test]
    fn netlist_fidelity_respects_custom_models() {
        // An installed custom model wins over the fidelity knob: the
        // knob only fills *empty* slots.
        #[derive(Debug)]
        struct FlatArea;
        impl AreaModel for FlatArea {
            fn area(&self, _arch: &Architecture, _db: &ComponentDb) -> f64 {
                42.0
            }
        }
        let w = suite::crypt(1);
        let result = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .area_model(FlatArea)
            .fidelity(FidelityMode::Netlist)
            .run();
        for e in &result.evaluated {
            assert_eq!(e.objectives.get(Objective::Area), Some(42.0));
        }
    }

    #[test]
    fn netlist_fidelity_walk_matches_enumeration_order() {
        // The incremental elaborator reuses netlist segments along the
        // Gray-code neighbour walk; results must not depend on visit
        // order.
        let w = suite::crypt(1);
        let walked = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .fidelity(FidelityMode::Netlist)
            .strategy(crate::search::Exhaustive::neighbour())
            .run();
        let plain = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .fidelity(FidelityMode::Netlist)
            .run();
        let mut walked: Vec<_> = walked
            .evaluated
            .iter()
            .map(|e| (e.architecture.name.clone(), e.objectives.clone()))
            .collect();
        let mut plain: Vec<_> = plain
            .evaluated
            .iter()
            .map(|e| (e.architecture.name.clone(), e.objectives.clone()))
            .collect();
        walked.sort_by(|a, b| a.0.cmp(&b.0));
        plain.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(walked, plain);
    }
}
