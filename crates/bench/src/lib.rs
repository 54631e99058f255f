//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation. The `ttadse` CLI renders each one as a
//! subcommand.
//!
//! | Artefact | Function | CLI |
//! |---|---|---|
//! | Figure 2 (2-D Pareto, Crypt) | [`fig2`] | `ttadse fig2` |
//! | Figure 6 (port sharing cost) | [`fig6`] | `ttadse fig6` |
//! | Figure 7 (VLIW extension) | [`fig7`] | `ttadse fig7` |
//! | Figure 8 (3-D Pareto) | [`fig8`] | `ttadse fig8` |
//! | Figure 9 (norm selection) | [`fig9`] | `ttadse fig9` |
//! | Table 1 (full scan vs ours) | [`table1`] | `ttadse table1` |
//!
//! Each harness has two sizes: `Scale::Paper` (16-bit datapath, the full
//! 144-point space, 16 crypt rounds; the CLI default) and `Scale::Fast`
//! (8-bit reduced space for tests and CI smoke runs; `--fast`). Absolute
//! numbers differ from the paper (different cell library, netlists and
//! ATPG); the tests assert the paper's relations instead — Pareto
//! shapes, projection properties, the port-sharing inequality and the
//! full-scan vs functional totals.

#![warn(missing_docs)]

use std::fmt;

use tta_arch::template::TemplateSpace;
use tta_arch::vliw::VliwTemplate;
use tta_arch::{Architecture, BusId, FuInstance, FuKind};
use tta_core::backannotate::{ComponentDb, ComponentKey};
use tta_core::cache::SweepCache;
use tta_core::explore::{CacheStatus, EvaluatedArch, Exploration, ExploreResult, LiftMode};
use tta_core::fullscan::FullScanDb;
use tta_core::parallel::default_threads;
use tta_core::report::TextTable;
use tta_core::testcost::{architecture_test_cost, ftfu_ratio};
use tta_core::{Norm, Weights};
use tta_workloads::suite;

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration: 16-bit, full space, 16 crypt rounds.
    Paper,
    /// Reduced 8-bit configuration for tests / smoke benches.
    Fast,
}

impl Scale {
    /// Template space for this scale.
    pub fn space(self) -> TemplateSpace {
        match self {
            Scale::Paper => TemplateSpace::paper_default(),
            Scale::Fast => TemplateSpace::fast_default(),
        }
    }

    /// Crypt trace length (Feistel rounds per scheduled trace).
    pub fn crypt_rounds(self) -> usize {
        match self {
            Scale::Paper => 16,
            Scale::Fast => 1,
        }
    }

    /// Datapath width.
    pub fn width(self) -> u16 {
        match self {
            Scale::Paper => 16,
            Scale::Fast => 8,
        }
    }

    /// Workload sizing parameters for this scale.
    pub fn suite_params(self) -> suite::SuiteParams {
        match self {
            Scale::Paper => suite::SuiteParams::paper(),
            Scale::Fast => suite::SuiteParams::fast(),
        }
    }
}

/// Shared experiment context (annotation database + crypt workload +
/// result cache, optionally backed by a persistent [`SweepCache`]).
pub struct Experiments<'c> {
    /// The scale everything runs at.
    pub scale: Scale,
    db: ComponentDb,
    cache: Option<&'c SweepCache>,
    result: Option<ExploreResult>,
    full_result: Option<ExploreResult>,
}

impl Experiments<'static> {
    /// Creates a context at `scale` (no persistent cache).
    pub fn new(scale: Scale) -> Self {
        Experiments {
            scale,
            db: ComponentDb::new(),
            cache: None,
            result: None,
            full_result: None,
        }
    }
}

impl<'c> Experiments<'c> {
    /// Creates a context whose exploration consults (and populates) a
    /// persistent sweep cache — a warm cache skips the whole sweep and
    /// is bit-identical to a cold run.
    pub fn with_cache(scale: Scale, cache: &'c SweepCache) -> Self {
        Experiments {
            scale,
            db: ComponentDb::new(),
            cache: Some(cache),
            result: None,
            full_result: None,
        }
    }

    fn run_exploration(&self, lift: LiftMode) -> ExploreResult {
        let workload = suite::crypt(self.scale.crypt_rounds());
        let mut e = Exploration::over(self.scale.space())
            .workload(&workload)
            .with_db(&self.db)
            .lift(lift)
            .threads(default_threads());
        if let Some(cache) = self.cache {
            e = e.cache(cache);
        }
        e.run()
    }

    /// Runs (or returns the cached) crypt exploration — parallel, which
    /// is bit-identical to the serial sweep.
    pub fn exploration(&mut self) -> &ExploreResult {
        if self.result.is_none() {
            self.result = Some(self.run_exploration(LiftMode::ParetoOnly));
        }
        self.result.as_ref().expect("just populated")
    }

    /// Runs (or returns the cached) *full-lift* crypt exploration
    /// ([`LiftMode::Full`]): every feasible point carries the test
    /// axis and the front is the true 3-D one. Shares the annotation
    /// database — and, through the unchanged eval content addresses,
    /// the persistent cache's scheduling entries — with
    /// [`Experiments::exploration`].
    pub fn exploration_full(&mut self) -> &ExploreResult {
        if self.full_result.is_none() {
            self.full_result = Some(self.run_exploration(LiftMode::Full));
        }
        self.full_result.as_ref().expect("just populated")
    }

    /// The first cache-flush failure message from any exploration this
    /// context has run, if any — so harness callers (the CLI figure
    /// commands) can warn that results were computed but not
    /// persisted.
    pub fn flush_failure(&self) -> Option<&str> {
        [self.result.as_ref(), self.full_result.as_ref()]
            .into_iter()
            .flatten()
            .find_map(|r| match &r.cache_status {
                CacheStatus::FlushFailed(msg) => Some(msg.as_str()),
                _ => None,
            })
    }

    /// The shared back-annotation database.
    pub fn db(&self) -> &ComponentDb {
        &self.db
    }
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// Figure 2: the (area, execution-time) solution space of the Crypt
/// application, bounded by Pareto points.
pub struct Fig2 {
    /// Every feasible point `(area GE, exec time, on-front?)`.
    pub points: Vec<(f64, f64, bool)>,
    /// The Pareto front sorted by area.
    pub front: Vec<(f64, f64, String)>,
    /// Infeasible architectures skipped.
    pub infeasible: usize,
}

/// Regenerates Figure 2.
pub fn fig2(exp: &mut Experiments) -> Fig2 {
    let result = exp.exploration();
    let mut points = Vec::new();
    for (i, e) in result.evaluated.iter().enumerate() {
        points.push((e.area(), e.exec_time(), result.is_on_front(i)));
    }
    let mut front: Vec<(f64, f64, String)> = result
        .pareto_points()
        .iter()
        .map(|e| (e.area(), e.exec_time(), e.architecture.name.clone()))
        .collect();
    front.sort_by(|a, b| a.0.total_cmp(&b.0));
    Fig2 {
        points,
        front,
        infeasible: result.infeasible,
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2 — Crypt solution space: {} points ({} infeasible), {} Pareto",
            self.points.len(),
            self.infeasible,
            self.front.len()
        )?;
        let mut t = TextTable::new(["area [GE]", "exec time [norm]", "architecture"]);
        for (a, time, name) in &self.front {
            t.row([format!("{a:.0}"), format!("{time:.0}"), name.clone()]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

/// Figure 6: two *identical* FUs whose test costs differ because of their
/// port/bus connections.
pub struct Fig6 {
    /// np of the unit (same for both).
    pub np: usize,
    /// `CD` and `ftfu` with dedicated buses (FU1).
    pub dedicated: (u32, f64),
    /// `CD` and `ftfu` with operand+trigger on one bus (FU2).
    pub shared: (u32, f64),
    /// The explicit eq.-(11) ratio form for both.
    pub ratio_form: (f64, f64),
}

/// Regenerates Figure 6.
pub fn fig6(exp: &mut Experiments) -> Fig6 {
    let w = exp.scale.width();
    let np = exp.db().get(ComponentKey::Alu(w)).np;
    let fu1 = FuInstance {
        kind: FuKind::Alu,
        name: "fu1".into(),
        operand_bus: BusId(0),
        trigger_bus: BusId(1),
        result_bus: BusId(2),
    };
    let fu2 = FuInstance {
        kind: FuKind::Alu,
        name: "fu2".into(),
        operand_bus: BusId(0),
        trigger_bus: BusId(0), // the two ports connected to the same bus
        result_bus: BusId(1),
    };
    let cd1 = tta_arch::transport_cycles(&fu1);
    let cd2 = tta_arch::transport_cycles(&fu2);
    Fig6 {
        np,
        dedicated: (cd1, np as f64 * f64::from(cd1)),
        shared: (cd2, np as f64 * f64::from(cd2)),
        ratio_form: (ftfu_ratio(np, 3, 3, 3), ftfu_ratio(np, 3, 3, 2)),
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — identical FUs, different test cost (np = {})",
            self.np
        )?;
        let mut t = TextTable::new(["unit", "ports", "CD", "ftfu"]);
        t.row([
            "FU1".into(),
            "dedicated buses".to_string(),
            self.dedicated.0.to_string(),
            format!("{:.0}", self.dedicated.1),
        ]);
        t.row([
            "FU2".into(),
            "O,T share one bus".to_string(),
            self.shared.0.to_string(),
            format!("{:.0}", self.shared.1),
        ]);
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "eq. (11) ratio form: dedicated {:.0}, shared {:.0}  (ftf1 < ftf2: {})",
            self.ratio_form.0,
            self.ratio_form.1,
            self.shared.1 > self.dedicated.1
        )
    }
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// Figure 7: the bus-oriented VLIW ASIP extension — which components are
/// directly testable and the required test order.
pub struct Fig7 {
    /// Components directly on the bus.
    pub direct: Vec<String>,
    /// Valid test order (dependencies first).
    pub order: Vec<String>,
}

/// Regenerates Figure 7's analysis for a 3-execution-unit VLIW.
pub fn fig7() -> Fig7 {
    let template = VliwTemplate::figure7(3);
    let direct = template
        .directly_testable()
        .into_iter()
        .map(String::from)
        .collect();
    let order = template.test_order().expect("figure 7 template is acyclic");
    Fig7 { direct, order }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 7 — bus-oriented VLIW ASIP test access")?;
        writeln!(f, "directly testable: {}", self.direct.join(", "))?;
        writeln!(f, "required test order: {}", self.order.join(" -> "))
    }
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// Figure 8: the Pareto set lifted to (area, exec time, test cost).
pub struct Fig8 {
    /// The 3-D points with architecture names, sorted by area.
    pub points: Vec<(f64, f64, f64, String)>,
    /// Does the (area, time) projection reproduce Figure 2?
    pub projection_holds: bool,
    /// Spread of the test axis across the front (max/min).
    pub test_spread: f64,
}

/// Regenerates Figure 8.
pub fn fig8(exp: &mut Experiments) -> Fig8 {
    let result = exp.exploration();
    let mut points: Vec<(f64, f64, f64, String)> = result
        .pareto_points()
        .iter()
        .map(|e| {
            (
                e.area(),
                e.exec_time(),
                e.test_cost().expect("front points carry the test axis"),
                e.architecture.name.clone(),
            )
        })
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let projection_holds = result.projection_holds();
    let (lo, hi) = points.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), p| {
        (lo.min(p.2), hi.max(p.2))
    });
    Fig8 {
        points,
        projection_holds,
        test_spread: if lo > 0.0 { hi / lo } else { 1.0 },
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8 — 3-D Pareto points (projection holds: {}, test spread {:.2}x)",
            self.projection_holds, self.test_spread
        )?;
        let mut t = TextTable::new([
            "area [GE]",
            "exec time",
            "test cost [cycles]",
            "architecture",
        ]);
        for (a, time, tc, name) in &self.points {
            t.row([
                format!("{a:.0}"),
                format!("{time:.0}"),
                format!("{tc:.0}"),
                name.clone(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Figure 8, co-explored: the true 3-D front of a [`LiftMode::Full`]
/// sweep against the paper's Pareto-only lift — quantifying what the
/// post-hoc lift misses.
pub struct Fig8Full {
    /// Size of the 2-D design front (the points the paper lifts).
    pub design_front: usize,
    /// Size of the true 3-D front.
    pub full_front: usize,
    /// 3-D front points `(area, exec time, test cost, name)` absent
    /// from the design-only lift, sorted by area. Each is a genuine
    /// trade-off — dominated in (area, time), yet cheaper to test than
    /// every point that dominates it.
    pub missed: Vec<(f64, f64, f64, String)>,
    /// Whether the paper's projection assumption survived the full
    /// sweep (true exactly when nothing was missed).
    pub projection_holds: bool,
}

/// Regenerates the Figure 8 comparison under full 3-D co-exploration.
pub fn fig8_full(exp: &mut Experiments) -> Fig8Full {
    let result = exp.exploration_full();
    let design: std::collections::HashSet<usize> = result.design_front().into_iter().collect();
    let mut missed: Vec<(f64, f64, f64, String)> = result
        .pareto
        .iter()
        .filter(|i| !design.contains(i))
        .map(|&i| {
            let e = &result.evaluated[i];
            (
                e.area(),
                e.exec_time(),
                e.test_cost().expect("full-lift points carry the test axis"),
                e.architecture.name.clone(),
            )
        })
        .collect();
    missed.sort_by(|a, b| a.0.total_cmp(&b.0));
    Fig8Full {
        design_front: design.len(),
        full_front: result.pareto.len(),
        projection_holds: missed.is_empty(),
        missed,
    }
}

impl fmt::Display for Fig8Full {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8 (full lift) — true 3-D front: {} points; Pareto-only lift finds {} and misses {}",
            self.full_front,
            self.design_front,
            self.missed.len()
        )?;
        if self.missed.is_empty() {
            return write!(
                f,
                "the paper's projection assumption holds on this space: \
                 every 3-D Pareto point is already on the (area, time) front"
            );
        }
        let mut t = TextTable::new([
            "area [GE]",
            "exec time",
            "test cost [cycles]",
            "architecture",
        ]);
        for (a, time, tc, name) in &self.missed {
            t.row([
                format!("{a:.0}"),
                format!("{time:.0}"),
                format!("{tc:.0}"),
                name.clone(),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------

/// Figure 9: the architecture selected by the equal-weight Euclidean
/// norm.
pub struct Fig9 {
    /// The selected point.
    pub selected: EvaluatedArch,
    /// Sensitivity: selections under other norms/weights.
    pub alternatives: Vec<(String, String)>,
}

/// Regenerates Figure 9 (plus a selection-sensitivity appendix).
pub fn fig9(exp: &mut Experiments) -> Fig9 {
    let result = exp.exploration();
    let selected = result.select_equal_weights().clone();
    let mut alternatives = Vec::new();
    for (label, weights, norm) in [
        ("Manhattan, equal", Weights::equal(3), Norm::Manhattan),
        ("Chebyshev, equal", Weights::equal(3), Norm::Chebyshev),
        (
            "Euclid, test-heavy (w=1,1,4)",
            Weights(vec![1.0, 1.0, 4.0]),
            Norm::Euclidean,
        ),
        (
            "Euclid, area-heavy (w=4,1,1)",
            Weights(vec![4.0, 1.0, 1.0]),
            Norm::Euclidean,
        ),
    ] {
        let pick = result.select(&weights, norm);
        alternatives.push((label.to_string(), pick.architecture.name.clone()));
    }
    Fig9 {
        selected,
        alternatives,
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9 — selected architecture (equal-weight Euclid norm)"
        )?;
        writeln!(f, "{}", self.selected.architecture)?;
        writeln!(
            f,
            "area {:.0} GE, exec time {:.0}, test cost {:.0} cycles",
            self.selected.area(),
            self.selected.exec_time(),
            self.selected.test_cost().unwrap_or(f64::NAN)
        )?;
        writeln!(f, "selection sensitivity:")?;
        for (label, name) in &self.alternatives {
            writeln!(f, "  {label:<30} -> {name}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One Table 1 row.
pub struct Table1Row {
    /// Component name.
    pub component: String,
    /// Full-scan cycles (parenthesised in the paper for excluded units).
    pub full_scan: usize,
    /// Our approach cycles (`ftfu/ftrf + fts`).
    pub ours: f64,
    /// Socket scan-chain length.
    pub nl: usize,
    /// `ftfu` (functional units only).
    pub ftfu: Option<f64>,
    /// `ftrf` (register files only).
    pub ftrf: Option<f64>,
    /// `fts`.
    pub fts: f64,
    /// Fault coverage (%).
    pub coverage: f64,
    /// Excluded from the comparison (LD/ST, PC, IMM)?
    pub excluded: bool,
}

/// Table 1: full scan vs the proposed methodology, per component of the
/// selected architecture.
pub struct Table1 {
    /// The architecture the rows describe.
    pub architecture: Architecture,
    /// Per-component rows.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Σ full-scan vs Σ ours over the non-excluded rows.
    pub fn totals(&self) -> (f64, f64) {
        let fs: usize = self
            .rows
            .iter()
            .filter(|r| !r.excluded)
            .map(|r| r.full_scan)
            .sum();
        let ours: f64 = self
            .rows
            .iter()
            .filter(|r| !r.excluded)
            .map(|r| r.ours)
            .sum();
        (fs as f64, ours)
    }
}

/// Regenerates Table 1 for the Figure 9 selection (or, at fast scale, the
/// fast-space selection).
pub fn table1(exp: &mut Experiments) -> Table1 {
    let arch = {
        let result = exp.exploration();
        result.select_equal_weights().architecture.clone()
    };
    table1_for(exp, arch)
}

/// Table 1 for an explicit architecture.
pub fn table1_for(exp: &mut Experiments, arch: Architecture) -> Table1 {
    let w = u16::try_from(arch.width).expect("harness widths fit the component keys");
    let mut fullscan = FullScanDb::new();
    let cost = architecture_test_cost(&arch, exp.db());
    let mut rows = Vec::new();
    for (c, fu_or_rf) in cost.components.iter().zip(
        arch.fus()
            .iter()
            .map(|f| (Some(f.kind), None))
            .chain(arch.rfs().iter().map(|r| (None, Some(r)))),
    ) {
        let (key, n_inputs, is_rf) = match fu_or_rf {
            (Some(kind), None) => (ComponentKey::for_fu(kind, w), kind.input_ports(), false),
            (None, Some(rf)) => (
                ComponentKey::for_rf(rf, w).expect("harness RFs fit the component keys"),
                rf.nin(),
                true,
            ),
            _ => unreachable!("zip pairs components with their source"),
        };
        let fs = fullscan.get(key, n_inputs).clone();
        rows.push(Table1Row {
            component: c.name.clone(),
            full_scan: fs.cycles,
            ours: c.our_approach_cycles(),
            nl: c.nl,
            ftfu: (!is_rf).then_some(c.functional_cost),
            ftrf: is_rf.then_some(c.functional_cost),
            fts: c.fts,
            coverage: c.fault_coverage * 100.0,
            excluded: c.excluded,
        });
    }
    Table1 {
        architecture: arch,
        rows,
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 1 — full scan vs our methodology ({})",
            self.architecture.name
        )?;
        let mut t = TextTable::new([
            "Component",
            "full scan",
            "our approach",
            "nl",
            "ftfu",
            "ftrf",
            "fts",
            "FC (%)",
        ]);
        for r in &self.rows {
            let ours = if r.excluded {
                format!("({:.0})", r.ours)
            } else {
                format!("{:.0}", r.ours)
            };
            t.row([
                r.component.clone(),
                r.full_scan.to_string(),
                ours,
                r.nl.to_string(),
                r.ftfu.map_or("-".into(), |v| format!("{v:.0}")),
                r.ftrf.map_or("-".into(), |v| format!("{v:.0}")),
                format!("{:.0}", r.fts),
                format!("{:.2}", r.coverage),
            ]);
        }
        writeln!(f, "{t}")?;
        let (fs, ours) = self.totals();
        writeln!(
            f,
            "totals (compared components): full scan {fs:.0} cycles, ours {ours:.0} cycles ({:.1}x fewer)",
            fs / ours
        )
    }
}

// ---------------------------------------------------------------------
// Cross-suite comparison
// ---------------------------------------------------------------------

/// One row of [`SuiteComparison`]: a weighted suite and what the
/// equal-weight Euclidean norm selected for it.
pub struct SuiteComparisonRow {
    /// Suite name.
    pub suite: String,
    /// `(workload name, weight)` members, in aggregation order.
    pub members: Vec<(String, f64)>,
    /// Feasible points of the sweep.
    pub feasible: usize,
    /// Infeasible points of the sweep.
    pub infeasible: usize,
    /// The selected point, when any point was feasible.
    pub selected: Option<EvaluatedArch>,
    /// Points each member was the first to make infeasible, in
    /// [`SuiteComparisonRow::members`] order.
    pub blocked: Vec<usize>,
    /// Per-member simulated-minus-modeled trace-cycle delta on the
    /// selected architecture, in [`SuiteComparisonRow::members`] order;
    /// `None` when nothing was selected or the member does not schedule
    /// there. Zero by the simulator's acceptance property — a non-zero
    /// value flags scheduler/model drift.
    pub cycle_deltas: Vec<Option<i64>>,
}

/// Executes one scheduled trace of `w` on `arch` and returns simulated
/// minus scheduled cycles (`None` when the workload does not schedule
/// or lower there).
fn simulated_delta(arch: &Architecture, w: &suite::Workload) -> Option<i64> {
    let schedule = tta_movec::schedule::Scheduler::new(arch).run(&w.dfg).ok()?;
    let program = tta_sim::lower(arch, &w.dfg, &schedule, &w.inputs, &w.mem).ok()?;
    let options = tta_sim::SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    };
    let trace = tta_sim::Simulator::new(arch)
        .options(options)
        .run(&program)
        .ok()?;
    let executed = i64::try_from(trace.cycles).ok()?;
    Some(executed - i64::from(schedule.cycles))
}

/// How the Figure 9 weighted-norm selection moves across workload
/// suites — the `ttadse workloads compare` harness.
pub struct SuiteComparison {
    /// The scale every sweep ran at.
    pub scale: Scale,
    /// Template points per sweep.
    pub space_points: usize,
    /// One row per requested suite, in request order.
    pub rows: Vec<SuiteComparisonRow>,
    /// First cache-flush failure across the sweeps, if any — results
    /// are complete but were not persisted.
    pub flush_failure: Option<String>,
}

/// Sweeps the scale's template space once per named suite (sharing one
/// annotation database, and the persistent cache when given) and
/// reports each suite's weighted-norm selection side by side.
///
/// # Errors
///
/// Returns the offending name when `suites` contains a name the
/// standard [`suite::SuiteRegistry`] does not know.
pub fn compare_suites(
    scale: Scale,
    suites: &[String],
    cache: Option<&SweepCache>,
) -> Result<SuiteComparison, String> {
    let registry = suite::SuiteRegistry::standard();
    let params = scale.suite_params();
    let db = ComponentDb::new();
    let space = scale.space();
    let space_points = space.len();
    let mut rows = Vec::new();
    let mut flush_failure = None;
    for name in suites {
        let members = registry
            .instantiate(name, &params)
            .ok_or_else(|| name.clone())?;
        let mut e = Exploration::over(space.clone())
            .suite(&members)
            .with_db(&db)
            .threads(default_threads());
        if let Some(cache) = cache {
            e = e.cache(cache);
        }
        let result = e.run();
        if let CacheStatus::FlushFailed(msg) = &result.cache_status {
            flush_failure.get_or_insert_with(|| msg.clone());
        }
        let selected = result.try_select_equal_weights().cloned();
        let cycle_deltas = members
            .iter()
            .map(|m| {
                selected
                    .as_ref()
                    .and_then(|s| simulated_delta(&s.architecture, &m.workload))
            })
            .collect();
        rows.push(SuiteComparisonRow {
            suite: name.clone(),
            members: members
                .iter()
                .map(|m| (m.workload.name.clone(), m.weight))
                .collect(),
            feasible: result.evaluated.len(),
            infeasible: result.infeasible,
            blocked: result.blocked.clone(),
            selected,
            cycle_deltas,
        });
    }
    Ok(SuiteComparison {
        scale,
        space_points,
        rows,
        flush_failure,
    })
}

impl fmt::Display for SuiteComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cross-suite comparison — {} template points per sweep",
            self.space_points
        )?;
        let mut t = TextTable::new([
            "suite",
            "members",
            "selected",
            "area [GE]",
            "exec time",
            "test cost",
            "feasible",
            "sim-model Δcycles",
        ]);
        for r in &self.rows {
            let members = r
                .members
                .iter()
                .map(|(n, w)| format!("{n}:{w}"))
                .collect::<Vec<_>>()
                .join(" ");
            // Per-member executed-minus-modeled cycles on the selected
            // machine: all zeros while scheduler and simulator agree.
            let deltas = r
                .cycle_deltas
                .iter()
                .map(|d| d.map_or("-".into(), |v| v.to_string()))
                .collect::<Vec<_>>()
                .join(" ");
            match &r.selected {
                Some(e) => t.row([
                    r.suite.clone(),
                    members,
                    e.architecture.name.clone(),
                    format!("{:.0}", e.area()),
                    format!("{:.0}", e.exec_time()),
                    e.test_cost().map_or("-".into(), |c| format!("{c:.0}")),
                    format!("{}/{}", r.feasible, r.feasible + r.infeasible),
                    deltas,
                ]),
                None => t.row([
                    r.suite.clone(),
                    members,
                    "(no feasible point)".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("0/{}", r.infeasible),
                    deltas,
                ]),
            }
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_fig2_has_front() {
        let mut exp = Experiments::new(Scale::Fast);
        let fig = fig2(&mut exp);
        assert!(!fig.front.is_empty());
        assert!(fig.to_string().contains("Pareto"));
    }

    #[test]
    fn fast_fig6_shows_inequality() {
        let mut exp = Experiments::new(Scale::Fast);
        let fig = fig6(&mut exp);
        assert!(fig.shared.1 > fig.dedicated.1, "ftf1 < ftf2 required");
        assert!(fig.ratio_form.1 > fig.ratio_form.0);
    }

    /// The `sim` rows of `BENCH_dse.json` time every `all`-suite kernel
    /// on the maximal fast-space point; their cycle counts are
    /// deterministic and must not drift from the committed ones.
    #[test]
    fn sim_kernels_execute_in_their_committed_cycle_counts() {
        use tta_movec::schedule::Scheduler;
        use tta_sim::{lower, SimOptions, Simulator};

        let space = TemplateSpace::fast_default();
        let arch = space.point(space.len() - 1);
        let options = SimOptions {
            allow_register_overflow: true,
            ..Default::default()
        };
        let members = suite::SuiteRegistry::standard()
            .instantiate("all", &suite::SuiteParams::fast())
            .unwrap();
        let cycles: Vec<(String, u64)> = members
            .into_iter()
            .map(|m| {
                let w = m.workload;
                let schedule = Scheduler::new(&arch).run(&w.dfg).unwrap();
                let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).unwrap();
                let run = Simulator::new(&arch).options(options).run(&program);
                (w.name, run.unwrap().cycles)
            })
            .collect();
        let expected = [
            ("crypt[1r]", 461),
            ("fir16", 71),
            ("bitcount", 37),
            ("checksum32", 170),
            ("dct8", 682),
            ("gcd12", 386),
            ("fft[8p]", 284),
            ("viterbi[4s]", 260),
        ];
        let expected: Vec<(String, u64)> =
            expected.iter().map(|&(n, c)| (n.to_string(), c)).collect();
        assert_eq!(cycles, expected);
    }

    #[test]
    fn fig7_order_valid() {
        let fig = fig7();
        assert!(fig.order.len() >= 4);
        assert!(fig.to_string().contains("rf"));
    }

    #[test]
    fn fast_fig8_projection() {
        let mut exp = Experiments::new(Scale::Fast);
        let fig = fig8(&mut exp);
        assert!(fig.projection_holds);
        assert!(!fig.points.is_empty());
    }

    #[test]
    fn full_lift_surfaces_points_the_pareto_lift_misses() {
        use std::collections::HashSet;
        use tta_core::pareto::dominates;

        // The control suite on the fast space, under the paper's own
        // eq. (14) model: the true 3-D front holds points that are
        // dominated in (area, time) yet cheaper to test than every one
        // of their dominators — the Pareto-only lift never sees them.
        let registry = suite::SuiteRegistry::standard();
        let members = registry
            .instantiate("control", &suite::SuiteParams::fast())
            .expect("control is a standard suite");
        let db = ComponentDb::new();
        let full = Exploration::over(TemplateSpace::fast_default())
            .suite(&members)
            .with_db(&db)
            .lift(LiftMode::Full)
            .threads(default_threads())
            .run();
        let design: HashSet<usize> = full.design_front().into_iter().collect();
        // The 3-D front is a superset of the design front…
        for &i in &design {
            assert!(full.pareto.contains(&i), "design point {i} fell off");
        }
        // …and on this space a *strict* one: the co-exploration
        // demonstrably surfaces trade-offs the post-hoc lift misses.
        let missed: Vec<usize> = full
            .pareto
            .iter()
            .copied()
            .filter(|i| !design.contains(i))
            .collect();
        assert!(
            !missed.is_empty(),
            "expected the full lift to beat the Pareto-only lift here"
        );
        assert!(!full.projection_holds());
        // Each missed point is genuinely 2-D dominated but 3-D
        // non-dominated: every (area, time) dominator tests worse.
        for &m in &missed {
            let p = &full.evaluated[m];
            let p2 = [p.area(), p.exec_time()];
            let dominators: Vec<_> = full
                .evaluated
                .iter()
                .filter(|q| dominates(&[q.area(), q.exec_time()], &p2))
                .collect();
            assert!(!dominators.is_empty(), "missed point must be 2-D dominated");
            for q in dominators {
                assert!(
                    q.test_cost().unwrap() > p.test_cost().unwrap(),
                    "a dominator that also tests better would 3-D dominate"
                );
            }
        }
    }

    #[test]
    fn fig8_full_agrees_with_the_two_underlying_sweeps() {
        let mut exp = Experiments::new(Scale::Fast);
        let fig = fig8_full(&mut exp);
        // This equation relies on the annotated models producing no
        // exact (area, time) ties on the fast space (a tied point can
        // be 3-D-dominated by its twin — see
        // `ExploreResult::design_front`); it is a property of this
        // fixed, deterministic data set.
        assert_eq!(fig.full_front, fig.design_front + fig.missed.len());
        assert_eq!(fig.projection_holds, fig.missed.is_empty());
        // The Pareto-only harness sees the same design front.
        let pareto_only = fig8(&mut exp);
        assert_eq!(pareto_only.points.len(), fig.design_front);
    }

    #[test]
    fn suite_comparison_moves_the_selection() {
        let cmp = compare_suites(Scale::Fast, &["paper".into(), "dsp".into()], None)
            .expect("both suites are registered");
        assert_eq!(cmp.rows.len(), 2);
        let paper = cmp.rows[0].selected.as_ref().expect("crypt is feasible");
        let dsp = cmp.rows[1].selected.as_ref().expect("dsp has MUL points");
        assert_ne!(
            paper.architecture.name, dsp.architecture.name,
            "the DSP-weighted suite must select a different optimum"
        );
        assert!(
            dsp.architecture
                .fus
                .iter()
                .any(|f| f.name.starts_with("mul")),
            "the dsp selection pays for a multiplier"
        );
        // MUL-less points are infeasible for the dsp suite, and the
        // breakdown blames its first MUL-bound member.
        assert!(cmp.rows[1].infeasible > 0);
        assert_eq!(
            cmp.rows[1].blocked.iter().sum::<usize>(),
            cmp.rows[1].infeasible
        );
        assert!(cmp.to_string().contains("dsp"));
        // Every member executes on its suite's selected machine (a
        // selected point is feasible for the whole suite), and the
        // simulator reproduces the analytic model exactly.
        for row in &cmp.rows {
            assert_eq!(row.cycle_deltas.len(), row.members.len());
            for (delta, (member, _)) in row.cycle_deltas.iter().zip(&row.members) {
                assert_eq!(*delta, Some(0), "{}: {member} drifted", row.suite);
            }
        }
    }

    #[test]
    fn unknown_suite_is_reported_by_name() {
        let err = match compare_suites(Scale::Fast, &["media".into()], None) {
            Err(name) => name,
            Ok(_) => panic!("unknown suite must be rejected"),
        };
        assert_eq!(err, "media");
    }

    #[test]
    fn fast_table1_favours_our_approach() {
        let mut exp = Experiments::new(Scale::Fast);
        let table = table1(&mut exp);
        let (fs, ours) = table.totals();
        assert!(fs > ours, "full scan {fs} must exceed ours {ours}");
        assert!(table.to_string().contains("fewer"));
    }
}
