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
//! Each harness is a pure function of what it reads: the sweeping
//! figures ([`fig2`], [`fig8`], [`fig8_full`], [`fig9`] and [`table1`])
//! take the [`ExploreResult`] of the paper's crypt exploration, which
//! the CLI resolves and runs through `tta_serve::exec` like any other
//! job (at the paper's 16-bit scale by default, at the reduced 8-bit
//! one with `--fast`); Table 1 and Figure 6 also read the component
//! database, and the cross-suite comparison reads one result per suite
//! ([`SuiteComparisonRow::of`]). Absolute numbers differ from the paper
//! (different cell library, netlists and ATPG); the tests assert the
//! paper's relations instead — Pareto shapes, projection properties,
//! the port-sharing inequality and the full-scan vs functional totals.

#![warn(missing_docs)]

use std::fmt;

use tta_arch::vliw::VliwTemplate;
use tta_arch::{Architecture, BusId, FuInstance, FuKind};
use tta_core::backannotate::{parts, ComponentDb, ComponentKey, Unit};
use tta_core::explore::{EvaluatedArch, ExploreResult};
use tta_core::fullscan::FullScanDb;
use tta_core::report::TextTable;
use tta_core::testcost::{architecture_test_cost, ftfu_ratio};
use tta_core::{Norm, Weights};
use tta_workloads::suite::{WeightedWorkload, Workload};

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

/// Regenerates Figure 2 from the crypt exploration.
pub fn fig2(result: &ExploreResult) -> Fig2 {
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

/// Regenerates Figure 6 for a `width`-bit ALU.
pub fn fig6(db: &ComponentDb, width: u16) -> Fig6 {
    let np = db.get(ComponentKey::Alu(width)).np;
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

/// Regenerates Figure 8 from the crypt exploration.
pub fn fig8(result: &ExploreResult) -> Fig8 {
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

/// Figure 8, co-explored: the true 3-D front of a full-lift sweep
/// against the paper's Pareto-only lift — quantifying what the post-hoc
/// lift misses.
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

/// Regenerates the Figure 8 comparison from a [`LiftMode::Full`] crypt
/// exploration.
///
/// [`LiftMode::Full`]: tta_core::explore::LiftMode::Full
pub fn fig8_full(result: &ExploreResult) -> Fig8Full {
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

/// Regenerates Figure 9 (plus a selection-sensitivity appendix) from
/// the crypt exploration.
pub fn fig9(result: &ExploreResult) -> Fig9 {
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

/// Regenerates Table 1 for the crypt exploration's Figure 9 selection,
/// costed over `db` (the sweep's own database reuses its records).
pub fn table1(result: &ExploreResult, db: &ComponentDb) -> Table1 {
    table1_for(db, result.select_equal_weights().architecture.clone())
}

/// Table 1 for an explicit architecture.
pub fn table1_for(db: &ComponentDb, arch: Architecture) -> Table1 {
    let mut fullscan = FullScanDb::new();
    let cost = architecture_test_cost(&arch, db);
    // The eq. (14) rows follow the same walk, one row per part.
    let parts = parts(&arch).expect("Table 1 machines are in the component model's domain");
    let rows = parts
        .zip(&cost.components)
        .map(|(part, c)| {
            let is_rf = matches!(part.unit(), Unit::Rf(_));
            Table1Row {
                component: c.name.clone(),
                full_scan: fullscan.get(&part).cycles,
                ours: c.our_approach_cycles(),
                nl: c.nl,
                ftfu: (!is_rf).then_some(c.functional_cost),
                ftrf: is_rf.then_some(c.functional_cost),
                fts: c.fts,
                coverage: c.fault_coverage * 100.0,
                excluded: c.excluded,
            }
        })
        .collect();
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
fn simulated_delta(arch: &Architecture, w: &Workload) -> Option<i64> {
    let schedule = tta_movec::schedule::Scheduler::new(arch).run(&w.dfg).ok()?;
    let trace = tta_sim::run_lowered(arch, &w.dfg, &schedule, &w.inputs, &w.mem).ok()?;
    let executed = i64::try_from(trace.cycles).ok()?;
    Some(executed - i64::from(schedule.cycles))
}

impl SuiteComparisonRow {
    /// The row of `suite`, whose `members` the sweep `result` explored.
    pub fn of(suite: &str, members: &[WeightedWorkload], result: &ExploreResult) -> Self {
        let selected = result.try_select_equal_weights().cloned();
        let cycle_deltas = members
            .iter()
            .map(|m| {
                selected
                    .as_ref()
                    .and_then(|s| simulated_delta(&s.architecture, &m.workload))
            })
            .collect();
        SuiteComparisonRow {
            suite: suite.to_string(),
            members: members
                .iter()
                .map(|m| (m.workload.name.clone(), m.weight))
                .collect(),
            feasible: result.evaluated.len(),
            infeasible: result.infeasible,
            blocked: result.blocked.clone(),
            selected,
            cycle_deltas,
        }
    }
}

/// How the Figure 9 weighted-norm selection moves across workload
/// suites — the `ttadse workloads compare` harness: one sweep of the
/// same template space per suite, one row each.
pub struct SuiteComparison {
    /// Template points per sweep.
    pub space_points: usize,
    /// One row per requested suite, in request order.
    pub rows: Vec<SuiteComparisonRow>,
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
    use tta_arch::template::TemplateSpace;
    use tta_core::explore::LiftMode;
    use tta_serve::exec::{prepare, PreparedJob};
    use tta_serve::spec::JobSpec;
    use tta_workloads::suite;

    /// Resolves `spec` at fast scale, as `ttadse <figure> --fast` does.
    fn fast_job(spec: JobSpec) -> PreparedJob {
        prepare(&JobSpec { fast: true, ..spec }).expect("a valid spec")
    }

    /// The fast-scale crypt exploration the figures read.
    fn crypt_sweep(lift: LiftMode, db: &ComponentDb) -> ExploreResult {
        let spec = JobSpec {
            workloads: vec!["crypt".into()],
            lift,
            ..JobSpec::default()
        };
        fast_job(spec).explore(db, None, None, None)
    }

    #[test]
    fn fast_fig2_has_front() {
        let fig = fig2(&crypt_sweep(LiftMode::ParetoOnly, &ComponentDb::new()));
        assert!(!fig.front.is_empty());
        assert!(fig.to_string().contains("Pareto"));
    }

    #[test]
    fn fast_fig6_shows_inequality() {
        let fig = fig6(&ComponentDb::new(), 8);
        assert!(fig.shared.1 > fig.dedicated.1, "ftf1 < ftf2 required");
        assert!(fig.ratio_form.1 > fig.ratio_form.0);
    }

    /// The `sim` rows of `BENCH_dse.json` time every `all`-suite kernel
    /// on the maximal fast-space point; their cycle counts are
    /// deterministic and must not drift from the committed ones.
    #[test]
    fn sim_kernels_execute_in_their_committed_cycle_counts() {
        use tta_movec::schedule::Scheduler;

        let space = TemplateSpace::fast_default();
        let arch = space.point(space.len() - 1);
        let members = suite::SuiteRegistry::standard()
            .instantiate("all", &suite::SuiteParams::fast())
            .unwrap();
        let cycles: Vec<(String, u64)> = members
            .into_iter()
            .map(|m| {
                let w = m.workload;
                let schedule = Scheduler::new(&arch).run(&w.dfg).unwrap();
                let run = tta_sim::run_lowered(&arch, &w.dfg, &schedule, &w.inputs, &w.mem);
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
        let fig = fig8(&crypt_sweep(LiftMode::ParetoOnly, &ComponentDb::new()));
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
        let full = fast_job(JobSpec {
            suite: Some("control".into()),
            lift: LiftMode::Full,
            ..JobSpec::default()
        })
        .explore(&ComponentDb::new(), None, None, None);
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
        let db = ComponentDb::new();
        let fig = fig8_full(&crypt_sweep(LiftMode::Full, &db));
        // This equation relies on the annotated models producing no
        // exact (area, time) ties on the fast space (a tied point can
        // be 3-D-dominated by its twin — see
        // `ExploreResult::design_front`); it is a property of this
        // fixed, deterministic data set.
        assert_eq!(fig.full_front, fig.design_front + fig.missed.len());
        assert_eq!(fig.projection_holds, fig.missed.is_empty());
        // The Pareto-only harness sees the same design front.
        let pareto_only = fig8(&crypt_sweep(LiftMode::ParetoOnly, &db));
        assert_eq!(pareto_only.points.len(), fig.design_front);
    }

    #[test]
    fn suite_comparison_moves_the_selection() {
        let db = ComponentDb::new();
        let rows = ["paper", "dsp"]
            .iter()
            .map(|&name| {
                let job = fast_job(JobSpec {
                    suite: Some(name.into()),
                    ..JobSpec::default()
                });
                SuiteComparisonRow::of(name, job.workloads(), &job.explore(&db, None, None, None))
            })
            .collect();
        let cmp = SuiteComparison {
            space_points: TemplateSpace::fast_default().len(),
            rows,
        };
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
        let err = match prepare(&JobSpec {
            fast: true,
            suite: Some("media".into()),
            ..JobSpec::default()
        }) {
            Err(message) => message,
            Ok(_) => panic!("unknown suite must be rejected"),
        };
        assert_eq!(
            err,
            "unknown suite \"media\" (expected paper, dsp, control, all)"
        );
    }

    #[test]
    fn fast_table1_favours_our_approach() {
        let db = ComponentDb::new();
        let table = table1(&crypt_sweep(LiftMode::ParetoOnly, &db), &db);
        let (fs, ours) = table.totals();
        assert!(fs > ours, "full scan {fs} must exceed ours {ours}");
        assert!(table.to_string().contains("fewer"));
    }
}
