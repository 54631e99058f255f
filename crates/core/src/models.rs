//! Pluggable cost models for the exploration pipeline.
//!
//! The paper evaluates every architecture on three axes — silicon area,
//! execution time and test cost — each of which mixes *back-annotated*
//! component numbers with an *analytical* interconnect model. This module
//! factors that split into traits so each axis can be swapped
//! independently (different cell library, a pessimistic wire model, a
//! full-scan test-cost baseline, …) while the default implementations
//! reproduce the paper's flow exactly:
//!
//! * [`AreaModel`] → [`AnnotatedAreaModel`]: netlist cell areas from the
//!   [`ComponentDb`] plus bus wiring and control-path area from the
//!   [`InterconnectModel`];
//! * [`TimingModel`] → [`AnnotatedTimingModel`]: slowest component
//!   critical path plus a per-bus wire penalty;
//! * [`TestCostModel`] → [`Eq14TestCostModel`]: the eqs. (11)–(14)
//!   functional test cost of [`crate::testcost`].
//!
//! The table-tier models, [`ScanTestCostModel`] and [`keys_of`] are folds
//! over one walk of an architecture's parts ([`parts`]: each FU and RF
//! with its component key, socket group and Table 1 exclusion flag), so
//! the component list, its domain check and the LD/ST–PC–IMM exclusion
//! live in one place. The two netlist-fidelity models price the same
//! interconnect terms ([`InterconnectModel::area`],
//! [`InterconnectModel::clock_period`]) on elaborated netlists instead.
//!
//! All model methods take a shared `&ComponentDb`, so one database serves
//! a whole (possibly parallel) sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tta_arch::{Architecture, InstructionFormat};
use tta_dft::testtime::multi_chain_scan_cycles;

use crate::backannotate::{parts, ComponentDb, ComponentKey};
use crate::cache::Fingerprint;
use crate::memo::OnceMap;
use crate::testcost::{
    architecture_test_cost, fold_test_cost, socket_state_bits, ArchTestCost, ComponentTestCost,
};

/// The analytical interconnect/control model: the constants the paper
/// folds into its area and delay numbers, made explicit and configurable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    /// Wiring/driver area charged per move bus, in NAND2 equivalents per
    /// data-path bit (buses are long wires with repeaters and per-socket
    /// drivers; a coarse but monotone model).
    pub bus_area_per_bit: f64,
    /// Clock-period penalty per additional bus (longer wires), in
    /// normalised gate delays.
    pub bus_delay_penalty: f64,
    /// Control-path area charged per instruction bit (instruction
    /// register + decode drivers), NAND2 equivalents. The paper's
    /// "control signals and bits … adjoined to the data-bus" made
    /// explicit.
    pub control_area_per_instr_bit: f64,
}

impl InterconnectModel {
    /// Content address of the constants, for the persistent sweep cache
    /// ([`crate::cache`]).
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::new()
            .str("interconnect")
            .f64(self.bus_area_per_bit)
            .f64(self.bus_delay_penalty)
            .f64(self.control_area_per_instr_bit)
            .finish()
    }

    /// The constants used throughout the paper's evaluation.
    pub fn paper() -> Self {
        InterconnectModel {
            bus_area_per_bit: 4.0,
            bus_delay_penalty: 0.2,
            control_area_per_instr_bit: 6.0,
        }
    }

    /// An idealised interconnect: buses and control are free. Useful to
    /// isolate the pure component contribution of an architecture.
    pub fn free() -> Self {
        InterconnectModel {
            bus_area_per_bit: 0.0,
            bus_delay_penalty: 0.0,
            control_area_per_instr_bit: 0.0,
        }
    }

    /// Area of `arch`: its components' `cell_area` plus the control path
    /// and the bus wiring.
    pub fn area(&self, arch: &Architecture, cell_area: f64) -> f64 {
        cell_area
            + f64::from(InstructionFormat::of(arch).width()) * self.control_area_per_instr_bit
            + arch.bus_count() as f64 * arch.width as f64 * self.bus_area_per_bit
    }

    /// Clock period of `arch`: its slowest component's `critical_path`
    /// plus the wire penalty of its buses.
    pub fn clock_period(&self, arch: &Architecture, critical_path: f64) -> f64 {
        critical_path + arch.bus_count() as f64 * self.bus_delay_penalty
    }
}

impl Default for InterconnectModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Area axis: NAND2 gate equivalents of one architecture.
pub trait AreaModel: Send + Sync {
    /// Total area of `arch`. Non-finite values mark the architecture as
    /// outside the model's domain; the sweep drops such points as
    /// infeasible.
    fn area(&self, arch: &Architecture, db: &ComponentDb) -> f64;

    /// Content address of the model's behaviour for the persistent
    /// sweep cache ([`crate::cache`]): two models with the same
    /// fingerprint must produce bit-identical results for every
    /// architecture. The default `None` opts the model out — a run with
    /// an unfingerprintable model never consults or populates the
    /// cache, which is always safe.
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Timing axis: clock period of one architecture in normalised gate
/// delays.
pub trait TimingModel: Send + Sync {
    /// Clock period of `arch`. Non-finite values mark the architecture
    /// as infeasible, as for [`AreaModel::area`].
    fn clock_period(&self, arch: &Architecture, db: &ComponentDb) -> f64;

    /// Cache fingerprint; same contract as [`AreaModel::fingerprint`].
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// Test axis: structural/functional test cost of one architecture.
pub trait TestCostModel: Send + Sync {
    /// Full per-component breakdown plus the comparative total.
    fn test_cost(&self, arch: &Architecture, db: &ComponentDb) -> ArchTestCost;

    /// Cache fingerprint; same contract as [`AreaModel::fingerprint`].
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// The default area model: back-annotated cell areas + socket groups +
/// bus wiring + control path.
#[derive(Debug, Clone, Default)]
pub struct AnnotatedAreaModel {
    /// The interconnect constants.
    pub interconnect: InterconnectModel,
}

impl AnnotatedAreaModel {
    /// Model with explicit interconnect constants.
    pub fn new(interconnect: InterconnectModel) -> Self {
        AnnotatedAreaModel { interconnect }
    }
}

impl AreaModel for AnnotatedAreaModel {
    fn fingerprint(&self) -> Option<u64> {
        Some(
            Fingerprint::new()
                .str("annotated-area")
                .u64(self.interconnect.fingerprint())
                .finish(),
        )
    }

    fn area(&self, arch: &Architecture, db: &ComponentDb) -> f64 {
        let Some(parts) = parts(arch) else {
            return f64::INFINITY;
        };
        let cell_area = db.fold(|records| {
            parts.clone().fold(0.0, |area, part| {
                area + records.get(part.key).area + records.get(part.socket).area
            })
        });
        self.interconnect.area(arch, cell_area)
    }
}

/// The default timing model: slowest back-annotated component critical
/// path plus a wiring penalty per bus.
#[derive(Debug, Clone, Default)]
pub struct AnnotatedTimingModel {
    /// The interconnect constants.
    pub interconnect: InterconnectModel,
}

impl AnnotatedTimingModel {
    /// Model with explicit interconnect constants.
    pub fn new(interconnect: InterconnectModel) -> Self {
        AnnotatedTimingModel { interconnect }
    }
}

impl TimingModel for AnnotatedTimingModel {
    fn fingerprint(&self) -> Option<u64> {
        Some(
            Fingerprint::new()
                .str("annotated-timing")
                .u64(self.interconnect.fingerprint())
                .finish(),
        )
    }

    fn clock_period(&self, arch: &Architecture, db: &ComponentDb) -> f64 {
        let Some(parts) = parts(arch) else {
            return f64::INFINITY;
        };
        let critical_path = db.fold(|records| {
            parts.clone().fold(0.0, |worst: f64, part| {
                worst.max(records.get(part.key).critical_path)
            })
        });
        self.interconnect.clock_period(arch, critical_path)
    }
}

/// The default test-cost model: the paper's eq. (14) total.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eq14TestCostModel;

impl TestCostModel for Eq14TestCostModel {
    fn fingerprint(&self) -> Option<u64> {
        Some(Fingerprint::new().str("eq14-test-cost").finish())
    }

    fn test_cost(&self, arch: &Architecture, db: &ComponentDb) -> ArchTestCost {
        architecture_test_cost(arch, db)
    }
}

/// A DfT-backed alternative test axis: every component (plus its
/// socket group) is tested through balanced scan chains instead of the
/// paper's functional transports.
///
/// Where [`Eq14TestCostModel`] prices patterns by their *transport
/// distance* over the move buses (eqs. 11–14), this model prices them
/// by *scan shifting*: the component's flip-flops and its socket state
/// are partitioned into [`ScanTestCostModel::chains`] balanced chains
/// (the partition of [`tta_dft::chains::ChainPlan`], whose lengths
/// [`ChainPlan::balanced_lengths`](tta_dft::chains::ChainPlan::balanced_lengths)
/// exposes without a netlist) and each pattern is shifted through the
/// longest one ([`multi_chain_scan_cycles`]). The trade-off surface it
/// induces differs from eq. (14)'s — scan cost is blind to the bus
/// count and port sharing that dominate the functional cost — which is
/// exactly what makes it useful as a second co-exploration axis
/// ([`crate::explore::LiftMode::Full`] + `ttadse explore --test-model
/// scan`).
///
/// LD/ST, PC and the Immediate unit stay excluded from the comparative
/// total, as in the paper's methodology, so the two models' totals
/// cover the same component set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanTestCostModel {
    /// Number of balanced scan chains per component (the paper's
    /// single-chain assumption is `chains = 1`, the default).
    pub chains: usize,
}

impl ScanTestCostModel {
    /// The single-chain model the paper's full-scan discussion assumes.
    pub fn new() -> Self {
        ScanTestCostModel { chains: 1 }
    }

    /// A model shifting through `chains` balanced chains per component
    /// (clamped to at least one).
    pub fn with_chains(chains: usize) -> Self {
        ScanTestCostModel {
            chains: chains.max(1),
        }
    }
}

impl Default for ScanTestCostModel {
    fn default() -> Self {
        Self::new()
    }
}

impl TestCostModel for ScanTestCostModel {
    fn fingerprint(&self) -> Option<u64> {
        Some(
            Fingerprint::new()
                .str("scan-test-cost")
                .u64(self.chains as u64)
                .finish(),
        )
    }

    fn test_cost(&self, arch: &Architecture, db: &ComponentDb) -> ArchTestCost {
        fold_test_cost(arch, db, |part, rec, sock| {
            let np = rec.np + sock.np;
            let ffs = rec.ff_total + socket_state_bits(part.input_ports);
            ComponentTestCost {
                name: part.name().to_owned(),
                np,
                // Patterns arrive through the chain, not the buses.
                cd: 0,
                functional_cost: multi_chain_scan_cycles(np, ffs, self.chains) as f64,
                socket_np: sock.np,
                // The longest balanced chain, as `multi_chain_scan_cycles`
                // prices it: no per-point `ChainPlan` is materialised.
                nl: ffs.div_ceil(self.chains),
                fts: 0.0,
                fault_coverage: rec.adjusted_coverage,
                excluded: part.excluded,
            }
        })
    }
}

/// Shared per-sweep elaboration engine behind the netlist-fidelity
/// models ([`NetlistAreaModel`] / [`NetlistTimingModel`]).
///
/// One evaluator serves both axes of one sweep: a point is elaborated to
/// a full gate-level netlist *once* (through
/// [`tta_netlist::IncrementalElaborator`], so Gray-walk neighbours reuse
/// the common component prefix) and its area / loaded-critical-path
/// figures — or its refusal — are memoized in a `OnceMap` keyed by the
/// architecture's structural fingerprint. The evaluator lives for one
/// run, like the schedule memo, so the memo is not capped: an entry is
/// about 100 B per distinct point, against the ~2.4 KB the run keeps
/// for each evaluated point anyway.
///
/// The evaluator is `Sync`: the first caller of a point elaborates it
/// with an elaborator checked out of a small free list, so parallel
/// workers elaborate distinct points at the same time, and a caller of
/// a point being elaborated waits for its figures. Results are
/// order-independent because incremental elaboration is bit-identical
/// to from-scratch elaboration.
pub struct NetlistEvaluator {
    figures: OnceMap<u64, Option<NetlistFigures>>,
    // Elaborators no call is using; one per concurrent caller at most.
    idle: Mutex<Vec<tta_netlist::IncrementalElaborator>>,
    lookups: AtomicU64,
    elaborations: AtomicU64,
}

/// Raw per-point figures extracted from one elaborated netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistFigures {
    /// Cell area of the elaborated netlist (gates + flip-flops), NAND2
    /// equivalents. Interconnect/control area is *not* included — the
    /// models add the same [`InterconnectModel`] terms as the table
    /// tier, so the two fidelities differ only in the component figures.
    pub cell_area: f64,
    /// Loaded critical path ([`tta_netlist::timing::min_clock_period`])
    /// of the elaborated netlist, normalised gate delays.
    pub critical_path: f64,
}

impl NetlistEvaluator {
    /// Creates an evaluator with an empty memo.
    pub fn new() -> Self {
        NetlistEvaluator {
            figures: OnceMap::default(),
            idle: Mutex::new(Vec::new()),
            lookups: AtomicU64::new(0),
            elaborations: AtomicU64::new(0),
        }
    }

    /// Per-point figures for `arch`, elaborating once per structurally
    /// distinct architecture. `None` when the architecture is invalid
    /// (the models map that to infeasibility).
    pub fn figures(&self, arch: &Architecture) -> Option<NetlistFigures> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.figures
            .get_or_init(crate::cache::arch_fingerprint(arch), || {
                self.elaborate(arch)
            })
    }

    fn elaborate(&self, arch: &Architecture) -> Option<NetlistFigures> {
        self.elaborations.fetch_add(1, Ordering::Relaxed);
        // An idle elaborator, or a fresh one when every one is busy.
        let mut elab = self
            .idle
            .lock()
            .expect("netlist evaluator poisoned")
            .pop()
            .unwrap_or_default();
        let figures = elab.advance(arch).ok().map(|nl| NetlistFigures {
            cell_area: nl.area(),
            critical_path: tta_netlist::timing::min_clock_period(&nl),
        });
        self.idle
            .lock()
            .expect("netlist evaluator poisoned")
            .push(elab);
        figures
    }

    /// `(elaborations, memo hits)` so far — observability for tests and
    /// benchmarks, never part of any result.
    pub fn counters(&self) -> (u64, u64) {
        let elaborations = self.elaborations.load(Ordering::Relaxed);
        let lookups = self.lookups.load(Ordering::Relaxed);
        (elaborations, lookups.saturating_sub(elaborations))
    }
}

impl Default for NetlistEvaluator {
    fn default() -> Self {
        Self::new()
    }
}

/// Netlist-fidelity area model: cell area of the per-point elaborated
/// netlist plus the same interconnect/control terms as
/// [`AnnotatedAreaModel`]. Installed by the sweep when
/// `FidelityMode::Netlist` is selected; usable standalone like any
/// other [`AreaModel`].
pub struct NetlistAreaModel {
    /// The interconnect constants (control + bus wiring terms).
    pub interconnect: InterconnectModel,
    eval: std::sync::Arc<NetlistEvaluator>,
}

impl NetlistAreaModel {
    /// Model sharing `eval` (pass the same evaluator to the timing
    /// model so each point elaborates once).
    pub fn new(interconnect: InterconnectModel, eval: std::sync::Arc<NetlistEvaluator>) -> Self {
        NetlistAreaModel { interconnect, eval }
    }
}

impl AreaModel for NetlistAreaModel {
    fn fingerprint(&self) -> Option<u64> {
        Some(
            Fingerprint::new()
                .str("netlist-area")
                .u64(self.interconnect.fingerprint())
                .finish(),
        )
    }

    fn area(&self, arch: &Architecture, _db: &ComponentDb) -> f64 {
        let Some(figures) = self.eval.figures(arch) else {
            return f64::INFINITY;
        };
        self.interconnect.area(arch, figures.cell_area)
    }
}

/// Netlist-fidelity timing model: fanout-loaded critical path of the
/// per-point elaborated netlist ([`tta_netlist::timing::sta`] tier)
/// plus the same per-bus wire penalty as [`AnnotatedTimingModel`].
pub struct NetlistTimingModel {
    /// The interconnect constants (bus delay term).
    pub interconnect: InterconnectModel,
    eval: std::sync::Arc<NetlistEvaluator>,
}

impl NetlistTimingModel {
    /// Model sharing `eval`; see [`NetlistAreaModel::new`].
    pub fn new(interconnect: InterconnectModel, eval: std::sync::Arc<NetlistEvaluator>) -> Self {
        NetlistTimingModel { interconnect, eval }
    }
}

impl TimingModel for NetlistTimingModel {
    fn fingerprint(&self) -> Option<u64> {
        Some(
            Fingerprint::new()
                .str("netlist-timing")
                .u64(self.interconnect.fingerprint())
                .finish(),
        )
    }

    fn clock_period(&self, arch: &Architecture, _db: &ComponentDb) -> f64 {
        let Some(figures) = self.eval.figures(arch) else {
            return f64::INFINITY;
        };
        self.interconnect.clock_period(arch, figures.critical_path)
    }
}

/// Every [`ComponentKey`] needed to evaluate `arch` (area, timing and
/// test cost) — each part's component, then its socket group — or `None`
/// when the architecture is outside the component model's domain (see
/// [`parts`]).
pub fn keys_of(arch: &Architecture) -> Option<Vec<ComponentKey>> {
    let parts = parts(arch)?;
    let mut keys = Vec::with_capacity(2 * (arch.fus().len() + arch.rfs().len()));
    parts.for_each(|part| keys.extend([part.key, part.socket]));
    Some(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tta_arch::template::TemplateBuilder;
    use tta_arch::FuKind;

    fn arch8_buses(buses: usize) -> Architecture {
        TemplateBuilder::new(format!("b{buses}"), 8, buses)
            .fu(FuKind::Alu)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .fu(FuKind::Immediate)
            .rf(8, 1, 2)
            .build()
    }

    fn arch8() -> Architecture {
        arch8_buses(2)
    }

    #[test]
    fn paper_interconnect_is_default() {
        assert_eq!(InterconnectModel::default(), InterconnectModel::paper());
    }

    #[test]
    fn interconnect_constants_shift_area_and_clock() {
        let db = ComponentDb::new();
        let arch = arch8();
        let paper_area = AnnotatedAreaModel::default().area(&arch, &db);
        let free_area = AnnotatedAreaModel::new(InterconnectModel::free()).area(&arch, &db);
        assert!(paper_area > free_area, "{paper_area} vs {free_area}");

        let paper_clk = AnnotatedTimingModel::default().clock_period(&arch, &db);
        let free_clk =
            AnnotatedTimingModel::new(InterconnectModel::free()).clock_period(&arch, &db);
        assert!(paper_clk > free_clk);
        // With free interconnect, the clock is exactly the slowest
        // component.
        let worst = parts(&arch)
            .unwrap()
            .map(|part| db.get(part.key).critical_path)
            .fold(0.0f64, f64::max);
        assert_eq!(free_clk, worst);
    }

    #[test]
    fn keys_of_covers_every_component() {
        let arch = arch8();
        let keys = keys_of(&arch).unwrap();
        let db = ComponentDb::new();
        db.warm(keys.iter().copied());
        // Evaluating through the models must hit only pre-warmed keys.
        let before = db.len();
        AnnotatedAreaModel::default().area(&arch, &db);
        AnnotatedTimingModel::default().clock_period(&arch, &db);
        Eq14TestCostModel.test_cost(&arch, &db);
        ScanTestCostModel::default().test_cost(&arch, &db);
        assert_eq!(db.len(), before, "models touched an unwarmed key");
    }

    #[test]
    fn scan_model_is_bus_blind_where_eq14_is_not() {
        let db = ComponentDb::new();
        let narrow = arch8_buses(1);
        let wide = arch8_buses(4);
        // eq. (14) prices transports: fewer buses cost more.
        let eq14 = Eq14TestCostModel;
        assert!(eq14.test_cost(&narrow, &db).total > eq14.test_cost(&wide, &db).total);
        // The scan model shifts through chains and never sees the buses
        // — that orthogonality is what makes it a distinct test axis.
        let scan = ScanTestCostModel::new();
        assert_eq!(
            scan.test_cost(&narrow, &db).total,
            scan.test_cost(&wide, &db).total
        );
        assert!(scan.test_cost(&wide, &db).total > 0.0);
    }

    #[test]
    fn more_scan_chains_cost_fewer_cycles() {
        let db = ComponentDb::new();
        let arch = arch8();
        let one = ScanTestCostModel::new().test_cost(&arch, &db).total;
        let four = ScanTestCostModel::with_chains(4)
            .test_cost(&arch, &db)
            .total;
        assert!(four < one, "{four} !< {one}");
        // The chain count is part of the cache identity.
        assert_ne!(
            ScanTestCostModel::new().fingerprint(),
            ScanTestCostModel::with_chains(4).fingerprint()
        );
        assert_ne!(
            ScanTestCostModel::new().fingerprint(),
            Eq14TestCostModel.fingerprint(),
            "the two test models must never share cache entries"
        );
        // Zero chains clamps instead of dividing by zero.
        assert_eq!(ScanTestCostModel::with_chains(0).chains, 1);
    }

    #[test]
    fn scan_model_excludes_the_same_singletons_as_eq14() {
        let db = ComponentDb::new();
        let arch = arch8();
        let cost = ScanTestCostModel::new().test_cost(&arch, &db);
        let excluded: Vec<&str> = cost
            .components
            .iter()
            .filter(|c| c.excluded)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(excluded.len(), 3, "LD/ST, PC, IMM: {excluded:?}");
        let included: f64 = cost
            .components
            .iter()
            .filter(|c| !c.excluded)
            .map(|c| c.our_approach_cycles())
            .sum();
        assert_eq!(cost.total, included);
    }

    #[test]
    fn scan_model_rejects_out_of_model_geometries() {
        let db = ComponentDb::new();
        let bad = TemplateBuilder::new("wide", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Pc)
            .rf(70_000, 1, 2)
            .build();
        let cost = ScanTestCostModel::new().test_cost(&bad, &db);
        assert!(cost.total.is_infinite());
        assert!(cost.components.is_empty());
    }

    #[test]
    fn out_of_model_rf_is_infinite_not_truncated() {
        // An RF with 70_000 registers overflows the u16 key field; the
        // old `as` cast silently aliased it to a tiny RF. Now the area
        // is infinite (→ infeasible) instead.
        let arch = TemplateBuilder::new("wide", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Pc)
            .rf(70_000, 1, 2)
            .build();
        assert!(keys_of(&arch).is_none());
        let db = ComponentDb::new();
        assert!(AnnotatedAreaModel::default().area(&arch, &db).is_infinite());
        assert!(AnnotatedTimingModel::default()
            .clock_period(&arch, &db)
            .is_infinite());
    }

    #[test]
    fn concurrent_netlist_callers_agree_with_one_serial_caller() {
        let space = tta_arch::template::TemplateSpace::fast_default();
        let archs: Vec<Architecture> = (0..space.len()).map(|i| space.point(i)).collect();
        let serial = NetlistEvaluator::new();
        let want: Vec<_> = archs.iter().map(|a| serial.figures(a)).collect();
        let shared = NetlistEvaluator::new();
        let start = std::sync::Barrier::new(2);
        let got: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (shared, start, archs) = (&shared, &start, &archs);
                    scope.spawn(move || {
                        start.wait();
                        // Interleaved points, so each elaborator keeps
                        // jumping between the two callers' walks.
                        archs
                            .iter()
                            .skip(t)
                            .step_by(2)
                            .map(|a| shared.figures(a))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("netlist caller"))
                .collect()
        });
        for (k, figures) in want.iter().enumerate() {
            assert_eq!(&got[k % 2][k / 2], figures, "point {k}");
        }
        assert!(shared.idle.lock().unwrap().len() <= 2, "one per caller");
        assert_eq!(shared.counters().0, archs.len() as u64);
    }

    #[test]
    fn netlist_models_share_one_elaboration_per_point() {
        let eval = std::sync::Arc::new(NetlistEvaluator::new());
        let area_m = NetlistAreaModel::new(InterconnectModel::paper(), Arc::clone(&eval));
        let clk_m = NetlistTimingModel::new(InterconnectModel::paper(), Arc::clone(&eval));
        let db = ComponentDb::new();
        let arch = arch8();
        let area = area_m.area(&arch, &db);
        let clk = clk_m.clock_period(&arch, &db);
        assert!(area.is_finite() && area > 0.0, "{area}");
        assert!(clk.is_finite() && clk > 0.0, "{clk}");
        // The second axis reused the first axis's elaboration.
        let (elaborations, hits) = eval.counters();
        assert_eq!(elaborations, 1);
        assert_eq!(hits, 1);
        // Re-querying the same point is a pure memo hit …
        assert_eq!(area_m.area(&arch, &db), area);
        assert_eq!(eval.counters().0, 1);
        // … keyed by structure, not by name.
        let mut renamed = arch.clone();
        renamed.name = "other".into();
        assert_eq!(area_m.area(&renamed, &db), area);
        assert_eq!(eval.counters().0, 1);
    }

    #[test]
    fn netlist_models_exceed_bare_cell_area_and_reject_bad_points() {
        let eval = std::sync::Arc::new(NetlistEvaluator::new());
        let arch = arch8();
        let figures = eval.figures(&arch).expect("arch8 elaborates");
        let db = ComponentDb::new();
        // Interconnect and control terms ride on top of the cell area.
        let area =
            NetlistAreaModel::new(InterconnectModel::paper(), Arc::clone(&eval)).area(&arch, &db);
        assert!(area > figures.cell_area, "{area} vs {}", figures.cell_area);
        let clk = NetlistTimingModel::new(InterconnectModel::paper(), Arc::clone(&eval))
            .clock_period(&arch, &db);
        assert!(clk > figures.critical_path);
        // A point the elaborator rejects is infeasible, not a panic.
        let bad = TemplateBuilder::new("wide", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Pc)
            .rf(70_000, 1, 2)
            .build();
        assert!(
            NetlistAreaModel::new(InterconnectModel::paper(), Arc::clone(&eval))
                .area(&bad, &db)
                .is_infinite()
        );
        assert!(NetlistTimingModel::new(InterconnectModel::paper(), eval)
            .clock_period(&bad, &db)
            .is_infinite());
    }

    #[test]
    fn netlist_model_fingerprints_are_distinct_from_table_models() {
        let eval = std::sync::Arc::new(NetlistEvaluator::new());
        let prints = [
            AnnotatedAreaModel::default().fingerprint(),
            AnnotatedTimingModel::default().fingerprint(),
            NetlistAreaModel::new(InterconnectModel::paper(), Arc::clone(&eval)).fingerprint(),
            NetlistTimingModel::new(InterconnectModel::paper(), eval).fingerprint(),
        ];
        for p in &prints {
            assert!(p.is_some(), "all four default models are cacheable");
        }
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "models {i} and {j} collide");
            }
        }
    }

    /// Every figure of one point's folds, as bits: area, clock, and
    /// both test models' totals and per-component cycle counts.
    fn fold_bits(arch: &Architecture, db: &ComponentDb) -> Vec<u64> {
        let mut bits = vec![
            AnnotatedAreaModel::default().area(arch, db).to_bits(),
            AnnotatedTimingModel::default()
                .clock_period(arch, db)
                .to_bits(),
        ];
        for cost in [
            Eq14TestCostModel.test_cost(arch, db),
            ScanTestCostModel::with_chains(2).test_cost(arch, db),
        ] {
            bits.push(cost.total.to_bits());
            bits.extend(
                cost.components
                    .iter()
                    .map(|c| c.our_approach_cycles().to_bits()),
            );
        }
        bits
    }

    #[test]
    fn folds_repeat_bit_for_bit_once_the_database_is_warm() {
        // First pass: every fold meets cold keys and re-runs after
        // annotating them. Second pass: every key is warm.
        let db = ComponentDb::new();
        let space = tta_arch::template::TemplateSpace::fast_default();
        let archs = space.enumerate();
        let cold: Vec<_> = archs.iter().map(|arch| fold_bits(arch, &db)).collect();
        let annotated = db.len();
        let warm: Vec<_> = archs.iter().map(|arch| fold_bits(arch, &db)).collect();
        assert_eq!(cold, warm);
        assert_eq!(db.len(), annotated, "the warm pass annotated nothing");
    }

    #[test]
    fn default_model_fingerprints_are_stable_and_distinct() {
        let prints = [
            AnnotatedAreaModel::default().fingerprint(),
            AnnotatedTimingModel::default().fingerprint(),
            Eq14TestCostModel.fingerprint(),
            ScanTestCostModel::new().fingerprint(),
            ScanTestCostModel::with_chains(2).fingerprint(),
        ];
        assert!(prints.iter().all(Option::is_some));
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "models {i} and {j} collide");
            }
        }
        // Equal constants, equal fingerprints: cache addresses do not
        // depend on which instance a sweep was given.
        assert_eq!(
            AnnotatedAreaModel::new(InterconnectModel::paper()).fingerprint(),
            prints[0]
        );
        assert_eq!(
            AnnotatedTimingModel::new(InterconnectModel::paper()).fingerprint(),
            prints[1]
        );
        assert_ne!(
            AnnotatedAreaModel::new(InterconnectModel::free()).fingerprint(),
            prints[0]
        );
    }

    #[test]
    fn widths_beyond_the_key_field_fold_to_infinity() {
        let db = ComponentDb::new();
        let wide = TemplateBuilder::new("w", 70_000, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Pc)
            .rf(8, 1, 2)
            .build();
        assert!(keys_of(&wide).is_none());
        assert!(AnnotatedAreaModel::default().area(&wide, &db).is_infinite());
        assert!(AnnotatedTimingModel::default()
            .clock_period(&wide, &db)
            .is_infinite());
        assert!(Eq14TestCostModel.test_cost(&wide, &db).total.is_infinite());
        assert!(ScanTestCostModel::new()
            .test_cost(&wide, &db)
            .total
            .is_infinite());
        assert!(db.is_empty(), "an out-of-domain point annotates nothing");
    }

    #[test]
    fn out_of_model_rf_ports_fold_to_infinity() {
        // 300 write ports overflow the u8 port field of both the RF key
        // and its socket-group key.
        let db = ComponentDb::new();
        let ported = TemplateBuilder::new("ports", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Pc)
            .rf(8, 300, 2)
            .build();
        assert!(keys_of(&ported).is_none());
        assert!(AnnotatedAreaModel::default()
            .area(&ported, &db)
            .is_infinite());
        assert!(AnnotatedTimingModel::default()
            .clock_period(&ported, &db)
            .is_infinite());
        assert!(Eq14TestCostModel
            .test_cost(&ported, &db)
            .total
            .is_infinite());
        assert!(ScanTestCostModel::new()
            .test_cost(&ported, &db)
            .total
            .is_infinite());
        // The walk rejects the point before any fold reads a record, so
        // not even the in-domain FUs ahead of the RF are annotated.
        assert!(db.is_empty(), "an out-of-domain point annotates nothing");
    }
}
