//! Component back-annotation: the paper's "components are already
//! predesigned up to the gate-level … the numbers of the test patterns
//! for each functional unit (and register file) is back-annotated with an
//! automatic test pattern generation (ATPG) tool. Not only the test
//! patterns, but also the information regarding the actual area and delay
//! of each component are used during the design space exploration."
//!
//! [`ComponentDb`] lazily generates each component netlist, runs ATPG
//! (march tests for register-file storage), and caches the record — so a
//! whole design-space sweep pays for each distinct component once. The
//! records live in the engine's compute-once memo (`OnceMap`), so a
//! shared `&ComponentDb` serves many sweep threads concurrently, and each
//! key is annotated exactly once however many threads ask for it at the
//! same time (see [`ComponentDb::warm`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tta_arch::{Architecture, FuInstance, FuKind, RfInstance};
use tta_atpg::{Atpg, AtpgConfig};
use tta_dft::march::MarchAlgorithm;
pub use tta_netlist::components::ComponentKey;
use tta_netlist::timing;

use crate::memo::{OnceMap, Ready};

/// The datapath unit a [`Part`] prices.
#[derive(Debug, Clone, Copy)]
pub enum Unit<'a> {
    /// A functional unit.
    Fu(&'a FuInstance),
    /// A register file.
    Rf(&'a RfInstance),
}

/// One part of an architecture as the cost models price it: a
/// functional unit or register file behind the socket group serving its
/// input ports (one row of the paper's Table 1). Only [`parts`] makes
/// one, so its keys always match its unit.
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    unit: Unit<'a>,
    /// The unit's component.
    pub key: ComponentKey,
    /// The socket group in front of the unit.
    pub socket: ComponentKey,
    /// Input ports the socket group serves.
    pub input_ports: usize,
    /// LD/ST, PC and the Immediate unit "always appear once for
    /// arbitrary architecture and application": the paper reports them
    /// but leaves them out of the comparative test-cost total.
    pub excluded: bool,
}

impl<'a> Part<'a> {
    fn fu(fu: &'a FuInstance, width: u16) -> Self {
        let input_ports = fu.kind.input_ports();
        Part {
            unit: Unit::Fu(fu),
            key: ComponentKey::for_fu(fu.kind, width),
            socket: ComponentKey::socket_group(width, input_ports)
                .expect("a functional unit has at most two inputs"),
            input_ports,
            excluded: matches!(fu.kind, FuKind::LdSt | FuKind::Pc | FuKind::Immediate),
        }
    }

    /// `None` when the geometry has no key (see
    /// [`ComponentKey::for_rf`]).
    fn rf(rf: &'a RfInstance, width: u16) -> Option<Self> {
        Some(Part {
            unit: Unit::Rf(rf),
            key: ComponentKey::for_rf(rf, width)?,
            socket: ComponentKey::socket_group(width, rf.nin())?,
            input_ports: rf.nin(),
            excluded: false,
        })
    }

    /// The unit itself.
    pub fn unit(&self) -> Unit<'a> {
        self.unit
    }

    /// The unit's instance name.
    pub fn name(&self) -> &'a str {
        match self.unit {
            Unit::Fu(fu) => &fu.name,
            Unit::Rf(rf) => &rf.name,
        }
    }
}

/// The parts of `arch` in datapath order — functional units, then
/// register files — or `None` when `arch` is outside the component
/// model's domain: its width or a register-file geometry overflows the
/// [`ComponentKey`] fields, the rule the netlist elaborator applies too.
/// Every table-tier cost model, [`keys_of`] and Table 1
/// read an architecture's components from this one walk; it does not
/// allocate.
///
/// [`keys_of`]: crate::models::keys_of
pub fn parts(arch: &Architecture) -> Option<Parts<'_>> {
    let width = u16::try_from(arch.width).ok()?;
    if arch.rfs().iter().any(|rf| Part::rf(rf, width).is_none()) {
        return None;
    }
    Some(Parts {
        fus: arch.fus().iter(),
        rfs: arch.rfs().iter(),
        width,
    })
}

/// The walk [`parts`] returns.
#[derive(Debug, Clone)]
pub struct Parts<'a> {
    fus: std::slice::Iter<'a, FuInstance>,
    rfs: std::slice::Iter<'a, RfInstance>,
    width: u16,
}

impl<'a> Iterator for Parts<'a> {
    type Item = Part<'a>;

    fn next(&mut self) -> Option<Part<'a>> {
        match self.fus.next() {
            Some(fu) => Some(Part::fu(fu, self.width)),
            // `parts` checked that every register file fits the keys.
            None => self.rfs.next().and_then(|rf| Part::rf(rf, self.width)),
        }
    }

    // Two plain loops, so a fold over the walk costs what hand-written
    // loops over the units cost: through `Iterator::chain` the area
    // fold ran ~1.5x slower.
    fn fold<B, F: FnMut(B, Part<'a>) -> B>(self, init: B, mut f: F) -> B {
        let width = self.width;
        let acc = self.fus.fold(init, |acc, fu| f(acc, Part::fu(fu, width)));
        self.rfs.filter_map(|rf| Part::rf(rf, width)).fold(acc, f)
    }
}

/// Everything the exploration needs to know about one component.
#[derive(Debug, Clone)]
pub struct ComponentRecord {
    /// Structural test-pattern count `np` (ATPG for logic, march
    /// operations for register-file storage).
    pub np: usize,
    /// Fault coverage achieved (detected / collapsed universe).
    pub fault_coverage: f64,
    /// Coverage of testable faults (proven-redundant excluded).
    pub adjusted_coverage: f64,
    /// Cell area in NAND2 gate equivalents.
    pub area: f64,
    /// Critical path in normalised gate delays.
    pub critical_path: f64,
    /// Total flip-flops.
    pub ff_total: usize,
    /// Transport-infrastructure flip-flops (pipeline registers etc.) —
    /// the component's share of the socket scan chain.
    pub ff_infrastructure: usize,
    /// Combinational gate count.
    pub gates: usize,
    /// Data connectors (`nconn` of eq. 11).
    pub nconn: usize,
}

/// Stand-in for a record a fold reads before it is annotated: the
/// fold's value is discarded and the fold runs again once the key is
/// annotated, so these numbers never reach a result.
static COLD: ComponentRecord = ComponentRecord {
    np: 0,
    fault_coverage: 0.0,
    adjusted_coverage: 0.0,
    area: 0.0,
    critical_path: 0.0,
    ff_total: 0,
    ff_infrastructure: 0,
    gates: 0,
    nconn: 0,
};

/// The annotated records as one fold sees them, under the database's
/// read lock (see [`ComponentDb::fold`]). Records are read by
/// reference; a key that is not annotated yet reads as a placeholder
/// and is noted, so the database can annotate it and fold again.
pub(crate) struct Records<'a> {
    ready: Ready<'a, ComponentKey, Arc<ComponentRecord>>,
    cold: RefCell<Vec<ComponentKey>>,
}

impl<'a> Records<'a> {
    /// The record for `key`.
    pub(crate) fn get(&self, key: ComponentKey) -> &'a ComponentRecord {
        match self.ready.get(&key) {
            Some(record) => record,
            None => {
                self.cold.borrow_mut().push(key);
                &COLD
            }
        }
    }
}

/// The lazy component database.
///
/// March-tested register files use [`MarchAlgorithm::march_cminus`] by
/// default; the algorithm is configurable for the eq.-(12) ablation.
///
/// The records are interior-mutable: [`ComponentDb::get`] takes `&self`,
/// so a single database can be shared (by reference) across sweep
/// threads. Each record is one cell of a `OnceMap`, so concurrent first
/// accesses never duplicate work: the first asker annotates a key and
/// every other asker waits for that record. An annotation that panics
/// leaves its cell empty, and the next asker annotates the key.
#[derive(Debug)]
pub struct ComponentDb {
    atpg: Atpg,
    march: MarchAlgorithm,
    records: OnceMap<ComponentKey, Arc<ComponentRecord>>,
    // Annotations started so far (one per key, barring a panic).
    annotations: AtomicUsize,
}

impl Default for ComponentDb {
    fn default() -> Self {
        Self::new()
    }
}

impl ComponentDb {
    /// Database with the sweep-profile ATPG settings
    /// ([`AtpgConfig::sweep`] — same test sets as the default profile on
    /// the paper's components, an order of magnitude faster to annotate)
    /// and March C−.
    pub fn new() -> Self {
        Self::with_engines(AtpgConfig::sweep(), MarchAlgorithm::march_cminus())
    }

    /// Database with explicit engines: the ATPG settings and the
    /// register-file march algorithm. [`ComponentDb::fingerprint`] tells
    /// engine sets apart, so a sweep cache never mixes their records.
    pub fn with_engines(atpg_config: AtpgConfig, march: MarchAlgorithm) -> Self {
        ComponentDb {
            atpg: Atpg::new(atpg_config),
            march,
            records: OnceMap::default(),
            annotations: AtomicUsize::new(0),
        }
    }

    /// The march algorithm used for register files.
    pub fn march(&self) -> &MarchAlgorithm {
        &self.march
    }

    /// Content address of the annotation *engines* (ATPG configuration +
    /// march algorithm) for the persistent sweep cache — a database with
    /// ablated engines produces different records, so cached results
    /// keyed on one engine set must not serve another. The cached
    /// records themselves are excluded: they are a pure function of the
    /// engines and the key.
    pub fn fingerprint(&self) -> u64 {
        crate::cache::Fingerprint::new()
            .str("component-db")
            .str(&format!("{:?}", self.atpg))
            .str(&format!("{:?}", self.march))
            .finish()
    }

    /// Fetches (computing and caching on first use) the record for `key`.
    pub fn get(&self, key: ComponentKey) -> Arc<ComponentRecord> {
        self.records.get_or_init(key, || self.annotate(key))
    }

    /// Runs `fold` over the annotated records under a single read lock:
    /// one lock acquisition per fold, and no record is cloned. When the
    /// fold read keys that are not annotated yet (a serial sweep
    /// annotates lazily), those keys are annotated outside the lock and
    /// the same fold runs again, so the value returned always comes from
    /// real records.
    pub(crate) fn fold<T>(&self, fold: impl Fn(&Records<'_>) -> T) -> T {
        loop {
            let pass = self.records.read(|ready| {
                let records = Records {
                    ready,
                    cold: RefCell::new(Vec::new()),
                };
                let value = fold(&records);
                let cold = records.cold.into_inner();
                if cold.is_empty() {
                    Ok(value)
                } else {
                    Err(cold)
                }
            });
            match pass {
                Ok(value) => return value,
                Err(cold) => self.warm(cold),
            }
        }
    }

    /// Whether `key` has already been annotated.
    pub fn contains(&self, key: ComponentKey) -> bool {
        self.records.read(|ready| ready.get(&key).is_some())
    }

    /// Annotates every key in `keys` that is not cached yet, and returns
    /// once all of them are. Each key is annotated exactly once across
    /// threads: a key whose cell another thread inserted is skipped, so
    /// this thread moves on to keys nobody has taken, and only at the end
    /// waits for the skipped ones (annotating one itself if its first
    /// annotation panicked).
    pub fn warm(&self, keys: impl IntoIterator<Item = ComponentKey>) {
        let mut skipped = Vec::new();
        for key in keys {
            match self.records.cell(key) {
                (cell, true) => {
                    cell.get_or_init(|| self.annotate(key));
                }
                (_, false) => skipped.push(key),
            }
        }
        for key in skipped {
            self.get(key);
        }
    }

    /// Annotations computed so far.
    #[cfg(test)]
    pub(crate) fn annotations(&self) -> usize {
        self.annotations.load(Ordering::Relaxed)
    }

    /// Number of distinct components annotated so far.
    pub fn len(&self) -> usize {
        self.records.read(|ready| ready.len())
    }

    /// Whether nothing has been annotated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Annotates `key`; the memo runs this outside its lock (annotation
    /// can take seconds, and other keys must stay readable meanwhile).
    fn annotate(&self, key: ComponentKey) -> Arc<ComponentRecord> {
        self.annotations.fetch_add(1, Ordering::Relaxed);
        let component = key.generate();
        let stats = timing::analyze(&component.netlist);
        // Register files: storage is march-tested (eq. 12); the port/pipe
        // logic is covered by the same marching transports. Everything
        // else: stuck-at ATPG on the full-scan (= functional-access) view.
        let (np, fc, afc) = match key {
            ComponentKey::Rf(_, regs, _, _) => {
                let np = self.march.pattern_count(regs as usize);
                // March coverage over the behavioural fault model is
                // complete for March C−/B (verified in tta-dft tests).
                (np, 1.0, 1.0)
            }
            _ => {
                let result = self.atpg.run(&component.netlist);
                (
                    result.pattern_count(),
                    result.fault_coverage(),
                    result.adjusted_coverage(),
                )
            }
        };
        Arc::new(ComponentRecord {
            np,
            fault_coverage: fc,
            adjusted_coverage: afc,
            area: component.area(),
            critical_path: stats.critical_path,
            ff_total: component.netlist.dff_count(),
            ff_infrastructure: component.infrastructure_ff_count(),
            gates: component.netlist.gate_count(),
            nconn: component.nconn(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::KeyHasher;
    use std::hash::BuildHasherDefault;

    #[test]
    fn records_are_cached() {
        let db = ComponentDb::new();
        let a = db.get(ComponentKey::Alu(4)).np;
        assert_eq!(db.len(), 1);
        let b = db.get(ComponentKey::Alu(4)).np;
        assert_eq!(a, b);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn rf_uses_march_counts() {
        let db = ComponentDb::new();
        let r8 = db.get(ComponentKey::Rf(8, 8, 1, 2)).np;
        let r12 = db.get(ComponentKey::Rf(8, 12, 1, 2)).np;
        assert_eq!(r8, 80); // March C-: 10n
        assert_eq!(r12, 120);
    }

    #[test]
    fn alu_patterns_beat_exhaustive() {
        let db = ComponentDb::new();
        let rec = db.get(ComponentKey::Alu(8)).clone();
        assert!(rec.np > 10 && rec.np < 500, "np = {}", rec.np);
        assert!(rec.adjusted_coverage > 0.99);
        assert!(rec.area > 0.0 && rec.critical_path > 0.0);
    }

    #[test]
    fn socket_group_is_small() {
        let db = ComponentDb::new();
        let rec = db.get(ComponentKey::SocketGroup(8, 2)).clone();
        assert!(rec.np < 64, "socket np = {}", rec.np);
        assert_eq!(rec.ff_total, 6);
    }

    /// The keys the fold tests read: cheap 4-bit logic and a small RF.
    const KEYS: [ComponentKey; 3] = [
        ComponentKey::Alu(4),
        ComponentKey::Pc(4),
        ComponentKey::Rf(4, 4, 1, 1),
    ];

    /// Sum of the areas of `KEYS`, counting how often the fold runs.
    fn area_of_keys(db: &ComponentDb, runs: &std::cell::Cell<usize>) -> f64 {
        db.fold(|records| {
            runs.set(runs.get() + 1);
            KEYS.iter().map(|&key| records.get(key).area).sum()
        })
    }

    #[test]
    fn fold_over_warm_records_runs_once_and_annotates_nothing() {
        let db = ComponentDb::new();
        db.warm(KEYS);
        let runs = std::cell::Cell::new(0);
        let area = area_of_keys(&db, &runs);
        assert_eq!(runs.get(), 1, "a warm fold needs no second pass");
        assert_eq!(db.len(), KEYS.len());
        let expected: f64 = KEYS.iter().map(|&key| db.get(key).area).sum();
        assert_eq!(area.to_bits(), expected.to_bits());
    }

    #[test]
    fn fold_annotates_cold_keys_and_runs_once_more() {
        let db = ComponentDb::new();
        let runs = std::cell::Cell::new(0);
        let area = area_of_keys(&db, &runs);
        // Every cold key is noted in the first pass and annotated before
        // the second — not one pass per key.
        assert_eq!(runs.get(), 2);
        assert!(KEYS.iter().all(|&key| db.contains(key)));
        let expected: f64 = KEYS.iter().map(|&key| db.get(key).area).sum();
        assert_eq!(area.to_bits(), expected.to_bits());
    }

    #[test]
    fn fold_value_never_comes_from_the_placeholder() {
        // A fold whose value is the placeholder's own figure (zero) on a
        // cold key must still return the annotated figure.
        let db = ComponentDb::new();
        let np = db.fold(|records| records.get(ComponentKey::Rf(4, 4, 1, 1)).np);
        assert_eq!(np, 40, "March C- on four registers is 10n");
        let path = db.fold(|records| records.get(ComponentKey::Alu(4)).critical_path);
        assert!(path > 0.0);
    }

    #[test]
    fn fold_annotates_only_the_keys_it_read() {
        let db = ComponentDb::new();
        db.warm([ComponentKey::Alu(4)]);
        // A fold that stops early never reads the later keys, so they
        // stay cold.
        let first = db.fold(|records| {
            KEYS.iter()
                .map(|&key| records.get(key))
                .find(|record| record.area > 0.0)
                .map(|record| record.area)
        });
        assert_eq!(first, Some(db.get(ComponentKey::Alu(4)).area));
        assert_eq!(db.len(), 1);
        assert!(!db.contains(ComponentKey::Pc(4)));
    }

    #[test]
    fn concurrent_cold_folds_converge_on_one_value() {
        let db = ComponentDb::new();
        let areas: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let runs = std::cell::Cell::new(0);
                        area_of_keys(&db, &runs).to_bits()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fold thread"))
                .collect()
        });
        assert_eq!(areas[0], areas[1]);
        assert_eq!(db.len(), KEYS.len());
        let runs = std::cell::Cell::new(0);
        assert_eq!(area_of_keys(&db, &runs).to_bits(), areas[0]);
        assert_eq!(runs.get(), 1);
    }

    /// A record's figures as exact bits, for identity comparisons.
    fn record_bits(r: &ComponentRecord) -> [u64; 9] {
        [
            r.np as u64,
            r.fault_coverage.to_bits(),
            r.adjusted_coverage.to_bits(),
            r.area.to_bits(),
            r.critical_path.to_bits(),
            r.ff_total as u64,
            r.ff_infrastructure as u64,
            r.gates as u64,
            r.nconn as u64,
        ]
    }

    #[test]
    fn concurrent_askers_annotate_each_key_exactly_once() {
        let keys = [
            ComponentKey::Alu(4),
            ComponentKey::Cmp(4),
            ComponentKey::Pc(4),
            ComponentKey::Imm(4),
            ComponentKey::LdSt(4),
            ComponentKey::SocketGroup(4, 2),
            ComponentKey::Rf(4, 4, 1, 1),
        ];
        let db = ComponentDb::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (db, start) = (&db, &start);
                scope.spawn(move || {
                    start.wait();
                    // Half the threads walk the keys backwards, so
                    // askers meet on keys another thread has claimed.
                    let mut order = keys.to_vec();
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    if t < 2 {
                        db.warm(order);
                    } else {
                        let area: f64 =
                            db.fold(|records| order.iter().map(|&k| records.get(k).area).sum());
                        assert!(area > 0.0);
                    }
                });
            }
        });
        assert_eq!(db.annotations(), keys.len(), "a key was annotated twice");
        assert_eq!(db.len(), keys.len());
        let serial = ComponentDb::new();
        for key in keys {
            assert_eq!(
                record_bits(&db.get(key)),
                record_bits(&serial.get(key)),
                "{key:?}"
            );
        }
        assert_eq!(db.annotations(), keys.len(), "a cached key was annotated");
    }

    #[test]
    fn fingerprint_is_a_function_of_the_engines_alone() {
        let db = ComponentDb::new();
        let before = db.fingerprint();
        db.warm(KEYS);
        assert_eq!(db.fingerprint(), before, "records are not fingerprinted");
        assert_eq!(ComponentDb::new().fingerprint(), before);
        let march_b = ComponentDb::with_engines(AtpgConfig::sweep(), MarchAlgorithm::march_b());
        assert_ne!(march_b.fingerprint(), before);
        let deep_atpg =
            ComponentDb::with_engines(AtpgConfig::default(), MarchAlgorithm::march_cminus());
        assert_ne!(deep_atpg.fingerprint(), before);
    }

    fn rf(regs: usize, nin: usize, nout: usize) -> RfInstance {
        RfInstance {
            name: "r".into(),
            regs,
            write_ports: vec![tta_arch::BusId(0); nin],
            read_ports: vec![tta_arch::BusId(0); nout],
        }
    }

    #[test]
    fn rf_keys_reject_geometries_wider_than_their_fields() {
        let key = |rf: RfInstance| Part::rf(&rf, 16).map(|part| part.key);
        assert_eq!(key(rf(8, 1, 2)), Some(ComponentKey::Rf(16, 8, 1, 2)));
        assert_eq!(key(rf(70_000, 1, 2)), None);
        assert_eq!(key(rf(8, 256, 2)), None);
        assert_eq!(key(rf(8, 1, 300)), None);
    }

    #[test]
    fn socket_group_keys_reject_more_ports_than_their_field() {
        let socket = |rf: RfInstance| Part::rf(&rf, 8).map(|part| part.socket);
        assert_eq!(
            socket(rf(8, 255, 1)),
            Some(ComponentKey::SocketGroup(8, 255))
        );
        assert_eq!(socket(rf(8, 256, 1)), None);
    }

    #[test]
    fn fu_keys_carry_kind_and_width() {
        let cases = [
            (FuKind::Alu, ComponentKey::Alu(12)),
            (FuKind::Cmp, ComponentKey::Cmp(12)),
            (FuKind::Mul, ComponentKey::Mul(12)),
            (FuKind::LdSt, ComponentKey::LdSt(12)),
            (FuKind::Pc, ComponentKey::Pc(12)),
            (FuKind::Immediate, ComponentKey::Imm(12)),
        ];
        for (kind, key) in cases {
            assert_eq!(ComponentKey::for_fu(kind, 12), key);
        }
    }

    #[test]
    fn record_hasher_spreads_the_huge_space_keys() {
        use std::hash::BuildHasher;
        // Every key a huge-space sweep can read, at two widths: a
        // degenerate hash would turn each fold lookup into a scan.
        let mut keys = Vec::new();
        for w in [8u16, 16] {
            for kind in [
                FuKind::Alu,
                FuKind::Cmp,
                FuKind::Mul,
                FuKind::LdSt,
                FuKind::Pc,
            ] {
                keys.push(ComponentKey::for_fu(kind, w));
            }
            keys.push(ComponentKey::Imm(w));
            for ports in 1..=8 {
                keys.push(ComponentKey::SocketGroup(w, ports));
            }
            for regs in [4u16, 8, 16, 32] {
                for (nin, nout) in [(1u8, 1u8), (1, 2), (2, 2), (2, 3)] {
                    keys.push(ComponentKey::Rf(w, regs, nin, nout));
                }
            }
        }
        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut hashes: Vec<u64> = keys.iter().map(|key| build.hash_one(key)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), keys.len(), "two keys share a hash");
    }
}
