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
//! cache is interior-mutable (`RwLock` over `Arc`ed records), so a shared
//! `&ComponentDb` serves many sweep threads concurrently, and each key is
//! annotated exactly once however many threads ask for it at the same
//! time (see [`ComponentDb::warm`]).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use tta_arch::{FuKind, RfInstance};
use tta_atpg::{Atpg, AtpgConfig};
use tta_dft::march::MarchAlgorithm;
use tta_netlist::components::{self, Component};
use tta_netlist::timing;

/// Identity of a pre-designed component (the cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKey {
    /// ALU at the given width.
    Alu(u16),
    /// Comparator.
    Cmp(u16),
    /// Multiplier.
    Mul(u16),
    /// Register file `(width, regs, nin, nout)`.
    Rf(u16, u16, u8, u8),
    /// Load/store unit.
    LdSt(u16),
    /// Program counter.
    Pc(u16),
    /// Immediate unit.
    Imm(u16),
    /// Socket/stage-control group `(width, n_input_ports)`.
    SocketGroup(u16, u8),
}

impl ComponentKey {
    /// The key of the functional-unit component for `kind` at datapath
    /// width `width` — the single source of the FU→component mapping.
    pub fn for_fu(kind: FuKind, width: u16) -> ComponentKey {
        match kind {
            FuKind::Alu => ComponentKey::Alu(width),
            FuKind::Cmp => ComponentKey::Cmp(width),
            FuKind::Mul => ComponentKey::Mul(width),
            FuKind::LdSt => ComponentKey::LdSt(width),
            FuKind::Pc => ComponentKey::Pc(width),
            FuKind::Immediate => ComponentKey::Imm(width),
        }
    }

    /// The key of a register file, with checked narrowing: `None` when
    /// the geometry exceeds the key's field widths (>65535 registers or
    /// >255 ports) instead of silently truncating to a *smaller* RF.
    pub fn for_rf(rf: &RfInstance, width: u16) -> Option<ComponentKey> {
        Some(ComponentKey::Rf(
            width,
            u16::try_from(rf.regs).ok()?,
            u8::try_from(rf.nin()).ok()?,
            u8::try_from(rf.nout()).ok()?,
        ))
    }

    /// The socket-group key serving a component with `n_input_ports`
    /// inputs; `None` when the port count exceeds the key's `u8` field.
    pub fn socket_group(width: u16, n_input_ports: usize) -> Option<ComponentKey> {
        Some(ComponentKey::SocketGroup(
            width,
            u8::try_from(n_input_ports).ok()?,
        ))
    }

    /// Generates the component netlist for this key.
    pub fn generate(self) -> Component {
        match self {
            ComponentKey::Alu(w) => components::alu(w as usize),
            ComponentKey::Cmp(w) => components::cmp(w as usize),
            ComponentKey::Mul(w) => components::mul(w as usize),
            ComponentKey::Rf(w, regs, nin, nout) => {
                components::register_file(w as usize, regs as usize, nin as usize, nout as usize)
            }
            ComponentKey::LdSt(w) => components::load_store(w as usize),
            ComponentKey::Pc(w) => components::pc(w as usize),
            ComponentKey::Imm(w) => components::immediate(w as usize),
            ComponentKey::SocketGroup(w, n_in) => {
                components::socket_group(w as usize, n_in as usize, 5)
            }
        }
    }

    /// Table-1 style display name.
    pub fn display_name(self) -> String {
        match self {
            ComponentKey::Alu(_) => "ALU".into(),
            ComponentKey::Cmp(_) => "CMP".into(),
            ComponentKey::Mul(_) => "MUL".into(),
            ComponentKey::Rf(_, regs, nin, nout) => format!("RF{regs}({nin}w/{nout}r)"),
            ComponentKey::LdSt(_) => "LD/ST".into(),
            ComponentKey::Pc(_) => "PC".into(),
            ComponentKey::Imm(_) => "IMM".into(),
            ComponentKey::SocketGroup(_, n) => format!("SOCK{n}"),
        }
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

/// FxHash-style multiply-rotate hasher for the record map. A fold looks
/// up every component of a point, and SipHash's per-lookup setup would
/// be most of that cost; the handful of small enum keys needs no more
/// hash quality than this. The map is never iterated, so nothing
/// observable depends on the hash.
#[derive(Default)]
struct KeyHasher(u64);

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
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The annotated records, keyed by component.
type RecordMap = HashMap<ComponentKey, Arc<ComponentRecord>, BuildHasherDefault<KeyHasher>>;

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
    cache: &'a RecordMap,
    cold: RefCell<Vec<ComponentKey>>,
}

impl<'a> Records<'a> {
    /// The record for `key`.
    pub(crate) fn get(&self, key: ComponentKey) -> &'a ComponentRecord {
        match self.cache.get(&key) {
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
/// The cache is interior-mutable: [`ComponentDb::get`] takes `&self`, so
/// a single database can be shared (by reference) across sweep threads.
/// Concurrent first accesses never duplicate work: the first asker
/// claims a key and annotates it, and every other asker waits for that
/// record (after annotating whatever unclaimed keys it needs itself).
#[derive(Debug)]
pub struct ComponentDb {
    atpg: Atpg,
    march: MarchAlgorithm,
    cache: RwLock<RecordMap>,
    // Keys some thread is annotating right now; `annotated` wakes the
    // threads waiting for one of them.
    claimed: Mutex<HashSet<ComponentKey>>,
    annotated: Condvar,
    // Annotations computed so far (one per key, barring a panic).
    annotations: AtomicUsize,
}

/// Releases a key claim when its annotation ends — also when the
/// annotation panics, so a waiter claims the key again instead of
/// waiting forever.
struct Claim<'a> {
    db: &'a ComponentDb,
    key: ComponentKey,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.db
            .claimed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        self.db.annotated.notify_all();
    }
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

    /// Database with custom engines (ablation benches).
    pub fn with_engines(atpg_config: AtpgConfig, march: MarchAlgorithm) -> Self {
        ComponentDb {
            atpg: Atpg::new(atpg_config),
            march,
            cache: RwLock::new(RecordMap::default()),
            claimed: Mutex::new(HashSet::new()),
            annotated: Condvar::new(),
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
        if let Some(rec) = self.cache.read().expect("db lock").get(&key) {
            return Arc::clone(rec);
        }
        self.warm([key]);
        let cache = self.cache.read().expect("db lock");
        Arc::clone(cache.get(&key).expect("warm annotates every key"))
    }

    /// Runs `fold` over the annotated records under a single read lock:
    /// one lock acquisition per fold, and no record is cloned. When the
    /// fold read keys that are not annotated yet (a serial sweep
    /// annotates lazily), those keys are annotated outside the lock and
    /// the same fold runs again, so the value returned always comes from
    /// real records.
    pub(crate) fn fold<T>(&self, fold: impl Fn(&Records<'_>) -> T) -> T {
        loop {
            let cold = {
                let cache = self.cache.read().expect("db lock");
                let records = Records {
                    cache: &cache,
                    cold: RefCell::new(Vec::new()),
                };
                let value = fold(&records);
                let cold = records.cold.into_inner();
                if cold.is_empty() {
                    return value;
                }
                cold
            };
            self.warm(cold);
        }
    }

    /// Whether `key` has already been annotated.
    pub fn contains(&self, key: ComponentKey) -> bool {
        self.cache.read().expect("db lock").contains_key(&key)
    }

    /// Annotates every key in `keys` that is not cached yet, and returns
    /// once all of them are. Each key is annotated exactly once across
    /// threads: a key another thread is annotating is skipped, so this
    /// thread moves on to keys nobody has claimed, and only at the end
    /// waits for the skipped ones.
    pub fn warm(&self, keys: impl IntoIterator<Item = ComponentKey>) {
        let mut skipped = Vec::new();
        for key in keys {
            match self.claim(key) {
                Some(claim) => self.annotate(claim),
                None => skipped.push(key),
            }
        }
        for key in skipped {
            // Still cold once its claim is released means the annotating
            // thread panicked: the key is claimed again, here or
            // elsewhere.
            while !self.contains(key) {
                match self.claim(key) {
                    Some(claim) => self.annotate(claim),
                    None => self.wait_for(key),
                }
            }
        }
    }

    /// Blocks while another thread holds the claim on `key`.
    fn wait_for(&self, key: ComponentKey) {
        let mut claimed = self.claimed.lock().unwrap_or_else(PoisonError::into_inner);
        while claimed.contains(&key) {
            claimed = self
                .annotated
                .wait(claimed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Claims `key` for annotation; `None` when it is cached already or
    /// another thread holds the claim. The cache is checked under the
    /// claim lock, and an annotation is cached before its claim is
    /// released, so a key is never claimed twice.
    fn claim(&self, key: ComponentKey) -> Option<Claim<'_>> {
        if self.contains(key) {
            return None;
        }
        let mut claimed = self.claimed.lock().unwrap_or_else(PoisonError::into_inner);
        if self.contains(key) || !claimed.insert(key) {
            return None;
        }
        Some(Claim { db: self, key })
    }

    /// Annotates a claimed key outside every lock (annotation can take
    /// seconds, and other keys must stay readable meanwhile), caches the
    /// record, then releases the claim.
    fn annotate(&self, claim: Claim<'_>) {
        let record = Arc::new(self.compute(claim.key));
        self.annotations.fetch_add(1, Ordering::Relaxed);
        self.cache
            .write()
            .expect("db lock")
            .insert(claim.key, record);
    }

    /// Annotations computed so far.
    #[cfg(test)]
    pub(crate) fn annotations(&self) -> usize {
        self.annotations.load(Ordering::Relaxed)
    }

    /// Number of distinct components annotated so far.
    pub fn len(&self) -> usize {
        self.cache.read().expect("db lock").len()
    }

    /// Whether nothing has been annotated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn compute(&self, key: ComponentKey) -> ComponentRecord {
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
        ComponentRecord {
            np,
            fault_coverage: fc,
            adjusted_coverage: afc,
            area: component.area(),
            critical_path: stats.critical_path,
            ff_total: component.netlist.dff_count(),
            ff_infrastructure: component.infrastructure_ff_count(),
            gates: component.netlist.gate_count(),
            nconn: component.nconn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn an_abandoned_claim_lets_the_next_asker_annotate() {
        let db = ComponentDb::new();
        let key = ComponentKey::Alu(4);
        let claim = db.claim(key).expect("a cold key is claimable");
        assert!(db.claim(key).is_none(), "a claimed key is claimed once");
        // A claim dropped without caching a record (as when its
        // annotation panics)…
        drop(claim);
        assert!(!db.contains(key));
        // …so the next asker claims and annotates the key itself.
        db.warm([key]);
        assert!(db.contains(key));
        assert_eq!(db.annotations(), 1);
        assert!(db.claim(key).is_none(), "a cached key is never claimed");
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

    #[test]
    fn rf_keys_reject_geometries_wider_than_their_fields() {
        let rf = |regs, nin, nout| RfInstance {
            name: "r".into(),
            regs,
            write_ports: vec![tta_arch::BusId(0); nin],
            read_ports: vec![tta_arch::BusId(0); nout],
        };
        assert_eq!(
            ComponentKey::for_rf(&rf(8, 1, 2), 16),
            Some(ComponentKey::Rf(16, 8, 1, 2))
        );
        assert_eq!(ComponentKey::for_rf(&rf(70_000, 1, 2), 16), None);
        assert_eq!(ComponentKey::for_rf(&rf(8, 256, 2), 16), None);
        assert_eq!(ComponentKey::for_rf(&rf(8, 1, 300), 16), None);
    }

    #[test]
    fn socket_group_keys_reject_more_ports_than_their_field() {
        assert_eq!(
            ComponentKey::socket_group(8, 255),
            Some(ComponentKey::SocketGroup(8, 255))
        );
        assert_eq!(ComponentKey::socket_group(8, 256), None);
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

    #[test]
    fn display_names_follow_table1() {
        assert_eq!(ComponentKey::Alu(8).display_name(), "ALU");
        assert_eq!(ComponentKey::LdSt(8).display_name(), "LD/ST");
        assert_eq!(ComponentKey::Rf(8, 12, 1, 2).display_name(), "RF12(1w/2r)");
        assert_eq!(ComponentKey::SocketGroup(8, 3).display_name(), "SOCK3");
    }
}
