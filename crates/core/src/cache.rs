//! Persistent, content-addressed evaluation cache for the sweep.
//!
//! Paper-scale explorations re-evaluate the same `(architecture,
//! workload suite, cost models)` points across runs — every figure
//! regeneration, every weight-sensitivity study, every interrupted
//! sweep restarted from scratch pays the full scheduling + annotation
//! bill again. [`SweepCache`] removes that bill: each evaluated point is
//! stored under a 64-bit *content address* derived from everything that
//! determines its result —
//!
//! * the architecture itself (width, buses, every FU/RF with its
//!   port→bus assignment),
//! * the workload suite (names, traces, memory images, iteration
//!   counts, in order),
//! * the cost-model fingerprints ([`crate::models::AreaModel::fingerprint`]
//!   and friends — models that cannot describe themselves opt the run
//!   out of caching entirely),
//! * the cache format version.
//!
//! Change any input and the address changes, so stale entries are never
//! *returned*, only *ignored* — there is no invalidation protocol to get
//! wrong. Results are stored as raw `f64` bit patterns, which makes a
//! warm-cache run **bit-identical** to a cold one (and to serial vs
//! parallel runs, which were already bit-identical).
//!
//! # On-disk format
//!
//! One plain-text file, `ttadse-cache.v3`, under the chosen cache
//! directory. The first line is a versioned header; each subsequent
//! line is one entry:
//!
//! ```text
//! ttadse-sweep-cache 3
//! E <key> F <cycles> <spills> <area-bits> <exec-bits> <wl-cycles>... [T <model-fp> <test-bits>]
//! E <key> I [<blocked-workload>]
//! T <key> <testcost-bits>
//! ```
//!
//! `E` lines are sweep evaluations (`F`easible with payload,
//! `I`nfeasible, optionally recording which suite member failed to
//! schedule), `T` lines are test-cost lifts of Pareto points. The
//! optional `T <model-fp> <test-bits>` suffix on a feasible `E` line is
//! new in v3: a full-lift sweep
//! ([`crate::explore::LiftMode::Full`]) stores every point's test
//! total inline, tagged with the test-cost model's fingerprint so a
//! different model recomputes instead of trusting a stale total. A
//! legacy `ttadse-cache.v2` file (same line grammar minus the suffix)
//! is still loaded when no v3 file exists — its evaluations hit under
//! unchanged content addresses, and the missing per-point test fields
//! are simply recomputed. A missing file, a wrong header, or any
//! malformed line degrades to a clean re-evaluation — a corrupt cache
//! can cost time, never correctness.
//! [`SweepCache::flush`] merges with whatever is on disk before an
//! atomic rename, so concurrent sweeps sharing one directory union
//! their work on a best-effort basis: the rename keeps the file valid
//! at all times, but two *simultaneous* flushes race and the loser's
//! newest entries may need re-evaluating later — again time, never
//! correctness.
//!
//! # Example
//!
//! ```no_run
//! use tta_arch::template::TemplateSpace;
//! use tta_core::cache::SweepCache;
//! use tta_core::explore::Exploration;
//! use tta_workloads::suite;
//!
//! let cache = SweepCache::open("/tmp/ttadse-cache").unwrap();
//! let result = Exploration::over(TemplateSpace::paper_default())
//!     .workload(&suite::crypt(16))
//!     .cache(&cache)
//!     .run(); // second run: every point is a cache hit
//! println!("hits {}, misses {}", cache.hits(), cache.misses());
//! # let _ = result;
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tta_arch::Architecture;
use tta_workloads::Workload;

/// On-disk *file layout* version: the header number and line grammar.
/// v3 added the optional inline test field on feasible `E` lines; v2
/// files (the previous layout) are still loaded when no v3 file exists.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// *Content-address* version, folded into every entry's key. Bump it
/// whenever cached results could stop matching fresh ones: a
/// fingerprint-recipe change, but also any change to *evaluation
/// semantics* the fingerprints cannot see — the scheduler, the
/// component netlist generators, the ATPG/march engines, or the cost
/// formulas. The content address covers a point's inputs, not the code
/// that evaluates it; this constant is the version of that code. It is
/// deliberately separate from [`CACHE_FORMAT_VERSION`]: the v3 file
/// layout changed how entries are *stored*, not what they *mean*, so
/// v2 entries keep their addresses and stay hittable after an upgrade.
///
/// The in-run schedule memo ([`crate::schedmemo::ScheduleMemo`]) has a
/// version rule of its own: a scheduler change that reads a new
/// `Architecture` field must extend [`tta_movec::SchedulerView`], or
/// points that differ only in that field would share one memoised
/// schedule (see `docs/PERF.md`, "Scheduler views").
pub const CACHE_ADDRESS_VERSION: u32 = 2;

/// File name of the cache inside the cache directory (versioned, so a
/// future format lives alongside instead of tripping over this one).
pub const CACHE_FILE_NAME: &str = "ttadse-cache.v3";

/// File name of the legacy v2 cache, read (never written) when no v3
/// file exists so an upgraded binary resumes from pre-v3 sweeps.
pub const LEGACY_CACHE_FILE_NAME: &str = "ttadse-cache.v2";

const HEADER: &str = "ttadse-sweep-cache 3";

const LEGACY_HEADER: &str = "ttadse-sweep-cache 2";

// ---------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------

/// Incremental FNV-1a 64-bit hasher — the workspace has no external
/// hashing crate, and the cache needs a *stable* hash (Rust's `Hasher`
/// default is randomised per process), so the recipe is spelled out
/// here.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint from the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Absorbs a string (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Absorbs a `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs an `f64` as its exact bit pattern.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// The accumulated 64-bit digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Content address of one architecture: width, bus count, and every
/// FU/RF instance with its full port→bus assignment (the assignment
/// changes transport cycles and hence both schedules and test cost).
pub fn arch_fingerprint(arch: &Architecture) -> u64 {
    let mut f = Fingerprint::new()
        .str("arch")
        .u64(arch.width as u64)
        .u64(arch.buses as u64)
        .u64(arch.fus.len() as u64)
        .u64(arch.rfs.len() as u64);
    for fu in &arch.fus {
        f = f
            .str(fu.kind.mnemonic())
            .str(&fu.name)
            .u64(u64::from(fu.operand_bus.0))
            .u64(u64::from(fu.trigger_bus.0))
            .u64(u64::from(fu.result_bus.0));
    }
    for rf in &arch.rfs {
        f = f
            .str(&rf.name)
            .u64(rf.regs as u64)
            .u64(rf.write_ports.len() as u64)
            .u64(rf.read_ports.len() as u64);
        for b in rf.write_ports.iter().chain(&rf.read_ports) {
            f = f.u64(u64::from(b.0));
        }
    }
    f.finish()
}

/// Content address of one workload: name, iteration multiplier, inputs,
/// memory image and the full dataflow trace (via its `Debug` rendering,
/// which lists every node, operation and edge).
pub fn workload_fingerprint(w: &Workload) -> u64 {
    let mut f = Fingerprint::new()
        .str("workload")
        .str(&w.name)
        .u64(w.trace_iterations)
        .u64(w.inputs.len() as u64);
    for &v in &w.inputs {
        f = f.u64(v);
    }
    f = f.u64(w.mem.len() as u64);
    for &v in &w.mem {
        f = f.u64(v);
    }
    f.str(&format!("{:?}", w.dfg)).finish()
}

// ---------------------------------------------------------------------
// Entries
// ---------------------------------------------------------------------

/// A cached sweep evaluation of one architecture on one workload suite.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalEntry {
    /// The point was infeasible — cached so re-runs skip the scheduling
    /// attempt.
    Infeasible {
        /// Suite index of the first workload that failed to schedule,
        /// or `None` when the point fell outside the component model's
        /// domain instead. Cached so warm per-workload feasibility
        /// breakdowns are identical to cold ones.
        blocked: Option<u32>,
    },
    /// A feasible evaluation; floats are carried as exact bit patterns.
    Feasible {
        /// Aggregate full-application cycles.
        cycles: u64,
        /// Per-workload cycle counts, in suite order.
        workload_cycles: Vec<u64>,
        /// Register-pressure spill events.
        spills: u32,
        /// `f64::to_bits` of the area objective.
        area_bits: u64,
        /// `f64::to_bits` of the exec-time objective.
        exec_bits: u64,
        /// Inline test total from a full-lift sweep
        /// ([`crate::explore::LiftMode::Full`]): the test-cost model's
        /// fingerprint plus `f64::to_bits` of the total. `None` for
        /// entries written by Pareto-only sweeps (or upgraded from a v2
        /// file), where the lift stage keys its totals separately as
        /// `T` lines. The fingerprint tag means a run with a different
        /// test model recomputes instead of trusting a stale total.
        test: Option<(u64, u64)>,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Eval(EvalEntry),
    /// `f64::to_bits` of a lifted eq.-(14) test-cost total.
    Test(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Eval,
    Test,
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// Number of independent lock shards the in-memory map is split over.
/// Entries are assigned by the low bits of their content address —
/// FNV-1a output, so the low nibble is uniformly distributed — which
/// lets concurrent sweeps (the serve daemon runs many jobs against one
/// process-wide cache) proceed without serialising on a single mutex.
const SHARDS: usize = 16;

/// Shard index of a content address (kind-independent: `E` and `T`
/// entries for the same point land in the same shard, which keeps a
/// point's full record under one lock).
fn shard_of(key: u64) -> usize {
    (key & (SHARDS as u64 - 1)) as usize
}

/// A persistent, thread-safe evaluation cache (see the [module
/// docs](self) for the design and the on-disk format).
///
/// The in-memory map is split over 16 lock shards keyed by
/// the low bits of the content address, so concurrent jobs sharing one
/// warm cache contend only when their chunks touch the same shard. All
/// shard locks are *poison-tolerant*: a panicking evaluation thread
/// (the serve daemon isolates worker panics with `catch_unwind`) never
/// renders the shared cache unusable — the map data is always in a
/// consistent state when a lock is released, because no cache method
/// leaves an entry half-written.
#[derive(Debug)]
pub struct SweepCache {
    path: PathBuf,
    shards: [Mutex<HashMap<(Kind, u64), Entry>>; SHARDS],
    dirty: std::sync::atomic::AtomicBool,
    /// `(len, mtime)` of the on-disk file as of the last load or flush —
    /// an rsync-style quick check so chunked flushes skip re-parsing a
    /// file nobody else has touched (re-reading a growing file every
    /// chunk would make persistence O(N²) over a large sweep).
    disk_state: Mutex<Option<(u64, std::time::SystemTime)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Counted *lookup operations* (lock acquisitions for reading), as
    /// opposed to the per-key hit/miss tallies: a batched lookup of 64
    /// keys is 1 read but 64 hit/miss counts. Regression guard for the
    /// sweep loop's access pattern — see [`SweepCache::reads`].
    reads: AtomicU64,
}

/// Quick-check signature of the file at `path`.
fn stat_sig(path: &Path) -> Option<(u64, std::time::SystemTime)> {
    let meta = fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()?))
}

impl SweepCache {
    /// Opens (creating the directory if needed) the cache under `dir`,
    /// loading whatever valid entries the on-disk file holds. When no
    /// v3 file exists, a legacy `ttadse-cache.v2` file is loaded
    /// instead (entries keep their content addresses; the first flush
    /// persists them in the v3 layout). A missing, corrupt or
    /// version-mismatched file yields an empty cache — never an error;
    /// only an unusable *directory* is reported.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when `dir` cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SweepCache> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE_NAME);
        let (entries, disk_state) = match load_entries(&path, HEADER) {
            Some(entries) => (entries, stat_sig(&path)),
            None => match load_entries(&dir.join(LEGACY_CACHE_FILE_NAME), LEGACY_HEADER) {
                // Upgrade path: the legacy entries live in memory only
                // until something is stored and flushed; the v2 file is
                // left untouched for any older binary still around.
                Some(entries) => (entries, None),
                None => (HashMap::new(), None),
            },
        };
        let mut shards: [HashMap<(Kind, u64), Entry>; SHARDS] =
            std::array::from_fn(|_| HashMap::new());
        for (k, v) in entries {
            shards[shard_of(k.1)].insert(k, v);
        }
        Ok(SweepCache {
            path,
            shards: shards.map(Mutex::new),
            dirty: std::sync::atomic::AtomicBool::new(false),
            disk_state: Mutex::new(disk_state),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        })
    }

    /// An in-memory cache that never touches disk ([`SweepCache::flush`]
    /// is a no-op). Useful for tests and for sharing work between
    /// repeated in-process runs.
    pub fn in_memory() -> SweepCache {
        SweepCache {
            path: PathBuf::new(),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            dirty: std::sync::atomic::AtomicBool::new(false),
            disk_state: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reads: AtomicU64::new(0),
        }
    }

    /// Locks shard `i`, shrugging off poison: the map data protected by
    /// a shard lock is never left half-written (every cache method
    /// completes its single map operation before anything that can
    /// panic), so a poisoned guard's contents are safe to keep serving.
    /// Without this, one panicking job in a long-lived daemon would
    /// permanently wedge every later job on `PoisonError`.
    fn shard(&self, i: usize) -> MutexGuard<'_, HashMap<(Kind, u64), Entry>> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the shard owning `key`.
    fn shard_for(&self, key: u64) -> MutexGuard<'_, HashMap<(Kind, u64), Entry>> {
        self.shard(shard_of(key))
    }

    /// The on-disk file this cache persists to (empty for
    /// [`SweepCache::in_memory`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up a sweep evaluation. Hit/miss counters are updated, and
    /// the operation counts as one read.
    pub fn lookup_eval(&self, key: u64) -> Option<EvalEntry> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let found = match self.shard_for(key).get(&(Kind::Eval, key)) {
            Some(Entry::Eval(e)) => Some(e.clone()),
            _ => None,
        };
        self.count(found.is_some());
        found
    }

    /// Looks up a whole batch of sweep evaluations, acquiring each
    /// *touched shard's* lock exactly once — the sweep engine
    /// prefetches each planned chunk this way instead of probing the
    /// cache once per point inside the hot loop. Per-key hit/miss
    /// counters are updated exactly as `n` individual
    /// [`SweepCache::lookup_eval`] calls would, but the whole batch
    /// counts as a single read ([`SweepCache::reads`]).
    pub fn lookup_eval_batch(&self, keys: &[u64]) -> Vec<Option<EvalEntry>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        // Group key positions per shard so each shard lock is taken at
        // most once per batch, then answered in input order.
        let mut by_shard: [Vec<usize>; SHARDS] = std::array::from_fn(|_| Vec::new());
        for (pos, &key) in keys.iter().enumerate() {
            by_shard[shard_of(key)].push(pos);
        }
        let mut out: Vec<Option<EvalEntry>> = vec![None; keys.len()];
        let mut hits = 0u64;
        for (i, positions) in by_shard.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let shard = self.shard(i);
            for &pos in positions {
                if let Some(Entry::Eval(e)) = shard.get(&(Kind::Eval, keys[pos])) {
                    hits += 1;
                    out[pos] = Some(e.clone());
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
        out
    }

    /// Whether an evaluation for `key` is present, *without* touching
    /// the hit/miss counters — for planning passes (e.g. deciding which
    /// component keys still need pre-warming) that precede the counted
    /// lookup.
    pub fn contains_eval(&self, key: u64) -> bool {
        matches!(
            self.shard_for(key).get(&(Kind::Eval, key)),
            Some(Entry::Eval(_))
        )
    }

    /// Whether `key` holds an evaluation that a *full-lift* sweep
    /// ([`crate::explore::LiftMode::Full`]) can answer without touching
    /// the component database: an infeasible entry, or a feasible one
    /// whose inline test total was produced by the test model with
    /// fingerprint `test_fp`. Counter-free, like
    /// [`SweepCache::contains_eval`] — used by the pre-warm planning
    /// pass, where an entry missing its test field still needs its
    /// component keys annotated.
    pub fn contains_eval_with_test(&self, key: u64, test_fp: u64) -> bool {
        match self.shard_for(key).get(&(Kind::Eval, key)) {
            Some(Entry::Eval(EvalEntry::Infeasible { .. })) => true,
            Some(Entry::Eval(EvalEntry::Feasible {
                test: Some((fp, _)),
                ..
            })) => *fp == test_fp,
            _ => false,
        }
    }

    /// Whether a test-cost lift for `key` is present, *without* touching
    /// the hit/miss counters — the lift-stage mirror of
    /// [`SweepCache::contains_eval`].
    pub fn contains_test(&self, key: u64) -> bool {
        matches!(
            self.shard_for(key).get(&(Kind::Test, key)),
            Some(Entry::Test(_))
        )
    }

    /// Stores a sweep evaluation (in memory; [`SweepCache::flush`]
    /// persists).
    pub fn store_eval(&self, key: u64, entry: EvalEntry) {
        self.shard_for(key)
            .insert((Kind::Eval, key), Entry::Eval(entry));
        self.dirty.store(true, Ordering::Release);
    }

    /// Looks up a lifted test-cost total (exact bit pattern). One read.
    pub fn lookup_test(&self, key: u64) -> Option<f64> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let found = match self.shard_for(key).get(&(Kind::Test, key)) {
            Some(Entry::Test(bits)) => Some(f64::from_bits(*bits)),
            _ => None,
        };
        self.count(found.is_some());
        found
    }

    /// Stores a lifted test-cost total.
    pub fn store_test(&self, key: u64, total: f64) {
        self.shard_for(key)
            .insert((Kind::Test, key), Entry::Test(total.to_bits()));
        self.dirty.store(true, Ordering::Release);
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lookups answered from the cache since it was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a fresh evaluation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Read *operations* since the cache was opened: each
    /// [`SweepCache::lookup_eval`] / [`SweepCache::lookup_test`] call
    /// is one read, and each [`SweepCache::lookup_eval_batch`] call is
    /// one read regardless of batch size. The sweep engine performs one
    /// batched read per planned chunk plus one per lifted front point —
    /// a regression test pins that access pattern, because an
    /// accidental return to per-point probing multiplies lock traffic
    /// by the chunk size without changing any result.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of entries currently held (evaluations + test lifts).
    /// Shards are counted one at a time, so the total is a consistent
    /// snapshot only when no writer is concurrently storing.
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|i| self.shard(i).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persists the cache: merges the in-memory entries with whatever is
    /// on disk (another process may have flushed meanwhile), then writes
    /// the union atomically (a per-process temp file + rename), so an
    /// interrupted or concurrent flush leaves a valid file intact.
    /// A no-op when nothing was stored since the last flush, so warm
    /// re-runs never rewrite the file.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] on write failure. In-memory
    /// caches return `Ok(())` without touching disk.
    pub fn flush(&self) -> io::Result<()> {
        if self.path.as_os_str().is_empty() || !self.dirty.load(Ordering::Acquire) {
            return Ok(());
        }
        // All shard locks are taken in index order (every whole-cache
        // operation uses this order, so two concurrent flushes cannot
        // deadlock) and held for the duration: the flushed file is a
        // consistent snapshot even while other jobs keep storing.
        let mut shards: Vec<MutexGuard<'_, HashMap<(Kind, u64), Entry>>> =
            (0..SHARDS).map(|i| self.shard(i)).collect();
        let mut disk_state = self
            .disk_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Merge from disk only when another writer has plausibly touched
        // the file since we last read or wrote it.
        if stat_sig(&self.path) != *disk_state {
            if let Some(disk) = load_entries(&self.path, HEADER) {
                for (k, v) in disk {
                    shards[shard_of(k.1)].entry(k).or_insert(v);
                }
            }
        }
        let mut lines: Vec<String> = shards
            .iter()
            .flat_map(|shard| shard.iter().map(|(k, v)| render_line(k, v)))
            .collect();
        // Deterministic file contents: sort lines, not hash order.
        lines.sort_unstable();
        let mut body = String::with_capacity(lines.len() * 48 + HEADER.len() + 1);
        body.push_str(HEADER);
        body.push('\n');
        for line in lines {
            body.push_str(&line);
            body.push('\n');
        }
        // Unique temp name per flush: concurrent flushers (other
        // processes, or two instances in this one) must never interleave
        // writes into one temp file.
        static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            FLUSH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // A failed write or rename removes its temp file: the cache stays
        // dirty, so every later chunk retries, and each retry would
        // otherwise strand another (larger) temp file in the directory.
        if let Err(e) = fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, &self.path)) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.dirty.store(false, Ordering::Release);
        *disk_state = stat_sig(&self.path);
        Ok(())
    }

    /// Drops every entry, in memory and on disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the cache file exists
    /// but cannot be removed.
    pub fn invalidate(&self) -> io::Result<()> {
        for i in 0..SHARDS {
            self.shard(i).clear();
        }
        self.dirty.store(false, Ordering::Release);
        *self
            .disk_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        if !self.path.as_os_str().is_empty() && self.path.exists() {
            fs::remove_file(&self.path)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------

fn render_line(key: &(Kind, u64), entry: &Entry) -> String {
    let mut s = String::new();
    match entry {
        Entry::Eval(EvalEntry::Infeasible { blocked }) => {
            let _ = write!(s, "E {:016x} I", key.1);
            if let Some(w) = blocked {
                let _ = write!(s, " {w}");
            }
        }
        Entry::Eval(EvalEntry::Feasible {
            cycles,
            workload_cycles,
            spills,
            area_bits,
            exec_bits,
            test,
        }) => {
            let _ = write!(
                s,
                "E {:016x} F {cycles} {spills} {area_bits:016x} {exec_bits:016x}",
                key.1
            );
            for c in workload_cycles {
                let _ = write!(s, " {c}");
            }
            // The `T` sentinel is unambiguous: workload-cycle tokens are
            // decimal integers and can never equal it.
            if let Some((fp, bits)) = test {
                let _ = write!(s, " T {fp:016x} {bits:016x}");
            }
        }
        Entry::Test(bits) => {
            let _ = write!(s, "T {:016x} {bits:016x}", key.1);
        }
    }
    s
}

/// Parses the cache file at `path`, expecting `header` on its first
/// line (the v3 header, or the legacy v2 one on the upgrade path — the
/// line grammar below is a superset of v2's, so one parser serves
/// both). Returns `None` (≙ empty cache) for a missing file, a bad
/// header, or *any* malformed line — a cache that cannot be trusted in
/// full is not trusted at all.
fn load_entries(path: &Path, header: &str) -> Option<HashMap<(Kind, u64), Entry>> {
    let text = fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next() != Some(header) {
        return None;
    }
    let mut map = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (key, entry) = parse_line(line)?;
        map.insert(key, entry);
    }
    Some(map)
}

fn parse_line(line: &str) -> Option<((Kind, u64), Entry)> {
    let mut parts = line.split(' ');
    let tag = parts.next()?;
    let key = u64::from_str_radix(parts.next()?, 16).ok()?;
    match tag {
        "E" => match parts.next()? {
            "I" => {
                let blocked = match parts.next() {
                    None => None,
                    Some(w) => Some(w.parse().ok()?),
                };
                if parts.next().is_some() {
                    return None;
                }
                Some((
                    (Kind::Eval, key),
                    Entry::Eval(EvalEntry::Infeasible { blocked }),
                ))
            }
            "F" => {
                let cycles = parts.next()?.parse().ok()?;
                let spills = parts.next()?.parse().ok()?;
                let area_bits = u64::from_str_radix(parts.next()?, 16).ok()?;
                let exec_bits = u64::from_str_radix(parts.next()?, 16).ok()?;
                // Workload cycles run until the optional `T` sentinel
                // opening the inline test pair (fingerprint + bits).
                let mut workload_cycles = Vec::new();
                let mut test = None;
                for p in parts.by_ref() {
                    if p == "T" {
                        let fp = u64::from_str_radix(parts.next()?, 16).ok()?;
                        let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
                        if parts.next().is_some() {
                            return None;
                        }
                        test = Some((fp, bits));
                        break;
                    }
                    workload_cycles.push(p.parse().ok()?);
                }
                Some((
                    (Kind::Eval, key),
                    Entry::Eval(EvalEntry::Feasible {
                        cycles,
                        workload_cycles,
                        spills,
                        area_bits,
                        exec_bits,
                        test,
                    }),
                ))
            }
            _ => None,
        },
        "T" => {
            let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
            if parts.next().is_some() {
                return None;
            }
            Some(((Kind::Test, key), Entry::Test(bits)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ttadse-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_feasible() -> EvalEntry {
        EvalEntry::Feasible {
            cycles: 1234,
            workload_cycles: vec![1000, 234],
            spills: 3,
            area_bits: 4000.5f64.to_bits(),
            exec_bits: 77.25f64.to_bits(),
            test: None,
        }
    }

    fn sample_feasible_with_test() -> EvalEntry {
        EvalEntry::Feasible {
            cycles: 1234,
            workload_cycles: vec![1000, 234],
            spills: 3,
            area_bits: 4000.5f64.to_bits(),
            exec_bits: 77.25f64.to_bits(),
            test: Some((0xdead_beef, 512.25f64.to_bits())),
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(42, sample_feasible());
        cache.store_eval(43, EvalEntry::Infeasible { blocked: Some(1) });
        cache.store_test(42, 99.75);
        cache.flush().unwrap();

        let reloaded = SweepCache::open(&dir).unwrap();
        assert_eq!(reloaded.len(), 3);
        assert_eq!(reloaded.lookup_eval(42), Some(sample_feasible()));
        assert_eq!(
            reloaded.lookup_eval(43),
            Some(EvalEntry::Infeasible { blocked: Some(1) })
        );
        assert_eq!(reloaded.lookup_test(42), Some(99.75));
        assert_eq!(reloaded.lookup_eval(44), None);
        assert_eq!(reloaded.hits(), 3);
        assert_eq!(reloaded.misses(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_test_field_roundtrips_and_gates_contains() {
        let dir = tmpdir("inline-test");
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(1, sample_feasible_with_test());
        cache.store_eval(2, sample_feasible());
        cache.store_eval(3, EvalEntry::Infeasible { blocked: None });
        cache.flush().unwrap();

        let reloaded = SweepCache::open(&dir).unwrap();
        assert_eq!(reloaded.lookup_eval(1), Some(sample_feasible_with_test()));
        assert_eq!(reloaded.lookup_eval(2), Some(sample_feasible()));
        // A full-lift sweep can answer entry 1 only with the matching
        // model, entry 3 always (nothing to lift), entry 2 never.
        assert!(reloaded.contains_eval_with_test(1, 0xdead_beef));
        assert!(!reloaded.contains_eval_with_test(1, 0xbad));
        assert!(!reloaded.contains_eval_with_test(2, 0xdead_beef));
        assert!(reloaded.contains_eval_with_test(3, 0xdead_beef));
        assert!(!reloaded.contains_eval_with_test(4, 0xdead_beef));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_v2_file_loads_when_no_v3_exists() {
        let dir = tmpdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        // A v2 file as the previous release wrote it: v2 header, no
        // inline test suffix, standalone T lines for lifted fronts.
        fs::write(
            dir.join(LEGACY_CACHE_FILE_NAME),
            format!(
                "{LEGACY_HEADER}\n\
                 E 000000000000002a F 1234 3 {:016x} {:016x} 1000 234\n\
                 E 000000000000002b I 1\n\
                 T 000000000000002a {:016x}\n",
                4000.5f64.to_bits(),
                77.25f64.to_bits(),
                99.75f64.to_bits(),
            ),
        )
        .unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup_eval(0x2a), Some(sample_feasible()));
        assert_eq!(cache.lookup_test(0x2a), Some(99.75));
        // The upgraded entries have no inline test field yet.
        assert!(!cache.contains_eval_with_test(0x2a, 7));
        // A store + flush persists everything in the v3 layout; the v2
        // file is left for older binaries.
        cache.store_eval(0x2c, sample_feasible_with_test());
        cache.flush().unwrap();
        assert!(dir.join(CACHE_FILE_NAME).exists());
        assert!(dir.join(LEGACY_CACHE_FILE_NAME).exists());
        let reloaded = SweepCache::open(&dir).unwrap();
        assert_eq!(reloaded.len(), 4);
        assert_eq!(reloaded.lookup_eval(0x2a), Some(sample_feasible()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v3_file_wins_over_a_legacy_one() {
        let dir = tmpdir("v3-wins");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(LEGACY_CACHE_FILE_NAME),
            format!("{LEGACY_HEADER}\nE 0000000000000001 I\n"),
        )
        .unwrap();
        fs::write(
            dir.join(CACHE_FILE_NAME),
            format!("{HEADER}\nE 0000000000000002 I\n"),
        )
        .unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.lookup_eval(2),
            Some(EvalEntry::Infeasible { blocked: None })
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_to_an_unwritable_target_reports_the_error() {
        let dir = tmpdir("unwritable");
        let cache = SweepCache::open(&dir).unwrap();
        // Make the cache *file* path unwritable even for root: a
        // directory sits where the rename must land.
        fs::create_dir_all(cache.path()).unwrap();
        cache.store_eval(1, EvalEntry::Infeasible { blocked: None });
        assert!(cache.flush().is_err(), "rename onto a directory fails");
        // The cache stays dirty, so the next flush retries — and fails
        // the same way.
        cache.store_eval(2, EvalEntry::Infeasible { blocked: None });
        assert!(cache.flush().is_err(), "the retry fails too");
        // The entries are still served from memory.
        assert_eq!(
            cache.lookup_eval(1),
            Some(EvalEntry::Infeasible { blocked: None })
        );
        // Neither failed flush left its temp file behind.
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_and_test_keys_do_not_collide() {
        let cache = SweepCache::in_memory();
        cache.store_test(7, 1.0);
        assert_eq!(cache.lookup_eval(7), None);
        cache.store_eval(7, EvalEntry::Infeasible { blocked: None });
        assert_eq!(cache.lookup_test(7), Some(1.0));
    }

    #[test]
    fn corrupt_file_degrades_to_empty() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CACHE_FILE_NAME), format!("{HEADER}\nE zzzz I\n")).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_degrades_to_empty() {
        let dir = tmpdir("version");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CACHE_FILE_NAME),
            "ttadse-sweep-cache 999\nE 000000000000002a I\n",
        )
        .unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_merges_with_concurrent_writers() {
        let dir = tmpdir("merge");
        let a = SweepCache::open(&dir).unwrap();
        let b = SweepCache::open(&dir).unwrap();
        a.store_eval(1, EvalEntry::Infeasible { blocked: None });
        b.store_eval(2, sample_feasible());
        a.flush().unwrap();
        b.flush().unwrap();
        let merged = SweepCache::open(&dir).unwrap();
        assert_eq!(merged.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_is_deterministic() {
        let dir = tmpdir("determ");
        let cache = SweepCache::open(&dir).unwrap();
        for k in 0..32u64 {
            cache.store_eval(
                k.wrapping_mul(0x9E37_79B9),
                EvalEntry::Infeasible { blocked: None },
            );
        }
        cache.flush().unwrap();
        let first = fs::read_to_string(cache.path()).unwrap();
        cache.flush().unwrap();
        let second = fs::read_to_string(cache.path()).unwrap();
        assert_eq!(first, second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_clears_memory_and_disk() {
        let dir = tmpdir("invalidate");
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(1, EvalEntry::Infeasible { blocked: None });
        cache.flush().unwrap();
        assert!(cache.path().exists());
        cache.invalidate().unwrap();
        assert!(cache.is_empty());
        assert!(!cache.path().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_lookup_spans_shards_in_one_read() {
        let cache = SweepCache::in_memory();
        // Keys 0..64 cover every shard four times over.
        for k in 0..64u64 {
            cache.store_eval(k, EvalEntry::Infeasible { blocked: None });
        }
        let keys: Vec<u64> = (0..128u64).rev().collect();
        let out = cache.lookup_eval_batch(&keys);
        assert_eq!(
            cache.reads(),
            1,
            "one batch is one read, however many shards"
        );
        for (pos, &key) in keys.iter().enumerate() {
            assert_eq!(out[pos].is_some(), key < 64, "answers stay in input order");
        }
        assert_eq!(cache.hits(), 64);
        assert_eq!(cache.misses(), 64);
    }

    #[test]
    fn concurrent_writers_over_shared_shards_lose_nothing() {
        let cache = SweepCache::in_memory();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                scope.spawn(move || {
                    for k in 0..256u64 {
                        // Overlapping key ranges: every thread stores the
                        // same 256 keys (same values), racing per shard.
                        cache.store_eval(k, EvalEntry::Infeasible { blocked: None });
                        cache.store_test(k.wrapping_mul(0x9E37_79B9), 1.5);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 512);
        for k in 0..256u64 {
            assert_eq!(
                cache.lookup_eval(k),
                Some(EvalEntry::Infeasible { blocked: None })
            );
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let a = Fingerprint::new().str("ab").str("c").finish();
        let b = Fingerprint::new().str("a").str("bc").finish();
        assert_ne!(a, b, "length prefix must separate string boundaries");
        let arch1 = Architecture::figure9();
        let mut arch2 = Architecture::figure9();
        assert_eq!(arch_fingerprint(&arch1), arch_fingerprint(&arch2));
        arch2.fus[0].trigger_bus = tta_arch::BusId(0);
        assert_ne!(
            arch_fingerprint(&arch1),
            arch_fingerprint(&arch2),
            "port→bus assignment is part of the identity"
        );
    }
}
