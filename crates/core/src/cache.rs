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
//! different model recomputes instead of trusting a stale total. Only
//! the v3 file is read: a directory holding nothing but an older
//! `ttadse-cache.v2` opens empty and runs cold once (the old file is
//! left untouched). A missing file, a wrong header, or any malformed
//! line degrades to a clean re-evaluation — a corrupt cache can cost
//! time, never correctness.
//!
//! ## The journal
//!
//! Rewriting the sorted file after every chunk of a sweep would make
//! persistence O(N²) in the sweep size. A sweep therefore
//! [checkpoints](SweepCache::checkpoint) each chunk by *appending* the
//! entries stored since the previous checkpoint to
//! `ttadse-cache.v3.journal` next to the v3 file: the same line
//! grammar, sorted within each append, no header, one `write_all` per
//! checkpoint. [`SweepCache::flush`] — once per run — compacts: it
//! merges memory, the v3 file and the journal, writes the sorted union
//! as the v3 file and removes the journal, so the final file is the
//! same bytes a chunk-by-chunk rewrite would have produced.
//!
//! [`SweepCache::open`] replays a journal left by an interrupted run
//! *after* the v3 file, so a killed sweep resumes from its last
//! checkpointed chunk:
//!
//! * **Replay rule.** A journal line overrides a v3 line with the same
//!   key, and a later journal line overrides an earlier one (a
//!   full-lift run upgrading an `E` line with its inline `T` suffix
//!   appends the upgraded line).
//! * **Torn-tail rule.** A crash mid-append can leave a last line
//!   without its `\n`; that line is dropped and every complete line
//!   before it is kept.
//! * Any other malformed journal line discards the whole journal but
//!   keeps the v3 file — again time, never correctness.
//! * Either way `open` cuts the journal back to the lines it kept, so
//!   the handle's first append starts a line of its own: appended onto
//!   a torn fragment, it would make one malformed line, and the next
//!   crash would lose the whole journal.
//!
//! [`SweepCache::flush`] merges with whatever is on disk before an
//! atomic rename, so concurrent sweeps sharing one directory union
//! their work on a best-effort basis: the rename keeps the file valid
//! at all times, and every flush folds in the journal other handles
//! appended, but two *simultaneous* flushes race and the loser's
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
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tta_arch::Architecture;
use tta_workloads::Workload;

/// On-disk *file layout* version: the header number and line grammar.
/// v3 added the optional inline test field on feasible `E` lines. Files
/// of any other layout are never read.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// *Content-address* version, folded into every entry's key. Bump it
/// whenever cached results could stop matching fresh ones: a
/// fingerprint-recipe change, but also any change to *evaluation
/// semantics* the fingerprints cannot see — the scheduler, the
/// component netlist generators, the ATPG/march engines, or the cost
/// formulas. The content address covers a point's inputs, not the code
/// that evaluates it; this constant is the version of that code. It is
/// deliberately separate from [`CACHE_FORMAT_VERSION`]: a layout change
/// alters how entries are *stored*, not what they *mean*, so it leaves
/// every content address as it was.
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

/// File name of the append-only journal that sweeps checkpoint into
/// between compactions (see the [module docs](self#the-journal)).
pub const JOURNAL_FILE_NAME: &str = "ttadse-cache.v3.journal";

const HEADER: &str = "ttadse-sweep-cache 3";

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
        /// entries written by Pareto-only sweeps, where the lift stage
        /// keys its totals separately as `T` lines. The fingerprint tag
        /// means a run with a different test model recomputes instead
        /// of trusting a stale total.
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

/// One parsed line of the v3 file or the journal: its key and entry.
type Line = ((Kind, u64), Entry);

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

/// One lock shard: its slice of the entries, plus — for a persistent
/// cache — the keys stored since the last checkpoint, so a checkpoint
/// appends only what is new instead of re-rendering the whole shard.
///
/// Entries are packed: `index` maps each key to the offset of its row in
/// one `rows` arena of `u64` words (see [`encode`] for the row layout).
/// A long-lived daemon holds hundreds of thousands of entries, and a
/// map of owned [`Entry`] values costs a ~96-byte bucket plus a heap
/// `Vec` per feasible entry; an indexed key costs ~13 bytes (see
/// [`KeyIndex`]) and a single-workload feasible row 4 words.
#[derive(Debug, Default)]
struct Shard {
    /// One index per [`Kind`].
    index: [KeyIndex; 2],
    rows: Vec<u64>,
    /// Arena words no index entry points at: rows replaced by a row of
    /// another length. Compacted away once they outweigh the live rows.
    dead: usize,
    pending: Vec<(Kind, u64)>,
}

impl Shard {
    /// The arena offset of `key`'s row.
    fn offset(&self, &(kind, key): &(Kind, u64)) -> Option<u32> {
        self.index[kind as usize].get(key)
    }

    /// Every key held, in no particular order.
    fn keys(&self) -> impl Iterator<Item = (Kind, u64)> + '_ {
        let [evals, tests] = &self.index;
        (evals.keys().map(|k| (Kind::Eval, k))).chain(tests.keys().map(|k| (Kind::Test, k)))
    }

    /// Number of entries held.
    fn len(&self) -> usize {
        self.index.iter().map(KeyIndex::len).sum()
    }

    /// The packed row of `key`.
    fn row(&self, key: &(Kind, u64)) -> Option<&[u64]> {
        let start = self.offset(key)? as usize;
        Some(&self.rows[start..start + row_len(&self.rows[start..])])
    }

    /// The entry under `key`, unpacked.
    fn get(&self, key: &(Kind, u64)) -> Option<Entry> {
        self.row(key).map(decode)
    }

    /// The sweep evaluation under `key`.
    fn get_eval(&self, key: u64) -> Option<EvalEntry> {
        match self.get(&(Kind::Eval, key))? {
            Entry::Eval(e) => Some(e),
            Entry::Test(_) => None,
        }
    }

    /// Stores `entry` under `key`; `false` when the key already held
    /// exactly this entry. The row is packed at the arena's end first:
    /// a new key keeps it there, a same-length replacement is copied
    /// over the old row, and a row of another length is re-pointed to,
    /// leaving the old words dead.
    fn insert(&mut self, key: (Kind, u64), entry: &Entry) -> bool {
        let start = self.rows.len();
        encode(entry, &mut self.rows);
        let len = self.rows.len() - start;
        let index = &mut self.index[key.0 as usize];
        let Some(old) = index.get(key.1) else {
            index.insert(key.1, row_offset(start));
            return true;
        };
        let old = old as usize;
        let old_len = row_len(&self.rows[old..]);
        if old_len == len {
            let changed = self.rows[old..old + len] != self.rows[start..];
            self.rows.copy_within(start.., old);
            self.rows.truncate(start);
            return changed;
        }
        index.insert(key.1, row_offset(start));
        self.dead += old_len;
        if self.dead > self.rows.len() / 2 {
            self.compact();
        }
        true
    }

    /// Rewrites the arena with the live rows only.
    fn compact(&mut self) {
        let mut rows = Vec::with_capacity(self.rows.len() - self.dead);
        for start in self.index.iter_mut().flat_map(KeyIndex::offsets_mut) {
            let old = *start as usize;
            *start = row_offset(rows.len());
            rows.extend_from_slice(&self.rows[old..old + row_len(&self.rows[old..])]);
        }
        self.rows = rows;
        self.dead = 0;
    }

    fn clear(&mut self) {
        *self = Shard::default();
    }
}

/// Fewest new keys a [`KeyIndex`] merges at once, so a small index does
/// not rebuild its sorted run on every insert.
const MERGE_MIN: usize = 64;

/// One kind's key → row-offset index. Most keys sit in a sorted run of
/// parallel key and offset vectors, 12 bytes a key, found by binary
/// search. A new key goes to a small hash map first, which is merged
/// into the run once it holds an eighth as many keys, so merging costs
/// a constant number of copies per key. A hash map alone would cost
/// 16-byte buckets at 44–87% load, up to 36 bytes a key, and would
/// double all at once.
#[derive(Debug, Default)]
struct KeyIndex {
    sorted: Vec<u64>,
    offsets: Vec<u32>,
    recent: HashMap<u64, u32>,
}

impl KeyIndex {
    fn get(&self, key: u64) -> Option<u32> {
        match self.sorted.binary_search(&key) {
            Ok(i) => Some(self.offsets[i]),
            Err(_) => self.recent.get(&key).copied(),
        }
    }

    /// Points `key` at `offset`. A key above the sorted run's last one
    /// extends the run in O(1) while no recent keys are pending, so a
    /// sorted v3 file loads without a merge.
    fn insert(&mut self, key: u64, offset: u32) {
        if self.recent.is_empty() && self.sorted.last().is_none_or(|&last| last < key) {
            self.sorted.push(key);
            self.offsets.push(offset);
            return;
        }
        if let Ok(i) = self.sorted.binary_search(&key) {
            self.offsets[i] = offset;
            return;
        }
        self.recent.insert(key, offset);
        if self.recent.len() >= MERGE_MIN.max(self.sorted.len() / 8) {
            self.merge();
        }
    }

    /// Moves the recent keys into the sorted run.
    fn merge(&mut self) {
        let mut recent: Vec<(u64, u32)> = std::mem::take(&mut self.recent).into_iter().collect();
        recent.sort_unstable();
        let len = self.sorted.len() + recent.len();
        let (mut keys, mut offsets) = (Vec::with_capacity(len), Vec::with_capacity(len));
        let mut run = self.sorted.iter().zip(&self.offsets).peekable();
        for (key, offset) in recent {
            while let Some((&k, &o)) = run.next_if(|(&k, _)| k < key) {
                keys.push(k);
                offsets.push(o);
            }
            keys.push(key);
            offsets.push(offset);
        }
        for (&k, &o) in run {
            keys.push(k);
            offsets.push(o);
        }
        self.sorted = keys;
        self.offsets = offsets;
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.recent.len()
    }

    /// Every key, in no particular order.
    fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.sorted.iter().chain(self.recent.keys()).copied()
    }

    /// Every offset, for rewriting them all.
    fn offsets_mut(&mut self) -> impl Iterator<Item = &mut u32> {
        self.offsets.iter_mut().chain(self.recent.values_mut())
    }
}

/// An arena offset as stored in a shard index.
fn row_offset(start: usize) -> u32 {
    u32::try_from(start).expect("a cache shard holds at most 2^32 words")
}

// Row layout. The first word of a row is its header: the tag in bits
// 0–1, the inline-test flag in bit 2, the summed-cycles flag in bit 3,
// a feasible row's workload count in bits 4–31, and a `u32` payload in
// bits 32–63 (the blocked workload, or the spill count). A feasible row
// continues with its cycles (left out when they are the sum of the
// per-workload cycles, as the sweep computes them), area bits, exec
// bits, the optional (model fingerprint, test bits) pair and the
// per-workload cycles; a test row with its total's bits.
const TAG_INFEASIBLE: u64 = 0;
const TAG_BLOCKED: u64 = 1;
const TAG_FEASIBLE: u64 = 2;
const TAG_TEST: u64 = 3;
const HAS_TEST: u64 = 1 << 2;
const SUMMED: u64 = 1 << 3;
/// Bound on a feasible row's workload count, which its header holds in
/// bits 4–31; the loader rejects a line with more.
const MAX_ROW_WORKLOADS: usize = 1 << 28;

/// Appends `entry`'s packed row to `out`.
fn encode(entry: &Entry, out: &mut Vec<u64>) {
    match entry {
        Entry::Eval(EvalEntry::Infeasible { blocked: None }) => out.push(TAG_INFEASIBLE),
        Entry::Eval(EvalEntry::Infeasible { blocked: Some(w) }) => {
            out.push(TAG_BLOCKED | u64::from(*w) << 32);
        }
        Entry::Eval(EvalEntry::Feasible {
            cycles,
            workload_cycles,
            spills,
            area_bits,
            exec_bits,
            test,
        }) => {
            assert!(
                workload_cycles.len() < MAX_ROW_WORKLOADS,
                "a cache row holds fewer than 2^28 workloads"
            );
            let summed = workload_cycles
                .iter()
                .try_fold(0u64, |sum, &c| sum.checked_add(c))
                == Some(*cycles);
            let flags = if test.is_some() { HAS_TEST } else { 0 } | if summed { SUMMED } else { 0 };
            out.push(
                TAG_FEASIBLE
                    | flags
                    | (workload_cycles.len() as u64) << 4
                    | u64::from(*spills) << 32,
            );
            if !summed {
                out.push(*cycles);
            }
            out.extend([*area_bits, *exec_bits]);
            if let Some((fp, bits)) = test {
                out.extend([*fp, *bits]);
            }
            out.extend_from_slice(workload_cycles);
        }
        Entry::Test(bits) => out.extend([TAG_TEST, *bits]),
    }
}

/// Length in words of the row starting at `row[0]`.
fn row_len(row: &[u64]) -> usize {
    match row[0] & 3 {
        TAG_INFEASIBLE | TAG_BLOCKED => 1,
        TAG_FEASIBLE => {
            3 + usize::from(row[0] & SUMMED == 0)
                + 2 * usize::from(row[0] & HAS_TEST != 0)
                + workload_count(row[0])
        }
        _ => 2,
    }
}

/// The workload count of a feasible row's header.
fn workload_count(header: u64) -> usize {
    ((header >> 4) & (MAX_ROW_WORKLOADS as u64 - 1)) as usize
}

/// Unpacks a row written by [`encode`].
fn decode(row: &[u64]) -> Entry {
    let payload = (row[0] >> 32) as u32;
    match row[0] & 3 {
        TAG_INFEASIBLE => Entry::Eval(EvalEntry::Infeasible { blocked: None }),
        TAG_BLOCKED => Entry::Eval(EvalEntry::Infeasible {
            blocked: Some(payload),
        }),
        TAG_FEASIBLE => {
            let summed = row[0] & SUMMED != 0;
            let rest = &row[1 + usize::from(!summed)..];
            let (test, workload_cycles) = if row[0] & HAS_TEST != 0 {
                (Some((rest[2], rest[3])), &rest[4..])
            } else {
                (None, &rest[2..])
            };
            Entry::Eval(EvalEntry::Feasible {
                cycles: if summed {
                    workload_cycles.iter().sum()
                } else {
                    row[1]
                },
                workload_cycles: workload_cycles.to_vec(),
                spills: payload,
                area_bits: rest[0],
                exec_bits: rest[1],
                test,
            })
        }
        _ => Entry::Test(row[1]),
    }
}

/// `(len, mtime)` quick-check signature of a file.
type DiskSig = Option<(u64, std::time::SystemTime)>;

/// What one handle knows of the files on disk, so a flush re-reads only
/// what another writer may have changed.
#[derive(Debug, Default)]
struct DiskState {
    /// The v3 file's signature as of the last load or flush.
    file: DiskSig,
    /// The journal's length as this handle left it: its length at open
    /// plus this handle's appends, 0 once a flush removed it. Every line
    /// in that length is in memory already.
    journal_len: u64,
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
    journal: PathBuf,
    shards: [Mutex<Shard>; SHARDS],
    dirty: std::sync::atomic::AtomicBool,
    /// Rsync-style quick checks, so a flush skips re-parsing a file
    /// nobody else has touched. The lock is also held across every
    /// checkpoint and flush (always before any shard lock), so one
    /// handle's journal appends and compactions never interleave.
    disk_state: Mutex<DiskState>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Counted *lookup operations* (lock acquisitions for reading), as
    /// opposed to the per-key hit/miss tallies: a batched lookup of 64
    /// keys is 1 read but 64 hit/miss counts. Regression guard for the
    /// sweep loop's access pattern — see [`SweepCache::reads`].
    reads: AtomicU64,
    checkpoints: AtomicU64,
    journal_bytes: AtomicU64,
    compactions: AtomicU64,
}

/// Quick-check signature of the file at `path`.
fn stat_sig(path: &Path) -> DiskSig {
    let meta = fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()?))
}

/// Removes `path`, treating an already-missing file as success.
fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

impl SweepCache {
    /// Opens (creating the directory if needed) the cache under `dir`,
    /// loading whatever valid entries the on-disk file holds, then
    /// replaying the journal an interrupted run may have left (see the
    /// [module docs](self#the-journal) for the replay and torn-tail
    /// rules). A missing, corrupt or version-mismatched file yields an
    /// empty cache — never an error; only an unusable *directory* is
    /// reported.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when `dir` cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SweepCache> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE_NAME);
        let journal = dir.join(JOURNAL_FILE_NAME);
        let mut shards: [Shard; SHARDS] = std::array::from_fn(|_| Shard::default());
        let mut disk = DiskState::default();
        if read_entries(&path, |k, v| {
            shards[shard_of(k.1)].insert(k, &v);
        }) {
            disk.file = stat_sig(&path);
        } else {
            shards.iter_mut().for_each(Shard::clear);
        }
        // Journal lines win over file lines; a journal on disk also
        // leaves the cache dirty, so the next flush compacts it away.
        let replayed = load_journal(&journal);
        let dirty = replayed.is_some();
        if let Some(replayed) = replayed {
            cut_journal(&journal, &replayed);
            disk.journal_len = replayed.trusted;
            for (k, v) in replayed.entries {
                shards[shard_of(k.1)].insert(k, &v);
            }
        }
        let mut cache = SweepCache::with_shards(path, journal, shards, disk);
        *cache.dirty.get_mut() = dirty;
        Ok(cache)
    }

    /// An in-memory cache that never touches disk ([`SweepCache::flush`]
    /// and [`SweepCache::checkpoint`] are no-ops). Useful for tests and
    /// for sharing work between repeated in-process runs.
    pub fn in_memory() -> SweepCache {
        SweepCache::with_shards(
            PathBuf::new(),
            PathBuf::new(),
            std::array::from_fn(|_| Shard::default()),
            DiskState::default(),
        )
    }

    fn with_shards(
        path: PathBuf,
        journal: PathBuf,
        shards: [Shard; SHARDS],
        disk_state: DiskState,
    ) -> SweepCache {
        SweepCache {
            path,
            journal,
            shards: shards.map(Mutex::new),
            dirty: std::sync::atomic::AtomicBool::new(false),
            disk_state: Mutex::new(disk_state),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            journal_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Locks shard `i`, shrugging off poison: the map data protected by
    /// a shard lock is never left half-written (every cache method
    /// completes its single map operation before anything that can
    /// panic), so a poisoned guard's contents are safe to keep serving.
    /// Without this, one panicking job in a long-lived daemon would
    /// permanently wedge every later job on `PoisonError`.
    fn shard(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the shard owning `key`.
    fn shard_for(&self, key: u64) -> MutexGuard<'_, Shard> {
        self.shard(shard_of(key))
    }

    /// Locks the disk state (poison-tolerant, like the shards).
    fn disk(&self) -> MutexGuard<'_, DiskState> {
        self.disk_state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether this cache persists to disk (not [`SweepCache::in_memory`]).
    fn persistent(&self) -> bool {
        !self.path.as_os_str().is_empty()
    }

    /// The on-disk file this cache persists to (empty for
    /// [`SweepCache::in_memory`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The journal file checkpoints append to (empty for
    /// [`SweepCache::in_memory`]).
    pub fn journal_path(&self) -> &Path {
        &self.journal
    }

    /// Looks up a sweep evaluation. Hit/miss counters are updated, and
    /// the operation counts as one read.
    pub fn lookup_eval(&self, key: u64) -> Option<EvalEntry> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let found = self.shard_for(key).get_eval(key);
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
                out[pos] = shard.get_eval(keys[pos]);
                hits += u64::from(out[pos].is_some());
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses
            .fetch_add(keys.len() as u64 - hits, Ordering::Relaxed);
        out
    }

    /// Whether a test-cost lift for `key` is present, *without* touching
    /// the hit/miss counters (unlike [`SweepCache::lookup_test`]).
    pub fn contains_test(&self, key: u64) -> bool {
        self.shard_for(key).offset(&(Kind::Test, key)).is_some()
    }

    /// Stores an entry in memory and, for a persistent cache, queues
    /// its key for the next checkpoint. Storing the entry a key already
    /// holds changes nothing and journals nothing (a parallel sweep
    /// stores a point a worker evaluated before an earlier chunk's merge
    /// stored the same content address).
    fn store(&self, key: (Kind, u64), entry: Entry) {
        let mut shard = self.shard_for(key.1);
        if !shard.insert(key, &entry) {
            return;
        }
        if self.persistent() {
            shard.pending.push(key);
        }
        drop(shard);
        self.dirty.store(true, Ordering::Release);
    }

    /// Stores a sweep evaluation (in memory; [`SweepCache::checkpoint`]
    /// and [`SweepCache::flush`] persist).
    pub fn store_eval(&self, key: u64, entry: EvalEntry) {
        self.store((Kind::Eval, key), Entry::Eval(entry));
    }

    /// Looks up a lifted test-cost total (exact bit pattern). One read.
    pub fn lookup_test(&self, key: u64) -> Option<f64> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let found = match self.shard_for(key).get(&(Kind::Test, key)) {
            Some(Entry::Test(bits)) => Some(f64::from_bits(bits)),
            _ => None,
        };
        self.count(found.is_some());
        found
    }

    /// Stores a lifted test-cost total.
    pub fn store_test(&self, key: u64, total: f64) {
        self.store((Kind::Test, key), Entry::Test(total.to_bits()));
    }

    /// Recounts `n` lookups that found an entry as misses: the sweep
    /// calls it for entries it found but could not trust and had to
    /// re-evaluate, so [`SweepCache::misses`] counts every point that
    /// needed a fresh evaluation.
    pub(crate) fn count_rejected(&self, n: u64) {
        if n > 0 {
            self.hits.fetch_sub(n, Ordering::Relaxed);
            self.misses.fetch_add(n, Ordering::Relaxed);
        }
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

    /// Journal appends since the cache was opened (checkpoints that
    /// found nothing new write nothing and are not counted).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Bytes appended to the journal since the cache was opened.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.load(Ordering::Relaxed)
    }

    /// Compactions (v3 file rewrites by [`SweepCache::flush`]) since the
    /// cache was opened.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
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

    /// Appends the entries stored since the last checkpoint (or flush)
    /// to the journal, as sorted v3 lines in one `write_all` — O(new
    /// entries), whatever the cache's size. The sweep engine calls this
    /// once per chunk, so a killed run resumes from its last completed
    /// chunk; [`SweepCache::flush`] later compacts the journal into the
    /// v3 file.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when the append fails. The
    /// entries stay in memory, so the next flush still persists them;
    /// only crash-resume granularity is lost. In-memory caches return
    /// `Ok(())` without touching disk.
    pub fn checkpoint(&self) -> io::Result<()> {
        if !self.persistent() {
            return Ok(());
        }
        let mut disk = self.disk();
        let mut fresh: Vec<Line> = Vec::new();
        for i in 0..SHARDS {
            let mut shard = self.shard(i);
            let mut pending = std::mem::take(&mut shard.pending);
            // A key stored twice since the last checkpoint is journaled
            // once, with its current value.
            pending.sort_unstable();
            pending.dedup();
            fresh.extend(pending.into_iter().map(|k| {
                let entry = shard.get(&k).expect("a pending key is held");
                (k, entry)
            }));
        }
        if fresh.is_empty() {
            return Ok(());
        }
        // Keys are distinct across shards, and ordering by (kind, key)
        // is ordering by rendered line (fixed-width lowercase hex).
        fresh.sort_unstable_by_key(|(k, _)| *k);
        let mut body = String::with_capacity(fresh.len() * 64);
        for (k, v) in &fresh {
            render_line(&mut body, k, v);
        }
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.journal)?
            .write_all(body.as_bytes())?;
        disk.journal_len += body.len() as u64;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.journal_bytes
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Persists the cache: merges the in-memory entries with whatever is
    /// on disk (another process may have flushed or checkpointed
    /// meanwhile), then writes the sorted union atomically (a
    /// per-process temp file + rename), so an interrupted or concurrent
    /// flush leaves a valid file intact, and finally removes the
    /// journal its lines were merged from. A no-op when nothing was
    /// stored since the last flush and no journal exists, so warm
    /// re-runs never rewrite the file.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] on write failure. In-memory
    /// caches return `Ok(())` without touching disk.
    pub fn flush(&self) -> io::Result<()> {
        if !self.persistent() || (!self.dirty.load(Ordering::Acquire) && !self.journal.exists()) {
            return Ok(());
        }
        let mut disk = self.disk();
        // All shard locks are taken in index order (every whole-cache
        // operation uses this order, so two concurrent flushes cannot
        // deadlock) and held for the duration: the flushed file is a
        // consistent snapshot even while other jobs keep storing.
        let mut shards: Vec<MutexGuard<'_, Shard>> = (0..SHARDS).map(|i| self.shard(i)).collect();
        // Merge a file only when another writer has plausibly touched it
        // since this handle last read or wrote it: the v3 file by its
        // quick check, the journal by the length this handle left it at
        // (another handle's appends leave the v3 quick check unchanged).
        // First insert wins, so memory beats the journal (newest line
        // first) and the journal beats the file (last line first, as a
        // load replays it).
        let journal = match fs::metadata(&self.journal) {
            Ok(meta) if meta.len() != disk.journal_len => load_journal(&self.journal),
            _ => None,
        };
        let mut file = Vec::new();
        if stat_sig(&self.path) != disk.file && !read_entries(&self.path, |k, v| file.push((k, v)))
        {
            file.clear();
        }
        let journal = journal.map(|read| read.entries).unwrap_or_default();
        for (k, v) in journal.into_iter().rev().chain(file.into_iter().rev()) {
            let shard = &mut shards[shard_of(k.1)];
            if shard.offset(&k).is_none() {
                shard.insert(k, &v);
            }
        }
        let mut keys: Vec<(Kind, u64)> = shards.iter().flat_map(|shard| shard.keys()).collect();
        // Deterministic file contents: sorted by (kind, key), which is
        // the rendered lines' byte order — not hash order.
        keys.sort_unstable();
        let mut body = String::with_capacity(keys.len() * 64 + HEADER.len() + 1);
        body.push_str(HEADER);
        body.push('\n');
        for k in &keys {
            let entry = shards[shard_of(k.1)].get(k).expect("a listed key is held");
            render_line(&mut body, k, &entry);
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
        // dirty (and the journal stays), so the next flush retries, and
        // each retry would otherwise strand another temp file.
        if let Err(e) = fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, &self.path)) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        for shard in &mut shards {
            shard.pending.clear();
        }
        self.dirty.store(false, Ordering::Release);
        disk.file = stat_sig(&self.path);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        remove_if_present(&self.journal)?;
        disk.journal_len = 0;
        Ok(())
    }

    /// Drops every entry, in memory and on disk (the v3 file and the
    /// journal).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`io::Error`] when a cache file exists
    /// but cannot be removed.
    pub fn invalidate(&self) -> io::Result<()> {
        let mut disk = self.disk();
        for i in 0..SHARDS {
            self.shard(i).clear();
        }
        self.dirty.store(false, Ordering::Release);
        *disk = DiskState::default();
        if self.persistent() {
            remove_if_present(&self.path)?;
            remove_if_present(&self.journal)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------

/// Appends `entry`'s line, `\n`-terminated, to `s`.
fn render_line(s: &mut String, key: &(Kind, u64), entry: &Entry) {
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
    s.push('\n');
}

/// Hands every entry of the v3 cache file at `path` to `each`, in file
/// order (a later line replaces an earlier one with the same key).
/// Returns `false` (≙ empty cache: the caller drops what it was handed)
/// for a missing file, a bad header, or *any* malformed line — a cache
/// that cannot be trusted in full is not trusted at all.
fn read_entries(path: &Path, mut each: impl FnMut((Kind, u64), Entry)) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return false;
    }
    for line in lines.filter(|line| !line.is_empty()) {
        let Some((key, entry)) = parse_line(line) else {
            return false;
        };
        each(key, entry);
    }
    true
}

/// A journal as one read found it.
struct Journal {
    /// The entries of every complete line, in file order (later lines
    /// win when replayed), with a torn last line (no trailing `\n`)
    /// dropped — or no entries at all when any complete line is
    /// malformed.
    entries: Vec<Line>,
    /// The length of the prefix the entries came from: the complete
    /// lines, or 0 when they were distrusted.
    trusted: u64,
    /// The length read.
    len: u64,
}

/// Reads the journal at `path`; `None` when there is none.
fn load_journal(path: &Path) -> Option<Journal> {
    let bytes = fs::read(path).ok()?;
    let complete = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(end) => &bytes[..=end],
        None => &[],
    };
    let entries: Option<Vec<_>> = std::str::from_utf8(complete).ok().and_then(|text| {
        text.lines()
            .filter(|line| !line.is_empty())
            .map(parse_line)
            .collect()
    });
    let (entries, trusted) = match entries {
        Some(entries) => (entries, complete.len() as u64),
        None => (Vec::new(), 0),
    };
    Some(Journal {
        entries,
        trusted,
        len: bytes.len() as u64,
    })
}

/// Cuts the journal at `path` back to the bytes `read` trusted, so this
/// handle's first append starts a line of its own instead of extending
/// a torn one (or following lines a replay distrusts). A journal that
/// changed length since it was read is left alone: another handle has
/// appended, and the tail read as torn was its append in flight. Best
/// effort: a journal left longer than this handle expects is re-read by
/// its flush.
fn cut_journal(path: &Path, read: &Journal) {
    if read.len > read.trusted && fs::metadata(path).is_ok_and(|meta| meta.len() == read.len) {
        if let Ok(file) = fs::OpenOptions::new().write(true).open(path) {
            let _ = file.set_len(read.trusted);
        }
    }
}

fn parse_line(line: &str) -> Option<Line> {
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
                if workload_cycles.len() >= MAX_ROW_WORKLOADS {
                    return None;
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

    /// The evaluation stored under `key`, read the way the sweep reads
    /// it (one batched lookup).
    fn eval_at(cache: &SweepCache, key: u64) -> Option<EvalEntry> {
        cache.lookup_eval_batch(&[key]).pop().flatten()
    }

    /// Whether a full-lift sweep with test model `test_fp` can answer
    /// `key` from the cache alone: an infeasible entry, or a feasible
    /// one carrying that model's inline test total.
    fn answers_full_lift(cache: &SweepCache, key: u64, test_fp: u64) -> bool {
        match eval_at(cache, key) {
            Some(EvalEntry::Infeasible { .. }) => true,
            Some(EvalEntry::Feasible {
                test: Some((fp, _)),
                ..
            }) => fp == test_fp,
            _ => false,
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
        assert!(answers_full_lift(&reloaded, 1, 0xdead_beef));
        assert!(!answers_full_lift(&reloaded, 1, 0xbad));
        assert!(!answers_full_lift(&reloaded, 2, 0xdead_beef));
        assert!(answers_full_lift(&reloaded, 3, 0xdead_beef));
        assert!(!answers_full_lift(&reloaded, 4, 0xdead_beef));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_v2_file_is_never_read_with_or_without_a_v3_one() {
        let dir = tmpdir("v2-never-read");
        fs::create_dir_all(&dir).unwrap();
        let v2_path = dir.join("ttadse-cache.v2");
        let v2 = "ttadse-sweep-cache 2\nE 0000000000000001 I\n";
        fs::write(&v2_path, v2).unwrap();
        // Alone, the v2 file opens as an empty cache.
        let cache = SweepCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert_eq!(eval_at(&cache, 1), None);
        // Beside a v3 file, only the v3 entries load.
        fs::write(
            dir.join(CACHE_FILE_NAME),
            format!("{HEADER}\nE 0000000000000002 I\n"),
        )
        .unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(eval_at(&cache, 1), None);
        assert_eq!(
            eval_at(&cache, 2),
            Some(EvalEntry::Infeasible { blocked: None })
        );
        // A flush rewrites the v3 file only.
        cache.store_eval(3, EvalEntry::Infeasible { blocked: Some(0) });
        cache.flush().unwrap();
        assert_eq!(
            fs::read_to_string(cache.path()).unwrap(),
            format!("{HEADER}\nE 0000000000000002 I\nE 0000000000000003 I 0\n")
        );
        assert_eq!(fs::read_to_string(&v2_path).unwrap(), v2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hand_written_file_loads_every_line_kind() {
        let dir = tmpdir("hand-written");
        fs::create_dir_all(&dir).unwrap();
        // The documented grammar, written by hand rather than by
        // `render_line`: a feasible entry without the inline test
        // suffix, an infeasible one blaming a workload, a standalone T
        // line.
        let text = format!(
            "{HEADER}\n\
             E 000000000000002a F 1234 3 {:016x} {:016x} 1000 234\n\
             E 000000000000002b I 1\n\
             T 000000000000002a {:016x}\n",
            4000.5f64.to_bits(),
            77.25f64.to_bits(),
            99.75f64.to_bits(),
        );
        fs::write(dir.join(CACHE_FILE_NAME), &text).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.lookup_eval(0x2a), Some(sample_feasible()));
        assert_eq!(
            cache.lookup_eval(0x2b),
            Some(EvalEntry::Infeasible { blocked: Some(1) })
        );
        assert_eq!(cache.lookup_test(0x2a), Some(99.75));
        // Without the suffix, the entry cannot answer a full lift.
        assert!(!answers_full_lift(&cache, 0x2a, 7));
        // A flush renders every loaded line back byte for byte.
        cache.store_eval(0x2c, EvalEntry::Infeasible { blocked: None });
        cache.flush().unwrap();
        let (head, tests) = text.split_at(text.find("\nT ").unwrap() + 1);
        assert_eq!(
            fs::read_to_string(cache.path()).unwrap(),
            format!("{head}E 000000000000002c I\n{tests}")
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
    fn every_row_layout_round_trips() {
        let feasible = |cycles: u64, workload_cycles: Vec<u64>, test| EvalEntry::Feasible {
            cycles,
            workload_cycles,
            spills: u32::MAX,
            area_bits: 4000.5f64.to_bits(),
            exec_bits: 77.25f64.to_bits(),
            test,
        };
        let test = Some((0xdead_beef, 512.25f64.to_bits()));
        let entries = [
            Entry::Eval(EvalEntry::Infeasible { blocked: None }),
            Entry::Eval(EvalEntry::Infeasible {
                blocked: Some(u32::MAX),
            }),
            Entry::Test(u64::MAX),
            // Summed cycles are left out of the row; any other value,
            // an overflowing sum included, is kept.
            Entry::Eval(feasible(1234, vec![1000, 234], None)),
            Entry::Eval(feasible(1234, vec![1000, 234], test)),
            Entry::Eval(feasible(1235, vec![1000, 234], None)),
            Entry::Eval(feasible(7, vec![u64::MAX, 8], test)),
            Entry::Eval(feasible(0, Vec::new(), None)),
            Entry::Eval(feasible(9, Vec::new(), test)),
        ];
        let mut rows = Vec::new();
        let starts: Vec<usize> = entries
            .iter()
            .map(|entry| {
                let start = rows.len();
                encode(entry, &mut rows);
                start
            })
            .collect();
        for (entry, &start) in entries.iter().zip(&starts) {
            let row = &rows[start..start + row_len(&rows[start..])];
            assert_eq!(&decode(row), entry);
        }
        let lens: Vec<usize> = starts.iter().map(|&s| row_len(&rows[s..])).collect();
        assert_eq!(lens, [1, 1, 2, 5, 7, 6, 8, 3, 6]);
    }

    #[test]
    fn key_index_answers_across_merges() {
        let mut index = KeyIndex::default();
        let mut expected = std::collections::BTreeMap::new();
        let mut key = 0x9e37_79b9_7f4a_7c15_u64;
        for n in 0..5_000u32 {
            key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            // Every seventh insert re-points a key held since earlier.
            let k = if n % 7 == 6 {
                *expected.keys().nth(n as usize / 2).unwrap()
            } else {
                key
            };
            index.insert(k, n);
            expected.insert(k, n);
            if n % 499 == 0 || n == 4_999 {
                assert_eq!(index.len(), expected.len());
                assert!(expected.iter().all(|(&k, &o)| index.get(k) == Some(o)));
                assert_eq!(index.get(!k), None);
            }
        }
        assert!(
            index.sorted.windows(2).all(|w| w[0] < w[1]),
            "the run is sorted"
        );
        assert!(index.recent.len() < index.sorted.len() / 8 + MERGE_MIN);
        let mut keys: Vec<u64> = index.keys().collect();
        keys.sort_unstable();
        assert!(keys.iter().eq(expected.keys()));
        index.offsets_mut().for_each(|o| *o += 1);
        assert!(expected.iter().all(|(&k, &o)| index.get(k) == Some(o + 1)));
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
        // Both handles checkpoint into the one journal. `b` wrote the v3
        // file last, so its quick check sees it untouched — its flush
        // must still fold in `a`'s journal lines.
        a.store_eval(3, EvalEntry::Infeasible { blocked: Some(0) });
        b.store_eval(4, sample_feasible_with_test());
        a.checkpoint().unwrap();
        b.checkpoint().unwrap();
        b.flush().unwrap();
        assert!(!dir.join(JOURNAL_FILE_NAME).exists());
        assert_eq!(SweepCache::open(&dir).unwrap().len(), 4);
        a.flush().unwrap();
        let merged = SweepCache::open(&dir).unwrap();
        assert_eq!(merged.len(), 4);
        assert_eq!(
            merged.lookup_eval(3),
            Some(EvalEntry::Infeasible { blocked: Some(0) })
        );
        assert_eq!(merged.lookup_eval(4), Some(sample_feasible_with_test()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_appends_only_new_entries_as_sorted_lines() {
        let dir = tmpdir("checkpoint");
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(9, EvalEntry::Infeasible { blocked: None });
        cache.store_eval(2, EvalEntry::Infeasible { blocked: Some(1) });
        cache.store_eval(9, EvalEntry::Infeasible { blocked: Some(0) });
        cache.checkpoint().unwrap();
        // Nothing new: no append, no count.
        cache.checkpoint().unwrap();
        cache.store_test(1, 2.5);
        cache.checkpoint().unwrap();
        let journal = fs::read_to_string(cache.journal_path()).unwrap();
        assert_eq!(
            journal,
            format!(
                "E 0000000000000002 I 1\n\
                 E 0000000000000009 I 0\n\
                 T 0000000000000001 {:016x}\n",
                2.5f64.to_bits()
            )
        );
        assert_eq!(cache.checkpoints(), 2);
        assert_eq!(cache.journal_bytes(), journal.len() as u64);
        assert!(
            !cache.path().exists(),
            "a checkpoint never writes the v3 file"
        );
        // A reopened handle replays the journal.
        let reopened = SweepCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.lookup_test(1), Some(2.5));
        // The flush compacts: sorted v3 file, journal gone.
        cache.flush().unwrap();
        assert_eq!(cache.compactions(), 1);
        assert!(!cache.journal_path().exists());
        assert_eq!(
            fs::read_to_string(cache.path()).unwrap(),
            format!("{HEADER}\n{journal}")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn storing_the_held_entry_again_journals_nothing() {
        let dir = tmpdir("restore-same");
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(7, sample_feasible());
        cache.checkpoint().unwrap();
        let journal = fs::read_to_string(cache.journal_path()).unwrap();
        // The same entry again is no change: nothing pending, no append.
        cache.store_eval(7, sample_feasible());
        assert!(cache.shard_for(7).pending.is_empty());
        cache.checkpoint().unwrap();
        assert_eq!(cache.checkpoints(), 1);
        assert_eq!(fs::read_to_string(cache.journal_path()).unwrap(), journal);
        // A different entry under the key is a change.
        cache.store_eval(7, sample_feasible_with_test());
        cache.checkpoint().unwrap();
        assert_eq!(cache.checkpoints(), 2);
        assert_eq!(eval_at(&cache, 7), Some(sample_feasible_with_test()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_checkpoints_track_and_write_nothing() {
        let cache = SweepCache::in_memory();
        cache.store_eval(1, EvalEntry::Infeasible { blocked: None });
        assert!(cache.shard_for(1).pending.is_empty());
        cache.checkpoint().unwrap();
        cache.flush().unwrap();
        assert_eq!(cache.checkpoints(), 0);
        assert_eq!(cache.compactions(), 0);
        assert_eq!(cache.journal_path(), Path::new(""));
    }

    #[test]
    fn journal_lines_win_over_file_lines_and_later_over_earlier() {
        let dir = tmpdir("journal-wins");
        fs::create_dir_all(&dir).unwrap();
        let mut plain = String::new();
        render_line(
            &mut plain,
            &(Kind::Eval, 0x2a),
            &Entry::Eval(sample_feasible()),
        );
        let mut upgraded = String::new();
        render_line(
            &mut upgraded,
            &(Kind::Eval, 0x2a),
            &Entry::Eval(sample_feasible_with_test()),
        );
        // A full-lift run upgraded the v3 file's entry in the journal…
        fs::write(dir.join(CACHE_FILE_NAME), format!("{HEADER}\n{plain}")).unwrap();
        fs::write(dir.join(JOURNAL_FILE_NAME), &upgraded).unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert!(answers_full_lift(&cache, 0x2a, 0xdead_beef));
        // …and the compaction keeps the upgrade.
        cache.flush().unwrap();
        assert_eq!(
            fs::read_to_string(cache.path()).unwrap(),
            format!("{HEADER}\n{upgraded}")
        );
        // Within the journal, the later line wins.
        fs::write(dir.join(JOURNAL_FILE_NAME), format!("{plain}{upgraded}")).unwrap();
        fs::remove_file(dir.join(CACHE_FILE_NAME)).unwrap();
        assert!(answers_full_lift(
            &SweepCache::open(&dir).unwrap(),
            0x2a,
            0xdead_beef
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replay_drops_a_torn_tail_and_distrusts_garbage() {
        let dir = tmpdir("journal-torn");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CACHE_FILE_NAME),
            format!("{HEADER}\nE 0000000000000001 I\n"),
        )
        .unwrap();
        // Torn tail: the half-written last line is dropped, the complete
        // line before it kept.
        fs::write(
            dir.join(JOURNAL_FILE_NAME),
            "E 0000000000000002 I\nE 00000000000000",
        )
        .unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(eval_at(&cache, 2).is_some());
        // A malformed complete line discards the journal, not the file.
        fs::write(
            dir.join(JOURNAL_FILE_NAME),
            "E 0000000000000002 I\nE zzzz I\nE 0000000000000003 I\n",
        )
        .unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(eval_at(&cache, 1).is_some());
        // Either way the journal leaves the cache dirty: the flush
        // compacts it away.
        cache.flush().unwrap();
        assert!(!dir.join(JOURNAL_FILE_NAME).exists());
        assert_eq!(
            fs::read_to_string(cache.path()).unwrap(),
            format!("{HEADER}\nE 0000000000000001 I\n")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_is_cut_before_the_next_append() {
        let dir = tmpdir("journal-cut");
        fs::create_dir_all(&dir).unwrap();
        let journal = dir.join(JOURNAL_FILE_NAME);
        // A killed run left one complete line and a torn one.
        fs::write(&journal, "E 0000000000000002 I\nE 00000000000000").unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(5, sample_feasible());
        cache.store_eval(7, EvalEntry::Infeasible { blocked: Some(0) });
        cache.checkpoint().unwrap();
        // The appended lines start on a line of their own, so a reopen
        // (after another crash: no flush) keeps them.
        let reopened = SweepCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(eval_at(&reopened, 5), Some(sample_feasible()));
        assert!(eval_at(&reopened, 2).is_some());
        // So does a journal a replay distrusted: it is cut to nothing.
        fs::write(&journal, "E zzzz I\n").unwrap();
        let cache = SweepCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        cache.store_eval(9, sample_feasible());
        cache.checkpoint().unwrap();
        assert_eq!(SweepCache::open(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_merges_another_handles_append_after_its_own_checkpoint() {
        let dir = tmpdir("journal-other");
        let a = SweepCache::open(&dir).unwrap();
        a.store_eval(1, sample_feasible());
        a.checkpoint().unwrap();
        // `b` opens after `a`'s checkpoint and appends behind it.
        let b = SweepCache::open(&dir).unwrap();
        assert_eq!(b.len(), 1);
        b.store_eval(2, EvalEntry::Infeasible { blocked: None });
        b.checkpoint().unwrap();
        a.store_eval(3, EvalEntry::Infeasible { blocked: Some(0) });
        a.checkpoint().unwrap();
        // `a`'s flush sees a journal longer than its own appends and
        // merges `b`'s line.
        a.flush().unwrap();
        assert!(!dir.join(JOURNAL_FILE_NAME).exists());
        let merged = SweepCache::open(&dir).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.lookup_eval(2),
            Some(EvalEntry::Infeasible { blocked: None })
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sorted_file_loads_straight_into_the_sorted_runs() {
        let dir = tmpdir("sorted-load");
        let cache = SweepCache::open(&dir).unwrap();
        for k in 0..4096u64 {
            cache.store_eval(
                k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                EvalEntry::Infeasible { blocked: None },
            );
            cache.store_test(k.wrapping_mul(0x2545_F491_4F6C_DD1D), k as f64);
        }
        cache.flush().unwrap();
        let loaded = SweepCache::open(&dir).unwrap();
        assert_eq!(loaded.len(), 8192);
        for i in 0..SHARDS {
            let shard = loaded.shard(i);
            for index in &shard.index {
                assert!(index.recent.is_empty(), "a loaded key waits for a merge");
                assert!(index.sorted.is_sorted());
            }
        }
        assert_eq!(
            loaded.lookup_test(3u64.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            Some(3.0)
        );
        // A malformed line still empties the whole cache.
        let text = fs::read_to_string(loaded.path()).unwrap();
        fs::write(loaded.path(), format!("{text}E zzzz I\n")).unwrap();
        assert!(SweepCache::open(&dir).unwrap().is_empty());
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
    fn invalidate_removes_the_journal_too() {
        let dir = tmpdir("invalidate-journal");
        let cache = SweepCache::open(&dir).unwrap();
        cache.store_eval(1, EvalEntry::Infeasible { blocked: None });
        cache.checkpoint().unwrap();
        assert!(cache.journal_path().exists());
        cache.invalidate().unwrap();
        assert!(!cache.journal_path().exists());
        // Nothing comes back on the next open, and nothing is pending.
        assert!(SweepCache::open(&dir).unwrap().is_empty());
        cache.checkpoint().unwrap();
        assert!(!cache.journal_path().exists());
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
