//! Integration tests of the persistent sweep cache: warm-cache runs are
//! bit-identical to cold ones (property-tested over workload/parallelism
//! variations), corrupt or version-mismatched cache files degrade to a
//! clean re-evaluation, an interrupted sweep resumes from its journal,
//! and unfingerprintable models opt out safely.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_core::cache::{EvalEntry, SweepCache, CACHE_FILE_NAME, JOURNAL_FILE_NAME};
use tta_core::explore::{CancelToken, Exploration, ExploreResult};
use tta_core::models::AreaModel;
use tta_core::search::Exhaustive;
use tta_core::ComponentDb;
use tta_workloads::suite;

/// One shared annotation database so the many small sweeps below pay
/// for the 8-bit component library once.
fn db() -> &'static ComponentDb {
    static DB: OnceLock<ComponentDb> = OnceLock::new();
    DB.get_or_init(ComponentDb::new)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-cache-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_tiny(rounds: usize, parallel: bool, cache: Option<&SweepCache>) -> ExploreResult {
    let w = suite::crypt(rounds);
    let mut e = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .threads(if parallel { 2 } else { 1 });
    if let Some(c) = cache {
        e = e.cache(c);
    }
    e.run()
}

/// Bit-exact comparison of two exploration results.
fn assert_bit_identical(a: &ExploreResult, b: &ExploreResult) {
    assert_eq!(a.evaluated.len(), b.evaluated.len());
    assert_eq!(a.infeasible, b.infeasible);
    assert_eq!(a.pareto, b.pareto);
    assert_eq!(a.workloads, b.workloads);
    for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
        assert_eq!(x.architecture.name, y.architecture.name);
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.workload_cycles, y.workload_cycles);
        assert_eq!(x.spills, y.spills);
        assert_eq!(x.objectives.axes(), y.objectives.axes());
        let xb: Vec<u64> = x.objectives.values().iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.objectives.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "objective bits differ for {}", x.architecture.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline property: for any workload size and threading mode,
    /// a warm-cache run is bit-identical to the cold run that filled the
    /// cache — and answers entirely from it.
    #[test]
    fn warm_cache_is_bit_identical_to_cold(rounds in 1usize..3, parallel in proptest::bool::ANY) {
        let dir = tmpdir(&format!("prop-{rounds}-{parallel}"));
        let cache = SweepCache::open(&dir).expect("temp dir is writable");
        let cold = run_tiny(rounds, parallel, Some(&cache));
        prop_assert!(cache.misses() > 0, "cold run must evaluate");

        // A fresh handle reloads purely from disk.
        let warm_cache = SweepCache::open(&dir).expect("reopen");
        let warm = run_tiny(rounds, parallel, Some(&warm_cache));
        prop_assert!(warm_cache.misses() == 0, "warm run must not evaluate");
        prop_assert!(warm_cache.hits() > 0);
        assert_bit_identical(&cold, &warm);

        // And the serial/parallel invariant still holds through the cache.
        let flipped = run_tiny(rounds, !parallel, Some(&warm_cache));
        assert_bit_identical(&cold, &flipped);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_cache_degrades_to_clean_reevaluation() {
    let dir = tmpdir("corrupt");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(CACHE_FILE_NAME),
        "ttadse-sweep-cache 1\nE not-hex F bogus\ngarbage line\n",
    )
    .unwrap();
    let cache = SweepCache::open(&dir).expect("open ignores corruption");
    assert!(cache.is_empty(), "corrupt file must load as empty");
    let with_cache = run_tiny(1, false, Some(&cache));
    let without = run_tiny(1, false, None);
    assert_bit_identical(&with_cache, &without);
    // The re-evaluation replaced the corrupt file with a valid one.
    let reloaded = SweepCache::open(&dir).expect("reopen");
    assert!(!reloaded.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_degrades_to_clean_reevaluation() {
    let dir = tmpdir("version");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(CACHE_FILE_NAME),
        "ttadse-sweep-cache 999\nE 0000000000000001 I\n",
    )
    .unwrap();
    let cache = SweepCache::open(&dir).expect("open ignores future versions");
    assert!(cache.is_empty());
    let with_cache = run_tiny(1, false, Some(&cache));
    let without = run_tiny(1, false, None);
    assert_bit_identical(&with_cache, &without);
    let _ = fs::remove_dir_all(&dir);
}

/// Number of sweep-evaluation (`E`) entries in the flushed cache file.
fn eval_entries(cache: &SweepCache) -> usize {
    fs::read_to_string(cache.path())
        .expect("flushed")
        .lines()
        .filter(|l| l.starts_with("E "))
        .count()
}

#[test]
fn changed_workload_misses_instead_of_serving_stale_results() {
    let dir = tmpdir("stale");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let first = run_tiny(1, false, Some(&cache));
    let n1 = eval_entries(&cache);
    assert_eq!(n1, first.evaluated.len() + first.infeasible);
    // Two crypt rounds are a different trace: every point gets a fresh
    // evaluation entry instead of a stale hit. (Test-cost lifts *are*
    // shared — they depend on the architecture, not the workload.)
    let second = run_tiny(2, false, Some(&cache));
    assert_eq!(
        eval_entries(&cache),
        n1 + second.evaluated.len() + second.infeasible,
        "each workload suite owns its evaluation entries"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn run_weighted(weights: (f64, f64), parallel: bool, cache: Option<&SweepCache>) -> ExploreResult {
    let a = suite::crypt(1);
    let b = suite::checksum32();
    let mut e = Exploration::over(TemplateSpace::tiny())
        .workload_weighted(&a, weights.0)
        .workload_weighted(&b, weights.1)
        .with_db(db())
        .threads(if parallel { 2 } else { 1 });
    if let Some(c) = cache {
        e = e.cache(c);
    }
    e.run()
}

#[test]
fn weighted_suites_are_warm_cold_bit_identical() {
    let dir = tmpdir("weighted");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let cold = run_weighted((3.0, 0.5), false, Some(&cache));
    assert!(cache.misses() > 0, "cold run must evaluate");

    let warm_cache = SweepCache::open(&dir).expect("reopen");
    let warm = run_weighted((3.0, 0.5), true, Some(&warm_cache));
    assert_eq!(warm_cache.misses(), 0, "warm run must not evaluate");
    assert_bit_identical(&cold, &warm);
    // Per-workload feasibility blame replays from the cache too.
    assert_eq!(cold.blocked, warm.blocked);
    for (x, y) in cold.evaluated.iter().zip(&warm.evaluated) {
        assert_eq!(x.weighted_cycles.to_bits(), y.weighted_cycles.to_bits());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_blocked_index_degrades_to_clean_reevaluation() {
    // A well-formed cache line whose blocked-workload payload is out of
    // range for the suite must be re-evaluated, not trusted (it would
    // otherwise index past the per-workload accounting).
    let run = |cache: Option<&SweepCache>| {
        // dct8 needs a MUL and tiny() has none: every point is
        // infeasible with the workload itself to blame, so the cache
        // holds `I 0` entries we can point out of range.
        let w = suite::dct8();
        let mut e = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(db());
        if let Some(c) = cache {
            e = e.cache(c);
        }
        e.run()
    };
    let dir = tmpdir("badblocked");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let clean = run(Some(&cache));
    assert!(clean.infeasible > 0 && clean.blocked == vec![clean.infeasible]);
    let text = fs::read_to_string(cache.path()).expect("flushed");
    assert!(text.contains(" I 0"), "expected blamed entries:\n{text}");
    fs::write(cache.path(), text.replace(" I 0", " I 7")).unwrap();

    let reopened = SweepCache::open(&dir).expect("reopen");
    let replayed = run(Some(&reopened));
    assert_bit_identical(&clean, &replayed);
    assert_eq!(clean.blocked, replayed.blocked);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reweighting_a_suite_misses_instead_of_serving_stale_results() {
    let dir = tmpdir("reweight");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let first = run_weighted((1.0, 1.0), false, Some(&cache));
    let n1 = eval_entries(&cache);
    // Same workloads, different weights: the exec-time axis changes, so
    // the content address must change with it.
    let second = run_weighted((1.0, 4.0), false, Some(&cache));
    assert_eq!(
        eval_entries(&cache),
        n1 + second.evaluated.len() + second.infeasible,
        "each weighting owns its evaluation entries"
    );
    for (x, y) in first.evaluated.iter().zip(&second.evaluated) {
        assert_eq!(x.workload_cycles, y.workload_cycles);
        assert!(y.exec_time() > x.exec_time(), "upweighting slows the axis");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unfingerprintable_model_bypasses_the_eval_cache() {
    struct FlatArea;
    impl AreaModel for FlatArea {
        fn area(&self, _: &Architecture, _: &ComponentDb) -> f64 {
            42.0
        }
        // No fingerprint() override: the default None opts out.
    }
    let dir = tmpdir("optout");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let w = suite::crypt(1);
    let first = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .area_model(FlatArea)
        .cache(&cache)
        .run();
    // Evaluations must not be cached (the area model is opaque); the
    // default test-cost model is fingerprintable, so lifts still are —
    // and that is sound, because a lift depends only on the
    // architecture, the test model and the annotation engines.
    let text = fs::read_to_string(cache.path()).expect("flushed");
    assert!(
        !text.lines().any(|l| l.starts_with("E ")),
        "no eval entries for an unfingerprintable model:\n{text}"
    );
    assert_eq!(
        text.lines().filter(|l| l.starts_with("T ")).count(),
        first.pareto.len(),
        "test lifts are still content-addressable"
    );
    // A second run is correct (and still flat-area).
    let second = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .area_model(FlatArea)
        .cache(&cache)
        .run();
    assert_bit_identical(&first, &second);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_sweep_reads_the_cache_once_per_chunk_not_per_point() {
    // Regression guard for the batched-prefetch path: the sweep loop
    // must issue ONE cache read per 64-point chunk (plus one per front
    // point for the test-cost lift), never one per point.
    let dir = tmpdir("reads");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let space = TemplateSpace::fast_default();
    let points = space.len();
    let w = suite::crypt(1);
    let result = Exploration::over(space)
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .run();
    let chunks = points.div_ceil(64) as u64;
    let lifts = result.pareto.len() as u64;
    assert_eq!(
        cache.reads(),
        chunks + lifts,
        "expected one batched read per chunk ({chunks}) plus one lift \
         probe per front point ({lifts}), for {points} points"
    );
    assert!(
        cache.reads() < points as u64,
        "reads must not scale per-point"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cross_space_points_share_entries() {
    // tiny() is a subset of fast_default(): a fast-space sweep must
    // pre-populate every tiny-space point.
    let dir = tmpdir("subset");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let w = suite::crypt(1);
    Exploration::over(TemplateSpace::fast_default())
        .workload(&w)
        .with_db(db())
        .cache(&cache)
        .run();
    let n = eval_entries(&cache);
    let h0 = cache.hits();
    run_tiny(1, false, Some(&cache));
    assert!(
        cache.hits() > h0,
        "tiny points were cached by the fast sweep"
    );
    assert_eq!(
        eval_entries(&cache),
        n,
        "no tiny point should re-evaluate (its front may still lift fresh test entries)"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Copies every file of `from` into a fresh `to`: the directory a
/// process killed at this instant would leave behind.
fn snapshot_dir(from: &PathBuf, to: &PathBuf) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A 256-point (four-chunk) huge-space neighbour walk.
fn walk(cache: &SweepCache) -> Exploration<'_> {
    Exploration::over(TemplateSpace::huge())
        .workload(&suite::crypt(1))
        .with_db(db())
        .strategy(Exhaustive::neighbour())
        .budget(256)
        .cache(cache)
}

#[test]
fn killed_walk_resumes_from_its_journal_to_the_cold_bytes() {
    // The uninterrupted cold reference.
    let cold_dir = tmpdir("journal-cold");
    let cold_cache = SweepCache::open(&cold_dir).expect("temp dir is writable");
    let cold = walk(&cold_cache).run();
    assert!(cold_cache.checkpoints() >= 4, "one checkpoint per chunk");
    assert_eq!(cold_cache.compactions(), 1, "one compaction per run");
    assert!(!cold_cache.journal_path().exists());
    let cold_bytes = fs::read(cold_cache.path()).expect("flushed");

    // Cancelled after two chunks. The progress observer runs after each
    // chunk's checkpoint, so its snapshot is what a kill at that
    // instant leaves: a journal, and no v3 file yet.
    let dir = tmpdir("journal-cancelled");
    let killed = tmpdir("journal-killed");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let token = CancelToken::new();
    let cancel = token.clone();
    let (from, to) = (dir.clone(), killed.clone());
    let mut chunks = 0;
    let partial = walk(&cache)
        .cancel_token(token)
        .progress(move |_| {
            chunks += 1;
            if chunks == 2 {
                snapshot_dir(&from, &to);
                cancel.cancel();
            }
        })
        .run();
    assert!(partial.cancelled);
    assert!(killed.join(JOURNAL_FILE_NAME).exists());
    assert!(!killed.join(CACHE_FILE_NAME).exists());
    // The cancelled run itself compacted on its way out.
    assert!(!cache.journal_path().exists());
    assert!(cache.path().exists());

    // Reopening the killed directory replays the journal, and finishing
    // the walk reproduces the cold run: same result bits, same file
    // bytes, no journal left.
    let reopened = SweepCache::open(&killed).expect("reopen");
    assert!(!reopened.is_empty(), "the journal replays");
    let resumed = walk(&reopened).run();
    assert!(
        reopened.hits() > cold_cache.hits(),
        "the checkpointed chunks are answered from the journal"
    );
    assert_bit_identical(&cold, &resumed);
    assert_eq!(fs::read(reopened.path()).expect("flushed"), cold_bytes);
    assert!(!reopened.journal_path().exists());
    for d in [&cold_dir, &dir, &killed] {
        let _ = fs::remove_dir_all(d);
    }
}

/// Runs a cold tiny sweep into `dir`, then turns its flushed v3 file
/// into a bare journal (the lines of a run killed before its flush).
/// Returns the result and the v3 file text.
fn journal_only(dir: &PathBuf) -> (ExploreResult, String) {
    let cache = SweepCache::open(dir).expect("temp dir is writable");
    let cold = run_tiny(1, false, Some(&cache));
    let text = fs::read_to_string(cache.path()).expect("flushed");
    fs::remove_file(cache.path()).unwrap();
    (cold, text)
}

#[test]
fn truncated_journal_tail_loads_every_complete_line() {
    let dir = tmpdir("journal-truncated");
    let (cold, text) = journal_only(&dir);
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let (last, complete) = lines.split_last().expect("entries");
    let mut journal: String = complete.iter().map(|l| format!("{l}\n")).collect();
    journal.push_str(&last[..last.len() / 2]);
    fs::write(dir.join(JOURNAL_FILE_NAME), journal).unwrap();

    let reopened = SweepCache::open(&dir).expect("reopen");
    assert_eq!(reopened.len(), complete.len());
    // Only the torn entry is recomputed; the flush restores the file.
    let warm = run_tiny(1, false, Some(&reopened));
    assert_bit_identical(&cold, &warm);
    assert_eq!(reopened.misses(), 1);
    assert_eq!(fs::read_to_string(reopened.path()).expect("flushed"), text);
    assert!(!reopened.journal_path().exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_journal_degrades_to_the_v3_file_alone() {
    let dir = tmpdir("journal-garbage");
    let (cold, text) = journal_only(&dir);
    fs::write(dir.join(CACHE_FILE_NAME), &text).unwrap();
    let first = text.lines().nth(1).expect("an entry");
    fs::write(
        dir.join(JOURNAL_FILE_NAME),
        format!("{first}\nE 0000000000000001 F bogus\n\u{0}\u{ff}garbage\n"),
    )
    .unwrap();

    let reopened = SweepCache::open(&dir).expect("reopen");
    assert_eq!(
        reopened.len(),
        text.lines().count() - 1,
        "the v3 file alone"
    );
    let warm = run_tiny(1, false, Some(&reopened));
    assert_bit_identical(&cold, &warm);
    assert_eq!(reopened.misses(), 0);
    assert_eq!(fs::read_to_string(reopened.path()).expect("flushed"), text);
    assert!(!reopened.journal_path().exists());
    let _ = fs::remove_dir_all(&dir);
}

/// Every shape an evaluation entry takes, each a distinct packed-row
/// layout: infeasible with and without a blocked workload, feasible with
/// zero, one and many workloads, with and without the inline test pair,
/// and the widest spill count.
fn every_eval_shape() -> Vec<EvalEntry> {
    let feasible =
        |workloads: Vec<u64>, spills: u32, test: Option<(u64, u64)>| EvalEntry::Feasible {
            cycles: workloads.len() as u64 * 1000 + 7,
            workload_cycles: workloads,
            spills,
            area_bits: 1234.5f64.to_bits(),
            exec_bits: f64::MAX.to_bits(),
            test,
        };
    let many: Vec<u64> = (0..37).map(|i| u64::MAX - i).collect();
    vec![
        EvalEntry::Infeasible { blocked: None },
        EvalEntry::Infeasible { blocked: Some(0) },
        EvalEntry::Infeasible {
            blocked: Some(u32::MAX),
        },
        feasible(vec![], 0, None),
        feasible(vec![42], 3, None),
        feasible(many.clone(), 9, None),
        feasible(vec![], 1, Some((0xfeed, 0.5f64.to_bits()))),
        feasible(vec![42], 0, Some((u64::MAX, u64::MAX))),
        feasible(many, u32::MAX, Some((0, 0))),
        feasible(vec![5, 6], u32::MAX, None),
    ]
}

#[test]
fn packed_rows_round_trip_every_entry_shape() {
    let dir = tmpdir("packed-rows");
    let cache = SweepCache::open(&dir).unwrap();
    let shapes = every_eval_shape();
    // Every row lands in the one arena, so rows of every length sit
    // back to back.
    for (i, entry) in shapes.iter().enumerate() {
        cache.store_eval(i as u64 * 16, entry.clone());
        cache.store_test(i as u64 * 16, i as f64 - 0.25);
    }
    cache.store_test(u64::MAX, f64::NEG_INFINITY);
    let check = |cache: &SweepCache, shapes: &[EvalEntry]| {
        let keys: Vec<u64> = (0..shapes.len() as u64).map(|i| i * 16).collect();
        let found = cache.lookup_eval_batch(&keys);
        for (i, entry) in shapes.iter().enumerate() {
            assert_eq!(found[i].as_ref(), Some(entry), "entry {i}");
            assert_eq!(cache.lookup_test(i as u64 * 16), Some(i as f64 - 0.25));
        }
        assert_eq!(cache.lookup_test(u64::MAX), Some(f64::NEG_INFINITY));
        assert_eq!(cache.len(), 2 * shapes.len() + 1);
    };
    check(&cache, &shapes);
    // Overwrite every entry with the next shape — rows of another length
    // mostly, some of the same — and then back, several times over:
    // replaced rows must never leak into their neighbours.
    let mut rotated = shapes.clone();
    for _ in 0..3 * shapes.len() {
        rotated.rotate_left(1);
        for (i, entry) in rotated.iter().enumerate() {
            cache.store_eval(i as u64 * 16, entry.clone());
        }
        check(&cache, &rotated);
    }
    // And through disk: the v3 file and a reopened cache agree.
    cache.flush().unwrap();
    check(&SweepCache::open(&dir).unwrap(), &rotated);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_stores_and_checkpoints_journal_every_current_value() {
    let dir = tmpdir("concurrent-checkpoints");
    let cache = SweepCache::open(&dir).unwrap();
    let shapes = every_eval_shape();
    let writing = std::sync::atomic::AtomicUsize::new(4);
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let (cache, shapes, writing) = (&cache, &shapes, &writing);
            scope.spawn(move || {
                // Every thread stores the same 48 keys with values of its
                // own, rows of every length among them.
                for round in 0..50u32 {
                    for k in 0..48u64 {
                        let shape = (k as usize + round as usize + t as usize) % shapes.len();
                        cache.store_eval(k, shapes[shape].clone());
                        cache.store_test(k, f64::from(t * 1000 + round));
                    }
                }
                writing.fetch_sub(1, std::sync::atomic::Ordering::Release);
            });
        }
        scope.spawn(|| {
            while writing.load(std::sync::atomic::Ordering::Acquire) > 0 {
                cache.checkpoint().unwrap();
            }
        });
    });
    cache.checkpoint().unwrap();
    let journal = fs::read(cache.journal_path()).unwrap();
    assert_eq!(journal.len() as u64, cache.journal_bytes());
    assert_eq!(journal.last(), Some(&b'\n'), "no torn append");
    // Replayed alone, the journal holds every key with its current
    // value, and so does the reopened directory.
    let alone = tmpdir("concurrent-checkpoints-journal");
    fs::create_dir_all(&alone).unwrap();
    fs::write(alone.join(JOURNAL_FILE_NAME), &journal).unwrap();
    for replayed in [
        SweepCache::open(&alone).unwrap(),
        SweepCache::open(&dir).unwrap(),
    ] {
        assert_eq!(replayed.len(), cache.len());
        let keys: Vec<u64> = (0..48).collect();
        assert_eq!(
            replayed.lookup_eval_batch(&keys),
            cache.lookup_eval_batch(&keys)
        );
        for k in keys {
            assert_eq!(replayed.lookup_test(k), cache.lookup_test(k), "key {k}");
        }
    }
    assert_eq!(cache.len(), 96);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&alone);
}
