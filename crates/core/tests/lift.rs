//! Lift-mode contracts: `LiftMode::ParetoOnly` (the default) is
//! bit-identical to the pre-lift-mode engine — objectives, front
//! indices and cache entries, including entries written by the previous
//! release's v2 cache files — while `LiftMode::Full` maintains a true
//! 3-D front that is a superset of the lifted 2-D one. Plus the
//! cache-flush failure path: a sweep that cannot persist reports it
//! through `CacheStatus` instead of silently claiming success.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_core::cache::{SweepCache, CACHE_FILE_NAME, LEGACY_CACHE_FILE_NAME};
use tta_core::explore::{CacheStatus, Exploration, ExploreResult, LiftMode, Objective};
use tta_core::models::{Eq14TestCostModel, ScanTestCostModel, TestCostModel};
use tta_core::pareto::pareto_front;
use tta_core::{ArchTestCost, ComponentDb};
use tta_workloads::suite;

fn db() -> &'static ComponentDb {
    static DB: OnceLock<ComponentDb> = OnceLock::new();
    DB.get_or_init(ComponentDb::new)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-lift-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run(
    space: TemplateSpace,
    lift: LiftMode,
    scan: bool,
    parallel: bool,
    cache: Option<&SweepCache>,
) -> ExploreResult {
    let w = suite::crypt(1);
    let mut e = Exploration::over(space)
        .workload(&w)
        .with_db(db())
        .lift(lift)
        .parallel(parallel);
    if scan {
        e = e.test_cost_model(ScanTestCostModel::new());
    }
    if let Some(c) = cache {
        e = e.cache(c);
    }
    e.run()
}

fn assert_bit_identical(a: &ExploreResult, b: &ExploreResult) {
    assert_eq!(a.evaluated.len(), b.evaluated.len());
    assert_eq!(a.infeasible, b.infeasible);
    assert_eq!(a.pareto, b.pareto);
    for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
        assert_eq!(x.architecture.name, y.architecture.name);
        assert_eq!(x.objectives.axes(), y.objectives.axes());
        let xb: Vec<u64> = x.objectives.values().iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.objectives.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "objective bits differ for {}", x.architecture.name);
    }
}

/// The default mode reproduces the pre-PR engine exactly: the front is
/// the 2-D `pareto_front` of the sweep axes, and the lifted test costs
/// are bit-for-bit what the test model returns for those points alone.
#[test]
fn pareto_only_is_bit_identical_to_the_reference_pipeline() {
    let result = run(
        TemplateSpace::fast_default(),
        LiftMode::ParetoOnly,
        false,
        true,
        None,
    );
    assert_eq!(result.lift, LiftMode::ParetoOnly);
    assert_eq!(result.cache_status, CacheStatus::NotAttached);

    // Front = the batch 2-D oracle over the evaluated points.
    let pts2d: Vec<Vec<f64>> = result
        .evaluated
        .iter()
        .map(|e| vec![e.area(), e.exec_time()])
        .collect();
    assert_eq!(result.pareto, pareto_front(&pts2d));
    assert_eq!(result.pareto, result.design_front());

    // Test axis present exactly on the front, with the model's exact
    // bits.
    for (i, e) in result.evaluated.iter().enumerate() {
        assert_eq!(e.test_cost().is_some(), result.is_on_front(i));
        if let Some(tc) = e.test_cost() {
            let fresh = Eq14TestCostModel.test_cost(&e.architecture, db()).total;
            assert_eq!(tc.to_bits(), fresh.to_bits());
        }
    }
}

/// A cache file in the previous release's v2 dialect (v2 name, v2
/// header, no inline test fields) answers a ParetoOnly sweep with zero
/// misses and bit-identical results: the content addresses survived
/// the v3 format bump.
#[test]
fn pre_v3_cache_files_hit_bit_identically() {
    let dir = tmpdir("v2-upgrade");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let cold = run(
        TemplateSpace::tiny(),
        LiftMode::ParetoOnly,
        false,
        false,
        Some(&cache),
    );
    assert_eq!(cold.cache_status, CacheStatus::Flushed);

    // Downgrade the flushed v3 file to the v2 dialect the previous
    // release wrote. ParetoOnly entries carry no inline test fields, so
    // only the header differs.
    let v3 = fs::read_to_string(dir.join(CACHE_FILE_NAME)).expect("flushed");
    assert!(
        !v3.contains(" T "),
        "ParetoOnly entries must match the v2 line grammar:\n{v3}"
    );
    let v2 = v3.replace("ttadse-sweep-cache 3", "ttadse-sweep-cache 2");
    fs::write(dir.join(LEGACY_CACHE_FILE_NAME), v2).unwrap();
    fs::remove_file(dir.join(CACHE_FILE_NAME)).unwrap();

    let legacy = SweepCache::open(&dir).expect("reopen");
    assert!(!legacy.is_empty(), "the v2 file must load");
    let warm = run(
        TemplateSpace::tiny(),
        LiftMode::ParetoOnly,
        false,
        false,
        Some(&legacy),
    );
    assert_eq!(legacy.misses(), 0, "every v2 entry must hit");
    assert_bit_identical(&cold, &warm);
    let _ = fs::remove_dir_all(&dir);
}

/// A v2-dialect cache under a *full* sweep: the scheduling payload is
/// reused (no eval re-evaluation) and only the missing per-point test
/// totals recompute; results are bit-identical to a cold full sweep.
#[test]
fn full_sweep_upgrades_v2_entries_by_recomputing_only_the_test_axis() {
    let dir = tmpdir("v2-full");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let cold = run(
        TemplateSpace::tiny(),
        LiftMode::Full,
        false,
        false,
        Some(&cache),
    );
    // Downgrade: strip the inline test pairs and the v3 header.
    let v3 = fs::read_to_string(dir.join(CACHE_FILE_NAME)).expect("flushed");
    let v2: String = v3
        .replace("ttadse-sweep-cache 3", "ttadse-sweep-cache 2")
        .lines()
        .map(|l| match l.find(" T ") {
            Some(i) if l.starts_with("E ") => &l[..i],
            _ => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    fs::write(dir.join(LEGACY_CACHE_FILE_NAME), v2).unwrap();
    fs::remove_file(dir.join(CACHE_FILE_NAME)).unwrap();

    let legacy = SweepCache::open(&dir).expect("reopen");
    let upgraded = run(
        TemplateSpace::tiny(),
        LiftMode::Full,
        false,
        false,
        Some(&legacy),
    );
    assert_eq!(legacy.misses(), 0, "scheduling entries must all hit");
    assert_bit_identical(&cold, &upgraded);
    // The upgrade is persisted: every entry is stored back with its
    // inline test total, so the flushed file is the cold run's again …
    assert_eq!(
        fs::read_to_string(dir.join(CACHE_FILE_NAME)).expect("flushed"),
        v3,
        "upgraded entries must be stored back"
    );
    // … and a third run needs no recomputation at all (every entry
    // now carries its inline test total).
    let third_cache = SweepCache::open(&dir).expect("reopen again");
    let third = run(
        TemplateSpace::tiny(),
        LiftMode::Full,
        false,
        true,
        Some(&third_cache),
    );
    assert_bit_identical(&cold, &third);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any threading mode and either test model: the full 3-D
    /// front is a superset of the design front, the 2-D projection of
    /// the evaluation set is bit-identical between modes, and a warm
    /// full-lift cache run is bit-identical to its cold one.
    #[test]
    fn full_mode_contracts(parallel in proptest::bool::ANY, scan in proptest::bool::ANY) {
        let dir = tmpdir(&format!("full-prop-{parallel}-{scan}"));
        let cache = SweepCache::open(&dir).expect("temp dir is writable");
        let space = TemplateSpace::fast_default;

        let pareto_only = run(space(), LiftMode::ParetoOnly, scan, parallel, None);
        let full = run(space(), LiftMode::Full, scan, parallel, Some(&cache));
        prop_assert_eq!(full.lift, LiftMode::Full);

        // Same evaluation set, bit-identical sweep axes.
        prop_assert_eq!(pareto_only.evaluated.len(), full.evaluated.len());
        for (p, f) in pareto_only.evaluated.iter().zip(&full.evaluated) {
            prop_assert_eq!(&p.architecture.name, &f.architecture.name);
            prop_assert_eq!(p.area().to_bits(), f.area().to_bits());
            prop_assert_eq!(p.exec_time().to_bits(), f.exec_time().to_bits());
            // Full mode costs every point on the test axis.
            prop_assert_eq!(
                f.objectives.axes(),
                &[Objective::Area, Objective::ExecTime, Objective::TestCost]
            );
        }

        // Superset-or-equal: every design-front point survives in 3-D,
        // and the design front is exactly the ParetoOnly front.
        let design: HashSet<usize> = full.design_front().into_iter().collect();
        let po: HashSet<usize> = pareto_only.pareto.iter().copied().collect();
        prop_assert_eq!(&design, &po);
        let full_front: HashSet<usize> = full.pareto.iter().copied().collect();
        prop_assert!(design.is_subset(&full_front));

        // Warm full-lift run: zero misses, bit-identical.
        let warm_cache = SweepCache::open(&dir).expect("reopen");
        let warm = run(space(), LiftMode::Full, scan, !parallel, Some(&warm_cache));
        prop_assert_eq!(warm_cache.misses(), 0, "warm full run must not evaluate");
        assert_bit_identical(&full, &warm);

        // And a ParetoOnly run shares the same eval entries (its test
        // lifts are keyed separately, so only those may miss).
        let shared_cache = SweepCache::open(&dir).expect("reopen for pareto");
        let shared = run(space(), LiftMode::ParetoOnly, scan, parallel, Some(&shared_cache));
        assert_bit_identical(&pareto_only, &shared);
        let evals = shared.evaluated.len() + shared.infeasible;
        prop_assert!(
            shared_cache.hits() >= evals as u64,
            "every sweep evaluation must hit entries written by the full run"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A sweep whose cache cannot flush completes correctly and says so —
/// `CacheStatus::FlushFailed` instead of a silent `let _ =`.
#[test]
fn unflushable_cache_is_reported_not_swallowed() {
    let dir = tmpdir("unflushable");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    // Wedge a directory where the cache file must land: the atomic
    // rename fails even when running as root (chmod would not).
    fs::create_dir_all(cache.path()).unwrap();

    let result = run(
        TemplateSpace::tiny(),
        LiftMode::ParetoOnly,
        false,
        false,
        Some(&cache),
    );
    match &result.cache_status {
        CacheStatus::FlushFailed(msg) => assert!(!msg.is_empty()),
        other => panic!("expected FlushFailed, got {other:?}"),
    }
    // The sweep itself lost nothing.
    let clean = run(
        TemplateSpace::tiny(),
        LiftMode::ParetoOnly,
        false,
        false,
        None,
    );
    assert_bit_identical(&clean, &result);
    let _ = fs::remove_dir_all(&dir);
}

/// The eq. (14) model under a fingerprint of its own, counting its
/// calls in `calls`. Two instances with equal `fingerprint` stand for
/// the same model.
struct CountingEq14 {
    calls: &'static AtomicUsize,
    fingerprint: Option<u64>,
}

impl TestCostModel for CountingEq14 {
    fn test_cost(&self, arch: &Architecture, db: &ComponentDb) -> ArchTestCost {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Eq14TestCostModel.test_cost(arch, db)
    }
    fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }
}

fn run_counting(
    lift: LiftMode,
    calls: &'static AtomicUsize,
    fingerprint: Option<u64>,
    cache: &SweepCache,
) -> (ExploreResult, usize) {
    let w = suite::crypt(1);
    let before = calls.load(Ordering::Relaxed);
    let result = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(db())
        .lift(lift)
        .test_cost_model(CountingEq14 { calls, fingerprint })
        .cache(cache)
        .run();
    (result, calls.load(Ordering::Relaxed) - before)
}

/// A warm full-lift run takes every point's test total from its cache
/// entry: the test model is not called at all.
#[test]
fn full_lift_reuses_inline_test_totals_from_a_warm_cache() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = tmpdir("inline-reuse");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let (cold, cold_calls) = run_counting(LiftMode::Full, &CALLS, Some(0x7e57), &cache);
    assert_eq!(
        cold_calls,
        cold.evaluated.len(),
        "one fold per feasible point"
    );
    let warm_cache = SweepCache::open(&dir).expect("reopen");
    let (warm, warm_calls) = run_counting(LiftMode::Full, &CALLS, Some(0x7e57), &warm_cache);
    assert_eq!(warm_calls, 0, "inline totals answer the test axis");
    assert_eq!(warm_cache.misses(), 0);
    assert_bit_identical(&cold, &warm);
    let _ = fs::remove_dir_all(&dir);
}

/// An inline total stored by one test model is never served to
/// another: the second model folds every point itself, and its cached
/// entries replace the first model's.
#[test]
fn full_lift_refolds_inline_totals_of_another_test_model() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = tmpdir("inline-other-model");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let (first, _) = run_counting(LiftMode::Full, &CALLS, Some(1), &cache);
    let (second, second_calls) = run_counting(LiftMode::Full, &CALLS, Some(2), &cache);
    assert_eq!(second_calls, second.evaluated.len());
    assert_bit_identical(&first, &second);
    let reopened = SweepCache::open(&dir).expect("reopen");
    let (_, third_calls) = run_counting(LiftMode::Full, &CALLS, Some(2), &reopened);
    assert_eq!(third_calls, 0, "the second model's totals were stored");
    let _ = fs::remove_dir_all(&dir);
}

/// Entries a Pareto-only sweep wrote carry no test total: a full lift
/// over them reuses their scheduling work, folds each point's test
/// total once and stores the entry back, so the next full lift folds
/// nothing.
#[test]
fn full_lift_upgrades_pareto_only_entries_once() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = tmpdir("upgrade-pareto-only");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let (design, _) = run_counting(LiftMode::ParetoOnly, &CALLS, Some(3), &cache);
    let misses = cache.misses();
    let (full, full_calls) = run_counting(LiftMode::Full, &CALLS, Some(3), &cache);
    assert_eq!(cache.misses(), misses, "scheduling entries all hit");
    assert_eq!(full_calls, full.evaluated.len());
    assert_eq!(full.evaluated.len(), design.evaluated.len());
    let reopened = SweepCache::open(&dir).expect("reopen");
    let (again, again_calls) = run_counting(LiftMode::Full, &CALLS, Some(3), &reopened);
    assert_eq!(again_calls, 0, "upgraded entries were stored back");
    assert_bit_identical(&full, &again);
    let _ = fs::remove_dir_all(&dir);
}

/// A test model without a fingerprint cannot validate inline totals, so
/// a full lift with it leaves the eval cache alone: no entry is written
/// and every run folds every point.
#[test]
fn full_lift_with_an_unfingerprintable_test_model_bypasses_the_eval_cache() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = tmpdir("inline-unfingerprinted");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let (first, first_calls) = run_counting(LiftMode::Full, &CALLS, None, &cache);
    assert_eq!(first_calls, first.evaluated.len());
    let text = fs::read_to_string(cache.path()).unwrap_or_default();
    assert!(
        !text.lines().any(|l| l.starts_with("E ")),
        "no eval entries without a test fingerprint:\n{text}"
    );
    let (second, second_calls) = run_counting(LiftMode::Full, &CALLS, None, &cache);
    assert_eq!(second_calls, first_calls);
    assert_bit_identical(&first, &second);
    let _ = fs::remove_dir_all(&dir);
}
