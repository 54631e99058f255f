//! Lift-mode contracts: `LiftMode::ParetoOnly` (the default) is
//! bit-identical to the pre-lift-mode engine — objectives, front
//! indices and cache entries — while `LiftMode::Full` maintains a true
//! 3-D front that is a superset of the lifted 2-D one. Plus the cache
//! paths around a sweep: a flush failure is reported through
//! `CacheStatus` instead of silently claiming success, a cache row the
//! engine could not have written is re-evaluated instead of trusted,
//! and a directory holding only a retired v2 cache file runs cold.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_core::cache::SweepCache;
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
        .threads(if parallel { 2 } else { 1 });
    if scan {
        e = e.test_cost_model(ScanTestCostModel::new());
    }
    if let Some(c) = cache {
        e = e.cache(c);
    }
    e.run()
}

/// A serial Pareto-only eq. (14) sweep of the tiny space.
fn run_tiny(cache: Option<&SweepCache>) -> ExploreResult {
    run(
        TemplateSpace::tiny(),
        LiftMode::ParetoOnly,
        false,
        false,
        cache,
    )
}

fn assert_bit_identical(a: &ExploreResult, b: &ExploreResult) {
    assert_eq!(a.evaluated.len(), b.evaluated.len());
    assert_eq!(a.infeasible, b.infeasible);
    assert_eq!(a.pareto, b.pareto);
    for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
        assert_eq!(x.architecture.name, y.architecture.name);
        assert_eq!(
            x.cycles, y.cycles,
            "cycles differ for {}",
            x.architecture.name
        );
        assert_eq!(x.workload_cycles, y.workload_cycles);
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

/// A directory holding only a cache file of the retired v2 layout opens
/// empty: the sweep over it runs cold, bit-identical to the first cold
/// sweep, and its flush writes the cold run's `ttadse-cache.v3` beside
/// the v2 file, which stays byte-for-byte as it was.
#[test]
fn a_v2_only_cache_directory_runs_cold_and_is_left_alone() {
    let dir = tmpdir("v2-only");
    let cold_cache = SweepCache::open(&dir).expect("temp dir is writable");
    let cold = run_tiny(Some(&cold_cache));
    let v3 = fs::read_to_string(cold_cache.path()).expect("flushed");
    // The same entries under the v2 header and file name, as the
    // previous layout wrote them.
    let v2 = v3.replace("ttadse-sweep-cache 3", "ttadse-sweep-cache 2");
    let v2_path = dir.join("ttadse-cache.v2");
    fs::write(&v2_path, &v2).unwrap();
    fs::remove_file(cold_cache.path()).unwrap();

    let cache = SweepCache::open(&dir).expect("reopen");
    assert!(cache.is_empty(), "a v2 file is never read");
    let again = run_tiny(Some(&cache));
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), cold_cache.misses());
    assert_bit_identical(&cold, &again);
    assert_eq!(again.cache_status, CacheStatus::Flushed);
    assert_eq!(fs::read_to_string(cache.path()).expect("flushed"), v3);
    assert_eq!(fs::read_to_string(&v2_path).unwrap(), v2);
    let _ = fs::remove_dir_all(&dir);
}

/// Cache rows that parse but that the engine could not have written —
/// `cycles` other than the sum of the workload cycles, a NaN area — are
/// re-evaluated instead of printed: the warm run is bit-identical to
/// the cold one, counts exactly those two rows as misses, and stores
/// the cold run's rows back.
#[test]
fn inconsistent_cached_rows_are_reevaluated() {
    let dir = tmpdir("inconsistent-rows");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let cold = run_tiny(Some(&cache));
    let text = fs::read_to_string(cache.path()).expect("flushed");
    // `E <key> F <cycles> <spills> <area-bits> <exec-bits> <wl-cycles>...`
    let mut feasible = 0;
    let corrupted: String = text
        .lines()
        .map(|line| {
            let mut fields: Vec<String> = line.split(' ').map(String::from).collect();
            if line.starts_with("E ") && fields[2] == "F" {
                feasible += 1;
                match feasible {
                    1 => fields[3] = (fields[3].parse::<u64>().unwrap() + 1).to_string(),
                    2 => fields[5] = format!("{:016x}", f64::NAN.to_bits()),
                    _ => {}
                }
            }
            fields.join(" ") + "\n"
        })
        .collect();
    assert!(feasible >= 2, "two feasible rows to corrupt:\n{text}");
    fs::write(cache.path(), corrupted).unwrap();

    let reopened = SweepCache::open(&dir).expect("reopen");
    let warm = run_tiny(Some(&reopened));
    assert_bit_identical(&cold, &warm);
    assert_eq!(reopened.misses(), 2, "exactly the two bad rows re-evaluate");
    assert_eq!(fs::read_to_string(cache.path()).expect("flushed"), text);
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

    let result = run_tiny(Some(&cache));
    match &result.cache_status {
        CacheStatus::FlushFailed(msg) => assert!(!msg.is_empty()),
        other => panic!("expected FlushFailed, got {other:?}"),
    }
    // The sweep itself lost nothing.
    let clean = run_tiny(None);
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
    // Stored back as the very lines a cold full lift writes.
    let cold_dir = tmpdir("upgrade-pareto-only-cold");
    let cold_cache = SweepCache::open(&cold_dir).expect("temp dir is writable");
    run_counting(LiftMode::Full, &CALLS, Some(3), &cold_cache);
    let eval_lines = |path: &Path| -> Vec<String> {
        let text = fs::read_to_string(path).expect("flushed");
        text.lines()
            .filter(|line| line.starts_with("E "))
            .map(String::from)
            .collect()
    };
    assert_eq!(eval_lines(reopened.path()), eval_lines(cold_cache.path()));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&cold_dir);
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
