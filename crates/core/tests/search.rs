//! Integration tests of the strategy-pluggable sweep: exhaustive
//! equivalence, budgeted/seeded determinism, guided search, the
//! try_run error path, strategy-separated cache namespaces, the Gray
//! neighbour walk (same points and cache bytes as enumeration order,
//! resumable after a budget cut), serial == parallel across strategies,
//! and the cost folds reading a lazily annotated database exactly as a
//! pre-warmed one.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use tta_arch::template::{TemplateBuilder, TemplateSpace};
use tta_arch::{Architecture, FuKind};
use tta_atpg::AtpgConfig;
use tta_core::cache::SweepCache;
use tta_core::explore::{
    CycleSource, Exploration, ExploreError, ExploreResult, FidelityMode, LiftMode, Objective,
};
use tta_core::models::{
    keys_of, AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel,
    ScanTestCostModel, TestCostModel, TimingModel,
};
use tta_core::parallel::par_map;
use tta_core::pareto::is_pareto_set;
use tta_core::search::{
    Exhaustive, HillClimb, RandomSample, SearchContext, SearchStrategy, WalkOrder,
};
use tta_core::ComponentDb;
use tta_dft::march::MarchAlgorithm;
use tta_workloads::suite;

/// Bit-exact comparison of two exploration results, including the front
/// and the per-workload feasibility blame.
fn assert_bit_identical(a: &ExploreResult, b: &ExploreResult) {
    assert_eq!(a.evaluated.len(), b.evaluated.len());
    for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
        assert_eq!(x.architecture, y.architecture);
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.workload_cycles, y.workload_cycles);
        assert_eq!(x.spills, y.spills);
        assert_eq!(x.objectives.axes(), y.objectives.axes());
        let xb: Vec<u64> = x.objectives.values().iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.objectives.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "objective bits differ for {}", x.architecture.name);
    }
    assert_eq!(a.pareto, b.pareto);
    assert_eq!(a.infeasible, b.infeasible);
    assert_eq!(a.blocked, b.blocked);
}

/// One shared annotation database so the sweeps below pay for the 8-bit
/// component library once.
fn shared_db() -> &'static ComponentDb {
    static DB: OnceLock<ComponentDb> = OnceLock::new();
    DB.get_or_init(ComponentDb::new)
}

/// A small *hierarchical* space: every hierarchical knob class
/// (interconnect clustering, per-FU pipelining, RF banking) takes more
/// than one value — 64 points, cheap enough to sweep exhaustively.
fn hier_space() -> TemplateSpace {
    TemplateSpace {
        width: 8,
        buses: vec![1, 2],
        clusters: vec![1, 2],
        alus: vec![1, 2],
        cmps: vec![1],
        muls: vec![0, 1],
        imms: vec![1],
        pipes: vec![1, 2],
        rf_banks: vec![1, 2],
        rf_sets: vec![vec![(8, 1, 2)]],
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-search-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The front of `result` is non-dominated within its evaluated set.
fn front_is_pareto(result: &ExploreResult) -> bool {
    let pts: Vec<Vec<f64>> = result
        .evaluated
        .iter()
        .map(|e| vec![e.area(), e.exec_time()])
        .collect();
    is_pareto_set(&pts, &result.pareto)
}

#[test]
fn explicit_exhaustive_is_bit_identical_to_the_default() {
    let w = suite::crypt(1);
    let db = ComponentDb::new();
    let classic = Exploration::over(TemplateSpace::fast_default())
        .workload(&w)
        .with_db(&db)
        .run();
    let explicit = Exploration::over(TemplateSpace::fast_default())
        .workload(&w)
        .with_db(&db)
        .strategy(Exhaustive)
        .run();
    assert_bit_identical(&classic, &explicit);
    assert_eq!(classic.search.strategy, "exhaustive");
    assert_eq!(classic.search.evaluations, classic.search.space_len);
    assert!(classic.search.exhausted_space());
}

#[test]
fn random_sample_is_deterministic_per_seed_and_respects_budget() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let run = |seed| {
        Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(&db)
            .strategy(RandomSample)
            .budget(5)
            .seed(seed)
            .run()
    };
    let a = run(42);
    let b = run(42);
    assert_bit_identical(&a, &b);
    assert!(a.search.evaluations <= 5, "{}", a.search.evaluations);
    assert_eq!(a.evaluated.len() + a.infeasible, a.search.evaluations);
    assert!(front_is_pareto(&a));
    assert_eq!(a.search.strategy, "random");
    assert_eq!(a.search.budget, Some(5));
    assert_eq!(a.search.seed, Some(42));

    let c = run(7);
    let names = |r: &ExploreResult| -> Vec<String> {
        r.evaluated
            .iter()
            .map(|e| e.architecture.name.clone())
            .collect()
    };
    assert_ne!(names(&a), names(&c), "different seeds sample differently");
}

#[test]
fn random_sample_with_ample_budget_covers_the_space() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let space = TemplateSpace::tiny();
    let exhaustive = Exploration::over(space.clone())
        .workload(&w)
        .with_db(&db)
        .run();
    let sampled = Exploration::over(space)
        .workload(&w)
        .with_db(&db)
        .strategy(RandomSample)
        .seed(1)
        .run();
    assert_bit_identical(&exhaustive, &sampled);
}

#[test]
fn hillclimb_is_deterministic_and_yields_a_valid_front() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let run = || {
        Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(&db)
            .strategy(HillClimb::with_batch(4))
            .budget(8)
            .seed(3)
            .run()
    };
    let a = run();
    let b = run();
    assert_bit_identical(&a, &b);
    assert!(a.search.evaluations <= 8);
    assert!(a.search.rounds >= 2, "guided search iterates in batches");
    assert!(front_is_pareto(&a));
    assert!(!a.pareto.is_empty());
}

#[test]
fn hillclimb_terminates_when_it_exhausts_a_small_space() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let result = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(&db)
        .strategy(HillClimb::default())
        .seed(0)
        .run();
    // No budget: the climber must stop on its own, having covered the
    // tiny space (its random restarts visit everything).
    assert_eq!(result.search.evaluations, result.search.space_len);
    assert!(front_is_pareto(&result));
}

#[test]
fn exhaustive_budget_truncates_in_enumeration_order() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let space = TemplateSpace::fast_default();
    let full = Exploration::over(space.clone())
        .workload(&w)
        .with_db(&db)
        .run();
    let budgeted = Exploration::over(space)
        .workload(&w)
        .with_db(&db)
        .budget(3)
        .run();
    assert_eq!(budgeted.search.evaluations, 3);
    for (b, f) in budgeted.evaluated.iter().zip(&full.evaluated) {
        assert_eq!(b.architecture.name, f.architecture.name);
        assert_eq!(b.cycles, f.cycles);
    }
    assert!(front_is_pareto(&budgeted));
}

#[test]
fn try_run_reports_missing_workloads() {
    let err = Exploration::over(TemplateSpace::tiny())
        .try_run()
        .expect_err("no workload configured");
    assert_eq!(err, ExploreError::EmptyWorkloads);
    assert!(err.to_string().contains("at least one workload"));
}

#[test]
#[should_panic(expected = "at least one workload")]
fn run_still_panics_on_missing_workloads() {
    let _ = Exploration::over(TemplateSpace::tiny()).run();
}

#[test]
fn sampled_runs_use_a_separate_cache_namespace() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let cache = SweepCache::in_memory();
    // Warm the cache exhaustively…
    Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(&db)
        .cache(&cache)
        .run();
    let after_exhaustive = cache.len();
    assert!(after_exhaustive > 0);
    // …then a budgeted random run must not *hit* those entries (its
    // content addresses carry the strategy salt), only add new ones.
    let h0 = cache.hits();
    let sampled = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(&db)
        .cache(&cache)
        .strategy(RandomSample)
        .budget(2)
        .seed(9)
        .run();
    assert_eq!(cache.hits(), h0, "no cross-strategy hits");
    assert!(cache.len() > after_exhaustive);

    // A warm re-run of the same sampled sweep is all hits and
    // bit-identical.
    let m0 = cache.misses();
    let warm = Exploration::over(TemplateSpace::tiny())
        .workload(&w)
        .with_db(&db)
        .cache(&cache)
        .strategy(RandomSample)
        .budget(2)
        .seed(9)
        .run();
    assert_eq!(cache.misses(), m0, "warm sampled run misses nothing");
    assert_bit_identical(&sampled, &warm);
}

/// Neighbour-order evaluation visits the same points with the same
/// per-point results and writes a byte-identical cache file — only the
/// visit order (and hence result indices) differs.
#[test]
fn neighbour_walk_matches_enumeration_order_point_for_point() {
    let w = suite::crypt(1);
    let run = |neighbour: bool, cache: &SweepCache| {
        let e = Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(shared_db())
            .cache(cache);
        if neighbour {
            e.strategy(Exhaustive::neighbour()).run()
        } else {
            e.strategy(Exhaustive).run()
        }
    };
    let dir_e = tmpdir("enum-order");
    let dir_n = tmpdir("gray-order");
    let cache_e = SweepCache::open(&dir_e).expect("temp dir is writable");
    let cache_n = SweepCache::open(&dir_n).expect("temp dir is writable");
    let plain = run(false, &cache_e);
    let gray = run(true, &cache_n);

    assert_eq!(plain.evaluated.len(), gray.evaluated.len());
    assert_eq!(plain.infeasible, gray.infeasible);
    // Same per-point bits, matched by architecture name.
    let by_name = |r: &ExploreResult| {
        let mut v: Vec<(String, Vec<u64>)> = r
            .evaluated
            .iter()
            .map(|e| {
                (
                    e.architecture.name.clone(),
                    e.objectives.values().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(by_name(&plain), by_name(&gray));
    // Same front, as a set of architectures.
    let front_names = |r: &ExploreResult| {
        let mut v: Vec<String> = r
            .pareto
            .iter()
            .map(|&i| r.evaluated[i].architecture.name.clone())
            .collect();
        v.sort();
        v
    };
    assert_eq!(front_names(&plain), front_names(&gray));
    // Same cache namespace (salt None) ⇒ byte-identical files.
    assert_eq!(
        fs::read(cache_e.path()).expect("flushed"),
        fs::read(cache_n.path()).expect("flushed"),
        "visit order must not leak into cache addresses"
    );
    let _ = fs::remove_dir_all(&dir_e);
    let _ = fs::remove_dir_all(&dir_n);
}

/// A budget-interrupted Gray-code walk over the hierarchical space,
/// resumed over the same cache, finishes bit-identical to an
/// uninterrupted walk.
#[test]
fn budget_interrupted_neighbour_walk_resumes_bit_identically() {
    let w = suite::checksum32();
    let dir = tmpdir("hier-resume");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let space = hier_space();
    let walk = || {
        Exploration::over(space.clone())
            .workload(&w)
            .with_db(shared_db())
            .strategy(Exhaustive::neighbour())
    };
    walk().cache(&cache).budget(space.len() / 2).run();
    let resumed = walk().cache(&cache).run();
    assert!(cache.hits() > 0, "the resumed walk replays the first half");
    assert_bit_identical(&resumed, &walk().run());
    let _ = fs::remove_dir_all(&dir);
}

/// A seeded, budgeted Gray-code walk over the 2^20-point hierarchical
/// space: the proposal is a contiguous rank prefix of exactly the
/// budget, and a serial walk over a cold database agrees bit for bit
/// with a parallel walk over a pre-warmed one.
#[test]
fn budgeted_huge_space_walk_is_bit_identical_serial_and_parallel() {
    let w = suite::checksum32();
    let db = ComponentDb::new();
    let run = |parallel: bool| {
        Exploration::over(TemplateSpace::huge())
            .workload(&w)
            .with_db(&db)
            .strategy(Exhaustive::neighbour())
            .budget(256)
            .seed(7)
            .threads(if parallel { 2 } else { 1 })
            .run()
    };
    let serial = run(false);
    let parallel = run(true);
    assert_eq!(serial.search.evaluations, 256);
    assert_bit_identical(&serial, &parallel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serial == parallel, bit for bit, over random strategies, seeds,
    /// budgets, lift modes, thread counts, test models and both the
    /// flat and the hierarchical space.
    #[test]
    fn parallel_equals_serial_across_strategies(
        strategy in 0usize..4,
        seed in 0u64..1000,
        budget in 4usize..24,
        full_lift in proptest::bool::ANY,
        hier in proptest::bool::ANY,
        scan in proptest::bool::ANY,
        threads in 2usize..4,
    ) {
        let (space, w) = if hier {
            (hier_space(), suite::checksum32())
        } else {
            (TemplateSpace::fast_default(), suite::crypt(1))
        };
        let build = |parallel: bool| {
            let lift = if full_lift { LiftMode::Full } else { LiftMode::ParetoOnly };
            let mut e = Exploration::over(space.clone())
                .workload(&w)
                .with_db(shared_db())
                .lift(lift)
                .threads(if parallel { threads } else { 1 })
                .seed(seed);
            if scan {
                e = e.test_cost_model(ScanTestCostModel::with_chains(2));
            }
            match strategy {
                0 => e.strategy(Exhaustive),
                1 => e.strategy(Exhaustive::neighbour()),
                2 => e.strategy(RandomSample).budget(budget),
                _ => e.strategy(HillClimb::default()).budget(budget),
            }
        };
        assert_bit_identical(&build(false).run(), &build(true).run());
    }
}

/// SplitMix64: a fixed, dependency-free seed sequence for sampling.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The default folds (area, clock, eq. (14) test cost, and the scan
/// test model) over the fast space, the paper space and a seeded
/// huge-space sample are bit-identical whether a cold database
/// annotates lazily as a serial fold reads it, or a pre-warmed database
/// is read from worker threads. An out-of-domain register file folds to
/// `+inf` on every axis, without a panic.
#[test]
fn folds_agree_between_lazy_serial_and_warm_parallel_databases() {
    // A cheap ATPG profile keeps the 16-bit multiplier affordable in a
    // debug build; the folds only need both databases to agree.
    let engines = || {
        let atpg = AtpgConfig {
            max_random_patterns: 64,
            backtrack_limit: 4,
            compaction: false,
            ..AtpgConfig::sweep()
        };
        ComponentDb::with_engines(atpg, MarchAlgorithm::march_cminus())
    };
    let huge = TemplateSpace::huge();
    let mut state = 0x5eed;
    let mut archs: Vec<Architecture> = Vec::new();
    for space in [
        TemplateSpace::fast_default(),
        TemplateSpace::paper_default(),
    ] {
        archs.extend((0..space.len()).map(|i| space.point(i)));
    }
    archs.extend((0..256).map(|_| huge.point((splitmix(&mut state) % huge.len() as u64) as usize)));
    let out_of_domain = TemplateBuilder::new("wide", 8, 2)
        .fu(FuKind::Alu)
        .fu(FuKind::Pc)
        .rf(70_000, 1, 2)
        .build();
    archs.push(out_of_domain);

    let fold = |db: &ComponentDb, arch: &Architecture| {
        [
            AnnotatedAreaModel::default().area(arch, db),
            AnnotatedTimingModel::default().clock_period(arch, db),
            Eq14TestCostModel.test_cost(arch, db).total,
            ScanTestCostModel::default().test_cost(arch, db).total,
        ]
        .map(f64::to_bits)
    };
    let cold = engines();
    let serial: Vec<_> = archs.iter().map(|arch| fold(&cold, arch)).collect();
    let warm = engines();
    let keys: BTreeSet<_> = archs.iter().filter_map(keys_of).flatten().collect();
    warm.warm(keys);
    let parallel = par_map(&archs, 2, |_, arch| fold(&warm, arch));
    assert_eq!(serial, parallel);
    assert_eq!(serial.last(), Some(&[f64::INFINITY.to_bits(); 4]));
}

/// A fresh database with a cheap ATPG profile, for tests that need a
/// database nothing has annotated yet.
fn cheap_db() -> ComponentDb {
    let atpg = AtpgConfig {
        max_random_patterns: 64,
        backtrack_limit: 4,
        compaction: false,
        ..AtpgConfig::sweep()
    };
    ComponentDb::with_engines(atpg, MarchAlgorithm::march_cminus())
}

#[test]
fn serial_equals_parallel_on_weighted_suites_and_simulated_cycles() {
    let a = suite::crypt(1);
    let b = suite::checksum32();
    let run = |parallel: bool| {
        Exploration::over(TemplateSpace::tiny())
            .workload_weighted(&a, 2.5)
            .workload_weighted(&b, 0.5)
            .with_db(shared_db())
            .cycle_source(CycleSource::Simulate)
            .threads(if parallel { 2 } else { 1 })
            .run()
    };
    assert_bit_identical(&run(false), &run(true));
}

#[test]
fn serial_equals_parallel_under_a_custom_test_model_and_a_full_lift() {
    let w = suite::crypt(1);
    let run = |parallel: bool| {
        Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(shared_db())
            .test_cost_model(ScanTestCostModel::with_chains(2))
            .lift(LiftMode::Full)
            .threads(if parallel { 2 } else { 1 })
            .run()
    };
    let serial = run(false);
    assert!(serial
        .evaluated
        .iter()
        .all(|e| e.objectives.get(Objective::TestCost).is_some()));
    assert_bit_identical(&serial, &run(true));
}

/// Serial and parallel sweeps share one cache namespace: same
/// addresses, same entries, byte-identical flushed files — and a warm
/// run answers entirely from the other's cache.
#[test]
fn serial_and_parallel_sweeps_write_byte_identical_cache_files() {
    let w = suite::crypt(1);
    let run = |parallel: bool, cache: &SweepCache| {
        Exploration::over(TemplateSpace::fast_default())
            .workload(&w)
            .with_db(shared_db())
            .cache(cache)
            .threads(if parallel { 2 } else { 1 })
            .run()
    };
    let dir_s = tmpdir("serial-cache");
    let dir_p = tmpdir("parallel-cache");
    let cache_s = SweepCache::open(&dir_s).expect("temp dir is writable");
    let cache_p = SweepCache::open(&dir_p).expect("temp dir is writable");
    let serial = run(false, &cache_s);
    let parallel = run(true, &cache_p);
    assert_bit_identical(&serial, &parallel);
    assert_eq!(
        fs::read(cache_s.path()).expect("serial cache flushed"),
        fs::read(cache_p.path()).expect("parallel cache flushed"),
        "cache files must be byte-identical"
    );

    // Cross-warm: a parallel run over the serial run's cache evaluates
    // nothing.
    let warm = SweepCache::open(&dir_s).expect("reopen");
    let replay = run(true, &warm);
    assert_eq!(warm.misses(), 0, "a warm run must not evaluate");
    assert!(warm.hits() > 0);
    assert_bit_identical(&serial, &replay);
    let _ = fs::remove_dir_all(&dir_s);
    let _ = fs::remove_dir_all(&dir_p);
}

/// A budget-interrupted enumeration-order sweep, resumed over the same
/// cache, finishes bit-identical to an uncached, uninterrupted sweep.
#[test]
fn budget_interrupted_sweep_resumes_bit_identically() {
    let w = suite::crypt(1);
    let dir = tmpdir("resume");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let space = TemplateSpace::fast_default();
    let sweep = || {
        Exploration::over(space.clone())
            .workload(&w)
            .with_db(shared_db())
    };
    let first = sweep().cache(&cache).budget(space.len() / 2).run();
    assert_eq!(first.search.evaluations, space.len() / 2);
    let resumed = sweep().cache(&cache).run();
    assert!(cache.hits() > 0, "the resumed sweep replays the first half");
    assert_bit_identical(&resumed, &sweep().run());
    let _ = fs::remove_dir_all(&dir);
}

/// Custom models are called as they are, once per point that reaches
/// them, serial or parallel — nothing memoizes them in between.
#[test]
fn custom_models_are_consulted_once_per_point_serial_and_parallel() {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    struct CountingArea;
    impl AreaModel for CountingArea {
        fn area(&self, _: &Architecture, _: &ComponentDb) -> f64 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            42.0
        }
        // No fingerprint() override: unfingerprintable on purpose.
    }
    let w = suite::crypt(1);
    let space = TemplateSpace::tiny();
    let run = |parallel: bool| {
        let before = CALLS.load(Ordering::Relaxed);
        let result = Exploration::over(space.clone())
            .workload(&w)
            .with_db(shared_db())
            .area_model(CountingArea)
            .threads(if parallel { 2 } else { 1 })
            .run();
        (result, CALLS.load(Ordering::Relaxed) - before)
    };
    let (serial, serial_calls) = run(false);
    let (parallel, parallel_calls) = run(true);
    assert_eq!(serial_calls, parallel_calls);
    assert!(serial_calls >= serial.evaluated.len() && serial_calls <= space.len());
    assert!(serial
        .evaluated
        .iter()
        .all(|e| e.objectives.get(Objective::Area) == Some(42.0)));
    assert_bit_identical(&serial, &parallel);
}

/// A serial sweep that annotates a cold database lazily, point by point,
/// agrees bit for bit with a parallel sweep whose workers annotate their
/// own cold database concurrently — over the hierarchical space, under a
/// full lift, in both visit orders.
#[test]
fn lazily_annotated_serial_sweep_equals_a_concurrently_annotated_parallel_one() {
    let w = suite::checksum32();
    for neighbour in [false, true] {
        let (lazy, concurrent) = (cheap_db(), cheap_db());
        let run = |db: &ComponentDb, parallel: bool| {
            let e = Exploration::over(hier_space())
                .workload(&w)
                .with_db(db)
                .lift(LiftMode::Full)
                .threads(if parallel { 2 } else { 1 });
            if neighbour {
                e.strategy(Exhaustive::neighbour()).run()
            } else {
                e.run()
            }
        };
        let serial = run(&lazy, false);
        let parallel = run(&concurrent, true);
        assert_bit_identical(&serial, &parallel);
        assert_eq!(lazy.len(), concurrent.len(), "both annotated the same keys");
    }
}

/// A neighbour-order strategy that proposes a rank gap — the shape a
/// budget-truncated, re-sorted batch leaves behind — or, with
/// `walk: false`, the same points in enumeration order.
#[derive(Clone)]
struct GappedWalk {
    walk: bool,
    proposed: bool,
}

impl SearchStrategy for GappedWalk {
    fn name(&self) -> &'static str {
        "gapped-walk"
    }
    fn cache_salt(&self) -> Option<u64> {
        Some(0x6a70)
    }
    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<usize> {
        if self.proposed {
            return Vec::new();
        }
        self.proposed = true;
        // Two contiguous Gray-rank runs with a hole between them.
        let mut batch: Vec<usize> = [0usize, 1, 2, 10, 11, 12]
            .into_iter()
            .map(|rank| ctx.space().neighbour_index(rank))
            .collect();
        if !self.walk {
            batch.sort_unstable();
        }
        batch
    }
    fn walk_order(&self) -> WalkOrder {
        if self.walk {
            WalkOrder::Neighbour
        } else {
            WalkOrder::Enumeration
        }
    }
}

/// Per-point objective bits keyed by architecture name.
fn bits_by_name(result: &ExploreResult) -> Vec<(String, Vec<u64>)> {
    let mut v: Vec<_> = result
        .evaluated
        .iter()
        .map(|e| {
            (
                e.architecture.name.clone(),
                e.objectives.values().iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

/// A walk with a gap gives every point the figures it gets in
/// enumeration order, under both fidelities — the netlist elaborator
/// reuses segments along the walk and must not carry them across the
/// gap.
#[test]
fn a_gapped_neighbour_walk_matches_enumeration_order() {
    let w = suite::checksum32();
    for fidelity in [FidelityMode::Table, FidelityMode::Netlist] {
        let run = |walk: bool| {
            Exploration::over(TemplateSpace::huge())
                .workload(&w)
                .with_db(shared_db())
                .fidelity(fidelity)
                .strategy(GappedWalk {
                    walk,
                    proposed: false,
                })
                .run()
        };
        let walked = run(true);
        let plain = run(false);
        assert_eq!(walked.search.evaluations, 6);
        assert_eq!(bits_by_name(&walked), bits_by_name(&plain), "{fidelity:?}");
    }
}

/// The annotation engines are part of every result and every cache
/// address: a database with another march algorithm neither reuses the
/// first database's cache entries nor its figures, and its cached run
/// equals its own uncached run.
#[test]
fn annotation_engines_separate_results_and_cache_addresses() {
    let w = suite::crypt(1);
    let march_b = ComponentDb::with_engines(AtpgConfig::sweep(), MarchAlgorithm::march_b());
    assert_ne!(march_b.fingerprint(), shared_db().fingerprint());
    let dir = tmpdir("engines");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let run = |db: &ComponentDb, cache: Option<&SweepCache>| {
        let e = Exploration::over(TemplateSpace::tiny())
            .workload(&w)
            .with_db(db)
            .lift(LiftMode::Full);
        match cache {
            Some(cache) => e.cache(cache).run(),
            None => e.run(),
        }
    };
    let c = run(shared_db(), Some(&cache));
    let hits = cache.hits();
    let b = run(&march_b, Some(&cache));
    assert_eq!(cache.hits(), hits, "no entry crosses annotation engines");
    assert_bit_identical(&b, &run(&march_b, None));
    // March B costs more operations per register than March C-, so the
    // test axis moves while area and clock do not.
    let test = |r: &ExploreResult| -> Vec<f64> {
        r.evaluated
            .iter()
            .map(|e| e.objectives.get(Objective::TestCost).expect("full lift"))
            .collect()
    };
    assert!(test(&b).iter().zip(test(&c)).all(|(b, c)| *b > c));
    let area = |r: &ExploreResult| -> Vec<u64> {
        r.evaluated.iter().map(|e| e.area().to_bits()).collect()
    };
    assert_eq!(area(&b), area(&c));
    let _ = fs::remove_dir_all(&dir);
}
