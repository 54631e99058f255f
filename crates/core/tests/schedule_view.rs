//! Differential tests of the sweep's schedule memo against the
//! unmemoised list scheduler.
//!
//! The memo answers a point from another point's schedule whenever the
//! two share a [`SchedulerView`]. That is sound only while the view
//! holds everything `Scheduler::run` reads, so these tests step every
//! template knob through its whole radix from seeded base points of the
//! huge, paper and fast spaces, for every standard-registry workload,
//! and check each memoised answer against a direct scheduler run.

use std::collections::HashMap;

use tta_arch::template::{TemplateSpace, KNOBS};
use tta_arch::Architecture;
use tta_core::explore::{CycleSource, Exploration};
use tta_core::models::{AreaModel, TestCostModel, TimingModel};
use tta_core::{ArchTestCost, ComponentDb, ScheduleMemo};
use tta_movec::{Scheduler, SchedulerView};
use tta_workloads::{SuiteParams, SuiteRegistry, Workload};

/// `(trace cycles, spills)` straight from the scheduler, `None` when it
/// refuses the point.
fn direct(arch: &Architecture, w: &Workload) -> Option<(u32, u32)> {
    Scheduler::new(arch)
        .run(&w.dfg)
        .ok()
        .map(|s| (s.cycles, s.spills))
}

/// SplitMix64: a fixed, dependency-free seed sequence for base points.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every point one knob step away from `bases`, each knob stepped
/// through its whole radix (the bases themselves included).
fn knob_sweeps(space: &TemplateSpace, bases: &[usize]) -> Vec<usize> {
    let radices = space.knob_radices();
    let mut points = Vec::new();
    for &base in bases {
        let coords = space.coords(base);
        for knob in 0..KNOBS {
            for digit in 0..radices[knob] {
                let mut c = coords;
                c[knob] = digit;
                points.push(space.index_of(c));
            }
        }
    }
    points
}

/// Checks the memo on `space` for every standard workload built with
/// `params`: each memoised answer equals the direct run, and points
/// sharing a view schedule identically. Returns `(lookups, runs)`.
fn check_space(space: &TemplateSpace, params: &SuiteParams, seed: u64) -> (u64, u64) {
    let mut state = seed;
    let bases: Vec<usize> = (0..3)
        .map(|_| (splitmix(&mut state) % space.len() as u64) as usize)
        .collect();
    let points = knob_sweeps(space, &bases);
    let registry = SuiteRegistry::standard();
    let (mut lookups, mut runs) = (0, 0);
    for name in registry.workload_names() {
        let suite = [registry.build(name, params).expect("registered")];
        let w = &suite[0];
        let memo = ScheduleMemo::new(&suite, CycleSource::Model);
        let mut by_view: HashMap<SchedulerView, (String, Option<(u32, u32)>)> = HashMap::new();
        for &index in &points {
            let arch = space.point(index);
            let expected = direct(&arch, w);
            assert_eq!(
                memo.trace_cycles(&arch, 0),
                expected,
                "{name} on {}: memoised answer differs from the scheduler",
                arch.name
            );
            let view = SchedulerView::new(&arch, &w.dfg);
            let (first, outcome) = by_view
                .entry(view)
                .or_insert_with(|| (arch.name.clone(), expected));
            assert_eq!(
                *outcome, expected,
                "{name}: {first} and {} share a view but schedule differently",
                arch.name
            );
        }
        let stats = memo.stats();
        assert_eq!(stats.lookups, points.len() as u64, "{name}");
        assert_eq!(stats.runs, by_view.len() as u64, "{name}: one run per view");
        lookups += stats.lookups;
        runs += stats.runs;
    }
    (lookups, runs)
}

#[test]
fn memo_matches_the_scheduler_across_the_huge_space_radices() {
    let (lookups, runs) = check_space(&TemplateSpace::huge(), &SuiteParams::fast(), 0x5eed_0001);
    // Knobs outside the view (MUL/CMP counts on MUL/CMP-free kernels,
    // pipelining and banking collisions) must actually save runs.
    assert!(runs < lookups, "{runs} runs for {lookups} lookups");
}

#[test]
fn memo_matches_the_scheduler_across_the_paper_space_radices() {
    check_space(
        &TemplateSpace::paper_default(),
        &SuiteParams::paper(),
        0x5eed_0002,
    );
}

#[test]
fn memo_matches_the_scheduler_across_the_fast_space_radices() {
    check_space(
        &TemplateSpace::fast_default(),
        &SuiteParams::fast(),
        0x5eed_0003,
    );
}

#[test]
fn known_collisions_share_a_view_and_a_schedule() {
    let space = TemplateSpace::huge();
    let crypt = tta_workloads::suite::crypt(1);
    // Knob digits: buses, clusters, ALUs, CMPs, MULs, imms, pipes, RF
    // banks, RF sets. Crypt has no MUL and no CMP op, so those knobs
    // drop out; 2 pipes × 1 ALU and 1 pipe × 2 ALUs give two ALUs
    // either way; 4 banks of ⌈4/4⌉ or ⌈8/4⌉ registers both clamp to 2.
    let pairs = [
        ([0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 3, 3, 0, 0, 0, 0]),
        ([1, 0, 0, 0, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0, 0]),
        ([0, 1, 2, 0, 0, 1, 0, 3, 1], [0, 1, 2, 0, 0, 1, 0, 3, 5]),
    ];
    for (a, b) in pairs {
        let (a, b) = (
            space.point(space.index_of(a)),
            space.point(space.index_of(b)),
        );
        assert_ne!(a, b);
        assert_eq!(
            SchedulerView::new(&a, &crypt.dfg),
            SchedulerView::new(&b, &crypt.dfg),
            "{} / {}",
            a.name,
            b.name
        );
        assert_eq!(
            direct(&a, &crypt),
            direct(&b, &crypt),
            "{} / {}",
            a.name,
            b.name
        );
    }
}

#[test]
fn an_invalid_point_never_borrows_a_valid_twin_s_schedule() {
    let crypt = tta_workloads::suite::crypt(1);
    let suite = [crypt];
    let valid = Architecture::figure9();
    // Same view (names are outside it), but a duplicate instance name
    // makes the architecture invalid.
    let mut invalid = valid.clone();
    invalid.fus[1].name = invalid.fus[0].name.clone();
    assert!(invalid.validate().is_err());
    assert_eq!(
        SchedulerView::new(&valid, &suite[0].dfg),
        SchedulerView::new(&invalid, &suite[0].dfg)
    );
    for order in [[&valid, &invalid], [&invalid, &valid]] {
        let memo = ScheduleMemo::new(&suite, CycleSource::Model);
        for arch in order {
            assert_eq!(memo.trace_cycles(arch, 0), direct(arch, &suite[0]));
        }
    }
    assert_eq!(direct(&invalid, &suite[0]), None);
}

/// Constant cost axes: the end-to-end check below exercises the
/// sweep's scheduling path without back-annotating a single component.
struct Flat;

impl AreaModel for Flat {
    fn area(&self, _: &Architecture, _: &ComponentDb) -> f64 {
        1.0
    }
}

impl TimingModel for Flat {
    fn clock_period(&self, _: &Architecture, _: &ComponentDb) -> f64 {
        1.0
    }
}

impl TestCostModel for Flat {
    fn test_cost(&self, _: &Architecture, _: &ComponentDb) -> ArchTestCost {
        ArchTestCost {
            components: Vec::new(),
            total: 1.0,
        }
    }
}

#[test]
fn sweep_cycles_match_direct_scheduling_on_every_fast_point() {
    let registry = SuiteRegistry::standard();
    let suite = registry
        .instantiate("all", &SuiteParams::fast())
        .expect("standard suite");
    let workloads: Vec<&Workload> = suite.iter().map(|w| &w.workload).collect();
    let space = TemplateSpace::fast_default();
    for parallel in [false, true] {
        let result = Exploration::over(space.clone())
            .suite(&suite)
            .area_model(Flat)
            .timing_model(Flat)
            .test_cost_model(Flat)
            .threads(if parallel { 2 } else { 1 })
            .run();
        assert_eq!(result.search.evaluations, space.len());
        let mut infeasible = 0;
        let mut evaluated = result.evaluated.iter();
        for arch in space.points() {
            let outcomes: Option<Vec<(u32, u32)>> =
                workloads.iter().map(|w| direct(&arch, w)).collect();
            let Some(outcomes) = outcomes else {
                infeasible += 1;
                continue;
            };
            let e = evaluated.next().expect("a feasible point is evaluated");
            assert_eq!(e.architecture, arch);
            let cycles: Vec<u64> = workloads
                .iter()
                .zip(&outcomes)
                .map(|(w, &(c, _))| w.application_cycles(c))
                .collect();
            assert_eq!(e.workload_cycles, cycles, "{}", arch.name);
            assert_eq!(e.spills, outcomes.iter().map(|&(_, s)| s).sum::<u32>());
        }
        assert_eq!(result.infeasible, infeasible);
        let stats = result.schedule;
        assert!(stats.runs < stats.lookups, "{stats:?}");
    }
}
