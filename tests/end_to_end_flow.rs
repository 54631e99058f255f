//! Integration: the complete paper flow at fast scale — sweep, Pareto,
//! test lifting, selection — with the paper's structural claims checked
//! end to end through the `Exploration` builder.

use ttadse::arch::template::TemplateSpace;
use ttadse::explore::explore::{Exploration, Objective};
use ttadse::explore::norm::{Norm, Weights};
use ttadse::explore::parallel::default_threads;
use ttadse::explore::pareto::{dominates, pareto_front};
use ttadse::explore::ComponentDb;
use ttadse::workloads::suite;

#[test]
fn full_flow_properties() {
    let result = Exploration::over(TemplateSpace::fast_default())
        .workload(&suite::crypt(1))
        .run();

    // Non-degenerate sweep.
    assert!(result.evaluated.len() >= 6);
    assert!(!result.pareto.is_empty());

    // Pareto front really is a front.
    let pts: Vec<Vec<f64>> = result
        .evaluated
        .iter()
        .map(|e| vec![e.area(), e.exec_time()])
        .collect();
    assert_eq!(pareto_front(&pts), result.pareto);

    // "only the architectures that correspond to the Pareto points … are
    // evaluated in terms of testing".
    for (i, e) in result.evaluated.iter().enumerate() {
        assert_eq!(e.test_cost().is_some(), result.is_on_front(i), "{i}");
        assert_eq!(
            e.objectives.axes().len(),
            if result.is_on_front(i) { 3 } else { 2 }
        );
    }
    assert_eq!(
        result.axes(),
        [Objective::Area, Objective::ExecTime, Objective::TestCost]
    );

    // Figure 8 projection property.
    assert!(result.projection_holds());

    // The selected point is on the front and no point dominates it in 3-D.
    let best = result.select_equal_weights();
    let best3 = best.objectives.values().to_vec();
    for v in result.pareto_vectors() {
        assert!(
            !dominates(v.values(), &best3),
            "selection must not be 3-D dominated"
        );
    }
}

#[test]
fn parallel_flow_matches_serial_end_to_end() {
    let w = suite::crypt(1);
    let db = ComponentDb::new();
    let serial = Exploration::over(TemplateSpace::fast_default())
        .workload(&w)
        .with_db(&db)
        .run();
    let parallel = Exploration::over(TemplateSpace::fast_default())
        .workload(&w)
        .with_db(&db)
        .threads(7) // odd thread count to shake out ordering bugs
        .run();
    assert_eq!(serial.infeasible, parallel.infeasible);
    assert_eq!(serial.pareto, parallel.pareto);
    assert_eq!(serial.evaluated.len(), parallel.evaluated.len());
    for (a, b) in serial.evaluated.iter().zip(&parallel.evaluated) {
        assert_eq!(a.architecture.name, b.architecture.name);
        assert_eq!(a.objectives, b.objectives);
    }
    assert_eq!(
        serial.select_equal_weights().architecture.name,
        parallel.select_equal_weights().architecture.name
    );
}

/// The PR-1 acceptance criterion at full paper scale: the parallel sweep
/// over the 144-point space is bit-identical to the serial one. Takes
/// about a minute in release mode, so it is `#[ignore]`d by default —
/// run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "paper-scale run (~1 min in release); covered at fast scale above"]
fn paper_scale_parallel_matches_serial() {
    let w = suite::crypt(16);
    let db = ComponentDb::new();
    let serial = Exploration::over(TemplateSpace::paper_default())
        .workload(&w)
        .with_db(&db)
        .run();
    let parallel = Exploration::over(TemplateSpace::paper_default())
        .workload(&w)
        .with_db(&db)
        .threads(default_threads())
        .run();
    assert_eq!(serial.evaluated.len(), 144 - serial.infeasible);
    assert_eq!(serial.pareto, parallel.pareto);
    for (a, b) in serial.evaluated.iter().zip(&parallel.evaluated) {
        assert_eq!(a.architecture.name, b.architecture.name);
        assert_eq!(a.objectives, b.objectives);
    }
    assert_eq!(
        serial.select_equal_weights().architecture.name,
        parallel.select_equal_weights().architecture.name
    );
}

#[test]
fn selection_responds_to_weights() {
    let result = Exploration::over(TemplateSpace::fast_default())
        .workload(&suite::crypt(1))
        .run();
    // Area-heavy weights must never select a point with larger area than
    // the equal-weight choice.
    let equal = result.select_equal_weights();
    let area_heavy = result.select(&Weights(vec![100.0, 1.0, 1.0]), Norm::Euclidean);
    assert!(area_heavy.area() <= equal.area());
    // Time-heavy weights must never select a slower point.
    let time_heavy = result.select(&Weights(vec![1.0, 100.0, 1.0]), Norm::Euclidean);
    assert!(time_heavy.exec_time() <= equal.exec_time());
}

#[test]
fn test_cost_varies_along_the_front() {
    // Figure 8's message: architectures adjacent on the 2-D front can
    // differ in test cost; the axis must not be constant (unless the
    // front collapses to one point).
    let result = Exploration::over(TemplateSpace::fast_default())
        .workload(&suite::crypt(1))
        .run();
    let costs: Vec<f64> = result
        .pareto_points()
        .iter()
        .map(|e| e.test_cost().expect("front has test cost"))
        .collect();
    if costs.len() >= 2 {
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "test axis is flat: {costs:?}");
    }
}

#[test]
fn different_workloads_can_select_different_machines() {
    let db = ComponentDb::new();
    let crypt = Exploration::over(TemplateSpace::fast_default())
        .workload(&suite::crypt(1))
        .with_db(&db)
        .run();
    let checksum = Exploration::over(TemplateSpace::fast_default())
        .workload(&suite::checksum32())
        .with_db(&db)
        .run();
    // Both select something valid; the fronts themselves may differ.
    assert!(crypt.select_equal_weights().test_cost().is_some());
    assert!(checksum.select_equal_weights().test_cost().is_some());
}

#[test]
fn multi_workload_suite_explores_end_to_end() {
    let crypt = suite::crypt(1);
    let checksum = suite::checksum32();
    let result = Exploration::over(TemplateSpace::fast_default())
        .workloads([&crypt, &checksum])
        .threads(default_threads())
        .run();
    assert_eq!(result.workloads.len(), 2);
    assert!(!result.pareto.is_empty());
    let best = result.select_equal_weights();
    assert_eq!(best.workload_cycles.len(), 2);
    assert_eq!(best.cycles, best.workload_cycles.iter().sum::<u64>());
}
