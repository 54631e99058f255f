//! Test-space co-exploration: what does the paper's Pareto-only lift
//! miss?
//!
//! The paper evaluates test cost only on the (area, time) Pareto
//! points. `LiftMode::Full` instead sweeps the test axis as a third
//! objective. This example runs both modes over the fast space for two
//! suites and both test models, verifies the structural contracts, and
//! prints the trade-offs the post-hoc lift cannot see.
//!
//! Run with: `cargo run --release --example full_lift`

use std::collections::HashSet;

use tta_arch::template::TemplateSpace;
use tta_core::explore::{Exploration, LiftMode};
use tta_core::models::ScanTestCostModel;
use tta_core::parallel::default_threads;
use tta_core::ComponentDb;
use tta_workloads::suite::{SuiteParams, SuiteRegistry};

fn main() {
    let db = ComponentDb::new();
    let registry = SuiteRegistry::standard();
    let params = SuiteParams::fast();
    let mut any_missed = false;

    for suite_name in ["paper", "control"] {
        let members = registry
            .instantiate(suite_name, &params)
            .expect("standard suite");
        for scan in [false, true] {
            let model = if scan { "scan" } else { "eq14" };
            let mut e = Exploration::over(TemplateSpace::fast_default())
                .suite(&members)
                .with_db(&db)
                .lift(LiftMode::Full)
                .threads(default_threads());
            if scan {
                e = e.test_cost_model(ScanTestCostModel::new());
            }
            let full = e.run();

            // Contract: every point carries the test axis, and the 3-D
            // front contains the whole 2-D design front.
            assert!(full.evaluated.iter().all(|e| e.test_cost().is_some()));
            let design: HashSet<usize> = full.design_front().into_iter().collect();
            assert!(design.iter().all(|i| full.pareto.contains(i)));

            let missed: Vec<usize> = full
                .pareto
                .iter()
                .copied()
                .filter(|i| !design.contains(i))
                .collect();
            println!(
                "suite {suite_name:7} · test model {model}: design front {} → true 3-D front {} ({} missed by the Pareto-only lift)",
                design.len(),
                full.pareto.len(),
                missed.len()
            );
            for &i in &missed {
                let e = &full.evaluated[i];
                println!(
                    "    missed: {:24} area {:7.0} GE  exec {:9.0}  test {:7.0} cycles",
                    e.architecture.name,
                    e.area(),
                    e.exec_time(),
                    e.test_cost().unwrap()
                );
                any_missed = true;
            }
        }
    }

    // The fast space demonstrably holds trade-offs the paper's
    // post-hoc lift misses (the bench tests pin down which).
    assert!(
        any_missed,
        "expected at least one configuration to surface a missed front point"
    );
    println!("\nthe Pareto-only lift is not lossless: the test axis earns its place in the sweep");
}
