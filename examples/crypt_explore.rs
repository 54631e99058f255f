//! The complete paper flow on the Crypt application: design-space sweep,
//! 2-D Pareto front (Figure 2), test-cost lifting (Figure 8) and
//! equal-weight Euclidean selection (Figure 9) — through the
//! `Exploration` builder with a parallel sweep.
//!
//! Run with: `cargo run --release --example crypt_explore` (add `--fast`
//! for the reduced 8-bit space).

use ttadse::arch::template::TemplateSpace;
use ttadse::explore::explore::Exploration;
use ttadse::explore::norm::{Norm, Weights};
use ttadse::explore::parallel::default_threads;
use ttadse::workloads::suite;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (space, rounds) = if fast {
        (TemplateSpace::fast_default(), 1)
    } else {
        (TemplateSpace::paper_default(), 16)
    };
    let workload = suite::crypt(rounds);
    println!(
        "exploring {} architectures for {} …",
        space.len(),
        workload.name
    );

    let result = Exploration::over(space)
        .workload(&workload)
        .threads(default_threads())
        .run();
    println!(
        "{} feasible points, {} infeasible, {} on the Pareto front\n",
        result.evaluated.len(),
        result.infeasible,
        result.pareto.len()
    );

    println!("-- Figure 2: area/time Pareto front --");
    let mut front = result.pareto_points();
    front.sort_by(|a, b| a.area().total_cmp(&b.area()));
    for e in &front {
        println!(
            "  area {:>8.0} GE   time {:>12.0}   test {:>8.0}   {}",
            e.area(),
            e.exec_time(),
            e.test_cost().unwrap_or(f64::NAN),
            e.architecture.name
        );
    }
    assert!(result.projection_holds(), "Figure 8 projection property");

    println!("\n-- Figure 9: equal-weight Euclidean selection --");
    let best = result.select_equal_weights();
    println!("{}", best.architecture);
    println!(
        "area {:.0} GE, {} cycles, test cost {:.0} cycles",
        best.area(),
        best.cycles,
        best.test_cost().unwrap_or(f64::NAN)
    );

    println!("\n-- selection sensitivity --");
    for (label, w, n) in [
        ("Manhattan", Weights::equal(3), Norm::Manhattan),
        ("Chebyshev", Weights::equal(3), Norm::Chebyshev),
        ("test-heavy", Weights(vec![1.0, 1.0, 4.0]), Norm::Euclidean),
        ("area-heavy", Weights(vec![4.0, 1.0, 1.0]), Norm::Euclidean),
        ("time-heavy", Weights(vec![1.0, 4.0, 1.0]), Norm::Euclidean),
    ] {
        let pick = result.select(&w, n);
        println!("  {label:<11} -> {}", pick.architecture.name);
    }
}
