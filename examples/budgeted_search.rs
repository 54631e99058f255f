//! Budgeted, seeded search strategies: sweep a space without visiting
//! every point, and watch the guided climber track the exhaustive
//! front on a fraction of the evaluations.
//!
//! Run with: `cargo run --release --example budgeted_search`

use ttadse::arch::template::TemplateSpace;
use ttadse::explore::explore::Exploration;
use ttadse::explore::parallel::default_threads;
use ttadse::explore::search::{HillClimb, RandomSample};
use ttadse::explore::ComponentDb;
use ttadse::workloads::suite;

fn main() {
    let workload = suite::crypt(1);
    let db = ComponentDb::new();
    let space = TemplateSpace::fast_default();

    // The oracle: the classic exhaustive sweep.
    let full = Exploration::over(space.clone())
        .workload(&workload)
        .with_db(&db)
        .threads(default_threads())
        .run();
    println!(
        "exhaustive: {} points visited, {} on the front",
        full.search.evaluations,
        full.pareto.len()
    );

    // Half the budget, uniformly sampled. Deterministic per seed: run
    // this example twice and the numbers do not move.
    let budget = space.len() / 2;
    let sampled = Exploration::over(space.clone())
        .workload(&workload)
        .with_db(&db)
        .strategy(RandomSample)
        .budget(budget)
        .seed(42)
        .run();
    println!(
        "random (budget {budget}, seed 42): {} visited, {} on its front",
        sampled.search.evaluations,
        sampled.pareto.len()
    );

    // The guided climber mutates template knobs of front members.
    let climbed = Exploration::over(space)
        .workload(&workload)
        .with_db(&db)
        .strategy(HillClimb::with_batch(4))
        .budget(budget)
        .seed(42)
        .run();
    println!(
        "hillclimb (budget {budget}, seed 42): {} visited in {} rounds, {} on its front",
        climbed.search.evaluations,
        climbed.search.rounds,
        climbed.pareto.len()
    );

    // A sampled front is valid for the points it saw — every member is
    // non-dominated — but only the exhaustive front is authoritative
    // for the whole space.
    let best = full.select_equal_weights();
    println!("exhaustive selection: {}", best.architecture);
    if let Some(pick) = climbed.try_select(
        &ttadse::explore::Weights::equal(climbed.axes().len()),
        ttadse::explore::Norm::Euclidean,
    ) {
        println!("hillclimb selection:  {}", pick.architecture);
    }
}
