//! The persistent sweep cache: run the same exploration twice and watch
//! the second run answer every point from disk, bit-identically.
//!
//! Run with: `cargo run --release --example cached_sweep`

use ttadse::arch::template::TemplateSpace;
use ttadse::explore::cache::SweepCache;
use ttadse::explore::explore::Exploration;
use ttadse::explore::parallel::default_threads;
use ttadse::workloads::suite;

fn main() {
    let dir = std::env::temp_dir().join("ttadse-example-cache");
    let cache = SweepCache::open(&dir).expect("temp dir is writable");
    let workload = suite::crypt(1);

    let run = || {
        Exploration::over(TemplateSpace::fast_default())
            .workload(&workload)
            .cache(&cache)
            .threads(default_threads())
            .run()
    };

    let cold = run();
    println!(
        "cold run: {} points evaluated, {} hits / {} misses",
        cold.evaluated.len(),
        cache.hits(),
        cache.misses()
    );

    let (h0, m0) = (cache.hits(), cache.misses());
    let warm = run();
    println!(
        "warm run: {} points evaluated, {} hits / {} misses (this run only)",
        warm.evaluated.len(),
        cache.hits() - h0,
        cache.misses() - m0
    );

    // Warm results are bit-identical to cold ones.
    assert_eq!(cold.pareto, warm.pareto);
    for (c, w) in cold.evaluated.iter().zip(&warm.evaluated) {
        assert_eq!(c.objectives, w.objectives, "{}", c.architecture.name);
    }
    println!(
        "bit-identical fronts; cache file: {}",
        cache.path().display()
    );

    // The same entries serve any sweep that visits the same points —
    // e.g. the `ttadse` CLI:
    println!("try: ttadse fig2 --fast --cache-dir {}", dir.display());
}
