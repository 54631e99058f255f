//! Distils the sweep, fold, fidelity and simulator timings into the
//! flat JSON committed as `BENCH_dse.json` (the committed perf
//! trajectory; see `docs/PERF.md` for how to read it).
//!
//! The repository's one bench harness: a plain binary, so CI can run it
//! and soft-check wall-clock against the committed numbers:
//!
//! ```text
//! cargo run --release -p tta-bench --bin bench_dse -- --space fast
//! cargo run --release -p tta-bench --bin bench_dse -- --date 2026-08-08 > BENCH_dse.json
//! ```
//!
//! Every sweep here is cold-cache by construction (no `SweepCache`
//! attached) but shares one warmed `ComponentDb`, as a real campaign
//! would.

use std::hint::black_box;
use std::time::Instant;

use tta_arch::template::TemplateSpace;
use tta_core::explore::{CycleSource, Exploration, ExploreResult};
use tta_core::models::{
    AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel, InterconnectModel,
    TestCostModel, TimingModel,
};
use tta_core::ComponentDb;
use tta_movec::schedule::Scheduler;
use tta_netlist::{elaborate, timing, IncrementalElaborator};
use tta_sim::{lower, SimOptions, Simulator};
use tta_workloads::suite;

struct SweepRow {
    space: &'static str,
    points: usize,
    front: usize,
    sweep_s: f64,
}

struct FoldRow {
    space: &'static str,
    points: usize,
    walked: usize,
    fold_s: f64,
}

struct FidelityRow {
    space: &'static str,
    points: usize,
    walked: usize,
    table_s: f64,
    netlist_s: f64,
    incremental_s: f64,
}

/// Simulator runs per timed kernel batch: a kernel executes in tens to
/// hundreds of microseconds, too short to time one run at a time.
const SIM_RUNS: u32 = 100;

/// Times the cycle-accurate simulator and renders the `sim` object:
/// every kernel of the `all` suite executed on the maximal fast-space
/// point (mean wall-clock per run, best of `iters` batches), and the
/// fast-space crypt sweep with its exec-time axis fed by the analytic
/// model vs by the simulator. An untimed pass first asserts the two
/// sweeps' results are equal.
fn time_sim(db: &ComponentDb, iters: usize) -> String {
    eprintln!("simulator kernels and model-vs-simulate fast sweep...");
    let space = TemplateSpace::fast_default();
    let arch = space.point(space.len() - 1);
    let options = SimOptions {
        allow_register_overflow: true,
        ..Default::default()
    };
    let members = suite::SuiteRegistry::standard()
        .instantiate("all", &suite::SuiteParams::fast())
        .expect("the standard registry has an `all` suite");
    let mut kernels = Vec::new();
    for w in members.into_iter().map(|m| m.workload) {
        let schedule = Scheduler::new(&arch)
            .run(&w.dfg)
            .expect("the maximal point schedules every kernel");
        let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).expect("schedules lower");
        let run = || {
            let result = Simulator::new(&arch).options(options).run(&program);
            result.expect("lowered programs execute").cycles
        };
        let cycles = run();
        let batch_s = best_of(iters, &mut || (0..SIM_RUNS).map(|_| run() as f64).sum());
        let mean_us = batch_s / f64::from(SIM_RUNS) * 1e6;
        kernels.push(format!(
            "      {{ \"name\": \"{}\", \"cycles_per_run\": {cycles}, \"mean_us\": {mean_us:.2}, \
             \"cycles_per_sec\": {:.0} }}",
            w.name,
            cycles as f64 / mean_us * 1e6
        ));
    }

    let crypt = suite::crypt(1);
    let sweep = |source| {
        Exploration::over(space.clone())
            .workload(&crypt)
            .with_db(db)
            .cycle_source(source)
            .run()
    };
    // Every point, the front and the blame, without the run's own
    // counters (`Debug` prints each float's exact value).
    let answer = |r: ExploreResult| format!("{:?} {:?} {:?}", r.evaluated, r.pareto, r.blocked);
    assert_eq!(
        answer(sweep(CycleSource::Model)),
        answer(sweep(CycleSource::Simulate)),
        "simulated cycles must reproduce the analytic model"
    );
    let time_sweep = |source| {
        best_of(iters, &mut || {
            black_box(sweep(source));
            0.0
        })
    };
    let (model_s, simulate_s) = (
        time_sweep(CycleSource::Model),
        time_sweep(CycleSource::Simulate),
    );
    format!(
        "{{\n    \"kernels\": [\n{}\n    ],\n    \"sweep\": {{ \"space\": \"fast\", \
         \"workload\": \"{}\", \"model_s\": {model_s:.6}, \"simulate_s\": {simulate_s:.6}, \
         \"simulate_over_model\": {:.2} }}\n  }}",
        kernels.join(",\n"),
        crypt.name,
        simulate_s / model_s
    )
}

/// Times the area+clock axes per point under the two fidelities: the
/// back-annotation `table` fold, a from-scratch gate-level elaboration
/// (`elaborate` + loaded STA — what `--fidelity netlist` pays on a
/// cold, non-neighbour walk), and the `IncrementalElaborator` along the
/// same Gray-walk order, which rewinds to the first differing segment
/// instead of rebuilding the whole point. An untimed pass first asserts
/// the incremental netlists dump bit-identically to the from-scratch
/// ones.
fn time_fidelity_axis(
    space: &'static str,
    template: TemplateSpace,
    db: &ComponentDb,
    iters: usize,
) -> FidelityRow {
    eprintln!(
        "fidelity axis over {space} space ({} points)...",
        template.len()
    );
    let archs: Vec<_> = template
        .neighbour_order()
        .map(|i| template.point(i))
        .collect();
    let ic = InterconnectModel::paper();
    let area = AnnotatedAreaModel::new(ic);
    let clock = AnnotatedTimingModel::new(ic);

    // Untimed bit-identity pass (also warms the annotation database on
    // the table side so neither engine pays for it in the timed loop).
    let mut inc = IncrementalElaborator::new();
    for arch in &archs {
        let walked = inc.advance(arch).expect("incremental elaboration");
        let fresh = elaborate(arch).expect("scratch elaboration");
        assert_eq!(walked.dump(), fresh.dump(), "point {}", arch.name);
        black_box(area.area(arch, db) + clock.clock_period(arch, db));
    }

    let table_s = best_of(iters, &mut || {
        archs
            .iter()
            .map(|a| area.area(a, db) + clock.clock_period(a, db))
            .sum()
    });
    let netlist_s = best_of(iters, &mut || {
        archs
            .iter()
            .map(|a| {
                let nl = elaborate(a).expect("scratch elaboration");
                nl.area() + timing::min_clock_period(&nl)
            })
            .sum()
    });
    let incremental_s = best_of(iters, &mut || {
        let mut inc = IncrementalElaborator::new();
        archs
            .iter()
            .map(|a| {
                let nl = inc.advance(a).expect("incremental elaboration");
                nl.area() + timing::min_clock_period(&nl)
            })
            .sum()
    });
    FidelityRow {
        space,
        points: template.len(),
        walked: archs.len(),
        table_s,
        netlist_s,
        incremental_s,
    }
}

/// Best-of-`iters` wall-clock of `f`.
fn best_of(iters: usize, f: &mut dyn FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times the three-axis cost fold alone — area, clock period, eq. (14)
/// test total — over a budgeted Gray-walk prefix, with scheduling and
/// architecture construction excluded. Each axis is one fold under one
/// database read lock per point; the full-sweep rows above stay
/// scheduler-dominated by design.
fn time_fold_axis(
    space: &'static str,
    template: TemplateSpace,
    walked: usize,
    db: &ComponentDb,
    iters: usize,
) -> FoldRow {
    let walked = walked.min(template.len());
    eprintln!(
        "fold axis over {space} space ({walked} of {} points)...",
        template.len()
    );
    let archs: Vec<_> = template
        .neighbour_order()
        .take(walked)
        .map(|i| template.point(i))
        .collect();
    let ic = InterconnectModel::paper();
    let area = AnnotatedAreaModel::new(ic);
    let timing = AnnotatedTimingModel::new(ic);
    let fold = || -> f64 {
        archs
            .iter()
            .map(|a| {
                area.area(a, db)
                    + timing.clock_period(a, db)
                    + Eq14TestCostModel.test_cost(a, db).total
            })
            .sum()
    };
    // One untimed pass annotates every component the walk reads.
    black_box(fold());
    FoldRow {
        space,
        points: template.len(),
        walked,
        fold_s: best_of(iters, &mut || fold()),
    }
}

/// Best-of-`iters` wall-clock for one cold sweep.
fn time_sweep(space: &TemplateSpace, db: &ComponentDb, iters: usize) -> (f64, usize) {
    let workload = suite::crypt(1);
    let mut front = 0;
    let best = best_of(iters, &mut || {
        let result = Exploration::over(space.clone())
            .workload(&workload)
            .with_db(db)
            .run();
        front = result.pareto.len();
        0.0
    });
    (best, front)
}

fn measure(
    space: &'static str,
    template: TemplateSpace,
    db: &ComponentDb,
    iters: usize,
) -> SweepRow {
    eprintln!("sweeping {space} space ({} points)...", template.len());
    // One untimed pass so the lazily-annotated database is warm before
    // the sweep is measured (matters for --iters 1).
    time_sweep(&template, db, 1);
    let (sweep_s, front) = time_sweep(&template, db, iters);
    SweepRow {
        space,
        points: template.len(),
        front,
        sweep_s,
    }
}

/// The headline trajectory number: one cold paper-scale fig2-style
/// sweep, annotation database and all. The CI perf step soft-checks it
/// (`--space paper --iters 3`) at 3× the committed `BENCH_dse.json`
/// row, like the other rows.
fn time_cold(iters: usize) -> f64 {
    let workload = suite::crypt(1);
    best_of(iters, &mut || {
        let db = ComponentDb::new();
        Exploration::over(TemplateSpace::paper_default())
            .workload(&workload)
            .with_db(&db)
            .run();
        0.0
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut date = String::from("unknown");
    let mut space_filter: Option<String> = None;
    let mut iters = 3usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--date" => date = it.next().expect("--date needs a value").clone(),
            "--space" => space_filter = Some(it.next().expect("--space needs a value").clone()),
            "--iters" => {
                iters = it
                    .next()
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters needs a number")
            }
            other => {
                eprintln!("unknown flag {other:?} (expected --date, --space or --iters)");
                std::process::exit(2);
            }
        }
    }

    // One shared database covers both widths (records are keyed by
    // component width); warm it with the cheap space first so neither
    // timed sweep pays for annotation.
    let db = ComponentDb::new();
    let keep = |name: &str| space_filter.as_deref().is_none_or(|f| f == name);
    let mut rows = Vec::new();
    if keep("fast") {
        rows.push(measure("fast", TemplateSpace::fast_default(), &db, iters));
    }
    if keep("paper") {
        rows.push(measure("paper", TemplateSpace::paper_default(), &db, iters));
    }
    // Fold-axis rows: per-point cost evaluation alone. The huge row is
    // the first
    // budgeted sweep of the 2^20-point hierarchical space — walking the
    // whole space is deliberately out of reach; a 4096-point Gray
    // prefix is what a budgeted campaign actually evaluates.
    let mut fold_rows = Vec::new();
    if keep("fast") {
        fold_rows.push(time_fold_axis(
            "fast",
            TemplateSpace::fast_default(),
            usize::MAX,
            &db,
            iters,
        ));
    }
    if keep("paper") {
        fold_rows.push(time_fold_axis(
            "paper",
            TemplateSpace::paper_default(),
            usize::MAX,
            &db,
            iters,
        ));
    }
    if keep("huge") {
        fold_rows.push(time_fold_axis(
            "huge",
            TemplateSpace::huge(),
            4096,
            &db,
            iters,
        ));
    }
    // Fidelity rows: area+clock per point from the annotation tables vs
    // per-point gate-level elaboration (scratch and incremental). Fast
    // space only — the netlist axis is meant for front-sized point
    // counts, not the 2^20 walk.
    let mut fidelity_rows = Vec::new();
    if keep("fast") {
        fidelity_rows.push(time_fidelity_axis(
            "fast",
            TemplateSpace::fast_default(),
            &db,
            iters,
        ));
    }
    // Simulator rows: fast space only, like the fidelity rows.
    let sim = keep("fast").then(|| time_sim(&db, iters));
    if rows.is_empty() && fold_rows.is_empty() && fidelity_rows.is_empty() {
        eprintln!("--space matched nothing (expected fast, paper or huge)");
        std::process::exit(2);
    }

    println!("{{");
    println!("  \"bench\": \"dse\",");
    println!("  \"date\": \"{date}\",");
    println!(
        "  \"command\": \"cargo run --release -p tta-bench --bin bench_dse -- --date {date}\","
    );
    println!(
        "  \"note\": \"best-of-{iters} wall-clock, release profile, single machine run, cold \
         sweep cache, shared warmed ComponentDb. The sweep rows are whole serial sweeps (crypt, \
         one round) and are scheduler-dominated; the cold row rebuilds the annotation database \
         (real ATPG + march runs) inside the timed region, as `ttadse fig2` pays it. The \
         fold_axis rows isolate per-point cost evaluation (area + clock + eq. (14) total, one \
         database read lock per fold) over a Gray-walk prefix; the huge row is the budgeted \
         2^20-point hierarchical-space walk. All rows are regression guards: CI warns when a \
         row exceeds 3x its committed value. The fidelity rows time the area+clock axes per point: table folds the \
         back-annotation constants, netlist elaborates every point to gates from scratch and \
         runs the loaded STA (what --fidelity netlist pays on a cold non-neighbour walk), \
         incremental drives the IncrementalElaborator along the Gray walk, rewinding to the \
         first differing segment (bit-identity to scratch asserted in an untimed pass). The \
         table fold being orders of magnitude cheaper is the fidelity trade, not a regression; \
         the CI soft bar also watches netlist_over_incremental. The sim rows execute every \
         kernel's lowered program on the maximal fast-space point (mean of 100 runs, best \
         batch) and time the fast-space crypt sweep with the exec-time axis from the analytic \
         model vs the simulator (equal results asserted in an untimed pass).\","
    );
    println!("  \"sweeps\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"front\": {}, \"sweep_s\": {:.4} }}{comma}",
            r.space, r.points, r.front, r.sweep_s
        );
    }
    println!("  ],");
    println!("  \"fold_axis\": [");
    for (i, r) in fold_rows.iter().enumerate() {
        let comma = if i + 1 < fold_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"walked\": {}, \"fold_s\": {:.6} }}{comma}",
            r.space, r.points, r.walked, r.fold_s
        );
    }
    println!("  ],");
    println!("  \"fidelity\": [");
    for (i, r) in fidelity_rows.iter().enumerate() {
        let comma = if i + 1 < fidelity_rows.len() { "," } else { "" };
        println!(
            "    {{ \"space\": \"{}\", \"points\": {}, \"walked\": {}, \"table_s\": {:.6}, \
             \"netlist_s\": {:.6}, \"incremental_s\": {:.6}, \"netlist_over_incremental\": {:.1} }}{comma}",
            r.space,
            r.points,
            r.walked,
            r.table_s,
            r.netlist_s,
            r.incremental_s,
            r.netlist_s / r.incremental_s
        );
    }
    println!("  ],");
    println!("  \"sim\": {},", sim.as_deref().unwrap_or("null"));
    if keep("paper") {
        // Cold end-to-end: the annotation database (real ATPG + march
        // runs) is rebuilt inside the timed region, as `ttadse fig2`
        // pays it. This is the committed trajectory headline.
        eprintln!("cold paper sweeps (database rebuilt per run)...");
        let cold = time_cold(iters);
        println!("  \"cold\": {{");
        println!("    \"space\": \"paper\", \"includes_annotation\": true, \"sweep_s\": {cold:.3}");
        println!("  }}");
    } else {
        println!("  \"cold\": null");
    }
    println!("}}");
}
