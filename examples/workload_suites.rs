//! Named weighted suites moving the selected architecture: the same
//! template space, swept once per suite, selects *different* machines —
//! the paper's crypt workload picks a lean MUL-less TTA while the
//! DSP-weighted suite (FFT butterfly + FIR + DCT) pays for a
//! multiplier, and the control suite (add-compare-select + GCD) leans
//! on buses instead.
//!
//! Run with: `cargo run --release --example workload_suites`

use ttadse::arch::template::TemplateSpace;
use ttadse::explore::explore::Exploration;
use ttadse::explore::parallel::default_threads;
use ttadse::explore::ComponentDb;
use ttadse::workloads::suite::{SuiteParams, SuiteRegistry};

fn main() {
    let registry = SuiteRegistry::standard();
    let params = SuiteParams::fast();
    let db = ComponentDb::new();
    let space = TemplateSpace::fast_default();
    println!(
        "sweeping {} template points per suite (fast scale)\n",
        space.len()
    );

    let mut selections = Vec::new();
    for name in ["paper", "dsp", "control"] {
        let members = registry.instantiate(name, &params).expect("standard suite");
        let labels: Vec<String> = members
            .iter()
            .map(|m| format!("{}:{}", m.workload.name, m.weight))
            .collect();
        let result = Exploration::over(space.clone())
            .suite(&members)
            .with_db(&db)
            .threads(default_threads())
            .run();
        let best = result.select_equal_weights();
        println!(
            "suite {name:<8} [{}]\n  -> {} (area {:.0} GE, exec {:.0}, test {:.0})",
            labels.join(" "),
            best.architecture.name,
            best.area(),
            best.exec_time(),
            best.test_cost().unwrap_or(f64::NAN),
        );
        for b in result.workload_breakdown() {
            println!(
                "     {:<14} weight {:<4} blocked {:<3} cycles {}",
                b.name,
                b.weight,
                b.blocked,
                b.selected_cycles.map_or("-".into(), |c| c.to_string()),
            );
        }
        selections.push((name, best.architecture.clone()));
    }

    // The acceptance property: paper and dsp land on different optima,
    // and the dsp machine carries the multiplier it pays for.
    let paper = &selections[0].1;
    let dsp = &selections[1].1;
    assert_ne!(
        paper.name, dsp.name,
        "the DSP-weighted suite must move the selection"
    );
    assert!(
        dsp.fus.iter().any(|f| f.name.starts_with("mul")),
        "the DSP selection must carry a multiplier"
    );
    assert!(
        !paper.fus.iter().any(|f| f.name.starts_with("mul")),
        "crypt alone should not pay for a multiplier"
    );
    println!(
        "\npaper vs dsp: selection moved ({} -> {})",
        paper.name, dsp.name
    );
}
