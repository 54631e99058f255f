//! Bring your own workload: define a dataflow kernel, verify it against
//! plain Rust, then explore which TTA suits it — including the test
//! axis. Shows a multi-workload sweep (the MUL-hungry kernel plus the
//! crypt trace) selecting a machine that serves both.
//!
//! Run with: `cargo run --release --example custom_workload`

use ttadse::arch::template::TemplateSpace;
use ttadse::explore::explore::Exploration;
use ttadse::explore::parallel::default_threads;
use ttadse::movec::ir::{Dfg, Op};
use ttadse::workloads::{suite, Workload};

/// A small polynomial evaluator: y = c3·x³ + c2·x² + c1·x + c0 (Horner).
fn horner_dfg(coeffs: [u64; 4]) -> Dfg {
    let mut dfg = Dfg::new(16);
    let x = dfg.input();
    let mut acc = dfg.constant(coeffs[3]);
    for &c in coeffs[..3].iter().rev() {
        let t = dfg.op(Op::Mul, &[acc, x]);
        let cc = dfg.constant(c);
        acc = dfg.op(Op::Add, &[t, cc]);
    }
    dfg.mark_output(acc);
    dfg
}

fn main() {
    let coeffs = [7u64, 3, 0, 2]; // 2x^3 + 0x^2 + 3x + 7
    let dfg = horner_dfg(coeffs);

    // Golden check against plain Rust (wrapping 16-bit).
    let x = 5u64;
    let expect = (2 * x * x * x + 3 * x + 7) & 0xFFFF;
    let got = dfg.eval(&[x], &mut [0]);
    assert_eq!(got[0], expect);
    println!("horner(5) = {} ✓ (matches Rust)", got[0]);

    // Explore: this kernel *requires* a multiplier, so MUL-less
    // architectures drop out as infeasible.
    let mut space = TemplateSpace::fast_default();
    space.muls = vec![0, 1];
    let horner = Workload {
        name: "horner3".into(),
        dfg,
        inputs: vec![x],
        mem: vec![0],
        trace_iterations: 1024,
    };
    let result = Exploration::over(space.clone())
        .workload(&horner)
        .threads(default_threads())
        .run();
    println!(
        "{} feasible, {} infeasible (no multiplier)",
        result.evaluated.len(),
        result.infeasible
    );
    let best = result.select_equal_weights();
    println!("selected architecture:\n{}", best.architecture);
    assert!(
        best.architecture
            .fus
            .iter()
            .any(|f| f.name.starts_with("mul")),
        "a MUL-hungry workload must select a machine with a multiplier"
    );
    println!(
        "area {:.0} GE, {} cycles, test cost {:.0}",
        best.area(),
        best.cycles,
        best.test_cost().unwrap_or(f64::NAN)
    );

    // Multi-workload sweep: aggregate cycles over horner + crypt. The
    // selected machine must still carry the multiplier (horner is in the
    // suite), and the cycle count now covers both applications.
    let crypt = suite::crypt(1);
    let multi = Exploration::over(space)
        .workloads([&horner, &crypt])
        .threads(default_threads())
        .run();
    let best_multi = multi.select_equal_weights();
    println!(
        "\nmulti-workload ({} + {}): selected {} ({} total cycles)",
        horner.name, crypt.name, best_multi.architecture.name, best_multi.cycles
    );
    assert!(best_multi
        .architecture
        .fus
        .iter()
        .any(|f| f.name.starts_with("mul")));
    assert_eq!(best_multi.workload_cycles.len(), 2);
}
