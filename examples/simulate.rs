//! Assemble → run → trace → compare-to-model, on the FFT butterfly
//! kernel: the full cycle-accurate simulator loop in one example.
//!
//! The scheduler's cycle count is an *analytic* model; this example
//! shows the loop that keeps it honest — lower the schedule to an
//! executable move program, round-trip it through the assembler, run
//! it cycle by cycle, and check both the cycle count and the outputs
//! against the golden dataflow model.
//!
//! Run with: `cargo run --example simulate`

use ttadse::arch::template::TemplateSpace;
use ttadse::asm::{assemble, disassemble};
use ttadse::movec::schedule::Scheduler;
use ttadse::sim::{lower, SimOptions, Simulator};
use ttadse::workloads::suite::{SuiteParams, SuiteRegistry};

fn main() {
    // 1. The workload: the FFT butterfly stage from the standard
    //    registry, and a machine with a multiplier to run it on (the
    //    maximal point of the fast template space).
    let registry = SuiteRegistry::standard();
    let w = registry
        .build("fft", &SuiteParams::fast())
        .expect("fft is a registered workload");
    let space = TemplateSpace::fast_default();
    let arch = space.point(space.len() - 1);
    println!("workload {} on {}", w.name, arch.name);

    // 2. The analytic model: the list scheduler's cycle count.
    let schedule = Scheduler::new(&arch)
        .run(&w.dfg)
        .expect("the maximal point schedules every kernel");
    println!(
        "model: {} cycles, {} moves, {} spills",
        schedule.cycles,
        schedule.moves.len(),
        schedule.spills
    );

    // 3. Lower the schedule to an executable move program and take it
    //    through the assembler: text → program is exact (and the
    //    canonical text is a byte-stable fixed point).
    let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).expect("schedules lower");
    let text = disassemble(&program);
    let reassembled = assemble(&text).expect("canonical text assembles");
    assert_eq!(reassembled, program, "assembler round-trip is exact");
    println!(
        "\nprogram head ({} instructions):",
        program.instructions.len()
    );
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    println!("  ...");

    // 4. Execute it cycle by cycle. Lowered programs opt into the
    //    spill convention (registers beyond the hardware file).
    let trace = Simulator::new(&arch)
        .options(SimOptions::LOWERED)
        .run(&reassembled)
        .expect("lowered programs execute");
    println!("\ntrace head:");
    for step in trace.steps.iter().take(4) {
        let moves = step
            .moves
            .iter()
            .map(|m| format!("{} -> {} = {}", m.src, m.dst, m.value))
            .collect::<Vec<_>>()
            .join("; ");
        println!(
            "  cycle {:>3} [instr {:>3}]  {moves}",
            step.cycle, step.instr
        );
    }
    println!("  ...");

    // 5. The validation the whole subsystem exists for: executed ==
    //    modeled, and the outputs match the golden dataflow model.
    let golden = {
        let mut mem = w.mem.clone();
        w.dfg.eval(&w.inputs, &mut mem)
    };
    println!(
        "\nexecuted cycles: {} (model: {})",
        trace.cycles, schedule.cycles
    );
    println!("outputs:  {:?}", trace.outputs);
    println!("golden:   {golden:?}");
    assert_eq!(
        trace.cycles,
        u64::from(schedule.cycles),
        "cycle model drifted"
    );
    assert_eq!(trace.outputs, golden, "executed outputs diverged");
    println!("\nsimulation reproduces the analytic model exactly");
}
