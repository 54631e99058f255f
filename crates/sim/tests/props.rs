//! The headline validation: the analytic cycle model is executable.
//!
//! For every workload in the standard registry, on every point of the
//! fast template space, the lowered program's executed cycle count
//! equals the scheduler's analytic count and the executed outputs
//! equal the golden model. Plus: simulator determinism and hard-error
//! paths (contention, unconnected sockets).

use proptest::prelude::*;
use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_movec::schedule::Scheduler;
use tta_sim::{lower, SimError, SimOptions, Simulator};
use tta_workloads::suite::{SuiteParams, SuiteRegistry};

/// The acceptance property: executed == modeled, for every registered
/// workload on every fast-space point where the workload schedules.
#[test]
fn every_workload_executes_to_the_model_on_the_fast_space() {
    let reg = SuiteRegistry::standard();
    let params = SuiteParams::fast();
    let space = TemplateSpace::fast_default();
    let archs: Vec<Architecture> = space.enumerate();
    for name in reg.workload_names() {
        let w = reg.build(name, &params).expect("registered workload");
        let golden = {
            let mut mem = w.mem.clone();
            w.dfg.eval(&w.inputs, &mut mem)
        };
        let mut executed_somewhere = false;
        for arch in &archs {
            let Ok(schedule) = Scheduler::new(arch).run(&w.dfg) else {
                continue; // workload infeasible on this point
            };
            let program = lower(arch, &w.dfg, &schedule, &w.inputs, &w.mem)
                .unwrap_or_else(|e| panic!("{name} on {}: lowering failed: {e}", arch.name));
            let trace = Simulator::new(arch)
                .options(SimOptions::LOWERED)
                .run(&program)
                .unwrap_or_else(|e| panic!("{name} on {}: simulation failed: {e}", arch.name));
            assert_eq!(
                trace.cycles,
                u64::from(schedule.cycles),
                "{name} on {}: executed cycles != scheduled cycles",
                arch.name
            );
            assert_eq!(
                trace.outputs, golden,
                "{name} on {}: executed outputs != golden model",
                arch.name
            );
            executed_somewhere = true;
        }
        assert!(executed_somewhere, "{name} never executed — vacuous test");
    }
}

/// Final memory must also agree with the golden model's view (stores
/// land where `Dfg::eval` says they land).
#[test]
fn final_memory_matches_golden_model() {
    let reg = SuiteRegistry::standard();
    let params = SuiteParams::fast();
    let arch = TemplateSpace::fast_default().point(TemplateSpace::fast_default().len() - 1);
    for name in reg.workload_names() {
        let w = reg.build(name, &params).expect("registered workload");
        let mut golden_mem = w.mem.clone();
        w.dfg.eval(&w.inputs, &mut golden_mem);
        let schedule = Scheduler::new(&arch)
            .run(&w.dfg)
            .expect("maximal point schedules all");
        let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).unwrap();
        let trace = Simulator::new(&arch)
            .options(SimOptions::LOWERED)
            .run(&program)
            .unwrap();
        assert_eq!(trace.mem, golden_mem, "{name}: final memory diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same program + same architecture ⇒ bit-identical trace, twice.
    #[test]
    fn simulation_is_deterministic(point in 0usize..24, wl in 0usize..8) {
        let reg = SuiteRegistry::standard();
        let names = reg.workload_names();
        let name = names[wl % names.len()];
        let w = reg.build(name, &SuiteParams::fast()).expect("registered");
        let space = TemplateSpace::fast_default();
        let arch = space.point(point % space.len());
        if let Ok(schedule) = Scheduler::new(&arch).run(&w.dfg) {
            let program = lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem).unwrap();
            let a = Simulator::new(&arch).options(SimOptions::LOWERED).run(&program).unwrap();
            let b = Simulator::new(&arch).options(SimOptions::LOWERED).run(&program).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

// ---- error paths: illegal programs are hard errors, not silences ----

#[test]
fn bus_contention_is_a_hard_error() {
    // Figure 9 has two buses; a three-move instruction cannot issue.
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 4 = 1 2 3 0
rf1[0] -> alu0.o, rf1[1] -> alu0.add, rf1[2] -> cmp0.o
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    assert!(matches!(
        Simulator::new(&arch).run(&program),
        Err(SimError::BusContention {
            cycle: 0,
            moves: 3,
            buses: 2
        })
    ));
}

#[test]
#[should_panic(expected = "unconnected socket")]
fn unconnected_socket_is_a_hard_error() {
    // Figure 9 has no MUL unit: `mul0` resolves nowhere.
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 2 = 3 4
rf1[0] -> mul0.o, rf1[1] -> mul0.mul
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    Simulator::new(&arch)
        .run(&program)
        .map_err(|e| e.to_string())
        .unwrap();
}

#[test]
fn double_write_same_register_is_a_hard_error() {
    // Two moves into the same operand register in one cycle.
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 4 = 1 2 0 0
rf1[0] -> alu0.o, rf1[1] -> alu0.o
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    assert!(matches!(
        Simulator::new(&arch).run(&program),
        Err(SimError::DoubleWrite { cycle: 0, .. })
    ));
}

#[test]
fn result_read_before_latency_expires_is_a_hard_error() {
    // The ALU takes one cycle: reading alu0.r in the trigger cycle is
    // premature (the scheduler never emits this; relation 6 forbids it).
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 2 = 1 0
rf1[0] -> alu0.o, alu0.r -> rf1[1]
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    assert!(matches!(
        Simulator::new(&arch).run(&program),
        Err(SimError::ResultNotReady { cycle: 0, .. })
    ));
}

#[test]
fn rf_port_contention_is_a_hard_error() {
    // rf2 of Figure 9 has one write port; two same-cycle writes break it.
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 2 = 1 2
rf1[0] -> rf2[0], rf1[1] -> rf2[1]
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    match Simulator::new(&arch).run(&program) {
        Err(SimError::PortContention { cycle: 0, resource }) => {
            assert!(resource.contains("rf2"), "{resource}");
        }
        other => panic!("expected write-port contention, got {other:?}"),
    }
}

#[test]
fn register_overflow_needs_opt_in() {
    // A program declaring more registers than the machine has is only
    // legal under the lowered-spill convention.
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 100 =
-
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    assert!(matches!(
        Simulator::new(&arch).run(&program),
        Err(SimError::RegisterOutOfRange { .. })
    ));
    assert!(Simulator::new(&arch)
        .options(SimOptions::LOWERED)
        .run(&program)
        .is_ok());
}

#[test]
fn wrong_unit_class_is_a_hard_error() {
    let program = tta_asm::assemble(
        "\
.width 16
.rf rf1 2 = 1 2
rf1[0] -> alu0.o, rf1[1] -> alu0.ltu
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    assert!(matches!(
        Simulator::new(&arch).run(&program),
        Err(SimError::WrongUnitClass { .. })
    ));
}

#[test]
fn cycle_limit_stops_runaway_loops() {
    let program = tta_asm::assemble(
        "\
.width 16
top:
imm0:@top -> pc0.jmp
",
    )
    .unwrap();
    let arch = Architecture::figure9();
    let opts = SimOptions {
        max_cycles: 100,
        ..Default::default()
    };
    assert!(matches!(
        Simulator::new(&arch).options(opts).run(&program),
        Err(SimError::CycleLimit { limit: 100 })
    ));
}
