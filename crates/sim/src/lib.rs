//! Cycle-accurate simulation of move programs on a TTA machine.
//!
//! Everything the exploration engine reports rests on the movec
//! scheduler's *analytic* cycle model. This crate makes that model
//! falsifiable: it can actually **execute** a move program on a
//! [`tta_arch::Architecture`] — per-cycle bus transports, FU pipelines
//! with the back-annotated latencies, register-file ports, hard errors
//! on contention — and produce a deterministic trace. The headline
//! property (asserted in this crate's tests and in CI) is that for
//! every registered workload the executed cycle count equals the
//! scheduled one and the executed outputs equal the golden model's.
//!
//! Three layers:
//!
//! * [`program`] — the executable move-program model ([`Program`]):
//!   named units, register-file/memory images, per-cycle move lists;
//! * [`mod@lower`] — turns a movec [`Schedule`](tta_movec::schedule::Schedule)
//!   into a [`Program`] (the register allocation the scheduler leaves
//!   symbolic happens here);
//! * [`exec`] — the interpreter ([`Simulator`]) with its legality
//!   rules and [`Trace`] format.
//!
//! The textual syntax for these programs lives in the `tta_asm` crate;
//! `docs/SIMULATOR.md` is the guide (every snippet in it runs as a
//! doc-test of this crate).
//!
//! # Quickstart
//!
//! ```
//! use tta_arch::Architecture;
//! use tta_movec::ir::{Dfg, Op};
//! use tta_movec::schedule::Scheduler;
//! use tta_sim::{lower, Simulator};
//!
//! // (a + b) ^ 5 on the paper's Figure 9 machine.
//! let mut dfg = Dfg::new(16);
//! let a = dfg.input();
//! let b = dfg.input();
//! let c5 = dfg.constant(5);
//! let s = dfg.op(Op::Add, &[a, b]);
//! let x = dfg.op(Op::Xor, &[s, c5]);
//! dfg.mark_output(x);
//!
//! let arch = Architecture::figure9();
//! let schedule = Scheduler::new(&arch).run(&dfg).unwrap();
//! let program = lower(&arch, &dfg, &schedule, &[10, 20], &[]).unwrap();
//! let trace = Simulator::new(&arch).run(&program).unwrap();
//!
//! // Executed cycles match the analytic model, outputs match eval.
//! assert_eq!(trace.cycles, u64::from(schedule.cycles));
//! assert_eq!(trace.outputs, dfg.eval(&[10, 20], &mut []));
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod lower;
pub mod program;

pub use exec::{SimError, SimOptions, Simulator, Trace, TraceCycle, TraceMove};
pub use lower::{lower, LowerError};
pub use program::{MoveDst, MoveOp, MoveSrc, OpCode, OutputLoc, Program, RfImage};

/// Which step of [`run_lowered`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoweredRunError {
    /// The schedule did not lower to a program.
    Lower(LowerError),
    /// The lowered program did not execute.
    Sim(SimError),
}

/// Lowers `schedule` (of `dfg` on `arch`) and executes the program
/// under [`SimOptions::LOWERED`]: the one way to run a scheduled
/// workload.
///
/// # Errors
///
/// The failed step: [`LoweredRunError::Lower`] or
/// [`LoweredRunError::Sim`].
pub fn run_lowered(
    arch: &tta_arch::Architecture,
    dfg: &tta_movec::ir::Dfg,
    schedule: &tta_movec::schedule::Schedule,
    inputs: &[u64],
    mem: &[u64],
) -> Result<Trace, LoweredRunError> {
    let program = lower(arch, dfg, schedule, inputs, mem).map_err(LoweredRunError::Lower)?;
    Simulator::new(arch)
        .options(SimOptions::LOWERED)
        .run(&program)
        .map_err(LoweredRunError::Sim)
}

// `docs/SIMULATOR.md` snippets compile and run against this crate.
#[cfg(doctest)]
mod simulator_guide {
    #![doc = include_str!("../../../docs/SIMULATOR.md")]
}
