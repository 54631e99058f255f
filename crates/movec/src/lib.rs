//! A MOVE-style compiler for transport-triggered architectures.
//!
//! The MOVE framework "accepts C/C++ applications as input and produces
//! parallel code that is supported by an instruction level parallel-type
//! TTA". This crate is the corresponding substrate: a small dataflow IR
//! ([`ir`]) with an interpreter (the golden model the workload crate
//! checks against), and a resource-constrained transport list scheduler
//! ([`schedule`]) that maps the IR onto a concrete [`tta_arch::Architecture`],
//! yielding the cycle count (throughput axis) of the exploration.
//!
//! # Quickstart
//!
//! ```
//! use tta_movec::ir::{Dfg, Op};
//! use tta_movec::schedule::Scheduler;
//! use tta_arch::Architecture;
//!
//! // (a + b) ^ b
//! let mut dfg = Dfg::new(16);
//! let a = dfg.input();
//! let b = dfg.input();
//! let sum = dfg.op(Op::Add, &[a, b]);
//! let out = dfg.op(Op::Xor, &[sum, b]);
//! dfg.mark_output(out);
//!
//! let arch = Architecture::figure9();
//! let schedule = Scheduler::new(&arch).run(&dfg).expect("schedulable");
//! assert!(schedule.cycles > 0);
//! assert!(!schedule.moves.is_empty());
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod ir;
pub mod schedule;

pub use ir::{Dfg, FuClass, Op, ValueId};
pub use schedule::{Move, Schedule, ScheduleError, Scheduler, SchedulerView};
