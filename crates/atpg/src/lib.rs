//! Stuck-at test generation for the TTA datapath components.
//!
//! The paper back-annotates every predesigned component with the number of
//! test patterns `np` obtained from "an automatic test pattern generation
//! (ATPG) tool". This crate is that tool: single-stuck-at fault universe
//! with equivalence collapsing, a 64-way parallel-pattern fault simulator
//! with fault dropping, a 5-valued PODEM deterministic generator, a
//! random-pattern bootstrap phase, and reverse-order static compaction.
//!
//! Both engines avoid re-simulating what a step cannot have changed.
//! PODEM keeps its implied values and D-frontier across one fault's
//! decisions and re-evaluates only the fanout cones of the inputs a
//! decision or backtrack changed ([`podem`]). The fault simulator walks
//! each fault effect to its fanout-free-region stem and reuses the
//! stem's observability mask, simulated once per stem per batch
//! ([`faultsim`]). Both give exactly the test sets and verdicts of full
//! re-simulation.
//!
//! Components are hybrid-pipelined (Figure 3 of the paper): their operand,
//! trigger and result registers are directly controllable/observable over
//! the move buses, so ATPG runs on the *full-scan view* of the netlist —
//! flip-flop outputs act as pseudo primary inputs and flip-flop D pins as
//! pseudo primary outputs. The resulting structural patterns are exactly
//! the ones the paper applies *functionally* through the sockets
//! (Figure 5).
//!
//! # Quickstart
//!
//! ```
//! use tta_netlist::components;
//! use tta_atpg::{Atpg, AtpgConfig};
//!
//! let alu = components::alu(4);
//! let result = Atpg::new(AtpgConfig::default()).run(&alu.netlist);
//! // Coverage of testable faults (proven-redundant ones excluded).
//! assert!(result.adjusted_coverage() > 0.99);
//! assert!(result.pattern_count() > 0);
//! ```

#![warn(missing_docs)]

pub mod collapse;
pub mod fault;
pub mod faultsim;
pub mod pattern;
pub mod podem;
pub mod tpg;
pub mod v5;
pub mod view;

pub use fault::{Fault, FaultSite, FaultUniverse};
pub use faultsim::{FaultSimulator, GoodValues};
pub use pattern::{Pattern, TestSet};
pub use tpg::{Atpg, AtpgConfig, AtpgResult};
pub use view::CombView;
