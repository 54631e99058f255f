//! Gate-level netlist infrastructure for the TTA design/test exploration flow.
//!
//! The paper assumes every datapath component (ALU, comparator, register
//! file, load/store unit, program counter, sockets, …) has been
//! "predesigned up to the gate-level using the Synopsys synthesis package"
//! so that an ATPG tool can back-annotate each with its stuck-at test
//! pattern count, area and delay. This crate is that substrate: a small
//! structural netlist IR, a cell library with gate-equivalent area and unit
//! delays, a 64-way bit-parallel logic simulator, and generators that build
//! every component of the paper's TTA template at a parameterisable data
//! width.
//!
//! # Quickstart
//!
//! ```
//! use tta_netlist::{NetlistBuilder, components};
//!
//! // Build a 16-bit ALU like the one in Figure 9 of the paper.
//! let alu = components::alu(16);
//! assert!(alu.netlist.gate_count() > 100);
//! // Area is reported in NAND2 gate equivalents.
//! assert!(alu.netlist.area() > 0.0);
//!
//! // Or hand-build structural logic.
//! let mut b = NetlistBuilder::new("maj3");
//! let x = b.input("x");
//! let y = b.input("y");
//! let z = b.input("z");
//! let xy = b.and2(x, y);
//! let yz = b.and2(y, z);
//! let xz = b.and2(x, z);
//! let t = b.or2(xy, yz);
//! let maj = b.or2(t, xz);
//! b.output("maj", maj);
//! let nl = b.finish();
//! assert_eq!(nl.primary_inputs().len(), 3);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod elaborate;
pub mod gate;
pub mod library;
pub mod lint;
pub mod netlist;
pub mod sim;
pub mod stats;
pub mod timing;
pub mod verilog;

pub use builder::{BuildError, BuilderMark, NetlistBuilder};
pub use elaborate::{elaborate, ElaborateError, IncrementalElaborator};
pub use gate::{Gate, GateId, GateKind};
pub use lint::{lint, LintDiagnostic, LintKind};
pub use netlist::{Net, NetDriver, NetId, Netlist, NetlistError};
pub use stats::NetlistStats;
pub use verilog::to_verilog;
