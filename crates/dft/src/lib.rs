//! Design-for-test infrastructure: scan insertion, scan-based test-time
//! models, and march tests for (multi-port) register files.
//!
//! The paper's methodology rests on three DfT ingredients:
//!
//! 1. **Full scan as the baseline** (Table 1, column "full scan"): every
//!    flip-flop is replaced by a mux-scan flip-flop and stitched into a
//!    chain of length `nl`; applying `np` patterns then costs
//!    `np·(nl+1) + nl` cycles. [`scan`] implements the transformation
//!    structurally and [`testtime`] the cost model.
//! 2. **Scan for the sockets only** in the proposed approach (eq. 13):
//!    `fts = np · nl` over the socket scan chains.
//! 3. **March tests** for register files implemented as multi-port
//!    memories (eq. 12, refs \[14\]\[15\]): [`march`] provides MATS+,
//!    March C− and March B with a behavioural fault simulator
//!    ([`memory`]) that verifies their coverage of stuck-at, transition
//!    and coupling faults.
//!
//! # Quickstart
//!
//! ```
//! use tta_netlist::components;
//! use tta_dft::scan::insert_scan;
//! use tta_dft::testtime::full_scan_cycles;
//!
//! let alu = components::alu(8);
//! let scanned = insert_scan(&alu.netlist);
//! assert_eq!(scanned.chain_length(), alu.netlist.dff_count());
//! // 10 patterns through the chain:
//! let cycles = full_scan_cycles(10, scanned.chain_length());
//! assert_eq!(cycles, 10 * (scanned.chain_length() + 1) + scanned.chain_length());
//! ```

#![warn(missing_docs)]

pub mod chains;
pub mod march;
pub mod memory;
pub mod scan;
pub mod testtime;

pub use chains::ChainPlan;
pub use march::{MarchAlgorithm, MarchElement, MarchOp, MarchTest};
pub use memory::{MemFault, MemFaultKind, MultiPortMemory};
pub use scan::{insert_scan, ScanDesign};
