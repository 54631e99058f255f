//! Umbrella crate for the TTA design/test space exploration toolchain —
//! a from-scratch reproduction of Zivkovic, Tangelder & Kerkhoff,
//! *Design and Test Space Exploration of Transport-Triggered
//! Architectures* (DATE 2000).
//!
//! Re-exports every subsystem crate under one roof so examples and
//! integration tests can `use ttadse::…`:
//!
//! * [`netlist`] — gate-level netlists + component generators,
//! * [`atpg`] — stuck-at ATPG and fault simulation,
//! * [`dft`] — scan insertion and march tests,
//! * [`arch`] — the TTA machine template and transport-timing model,
//! * [`movec`] — the MOVE-style IR and transport scheduler,
//! * [`workloads`] — crypt(3) and friends,
//! * [`sim`] — the cycle-accurate move-program simulator and the
//!   schedule → program lowering,
//! * [`asm`] — the move-program text assembler / disassembler,
//! * [`explore`] — the paper's contribution: pluggable cost models
//!   (`models`), the composable `Exploration` pipeline with serial or
//!   parallel sweeps, Pareto reduction and weighted-norm selection.
//!
//! # Quickstart
//!
//! ```no_run
//! use ttadse::arch::template::TemplateSpace;
//! use ttadse::explore::explore::Exploration;
//! use ttadse::explore::parallel::default_threads;
//! use ttadse::workloads::suite;
//!
//! let result = Exploration::over(TemplateSpace::fast_default())
//!     .workload(&suite::crypt(1))
//!     .threads(default_threads())
//!     .run();
//! let best = result.select_equal_weights();
//! println!("{} (area {:.0} GE)", best.architecture, best.area());
//! ```

pub use tta_arch as arch;
pub use tta_asm as asm;
pub use tta_atpg as atpg;
pub use tta_core as explore;
pub use tta_dft as dft;
pub use tta_movec as movec;
pub use tta_netlist as netlist;
pub use tta_sim as sim;
pub use tta_workloads as workloads;
