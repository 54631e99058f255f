//! **The paper's contribution**: test-cost-aware design-space exploration
//! of transport-triggered architectures.
//!
//! The flow mirrors Sections 3–4 of the paper:
//!
//! 1. every datapath component is *back-annotated* by running real ATPG
//!    (and march tests for register files) on its generated gate-level
//!    netlist — [`backannotate`];
//! 2. the analytical test-cost functions of eqs. (11)–(14) turn those
//!    numbers plus the architectural parameters (ports, buses, sockets)
//!    into a per-architecture test cost — [`testcost`];
//! 3. classical full scan is costed as the baseline — [`fullscan`];
//! 4. the design space is swept (area from the netlists, execution time
//!    from the MOVE scheduler), reduced to Pareto points, lifted to N-D
//!    with the test axis — post-hoc as in the paper, or as a
//!    first-class third sweep objective via
//!    [`explore::LiftMode::Full`] — and the final architecture is
//!    selected with a weighted norm — [`pareto`], [`norm`],
//!    [`explore`].
//!
//! Each cost axis is a pluggable trait ([`models`]): swap the cell
//! library, the interconnect constants or the whole test methodology
//! without touching the pipeline.
//!
//! # Quickstart
//!
//! ```no_run
//! use tta_arch::template::TemplateSpace;
//! use tta_core::explore::Exploration;
//! use tta_core::parallel::default_threads;
//! use tta_workloads::suite;
//!
//! let result = Exploration::over(TemplateSpace::fast_default())
//!     .workload(&suite::crypt(2))
//!     .threads(default_threads())
//!     .run();
//! let best = result.select_equal_weights();
//! println!("selected: {}", best.architecture);
//! println!("area {:.0} GE, test cost {:.0} cycles",
//!     best.area(), best.test_cost().unwrap_or(f64::NAN));
//! ```
//!
//! Customising the pipeline — multiple workloads, custom interconnect
//! constants, explicit parallelism, a shared annotation database, a
//! persistent sweep cache:
//!
//! ```no_run
//! use tta_arch::template::TemplateSpace;
//! use tta_core::explore::Exploration;
//! use tta_core::models::InterconnectModel;
//! use tta_core::ComponentDb;
//! use tta_workloads::suite;
//!
//! let db = ComponentDb::new();
//! let crypt = suite::crypt(2);
//! let checksum = suite::checksum32();
//! let cache = tta_core::SweepCache::open("/tmp/ttadse-cache").unwrap();
//! let result = Exploration::over(TemplateSpace::paper_default())
//!     .workloads([&crypt, &checksum])
//!     .interconnect(InterconnectModel { bus_area_per_bit: 6.0, ..InterconnectModel::paper() })
//!     .with_db(&db)
//!     .cache(&cache) // re-runs skip every cached point, bit-identically
//!     .threads(4) // bit-identical at any worker count
//!     .run();
//! assert!(result.projection_holds());
//! ```

#![warn(missing_docs)]

/// The workload-authoring guide, compiled as doc-tests so
/// `docs/WORKLOADS.md` can never drift from the API it documents.
#[cfg(doctest)]
mod workloads_guide {
    #![doc = include_str!("../../../docs/WORKLOADS.md")]
}

/// The gate-level fidelity guide — elaboration, analysis passes, lint
/// catalogue, `--fidelity` — compiled as doc-tests so
/// `docs/FIDELITY.md` can never drift from the API it documents.
#[cfg(doctest)]
mod fidelity_guide {
    #![doc = include_str!("../../../docs/FIDELITY.md")]
}

pub mod backannotate;
pub mod cache;
pub mod explore;
pub mod fullscan;
pub mod models;
pub mod norm;
pub mod parallel;
pub mod pareto;
pub mod report;
pub mod rfmem;
pub mod schedmemo;
pub mod search;
pub mod testcost;
pub mod testplan;

pub use backannotate::{ComponentDb, ComponentKey, ComponentRecord};
pub use cache::SweepCache;
pub use explore::{
    CacheStatus, CancelToken, CycleSource, EvaluatedArch, Exploration, ExploreError, ExploreResult,
    FidelityMode, LiftMode, Objective, ObjectiveVector, SearchInfo, SweepProgress,
    WorkloadBreakdown,
};
pub use models::{
    AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel, InterconnectModel,
    NetlistAreaModel, NetlistEvaluator, NetlistFigures, NetlistTimingModel, ScanTestCostModel,
    TestCostModel, TimingModel,
};
pub use norm::{Norm, Weights};
pub use pareto::{pareto_front, ParetoArchive};
pub use rfmem::{RfImplementationComparison, RfMemSpec};
pub use schedmemo::{ScheduleMemo, ScheduleStats};
pub use search::{
    Exhaustive, HillClimb, NeighbourExhaustive, RandomSample, SearchState, SearchStrategy,
};
pub use testcost::{architecture_test_cost, ArchTestCost, ComponentTestCost};
pub use testplan::{TestPhase, TestPlan};
