#![warn(missing_docs)]

//! # rox-ops — physical operators
//!
//! The physical algebra of the paper's Table 1, reimplemented over the
//! pre/size/level store of [`rox_xmldb`]:
//!
//! * [`edgeop`] — the **physical edge-operator kernel**: the single
//!   dispatch layer mapping a Join Graph edge (+ mode) to one of the
//!   operators below, consumed by sampling, chain-sampling, full
//!   execution, replay, enumeration, and the naive oracle alike;
//! * [`staircase`] — structural joins for all XPath axes, pair-producing
//!   and zero-investment in the context input;
//! * [`valjoin`] — value equi-joins (index nested-loop, hash);
//! * [`cutoff`] — cut-off sampled execution with reduction-factor
//!   extrapolation (§2.3);
//! * [`relation`] — the columnar fully-joined intermediate relations;
//! * [`tail`] — projection / distinct / sort tail operators;
//! * [`cost`] — deterministic work accounting following Table 1, plus the
//!   explicit per-edge operator cost function
//!   [`choose_op`](cost::choose_op()).

pub mod axis;
pub mod cost;
pub mod cutoff;
pub mod edgeop;
pub mod relation;
pub mod staircase;
pub mod tail;
pub mod valjoin;

pub use axis::{Axis, NodeTest};
pub use cost::{
    choose_op, choose_step_kernel, drift_breached, drift_ratio, nl_cheaper, revalidation_budget,
    Cost, StepKernel, DRIFT_ABS_FLOOR, DRIFT_RATIO, NL_VS_HASH_FACTOR, REVALIDATE_BUDGET_PER_CHECK,
    REVALIDATE_SPOT_CHECKS, REVALIDATE_SPOT_TAU, STEP_BITSET_FACTOR,
};
pub use cutoff::JoinOut;
pub use edgeop::{
    edge_predicate, execute_edge_op, DenseState, EdgeClass, EdgeOpChoice, EdgeOpCtx, EdgeOpKind,
    EdgeOpOut, EdgeOpResult, ExecMode,
};
pub use relation::{Relation, VarId};
pub use rox_index::{PreSet, SymbolTable};
pub use staircase::{naive_axis, step_join, step_join_kernel, StepScratch};
pub use tail::Tail;
pub use valjoin::{hash_value_join, index_value_join};
