#![warn(missing_docs)]

//! # rox-core — the ROX run-time XQuery optimizer
//!
//! Reproduction of *ROX: Run-time Optimization of XQueries* (Abdel Kader,
//! Boncz, Manegold, van Keulen — SIGMOD 2009). ROX departs from
//! compile-time optimization: it receives an order-independent
//! [Join Graph](rox_joingraph::JoinGraph), then **intertwines** query
//! optimization with evaluation — materializing one path segment at a
//! time and deciding what to execute next by *sampling* candidate
//! operators over the already-materialized intermediates.
//!
//! Modules:
//!
//! * [`engine`](mod@engine) — the long-lived query-serving layer
//!   ([`RoxEngine`]): shared document indexes, the cross-query base-list
//!   cache, and the fingerprint-keyed plan cache that lets repeat queries
//!   skip sampling ([`PlanReuse`]);
//! * [`env`](mod@env) — per-query run-time environment (documents, indices, base
//!   lists), a thin session view over the engine caches;
//! * [`state`] — fully-materialized edge execution over components, routed
//!   through the physical edge-operator kernel (`rox_ops::edgeop`), which
//!   records the chosen [`EdgeOpKind`] per executed edge;
//! * `estimate` — cut-off sampled operator execution + `EstimateCard`;
//! * [`chain`] — chain sampling (Algorithm 2);
//! * [`optimizer`] — the run-time optimizer (Algorithm 1): options, report
//!   and entry points over the crate's one run driver, which plan replay
//!   and the guarded replay share;
//! * [`plan`] — explicit plan replay ("pure plan", no sampling);
//! * [`guard`] — guarded plan replay: sampled drift spot checks over a
//!   cached plan, with mid-query demotion back into Algorithm 1 when the
//!   recorded cardinalities no longer match the data;
//! * [`enumerate`] — join-order enumeration + canonical SJ/JS/S_J
//!   placements + the classical smallest-input-first baseline (§4.2);
//! * [`naive`] — an independent nested-loop oracle for differential tests.
//!
//! ```
//! use std::sync::Arc;
//! use rox_xmldb::Catalog;
//!
//! let catalog = Arc::new(Catalog::new());
//! catalog.load_str("d.xml", "<site><auction><bidder/></auction></site>").unwrap();
//! let graph = rox_joingraph::compile_query(
//!     r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
//! ).unwrap();
//! let report = rox_core::run_rox(catalog, &graph, Default::default()).unwrap();
//! assert_eq!(report.output.len(), 1);
//! ```

pub mod chain;
mod driver;
pub mod engine;
pub mod enumerate;
pub mod env;
mod estimate;
pub mod explain;
pub mod guard;
pub mod naive;
pub mod optimizer;
pub mod plan;
pub mod state;

pub use chain::{ChainTrace, PathSnapshot};
pub use engine::{
    BaseListCache, CachedPlan, EngineRun, EngineStats, EngineTicket, PlanReuse, RoxEngine, RunMode,
    ServeError, TicketOutcome,
};
pub use enumerate::{
    analyze_star, classical_join_order, enumerate_join_orders, plan_edges, JoinOrder, Member,
    Placement, StarQuery,
};
pub use env::{EnvError, RoxEnv};
pub use guard::{CheckKind, EdgeExpectation, SpotCheck};
pub use naive::naive_evaluate;
pub use optimizer::{run_rox, run_rox_with_env, RoxOptions, RoxReport};
pub use plan::{run_plan, run_plan_with_env, validate_plan, PlanError, PlanRun};
pub use rox_ops::EdgeOpKind;
pub use rox_storage::{RecoveryReport, WalStats};
pub use state::EdgeExec;
