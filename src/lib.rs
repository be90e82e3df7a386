#![warn(missing_docs)]

//! # rox-suite — the workspace umbrella crate
//!
//! Re-exports the full ROX stack for the examples under `examples/` and
//! the integration tests under `tests/`. Library users should depend on
//! the individual crates (`rox-core`, `rox-xmldb`, ...) directly; this
//! crate exists so the repository root can host runnable examples and
//! cross-crate tests, mirroring the paper's system structure:
//!
//! * [`xmldb`] — storage substrate (shredding, pre/size/level encoding);
//! * [`index`] — element and value indices;
//! * [`ops`] — staircase joins, value joins, cut-off sampling;
//! * [`joingraph`] — XQuery front end and Join Graph isolation;
//! * [`par`] — the always-on worker pool the serving engine runs its
//!   jobs on, oldest first from one queue ([`par::WorkerPool`]);
//! * [`rox`] — the run-time optimizer, baselines, plan enumeration;
//! * [`datagen`] — XMark-like and DBLP-like workload generators.
//!
//! ```
//! use std::sync::Arc;
//! let catalog = Arc::new(rox_suite::xmldb::Catalog::new());
//! catalog.load_str("d.xml", "<a><b/><b/></a>").unwrap();
//! let graph = rox_suite::joingraph::compile_query(
//!     r#"for $b in doc("d.xml")//b return $b"#,
//! ).unwrap();
//! let report = rox_suite::rox::run_rox(catalog, &graph, Default::default()).unwrap();
//! assert_eq!(report.output.len(), 2);
//! ```

pub use rox_core as rox;
pub use rox_datagen as datagen;
pub use rox_index as index;
pub use rox_joingraph as joingraph;
pub use rox_ops as ops;
pub use rox_par as par;
pub use rox_xmldb as xmldb;
