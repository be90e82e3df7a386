#![warn(missing_docs)]

//! # rox-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§4), each with a
//! `run(cfg)` entry point returning structured results and a binary under
//! `src/bin/` that prints them.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 2 (chain-sampling rounds, Q1/Qm1) | [`table2`] | `table2_chain` |
//! | Table 3 (DBLP document inventory)       | [`table3`] | `table3_docs` |
//! | Fig. 5 (join-order intermediate sizes)  | [`fig5`]   | `fig5_join_orders` |
//! | Fig. 6 (plan classes vs correlation)    | [`fig6`]   | `fig6_plan_classes` |
//! | Fig. 7 (document-size scaling)          | [`fig7`]   | `fig7_scaling` |
//! | Fig. 8 (sample-size overhead)           | [`fig8`]   | `fig8_sample_size` |
//!
//! Engineering numbers (serving, storage, durability, operator kernels)
//! live in the repository's one benchmark, `benchmark/run.sh`, not here.

pub mod args;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod setup;
pub mod table2;
pub mod table3;

pub use setup::{dblp_catalog, xmark_catalog, DblpSetup};
