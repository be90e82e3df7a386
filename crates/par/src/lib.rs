#![warn(missing_docs)]

//! # rox-par — the serving worker pool
//!
//! The engine's inter-query serving path runs on one [`WorkerPool`]: an
//! always-on, work-stealing pool with per-worker injector deques for
//! `'static` serving jobs ([`WorkerPool::execute`], behind the engine's
//! tickets), a shared board of in-flight [`WorkerPool::par_map`] batches
//! idle workers help drain (the engine's closed-loop `run_many`), parked
//! idle workers, graceful shutdown on drop, and per-task panic
//! containment. Built on `std` only.
//!
//! Every query itself runs on the one thread that serves it; nothing in
//! this crate fans a single query out.
//!
//! **Determinism contract:** `par_map` returns results in task order, so
//! any caller that combines per-task results in index order sees the same
//! output as the sequential map, whatever the scheduling.

mod pool;

pub use pool::WorkerPool;
