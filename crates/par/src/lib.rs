#![warn(missing_docs)]

//! # rox-par — the serving worker pool
//!
//! The engine's inter-query serving path runs on one [`WorkerPool`]:
//! always-on threads over one FIFO queue of `'static` serving jobs
//! ([`WorkerPool::execute`], behind the engine's tickets), parked while
//! the queue is empty, with per-job panic containment and graceful
//! shutdown on drop. [`WorkerPool::par_map`] (the engine's closed-loop
//! `run_many`) runs a batch on the caller and scoped threads instead of
//! the queue. Built on `std` only.
//!
//! Every query itself runs on the one thread that serves it; nothing in
//! this crate fans a single query out.
//!
//! **Determinism contract:** `par_map` returns results in task order, so
//! any caller that combines per-task results in index order sees the same
//! output as the sequential map, whatever the scheduling.

mod pool;

pub use pool::WorkerPool;
