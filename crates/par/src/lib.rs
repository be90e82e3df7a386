#![warn(missing_docs)]

//! # rox-par — morsel-driven parallel execution primitives
//!
//! The parallel substrate behind ROX's candidate-sampling fan-out, the
//! partitioned physical operators, and the engine's inter-query serving
//! path. Built on `std` only (the build environment vendors no crates.io
//! dependencies), it provides:
//!
//! * [`Parallelism`] — the knob threaded through `RoxOptions`/`RoxEnv`;
//! * [`WorkerPool`] — an always-on, work-stealing pool: per-worker
//!   injector deques for `'static` serving jobs, a shared board of
//!   in-flight `par_map` batches idle workers help drain, parked idle
//!   workers, graceful shutdown on drop, and per-task panic containment;
//! * [`par_map`] — order-preserving parallel map over a task list (routed
//!   through the process-shared pool), the workhorse for "sample every
//!   candidate operator concurrently";
//! * [`chunk_ranges`] — deterministic contiguous partitioning used by the
//!   partitioned staircase/hash joins to split context inputs into morsels
//!   that can be merged back in document order.
//!
//! **Determinism contract:** `par_map` returns results in task order, and
//! every helper partitions deterministically, so any caller that combines
//! per-task results in index order is bit-identical to its sequential
//! equivalent. The test-suite and `crates/rox`'s equivalence proptest lean
//! on this.
//!
//! Workers are spawned **once** and parked while idle; dispatching a
//! fan-out onto the pool costs roughly a condvar wake (single-digit
//! microseconds) instead of the tens of microseconds a fresh
//! `std::thread::scope` spawn used to cost per call. Callers still gate
//! parallel execution on a minimum task volume so tiny inputs stay on the
//! calling thread (see [`Parallelism::effective_threads`] and the `MIN_*`
//! thresholds in `rox-ops`), but the pooled dispatch cost lowers those
//! thresholds by roughly an order of magnitude.

mod pool;

pub use pool::WorkerPool;

use std::num::NonZeroUsize;

/// Degree of intra-query parallelism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Everything on the calling thread (the paper's original setting).
    #[default]
    Sequential,
    /// A fixed worker count. `Threads(0)` and `Threads(1)` are equivalent
    /// to [`Parallelism::Sequential`].
    Threads(usize),
    /// Use [`std::thread::available_parallelism`].
    Auto,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to on the current
    /// machine (always at least 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Worker count for a workload of `tasks` units: stays at 1 (no
    /// fan-out) until `tasks` reaches `2 * min_tasks_per_thread`, then
    /// caps the pool at `tasks / min_tasks_per_thread` workers so each
    /// thread gets at least `min_tasks_per_thread` units and the spawn
    /// overhead is amortized.
    pub fn effective_threads(self, tasks: usize, min_tasks_per_thread: usize) -> usize {
        let t = self.threads();
        if t <= 1 || tasks < 2 * min_tasks_per_thread.max(1) {
            return 1;
        }
        t.min(tasks / min_tasks_per_thread.max(1)).max(1)
    }
}

/// Parse a `Parallelism` from a CLI-style string: `seq`, `auto`, or a
/// thread count.
impl std::str::FromStr for Parallelism {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "seq" | "sequential" | "1" => Ok(Parallelism::Sequential),
            "auto" => Ok(Parallelism::Auto),
            n => n
                .parse::<usize>()
                .map(Parallelism::Threads)
                .map_err(|_| format!("invalid parallelism '{s}' (want seq|auto|<n>)")),
        }
    }
}

/// Deterministic contiguous partition of `0..len` into at most `parts`
/// near-equal ranges (empty ranges are never produced).
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Order-preserving parallel map: applies `f` to `0..tasks` task indices
/// with a concurrency budget of `threads` and returns the results in task
/// order, exactly as the sequential `(0..tasks).map(f).collect()` would.
///
/// Runs on the process-shared [`WorkerPool`]: the calling thread drives an
/// atomic task cursor (morsel-driven scheduling) and parked pool workers
/// wake to help, so stragglers never idle the pool and no threads are
/// spawned per call. Result placement is by task index, so scheduling
/// order can never leak into the output. Safe to call from inside a pool
/// worker (nested fan-out): the caller always drains its own batch.
pub fn par_map<T, F>(threads: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    WorkerPool::shared().par_map(threads, tasks, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let ranges = chunk_ranges(len, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len);
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(par_map(threads, 257, |i| i * i), expect);
        }
    }

    #[test]
    fn par_map_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        par_map(4, 64, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
        });
        // With 64 tasks and 4 workers at least two should participate; this
        // is scheduling-dependent but overwhelmingly reliable.
        assert!(ids.lock().unwrap().len() >= 2);
    }

    #[test]
    fn effective_threads_scales_down() {
        let p = Parallelism::Threads(8);
        assert_eq!(p.effective_threads(1, 4), 1);
        assert_eq!(p.effective_threads(7, 4), 1);
        assert_eq!(p.effective_threads(8, 4), 2);
        assert_eq!(p.effective_threads(1000, 4), 8);
        assert_eq!(Parallelism::Sequential.effective_threads(1000, 1), 1);
    }

    #[test]
    fn parallelism_parses() {
        assert_eq!(
            "seq".parse::<Parallelism>().unwrap(),
            Parallelism::Sequential
        );
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!("4".parse::<Parallelism>().unwrap(), Parallelism::Threads(4));
        assert!("bogus".parse::<Parallelism>().is_err());
    }
}
