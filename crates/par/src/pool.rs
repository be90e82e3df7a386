//! # The serving worker pool: N threads over one FIFO queue
//!
//! [`WorkerPool::execute`] pushes a `'static` job onto the back of one
//! queue; `workers` always-on threads pop from its front and park on one
//! condvar while it is empty. A job is pushed under the queue's lock, and a
//! worker re-checks the queue under that lock before it parks, so the
//! `notify_one` that follows a push cannot be missed and no timed wait is
//! needed. Jobs start in submission order.
//!
//! [`WorkerPool::par_map`] does not touch the queue: the caller and up to
//! `max_threads - 1` scoped threads claim task indices from one atomic
//! cursor and write each result into the slot of its index, so the
//! returned `Vec` is exactly `(0..tasks).map(f).collect()` whichever
//! thread ran which task. A task that calls `par_map` again only spawns
//! scoped threads of its own, so nested calls cannot deadlock.
//!
//! ## Panic containment
//!
//! A panicking job is caught in the worker loop and dropped; the worker
//! lives on, and the submitter sees the failure through its own completion
//! guard (the engine's ticket). A panicking `par_map` task is caught too;
//! once every task has run, the panic of the lowest panicking index is
//! resumed on the caller.
//!
//! ## Shutdown
//!
//! Dropping the pool sets the queue's shutdown flag, wakes every worker and
//! joins them; a worker finishes the job it is running. Jobs still queued
//! are dropped unrun, so a submitter that needs a completion signal arms a
//! drop guard in its job (the engine's ticket does). The drop may run on a
//! worker — a job that owns the last `Arc` to the engine drops the pool —
//! and a thread cannot join itself, so that worker is skipped: it sees the
//! flag and exits once its job returns.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A `'static` job submitted through [`WorkerPool::execute`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue and the shutdown flag, under one lock.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every push and at shutdown.
    ready: Condvar,
}

/// An always-on worker pool over one FIFO job queue. See the module docs
/// for the scheduling, panic and shutdown rules.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Behind a lock only to keep the pool `UnwindSafe`; `Drop` takes the
    /// handles without locking.
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn a pool with `workers` always-on threads (clamped to at least
    /// one), named `rox-worker-{i}`. Workers park when idle; the pool is
    /// cheap to keep around.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rox-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Number of always-on worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submit a fire-and-forget `'static` job to the back of the queue.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.shared.queue.lock().expect("job queue");
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.shared.ready.notify_one();
    }

    /// Order-preserving parallel map over `0..tasks` on the caller plus at
    /// most `max_threads - 1` scoped threads. Returns exactly what
    /// `(0..tasks).map(f).collect()` would, and is a plain sequential loop
    /// when `max_threads <= 1` or `tasks <= 1`. See the module docs for
    /// the panic rule.
    pub fn par_map<T, F>(&self, max_threads: usize, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        let threads = max_threads.clamp(1, tasks.max(1));
        if threads == 1 {
            return (0..tasks).map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..tasks).map(|_| Mutex::new(None)).collect();
        // `Relaxed`: the cursor only hands out indices; results travel
        // through the slots' locks and the scope's joins.
        let drain = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            *slots[i].lock().expect("par_map slot") = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(drain);
            }
            drain();
        });
        slots
            .into_iter()
            .map(|slot| {
                let result = slot.into_inner().expect("par_map slot");
                match result.expect("every task index is claimed once") {
                    Ok(value) => value,
                    Err(panic) => resume_unwind(panic),
                }
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // No job runs under the queue's lock and every update leaves the
        // queue whole, so a poisoned lock is still safe to use; `Drop`
        // must not panic.
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        queue.shutdown = true;
        drop(queue);
        self.shared.ready.notify_all();
        let myself = std::thread::current().id();
        let handles = self
            .handles
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in handles.drain(..) {
            if handle.thread().id() != myself {
                let _ = handle.join();
            }
        }
    }
}

/// Pop and run jobs oldest first until the pool shuts down. The lock is
/// never held while a job runs.
fn worker_loop(shared: &Shared) {
    loop {
        let mut queue = shared.queue.lock().expect("job queue");
        let job = loop {
            if queue.shutdown {
                return;
            }
            if let Some(job) = queue.jobs.pop_front() {
                break job;
            }
            queue = shared.ready.wait(queue).expect("job queue");
        };
        drop(queue);
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn pooled_par_map_matches_sequential() {
        let pool = WorkerPool::new(3);
        let expect: Vec<usize> = (0..257).map(|i| i * 31 + 7).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(pool.par_map(threads, 257, |i| i * 31 + 7), expect);
        }
    }

    #[test]
    fn execute_runs_jobs() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) < 16 {
            assert!(std::time::Instant::now() < deadline, "jobs never ran");
            std::thread::yield_now();
        }
    }
}
