//! # Always-on work-stealing worker pool
//!
//! Workers are spawned once, park on a condvar while idle, and are woken
//! for two kinds of work:
//!
//! * **jobs** — `'static` closures submitted with [`WorkerPool::execute`]
//!   (the engine's serving path). Each worker owns an injector deque; jobs
//!   are pushed round-robin and idle workers steal from the back of other
//!   workers' deques.
//! * **batches** — scoped, order-preserving [`WorkerPool::par_map`] calls
//!   (the engine's closed-loop batch path). A batch is advertised on a
//!   shared board; idle workers join in and claim task indices from an
//!   atomic cursor.
//!
//! ## Determinism contract
//!
//! `par_map` writes each result into a slot indexed by task id, so the
//! returned `Vec` is bit-identical to `(0..tasks).map(f).collect()` no
//! matter which threads ran which tasks or in what order.
//!
//! ## Nested fan-out never deadlocks
//!
//! The thread that calls `par_map` *drives its own batch*: it claims and
//! runs task indices until the cursor is exhausted, with pool workers only
//! helping. A pool worker that executes a task which itself calls `par_map`
//! therefore becomes the driver of the inner batch — it never blocks
//! waiting for a pool slot. Inductively, every batch's cursor is drained by
//! at least its caller, so no cycle of batches can wait on each other.
//!
//! ## Panic containment
//!
//! A panicking `par_map` task is caught with `catch_unwind`, the remaining
//! tasks still run, and the panic is resumed on the *calling* thread (first
//! panicking index wins, deterministically). A panicking `execute` job is
//! caught in the worker loop and dropped; the pool thread survives either
//! way — one bad query can never take down the serving runtime.
//!
//! ## Shutdown
//!
//! Dropping the pool sets a shutdown flag, wakes every worker, and joins
//! all of them (graceful: a worker finishes the job/batch tasks it already
//! claimed). Jobs still sitting in the deques are dropped without running —
//! submitters that need completion signals should arm a drop guard in the
//! job closure (the engine's ticket does exactly that).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A `'static` job submitted through [`WorkerPool::execute`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Type-erased view of an in-flight `par_map` batch that workers can help
/// drain. Object-safe so batches of any `(T, F)` share one board.
trait BatchWork: Send + Sync {
    /// Claim a helper slot; `false` when the helper cap is reached or the
    /// cursor is already exhausted.
    fn try_join(&self) -> bool;
    /// Claim-and-run task indices until the cursor is exhausted.
    fn run_all(&self);
    /// True when a *new* helper could still claim work: unclaimed tasks
    /// remain **and** the helper cap is not yet reached. Workers park on
    /// `false` — a capped batch must not keep bystanders spinning (on a
    /// box with fewer cores than workers that spin starves the very
    /// threads draining the batch).
    fn joinable(&self) -> bool;
}

/// Shared state of one `par_map` batch.
struct BatchState<T, F> {
    f: F,
    tasks: usize,
    /// Next unclaimed task index (morsel-driven scheduling).
    cursor: AtomicUsize,
    /// Workers that joined this batch; capped so a batch never recruits
    /// more helpers than its thread budget allows.
    helpers: AtomicUsize,
    helper_cap: usize,
    /// Result placement by task index — this is what makes the output
    /// independent of scheduling.
    slots: Vec<Mutex<Option<std::thread::Result<T>>>>,
    done: AtomicUsize,
    done_flag: Mutex<bool>,
    done_cv: Condvar,
}

impl<T, F> BatchState<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn new(tasks: usize, helper_cap: usize, f: F) -> Self {
        BatchState {
            f,
            tasks,
            cursor: AtomicUsize::new(0),
            helpers: AtomicUsize::new(0),
            helper_cap,
            slots: (0..tasks).map(|_| Mutex::new(None)).collect(),
            done: AtomicUsize::new(0),
            done_flag: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Claim one task index and run it. Returns `false` once the cursor is
    /// exhausted. Panics are captured into the slot, never unwound here.
    fn run_one(&self) -> bool {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.tasks {
            return false;
        }
        let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
        *self.slots[i].lock().expect("batch slot") = Some(result);
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.tasks {
            *self.done_flag.lock().expect("batch done flag") = true;
            self.done_cv.notify_all();
        }
        true
    }

    /// True while unclaimed task indices remain.
    fn has_tasks(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.tasks
    }

    /// Block until every task index has completed.
    fn wait_done(&self) {
        let mut flag = self.done_flag.lock().expect("batch done flag");
        while !*flag {
            flag = self.done_cv.wait(flag).expect("batch done flag");
        }
    }
}

impl<T, F> BatchWork for BatchState<T, F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    fn try_join(&self) -> bool {
        if !self.has_tasks() {
            return false;
        }
        self.helpers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                (h < self.helper_cap).then_some(h + 1)
            })
            .is_ok()
    }

    fn run_all(&self) {
        while self.run_one() {}
    }

    fn joinable(&self) -> bool {
        self.has_tasks() && self.helpers.load(Ordering::Relaxed) < self.helper_cap
    }
}

/// An advertised batch with a retraction id.
struct BatchEntry {
    id: u64,
    work: Arc<dyn BatchWork>,
}

struct Shared {
    /// Per-worker injector deques for `'static` jobs; worker `i` pops its
    /// own deque from the front and steals from others' backs.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Board of in-flight `par_map` batches workers can help drain.
    batches: Mutex<Vec<BatchEntry>>,
    next_batch_id: AtomicU64,
    /// Round-robin submission cursor for `execute`.
    next_queue: AtomicUsize,
    /// Parking lot. Producers bump state *then* notify while holding the
    /// lock, so a worker that re-checks for work under the lock before
    /// waiting can never miss a wakeup.
    signal: Mutex<()>,
    signal_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn have_work(&self) -> bool {
        self.queues
            .iter()
            .any(|q| !q.lock().expect("job queue").is_empty())
            || self
                .batches
                .lock()
                .expect("batch board")
                .iter()
                .any(|b| b.work.joinable())
    }

    fn notify_one(&self) {
        let _guard = self.signal.lock().expect("pool signal");
        self.signal_cv.notify_one();
    }

    fn notify_all(&self) {
        let _guard = self.signal.lock().expect("pool signal");
        self.signal_cv.notify_all();
    }
}

/// An always-on, work-stealing worker pool. See the module docs for the
/// scheduling, determinism, and shutdown story.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn a pool with `workers` always-on threads (clamped to at least
    /// one). Workers park when idle; the pool is cheap to keep around.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            batches: Mutex::new(Vec::new()),
            next_batch_id: AtomicU64::new(1),
            next_queue: AtomicUsize::new(0),
            signal: Mutex::new(()),
            signal_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rox-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Number of always-on worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submit a fire-and-forget `'static` job. Jobs are distributed
    /// round-robin across worker deques and stolen by idle workers. If the
    /// pool is already shut down the job runs inline on the caller.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            job();
            return;
        }
        let slot = self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % self.workers();
        self.shared.queues[slot]
            .lock()
            .expect("job queue")
            .push_back(Box::new(job));
        self.shared.notify_one();
    }

    /// Order-preserving parallel map over `0..tasks` with a concurrency
    /// budget of `max_threads` (caller + at most `max_threads - 1` pool
    /// helpers). Returns exactly what `(0..tasks).map(f).collect()` would —
    /// see the module docs for the determinism contract.
    ///
    /// The caller drives the batch itself, so this is safe to call from
    /// inside a pool worker (nested fan-out) and falls back to a plain
    /// sequential loop when `max_threads <= 1` or `tasks <= 1`.
    pub fn par_map<T, F>(&self, max_threads: usize, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let max_threads = max_threads.clamp(1, tasks);
        if max_threads == 1 || tasks == 1 {
            return (0..tasks).map(f).collect();
        }

        let state = Arc::new(BatchState::new(tasks, max_threads - 1, f));

        // Advertise the batch to the pool. The board holds `'static` trait
        // objects, so the (scope-bound) batch Arc is lifetime-erased here.
        // Soundness: before returning (or unwinding) we retract the entry
        // and spin until we hold the only remaining Arc, so no worker can
        // touch `f` or the slots after this frame ends.
        let erased: Arc<dyn BatchWork> = unsafe {
            let scoped: Arc<dyn BatchWork + '_> = state.clone();
            std::mem::transmute::<Arc<dyn BatchWork + '_>, Arc<dyn BatchWork + 'static>>(scoped)
        };
        let id = self.shared.next_batch_id.fetch_add(1, Ordering::Relaxed);
        self.shared
            .batches
            .lock()
            .expect("batch board")
            .push(BatchEntry { id, work: erased });
        self.shared.notify_all();

        // Drive the batch from this thread: claim-and-run until the cursor
        // is exhausted, then wait for helpers to finish their in-flight
        // tasks. The driver never parks while unclaimed work remains, which
        // is what makes nested calls deadlock-free.
        state.run_all();
        state.wait_done();

        // Retract and wait out any worker still holding a clone from its
        // board scan (they only hold it long enough to observe the cursor
        // is exhausted).
        self.shared
            .batches
            .lock()
            .expect("batch board")
            .retain(|entry| entry.id != id);
        while Arc::strong_count(&state) > 1 {
            std::hint::spin_loop();
        }

        let state = Arc::into_inner(state).expect("sole batch owner");
        let mut out = Vec::with_capacity(tasks);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in state.slots {
            match slot
                .into_inner()
                .expect("batch slot")
                .expect("every task index visited exactly once")
            {
                Ok(value) => out.push(value),
                Err(payload) => {
                    // First panicking index wins, deterministically.
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify_all();
        // The drop can run *on a worker thread*: a queued job owning the
        // last `Arc` to a structure that owns the pool (e.g. an engine)
        // gets dropped in the worker loop at shutdown. A thread cannot
        // join itself, so skip it — it is already past its loop's
        // shutdown check and exits on its own right after this drop.
        let myself = std::thread::current().id();
        for handle in self.handles.lock().expect("pool handles").drain(..) {
            if handle.thread().id() != myself {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    let workers = shared.queues.len();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }

        // 1. Own deque, oldest first.
        let job = shared.queues[me].lock().expect("job queue").pop_front();
        if let Some(job) = job {
            // A panicking job must not take down the pool thread; the
            // submitter observes the failure through its own completion
            // guard (e.g. the engine ticket).
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }

        // 2. Steal from another worker's back.
        let mut stolen = None;
        for off in 1..workers {
            let victim = (me + off) % workers;
            if let Some(job) = shared.queues[victim].lock().expect("job queue").pop_back() {
                stolen = Some(job);
                break;
            }
        }
        if let Some(job) = stolen {
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }

        // 3. Help an advertised par_map batch.
        let batch = {
            let board = shared.batches.lock().expect("batch board");
            board
                .iter()
                .find(|entry| entry.work.try_join())
                .map(|entry| Arc::clone(&entry.work))
        };
        if let Some(batch) = batch {
            batch.run_all();
            continue;
        }

        // 4. Park. Re-check under the signal lock (producers notify while
        // holding it), with a timeout as a belt-and-suspenders backstop.
        let guard = shared.signal.lock().expect("pool signal");
        if shared.shutdown.load(Ordering::Acquire) || shared.have_work() {
            continue;
        }
        let _ = shared
            .signal_cv
            .wait_timeout(guard, Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
