//! A job may drop the last handle to the pool that runs it (the engine's
//! serving jobs do, when they own its last `Arc`). The pool's `Drop` then
//! runs on one of its own workers: it must not try to join that worker,
//! and every worker must still exit. Linux only — the check reads the
//! thread names under `/proc/self/task`; it sits in a test binary of its
//! own so that no other test's pool threads are counted.
#![cfg(target_os = "linux")]

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rox_par::WorkerPool;

/// How many of this process's threads are pool workers.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rox-worker"))
        .count()
}

#[test]
fn last_arc_dropped_by_a_job_stops_every_worker() {
    let pool = Arc::new(WorkerPool::new(2));
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();
    let last = Arc::clone(&pool);
    pool.execute(move || {
        go_rx.recv().unwrap();
        drop(last);
        done_tx.send(()).unwrap();
    });
    drop(pool);
    go_tx.send(()).unwrap();
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the job that dropped the pool never completed");
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool_threads() > 0 {
        assert!(Instant::now() < deadline, "pool workers outlived the pool");
        std::thread::sleep(Duration::from_millis(10));
    }
}
