//! Lifecycle tests for the always-on worker pool: jobs start in
//! submission order, shutdown joins workers, panics are contained to the
//! failing task, and nested fan-out from inside a `par_map` task can never
//! deadlock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rox_par::WorkerPool;

/// Jobs leave the queue in the order they were submitted: with both
/// workers pinned, ten queued jobs all wait, and the one worker released
/// starts them oldest first.
#[test]
fn jobs_start_in_submission_order() {
    let pool = WorkerPool::new(2);
    let (started_tx, started_rx) = mpsc::channel();
    let gates: Vec<mpsc::Sender<()>> = (0..2)
        .map(|_| {
            let (gate_tx, gate_rx) = mpsc::channel::<()>();
            let started_tx = started_tx.clone();
            pool.execute(move || {
                started_tx.send(()).unwrap();
                let _ = gate_rx.recv();
            });
            gate_tx
        })
        .collect();
    for _ in 0..2 {
        started_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    let order = Arc::new(Mutex::new(Vec::new()));
    let (done_tx, done_rx) = mpsc::channel();
    for i in 0..10usize {
        let order = Arc::clone(&order);
        let done_tx = done_tx.clone();
        pool.execute(move || {
            order.lock().unwrap().push(i);
            done_tx.send(()).unwrap();
        });
    }
    gates[0].send(()).unwrap();
    for _ in 0..10 {
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    }
    drop(gates);
    assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
}

/// Dropping the pool joins every worker thread: jobs submitted before the
/// drop either ran or were discarded, and nothing runs afterwards.
#[test]
fn shutdown_on_drop_joins_all_workers() {
    let ran = Arc::new(AtomicUsize::new(0));
    let pool = WorkerPool::new(3);
    for _ in 0..32 {
        let ran = Arc::clone(&ran);
        pool.execute(move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    drop(pool); // blocks until all three workers have exited
    let after_drop = ran.load(Ordering::SeqCst);
    assert!(after_drop <= 32);
    // No worker thread survives the drop, so the count can never move again.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(ran.load(Ordering::SeqCst), after_drop);
}

/// A panicking par_map task resumes its panic on the caller — after every
/// other task has still run — and the pool keeps serving afterwards.
#[test]
fn panicking_task_fails_only_its_job() {
    let pool = Arc::new(WorkerPool::new(2));
    let completed = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&completed);
    let p = Arc::clone(&pool);
    let result = std::panic::catch_unwind(move || {
        p.par_map(4, 64, |i| {
            if i == 17 {
                panic!("task 17 exploded");
            }
            c.fetch_add(1, Ordering::SeqCst);
            i
        })
    });
    assert!(result.is_err(), "the panic must reach the par_map caller");
    // Panic containment: the other 63 tasks all ran to completion.
    assert_eq!(completed.load(Ordering::SeqCst), 63);
    // The pool itself survived: both batch and job paths still work.
    assert_eq!(
        pool.par_map(4, 8, |i| i * 2),
        vec![0, 2, 4, 6, 8, 10, 12, 14]
    );
    let (tx, rx) = std::sync::mpsc::channel();
    pool.execute(move || tx.send(42usize).unwrap());
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 42);
}

/// A panicking `execute` job is caught in the worker loop; the worker
/// survives and keeps draining its deque.
#[test]
fn panicking_job_does_not_kill_the_worker() {
    let pool = WorkerPool::new(1);
    pool.execute(|| panic!("serving job exploded"));
    let (tx, rx) = std::sync::mpsc::channel();
    pool.execute(move || tx.send(7usize).unwrap());
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
}

/// Nested fan-out: par_map tasks that themselves call par_map on the same
/// pool. Every call runs on its caller and scoped threads of its own and
/// never waits for a pool worker, so the pool's size cannot matter.
#[test]
fn nested_fan_out_never_deadlocks() {
    for workers in [1, 2, 4] {
        let pool = WorkerPool::new(workers);
        let start = Instant::now();
        let outer = pool.par_map(4, 8, |i| {
            let inner = pool.par_map(4, 8, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(outer, expect);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "nested fan-out stalled with {workers} workers"
        );
    }
}

/// Determinism contract under contention: many concurrent par_map batches
/// on one pool all return bit-identical results to the sequential map.
#[test]
fn concurrent_batches_stay_deterministic() {
    let pool = Arc::new(WorkerPool::new(3));
    let failures = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for batch in 0..8usize {
            let pool = Arc::clone(&pool);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                for round in 0..20usize {
                    let got = pool.par_map(3, 97, |i| i * batch + round);
                    let expect: Vec<usize> = (0..97).map(|i| i * batch + round).collect();
                    if got != expect {
                        failures.lock().unwrap().push((batch, round));
                    }
                }
            });
        }
    });
    assert!(failures.lock().unwrap().is_empty());
}

/// par_map really fans out: some tasks run on a thread other than the
/// caller (it is not secretly a sequential loop).
#[test]
fn workers_help_drain_batches() {
    let pool = WorkerPool::new(2);
    let caller = std::thread::current().id();
    let helped = AtomicUsize::new(0);
    // Tasks sleep briefly so the scoped threads have time to start and claim some.
    pool.par_map(4, 64, |_| {
        if std::thread::current().id() != caller {
            helped.fetch_add(1, Ordering::SeqCst);
        }
        std::thread::sleep(Duration::from_micros(200));
    });
    assert!(
        helped.load(Ordering::SeqCst) > 0,
        "no pool worker ever claimed a task"
    );
}
