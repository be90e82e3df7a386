//! The crash-recovery torture suite: hundreds of seeded schedules of
//! durable mutations (invalidates, reindexes, checkpoints) are driven
//! into a fault-injected storage layer that dies mid-write — short
//! writes, torn writes, lying fsyncs — at a seeded byte offset. After
//! every crash the directory is recovered with honest I/O and checked
//! against an engine that never crashed:
//!
//! * **durability** — every LSN acknowledged while the I/O was still
//!   honest is ≤ the recovered water mark (an acked mutation is never
//!   lost);
//! * **consistency** — the recovered epoch table equals the reference's;
//! * **bit-identity** — re-snapshotting the recovered engine and the
//!   reference produces byte-for-byte identical files (documents,
//!   indexes, symbols), and query outputs match row-for-row;
//! * **liveness** — the recovered log accepts the next mutation at
//!   `water mark + 1`.
//!
//! Across the suite, appends land on both of the log's lanes, and the
//! two crash windows between a checkpoint's lane publishes are driven
//! directly.

use rox_core::{RoxEngine, RoxOptions};
use rox_storage::recovery::{WAL_FILE, WAL_LANES, WAL_LANE_FILES};
use rox_storage::wal::{scan_wal, WalFile, WAL_HEADER};
use rox_storage::{
    FailpointIo, FailpointState, FaultPlan, Lsn, RecoveryReport, StdWalIo, StorageError, WalIo,
    WalRecord,
};
use rox_xmldb::Catalog;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SITE_V0: &str = r#"<site><open_auction><bidder><increase>12</increase></bidder><current>150</current></open_auction><open_auction><bidder><increase>7</increase></bidder><current>40</current></open_auction></site>"#;
const ALT_V0: &str = r#"<site><open_auction><bidder><increase>3</increase></bidder><bidder><increase>44</increase></bidder><current>90</current></open_auction></site>"#;

const URIS: [&str; 2] = ["site.xml", "alt.xml"];

fn torture_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rox-torture-{}-{tag}", std::process::id()));
    p
}

/// Deterministic replacement content for a reload, from an op's seed.
fn variant_xml(v: u64) -> String {
    format!(
        "<site><open_auction><bidder><increase>{}</increase></bidder><current>{}</current></open_auction><open_auction><bidder><increase>{}</increase></bidder><current>{}</current></open_auction></site>",
        v % 97,
        (v / 97) % 997,
        (v * 7) % 89,
        v % 311
    )
}

fn fresh_catalog() -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str(URIS[0], SITE_V0).unwrap();
    catalog.load_str(URIS[1], ALT_V0).unwrap();
    catalog
}

/// SplitMix64 — the schedule generator (dependency-free, seed-stable).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One schedule step. Reloads happen *before* the durable call, so the
/// logged record carries the new content — exactly the ingest pattern.
#[derive(Debug, Clone)]
enum Op {
    Invalidate {
        uri: &'static str,
        reload: Option<u64>,
    },
    Reindex {
        uri: &'static str,
        reload: u64,
    },
    Checkpoint,
}

fn schedule(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(seed));
    (0..n)
        .map(|_| {
            let r = rng.next();
            let uri = URIS[(r & 1) as usize];
            match (r >> 1) % 4 {
                0 => Op::Invalidate {
                    uri,
                    reload: Some(r >> 8),
                },
                1 => Op::Reindex {
                    uri,
                    reload: r >> 8,
                },
                2 => Op::Invalidate { uri, reload: None },
                _ => Op::Checkpoint,
            }
        })
        .collect()
}

/// Apply one op. On a durable engine every op consumes exactly one LSN
/// (returned for mutations, `None` for a checkpoint, whose record sits
/// at the consumed LSN); on a plain engine mutations return `Ok(None)`.
fn apply(engine: &RoxEngine, op: &Op) -> Result<Option<Lsn>, StorageError> {
    match op {
        Op::Invalidate { uri, reload } => {
            if let Some(v) = reload {
                engine.catalog().load_str(uri, &variant_xml(*v)).unwrap();
            }
            engine.try_invalidate_document(uri)
        }
        Op::Reindex { uri, reload } => {
            engine
                .catalog()
                .load_str(uri, &variant_xml(*reload))
                .unwrap();
            engine.try_reindex_document(uri)
        }
        Op::Checkpoint => engine.checkpoint().map(|_| None),
    }
}

/// What one armed schedule did before the fault (or clean completion).
struct Drive {
    /// `(op index, its LSN)` for every op that started, in order.
    executed: Vec<(usize, Lsn)>,
    /// LSNs acknowledged while [`FailpointState::honest`] still held —
    /// the mutations recovery must never lose.
    acked: Vec<Lsn>,
    crashed: bool,
}

fn drive(engine: &RoxEngine, ops: &[Op], state: &FailpointState) -> Drive {
    let mut run = Drive {
        executed: Vec::new(),
        acked: Vec::new(),
        crashed: false,
    };
    // The durable directory opens with its checkpoint record at LSN 1;
    // every subsequent op consumes exactly one LSN.
    for (lsn, (i, op)) in (2..).zip(ops.iter().enumerate()) {
        run.executed.push((i, lsn));
        match apply(engine, op) {
            Ok(got) => {
                if let Some(got) = got {
                    assert_eq!(got, lsn, "LSN accounting drifted at op {i}");
                }
                if state.honest() {
                    run.acked.push(lsn);
                }
            }
            Err(_) => {
                run.crashed = true;
                break;
            }
        }
    }
    run
}

/// Bytes the schedule writes after `make_durable`, measured on a
/// throwaway run with the fault unarmed — the per-seed budget window,
/// so crash points land uniformly across the whole workload.
fn calibrate(seed: u64, ops: &[Op]) -> u64 {
    let dir = torture_dir(&format!("cal-{seed}"));
    std::fs::remove_dir_all(&dir).ok();
    let io = Arc::new(FailpointIo::new());
    let state = io.state();
    let engine = RoxEngine::new(fresh_catalog());
    engine
        .make_durable_with_io(&dir, Arc::clone(&io) as Arc<dyn WalIo>)
        .unwrap();
    let base = state.written();
    for op in ops {
        apply(&engine, op).unwrap();
    }
    let written = state.written() - base;
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
    written
}

fn query_for(uri: &str) -> String {
    format!(r#"for $a in doc("{uri}")//open_auction, $b in $a/bidder, $i in $b/increase return $i"#)
}

/// Recover `dir` with honest I/O and prove it against a reference
/// engine that applied exactly the durable prefix of `ops`. Returns the
/// recovered water mark.
fn prove_recovery(tag: &str, dir: &Path, ops: &[Op], run: &Drive) -> Lsn {
    let (recovered, report) = RoxEngine::recover(dir).unwrap();

    // Durability: an LSN acked while the I/O was honest is never lost.
    for &lsn in &run.acked {
        assert!(
            lsn <= report.last_lsn,
            "{tag}: acked lsn {lsn} lost (water mark {})",
            report.last_lsn
        );
    }

    // The reference: a never-crashed engine applying the durable prefix
    // (ops whose LSN made it to disk — a superset of the acked ones).
    let reference = RoxEngine::new(fresh_catalog());
    for &(i, lsn) in run
        .executed
        .iter()
        .take_while(|&&(_, l)| l <= report.last_lsn)
    {
        let _ = lsn;
        match &ops[i] {
            Op::Checkpoint => {} // no logical state; the reference skips it
            op => {
                apply(&reference, op).unwrap();
            }
        }
    }

    // Consistency: the epoch tables agree.
    for uri in URIS {
        assert_eq!(
            recovered.doc_epoch(uri),
            reference.doc_epoch(uri),
            "{tag}: epoch of {uri} diverged"
        );
    }

    // Bit-identity: re-snapshotting both engines produces byte-for-byte
    // identical files — documents, indexes and symbol heap all equal.
    let p1 = dir.join("recovered.check.rox");
    let p2 = dir.join("reference.check.rox");
    recovered.save_snapshot(&p1).unwrap();
    reference.save_snapshot(&p2).unwrap();
    assert_eq!(
        std::fs::read(&p1).unwrap(),
        std::fs::read(&p2).unwrap(),
        "{tag}: recovered state is not bit-identical to the reference"
    );

    // Query outputs match row-for-row.
    for uri in URIS {
        let graph = rox_joingraph::compile_query(&query_for(uri)).unwrap();
        let got = recovered.run(&graph, RoxOptions::default()).unwrap().output;
        let want = reference.run(&graph, RoxOptions::default()).unwrap().output;
        assert_eq!(got, want, "{tag}: query output over {uri} diverged");
    }

    // Liveness: the truncated log extends cleanly at water mark + 1.
    let next = recovered
        .try_invalidate_document(URIS[0])
        .unwrap()
        .expect("recovered engine must be durable");
    assert_eq!(
        next,
        report.last_lsn + 1,
        "{tag}: recovered log misnumbered"
    );
    report.last_lsn
}

/// Mutation records (checkpoints excluded) in each lane file of `dir`;
/// a lane missing or unreadable after a crash counts none.
fn lane_appends(dir: &Path) -> [usize; WAL_LANES] {
    WAL_LANE_FILES.map(|name| {
        scan_wal(&dir.join(name)).map_or(0, |scan| {
            scan.records
                .iter()
                .filter(|(_, r)| !matches!(r, WalRecord::Checkpoint { .. }))
                .count()
        })
    })
}

/// The torture loop: ≥ 200 seeded crash schedules across all three
/// fault modes (`seed % 3` cycles short write / torn write / fsync lie),
/// each calibrated so the crash lands uniformly anywhere in the
/// workload — inside a WAL append, a commit, or a checkpoint's
/// snapshot write, rename or directory sync.
#[test]
fn torture_seeded_crash_schedules_all_recover() {
    const SEEDS: u64 = 240;
    const OPS: usize = 8;
    let mut crashes = 0u32;
    let mut appends = [0usize; WAL_LANES];
    for seed in 0..SEEDS {
        let ops = schedule(seed, OPS);
        let window = calibrate(seed, &ops) + 1;

        let dir = torture_dir(&format!("s{seed}"));
        std::fs::remove_dir_all(&dir).ok();
        let io = Arc::new(FailpointIo::new());
        let state = io.state();
        let engine = RoxEngine::new(fresh_catalog());
        engine
            .make_durable_with_io(&dir, Arc::clone(&io) as Arc<dyn WalIo>)
            .unwrap();
        state.arm(FaultPlan::from_seed(seed, window));
        let run = drive(&engine, &ops, &state);
        crashes += run.crashed as u32;
        drop(engine); // the crash: the writer is gone
        for (total, n) in appends.iter_mut().zip(lane_appends(&dir)) {
            *total += n;
        }

        prove_recovery(&format!("seed {seed}"), &dir, &ops, &run);
        std::fs::remove_dir_all(&dir).ok();
    }
    // The budget window is calibrated to the workload, so the
    // overwhelming majority of schedules really die mid-flight.
    assert!(
        crashes > SEEDS as u32 / 2,
        "only {crashes}/{SEEDS} schedules crashed — the harness lost its teeth"
    );
    assert!(
        appends.iter().all(|&n| n > 0),
        "appends landed on one lane only: {appends:?}"
    );
}

/// A clean shutdown is the degenerate schedule: no fault, no torn tail,
/// and recovery is exact.
#[test]
fn clean_shutdown_recovers_bit_identical_with_no_torn_tail() {
    let ops = schedule(7, 10);
    let dir = torture_dir("clean");
    std::fs::remove_dir_all(&dir).ok();
    let io = Arc::new(FailpointIo::new());
    let state = io.state();
    let engine = RoxEngine::new(fresh_catalog());
    engine
        .make_durable_with_io(&dir, Arc::clone(&io) as Arc<dyn WalIo>)
        .unwrap();
    let run = drive(&engine, &ops, &state);
    assert!(!run.crashed);
    assert_eq!(run.acked.len(), ops.len(), "unarmed I/O acks everything");
    drop(engine);

    let water_mark = prove_recovery("clean", &dir, &ops, &run);
    assert_eq!(water_mark, 1 + ops.len() as u64);
    let (_, report) = RoxEngine::recover(&dir).unwrap();
    assert_eq!(report.torn_tail_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent durable mutations: appends interleave under the order
/// lock and spread over both lanes, commits sync their lanes, and every
/// acked epoch bump survives recovery. The fsync count never exceeds
/// the commit count (each sync retires at least one record), and the
/// durable water mark catches up to the last LSN.
#[test]
fn concurrent_mutations_use_both_lanes_and_recover() {
    const THREADS: u64 = 8;
    const EACH: u64 = 8;
    let dir = torture_dir("group");
    std::fs::remove_dir_all(&dir).ok();
    let engine = Arc::new(RoxEngine::new(fresh_catalog()));
    engine.make_durable(&dir).unwrap();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for k in 0..EACH {
                    let uri = format!("t{t}-{k}.xml");
                    engine
                        .try_invalidate_document(&uri)
                        .unwrap()
                        .expect("durable mutation returns its LSN");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = engine.stats().wal;
    assert_eq!(stats.commits, THREADS * EACH);
    assert_eq!(stats.last_lsn, 1 + THREADS * EACH);
    assert_eq!(stats.durable_lsn, stats.last_lsn);
    assert!(
        (1..=stats.commits).contains(&stats.fsyncs),
        "fsyncs {} vs commits {}",
        stats.fsyncs,
        stats.commits
    );
    drop(engine);
    let appends = lane_appends(&dir);
    assert!(appends.iter().all(|&n| n > 0), "lanes used: {appends:?}");
    assert_eq!(appends.iter().sum::<usize>() as u64, THREADS * EACH);

    let (recovered, report) = RoxEngine::recover(&dir).unwrap();
    assert_eq!(report.last_lsn, 1 + THREADS * EACH);
    assert_eq!(report.torn_tail_bytes, 0);
    for t in 0..THREADS {
        for k in 0..EACH {
            assert_eq!(recovered.doc_epoch(&format!("t{t}-{k}.xml")), 1);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Real files, except that once armed, creating a file named `target`
/// or renaming onto one fails: naming a lane's tmp fails its staging,
/// naming the lane fails the rename that makes it current.
struct CrashBefore {
    target: &'static str,
    armed: AtomicBool,
}

impl CrashBefore {
    fn check(&self, path: &Path) -> std::io::Result<()> {
        if self.armed.load(Ordering::SeqCst) && path.file_name() == Some(self.target.as_ref()) {
            return Err(std::io::Error::other("crashed before publishing"));
        }
        Ok(())
    }
}

impl WalIo for CrashBefore {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        self.check(path)?;
        StdWalIo.create(path)
    }
    fn open_append(&self, path: &Path, len: u64) -> std::io::Result<Box<dyn WalFile>> {
        StdWalIo.open_append(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.check(to)?;
        StdWalIo.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        StdWalIo.sync_dir(dir)
    }
}

/// What [`crash_checkpoint_before`] observed.
struct CheckpointCrash {
    /// The writer's last acknowledged LSN.
    last: Lsn,
    /// Whether the writer acknowledged a mutation after the failed
    /// checkpoint (rather than refusing it).
    acked_after: bool,
    report: RecoveryReport,
    /// Lane 1's length right after recovery.
    lane1_len: u64,
}

/// Acked mutations on both lanes, then a checkpoint that fails at
/// `target`, then one more mutation from the same writer, which must
/// either error or survive. Recovery must equal the writer as of its
/// last ack — epochs, re-snapshotted bytes — and extend the log at
/// water mark + 1.
fn crash_checkpoint_before(tag: &str, target: &'static str) -> CheckpointCrash {
    let dir = torture_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    let io = Arc::new(CrashBefore {
        target,
        armed: AtomicBool::new(false),
    });
    let writer = RoxEngine::new(fresh_catalog());
    writer
        .make_durable_with_io(&dir, Arc::clone(&io) as Arc<dyn WalIo>)
        .unwrap();
    let ops = [
        Op::Invalidate {
            uri: URIS[0],
            reload: Some(11),
        },
        Op::Invalidate {
            uri: URIS[1],
            reload: Some(12),
        },
        Op::Reindex {
            uri: URIS[0],
            reload: 13,
        },
        Op::Invalidate {
            uri: URIS[1],
            reload: None,
        },
    ];
    let mut last = 1;
    for op in &ops {
        last = apply(&writer, op).unwrap().unwrap();
    }
    assert!(lane_appends(&dir).iter().all(|&n| n > 0));
    io.armed.store(true, Ordering::SeqCst);
    assert!(
        writer.checkpoint().is_err(),
        "{tag}: the checkpoint crashed"
    );
    // The writer outlives the failed checkpoint. A refused mutation may
    // still have bumped its in-memory epoch, so the expected state is
    // taken before it, and again only if it was acknowledged.
    let want = torture_dir(&format!("{tag}-writer.rox"));
    writer.save_snapshot(&want).unwrap();
    let mut epochs = URIS.map(|uri| writer.doc_epoch(uri));
    let after = writer.try_invalidate_document(URIS[1]);
    if let Ok(lsn) = after {
        last = lsn.expect("durable writer");
        writer.save_snapshot(&want).unwrap();
        epochs = URIS.map(|uri| writer.doc_epoch(uri));
    }
    drop(writer);

    let (recovered, report) = RoxEngine::recover(&dir).unwrap();
    assert!(report.last_lsn >= last, "{tag}: acked lsn {last} lost");
    assert_eq!(URIS.map(|uri| recovered.doc_epoch(uri)), epochs, "{tag}");
    let got = dir.join("recovered.check.rox");
    recovered.save_snapshot(&got).unwrap();
    assert_eq!(
        std::fs::read(&got).unwrap(),
        std::fs::read(&want).unwrap(),
        "{tag}: recovered state is not bit-identical to the writer"
    );
    let lane1_len = std::fs::metadata(dir.join(WAL_LANE_FILES[1]))
        .unwrap()
        .len();
    let next = recovered.try_invalidate_document(URIS[0]).unwrap();
    assert_eq!(next, Some(report.last_lsn + 1), "{tag}: log misnumbered");
    drop(recovered);
    std::fs::remove_file(&want).ok();
    std::fs::remove_dir_all(&dir).ok();
    CheckpointCrash {
        last,
        acked_after: after.is_ok(),
        report,
        lane1_len,
    }
}

/// New snapshot and lane 0, old lane 1: every lane-1 record lies below
/// the new checkpoint, so it is stale — ignored and cut off. The writer
/// lost its lane 0 to the rename, so it refuses further mutations.
#[test]
fn checkpoint_crash_between_lane_publishes_ignores_the_stale_lane() {
    let crash = crash_checkpoint_before("cp-lane1", WAL_LANE_FILES[1]);
    assert!(
        !crash.acked_after,
        "a writer past lane 0's rename must refuse"
    );
    assert_eq!(
        crash.report.last_lsn,
        crash.last + 1,
        "the new checkpoint is the water mark"
    );
    assert_eq!(crash.report.replayed, 0);
    assert!(
        crash.report.torn_tail_bytes > 0,
        "stale lane-1 records are cut"
    );
    assert_eq!(crash.lane1_len, WAL_HEADER as u64);
}

/// New snapshot, old lanes: the old generation replays over it whole.
#[test]
fn checkpoint_crash_before_the_log_publish_replays_the_old_lanes() {
    let crash = crash_checkpoint_before("cp-lane0", WAL_FILE);
    assert!(
        !crash.acked_after,
        "a failed lane rename poisons the writer"
    );
    assert_eq!(crash.report.last_lsn, crash.last);
    assert_eq!(crash.report.replayed, 4);
    assert_eq!(crash.report.torn_tail_bytes, 0);
}

/// A lane that fails to stage (say, no space for its tmp) fails the
/// checkpoint before any lane is renamed: the old log stays whole, the
/// writer keeps appending to it, and its next ack survives recovery.
#[test]
fn checkpoint_failing_to_stage_a_lane_keeps_the_log_live() {
    let crash = crash_checkpoint_before("cp-stage1", "wal.1.rox.tmp");
    assert!(crash.acked_after, "the old log is still live");
    assert_eq!(crash.report.last_lsn, crash.last);
    assert_eq!(crash.report.replayed, 5);
    assert_eq!(crash.report.torn_tail_bytes, 0);
}
