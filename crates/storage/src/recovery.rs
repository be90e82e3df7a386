//! Crash recovery: a durable directory is a snapshot plus a WAL tail,
//! and recovery turns any crash-consistent state of the two back into
//! the engine that wrote them.
//!
//! ## Directory layout
//!
//! | file               | contents                                        |
//! |--------------------|-------------------------------------------------|
//! | `snapshot.rox`     | the newest complete snapshot                    |
//! | `wal.rox`          | log lane 0, led by the checkpoint record        |
//! | `wal.1.rox`        | log lane 1 (see [`crate::wal`]'s lanes)         |
//! | `*.tmp`            | checkpoint scratch; deleted on recovery         |
//!
//! The log extending the snapshot is split over [`WAL_LANES`] files so
//! two commits' fsyncs can be in flight at once; each lane holds
//! strictly increasing LSNs, and the lanes together hold each LSN once.
//!
//! ## The checkpoint state machine
//!
//! [`write_checkpoint`] rotates every file with a tmp-write → verify →
//! rename → dir-fsync dance, in this order:
//!
//! 1. encode the snapshot image, write it to `snapshot.rox.tmp`, sync;
//! 2. read the tmp back and compare byte-for-byte — a device that lied
//!    about the sync is caught *before* the rename makes it current;
//! 3. rename over `snapshot.rox`, fsync the directory;
//! 4. stage both lanes the same way (write, sync, verify their tmps):
//!    lane 0 holding only the header and a [`WalRecord::Checkpoint`]
//!    stamped `cp_lsn`, lane 1 header only;
//! 5. rename lane 0 into place, fsync the directory, then lane 1.
//!    Steps 4–5 are the truncation: the old generation's records are
//!    all baked into the snapshot. Staging both lanes first means an
//!    ordinary failure (say, no space for lane 1's tmp) leaves the old
//!    log whole, and the serving log keeps appending to it; a failure
//!    from the first lane rename on poisons the serving log until
//!    recovery. Lane 0 is renamed first because a crash between the two
//!    renames then leaves lane-1 records below `cp_lsn`, which recovery
//!    ignores as stale; the other order could leave the old lane 0
//!    beside an emptied lane 1 and drop the epochs of acked lane-1
//!    records.
//!
//! A crash anywhere in the dance leaves one of four states, all
//! recoverable: old snapshot with the old log (nothing happened), new
//! snapshot with the old log (replay is idempotent — every old record's
//! content is already in the snapshot and re-applying it converges to
//! the same state), new snapshot and lane 0 with a stale lane 1, or new
//! snapshot with the new log (the checkpoint completed).
//!
//! ## Replay
//!
//! [`recover`] scans both lanes, drops lane-1 records at or below lane
//! 0's first LSN (stale), and merges the two sorted runs by LSN,
//! replaying the longest gap-free run from lane 0's first record. A
//! record past a gap was never acknowledged: a commit acks only once
//! every LSN up to its own is durable in both lanes. Each lane is then
//! truncated after its last replayed record.
//!
//! ## LSN ↔ epoch rule
//!
//! LSNs never reset — a rotated log starts at the previous generation's
//! `last_lsn + 1` — so "how recovered am I" is one number. Document
//! epochs ride *in* the records: the checkpoint record carries the full
//! epoch table, every bump/invalidate carries the new epoch, and replay
//! max-merges them, so a recovered engine's epoch table equals the
//! uncrashed engine's at the last durable LSN.

use crate::error::{Result, StorageError};
use crate::file::retry_transient;
use crate::snapshot::{decode_document, SaveReport, Snapshot, SnapshotSource};
use crate::wal::{
    encode_frame, scan_wal_bytes, wal_header_bytes, Lsn, Wal, WalFile, WalIo, WalRecord, WalScan,
    WAL_HEADER,
};
use rox_index::DocSource;
use rox_xmldb::Catalog;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The snapshot file inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.rox";

/// The write-ahead log inside a durable directory: its lane 0.
pub const WAL_FILE: &str = "wal.rox";

/// Lanes of a durable directory's log — a constant, not an option: two
/// fsyncs in flight were measured to overlap, a third was not measured.
pub const WAL_LANES: usize = 2;

/// The lane files, lane `i` at index `i`.
pub const WAL_LANE_FILES: [&str; WAL_LANES] = [WAL_FILE, "wal.1.rox"];

fn tmp_of(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Write `bytes` to `path`'s tmp sibling, sync, read it back to verify
/// every byte was accepted (catching short or silently dropped writes,
/// including the torture harness's simulated device, before the rename
/// can make a hollow file current), then rename into place and fsync
/// the directory. The read-back is served from the OS page cache, so
/// it cannot prove the bytes reached stable media — power-failure
/// durability rests on the sync + rename + dir-fsync ordering, not on
/// this check.
pub(crate) fn publish(dir: &Path, path: &Path, bytes: &[u8], io: &dyn WalIo) -> Result<()> {
    stage(path, bytes, io)?;
    install(dir, path, io)
}

/// The first half of [`publish`]: write, sync and verify `path`'s tmp
/// sibling, leaving `path` itself untouched.
fn stage(path: &Path, bytes: &[u8], io: &dyn WalIo) -> Result<()> {
    let tmp = tmp_of(path);
    {
        let mut file = io.create(&tmp)?;
        file.append(bytes)?;
        file.sync()?;
    }
    let on_disk = retry_transient(|| std::fs::read(&tmp))?;
    if on_disk != bytes {
        return Err(StorageError::Format(format!(
            "verify before rename failed: {} bytes read back, {} written — a write was dropped or truncated",
            on_disk.len(),
            bytes.len()
        )));
    }
    Ok(())
}

/// The second half of [`publish`]: rename the staged tmp over `path`
/// and fsync the directory.
fn install(dir: &Path, path: &Path, io: &dyn WalIo) -> Result<()> {
    io.rename(&tmp_of(path), path)?;
    io.sync_dir(dir)?;
    Ok(())
}

/// What [`write_checkpoint`] produced: the fresh log generation, open
/// for appending, plus the snapshot's save report.
pub struct CheckpointOutcome {
    /// The rotated lanes, lane `i` at index `i`: lane 0 positioned after
    /// its checkpoint record, the others after their header.
    pub wal_files: Vec<Box<dyn WalFile>>,
    /// Bytes in the rotated lanes together (headers + checkpoint record).
    pub wal_bytes: u64,
    /// What the snapshot write covered.
    pub report: SaveReport,
}

/// Run the checkpoint state machine (see the module docs): persist a
/// new snapshot of `store`, then rotate the log to a fresh generation
/// whose only record is a [`WalRecord::Checkpoint`] at `cp_lsn`
/// carrying `epochs`. The caller must guarantee no record with an LSN
/// ≥ `cp_lsn` was ever appended.
///
/// `live` is the log serving the directory, if any. A failure before
/// the lane renames leaves it whole and usable; a failure from the
/// first lane rename on poisons it, since its handles may then point at
/// replaced files, where an appended record would be lost.
pub fn write_checkpoint(
    dir: &Path,
    store: &rox_index::IndexedStore,
    epochs: Vec<(String, u64)>,
    cp_lsn: Lsn,
    io: &dyn WalIo,
    live: Option<&Wal>,
) -> Result<CheckpointOutcome> {
    let (image, mut report) = Snapshot::encode_image(store);
    publish(dir, &dir.join(SNAPSHOT_FILE), &image, io)?;
    report.fsyncs = 2;
    let (wal_files, wal_bytes) = publish_log(dir, cp_lsn, epochs, io, live)?;
    Ok(CheckpointOutcome {
        wal_files,
        wal_bytes,
        report,
    })
}

/// Publish a fresh log generation — lane 0 holding the checkpoint
/// record at `cp_lsn`, every other lane header-only — and open each
/// lane for appending. Every lane is staged before any is renamed, and
/// the renames run in lane order (see the module docs); `live` is
/// poisoned as [`write_checkpoint`] describes. Returns the lanes and
/// their total bytes.
fn publish_log(
    dir: &Path,
    cp_lsn: Lsn,
    epochs: Vec<(String, u64)>,
    io: &dyn WalIo,
    live: Option<&Wal>,
) -> Result<(Vec<Box<dyn WalFile>>, u64)> {
    let mut lane0 = wal_header_bytes().to_vec();
    lane0.extend_from_slice(&encode_frame(cp_lsn, &WalRecord::Checkpoint { epochs }));
    let images = [lane0, wal_header_bytes().to_vec()];
    let paths = WAL_LANE_FILES.map(|name| dir.join(name));
    for (path, image) in paths.iter().zip(&images) {
        stage(path, image, io)?;
    }
    let installed = paths
        .iter()
        .try_for_each(|path| install(dir, path, io))
        .and_then(|()| {
            paths
                .iter()
                .zip(&images)
                .map(|(path, image)| Ok(io.open_append(path, image.len() as u64)?))
                .collect::<Result<Vec<_>>>()
        });
    let files = installed.inspect_err(|_| {
        if let Some(wal) = live {
            wal.poison();
        }
    })?;
    Ok((files, images.iter().map(|i| i.len() as u64).sum()))
}

/// What one recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Documents restored from the snapshot.
    pub snapshot_docs: usize,
    /// Log records replayed, checkpoint records included.
    pub wal_records: usize,
    /// Mutation records replayed on top of the snapshot.
    pub replayed: usize,
    /// The last durable LSN — the recovered engine's water mark.
    pub last_lsn: Lsn,
    /// Bytes recovery cut off the lanes, summed: torn tails, records
    /// past a gap, and stale lane-1 records.
    pub torn_tail_bytes: u64,
}

/// A recovered durable directory, ready to back an engine.
pub struct RecoveredState {
    /// The catalog: snapshot URIs reserved, replayed documents resident.
    pub catalog: Arc<Catalog>,
    /// The snapshot source, with every replayed document marked stale.
    pub source: Arc<SnapshotSource>,
    /// The recovered epoch table.
    pub epochs: Vec<(String, u64)>,
    /// The log: every lane cut after its last replayed record and open
    /// for appending.
    pub wal: Wal,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

/// Recover the durable directory at `dir`: delete checkpoint scratch,
/// open the newest valid snapshot, scan the lanes, replay the gap-free
/// run of their merge on top of the snapshot, truncate each lane after
/// its last replayed record, and hand back a state provably equal to
/// the writer's at its last durable LSN.
pub fn recover(dir: &Path, io: &dyn WalIo) -> Result<RecoveredState> {
    // Checkpoint scratch is dead weight from a crashed rotation.
    std::fs::remove_file(tmp_of(&dir.join(SNAPSHOT_FILE))).ok();
    for name in WAL_LANE_FILES {
        std::fs::remove_file(tmp_of(&dir.join(name))).ok();
    }

    let (catalog, source) = Snapshot::open(&dir.join(SNAPSHOT_FILE), None)?;
    let snapshot_docs = catalog.len();

    let paths = WAL_LANE_FILES.map(|name| dir.join(name));
    if !paths[0].exists() {
        // No log was ever published: nothing past the snapshot was
        // acknowledged, so an empty generation is faithful.
        let (files, bytes) = publish_log(dir, 1, Vec::new(), io, None)?;
        return Ok(RecoveredState {
            catalog,
            source,
            epochs: Vec::new(),
            wal: Wal::open_lanes(files, 1, 1, bytes),
            report: RecoveryReport {
                snapshot_docs,
                wal_records: 0,
                replayed: 0,
                last_lsn: 1,
                torn_tail_bytes: 0,
            },
        });
    }
    let mut absent = [false; WAL_LANES];
    let mut scans = Vec::with_capacity(WAL_LANES);
    for (lane, path) in paths.iter().enumerate() {
        scans.push(if path.exists() {
            let bytes = retry_transient(|| std::fs::read(path))?;
            scan_wal_bytes(&bytes)?
        } else {
            // Lane 1 of a directory written before the log had lanes:
            // an empty lane, published below.
            absent[lane] = true;
            WalScan {
                records: Vec::new(),
                ends: Vec::new(),
                file_len: WAL_HEADER as u64,
            }
        });
    }

    // Where each lane's live records start: lane-1 records at or below
    // lane 0's first LSN predate the generation lane 0 opens (a crash
    // between the two lanes' publishes).
    let floor = scans[0].records.first().map(|(lsn, _)| *lsn);
    let start: Vec<usize> = scans
        .iter()
        .enumerate()
        .map(|(lane, scan)| match floor {
            _ if lane == 0 => 0,
            Some(floor) => scan.records.partition_point(|(lsn, _)| *lsn <= floor),
            None => scan.records.len(),
        })
        .collect();

    let mut epochs: HashMap<String, u64> = HashMap::new();
    let bump = |epochs: &mut HashMap<String, u64>, uri: &str, epoch: u64| {
        let slot = epochs.entry(uri.to_string()).or_insert(0);
        *slot = (*slot).max(epoch);
    };
    let (mut replayed, mut wal_records) = (0usize, 0usize);
    // Two-way merge of the sorted lanes, stopping at the first gap.
    let mut next = start.clone();
    let mut expected: Option<Lsn> = None;
    while let Some(lane) = (0..WAL_LANES)
        .filter(|&lane| next[lane] < scans[lane].records.len())
        .min_by_key(|&lane| scans[lane].records[next[lane]].0)
    {
        let (lsn, record) = &scans[lane].records[next[lane]];
        if expected.is_some_and(|e| *lsn != e) {
            break;
        }
        next[lane] += 1;
        expected = Some(lsn + 1);
        wal_records += 1;
        match record {
            WalRecord::Checkpoint { epochs: table } => {
                for (uri, epoch) in table {
                    bump(&mut epochs, uri, *epoch);
                }
            }
            WalRecord::EpochBump { uri, epoch } => {
                bump(&mut epochs, uri, *epoch);
                if let Some(id) = catalog.resolve(uri) {
                    source.mark_stale(id);
                }
                replayed += 1;
            }
            WalRecord::DocInvalidate { uri, epoch, put } => {
                bump(&mut epochs, uri, *epoch);
                apply_put(&catalog, &source, uri, put)?;
                replayed += 1;
            }
            WalRecord::DocReindex { uri, put } => {
                apply_put(&catalog, &source, uri, put)?;
                replayed += 1;
            }
        }
    }

    // Cutting each lane after its last replayed record removes torn
    // tails, records past the gap and stale records, so the next
    // append extends a clean log.
    let mut files = Vec::with_capacity(WAL_LANES);
    let (mut bytes, mut torn_tail_bytes) = (0u64, 0u64);
    for (lane, scan) in scans.iter().enumerate() {
        let keep_len = if next[lane] == start[lane] {
            WAL_HEADER as u64
        } else {
            scan.ends[next[lane] - 1]
        };
        if absent[lane] {
            publish(dir, &paths[lane], &wal_header_bytes(), io)?;
        }
        files.push(io.open_append(&paths[lane], keep_len)?);
        torn_tail_bytes += scan.file_len - keep_len;
        bytes += keep_len;
    }
    let last_lsn = expected.map_or(0, |e| e - 1);

    let mut epochs: Vec<(String, u64)> = epochs.into_iter().collect();
    epochs.sort();
    Ok(RecoveredState {
        catalog,
        source,
        epochs,
        wal: Wal::open_lanes(files, last_lsn, wal_records as u64, bytes),
        report: RecoveryReport {
            snapshot_docs,
            wal_records,
            replayed,
            last_lsn,
            torn_tail_bytes,
        },
    })
}

/// Replay one document-carrying record: re-intern its symbol delta (in
/// id order, so every symbol lands at its original id), decode the
/// column stream, install the document resident in the catalog, and
/// mark the snapshot's stored segments for it stale.
fn apply_put(
    catalog: &Arc<Catalog>,
    source: &Arc<SnapshotSource>,
    uri: &str,
    put: &crate::wal::DocPut,
) -> Result<()> {
    let interner = catalog.interner();
    for (i, s) in put.new_symbols.iter().enumerate() {
        let sym = interner.intern(s);
        // Replay over a newer snapshot may find the symbol already
        // present — that is fine; what must never happen is a *different*
        // id, which would silently rebind every column referencing it.
        let expected = put.symbol_base as usize + i;
        if sym.0 as usize > expected {
            return Err(StorageError::Format(format!(
                "WAL symbol {s:?} interned at {} but logged at ≤ {expected} — log and snapshot disagree",
                sym.0
            )));
        }
    }
    let id = catalog.resolve(uri).unwrap_or_else(|| catalog.reserve(uri));
    let mut r = crate::bytes::SliceReader::new(&put.doc_bytes);
    let doc = decode_document(&mut r, id, uri, interner)?;
    catalog.insert(uri, Arc::new(doc));
    source.mark_stale(id);
    Ok(())
}
