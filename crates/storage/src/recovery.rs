//! Crash recovery: a durable directory is a snapshot plus a WAL tail,
//! and recovery turns any crash-consistent state of the two back into
//! the engine that wrote them.
//!
//! ## Directory layout
//!
//! | file               | contents                                    |
//! |--------------------|---------------------------------------------|
//! | `snapshot.rox`     | the newest complete snapshot                |
//! | `wal.rox`          | the log extending it (see [`crate::wal`])   |
//! | `*.tmp`            | checkpoint scratch; deleted on recovery     |
//!
//! ## The checkpoint state machine
//!
//! [`write_checkpoint`] rotates both files with a tmp-write → verify →
//! rename → dir-fsync dance, in this order:
//!
//! 1. encode the snapshot image, write it to `snapshot.rox.tmp`, sync;
//! 2. read the tmp back and compare byte-for-byte — a device that lied
//!    about the sync is caught *before* the rename makes it current;
//! 3. rename over `snapshot.rox`, fsync the directory;
//! 4. write `wal.rox.tmp` holding only the header and a
//!    [`WalRecord::Checkpoint`] stamped `cp_lsn`, sync, verify, rename
//!    over `wal.rox`, fsync the directory (this is the truncation: the
//!    old log generation's records are all baked into the snapshot).
//!
//! A crash anywhere in the dance leaves one of three states, all
//! recoverable: old snapshot with the old log (nothing happened), new
//! snapshot with the old log (replay is idempotent — every old record's
//! content is already in the snapshot and re-applying it converges to
//! the same state), or new snapshot with the new log (the checkpoint
//! completed).
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
};
use rox_index::DocSource;
use rox_xmldb::Catalog;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The snapshot file inside a durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.rox";

/// The write-ahead log inside a durable directory.
pub const WAL_FILE: &str = "wal.rox";

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
    io.rename(&tmp, path)?;
    io.sync_dir(dir)?;
    Ok(())
}

/// What [`write_checkpoint`] produced: the fresh log generation, open
/// for appending, plus the snapshot's save report.
pub struct CheckpointOutcome {
    /// The rotated log, positioned after its checkpoint record.
    pub wal_file: Box<dyn WalFile>,
    /// Bytes in the rotated log (header + checkpoint record).
    pub wal_bytes: u64,
    /// What the snapshot write covered.
    pub report: SaveReport,
}

/// Run the checkpoint state machine (see the module docs): persist a
/// new snapshot of `store`, then rotate the log to a fresh generation
/// whose only record is a [`WalRecord::Checkpoint`] at `cp_lsn`
/// carrying `epochs`. The caller must guarantee no record with an LSN
/// ≥ `cp_lsn` was ever appended.
pub fn write_checkpoint(
    dir: &Path,
    store: &rox_index::IndexedStore,
    epochs: Vec<(String, u64)>,
    cp_lsn: Lsn,
    io: &dyn WalIo,
) -> Result<CheckpointOutcome> {
    let (image, mut report) = Snapshot::encode_image(store);
    publish(dir, &dir.join(SNAPSHOT_FILE), &image, io)?;
    report.fsyncs = 2;

    let mut wal_bytes = wal_header_bytes().to_vec();
    wal_bytes.extend_from_slice(&encode_frame(cp_lsn, &WalRecord::Checkpoint { epochs }));
    let wal_path = dir.join(WAL_FILE);
    publish(dir, &wal_path, &wal_bytes, io)?;
    let wal_file = io.open_append(&wal_path, wal_bytes.len() as u64)?;
    Ok(CheckpointOutcome {
        wal_file,
        wal_bytes: wal_bytes.len() as u64,
        report,
    })
}

/// What one recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Documents restored from the snapshot.
    pub snapshot_docs: usize,
    /// Valid records found in the log (checkpoint included).
    pub wal_records: usize,
    /// Mutation records replayed on top of the snapshot.
    pub replayed: usize,
    /// The last durable LSN — the recovered engine's water mark.
    pub last_lsn: Lsn,
    /// Torn-tail bytes the scan discarded and recovery truncated.
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
    /// The log, truncated past the torn tail and open for appending.
    pub wal: Wal,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

/// Recover the durable directory at `dir`: delete checkpoint scratch,
/// open the newest valid snapshot, scan the log, replay every valid
/// record on top of the snapshot, truncate the torn tail, and hand back
/// a state provably equal to the writer's at its last durable LSN.
pub fn recover(dir: &Path, io: &dyn WalIo) -> Result<RecoveredState> {
    // Checkpoint scratch is dead weight from a crashed rotation.
    std::fs::remove_file(tmp_of(&dir.join(SNAPSHOT_FILE))).ok();
    std::fs::remove_file(tmp_of(&dir.join(WAL_FILE))).ok();

    let (catalog, source) = Snapshot::open(&dir.join(SNAPSHOT_FILE), None)?;
    let snapshot_docs = catalog.len();

    let wal_path = dir.join(WAL_FILE);
    let wal_existed = wal_path.exists();
    let scan: WalScan = if wal_existed {
        let bytes = retry_transient(|| std::fs::read(&wal_path))?;
        scan_wal_bytes(&bytes)?
    } else {
        // No log was ever published: nothing past the snapshot was
        // acknowledged, so an empty generation is faithful.
        WalScan {
            records: Vec::new(),
            valid_len: 0,
            file_len: 0,
        }
    };

    let mut epochs: HashMap<String, u64> = HashMap::new();
    let bump = |epochs: &mut HashMap<String, u64>, uri: &str, epoch: u64| {
        let slot = epochs.entry(uri.to_string()).or_insert(0);
        *slot = (*slot).max(epoch);
    };
    let mut replayed = 0usize;
    for (_lsn, record) in &scan.records {
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

    let torn_tail_bytes = scan.torn_tail_bytes();
    let (wal, last_lsn) = if wal_existed {
        // Truncating to the valid prefix removes the torn tail so the
        // next append extends a clean log.
        let file = io.open_append(&wal_path, scan.valid_len)?;
        let last_lsn = scan.last_lsn();
        (
            Wal::open(file, last_lsn, scan.records.len() as u64, scan.valid_len),
            last_lsn,
        )
    } else {
        let mut bytes = wal_header_bytes().to_vec();
        bytes.extend_from_slice(&encode_frame(
            1,
            &WalRecord::Checkpoint { epochs: Vec::new() },
        ));
        let mut file = io.create(&wal_path)?;
        file.append(&bytes)?;
        file.sync()?;
        io.sync_dir(dir)?;
        (Wal::open(file, 1, 1, bytes.len() as u64), 1)
    };

    let mut epochs: Vec<(String, u64)> = epochs.into_iter().collect();
    epochs.sort();
    Ok(RecoveredState {
        catalog,
        source,
        epochs,
        wal,
        report: RecoveryReport {
            snapshot_docs,
            wal_records: scan.records.len(),
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
