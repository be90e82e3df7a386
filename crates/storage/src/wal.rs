//! The write-ahead log: incremental durability between snapshots.
//!
//! A snapshot persists the whole catalog atomically, but any mutation
//! after it — an invalidation carrying new document content, an epoch
//! bump — would be lost on crash. The WAL closes that window:
//! every mutation appends one checksummed, LSN-stamped record and is
//! acknowledged only after the log is fsynced, so recovery can replay
//! the tail on top of the newest snapshot (see [`crate::recovery`]).
//!
//! ## File format
//!
//! A 16-byte header (`"ROXWAL01"`, version `u32`, reserved `u32`)
//! followed by records framed as:
//!
//! | field       | type  | meaning                                |
//! |-------------|-------|----------------------------------------|
//! | payload_len | `u32` | bytes of payload that follow the frame |
//! | crc         | `u32` | CRC-32C of the payload                 |
//! | payload     | bytes | `kind u8` + `lsn u64` + record body    |
//!
//! The scan ([`scan_wal_bytes`]) validates frames in order and stops at
//! the first invalid one — a short length, a CRC mismatch, an unknown
//! kind, or a non-increasing LSN all mean the tail was torn mid-write
//! and everything from there on is discarded (torn-tail detection).
//! LSNs are strictly increasing within a file and never reset, even
//! across log rotations, so "newer" is always a single integer
//! comparison.
//!
//! ## Lanes
//!
//! A [`Wal`] writes to one or more *lane* files, each behind its own
//! lock; a durable directory has two (see [`crate::recovery`]), so two
//! commits' fsyncs can be in flight at once. [`Wal::append`] assigns
//! the next LSN and writes the frame to the lane named by the LSN's
//! parity — or to the other lane when that one is mid-sync. Appends are
//! serialized, so LSNs strictly increase within each lane, and the
//! lanes together hold every LSN exactly once. [`Wal::commit`]`(lsn)`
//! fsyncs the record's own lane, then any other lane still holding an
//! unsynced LSN below it: an acknowledgement means every LSN ≤ `lsn` is
//! durable, in whichever lane it landed (the prefix rule). The durable
//! water mark is that gap-free prefix.

use crate::bytes::{ByteWriter, SliceReader};
use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::file::retry_transient;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// A log sequence number: strictly increasing across the life of a
/// durable directory, never reset by rotation.
pub type Lsn = u64;

/// File magic leading a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"ROXWAL01";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Bytes of the WAL file header (magic + version + reserved word).
pub const WAL_HEADER: usize = 16;

/// Frame overhead per record: payload length + CRC-32C.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one record's payload; anything larger in a frame
/// header means a torn or corrupt frame, not a real record.
const MAX_PAYLOAD: u64 = 1 << 28;

/// The document content a mutation record carries: the encoded column
/// stream plus the interner's *delta* — every symbol interned since the
/// last logged record (`symbol_base` is the id of the first one).
/// Replay re-interns the delta in id order, which reproduces the exact
/// symbol ids the column stream references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocPut {
    /// Id of the first symbol in `new_symbols`.
    pub symbol_base: u32,
    /// Symbols interned since the last logged record, in id order.
    pub new_symbols: Vec<String>,
    /// The document's encoded columns (see `crate::snapshot`'s document
    /// segment format — byte-identical to a snapshot's).
    pub doc_bytes: Vec<u8>,
}

/// One WAL record. The `kind` tags in the comments are the on-disk
/// discriminants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// `kind 1` — the first record of every log generation: the epoch
    /// table as of the snapshot this log extends. Replay starts here.
    Checkpoint {
        /// Document epochs at checkpoint time, in catalog order.
        epochs: Vec<(String, u64)>,
    },
    /// `kind 2` — an invalidation of a document that was not resident:
    /// only the epoch moves; stored indexes become unservable.
    EpochBump {
        /// Document URI.
        uri: String,
        /// The document's new epoch.
        epoch: u64,
    },
    /// `kind 3` — an invalidation carrying the new resident content.
    DocInvalidate {
        /// Document URI.
        uri: String,
        /// The document's new epoch.
        epoch: u64,
        /// The new content.
        put: DocPut,
    },
    /// `kind 4` — a reindex: same content protocol as an invalidation
    /// but no epoch bump. Earlier engines wrote it; nothing writes it any
    /// more, and recovery still replays it so their logs recover.
    DocReindex {
        /// Document URI.
        uri: String,
        /// The content to rebuild indexes from.
        put: DocPut,
    },
}

impl DocPut {
    /// Capture `doc`'s content for the log: encode its columns with the
    /// snapshot's document codec and attach the interner delta the
    /// caller extracted (`symbol_base` = id of `new_symbols[0]`).
    pub fn from_document(
        doc: &rox_xmldb::Document,
        symbol_base: u32,
        new_symbols: Vec<String>,
    ) -> DocPut {
        DocPut {
            symbol_base,
            new_symbols,
            doc_bytes: crate::snapshot::encode_document_bytes(doc),
        }
    }
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Checkpoint { .. } => 1,
            WalRecord::EpochBump { .. } => 2,
            WalRecord::DocInvalidate { .. } => 3,
            WalRecord::DocReindex { .. } => 4,
        }
    }
}

fn encode_put(w: &mut ByteWriter, put: &DocPut) {
    w.put_u32(put.symbol_base);
    w.put_u32(put.new_symbols.len() as u32);
    for s in &put.new_symbols {
        w.put_str(s);
    }
    w.put_bytes(&put.doc_bytes);
}

fn decode_put(r: &mut SliceReader) -> Result<DocPut> {
    let symbol_base = r.get_u32()?;
    let count = r.get_u32()? as usize;
    let mut new_symbols = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        new_symbols.push(r.get_str()?);
    }
    Ok(DocPut {
        symbol_base,
        new_symbols,
        doc_bytes: r.get_bytes()?,
    })
}

/// Encode one record as a complete frame (`len` + `crc` + payload).
pub fn encode_frame(lsn: Lsn, record: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(record.kind());
    w.put_u64(lsn);
    match record {
        WalRecord::Checkpoint { epochs } => {
            w.put_u32(epochs.len() as u32);
            for (uri, epoch) in epochs {
                w.put_str(uri);
                w.put_u64(*epoch);
            }
        }
        WalRecord::EpochBump { uri, epoch } => {
            w.put_str(uri);
            w.put_u64(*epoch);
        }
        WalRecord::DocInvalidate { uri, epoch, put } => {
            w.put_str(uri);
            w.put_u64(*epoch);
            encode_put(&mut w, put);
        }
        WalRecord::DocReindex { uri, put } => {
            w.put_str(uri);
            encode_put(&mut w, put);
        }
    }
    let payload = w.into_bytes();
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn decode_payload(payload: &[u8]) -> Result<(Lsn, WalRecord)> {
    let mut r = SliceReader::new(payload);
    let kind = r.get_u8()?;
    let lsn = r.get_u64()?;
    let record = match kind {
        1 => {
            let count = r.get_u32()? as usize;
            let mut epochs = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let uri = r.get_str()?;
                epochs.push((uri, r.get_u64()?));
            }
            WalRecord::Checkpoint { epochs }
        }
        2 => WalRecord::EpochBump {
            uri: r.get_str()?,
            epoch: r.get_u64()?,
        },
        3 => WalRecord::DocInvalidate {
            uri: r.get_str()?,
            epoch: r.get_u64()?,
            put: decode_put(&mut r)?,
        },
        4 => WalRecord::DocReindex {
            uri: r.get_str()?,
            put: decode_put(&mut r)?,
        },
        k => return Err(StorageError::Format(format!("unknown WAL record kind {k}"))),
    };
    if r.remaining() != 0 {
        return Err(StorageError::Format(format!(
            "{} trailing bytes after WAL record",
            r.remaining()
        )));
    }
    Ok((lsn, record))
}

/// The WAL file header bytes.
pub fn wal_header_bytes() -> [u8; WAL_HEADER] {
    let mut h = [0u8; WAL_HEADER];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// What a WAL scan found: every intact record in order, where each one
/// ends, and how long the file was — bytes past the last end (or past
/// the header, with no records) are a torn tail.
#[derive(Debug)]
pub struct WalScan {
    /// Every valid record, in LSN order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// File offset just past each record's frame, parallel to
    /// `records` — where recovery cuts a lane that keeps a prefix.
    pub ends: Vec<u64>,
    /// Total bytes scanned.
    pub file_len: u64,
}

/// Scan an in-memory WAL image: validate the header, then accept
/// records until the first invalid frame (torn-tail detection). A bad
/// *header* is an error — that file was never a WAL; a bad *record* is
/// normal crash debris and just ends the scan.
pub fn scan_wal_bytes(bytes: &[u8]) -> Result<WalScan> {
    if bytes.len() < WAL_HEADER || bytes[..8] != WAL_MAGIC {
        return Err(StorageError::Format(
            "not a ROX write-ahead log (bad magic)".to_string(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(StorageError::Format(format!(
            "unsupported WAL version {version} (expected {WAL_VERSION})"
        )));
    }
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut at = WAL_HEADER;
    let mut last_lsn = 0u64;
    while bytes.len() - at >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as u64;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len == 0 || len > MAX_PAYLOAD || len > (bytes.len() - at - FRAME_HEADER) as u64 {
            break;
        }
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len as usize];
        if crc32c(payload) != crc {
            break;
        }
        let Ok((lsn, record)) = decode_payload(payload) else {
            break;
        };
        if lsn <= last_lsn {
            break;
        }
        last_lsn = lsn;
        records.push((lsn, record));
        at += FRAME_HEADER + len as usize;
        ends.push(at as u64);
    }
    Ok(WalScan {
        records,
        ends,
        file_len: bytes.len() as u64,
    })
}

/// Scan the WAL file at `path` (see [`scan_wal_bytes`]).
pub fn scan_wal(path: &Path) -> Result<WalScan> {
    let bytes = retry_transient(|| std::fs::read(path))?;
    scan_wal_bytes(&bytes)
}

/// Append-and-sync access to one log file. The extra indirection over
/// [`std::fs::File`] exists for the fault-injection layer
/// ([`crate::failpoint::FailpointFile`]) to interpose short writes,
/// torn tails and fsync lies at seeded crash points.
pub trait WalFile: Send {
    /// Append `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Make everything appended so far durable.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// The filesystem operations durable directories are built from.
/// Implemented by [`StdWalIo`] for real storage and by
/// [`crate::failpoint::FailpointIo`] for the torture harness.
pub trait WalIo: Send + Sync {
    /// Create (truncate) the file at `path` for appending.
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn WalFile>>;
    /// Open the existing file at `path` for appending, first truncating
    /// it to `len` bytes (recovery cutting off a torn tail).
    fn open_append(&self, path: &Path, len: u64) -> std::io::Result<Box<dyn WalFile>>;
    /// Atomically rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Fsync the directory itself so renames and creations survive
    /// power failure.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
}

/// Real filesystem I/O: buffered appends with transient-error retry,
/// real fsyncs.
pub struct StdWalIo;

struct StdWalFile(File);

impl WalFile for StdWalFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        // Not `retry_transient(|| write_all(..))`: `write_all` can fail
        // transiently after consuming a partial prefix, and re-running
        // it would write that prefix twice, corrupting the log framing.
        // Retry single `write` calls and resume from the partial offset.
        let mut written = 0;
        while written < bytes.len() {
            match retry_transient(|| self.0.write(&bytes[written..])) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "wal append made no progress",
                    ))
                }
                Ok(n) => written += n,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        retry_transient(|| self.0.sync_data())
    }
}

impl WalIo for StdWalIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        Ok(Box::new(StdWalFile(retry_transient(|| {
            File::create(path)
        })?)))
    }

    fn open_append(&self, path: &Path, len: u64) -> std::io::Result<Box<dyn WalFile>> {
        let file = retry_transient(|| OpenOptions::new().write(true).read(true).open(path))?;
        file.set_len(len)?;
        // `append` writes go through `write_all` after an explicit seek
        // to the (now truncated) end.
        use std::io::{Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(len))?;
        Ok(Box::new(StdWalFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        retry_transient(|| std::fs::rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        retry_transient(|| File::open(dir))?.sync_all()
    }
}

/// Counters and water marks of one [`Wal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended in the current log generation, over every lane
    /// (including the generation's leading checkpoint record).
    pub records: u64,
    /// Bytes in the current log generation over every lane, headers
    /// included.
    pub bytes: u64,
    /// Fsyncs issued. Each retires at least one unsynced record, so
    /// this stays ≤ `commits` while every append is committed.
    pub fsyncs: u64,
    /// Commit calls acknowledged.
    pub commits: u64,
    /// Highest LSN appended.
    pub last_lsn: Lsn,
    /// Highest LSN with every LSN up to it durable, in every lane.
    pub durable_lsn: Lsn,
}

/// What the lanes share, behind one lock that is never held across I/O.
struct Book {
    /// Per lane, the LSNs written to it and not yet covered by a sync,
    /// ascending.
    unsynced: Vec<VecDeque<Lsn>>,
    last_lsn: Lsn,
    records: u64,
    bytes: u64,
    fsyncs: u64,
    commits: u64,
    /// A failed write or sync leaves the log in an unknown state; the
    /// only safe continuation is recovery, so everything after errors.
    failed: bool,
}

impl Book {
    fn check(&self) -> Result<()> {
        if self.failed {
            return Err(StorageError::Format(
                "write-ahead log poisoned by an earlier I/O failure".to_string(),
            ));
        }
        Ok(())
    }

    /// The gap-free durable prefix: everything below the oldest
    /// unsynced LSN of any lane.
    fn durable_lsn(&self) -> Lsn {
        self.unsynced
            .iter()
            .filter_map(|lane| lane.front())
            .min()
            .map_or(self.last_lsn, |&oldest| oldest - 1)
    }

    /// Does `lane` hold an unsynced LSN ≤ `lsn`?
    fn needs_sync(&self, lane: usize, lsn: Lsn) -> Result<bool> {
        self.check()?;
        Ok(self.unsynced[lane]
            .front()
            .is_some_and(|&oldest| oldest <= lsn))
    }
}

/// The append/commit half of the log (the scan half is [`scan_wal`]).
/// Thread-safe: appends serialize, and a commit's fsync holds only its
/// own lane, so commits on different lanes sync at the same time.
pub struct Wal {
    /// Serializes appends, so LSNs strictly increase within each lane;
    /// holds the next LSN to assign.
    next_lsn: Mutex<Lsn>,
    /// One file per lane; a sync holds its lane's lock throughout.
    lanes: Vec<Mutex<Box<dyn WalFile>>>,
    book: Mutex<Book>,
}

impl Wal {
    /// Wrap one open log file. `last_lsn` is the highest LSN already in
    /// it (appends continue at `last_lsn + 1`, which is also already
    /// durable), `records`/`bytes` seed the stats counters.
    pub fn open(file: Box<dyn WalFile>, last_lsn: Lsn, records: u64, bytes: u64) -> Self {
        Self::open_lanes(vec![file], last_lsn, records, bytes)
    }

    /// As [`Wal::open`] over several lane files, lane `i` being
    /// `files[i]`; `last_lsn` is the highest LSN in any of them and
    /// `records`/`bytes` are totals over all of them.
    pub fn open_lanes(
        files: Vec<Box<dyn WalFile>>,
        last_lsn: Lsn,
        records: u64,
        bytes: u64,
    ) -> Self {
        assert!(!files.is_empty(), "a log needs at least one lane");
        Wal {
            next_lsn: Mutex::new(last_lsn + 1),
            book: Mutex::new(Book {
                unsynced: vec![VecDeque::new(); files.len()],
                last_lsn,
                records,
                bytes,
                fsyncs: 0,
                commits: 0,
                failed: false,
            }),
            lanes: files.into_iter().map(Mutex::new).collect(),
        }
    }

    fn book(&self) -> MutexGuard<'_, Book> {
        self.book.lock().expect("wal book lock")
    }

    /// The lane for `lsn`: the one its parity names, else the first one
    /// not mid-sync, else — every lane busy — the parity lane, waited on.
    fn lane_for(&self, lsn: Lsn) -> (usize, MutexGuard<'_, Box<dyn WalFile>>) {
        let n = self.lanes.len();
        let preferred = (lsn % n as u64) as usize;
        for lane in (0..n).map(|k| (preferred + k) % n) {
            if let Ok(file) = self.lanes[lane].try_lock() {
                return (lane, file);
            }
        }
        let file = self.lanes[preferred].lock().expect("wal lane lock");
        (preferred, file)
    }

    /// Append one record, assigning it the next LSN. The record is in
    /// the OS buffer after this returns — call [`Wal::commit`] before
    /// acknowledging the mutation to anyone.
    pub fn append(&self, record: &WalRecord) -> Result<Lsn> {
        let mut next_lsn = self.next_lsn.lock().expect("wal append lock");
        self.book().check()?;
        let lsn = *next_lsn;
        let frame = encode_frame(lsn, record);
        let (lane, mut file) = self.lane_for(lsn);
        let written = file.append(&frame);
        let mut book = self.book();
        if let Err(e) = written {
            book.failed = true;
            return Err(e.into());
        }
        book.unsynced[lane].push_back(lsn);
        book.last_lsn = lsn;
        book.records += 1;
        book.bytes += frame.len() as u64;
        *next_lsn += 1;
        Ok(lsn)
    }

    /// Make every record up to `lsn` durable, then acknowledge: sync the
    /// record's own lane if no sync covers it yet, then every other lane
    /// still holding an unsynced LSN below it. A lane mid-sync under
    /// another commit is waited for, and then found covered. Returns the
    /// durable water mark, ≥ `lsn`.
    pub fn commit(&self, lsn: Lsn) -> Result<Lsn> {
        let own = {
            let book = self.book();
            book.check()?;
            book.unsynced
                .iter()
                .position(|lane| lane.binary_search(&lsn).is_ok())
        };
        let n = self.lanes.len();
        let first = own.unwrap_or(0);
        for lane in (0..n).map(|k| (first + k) % n) {
            self.sync_lane(lane, lsn)?;
        }
        let mut book = self.book();
        book.commits += 1;
        Ok(book.durable_lsn())
    }

    /// Sync `lane` if it holds an unsynced LSN ≤ `lsn`, checking again
    /// under the lane lock: a concurrent commit may have synced it while
    /// this one waited.
    fn sync_lane(&self, lane: usize, lsn: Lsn) -> Result<()> {
        if !self.book().needs_sync(lane, lsn)? {
            return Ok(());
        }
        let mut file = self.lanes[lane].lock().expect("wal lane lock");
        if !self.book().needs_sync(lane, lsn)? {
            return Ok(());
        }
        let synced = file.sync();
        let mut book = self.book();
        book.fsyncs += 1;
        match synced {
            // Nothing lands in a lane while its lock is held, so the
            // sync covered every LSN the lane held.
            Ok(()) => {
                book.unsynced[lane].clear();
                Ok(())
            }
            Err(e) => {
                book.failed = true;
                Err(e.into())
            }
        }
    }

    /// Swap in a freshly rotated generation, one file per lane: lane 0
    /// ends with the checkpoint record at `cp_lsn`, and `bytes` is the
    /// total over the lanes (see [`crate::recovery::write_checkpoint`]).
    /// Counters restart for the new generation; the LSN sequence does
    /// not.
    pub fn install_rotated(&self, files: Vec<Box<dyn WalFile>>, cp_lsn: Lsn, bytes: u64) {
        assert_eq!(files.len(), self.lanes.len(), "one file per lane");
        let mut next_lsn = self.next_lsn.lock().expect("wal append lock");
        let mut lanes: Vec<_> = self
            .lanes
            .iter()
            .map(|lane| lane.lock().expect("wal lane lock"))
            .collect();
        for (lane, file) in lanes.iter_mut().zip(files) {
            **lane = file;
        }
        let mut book = self.book();
        book.unsynced.iter_mut().for_each(VecDeque::clear);
        book.last_lsn = cp_lsn;
        book.records = 1;
        book.bytes = bytes;
        book.failed = false;
        *next_lsn = cp_lsn + 1;
    }

    /// Refuse every later append and commit until recovery: a
    /// checkpoint replaced a lane file under this log's handle, so a
    /// record written through it would be lost.
    pub(crate) fn poison(&self) {
        self.book().failed = true;
    }

    /// Highest LSN appended so far.
    pub fn last_lsn(&self) -> Lsn {
        self.book().last_lsn
    }

    /// Current counters and water marks.
    pub fn stats(&self) -> WalStats {
        let book = self.book();
        WalStats {
            records: book.records,
            bytes: book.bytes,
            fsyncs: book.fsyncs,
            commits: book.commits,
            last_lsn: book.last_lsn,
            durable_lsn: book.durable_lsn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkpoint {
                epochs: vec![("a.xml".into(), 0), ("b.xml".into(), 3)],
            },
            WalRecord::EpochBump {
                uri: "a.xml".into(),
                epoch: 1,
            },
            WalRecord::DocInvalidate {
                uri: "b.xml".into(),
                epoch: 4,
                put: DocPut {
                    symbol_base: 7,
                    new_symbols: vec!["price".into(), "chair".into()],
                    doc_bytes: vec![1, 2, 3, 4, 5],
                },
            },
            WalRecord::DocReindex {
                uri: "a.xml".into(),
                put: DocPut {
                    symbol_base: 9,
                    new_symbols: vec![],
                    doc_bytes: vec![9, 9],
                },
            },
        ]
    }

    fn image(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = wal_header_bytes().to_vec();
        for (i, r) in records.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame(i as u64 + 1, r));
        }
        bytes
    }

    #[test]
    fn records_roundtrip_through_the_frame_codec() {
        let records = sample_records();
        let scan = scan_wal_bytes(&image(&records)).unwrap();
        assert_eq!(scan.ends.last(), Some(&scan.file_len));
        let decoded: Vec<WalRecord> = scan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_tails() {
        let records = sample_records();
        let full = image(&records);
        let whole = scan_wal_bytes(&full).unwrap();

        // Any truncation point recovers exactly the intact prefix: a
        // record survives iff its frame ends at or before the cut.
        let mut ends = Vec::new();
        let mut at = WAL_HEADER as u64;
        for (lsn, r) in &whole.records {
            at += encode_frame(*lsn, r).len() as u64;
            ends.push(at);
        }
        assert_eq!(whole.ends, ends);
        for cut in WAL_HEADER..full.len() {
            let scan = scan_wal_bytes(&full[..cut]).unwrap();
            let intact = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(scan.records.len(), intact, "cut at {cut}");
            assert_eq!(scan.ends, ends[..intact], "cut at {cut}");
            assert_eq!(scan.file_len, cut as u64);
        }

        // A flipped byte in the middle record kills it and its tail.
        let mut corrupt = full.clone();
        let mid = WAL_HEADER + encode_frame(1, &records[0]).len() + FRAME_HEADER + 2;
        corrupt[mid] ^= 0xFF;
        let scan = scan_wal_bytes(&corrupt).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.ends[0] < scan.file_len);
    }

    #[test]
    fn bad_header_is_an_error_not_an_empty_log() {
        assert!(scan_wal_bytes(b"<site>not a log</site>").is_err());
        let mut wrong_version = wal_header_bytes();
        wrong_version[8] = 99;
        assert!(scan_wal_bytes(&wrong_version).is_err());
    }

    #[test]
    fn append_commit_scan_roundtrips_on_disk() {
        let mut path = std::env::temp_dir();
        path.push(format!("rox-wal-roundtrip-{}.rox", std::process::id()));
        let io = StdWalIo;
        let mut file = io.create(&path).unwrap();
        file.append(&wal_header_bytes()).unwrap();
        let wal = Wal::open(file, 0, 0, WAL_HEADER as u64);
        let records = sample_records();
        for r in &records {
            let lsn = wal.append(r).unwrap();
            assert!(wal.commit(lsn).unwrap() >= lsn);
        }
        let stats = wal.stats();
        assert_eq!(stats.records, records.len() as u64);
        assert_eq!(stats.durable_lsn, records.len() as u64);
        assert!(stats.fsyncs >= 1);

        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), records.len());
        assert_eq!(scan.ends.last(), Some(&scan.file_len));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_commits_over_two_lanes_ack_every_lsn() {
        let paths: Vec<_> = (0..2)
            .map(|lane| {
                std::env::temp_dir()
                    .join(format!("rox-wal-lanes-{}-{lane}.rox", std::process::id()))
            })
            .collect();
        let files = paths
            .iter()
            .map(|path| {
                let mut file = StdWalIo.create(path).unwrap();
                file.append(&wal_header_bytes()).unwrap();
                file
            })
            .collect();
        let wal = Arc::new(Wal::open_lanes(files, 0, 0, 2 * WAL_HEADER as u64));

        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for e in 0..16u64 {
                        let lsn = wal
                            .append(&WalRecord::EpochBump {
                                uri: format!("doc-{t}.xml"),
                                epoch: e,
                            })
                            .unwrap();
                        let durable = wal.commit(lsn).unwrap();
                        assert!(durable >= lsn, "ack below committed lsn");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.records, 128);
        assert_eq!(stats.commits, 128);
        assert_eq!(stats.durable_lsn, 128);
        assert!(stats.fsyncs <= stats.commits, "{stats:?}");
        // Each lane scans clean (LSNs strictly increase within it), and
        // together they hold every LSN exactly once.
        let mut lsns: Vec<Lsn> = Vec::new();
        for path in &paths {
            let scan = scan_wal(path).unwrap();
            assert_eq!(scan.ends.last(), Some(&scan.file_len));
            lsns.extend(scan.records.iter().map(|(lsn, _)| *lsn));
            std::fs::remove_file(path).ok();
        }
        lsns.sort_unstable();
        assert_eq!(lsns, (1..=128).collect::<Vec<_>>());
    }

    /// A [`WalFile`] whose appends succeed and whose syncs fail.
    struct FailingSync;

    impl WalFile for FailingSync {
        fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("sync refused"))
        }
    }

    #[test]
    fn failed_commits_are_not_counted_and_poison_the_log() {
        let wal = Wal::open(Box::new(FailingSync), 0, 0, 0);
        let lsn = wal.append(&sample_records()[1]).unwrap();
        assert!(wal.commit(lsn).is_err());
        assert!(wal.commit(lsn).is_err(), "a poisoned log never acks");
        assert!(wal.append(&sample_records()[1]).is_err());
        let stats = wal.stats();
        assert_eq!(stats.commits, 0, "{stats:?}");
        assert_eq!(stats.fsyncs, 1, "{stats:?}");
        assert_eq!(stats.durable_lsn, 0, "{stats:?}");
    }
}
