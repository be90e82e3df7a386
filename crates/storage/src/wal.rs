//! The write-ahead log: incremental durability between snapshots.
//!
//! A snapshot persists the whole catalog atomically, but any mutation
//! after it — an invalidation carrying new document content, a reindex,
//! an epoch bump — would be lost on crash. The WAL closes that window:
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
//! LSNs are strictly increasing and never reset, even across log
//! rotations, so "newer" is always a single integer comparison.
//!
//! ## Group commit
//!
//! [`Wal::append`] assigns the LSN and buffers the frame in the OS;
//! [`Wal::commit`] makes it durable. Concurrent committers elect one
//! leader that fsyncs once for every record appended so far; followers
//! wait on a condvar and return as soon as the leader's sync covers
//! their LSN — N acknowledgements per fsync, not one.

use crate::bytes::{ByteWriter, SliceReader};
use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::file::retry_transient;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::{Condvar, Mutex};

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
    /// but no epoch bump (plans stay servable).
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

/// What a WAL scan found: every intact record in order, how many bytes
/// of the file they cover, and whether a torn tail follows them.
#[derive(Debug)]
pub struct WalScan {
    /// Every valid record, in LSN order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Bytes covered by the header plus the valid records — recovery
    /// truncates the file back to this length.
    pub valid_len: u64,
    /// Total bytes scanned.
    pub file_len: u64,
}

impl WalScan {
    /// Bytes of torn tail discarded by the scan.
    pub fn torn_tail_bytes(&self) -> u64 {
        self.file_len - self.valid_len
    }

    /// The last valid record's LSN (0 when the log holds none).
    pub fn last_lsn(&self) -> Lsn {
        self.records.last().map_or(0, |(lsn, _)| *lsn)
    }
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
    }
    Ok(WalScan {
        records,
        valid_len: at as u64,
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
    /// Records appended in the current log generation (including its
    /// leading checkpoint record).
    pub records: u64,
    /// Bytes in the current log generation, header included.
    pub bytes: u64,
    /// Fsyncs issued — with group commit this is ≤ `commits`.
    pub fsyncs: u64,
    /// Commit calls acknowledged.
    pub commits: u64,
    /// Highest LSN appended.
    pub last_lsn: Lsn,
    /// Highest LSN known durable.
    pub durable_lsn: Lsn,
}

struct FileSlot {
    file: Box<dyn WalFile>,
    next_lsn: Lsn,
    records: u64,
    bytes: u64,
    /// A failed append or sync leaves the log in an unknown state; the
    /// only safe continuation is recovery, so everything after errors.
    poisoned: bool,
}

struct Book {
    durable_lsn: Lsn,
    last_lsn: Lsn,
    syncing: bool,
    failed: bool,
    fsyncs: u64,
    commits: u64,
}

/// The append/commit half of the log (the scan half is [`scan_wal`]).
/// Thread-safe: appends serialize on the file, commits group-fsync.
pub struct Wal {
    slot: Mutex<FileSlot>,
    book: Mutex<Book>,
    cv: Condvar,
}

impl Wal {
    /// Wrap an open log file. `last_lsn` is the highest LSN already in
    /// it (appends continue at `last_lsn + 1`, which is also already
    /// durable), `records`/`bytes` seed the stats counters.
    pub fn open(file: Box<dyn WalFile>, last_lsn: Lsn, records: u64, bytes: u64) -> Self {
        Wal {
            slot: Mutex::new(FileSlot {
                file,
                next_lsn: last_lsn + 1,
                records,
                bytes,
                poisoned: false,
            }),
            book: Mutex::new(Book {
                durable_lsn: last_lsn,
                last_lsn,
                syncing: false,
                failed: false,
                fsyncs: 0,
                commits: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Append one record, assigning it the next LSN. The record is in
    /// the OS buffer after this returns — call [`Wal::commit`] before
    /// acknowledging the mutation to anyone.
    pub fn append(&self, record: &WalRecord) -> Result<Lsn> {
        let mut slot = self.slot.lock().expect("wal slot lock");
        if slot.poisoned {
            return Err(StorageError::Format(
                "write-ahead log poisoned by an earlier I/O failure".to_string(),
            ));
        }
        let lsn = slot.next_lsn;
        let frame = encode_frame(lsn, record);
        if let Err(e) = slot.file.append(&frame) {
            slot.poisoned = true;
            self.fail_waiters();
            return Err(e.into());
        }
        slot.next_lsn += 1;
        slot.records += 1;
        slot.bytes += frame.len() as u64;
        // The book update must stay inside the slot critical section
        // (slot → book is the lock order, see `fail_waiters`): done
        // after the drop, two appends can publish out of order and
        // regress `last_lsn`, leaving a committer waiting above the
        // mark to re-elect itself leader forever.
        self.book.lock().expect("wal book lock").last_lsn = lsn;
        drop(slot);
        Ok(lsn)
    }

    /// Make every record up to (at least) `lsn` durable, group-
    /// committing with concurrent callers: one elected leader fsyncs
    /// for everyone appended so far, followers wait and return once the
    /// leader's sync covers them. Returns the durable water mark.
    pub fn commit(&self, lsn: Lsn) -> Result<Lsn> {
        let mut book = self.book.lock().expect("wal book lock");
        book.commits += 1;
        loop {
            if book.failed {
                return Err(StorageError::Format(
                    "write-ahead log poisoned by an earlier I/O failure".to_string(),
                ));
            }
            if book.durable_lsn >= lsn {
                return Ok(book.durable_lsn);
            }
            if book.syncing {
                book = self.cv.wait(book).expect("wal book lock");
                continue;
            }
            // Leader: sync everything appended so far.
            book.syncing = true;
            let target = book.last_lsn;
            drop(book);
            let synced = {
                let mut slot = self.slot.lock().expect("wal slot lock");
                slot.file.sync()
            };
            book = self.book.lock().expect("wal book lock");
            book.syncing = false;
            book.fsyncs += 1;
            match synced {
                Ok(()) => {
                    book.durable_lsn = book.durable_lsn.max(target);
                    self.cv.notify_all();
                }
                Err(e) => {
                    book.failed = true;
                    self.slot.lock().expect("wal slot lock").poisoned = true;
                    self.cv.notify_all();
                    return Err(e.into());
                }
            }
        }
    }

    fn fail_waiters(&self) {
        self.book.lock().expect("wal book lock").failed = true;
        self.cv.notify_all();
    }

    /// Swap in a freshly rotated log file whose last record is the
    /// checkpoint at `cp_lsn` and whose length is `bytes` (see
    /// [`crate::recovery::write_checkpoint`]). Counters restart for the
    /// new generation; the LSN sequence does not.
    pub fn install_rotated(&self, file: Box<dyn WalFile>, cp_lsn: Lsn, bytes: u64) {
        let mut slot = self.slot.lock().expect("wal slot lock");
        slot.file = file;
        slot.next_lsn = cp_lsn + 1;
        slot.records = 1;
        slot.bytes = bytes;
        slot.poisoned = false;
        drop(slot);
        let mut book = self.book.lock().expect("wal book lock");
        book.last_lsn = cp_lsn;
        book.durable_lsn = cp_lsn;
        book.failed = false;
        self.cv.notify_all();
    }

    /// Highest LSN appended so far.
    pub fn last_lsn(&self) -> Lsn {
        self.book.lock().expect("wal book lock").last_lsn
    }

    /// Current counters and water marks.
    pub fn stats(&self) -> WalStats {
        let (records, bytes) = {
            let slot = self.slot.lock().expect("wal slot lock");
            (slot.records, slot.bytes)
        };
        let book = self.book.lock().expect("wal book lock");
        WalStats {
            records,
            bytes,
            fsyncs: book.fsyncs,
            commits: book.commits,
            last_lsn: book.last_lsn,
            durable_lsn: book.durable_lsn,
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
        assert_eq!(scan.torn_tail_bytes(), 0);
        assert_eq!(scan.last_lsn(), records.len() as u64);
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
        for cut in WAL_HEADER..full.len() {
            let scan = scan_wal_bytes(&full[..cut]).unwrap();
            assert!(scan.valid_len <= cut as u64);
            let intact = ends.iter().filter(|&&e| e <= cut as u64).count();
            assert_eq!(scan.records.len(), intact, "cut at {cut}");
        }

        // A flipped byte in the middle record kills it and its tail.
        let mut corrupt = full.clone();
        let mid = WAL_HEADER + encode_frame(1, &records[0]).len() + FRAME_HEADER + 2;
        corrupt[mid] ^= 0xFF;
        let scan = scan_wal_bytes(&corrupt).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail_bytes() > 0);
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
        assert_eq!(scan.torn_tail_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_commits_group_behind_one_fsync() {
        let mut path = std::env::temp_dir();
        path.push(format!("rox-wal-group-{}.rox", std::process::id()));
        let io = StdWalIo;
        let mut file = io.create(&path).unwrap();
        file.append(&wal_header_bytes()).unwrap();
        let wal = Arc::new(Wal::open(file, 0, 0, WAL_HEADER as u64));

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
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 128);
        std::fs::remove_file(&path).ok();
    }
}
