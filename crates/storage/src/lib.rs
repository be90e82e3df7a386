#![warn(missing_docs)]

//! # rox-storage — segment-framed snapshot storage and a write-ahead log
//!
//! Cold starts used to mean re-parsing and re-shredding every XML source.
//! This crate persists a shredded catalog — the Pre-columnar node tables,
//! the shared interner's symbol heap, and the prebuilt element/value
//! indices — as one snapshot file of checksummed segments, and faults it
//! back in *lazily*, one whole segment per first touch. A segment is the
//! unit of format and of I/O, the decoded document is the unit of
//! caching, and the OS page cache does readahead and replacement:
//!
//! * [`crc`] — CRC-32C, one per segment, one for the snapshot header and
//!   one per WAL frame. Corruption is a detected
//!   [`StorageError::Corrupt`], never silent.
//! * [`mod@file`] — one positioned read and one checksum per segment.
//! * [`bytes`] — the segment codec: byte streams read whole and decoded
//!   from memory, with delta+varint / bitpacked integer runs
//!   ([`bytes::RunCodec`]) chosen per run.
//! * [`snapshot`] — [`Snapshot::save`] / [`Snapshot::open`] plus
//!   [`SnapshotSource`], the [`rox_index::DocSource`] implementation that
//!   the engine's `IndexedStore` faults documents and indices through.
//! * [`wal`] — the write-ahead log: checksummed, LSN-stamped mutation
//!   records over two lanes whose fsyncs overlap, with torn-tail
//!   detection, closing the between-snapshots durability window.
//! * [`recovery`] — durable directories: the checkpoint state machine
//!   (tmp-write → verify → rename → dir-fsync) and [`recover`], which
//!   replays the log tail over the newest valid snapshot.
//! * [`failpoint`] — deterministic fault injection (short writes, torn
//!   writes, lying syncs at seeded byte budgets) powering the recovery
//!   torture suite.
//!
//! The encoder is deterministic (documents in id order, index groups
//! sorted by symbol, `f64` as raw bits): saving the same catalog twice
//! yields byte-identical files, which CI's golden-fixture guard uses to
//! detect accidental format changes.

pub mod bytes;
pub mod crc;
pub mod error;
pub mod failpoint;
pub mod file;
pub mod recovery;
pub mod snapshot;
pub mod wal;

pub use bytes::RunCodec;
pub use crc::crc32c;
pub use error::{Result, StorageError};
pub use failpoint::{FailpointFile, FailpointIo, FailpointState, FaultMode, FaultPlan};
pub use recovery::{recover, write_checkpoint, RecoveredState, RecoveryReport};
pub use snapshot::{PoolStats, SaveReport, Snapshot, SnapshotSource, SNAPSHOT_VERSION};
pub use wal::{Lsn, StdWalIo, Wal, WalIo, WalRecord, WalStats};
