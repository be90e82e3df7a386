//! Error type of the storage layer.
//!
//! Every failure mode is explicit: I/O errors bubble up from the file
//! manager, corruption is *detected* (one CRC-32C per segment) and reported
//! with the offset of the offending segment, and format violations
//! (truncated segments, invalid tags) are surfaced instead of decoding
//! garbage.

use std::fmt;

/// Errors produced by the snapshot file, snapshot codec and write-ahead log.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A segment (or the snapshot header) failed its checksum. The
    /// snapshot refuses to decode rather than propagate silent corruption.
    Corrupt {
        /// File offset of the segment that failed validation (0 for the
        /// header).
        offset: u64,
        /// What exactly failed.
        reason: String,
    },
    /// A structurally invalid snapshot: truncated segment, unknown version,
    /// invalid enum tag, inconsistent directory.
    Format(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { offset, reason } => {
                write!(f, "segment at byte {offset} is corrupt: {reason}")
            }
            StorageError::Format(reason) => write!(f, "invalid snapshot: {reason}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Shorthand result type for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
