//! Error type of the storage layer.
//!
//! Every failure mode is explicit: I/O errors bubble up from the file
//! manager, corruption is *detected* (checksummed pages) and reported with
//! the offending page, and format violations (truncated segments, invalid
//! tags) are surfaced instead of decoding garbage.

use std::fmt;

/// Errors produced by the page file, snapshot codec and write-ahead log.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A page failed validation: bad magic, mismatched id, impossible
    /// payload length or checksum mismatch. The snapshot refuses to decode
    /// rather than propagate silent corruption.
    Corrupt {
        /// The page that failed validation.
        page: u32,
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
            StorageError::Corrupt { page, reason } => {
                write!(f, "page {page} is corrupt: {reason}")
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
