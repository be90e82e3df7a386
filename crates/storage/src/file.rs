//! Positioned segment reads over one snapshot file.
//!
//! A snapshot is a fixed header followed by its segments back to back
//! (see [`crate::snapshot`]), each located by `{offset, len, crc32c}`.
//! [`FileManager::read_segment`] fetches one segment with one positioned
//! read (`pread` on unix, `seek_read` on windows — neither shares a seek
//! cursor, so concurrent reads need no lock) and checks its CRC-32C.
//! Nothing is cached here; the OS page cache does readahead and
//! replacement.

use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use std::fs::File;

/// Retry `op` across transient I/O failures (`EINTR`, `EAGAIN`) with a
/// bounded exponential backoff instead of bubbling a hard error: a signal
/// landing mid-`pread` or a briefly saturated device should not poison a
/// query or a WAL append. Any other error — and a transient one that
/// persists past the retry budget — is returned to the caller.
pub fn retry_transient<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    use std::io::ErrorKind;
    const ATTEMPTS: u32 = 6;
    let mut backoff = std::time::Duration::from_micros(50);
    let mut last = None;
    for attempt in 0..ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) => {
                last = Some(e);
                if attempt + 1 < ATTEMPTS {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(std::time::Duration::from_millis(5));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retry loop exits early without an error"))
}

/// Read access to one snapshot file.
pub struct FileManager {
    file: File,
    len: u64,
}

impl FileManager {
    /// Wrap an open file whose length on disk is `len` bytes.
    pub fn new(file: File, len: u64) -> Self {
        FileManager { file, len }
    }

    /// Read the `len`-byte segment at `offset` and check it against its
    /// CRC-32C `crc`: one positioned read, one checksum.
    ///
    /// `offset + len` is bounded by the file length before any buffer is
    /// sized from it, so a corrupt directory cannot force an absurd
    /// allocation.
    pub fn read_segment(&self, offset: u64, len: u64, crc: u32) -> Result<Vec<u8>> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(StorageError::Format(format!(
                "segment of {len} bytes at {offset} runs past the {}-byte file",
                self.len
            )));
        }
        let mut buf = vec![0u8; len as usize];
        read_at(&self.file, &mut buf, offset)?;
        let actual = crc32c(&buf);
        if actual != crc {
            return Err(StorageError::Corrupt {
                offset,
                reason: format!("checksum mismatch: stored {crc:#010x}, computed {actual:#010x}"),
            });
        }
        Ok(buf)
    }
}

/// Fill `buf` from `file` at `offset` without touching a seek cursor.
#[cfg(unix)]
pub(crate) fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    retry_transient(|| file.read_exact_at(buf, offset))
}

/// Fill `buf` from `file` at `offset` without touching a seek cursor.
#[cfg(windows)]
pub(crate) fn read_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match retry_transient(|| file.seek_read(buf, offset))? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file holding `stream` after a 7-byte prefix, so segments start
    /// at nonzero offsets.
    fn stream_file(name: &str, stream: &[u8]) -> (std::path::PathBuf, FileManager) {
        let mut p = std::env::temp_dir();
        p.push(format!("rox-storage-file-{}-{name}", std::process::id()));
        let mut bytes = b"prefix!".to_vec();
        bytes.extend_from_slice(stream);
        std::fs::write(&p, &bytes).unwrap();
        let fm = FileManager::new(File::open(&p).unwrap(), bytes.len() as u64);
        (p, fm)
    }

    #[test]
    fn read_segment_roundtrips_any_run() {
        let stream: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let (path, fm) = stream_file("roundtrip", &stream);
        let seg = |at: usize, len: usize| {
            let want = &stream[at..at + len];
            fm.read_segment(7 + at as u64, len as u64, crc32c(want))
        };
        assert_eq!(seg(0, stream.len()).unwrap(), stream);
        assert_eq!(seg(100, 1).unwrap(), stream[100..101]);
        assert_eq!(seg(9_000, 1_000).unwrap(), stream[9_000..]);
        assert!(seg(5, 0).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_segment_bounds_offset_and_length_before_allocating() {
        let (path, fm) = stream_file("bounds", &[7u8; 100]); // 107 bytes
        let format = |r: Result<Vec<u8>>| matches!(r, Err(StorageError::Format(_)));
        // Past the file end, by one byte or by far (an allocation of
        // u64::MAX would abort, not error).
        assert!(format(fm.read_segment(7, 101, 0)));
        assert!(format(fm.read_segment(108, 0, 0)));
        assert!(format(fm.read_segment(0, u64::MAX, 0)));
        // `offset + len` overflowing u64 is not allowed to wrap in range.
        assert!(format(fm.read_segment(u64::MAX, 1, 0)));
        assert!(format(fm.read_segment(2, u64::MAX - 1, 0)));
        // The last byte is in range.
        assert!(fm.read_segment(106, 1, crc32c(&[7])).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_segment_names_the_corrupt_segment() {
        let stream: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let (path, fm) = stream_file("corrupt", &stream);
        drop(fm);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7 + 500] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let fm = FileManager::new(File::open(&path).unwrap(), bytes.len() as u64);
        let (a, b) = (&stream[..400], &stream[400..]);
        // The segment holding the flipped byte fails, named by its offset;
        // its neighbour still reads.
        let err = fm.read_segment(407, b.len() as u64, crc32c(b)).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { offset: 407, .. }),
            "{err}"
        );
        assert_eq!(fm.read_segment(7, 400, crc32c(a)).unwrap(), a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_errors_retry_and_hard_errors_bubble() {
        use std::io::{Error, ErrorKind};
        // EINTR twice, then success: retried to completion.
        let mut left = 2;
        let out = retry_transient(|| {
            if left > 0 {
                left -= 1;
                Err(Error::from(ErrorKind::Interrupted))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);

        // EAGAIN forever: bounded, the error eventually bubbles.
        let mut calls = 0;
        let out: std::io::Result<()> = retry_transient(|| {
            calls += 1;
            Err(Error::from(ErrorKind::WouldBlock))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::WouldBlock);
        assert_eq!(calls, 6, "retry budget must be bounded");

        // A hard error returns on the first attempt.
        let mut calls = 0;
        let out: std::io::Result<()> = retry_transient(|| {
            calls += 1;
            Err(Error::from(ErrorKind::NotFound))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::NotFound);
        assert_eq!(calls, 1);
    }
}
