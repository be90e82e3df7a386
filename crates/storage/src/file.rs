//! The page file manager: positioned segment reads over one snapshot file.
//!
//! The file is an array of `page_size`-byte pages (see [`crate::page`]).
//! A segment — a contiguous run of pages — is the unit of I/O:
//! [`FileManager::read_segment`] fetches the whole run with one positioned
//! read (`pread` on unix, so no seek state to serialize), validates every
//! page where it landed and returns the concatenated payloads. Nothing is
//! cached here; the OS page cache does readahead and replacement.

use crate::error::{Result, StorageError};
use crate::page::{decode_page, PAGE_HEADER};
use parking_lot::Mutex;
use std::fs::File;
use std::io::Read;
use std::path::Path;

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

/// Fsync the parent directory of `path`: a file's own fsync persists its
/// data, but the *directory entry* naming it lives in the parent's data
/// and can still be lost on power failure until the directory is synced.
/// No-op on platforms where directories cannot be opened as files.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            retry_transient(|| File::open(dir))?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Read access to one snapshot page file.
pub struct FileManager {
    file: Mutex<File>,
    page_size: usize,
    page_count: u32,
}

impl FileManager {
    /// Wrap an open file whose page size is already known (parsed from the
    /// header page — see [`read_header_payload`]).
    pub fn new(file: File, page_size: usize, page_count: u32) -> Self {
        FileManager {
            file: Mutex::new(file),
            page_size,
            page_count,
        }
    }

    /// The page size this file was written with.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Payload capacity of one full page.
    pub fn payload_per_page(&self) -> usize {
        self.page_size - PAGE_HEADER
    }

    /// Total pages in the file, including the header page.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Read the `len`-byte segment starting at `first_page`: one
    /// positioned read of its whole page run, every page validated
    /// (magic, id, length, CRC-32C), payloads concatenated.
    ///
    /// `len` and the page run are bounded by the file's declared page
    /// count before any buffer is sized from them, so a corrupt directory
    /// cannot force an absurd allocation.
    pub fn read_segment(&self, first_page: u32, len: u64) -> Result<Vec<u8>> {
        let payload = self.payload_per_page() as u64;
        let cap = u64::from(self.page_count) * payload;
        if len > cap {
            return Err(StorageError::Format(format!(
                "segment of {len} bytes exceeds file capacity of {cap}"
            )));
        }
        // `len <= cap` bounds the run by `page_count`, so it fits a u32.
        let pages = len.div_ceil(payload) as u32;
        let end = first_page
            .checked_add(pages)
            .filter(|&e| e <= self.page_count)
            .ok_or_else(|| {
                StorageError::Format(format!(
                    "pages {first_page}..{} beyond file end ({} pages)",
                    u64::from(first_page) + u64::from(pages),
                    self.page_count
                ))
            })?;
        let mut buf = vec![0u8; self.page_size * pages as usize];
        {
            let file = self.file.lock();
            read_at(
                &file,
                &mut buf,
                u64::from(first_page) * self.page_size as u64,
            )?;
        }
        // Validate each page where it landed, then slide its payload down
        // over the headers and padding already consumed.
        let mut filled = 0usize;
        for page_id in first_page..end {
            let at = (page_id - first_page) as usize * self.page_size;
            let want = (len as usize - filled).min(payload as usize);
            let got = decode_page(page_id, &buf[at..at + self.page_size])?.len();
            if got < want {
                return Err(StorageError::Corrupt {
                    page: page_id,
                    reason: format!("payload of {got} bytes where the segment needs {want}"),
                });
            }
            buf.copy_within(at + PAGE_HEADER..at + PAGE_HEADER + want, filled);
            filled += want;
        }
        buf.truncate(filled);
        Ok(buf)
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    retry_transient(|| file.read_exact_at(buf, offset))
}

#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Seek, SeekFrom};
    retry_transient(|| {
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    })
}

/// Read and validate the header page (page 0) of the file at `path`
/// *without knowing the page size yet*: the fixed 16-byte page header
/// carries the payload length, so the payload can be read and checksummed
/// first and the page size parsed out of it afterwards.
///
/// Returns the opened file and the header payload.
pub fn read_header_payload(path: &Path) -> Result<(File, Vec<u8>)> {
    let mut file = File::open(path)?;
    let mut head = [0u8; PAGE_HEADER];
    file.read_exact(&mut head)?;
    let payload_len = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
    // An absurd length means this is not a snapshot; bound the read before
    // trusting it.
    if payload_len > 1 << 20 {
        return Err(StorageError::Corrupt {
            page: 0,
            reason: format!("header payload length {payload_len} is implausible"),
        });
    }
    let mut raw = vec![0u8; PAGE_HEADER + payload_len];
    raw[..PAGE_HEADER].copy_from_slice(&head);
    file.read_exact(&mut raw[PAGE_HEADER..])?;
    let payload = decode_page(0, &raw)?.to_vec();
    Ok((file, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::encode_page;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rox-storage-file-{}-{name}", std::process::id()));
        p
    }

    /// Write `stream` as a page file of `page_size`-byte pages whose
    /// page 0 is a placeholder header, so the stream is the segment at
    /// page 1.
    fn stream_file(
        name: &str,
        stream: &[u8],
        page_size: usize,
    ) -> (std::path::PathBuf, FileManager) {
        let path = temp_path(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(&encode_page(0, b"header", page_size)).unwrap();
        let mut pages = 1u32;
        for chunk in stream.chunks(page_size - PAGE_HEADER) {
            f.write_all(&encode_page(pages, chunk, page_size)).unwrap();
            pages += 1;
        }
        drop(f);
        let fm = FileManager::new(File::open(&path).unwrap(), page_size, pages);
        (path, fm)
    }

    #[test]
    fn read_segment_roundtrips_across_page_boundaries() {
        let stream: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        for page_size in [64, 4096] {
            let (path, fm) = stream_file(&format!("roundtrip-{page_size}"), &stream, page_size);
            assert_eq!(fm.read_segment(1, stream.len() as u64).unwrap(), stream);
            // A prefix ending mid-page, a sub-run starting on a later
            // page, and the empty segment (which owns no page at all).
            assert_eq!(fm.read_segment(1, 100).unwrap(), stream[..100]);
            let payload = fm.payload_per_page();
            assert_eq!(
                fm.read_segment(2, payload as u64 + 1).unwrap(),
                stream[payload..2 * payload + 1]
            );
            assert!(fm.read_segment(1, 0).unwrap().is_empty());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn read_segment_bounds_length_and_page_run() {
        let stream = [7u8; 100]; // 48-byte payloads: pages 1..=3, the last holding 4 bytes
        let (path, fm) = stream_file("bounds", &stream, 64);
        let format = |r: Result<Vec<u8>>| matches!(r, Err(StorageError::Format(_)));
        // A declared length beyond the whole file's capacity.
        assert!(format(fm.read_segment(1, u64::MAX)));
        assert!(format(fm.read_segment(1, 4 * 48 + 1)));
        // A length the file could hold, but not from this first page.
        assert!(format(fm.read_segment(2, 3 * 48)));
        assert!(format(fm.read_segment(4, 1)));
        assert!(format(fm.read_segment(u32::MAX, 1)));
        // A length the page run covers but the stored payloads do not:
        // the short last page is named, nothing is fabricated.
        assert!(matches!(
            fm.read_segment(1, 3 * 48),
            Err(StorageError::Corrupt { page: 3, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_segment_names_the_corrupt_middle_page() {
        let stream: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let (path, fm) = stream_file("middle", &stream, 128);
        drop(fm);
        let mut bytes = std::fs::read(&path).unwrap();
        let pages = (bytes.len() / 128) as u32;
        bytes[5 * 128 + 40] ^= 0xFF; // inside page 5's payload
        std::fs::write(&path, &bytes).unwrap();
        let fm = FileManager::new(File::open(&path).unwrap(), 128, pages);
        let err = fm.read_segment(1, stream.len() as u64).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { page: 5, .. }),
            "{err}"
        );
        // Segments that do not cross the bad page still read.
        assert_eq!(fm.read_segment(1, 4 * 112).unwrap(), stream[..4 * 112]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_page_reads_without_page_size() {
        let path = temp_path("header");
        {
            let mut f = File::create(&path).unwrap();
            f.write_all(&encode_page(0, b"header payload", 256))
                .unwrap();
        }
        let (_file, payload) = read_header_payload(&path).unwrap();
        assert_eq!(payload, b"header payload");
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

    #[test]
    fn corrupt_header_is_rejected() {
        let path = temp_path("corrupt-header");
        {
            let mut page = encode_page(0, b"header payload", 256);
            page[20] ^= 0xFF;
            let mut f = File::create(&path).unwrap();
            f.write_all(&page).unwrap();
        }
        assert!(read_header_payload(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
