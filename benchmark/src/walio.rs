//! A flush-tracking [`WalIo`]: real files underneath, plus a ledger of
//! what the engine wrote and what it actually made durable.
//!
//! Killing a process leaves the operating system's cache intact, so a
//! crash test that only drops the engine proves nothing about fsync
//! discipline. This layer remembers, per file, the length covered by the
//! last successful `sync`; [`TrackingIo::crash`] then truncates every
//! file to that length — exactly the bytes a power cut would have kept.
//! It also counts the device traffic (writes, bytes, flushes) that the
//! `device.*` metrics report.

use rox_storage::wal::WalFile;
use rox_storage::{StdWalIo, WalIo};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Device traffic seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// `append` calls.
    pub writes: u64,
    /// Bytes appended.
    pub write_bytes: u64,
    /// File and directory syncs.
    pub flushes: u64,
}

#[derive(Debug)]
struct Tracked {
    path: PathBuf,
    written: u64,
    synced: u64,
}

#[derive(Default)]
struct Ledger {
    files: HashMap<u64, Tracked>,
    next_id: u64,
    stats: DeviceStats,
}

impl Ledger {
    fn forget_path(&mut self, path: &Path) {
        self.files.retain(|_, f| f.path != path);
    }

    fn track(&mut self, path: &Path, written: u64, synced: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.files.insert(
            id,
            Tracked {
                path: path.to_path_buf(),
                written,
                synced,
            },
        );
        id
    }
}

struct Shared {
    ledger: Mutex<Ledger>,
    /// Set by [`TrackingIo::fail_syncs`]: the device stops acknowledging.
    dead: AtomicBool,
}

/// The flush-tracking I/O layer (cheap to clone; clones share the ledger).
#[derive(Clone)]
pub struct TrackingIo {
    shared: Arc<Shared>,
}

impl Default for TrackingIo {
    fn default() -> Self {
        Self::new()
    }
}

impl TrackingIo {
    /// A fresh ledger over real files.
    pub fn new() -> TrackingIo {
        TrackingIo {
            shared: Arc::new(Shared {
                ledger: Mutex::new(Ledger::default()),
                dead: AtomicBool::new(false),
            }),
        }
    }

    fn ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.shared.ledger.lock().expect("tracking ledger")
    }

    /// Device traffic so far.
    pub fn stats(&self) -> DeviceStats {
        self.ledger().stats
    }

    /// From now on every sync fails: writes still reach the file but are
    /// never acknowledged as durable (the moment before a power cut).
    pub fn fail_syncs(&self) {
        self.shared.dead.store(true, Ordering::SeqCst);
    }

    /// Total bytes currently known durable across tracked files.
    #[cfg(test)]
    pub fn durable_bytes(&self) -> u64 {
        self.ledger().files.values().map(|f| f.synced).sum()
    }

    /// Simulate the power cut: truncate every tracked file to its
    /// last-synced length. Returns the unsynced bytes discarded. Call
    /// only once every handle is dropped (the engine is gone).
    pub fn crash(&self) -> std::io::Result<u64> {
        let mut dropped = 0;
        for f in self.ledger().files.values_mut() {
            if !f.path.exists() {
                continue;
            }
            let on_disk = std::fs::metadata(&f.path)?.len();
            if on_disk > f.synced {
                dropped += on_disk - f.synced;
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&f.path)?
                    .set_len(f.synced)?;
            }
            f.written = f.synced;
        }
        Ok(dropped)
    }
}

struct TrackingFile {
    inner: Box<dyn WalFile>,
    id: u64,
    shared: Arc<Shared>,
}

impl WalFile for TrackingFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(bytes)?;
        let mut ledger = self.shared.ledger.lock().expect("tracking ledger");
        ledger.stats.writes += 1;
        ledger.stats.write_bytes += bytes.len() as u64;
        if let Some(f) = ledger.files.get_mut(&self.id) {
            f.written += bytes.len() as u64;
        }
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("device stopped acknowledging syncs"));
        }
        // Read the length before the sync: bytes appended by a racing
        // writer after this point are not covered by it.
        let covered = {
            let ledger = self.shared.ledger.lock().expect("tracking ledger");
            ledger.files.get(&self.id).map(|f| f.written)
        };
        self.inner.sync()?;
        let mut ledger = self.shared.ledger.lock().expect("tracking ledger");
        ledger.stats.flushes += 1;
        if let (Some(f), Some(covered)) = (ledger.files.get_mut(&self.id), covered) {
            f.synced = f.synced.max(covered);
        }
        Ok(())
    }
}

impl WalIo for TrackingIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        let inner = StdWalIo.create(path)?;
        let mut ledger = self.ledger();
        ledger.forget_path(path);
        let id = ledger.track(path, 0, 0);
        Ok(Box::new(TrackingFile {
            inner,
            id,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open_append(&self, path: &Path, len: u64) -> std::io::Result<Box<dyn WalFile>> {
        let inner = StdWalIo.open_append(path, len)?;
        let mut ledger = self.ledger();
        // A file this ledger never saw was on disk before it existed —
        // durable as found. One it wrote keeps what it synced.
        let synced = ledger
            .files
            .values()
            .find(|f| f.path == path)
            .map_or(len, |f| f.synced.min(len));
        ledger.forget_path(path);
        let id = ledger.track(path, len, synced);
        Ok(Box::new(TrackingFile {
            inner,
            id,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdWalIo.rename(from, to)?;
        let mut ledger = self.ledger();
        ledger.forget_path(to);
        for f in ledger.files.values_mut() {
            if f.path == from {
                f.path = to.to_path_buf();
            }
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("device stopped acknowledging syncs"));
        }
        StdWalIo.sync_dir(dir)?;
        self.ledger().stats.flushes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-walio-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crash_drops_exactly_the_unsynced_tail() {
        let dir = temp_dir("tail");
        let path = dir.join("log");
        let io = TrackingIo::new();
        let mut f = io.create(&path).unwrap();
        f.append(b"durable!").unwrap();
        f.sync().unwrap();
        f.append(b"lost").unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"durable!lost");
        assert_eq!(io.crash().unwrap(), 4);
        assert_eq!(std::fs::read(&path).unwrap(), b"durable!");
        assert_eq!(
            io.stats(),
            DeviceStats {
                writes: 2,
                write_bytes: 12,
                flushes: 1
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn never_synced_file_is_emptied_and_rename_carries_the_ledger() {
        let dir = temp_dir("rename");
        let io = TrackingIo::new();
        let tmp = dir.join("snap.tmp");
        let fin = dir.join("snap");
        let mut f = io.create(&tmp).unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        drop(f);
        io.rename(&tmp, &fin).unwrap();
        io.sync_dir(&dir).unwrap();
        // Reopened for append: the synced prefix is remembered, the new
        // bytes are not durable until synced.
        let mut f = io.open_append(&fin, 10).unwrap();
        f.append(b"abc").unwrap();
        drop(f);
        let mut never = io.create(&dir.join("never")).unwrap();
        never.append(b"xyz").unwrap();
        drop(never);
        assert_eq!(io.durable_bytes(), 10);
        assert_eq!(io.crash().unwrap(), 3 + 3);
        assert_eq!(std::fs::read(&fin).unwrap(), b"0123456789");
        assert_eq!(std::fs::read(dir.join("never")).unwrap(), b"");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_device_refuses_syncs_so_later_writes_stay_unsynced() {
        let dir = temp_dir("dead");
        let path = dir.join("log");
        let io = TrackingIo::new();
        let mut f = io.create(&path).unwrap();
        f.append(b"acked").unwrap();
        f.sync().unwrap();
        io.fail_syncs();
        f.append(b"never-acked").unwrap();
        assert!(f.sync().is_err());
        drop(f);
        io.crash().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"acked");
        std::fs::remove_dir_all(&dir).ok();
    }
}
