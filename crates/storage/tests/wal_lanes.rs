//! A forced interleaving of two durable writers over the log's two
//! lanes, with no sleeps: writer A's lane-0 fsync is parked on a channel
//! while writer B appends and commits. B's record must land on lane 1,
//! B's fsync must run while A's is still in flight, and B's commit must
//! not return before A's sync completes — the prefix rule: an ack means
//! every LSN up to it is durable, in both lanes. A third append, whose
//! parity names the lane A is still syncing, must take the other lane
//! instead of waiting.

use rox_index::IndexedStore;
use rox_storage::recovery::WAL_LANE_FILES;
use rox_storage::wal::{scan_wal, Lsn, WalFile, WalRecord};
use rox_storage::{recover, StdWalIo, WalIo};
use rox_xmldb::Catalog;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Long enough to mean "never" for a step that takes microseconds.
const NEVER: Duration = Duration::from_secs(20);

/// What the parking I/O layer shares with the test.
struct Gate {
    armed: AtomicBool,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
    /// Lane 0's sync reports here that it has parked...
    parked: Mutex<Sender<()>>,
    /// ...and waits here to be released.
    release: Mutex<Receiver<()>>,
    /// Every armed sync reports its lane here once it finished.
    synced: Mutex<Sender<usize>>,
}

/// Real files underneath; once armed, every lane sync is counted while
/// in flight, and lane 0's parks until released.
struct ParkingIo(Arc<Gate>);

struct ParkingFile {
    inner: Box<dyn WalFile>,
    lane: Option<usize>,
    gate: Arc<Gate>,
}

impl WalFile for ParkingFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let gate = &self.gate;
        let Some(lane) = self.lane.filter(|_| gate.armed.load(Ordering::SeqCst)) else {
            return self.inner.sync();
        };
        let now = gate.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        gate.max_in_flight.fetch_max(now, Ordering::SeqCst);
        if lane == 0 {
            gate.parked.lock().unwrap().send(()).unwrap();
            gate.release.lock().unwrap().recv_timeout(NEVER).unwrap();
        }
        let synced = self.inner.sync();
        gate.in_flight.fetch_sub(1, Ordering::SeqCst);
        gate.synced.lock().unwrap().send(lane).unwrap();
        synced
    }
}

impl ParkingIo {
    fn wrap(&self, path: &Path, inner: Box<dyn WalFile>) -> Box<dyn WalFile> {
        let lane = WAL_LANE_FILES
            .iter()
            .position(|name| path.file_name() == Some(name.as_ref()));
        Box::new(ParkingFile {
            inner,
            lane,
            gate: Arc::clone(&self.0),
        })
    }
}

impl WalIo for ParkingIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn WalFile>> {
        Ok(self.wrap(path, StdWalIo.create(path)?))
    }
    fn open_append(&self, path: &Path, len: u64) -> std::io::Result<Box<dyn WalFile>> {
        Ok(self.wrap(path, StdWalIo.open_append(path, len)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdWalIo.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        StdWalIo.sync_dir(dir)
    }
}

fn bump(epoch: u64) -> WalRecord {
    WalRecord::EpochBump {
        uri: "d.xml".to_string(),
        epoch,
    }
}

#[test]
fn second_writer_syncs_its_lane_while_the_first_is_mid_sync_and_acks_after_it() {
    let dir = std::env::temp_dir().join(format!("rox-wal-lanes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", "<site/>").unwrap();
    rox_storage::Snapshot::save(&dir.join("snapshot.rox"), &IndexedStore::new(catalog)).unwrap();

    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel();
    let (synced_tx, synced_rx) = channel();
    let gate = Arc::new(Gate {
        armed: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        max_in_flight: AtomicUsize::new(0),
        parked: Mutex::new(parked_tx),
        release: Mutex::new(release_rx),
        synced: Mutex::new(synced_tx),
    });
    // No log yet: recovery publishes a fresh generation, checkpoint at
    // LSN 1, so the next LSN (2) is lane 0's by parity.
    let wal = recover(&dir, &ParkingIo(Arc::clone(&gate))).unwrap().wal;
    assert_eq!(wal.last_lsn(), 1);
    gate.armed.store(true, Ordering::SeqCst);
    let released = AtomicBool::new(false);

    std::thread::scope(|s| {
        let a = s.spawn(|| {
            let lsn = wal.append(&bump(1)).unwrap();
            (lsn, wal.commit(lsn).unwrap())
        });
        parked_rx
            .recv_timeout(NEVER)
            .expect("A parks in its lane-0 sync");

        // B's append must not queue behind A's sync, and its own sync must
        // run while A's is in flight.
        let b = s.spawn(|| {
            let lsn = wal.append(&bump(2)).unwrap();
            let durable = wal.commit(lsn).unwrap();
            (lsn, durable, released.load(Ordering::SeqCst))
        });
        assert_eq!(
            synced_rx.recv_timeout(NEVER),
            Ok(1),
            "B's lane-1 sync completes while A is parked"
        );
        assert_eq!(gate.max_in_flight.load(Ordering::SeqCst), 2);
        for _ in 0..1_000 {
            std::thread::yield_now();
            assert!(!b.is_finished(), "B acked before A's LSN was durable");
        }
        // LSN 4's parity lane is mid-sync under A: C's append takes lane 1.
        let (appended_tx, appended_rx) = channel();
        let c_wal = &wal;
        s.spawn(move || appended_tx.send(c_wal.append(&bump(3)).unwrap()).unwrap());
        assert_eq!(
            appended_rx.recv_timeout(NEVER),
            Ok(4),
            "C's append queued behind A's sync"
        );
        released.store(true, Ordering::SeqCst);
        release_tx.send(()).unwrap();

        let (a_lsn, a_durable) = a.join().unwrap();
        let (b_lsn, b_durable, b_after_release) = b.join().unwrap();
        assert_eq!((a_lsn, b_lsn), (2, 3));
        assert!(a_durable >= 2);
        assert_eq!(b_durable, 3);
        assert!(b_after_release, "B's ack preceded A's sync");
    });

    let stats = wal.stats();
    assert_eq!(stats.fsyncs, 2, "{stats:?}");
    assert_eq!(stats.commits, 2, "{stats:?}");
    assert_eq!(stats.durable_lsn, 3, "{stats:?}");
    assert_eq!(wal.commit(4).unwrap(), 4);
    drop(wal);
    let lanes: Vec<Vec<Lsn>> = WAL_LANE_FILES
        .iter()
        .map(|name| {
            let scan = scan_wal(&dir.join(name)).unwrap();
            scan.records.iter().map(|(lsn, _)| *lsn).collect()
        })
        .collect();
    assert_eq!(lanes, vec![vec![1, 2], vec![3, 4]]);
    std::fs::remove_dir_all(&dir).ok();
}
