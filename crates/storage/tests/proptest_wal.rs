//! Property tests for the WAL crash-prefix contract: for an arbitrary
//! record sequence, *any* crash point — truncation at any byte offset of
//! either lane, independently, or any single-bit corruption — recovers
//! to exactly the longest gap-free LSN prefix. The epoch table is the
//! max-merge of that prefix, the water mark is its last LSN, everything
//! past it is truncated off both lanes, and no flip ever forges a record
//! the writer never logged or silently alters one it did.

use proptest::prelude::*;
use rox_index::IndexedStore;
use rox_storage::recovery::{WAL_LANES, WAL_LANE_FILES};
use rox_storage::wal::{
    encode_frame, scan_wal, scan_wal_bytes, wal_header_bytes, Lsn, WalRecord, WAL_HEADER,
};
use rox_storage::{recover, StdWalIo};
use rox_xmldb::Catalog;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh directory per proptest case (cases run concurrently).
fn case_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rox-prop-wal-{}-{tag}-{n}", std::process::id()))
}

const URIS: [&str; 3] = ["d.xml", "e.xml", "f.xml"];

/// Epoch-carrying records only: their replay needs no document bytes,
/// so every generated sequence is replayable over any snapshot — the
/// property stays about framing and the epoch merge, not content.
fn record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (0..3usize, 1..50u64).prop_map(|(u, e)| WalRecord::EpochBump {
            uri: URIS[u].to_string(),
            epoch: e,
        }),
        (0..3usize, 1..50u64).prop_map(|(u, e)| WalRecord::Checkpoint {
            epochs: vec![(URIS[u].to_string(), e)],
        }),
    ]
}

/// The WAL image for `records` at LSNs `1..=n`, plus each frame's end
/// offset (the valid crash points).
fn wal_image(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = wal_header_bytes().to_vec();
    let mut ends = Vec::new();
    for (i, r) in records.iter().enumerate() {
        bytes.extend_from_slice(&encode_frame(i as u64 + 1, r));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// Max-merge the epoch tables of `records`, the recovery rule.
fn merged_epochs<'a>(records: impl IntoIterator<Item = &'a WalRecord>) -> Vec<(String, u64)> {
    let mut table: HashMap<String, u64> = HashMap::new();
    let mut bump = |uri: &str, epoch: u64| {
        let slot = table.entry(uri.to_string()).or_insert(0);
        *slot = (*slot).max(epoch);
    };
    for r in records {
        match r {
            WalRecord::Checkpoint { epochs } => {
                for (u, e) in epochs {
                    bump(u, *e);
                }
            }
            WalRecord::EpochBump { uri, epoch } => bump(uri, *epoch),
            _ => unreachable!("strategy emits only epoch records"),
        }
    }
    let mut table: Vec<(String, u64)> = table.into_iter().collect();
    table.sort();
    table
}

/// A fresh durable directory holding a one-document snapshot.
fn durable_dir(tag: &str) -> PathBuf {
    let dir = case_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = Arc::new(Catalog::new());
    catalog
        .load_str("d.xml", "<site><auction><bidder/></auction></site>")
        .unwrap();
    let store = IndexedStore::new(Arc::clone(&catalog));
    rox_storage::Snapshot::save(&dir.join("snapshot.rox"), &store).unwrap();
    dir
}

/// Every lane's records after recovery, each lane scanned clean.
fn rescan(dir: &std::path::Path) -> Vec<Vec<(Lsn, WalRecord)>> {
    WAL_LANE_FILES
        .iter()
        .map(|name| {
            let scan = scan_wal(&dir.join(name)).unwrap();
            let valid_len = scan.ends.last().copied().unwrap_or(WAL_HEADER as u64);
            assert_eq!(valid_len, scan.file_len, "{name} left torn");
            scan.records
        })
        .collect()
}

/// The epoch-bump a recovered log must take right after its prefix.
fn next_bump() -> WalRecord {
    WalRecord::EpochBump {
        uri: "d.xml".to_string(),
        epoch: 99,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Crash-point completeness for a directory written before the log
    /// had lanes: truncate its one log file at *any* byte and `recover`
    /// either rejects a torn header or returns exactly the longest intact
    /// prefix — consistent epochs, the prefix's LSN as the water mark, the
    /// tail truncated — creates the missing lane 1 header-only, and takes
    /// the next append right after the prefix, on the lane its parity
    /// names.
    #[test]
    fn any_crash_point_truncation_recovers_the_intact_prefix(
        records in prop::collection::vec(record_strategy(), 0..10),
        cut_sel in 0..100_000u32,
    ) {
        let dir = durable_dir("cut");
        let (bytes, ends) = wal_image(&records);
        let cut = cut_sel as usize % (bytes.len() + 1);
        std::fs::write(dir.join("wal.rox"), &bytes[..cut]).unwrap();

        let result = recover(&dir, &StdWalIo);
        if cut < WAL_HEADER {
            prop_assert!(result.is_err(), "a torn header is not a WAL");
            std::fs::remove_dir_all(&dir).ok();
            return Ok(());
        }
        let state = result.unwrap();
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        let valid_end = if intact == 0 { WAL_HEADER } else { ends[intact - 1] };
        prop_assert_eq!(state.report.snapshot_docs, 1);
        prop_assert_eq!(state.report.wal_records, intact);
        prop_assert_eq!(state.report.last_lsn, intact as u64);
        prop_assert_eq!(state.report.torn_tail_bytes, (cut - valid_end) as u64);
        prop_assert_eq!(
            state.report.replayed,
            records[..intact]
                .iter()
                .filter(|r| matches!(r, WalRecord::EpochBump { .. }))
                .count()
        );
        prop_assert_eq!(&state.epochs, &merged_epochs(&records[..intact]));

        // The torn tail is gone from disk and the log extends cleanly.
        let lsn = state.wal.append(&next_bump()).unwrap();
        prop_assert_eq!(lsn, intact as u64 + 1);
        state.wal.commit(lsn).unwrap();
        drop(state);
        let mut want: Vec<Vec<(Lsn, WalRecord)>> = vec![
            (1..).zip(records[..intact].iter().cloned()).collect(),
            Vec::new(),
        ];
        want[lsn as usize % WAL_LANES].push((lsn, next_bump()));
        prop_assert_eq!(rescan(&dir), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash-point completeness over two lanes: a generation as the log
    /// writes it (the checkpoint at LSN 1 on lane 0, then records on
    /// either lane), each lane cut at an independent byte. `recover`
    /// returns exactly the longest gap-free LSN run from the checkpoint,
    /// counts the bytes it cut off both lanes, truncates each lane after
    /// its last kept record, and takes the next append at water mark + 1.
    #[test]
    fn independent_crash_points_on_two_lanes_recover_the_gap_free_prefix(
        records in prop::collection::vec((record_strategy(), 0..WAL_LANES), 0..12),
        cut_sels in (0..100_000u32, 0..100_000u32),
    ) {
        let dir = durable_dir("lanes");
        let checkpoint = WalRecord::Checkpoint {
            epochs: vec![("e.xml".to_string(), 2)],
        };
        // Per lane: its image and, per record, (LSN, record, frame end).
        let mut images: Vec<Vec<u8>> = vec![wal_header_bytes().to_vec(); WAL_LANES];
        let mut frames: Vec<Vec<(Lsn, &WalRecord, usize)>> = vec![Vec::new(); WAL_LANES];
        let generation =
            std::iter::once((&checkpoint, 0)).chain(records.iter().map(|(r, l)| (r, *l)));
        for (lsn, (record, lane)) in (1..).zip(generation) {
            images[lane].extend_from_slice(&encode_frame(lsn, record));
            frames[lane].push((lsn, record, images[lane].len()));
        }
        // Headers are published whole; any cut past them is a crash point.
        let cuts = [cut_sels.0, cut_sels.1]
            .iter()
            .zip(&images)
            .map(|(&sel, image)| WAL_HEADER + sel as usize % (image.len() - WAL_HEADER + 1))
            .collect::<Vec<_>>();
        for ((name, image), &cut) in WAL_LANE_FILES.iter().zip(&images).zip(&cuts) {
            std::fs::write(dir.join(name), &image[..cut]).unwrap();
        }

        // The model: the surviving LSNs, and the run 1..=water from them.
        let survives = |lsn: Lsn| {
            (0..WAL_LANES).any(|l| {
                frames[l].iter().any(|&(x, _, end)| x == lsn && end <= cuts[l])
            })
        };
        let water = (1..).take_while(|&lsn| survives(lsn)).count() as u64;
        let kept: Vec<Vec<(Lsn, WalRecord)>> = frames
            .iter()
            .map(|lane| {
                lane.iter()
                    .filter(|f| f.0 <= water)
                    .map(|&(x, r, _)| (x, r.clone()))
                    .collect()
            })
            .collect();
        let torn: usize = (0..WAL_LANES)
            .map(|l| {
                let keep_len = frames[l].iter().rev().find(|f| f.0 <= water).map(|f| f.2);
                cuts[l] - keep_len.unwrap_or(WAL_HEADER)
            })
            .sum();
        let mut replayed: Vec<(Lsn, &WalRecord)> =
            kept.iter().flatten().map(|(lsn, r)| (*lsn, r)).collect();
        replayed.sort_by_key(|(lsn, _)| *lsn);

        let state = recover(&dir, &StdWalIo).unwrap();
        prop_assert_eq!(state.report.last_lsn, water);
        prop_assert_eq!(state.report.wal_records, water as usize);
        prop_assert_eq!(state.report.torn_tail_bytes, torn as u64);
        prop_assert_eq!(
            state.report.replayed,
            replayed
                .iter()
                .filter(|(_, r)| matches!(r, WalRecord::EpochBump { .. }))
                .count()
        );
        prop_assert_eq!(&state.epochs, &merged_epochs(replayed.iter().map(|(_, r)| *r)));

        let lsn = state.wal.append(&next_bump()).unwrap();
        prop_assert_eq!(lsn, water + 1);
        state.wal.commit(lsn).unwrap();
        drop(state);
        let mut want = kept;
        want[lsn as usize % WAL_LANES].push((lsn, next_bump()));
        prop_assert_eq!(rescan(&dir), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption containment at the scan level: flip any single bit
    /// anywhere in the image and the scan either rejects the header
    /// (flip in magic/version), ignores it (flip in the reserved
    /// header bytes), or stops exactly at the flipped frame — every
    /// record before it survives bit-identical, and the flip never
    /// forges a record past it.
    #[test]
    fn single_bit_corruption_never_forges_or_alters_records(
        records in prop::collection::vec(record_strategy(), 1..10),
        flip_sel in 0..100_000u32,
        flip_bit in 0..8u32,
    ) {
        let (mut bytes, ends) = wal_image(&records);
        let flip = flip_sel as usize % bytes.len();
        bytes[flip] ^= 1 << flip_bit;

        match scan_wal_bytes(&bytes) {
            Err(_) => prop_assert!(
                flip < 12,
                "only magic/version corruption may reject the log (flip at {flip})"
            ),
            Ok(scan) => {
                // The reserved header bytes are opaque; past the header,
                // the flip lands in exactly one frame and kills it plus
                // everything after (the scan never resynchronizes).
                let survivors = if flip < WAL_HEADER {
                    prop_assert!((12..WAL_HEADER).contains(&flip));
                    records.len()
                } else {
                    ends.iter().filter(|&&e| e <= flip).count()
                };
                prop_assert_eq!(scan.records.len(), survivors);
                for (i, (lsn, record)) in scan.records.iter().enumerate() {
                    prop_assert_eq!(*lsn, i as u64 + 1);
                    prop_assert_eq!(record, &records[i]);
                }
                let want_ends: Vec<u64> = ends[..survivors].iter().map(|&e| e as u64).collect();
                prop_assert_eq!(scan.ends, want_ends);
                prop_assert_eq!(scan.file_len, bytes.len() as u64);
            }
        }
    }
}
