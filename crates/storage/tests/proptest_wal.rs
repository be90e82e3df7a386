//! Property tests for the WAL crash-prefix contract: for an arbitrary
//! record sequence, *any* crash point — truncation at any byte offset,
//! or any single-bit corruption — recovers to exactly the longest
//! intact prefix. The epoch table is the max-merge of that prefix, the
//! water mark is its last LSN, the torn tail is truncated, and no flip
//! ever forges a record the writer never logged or silently alters one
//! it did.

use proptest::prelude::*;
use rox_index::IndexedStore;
use rox_storage::wal::{encode_frame, scan_wal_bytes, wal_header_bytes, WalRecord, WAL_HEADER};
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
fn merged_epochs(records: &[WalRecord]) -> Vec<(String, u64)> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Crash-point completeness at the recovery level: truncate the log
    /// at *any* byte and `recover` either rejects a torn header or
    /// returns exactly the longest intact prefix — consistent epochs,
    /// the prefix's LSN as the water mark, the tail truncated — and the
    /// recovered log accepts new appends right after the prefix.
    #[test]
    fn any_crash_point_truncation_recovers_the_intact_prefix(
        records in prop::collection::vec(record_strategy(), 0..10),
        cut_sel in 0..100_000u32,
    ) {
        let dir = case_dir("cut");
        std::fs::create_dir_all(&dir).unwrap();
        let catalog = Arc::new(Catalog::new());
        catalog
            .load_str("d.xml", "<site><auction><bidder/></auction></site>")
            .unwrap();
        let store = IndexedStore::new(Arc::clone(&catalog));
        rox_storage::Snapshot::save(&dir.join("snapshot.rox"), &store).unwrap();

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
        let bump = WalRecord::EpochBump { uri: "d.xml".to_string(), epoch: 99 };
        let lsn = state.wal.append(&bump).unwrap();
        prop_assert_eq!(lsn, intact as u64 + 1);
        state.wal.commit(lsn).unwrap();
        drop(state);
        let rescan = rox_storage::wal::scan_wal(&dir.join("wal.rox")).unwrap();
        prop_assert_eq!(rescan.records.len(), intact + 1);
        prop_assert_eq!(rescan.torn_tail_bytes(), 0);
        prop_assert_eq!(rescan.records.last().unwrap(), &(lsn, bump));
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
                let valid_end = if survivors == 0 { WAL_HEADER } else { ends[survivors - 1] };
                prop_assert_eq!(scan.valid_len, valid_end as u64);
            }
        }
    }
}
