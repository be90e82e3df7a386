//! Logs written by earlier engines still recover. Nothing writes a
//! `document-reindex` record (WAL kind 4) any more — every content change
//! is an invalidation — but a directory whose log holds them, appended and
//! committed the way the engine used to, must replay them: the content
//! is installed, the epoch stays where it was, the snapshot's stored
//! segments for the document become unservable, and each record counts
//! as replayed.

use rox_index::IndexedStore;
use rox_storage::wal::DocPut;
use rox_storage::{recover, write_checkpoint, StdWalIo, Wal, WalRecord};
use rox_xmldb::{serialize_document, Catalog};
use std::sync::Arc;

const V1: &str =
    r#"<site><open_auction><bidder><increase>12</increase></bidder></open_auction></site>"#;
const V2: &str = r#"<site><closed_auction><price>40</price></closed_auction></site>"#;
const V3: &str =
    r#"<site><closed_auction><price>41</price><buyer person="p7"/></closed_auction></site>"#;

#[test]
fn doc_reindex_records_replay_without_moving_the_epoch() {
    let dir = std::env::temp_dir().join(format!("rox-legacy-reindex-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // A durable directory whose snapshot carries the document's index
    // segments, at epoch 2.
    let catalog = Arc::new(Catalog::new());
    let id = catalog.load_str("d.xml", V1).unwrap();
    let store = IndexedStore::new(Arc::clone(&catalog));
    store.indexes(id);
    let mut symbols_logged = catalog.interner().len();
    let epochs = vec![("d.xml".to_string(), 2)];
    let out = write_checkpoint(&dir, &store, epochs.clone(), 1, &StdWalIo, None).unwrap();
    let wal = Wal::open_lanes(out.wal_files, 1, 1, out.wal_bytes);

    // Two reloads, each logged as a reindex with its interner delta.
    for xml in [V2, V3] {
        catalog.load_str("d.xml", xml).unwrap();
        let doc = catalog.doc_by_uri("d.xml").unwrap();
        let new_symbols = catalog.interner().dump_from(symbols_logged);
        let put = DocPut::from_document(&doc, symbols_logged as u32, new_symbols);
        symbols_logged = catalog.interner().len();
        let record = WalRecord::DocReindex {
            uri: "d.xml".to_string(),
            put,
        };
        let lsn = wal.append(&record).unwrap();
        wal.commit(lsn).unwrap();
    }
    drop(wal);

    let state = recover(&dir, &StdWalIo).unwrap();
    assert_eq!(state.report.replayed, 2);
    assert_eq!(state.report.last_lsn, 3);
    assert_eq!(state.epochs, epochs, "a reindex never moves the epoch");
    assert_eq!(state.source.stale_count(), 1);
    let id = state.catalog.resolve("d.xml").unwrap();
    assert!(state.source.try_indexes(id).unwrap().is_none());
    let doc = state.catalog.doc_by_uri("d.xml").unwrap();
    assert_eq!(serialize_document(&doc), V3);
    std::fs::remove_dir_all(&dir).ok();
}
