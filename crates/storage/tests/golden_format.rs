//! Format-stability guard: the committed golden snapshot must stay
//! byte-identical to what the current code writes for a fixed corpus, and
//! must stay readable. Any intentional on-disk format change must bump
//! [`SNAPSHOT_VERSION`] and regenerate the fixture:
//!
//! ```text
//! REGENERATE_GOLDEN=1 cargo test -p rox-storage --test golden_format
//! ```

use rox_index::IndexedStore;
use rox_storage::{Snapshot, SNAPSHOT_VERSION};
use rox_xmldb::Catalog;
use std::path::PathBuf;
use std::sync::Arc;

/// A fixed two-document corpus touching every segment kind: elements,
/// attributes, text, numeric values (incl. a fractional one), repeated
/// and unique symbols. Never change these strings — they define the
/// golden file.
const AUCTIONS: &str = r#"<site><open_auction id="a1"><bidder><increase>12</increase></bidder><bidder><increase>30.5</increase></bidder><current>150</current></open_auction><open_auction id="a2"><current>40</current></open_auction></site>"#;
const PEOPLE: &str = r#"<people><person name="alice"><city>utrecht</city></person><person name="bob"><city>amsterdam</city></person></people>"#;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("corpus-v{SNAPSHOT_VERSION}.snap"))
}

fn golden_store() -> (Arc<Catalog>, IndexedStore) {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("auctions.xml", AUCTIONS).unwrap();
    catalog.load_str("people.xml", PEOPLE).unwrap();
    let store = IndexedStore::new(Arc::clone(&catalog));
    for id in catalog.doc_ids() {
        store.indexes(id); // golden file carries real index segments
    }
    (catalog, store)
}

#[test]
fn current_code_writes_the_committed_golden_bytes() {
    let (_, store) = golden_store();
    let tmp = std::env::temp_dir().join(format!("rox-golden-{}.snap", std::process::id()));
    Snapshot::save(&tmp, &store).unwrap();
    let written = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).ok();

    let path = golden_path();
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        std::fs::write(&path, &written).unwrap();
        return;
    }
    let committed = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert!(
        written == committed,
        "snapshot format drifted from the committed golden file ({} vs {} bytes).\n\
         If the change is intentional, bump SNAPSHOT_VERSION and run\n\
         REGENERATE_GOLDEN=1 cargo test -p rox-storage --test golden_format",
        written.len(),
        committed.len()
    );
}

/// The v1 and v2 fixtures are kept committed precisely so this guard can
/// prove old-format files are *rejected with a version message*, never
/// silently misread as the current format.
#[test]
fn previous_format_version_is_rejected_clearly() {
    for old in 1..SNAPSHOT_VERSION {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/golden/corpus-v{old}.snap"));
        let msg = match Snapshot::open(&path, None) {
            Ok(_) => panic!("v{old} fixture must not open"),
            Err(e) => e.to_string(),
        };
        assert!(
            msg.contains(&format!("unsupported snapshot version {old}"))
                && msg.contains(&format!("expected {SNAPSHOT_VERSION}")),
            "unclear version-mismatch error: {msg}"
        );
    }
}

#[test]
fn committed_golden_file_stays_readable() {
    let (expected, _) = golden_store();
    let (catalog, source) = Snapshot::open(&golden_path(), None).unwrap();
    assert_eq!(catalog.len(), 2);
    assert_eq!(catalog.interner().dump(), expected.interner().dump());
    for id in catalog.doc_ids() {
        let got = source
            .try_document(id)
            .unwrap()
            .expect("doc in golden file");
        let want = expected.doc(id);
        assert_eq!(got.uri(), want.uri());
        let (cg, cw) = (got.columns(), want.columns());
        assert_eq!(cg.size, cw.size);
        assert_eq!(cg.level, cw.level);
        assert_eq!(cg.parent, cw.parent);
        assert_eq!(cg.kind, cw.kind);
        assert_eq!(cg.name, cw.name);
        assert_eq!(cg.value, cw.value);
        assert!(
            source.try_indexes(id).unwrap().is_some(),
            "golden index segment must decode"
        );
    }
}
