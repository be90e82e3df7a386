//! Property tests for the snapshot format: arbitrary catalogs must
//! round-trip bit-identically through save → open (documents, interner
//! symbols, and index segments — the latter pinned by re-saving the
//! decoded store and comparing files byte-for-byte), reading each segment
//! exactly once; and any truncation or extension of the file must fail
//! the open. (Single-byte corruption is pinned over every byte in
//! `snapshot.rs`'s `corruption_is_caught_or_harmless`.)

use proptest::prelude::*;
use rox_index::IndexedStore;
use rox_storage::{Snapshot, StorageError};
use rox_xmldb::Catalog;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh path per proptest case (cases run concurrently per-thread).
fn case_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rox-prop-snap-{}-{tag}-{n}.rox",
        std::process::id()
    ))
}

/// A flat document model: element names, attributes, and text/numeric
/// values drawn from small pools (symbol reuse) plus unique spills
/// (symbol growth). Rendered to XML and loaded through the parser so the
/// catalog owns the symbols, exactly like production ingest.
#[derive(Debug, Clone)]
struct DocModel {
    items: Vec<Item>,
}

#[derive(Debug, Clone)]
enum Item {
    /// `<name attr="av">text</name>`
    Leaf {
        name: String,
        attr: Option<(String, String)>,
        text: String,
    },
    /// `<name/>` — no text child at all.
    Empty { name: String },
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(vec!["item", "bid", "seller", "b"]).prop_map(str::to_string),
        "[a-z]{1,6}",
    ]
}

fn value_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        // Numeric-looking values exercise the numeric run encoder.
        (0u32..10_000).prop_map(|n| n.to_string()),
        (0u32..500, 0u32..100).prop_map(|(a, b)| format!("{a}.{b}")),
        "[a-zA-Z0-9 ]{1,10}".prop_filter("non-blank", |s| !s.trim().is_empty()),
    ]
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        (
            name_strategy(),
            "[a-z]{1,4}",
            value_strategy(),
            value_strategy()
        )
            .prop_map(|(name, an, av, text)| Item::Leaf {
                name,
                attr: Some((an, av)),
                text,
            }),
        (name_strategy(), value_strategy()).prop_map(|(name, text)| Item::Leaf {
            name,
            attr: None,
            text,
        }),
        name_strategy().prop_map(|name| Item::Empty { name }),
    ]
}

fn doc_strategy() -> impl Strategy<Value = DocModel> {
    prop::collection::vec(item_strategy(), 0..24).prop_map(|items| DocModel { items })
}

fn render(doc: &DocModel) -> String {
    let mut xml = String::from("<root>");
    for item in &doc.items {
        match item {
            Item::Leaf { name, attr, text } => {
                xml.push('<');
                xml.push_str(name);
                if let Some((an, av)) = attr {
                    xml.push_str(&format!(" {an}=\"{av}\""));
                }
                xml.push_str(&format!(">{text}</{name}>"));
            }
            Item::Empty { name } => xml.push_str(&format!("<{name}/>")),
        }
    }
    xml.push_str("</root>");
    xml
}

fn build_catalog(docs: &[DocModel]) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    for (i, doc) in docs.iter().enumerate() {
        catalog
            .load_str(&format!("doc-{i}.xml"), &render(doc))
            .unwrap();
    }
    catalog
}

/// Assert every column of every document (and the symbol heap) matches.
fn assert_catalogs_bit_identical(a: &Catalog, b: &Catalog, source: &rox_storage::SnapshotSource) {
    assert_eq!(a.len(), b.len());
    assert_eq!(
        a.interner().dump(),
        b.interner().dump(),
        "symbol heaps differ"
    );
    for id in a.doc_ids() {
        let expect = a.doc(id);
        let got = source
            .try_document(id)
            .expect("decode document")
            .expect("document present");
        assert_eq!(expect.uri(), got.uri());
        let (ce, cg) = (expect.columns(), got.columns());
        assert_eq!(ce.size, cg.size, "size column, doc {id:?}");
        assert_eq!(ce.level, cg.level, "level column, doc {id:?}");
        assert_eq!(ce.parent, cg.parent, "parent column, doc {id:?}");
        assert_eq!(ce.kind, cg.kind, "kind column, doc {id:?}");
        assert_eq!(ce.name, cg.name, "name column, doc {id:?}");
        assert_eq!(ce.value, cg.value, "value column, doc {id:?}");
        got.check_invariants().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// save → open → save is a fixed point: the second file is
    /// byte-for-byte the first. Because the second save re-encodes the
    /// *decoded* documents, symbols and indexes, equality proves every
    /// segment round-trips bit-identically.
    #[test]
    fn save_open_save_is_byte_identical(
        docs in prop::collection::vec(doc_strategy(), 1..4),
    ) {
        let (p1, p2) = (case_path("a"), case_path("b"));
        let catalog = build_catalog(&docs);
        let store = IndexedStore::new(Arc::clone(&catalog));
        // Force index builds so the first file has real index segments.
        for id in catalog.doc_ids() {
            store.indexes(id);
        }
        Snapshot::save(&p1, &store).unwrap();

        let (reopened, source) = Snapshot::open(&p1, None).unwrap();
        assert_catalogs_bit_identical(&catalog, &reopened, &source);
        let store2 = IndexedStore::with_source(
            Arc::clone(&reopened),
            Arc::clone(&source) as Arc<dyn rox_index::DocSource>,
        );
        for id in reopened.doc_ids() {
            store2.doc(id);
            store2.indexes(id);
        }
        prop_assert_eq!(store2.build_count(), 0, "reopen rebuilt indexes");
        Snapshot::save(&p2, &store2).unwrap();

        let (b1, b2) = (std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        prop_assert_eq!(b1, b2, "resave diverged from the original file");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    /// A full decode yields the same bits and reads every segment exactly
    /// once: the open reads the symbol heap and the directory, each
    /// document and index set one more segment apiece.
    #[test]
    fn full_decode_reads_each_segment_once(
        docs in prop::collection::vec(doc_strategy(), 1..4),
    ) {
        let path = case_path("once");
        let catalog = build_catalog(&docs);
        let store = IndexedStore::new(Arc::clone(&catalog));
        let report = Snapshot::save(&path, &store).unwrap();
        let (reopened, source) = Snapshot::open(&path, None).unwrap();
        prop_assert_eq!(source.pool_stats().misses, 2);
        assert_catalogs_bit_identical(&catalog, &reopened, &source);
        for id in reopened.doc_ids() {
            prop_assert!(source.try_indexes(id).unwrap().is_some());
        }
        prop_assert_eq!(source.pool_stats().misses, u64::from(report.pages));
        std::fs::remove_file(&path).ok();
    }

    /// The header records the file's length: every strict prefix of the
    /// file, and the file plus one appended byte, fail at open with a
    /// format error, before any segment is read.
    #[test]
    fn truncation_is_a_clean_error(
        docs in prop::collection::vec(doc_strategy(), 1..3),
    ) {
        let path = case_path("trunc");
        let catalog = build_catalog(&docs);
        let store = IndexedStore::new(Arc::clone(&catalog));
        let mut image = Snapshot::encode_image(&store).0;
        image.push(0);
        std::fs::write(&path, &image).unwrap();
        let rejected = || matches!(Snapshot::open(&path, None), Err(StorageError::Format(_)));
        prop_assert!(rejected(), "appended byte");
        // Cut the file down one byte at a time, in place.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for keep in (0..image.len() - 1).rev() {
            file.set_len(keep as u64).unwrap();
            prop_assert!(rejected(), "prefix of {} bytes", keep);
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The two edge shapes the format must pin down exactly: a minimal
/// document (root element only) and a symbol-dense document whose names
/// and values are all distinct (the interner's upper reaches).
#[test]
fn minimal_and_symbol_dense_documents_roundtrip() {
    let path = case_path("edge");
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("min.xml", "<a/>").unwrap();
    let mut dense = String::from("<root>");
    for i in 0..400 {
        dense.push_str(&format!("<n{i} a{i}=\"v{i}\">t{i}</n{i}>"));
    }
    dense.push_str("</root>");
    catalog.load_str("dense.xml", &dense).unwrap();

    let store = IndexedStore::new(Arc::clone(&catalog));
    Snapshot::save(&path, &store).unwrap();
    let (reopened, source) = Snapshot::open(&path, None).unwrap();
    assert_catalogs_bit_identical(&catalog, &reopened, &source);
    for id in reopened.doc_ids() {
        assert!(source.try_indexes(id).unwrap().is_some());
    }
    std::fs::remove_file(&path).ok();
}
