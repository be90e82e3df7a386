//! [`IndexedStore`]: a catalog whose documents carry their element and
//! value indices — the complete "execution environment" of the paper
//! (storage + structural/value indices) that ROX's run-time optimizer
//! probes.
//!
//! The store is built to be shared across concurrent queries: index
//! lookups take a read lock only, and a first-touch build runs inside a
//! per-document [`OnceLock`] cell, so two queries racing to index
//! *different* documents build concurrently while racers on the *same*
//! document build it exactly once.

use crate::element::ElementIndex;
use crate::value::ValueIndex;
use rox_xmldb::{Catalog, DocId, Document};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Both indices of one document.
pub struct DocIndexes {
    /// The element (qname) index.
    pub element: ElementIndex,
    /// The text/attribute value index.
    pub value: ValueIndex,
}

impl DocIndexes {
    /// Build both indices for `doc`.
    pub fn build(doc: &Document) -> Self {
        DocIndexes {
            element: ElementIndex::build(doc),
            value: ValueIndex::build(doc),
        }
    }
}

/// A backing source that can fault documents and prebuilt indices into
/// the store on first touch — implemented by the snapshot storage layer
/// (`rox-storage`), which reads and decodes one checksummed segment per
/// touch.
///
/// Defined here (not in the storage crate) so [`IndexedStore`] can fault
/// through it without `rox-index` depending on `rox-storage`: the storage
/// crate depends on this crate and implements the trait.
pub trait DocSource: Send + Sync {
    /// Decode the document `id` from storage, or `None` when the source
    /// has no content for it (e.g. the id postdates the snapshot).
    fn document(&self, id: DocId) -> Option<Arc<Document>>;

    /// Decode the prebuilt indices for `id`, or `None` to make the store
    /// build them from the resident document instead. Must return `None`
    /// after [`DocSource::mark_stale`]`(id)` — a snapshot must never serve
    /// an index for a document epoch it no longer matches.
    fn indexes(&self, id: DocId) -> Option<Arc<DocIndexes>>;

    /// Note that the live document `id` has diverged from the stored one
    /// (reload/invalidate): stored *index* segments for it are dead. The
    /// stored document segment stays decodable — it is only used while no
    /// newer resident copy exists, and an invalidation always leaves one.
    fn mark_stale(&self, id: DocId);
}

/// A document catalog plus lazily built per-document indices.
pub struct IndexedStore {
    catalog: Arc<Catalog>,
    /// Faults documents/indices in from persistent storage on first touch;
    /// `None` for a purely in-memory store (everything parsed/built live).
    source: Option<Arc<dyn DocSource>>,
    /// doc → once-cell holding its built indices. The outer map is only
    /// ever locked to fetch/insert a (cheap) cell; the expensive
    /// [`DocIndexes::build`] happens inside the cell, outside both locks'
    /// critical paths for other documents.
    indexes: RwLock<HashMap<DocId, Arc<OnceLock<Arc<DocIndexes>>>>>,
    /// How many times [`DocIndexes::build`] ran — the "warm queries do
    /// zero redundant index work" observable the engine tests assert on.
    builds: AtomicUsize,
    /// How many documents/index sets were decoded from the [`DocSource`]
    /// instead of being parsed/built — the cold-start observable of the
    /// storage benchmark.
    loads: AtomicUsize,
}

impl IndexedStore {
    /// Wrap an existing catalog.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        IndexedStore {
            catalog,
            source: None,
            indexes: RwLock::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            loads: AtomicUsize::new(0),
        }
    }

    /// Wrap a catalog backed by a persistent source: non-resident
    /// documents and unbuilt indices are faulted in through `source`
    /// on first touch instead of panicking/building.
    pub fn with_source(catalog: Arc<Catalog>, source: Arc<dyn DocSource>) -> Self {
        IndexedStore {
            catalog,
            source: Some(source),
            indexes: RwLock::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            loads: AtomicUsize::new(0),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The backing source, when this store faults from persistent storage.
    pub fn source(&self) -> Option<&Arc<dyn DocSource>> {
        self.source.as_ref()
    }

    /// The document with id `id`, faulting it in from the backing source
    /// when it is not resident. Under a first-touch race the catalog's
    /// first [`Catalog::fill`] wins and every racer gets the winner.
    ///
    /// # Panics
    /// Panics when the document is neither resident nor available from a
    /// source — same contract as [`Catalog::doc`].
    pub fn doc(&self, id: DocId) -> Arc<Document> {
        if let Some(doc) = self.catalog.get(id) {
            return doc;
        }
        if let Some(source) = &self.source {
            if let Some(doc) = source.document(id) {
                self.loads.fetch_add(1, Ordering::Relaxed);
                return self.catalog.fill(id, doc);
            }
        }
        panic!("document {id:?} is not resident and has no backing source")
    }

    /// The indices of document `id`, building them on first access.
    ///
    /// Warm calls take the read lock only. A cold call inserts an empty
    /// per-document cell under the write lock (cheap) and then builds
    /// inside the cell — so concurrent first touches of *different*
    /// documents index in parallel, and concurrent first touches of the
    /// *same* document build it once (the losers block on that one cell,
    /// not on a store-wide lock).
    pub fn indexes(&self, id: DocId) -> Arc<DocIndexes> {
        let cell = {
            let map = self.indexes.read().expect("index cache poisoned");
            map.get(&id).cloned()
        };
        let cell = match cell {
            Some(cell) => cell,
            None => {
                let mut map = self.indexes.write().expect("index cache poisoned");
                Arc::clone(map.entry(id).or_default())
            }
        };
        Arc::clone(cell.get_or_init(|| {
            if let Some(source) = &self.source {
                if let Some(decoded) = source.indexes(id) {
                    self.loads.fetch_add(1, Ordering::Relaxed);
                    return decoded;
                }
            }
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(DocIndexes::build(&self.doc(id)))
        }))
    }

    /// How many index builds have run so far. A shared store serving warm
    /// traffic must not advance this — see the engine's
    /// zero-redundant-work tests.
    pub fn build_count(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// How many documents/index sets were decoded from the backing
    /// [`DocSource`] (0 for an in-memory store).
    pub fn load_count(&self) -> usize {
        self.loads.load(Ordering::Relaxed)
    }

    /// Drop cached indices (used after re-loading a document). Also marks
    /// the backing source stale for `id`, so the next [`IndexedStore::indexes`]
    /// call rebuilds from the live document instead of decoding a stored
    /// index from a superseded epoch.
    pub fn invalidate(&self, id: DocId) {
        if let Some(source) = &self.source {
            source.mark_stale(id);
        }
        self.indexes
            .write()
            .expect("index cache poisoned")
            .remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_cached() {
        let cat = Arc::new(Catalog::new());
        let id = cat.load_str("a.xml", "<a><b/><b/></a>").unwrap();
        let store = IndexedStore::new(cat);
        let i1 = store.indexes(id);
        let i2 = store.indexes(id);
        assert!(Arc::ptr_eq(&i1, &i2));
        assert_eq!(store.build_count(), 1);
    }

    #[test]
    fn element_counts_via_store() {
        let cat = Arc::new(Catalog::new());
        let id = cat.load_str("a.xml", "<a><b/><c/><b/></a>").unwrap();
        let store = IndexedStore::new(Arc::clone(&cat));
        let b = cat.interner().get("b").unwrap();
        assert_eq!(store.indexes(id).element.count(b), 2);
    }

    #[test]
    fn invalidate_rebuilds() {
        let cat = Arc::new(Catalog::new());
        let id = cat.load_str("a.xml", "<a><b/></a>").unwrap();
        let store = IndexedStore::new(Arc::clone(&cat));
        let b = cat.interner().get("b").unwrap();
        assert_eq!(store.indexes(id).element.count(b), 1);
        cat.load_str("a.xml", "<a><b/><b/></a>").unwrap();
        store.invalidate(id);
        assert_eq!(store.indexes(id).element.count(b), 2);
        assert_eq!(store.build_count(), 2);
    }

    /// A test source that "stores" prebuilt documents and serves them on
    /// fault, mimicking the snapshot storage layer.
    struct MapSource {
        docs: HashMap<DocId, Arc<Document>>,
        stale: std::sync::Mutex<std::collections::HashSet<DocId>>,
    }

    impl DocSource for MapSource {
        fn document(&self, id: DocId) -> Option<Arc<Document>> {
            self.docs.get(&id).cloned()
        }
        fn indexes(&self, id: DocId) -> Option<Arc<DocIndexes>> {
            if self.stale.lock().unwrap().contains(&id) {
                return None;
            }
            self.docs.get(&id).map(|d| Arc::new(DocIndexes::build(d)))
        }
        fn mark_stale(&self, id: DocId) {
            self.stale.lock().unwrap().insert(id);
        }
    }

    #[test]
    fn store_faults_documents_from_source() {
        let cat = Arc::new(Catalog::new());
        let id = cat.reserve("lazy.xml");
        let doc = rox_xmldb::parse_document("lazy.xml", "<a><b/><b/></a>").unwrap();
        let source = Arc::new(MapSource {
            docs: HashMap::from([(id, doc)]),
            stale: Default::default(),
        });
        let store = IndexedStore::with_source(Arc::clone(&cat), source);
        assert!(cat.get(id).is_none());
        let d = store.doc(id);
        assert_eq!(d.uri(), "lazy.xml");
        // Faulting made it resident: the catalog now serves it directly.
        assert!(Arc::ptr_eq(&cat.doc(id), &d));
        assert_eq!(store.load_count(), 1);
        // Indexes decode from the source, not a live build.
        let idx = store.indexes(id);
        assert_eq!(idx.element.elements().len(), 3);
        assert_eq!(store.build_count(), 0);
        assert_eq!(store.load_count(), 2);
    }

    #[test]
    fn invalidate_marks_source_stale() {
        let cat = Arc::new(Catalog::new());
        let id = cat.load_str("a.xml", "<a><b/></a>").unwrap();
        let stored = cat.doc(id);
        let source = Arc::new(MapSource {
            docs: HashMap::from([(id, stored)]),
            stale: Default::default(),
        });
        let store = IndexedStore::with_source(Arc::clone(&cat), source);
        assert_eq!(store.indexes(id).element.elements().len(), 2);
        assert_eq!(store.build_count(), 0);
        // Reload the live document, then invalidate: the stored index is
        // from a dead epoch and must not be served again.
        cat.load_str("a.xml", "<a><b/><b/></a>").unwrap();
        store.invalidate(id);
        assert_eq!(store.indexes(id).element.elements().len(), 3);
        assert_eq!(store.build_count(), 1);
    }

    #[test]
    #[should_panic(expected = "no backing source")]
    fn doc_panics_without_residency_or_source() {
        let cat = Arc::new(Catalog::new());
        let id = cat.reserve("ghost.xml");
        let store = IndexedStore::new(cat);
        let _ = store.doc(id);
    }

    #[test]
    fn concurrent_first_touch_builds_each_document_once() {
        let cat = Arc::new(Catalog::new());
        let mut ids = Vec::new();
        for i in 0..8 {
            let xml = format!("<r>{}</r>", "<x/>".repeat(i + 1));
            ids.push(cat.load_str(&format!("{i}.xml"), &xml).unwrap());
        }
        let store = IndexedStore::new(cat);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for &id in &ids {
                        let idx = store.indexes(id);
                        assert!(idx.element.text_nodes().is_empty());
                    }
                });
            }
        });
        // Every document indexed exactly once despite 4 racing threads.
        assert_eq!(store.build_count(), ids.len());
    }
}
