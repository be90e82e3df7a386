//! The document catalog: maps `fn:doc(url)` URIs to loaded documents.
//!
//! In XQuery the documents a query touches may only become known at
//! run-time (`fn:doc` takes a run-time parameter) — one of the paper's
//! arguments for run-time optimization (§1). The catalog is the run-time
//! component that resolves those URIs. All documents registered in one
//! catalog share a single string [`Interner`], so cross-document value
//! joins can compare interned symbols instead of strings.

use crate::doc::{Document, DocumentBuilder};
use crate::interner::Interner;
use crate::parser::{ParseError, XmlEvent, XmlParser};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense document identifier assigned by the catalog at load time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub u32);

impl DocId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// A thread-safe collection of loaded documents sharing one interner.
pub struct Catalog {
    interner: Arc<Interner>,
    inner: RwLock<CatalogInner>,
}

#[derive(Default)]
struct CatalogInner {
    /// `None` marks a slot reserved by [`Catalog::reserve`] whose document
    /// has not been made resident yet (snapshot-backed catalogs fault
    /// documents in on first touch via [`Catalog::fill`]).
    docs: Vec<Option<Arc<Document>>>,
    by_uri: HashMap<String, DocId>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::with_interner(Arc::new(Interner::new()))
    }

    /// Create an empty catalog around an existing interner — the snapshot
    /// open path restores the symbol heap first and hands it here, so the
    /// symbols referenced by lazily decoded documents resolve identically.
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        Catalog {
            interner,
            inner: RwLock::new(CatalogInner::default()),
        }
    }

    /// The interner shared by all documents of this catalog.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Parse `input` and register it under `uri`.
    ///
    /// Re-loading an existing URI replaces the document but keeps its id.
    pub fn load_str(&self, uri: &str, input: &str) -> Result<DocId, ParseError> {
        let doc = self.parse_with_shared_interner(uri, input)?;
        Ok(self.insert(uri, doc))
    }

    /// Register an already-built document under `uri`.
    pub fn insert(&self, uri: &str, doc: Arc<Document>) -> DocId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_uri.get(uri) {
            inner.docs[id.index()] = Some(doc.with_id(id));
            return id;
        }
        let id = DocId(u32::try_from(inner.docs.len()).expect("catalog overflow"));
        inner.docs.push(Some(doc.with_id(id)));
        inner.by_uri.insert(uri.to_string(), id);
        id
    }

    /// Reserve an id for `uri` without making a document resident — the
    /// snapshot open path registers every stored URI up front (so
    /// `fn:doc` resolution works immediately) and faults content in later
    /// through [`Catalog::fill`]. Reserving an already registered URI
    /// returns its existing id and leaves any resident document alone.
    pub fn reserve(&self, uri: &str) -> DocId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_uri.get(uri) {
            return id;
        }
        let id = DocId(u32::try_from(inner.docs.len()).expect("catalog overflow"));
        inner.docs.push(None);
        inner.by_uri.insert(uri.to_string(), id);
        id
    }

    /// The resident document at `id`, or `None` for a reserved slot whose
    /// content has not been faulted in (or an id this catalog never
    /// issued).
    pub fn get(&self, id: DocId) -> Option<Arc<Document>> {
        self.inner.read().docs.get(id.index())?.clone()
    }

    /// Make a document resident in a reserved slot. Under a first-touch
    /// race the first fill wins and every caller gets the winner — the
    /// same memoization contract the index store uses.
    ///
    /// # Panics
    /// Panics on an id not issued by this catalog.
    pub fn fill(&self, id: DocId, doc: Arc<Document>) -> Arc<Document> {
        let mut inner = self.inner.write();
        let slot = &mut inner.docs[id.index()];
        match slot {
            Some(resident) => Arc::clone(resident),
            None => {
                let doc = doc.with_id(id);
                *slot = Some(Arc::clone(&doc));
                doc
            }
        }
    }

    /// Builder bound to this catalog's interner; [`Catalog::insert`] the result.
    pub fn builder(&self, uri: &str) -> DocumentBuilder {
        DocumentBuilder::with_interner(uri, Arc::clone(&self.interner))
    }

    /// Resolve a URI to its document id (`fn:doc` semantics).
    pub fn resolve(&self, uri: &str) -> Option<DocId> {
        self.inner.read().by_uri.get(uri).copied()
    }

    /// Fetch a document by id.
    ///
    /// # Panics
    /// Panics on an id not issued by this catalog, or on a reserved slot
    /// whose document is not resident (snapshot-backed access goes through
    /// the index store, which faults segments in instead of calling this).
    pub fn doc(&self, id: DocId) -> Arc<Document> {
        self.inner.read().docs[id.index()]
            .clone()
            .unwrap_or_else(|| panic!("document {id:?} is not resident"))
    }

    /// Fetch a document by URI (`None` for unknown URIs and non-resident
    /// reserved slots).
    pub fn doc_by_uri(&self, uri: &str) -> Option<Arc<Document>> {
        let inner = self.inner.read();
        inner
            .by_uri
            .get(uri)
            .and_then(|id| inner.docs[id.index()].clone())
    }

    /// Number of loaded documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// True when no documents are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All loaded document ids, in load order.
    pub fn doc_ids(&self) -> Vec<DocId> {
        (0..self.len() as u32).map(DocId).collect()
    }

    fn parse_with_shared_interner(
        &self,
        uri: &str,
        input: &str,
    ) -> Result<Arc<Document>, ParseError> {
        let mut parser = XmlParser::new(input);
        let mut builder = self.builder(uri);
        let mut pending: Option<String> = None;
        let flush = |builder: &mut DocumentBuilder, pending: &mut Option<String>| {
            if let Some(t) = pending.take() {
                if !t.trim().is_empty() {
                    builder.text(&t);
                }
            }
        };
        while let Some(ev) = parser.next_event()? {
            match ev {
                XmlEvent::Text(t) => match &mut pending {
                    Some(acc) => acc.push_str(&t),
                    None => pending = Some(t),
                },
                XmlEvent::StartElement {
                    name,
                    attributes,
                    self_closing,
                } => {
                    flush(&mut builder, &mut pending);
                    builder.start_element(&name);
                    for (n, v) in &attributes {
                        builder.attribute(n, v);
                    }
                    if self_closing {
                        builder.end_element();
                    }
                }
                XmlEvent::EndElement { .. } => {
                    flush(&mut builder, &mut pending);
                    builder.end_element();
                }
                XmlEvent::Comment(c) => {
                    flush(&mut builder, &mut pending);
                    builder.comment(&c);
                }
                XmlEvent::ProcessingInstruction { target, data } => {
                    flush(&mut builder, &mut pending);
                    builder.processing_instruction(&target, &data);
                }
            }
        }
        Ok(Arc::new(builder.finish(DocId(0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_resolve() {
        let cat = Catalog::new();
        let id = cat.load_str("a.xml", "<a><b/></a>").unwrap();
        assert_eq!(cat.resolve("a.xml"), Some(id));
        assert_eq!(cat.doc(id).uri(), "a.xml");
        assert_eq!(cat.doc(id).id(), id);
    }

    #[test]
    fn documents_share_the_interner() {
        let cat = Catalog::new();
        let a = cat.load_str("a.xml", "<x>shared</x>").unwrap();
        let b = cat.load_str("b.xml", "<y>shared</y>").unwrap();
        let da = cat.doc(a);
        let db = cat.doc(b);
        // The text value "shared" got the same symbol in both documents.
        assert_eq!(da.value(2), db.value(2));
    }

    #[test]
    fn reload_keeps_id() {
        let cat = Catalog::new();
        let id = cat.load_str("a.xml", "<a/>").unwrap();
        let id2 = cat.load_str("a.xml", "<a><b/></a>").unwrap();
        assert_eq!(id, id2);
        assert_eq!(cat.doc(id).node_count(), 3);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn unknown_uri_resolves_to_none() {
        let cat = Catalog::new();
        assert_eq!(cat.resolve("missing.xml"), None);
        assert!(cat.doc_by_uri("missing.xml").is_none());
    }

    #[test]
    fn multiple_documents_get_distinct_ids() {
        let cat = Catalog::new();
        let a = cat.load_str("a.xml", "<a/>").unwrap();
        let b = cat.load_str("b.xml", "<b/>").unwrap();
        assert_ne!(a, b);
        assert_eq!(cat.doc_ids(), vec![a, b]);
    }

    #[test]
    fn reserve_and_fill_fault_documents_in() {
        let cat = Catalog::new();
        let id = cat.reserve("lazy.xml");
        assert_eq!(cat.resolve("lazy.xml"), Some(id));
        assert!(cat.get(id).is_none());
        assert!(cat.doc_by_uri("lazy.xml").is_none());
        assert_eq!(cat.len(), 1);
        // Reserving again is idempotent.
        assert_eq!(cat.reserve("lazy.xml"), id);
        let mut b = cat.builder("lazy.xml");
        b.start_element("a");
        b.end_element();
        let filled = cat.fill(id, Arc::new(b.finish(DocId(0))));
        assert_eq!(filled.id(), id);
        assert!(Arc::ptr_eq(&cat.doc(id), &filled));
        // First fill wins: a second fill returns the resident document.
        let mut b2 = cat.builder("lazy.xml");
        b2.start_element("b");
        b2.end_element();
        let loser = cat.fill(id, Arc::new(b2.finish(DocId(0))));
        assert!(Arc::ptr_eq(&loser, &filled));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn doc_panics_on_unfilled_reservation() {
        let cat = Catalog::new();
        let id = cat.reserve("lazy.xml");
        let _ = cat.doc(id);
    }

    #[test]
    fn with_interner_shares_symbols() {
        let i = Arc::new(crate::interner::Interner::new());
        let pre = i.intern("shared");
        let cat = Catalog::with_interner(Arc::clone(&i));
        let id = cat.load_str("a.xml", "<x>shared</x>").unwrap();
        assert_eq!(cat.doc(id).value(2), pre);
    }

    #[test]
    fn builder_insert_roundtrip() {
        let cat = Catalog::new();
        let mut b = cat.builder("gen.xml");
        b.start_element("root");
        b.leaf("author", "Codd");
        b.end_element();
        let id = cat.insert("gen.xml", Arc::new(b.finish(DocId(0))));
        let d = cat.doc(id);
        d.check_invariants().unwrap();
        assert_eq!(d.string_value(0), "Codd");
    }
}
