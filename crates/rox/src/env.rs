//! The per-query run-time environment: a thin view over the engine's
//! shared caches.
//!
//! A Join Graph vertex denotes a relation of XML nodes ("all elements named
//! q", "all text nodes with value = x", ...). The environment resolves each
//! vertex to its **base list** — the index lookup of §2.2 — lazily and
//! caches it. Base-list *counts* are what Phase 1 of Algorithm 1 seeds
//! `card(v)` with; base-list *samples* seed `S(v)`.
//!
//! Since the engine split ([`crate::engine`]), a `RoxEnv` owns no heavy
//! state of its own: the [`IndexedStore`] and the cross-query
//! [`BaseListCache`] are `Arc`-shared — either with a long-lived
//! [`RoxEngine`](crate::engine::RoxEngine)
//! (`engine.session(graph)`) or freshly created for a standalone one-shot
//! environment ([`RoxEnv::new`]). What *is* per query: the vertex →
//! document resolution and a vertex-indexed fast path onto the shared
//! base lists, so the hot `card(v)`/`table_or_base(v)` calls of the
//! sampling loop skip the shared cache's key hashing.

use crate::engine::BaseListCache;
use rox_index::IndexedStore;
use rox_joingraph::{JoinGraph, VertexId, VertexLabel};
use rox_xmldb::{Catalog, DocId, Document, NodeKind, Pre};
use std::sync::{Arc, RwLock};

/// Resolved, cached run-time context for one Join Graph over one catalog.
pub struct RoxEnv {
    store: Arc<IndexedStore>,
    /// Cross-query base lists, keyed `(DocId, VertexLabel)` — shared with
    /// the owning engine (or private to this env when standalone).
    shared_lists: Arc<BaseListCache>,
    /// vertex → document id (resolved from the vertex URI).
    vertex_doc: Vec<DocId>,
    /// vertex → base list, the per-query fast path onto `shared_lists`
    /// (saves re-keying the label on every `card`/`table_or_base` call).
    vertex_lists: RwLock<Vec<Option<Arc<Vec<Pre>>>>>,
}

/// An environment construction error (unknown document, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "environment error: {}", self.message)
    }
}

impl std::error::Error for EnvError {}

impl std::fmt::Debug for RoxEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoxEnv")
            .field("vertices", &self.vertex_doc.len())
            .finish()
    }
}

impl RoxEnv {
    /// Resolve every vertex of `graph` against `catalog`. The environment
    /// gets private caches; to share indexes and base lists across
    /// queries, create it through
    /// [`RoxEngine::session`](crate::RoxEngine::session) instead.
    pub fn new(catalog: Arc<Catalog>, graph: &JoinGraph) -> Result<Self, EnvError> {
        Self::from_shared(
            Arc::new(IndexedStore::new(catalog)),
            Arc::new(BaseListCache::new()),
            graph,
        )
    }

    /// The session constructor: a view over caches owned elsewhere (the
    /// engine). Everything vertex-scoped is built fresh; everything
    /// document-scoped is shared.
    pub(crate) fn from_shared(
        store: Arc<IndexedStore>,
        shared_lists: Arc<BaseListCache>,
        graph: &JoinGraph,
    ) -> Result<Self, EnvError> {
        let mut vertex_doc = Vec::with_capacity(graph.vertex_count());
        for v in graph.vertices() {
            let id = store
                .catalog()
                .resolve(&v.doc_uri)
                .ok_or_else(|| EnvError {
                    message: format!("document '{}' is not loaded", v.doc_uri),
                })?;
            vertex_doc.push(id);
        }
        Ok(RoxEnv {
            store,
            shared_lists,
            vertex_lists: RwLock::new(vec![None; vertex_doc.len()]),
            vertex_doc,
        })
    }

    /// The indexed store.
    pub fn store(&self) -> &IndexedStore {
        &self.store
    }

    /// The document a vertex lives in.
    pub fn doc_id(&self, v: VertexId) -> DocId {
        self.vertex_doc[v as usize]
    }

    /// The document a vertex lives in (loaded).
    pub fn doc(&self, v: VertexId) -> Arc<Document> {
        self.store.doc(self.doc_id(v))
    }

    /// The node kind a vertex's nodes have (for value-join index probes).
    pub fn vertex_kind(label: &VertexLabel) -> NodeKind {
        match label {
            VertexLabel::Root => NodeKind::Document,
            VertexLabel::Element(_) => NodeKind::Element,
            VertexLabel::Text(_) => NodeKind::Text,
            VertexLabel::Attribute(..) => NodeKind::Attribute,
        }
    }

    /// The base list of a vertex: all nodes satisfying its annotation, from
    /// the cheapest index path, sorted on pre. Cached per `(document,
    /// label)` in the shared cache — a repeat of the same vertex shape in
    /// *any* later query reuses it — with a per-vertex fast path in this
    /// env.
    pub fn base_list(&self, graph: &JoinGraph, v: VertexId) -> Arc<Vec<Pre>> {
        if let Some(cached) = &self.vertex_lists.read().expect("base list cache")[v as usize] {
            return Arc::clone(cached);
        }
        let doc_id = self.doc_id(v);
        let label = &graph.vertex(v).label;
        let list = self
            .shared_lists
            .get_or_build(doc_id, label, || self.build_base_list(doc_id, label));
        self.vertex_lists.write().expect("base list cache")[v as usize] = Some(Arc::clone(&list));
        list
    }

    /// The uncached index lookup behind [`RoxEnv::base_list`] — depends
    /// only on the document and the label, which is what makes the
    /// `(DocId, VertexLabel)` cache key sound.
    fn build_base_list(&self, doc_id: DocId, label: &VertexLabel) -> Vec<Pre> {
        let doc = self.store.doc(doc_id);
        let idx = self.store.indexes(doc_id);
        match label {
            VertexLabel::Root => vec![0],
            VertexLabel::Element(name) => match doc.interner().get(name) {
                Some(sym) => idx.element.lookup(sym).to_vec(),
                None => Vec::new(),
            },
            VertexLabel::Text(None) => idx.element.text_nodes().to_vec(),
            VertexLabel::Text(Some(pred)) => idx.value.select_text(&doc, pred),
            VertexLabel::Attribute(name, pred) => {
                let by_name: Vec<Pre> = match doc.interner().get(name) {
                    Some(sym) => idx.element.lookup_attr(sym).to_vec(),
                    None => Vec::new(),
                };
                match pred {
                    None => by_name,
                    Some(p) => by_name
                        .into_iter()
                        .filter(|&a| p.matches(&doc.value_str(a)))
                        .collect(),
                }
            }
        }
    }

    /// Base-list count — the `card(v)` seed (O(1) once cached; an index
    /// count probe either way).
    pub fn base_count(&self, graph: &JoinGraph, v: VertexId) -> usize {
        self.base_list(graph, v).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_joingraph::compile_query;

    fn setup() -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "d.xml",
            r#"<site><item id="1"><quantity>1</quantity></item><item id="2"><quantity>3</quantity></item></site>"#,
        )
        .unwrap();
        let g = compile_query(r#"for $i in doc("d.xml")//item[./quantity = 1] return $i"#).unwrap();
        (cat, g)
    }

    #[test]
    fn resolves_documents() {
        let (cat, g) = setup();
        let env = RoxEnv::new(cat, &g).unwrap();
        assert_eq!(env.doc_id(0), DocId(0));
    }

    #[test]
    fn unknown_document_errors() {
        let cat = Arc::new(Catalog::new());
        let g = compile_query(r#"for $i in doc("missing.xml")//item return $i"#).unwrap();
        let e = RoxEnv::new(cat, &g).unwrap_err();
        assert!(e.message.contains("missing.xml"));
    }

    #[test]
    fn base_lists_per_label() {
        let (cat, g) = setup();
        let env = RoxEnv::new(cat, &g).unwrap();
        // Find vertices by label.
        for v in g.vertices() {
            let list = env.base_list(&g, v.id);
            match &v.label {
                VertexLabel::Root => assert_eq!(&*list, &vec![0]),
                VertexLabel::Element(n) if n == "item" => assert_eq!(list.len(), 2),
                VertexLabel::Element(n) if n == "quantity" => assert_eq!(list.len(), 2),
                VertexLabel::Text(Some(_)) => assert_eq!(list.len(), 1), // "1"
                other => panic!("unexpected label {other:?}"),
            }
        }
    }

    #[test]
    fn base_list_is_cached() {
        let (cat, g) = setup();
        let env = RoxEnv::new(cat, &g).unwrap();
        let a = env.base_list(&g, 1);
        let b = env.base_list(&g, 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn same_shape_vertices_share_one_cached_list() {
        // Two distinct graphs against one shared cache: the (DocId, label)
        // key makes the second graph's "item" vertex hit the first's list.
        let (cat, g1) = setup();
        let g2 =
            compile_query(r#"for $x in doc("d.xml")//item, $q in $x/quantity return $q"#).unwrap();
        let store = Arc::new(IndexedStore::new(cat));
        let lists = Arc::new(BaseListCache::new());
        let env1 = RoxEnv::from_shared(Arc::clone(&store), Arc::clone(&lists), &g1).unwrap();
        let env2 = RoxEnv::from_shared(store, lists, &g2).unwrap();
        let item1 = g1.var_vertices["i"];
        let item2 = g2.var_vertices["x"];
        let a = env1.base_list(&g1, item1);
        let b = env2.base_list(&g2, item2);
        assert!(Arc::ptr_eq(&a, &b), "cross-query base list not shared");
    }

    #[test]
    fn missing_name_gives_empty_base() {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", "<a/>").unwrap();
        let g = compile_query(r#"for $i in doc("d.xml")//zebra return $i"#).unwrap();
        let env = RoxEnv::new(cat, &g).unwrap();
        let zebra = g.var_vertices["i"];
        assert!(env.base_list(&g, zebra).is_empty());
        assert_eq!(env.base_count(&g, zebra), 0);
    }
}
