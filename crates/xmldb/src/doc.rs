//! The shredded document: a columnar node table in pre/size/level encoding,
//! plus the [`DocumentBuilder`] that produces it from parse events.

use crate::catalog::DocId;
use crate::interner::{Interner, Symbol};
use crate::node::{NodeKind, Pre};
use std::sync::Arc;

/// A shredded XML document.
///
/// One tuple per node, stored column-wise (struct of arrays). The tuple at
/// index `pre` describes the node with preorder rank `pre`; `pre = 0` is the
/// virtual document root. The encoding invariants (checked by
/// [`Document::check_invariants`]) are:
///
/// * `size[c]` = number of nodes in `c`'s subtree minus one, so the
///   descendants of `c` are exactly the pre range `(c, c + size[c]]`;
/// * `level[c]` = `level[parent[c]] + 1` for every non-root `c`;
/// * `parent[c] < c` and `c <= parent[c] + size[parent[c]]`.
pub struct Document {
    id: DocId,
    uri: String,
    size: Vec<u32>,
    level: Vec<u16>,
    parent: Vec<Pre>,
    kind: Vec<NodeKind>,
    name: Vec<Symbol>,
    value: Vec<Symbol>,
    interner: Arc<Interner>,
}

impl Document {
    /// The document id assigned at load time.
    #[inline]
    pub fn id(&self) -> DocId {
        self.id
    }

    /// The URI under which the document was loaded (`fn:doc` argument).
    pub fn uri(&self) -> &str {
        &self.uri
    }

    /// Total number of nodes, including the virtual document root.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.size.len()
    }

    /// The shared string interner for names and values.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Number of distinct symbols in the shared interner — the upper bound
    /// of this document's symbol universe, and therefore the safe size for
    /// dense symbol-keyed tables (every `name`/`value` symbol of every
    /// node lies below it).
    #[inline]
    pub fn symbol_count(&self) -> usize {
        self.interner.len()
    }

    /// Subtree size (number of descendants) of `pre`.
    #[inline]
    pub fn size(&self, pre: Pre) -> u32 {
        self.size[pre as usize]
    }

    /// `post` rank: `pre + size`.
    #[inline]
    pub fn post(&self, pre: Pre) -> u32 {
        pre + self.size[pre as usize]
    }

    /// Depth below the document root (root has level 0).
    #[inline]
    pub fn level(&self, pre: Pre) -> u16 {
        self.level[pre as usize]
    }

    /// Preorder rank of the parent; the root is its own parent.
    #[inline]
    pub fn parent(&self, pre: Pre) -> Pre {
        self.parent[pre as usize]
    }

    /// Node kind of `pre`.
    #[inline]
    pub fn kind(&self, pre: Pre) -> NodeKind {
        self.kind[pre as usize]
    }

    /// Interned qualified name (elements, attributes, PI targets);
    /// [`Symbol::EMPTY`] otherwise.
    #[inline]
    pub fn name(&self, pre: Pre) -> Symbol {
        self.name[pre as usize]
    }

    /// Interned value (text, attribute, comment, PI data);
    /// [`Symbol::EMPTY`] otherwise.
    #[inline]
    pub fn value(&self, pre: Pre) -> Symbol {
        self.value[pre as usize]
    }

    /// Resolve the node's name to a string.
    pub fn name_str(&self, pre: Pre) -> String {
        self.interner.resolve(self.name(pre))
    }

    /// Resolve the node's value to a string.
    pub fn value_str(&self, pre: Pre) -> String {
        self.interner.resolve(self.value(pre))
    }

    /// Is `anc` a (strict) ancestor of `desc`?
    #[inline]
    pub fn is_ancestor(&self, anc: Pre, desc: Pre) -> bool {
        anc < desc && desc <= self.post(anc)
    }

    /// Iterator over the direct children (non-attribute) of `pre`, in
    /// document order.
    pub fn children(&self, pre: Pre) -> impl Iterator<Item = Pre> + '_ {
        let end = self.post(pre);
        let child_level = self.level(pre) + 1;
        let mut next = pre + 1;
        std::iter::from_fn(move || {
            while next <= end {
                let cur = next;
                next = cur + self.size(cur) + 1;
                if self.kind(cur) != NodeKind::Attribute && self.level(cur) == child_level {
                    return Some(cur);
                }
            }
            None
        })
    }

    /// Iterator over the attribute nodes of element `pre`, in document order.
    ///
    /// Attributes are stored contiguously right after their element's
    /// opening tag, so iteration stops at the first non-attribute node.
    pub fn attributes(&self, pre: Pre) -> impl Iterator<Item = Pre> + '_ {
        let end = self.post(pre);
        let mut next = pre + 1;
        std::iter::from_fn(move || {
            if next <= end && self.kind(next) == NodeKind::Attribute && self.parent(next) == pre {
                let cur = next;
                next += 1;
                Some(cur)
            } else {
                None
            }
        })
    }

    /// The XPath *string value* of a node: its own value for text,
    /// attribute, comment and PI nodes; the concatenation of descendant
    /// text values for elements and the root.
    pub fn string_value(&self, pre: Pre) -> String {
        match self.kind(pre) {
            NodeKind::Element | NodeKind::Document => {
                let mut out = String::new();
                let end = self.post(pre);
                for p in pre + 1..=end {
                    if self.kind(p) == NodeKind::Text {
                        out.push_str(&self.value_str(p));
                    }
                }
                out
            }
            _ => self.value_str(pre),
        }
    }

    /// Verify the pre/size/level/parent invariants; used by tests and the
    /// property suite.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.node_count();
        if n == 0 {
            return Err("document has no nodes".into());
        }
        if self.kind(0) != NodeKind::Document || self.level(0) != 0 || self.parent(0) != 0 {
            return Err("node 0 is not a well-formed document root".into());
        }
        if self.post(0) as usize != n - 1 {
            return Err(format!(
                "root subtree covers {} nodes, document has {n}",
                self.post(0) + 1
            ));
        }
        for pre in 1..n as Pre {
            let parent = self.parent(pre);
            if parent >= pre {
                return Err(format!("parent[{pre}] = {parent} is not a predecessor"));
            }
            if !self.is_ancestor(parent, pre) {
                return Err(format!("node {pre} is outside its parent {parent}'s range"));
            }
            if self.level(pre) != self.level(parent) + 1 {
                return Err(format!(
                    "level[{pre}] = {} but parent level is {}",
                    self.level(pre),
                    self.level(parent)
                ));
            }
            if self.post(pre) > self.post(parent) {
                return Err(format!("node {pre}'s subtree escapes its parent's"));
            }
            match self.kind(pre) {
                NodeKind::Attribute
                | NodeKind::Text
                | NodeKind::Comment
                | NodeKind::ProcessingInstruction => {
                    if self.size(pre) != 0 {
                        return Err(format!("leaf node {pre} has size {}", self.size(pre)));
                    }
                }
                NodeKind::Document => return Err(format!("interior document node at {pre}")),
                NodeKind::Element => {}
            }
        }
        // Subtree sizes must be consistent: size[p] == sum over children
        // subtrees (+1 each). Equivalent check: count nodes whose parent
        // chain passes through p.
        let mut counted = vec![0u32; n];
        for pre in (1..n as Pre).rev() {
            counted[self.parent(pre) as usize] += counted[pre as usize] + 1;
            if counted[pre as usize] != self.size(pre) {
                return Err(format!(
                    "size[{pre}] = {} but subtree contains {} nodes",
                    self.size(pre),
                    counted[pre as usize]
                ));
            }
        }
        if counted[0] != self.size(0) {
            return Err("root size mismatch".into());
        }
        Ok(())
    }

    /// Rebind the document to a new id (used by the catalog at load time).
    pub(crate) fn with_id(mut self: Arc<Self>, id: DocId) -> Arc<Self> {
        Arc::make_mut(&mut self).id = id;
        self
    }

    /// Borrow the raw struct-of-arrays columns — the exact on-disk payload
    /// of a snapshot's document segment. Column `i` of each slice
    /// describes the node with preorder rank `i`.
    pub fn columns(&self) -> DocumentColumns<'_> {
        DocumentColumns {
            size: &self.size,
            level: &self.level,
            parent: &self.parent,
            kind: &self.kind,
            name: &self.name,
            value: &self.value,
        }
    }

    /// Reassemble a document from raw columns (the snapshot decode path).
    /// All columns must have equal length; symbols must belong to
    /// `interner`. The encoding invariants are *not* re-checked here —
    /// storage validates segment checksums instead, and
    /// [`Document::check_invariants`] stays available to callers that want
    /// the full structural audit.
    ///
    /// # Panics
    /// Panics when the column lengths disagree or every column is empty.
    #[allow(clippy::too_many_arguments)] // one parameter per column, on purpose
    pub fn from_columns(
        id: DocId,
        uri: String,
        size: Vec<u32>,
        level: Vec<u16>,
        parent: Vec<Pre>,
        kind: Vec<NodeKind>,
        name: Vec<Symbol>,
        value: Vec<Symbol>,
        interner: Arc<Interner>,
    ) -> Self {
        let n = size.len();
        assert!(n > 0, "a document has at least its root node");
        assert!(
            level.len() == n
                && parent.len() == n
                && kind.len() == n
                && name.len() == n
                && value.len() == n,
            "document columns must have equal length"
        );
        Document {
            id,
            uri,
            size,
            level,
            parent,
            kind,
            name,
            value,
            interner,
        }
    }
}

/// Borrowed view of a document's struct-of-arrays columns (see
/// [`Document::columns`]).
pub struct DocumentColumns<'a> {
    /// Subtree sizes.
    pub size: &'a [u32],
    /// Depths below the root.
    pub level: &'a [u16],
    /// Parent preorder ranks.
    pub parent: &'a [Pre],
    /// Node kinds.
    pub kind: &'a [NodeKind],
    /// Interned names.
    pub name: &'a [Symbol],
    /// Interned values.
    pub value: &'a [Symbol],
}

impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            id: self.id,
            uri: self.uri.clone(),
            size: self.size.clone(),
            level: self.level.clone(),
            parent: self.parent.clone(),
            kind: self.kind.clone(),
            name: self.name.clone(),
            value: self.value.clone(),
            interner: Arc::clone(&self.interner),
        }
    }
}

impl std::fmt::Debug for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Document")
            .field("uri", &self.uri)
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// Streaming builder producing a shredded [`Document`].
///
/// Events must describe a well-formed tree: `start_element`/`end_element`
/// calls must nest, and `attribute` is only valid directly after
/// `start_element` (before any content), mirroring XML syntax.
pub struct DocumentBuilder {
    uri: String,
    size: Vec<u32>,
    level: Vec<u16>,
    parent: Vec<Pre>,
    kind: Vec<NodeKind>,
    name: Vec<Symbol>,
    value: Vec<Symbol>,
    interner: Arc<Interner>,
    /// Stack of open element pre ranks (bottom is the virtual root).
    open: Vec<Pre>,
    /// True while attributes may still be appended to the innermost element.
    attrs_open: bool,
}

impl DocumentBuilder {
    /// Start building a document with a fresh interner.
    pub fn new(uri: &str) -> Self {
        Self::with_interner(uri, Arc::new(Interner::new()))
    }

    /// Start building a document with a shared interner (cross-document
    /// value joins compare interned symbols, so documents joined together
    /// should share one interner — the [`Catalog`](crate::catalog::Catalog)
    /// arranges this).
    pub fn with_interner(uri: &str, interner: Arc<Interner>) -> Self {
        let mut b = DocumentBuilder {
            uri: uri.to_string(),
            size: Vec::new(),
            level: Vec::new(),
            parent: Vec::new(),
            kind: Vec::new(),
            name: Vec::new(),
            value: Vec::new(),
            interner,
            open: Vec::new(),
            attrs_open: false,
        };
        b.push_node(NodeKind::Document, Symbol::EMPTY, Symbol::EMPTY);
        b.open.push(0);
        b
    }

    fn push_node(&mut self, kind: NodeKind, name: Symbol, value: Symbol) -> Pre {
        let pre = self.size.len() as Pre;
        let (level, parent) = match self.open.last() {
            Some(&p) => (self.level[p as usize] + 1, p),
            None => (0, 0),
        };
        self.size.push(0);
        self.level.push(level);
        self.parent.push(parent);
        self.kind.push(kind);
        self.name.push(name);
        self.value.push(value);
        pre
    }

    /// Open an element.
    pub fn start_element(&mut self, name: &str) -> Pre {
        let sym = self.interner.intern(name);
        let pre = self.push_node(NodeKind::Element, sym, Symbol::EMPTY);
        self.open.push(pre);
        self.attrs_open = true;
        pre
    }

    /// Attach an attribute to the innermost open element.
    ///
    /// # Panics
    /// Panics if content has already been added to the element.
    pub fn attribute(&mut self, name: &str, value: &str) -> Pre {
        assert!(
            self.attrs_open && self.open.len() > 1,
            "attribute() must directly follow start_element()"
        );
        let n = self.interner.intern(name);
        let v = self.interner.intern(value);
        self.push_node(NodeKind::Attribute, n, v)
    }

    /// Append a text node.
    pub fn text(&mut self, value: &str) -> Pre {
        self.attrs_open = false;
        let v = self.interner.intern(value);
        self.push_node(NodeKind::Text, Symbol::EMPTY, v)
    }

    /// Append a comment node.
    pub fn comment(&mut self, value: &str) -> Pre {
        self.attrs_open = false;
        let v = self.interner.intern(value);
        self.push_node(NodeKind::Comment, Symbol::EMPTY, v)
    }

    /// Append a processing-instruction node.
    pub fn processing_instruction(&mut self, target: &str, data: &str) -> Pre {
        self.attrs_open = false;
        let n = self.interner.intern(target);
        let v = self.interner.intern(data);
        self.push_node(NodeKind::ProcessingInstruction, n, v)
    }

    /// Close the innermost open element.
    ///
    /// # Panics
    /// Panics when no element is open.
    pub fn end_element(&mut self) {
        assert!(self.open.len() > 1, "end_element() with no open element");
        let pre = self.open.pop().unwrap();
        let last = (self.size.len() - 1) as Pre;
        self.size[pre as usize] = last - pre;
        self.attrs_open = false;
    }

    /// Convenience: element with a single text child.
    pub fn leaf(&mut self, name: &str, text: &str) -> Pre {
        let pre = self.start_element(name);
        if !text.is_empty() {
            self.text(text);
        }
        self.end_element();
        pre
    }

    /// Finish the document, closing the virtual root.
    ///
    /// # Panics
    /// Panics if elements are still open.
    pub fn finish(mut self, id: DocId) -> Document {
        assert!(
            self.open.len() == 1,
            "finish() with {} unclosed element(s)",
            self.open.len() - 1
        );
        let last = (self.size.len() - 1) as Pre;
        self.size[0] = last;
        Document {
            id,
            uri: self.uri,
            size: self.size,
            level: self.level,
            parent: self.parent,
            kind: self.kind,
            name: self.name,
            value: self.value,
            interner: self.interner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn build_sample() -> Document {
        // <a x="1"><b>t1</b><c><b>t2</b></c></a>
        let mut b = DocumentBuilder::new("sample.xml");
        b.start_element("a");
        b.attribute("x", "1");
        b.leaf("b", "t1");
        b.start_element("c");
        b.leaf("b", "t2");
        b.end_element();
        b.end_element();
        b.finish(DocId(0))
    }

    #[test]
    fn builder_produces_valid_encoding() {
        let d = build_sample();
        d.check_invariants().expect("invariants hold");
        // root, a, @x, b, t1, c, b, t2
        assert_eq!(d.node_count(), 8);
        assert_eq!(d.kind(1), NodeKind::Element);
        assert_eq!(d.name_str(1), "a");
        assert_eq!(d.size(1), 6);
        assert_eq!(d.kind(2), NodeKind::Attribute);
        assert_eq!(d.value_str(2), "1");
    }

    #[test]
    fn children_skip_attributes() {
        let d = build_sample();
        let kids: Vec<_> = d.children(1).collect();
        assert_eq!(kids.len(), 2); // b and c, not @x
        assert_eq!(d.name_str(kids[0]), "b");
        assert_eq!(d.name_str(kids[1]), "c");
    }

    #[test]
    fn attributes_iterator() {
        let d = build_sample();
        let attrs: Vec<_> = d.attributes(1).collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(d.name_str(attrs[0]), "x");
        assert_eq!(d.attributes(3).count(), 0);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let d = build_sample();
        assert_eq!(d.string_value(1), "t1t2");
        assert_eq!(d.string_value(0), "t1t2");
    }

    #[test]
    fn ancestor_test_matches_ranges() {
        let d = build_sample();
        assert!(d.is_ancestor(0, 7));
        assert!(d.is_ancestor(1, 4));
        assert!(!d.is_ancestor(3, 5));
        assert!(!d.is_ancestor(4, 4)); // strict
    }

    #[test]
    fn parse_document_end_to_end() {
        let d = parse_document("q.xml", "<a x=\"1\"><b>t1</b><c><b>t2</b></c></a>").unwrap();
        d.check_invariants().unwrap();
        assert_eq!(d.node_count(), 8);
        assert_eq!(d.uri(), "q.xml");
    }

    #[test]
    fn whitespace_only_text_stripped_by_default() {
        let d = parse_document("w.xml", "<a>\n  <b>x</b>\n</a>").unwrap();
        // root, a, b, text(x)
        assert_eq!(d.node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "attribute() must directly follow")]
    fn attribute_after_content_panics() {
        let mut b = DocumentBuilder::new("x");
        b.start_element("a");
        b.text("t");
        b.attribute("x", "1");
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_with_open_element_panics() {
        let mut b = DocumentBuilder::new("x");
        b.start_element("a");
        let _ = b.finish(DocId(0));
    }

    #[test]
    fn levels_are_depths() {
        let d = build_sample();
        assert_eq!(d.level(0), 0);
        assert_eq!(d.level(1), 1);
        assert_eq!(d.level(2), 2); // @x
        assert_eq!(d.level(7), 4); // t2 under b under c under a
    }
}
