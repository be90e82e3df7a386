//! Value-based equi-joins (the relational joins of the Join Graph).
//!
//! Two physical algorithms, mirroring Table 1:
//!
//! * [`index_value_join`] — nested-loop index lookup: for each (sampled)
//!   outer tuple, probe the inner document's value index. Zero-investment
//!   w.r.t. the outer input, hence the algorithm ROX samples with.
//! * [`hash_value_join`] — classic hash join on interned value symbols,
//!   used for full (materialized) edge execution. Cost `|C|+|S|+|R|`.
//!
//! Cross-document joins compare interned [`Symbol`]s, which is sound
//! because all documents of one catalog share an interner.
//!
//! **Zero-hash layout.** Because symbols are dense interner ids and pres
//! are dense node ids, the build side of the hash join is a CSR
//! [`SymbolTable`] (probe = two array reads) and `inner_filter` membership
//! is a [`PreSet`] bitset probe — no SipHash, no per-hit binary search.
//! The slice-based entry points build the dense structures on the fly;
//! the edge-operator kernel ([`crate::edgeop`]) hands a cached filter set
//! (the evaluation state's scratch arena) to the crate-internal
//! `index_value_join_kernel`.

use crate::cost::Cost;
use crate::cutoff::JoinOut;
use rox_index::{PreSet, SymbolTable, ValueIndex};
use rox_xmldb::{Document, NodeKind, Pre, Symbol};

fn join_value(doc: &Document, pre: Pre) -> Symbol {
    debug_assert!(
        matches!(doc.kind(pre), NodeKind::Text | NodeKind::Attribute),
        "value join inputs must be text or attribute nodes"
    );
    doc.value(pre)
}

/// Nested-loop index-lookup join against a dense [`PreSet`] filter: probe
/// `inner_index` for each outer node and keep hits in `inner_filter` (the
/// materialized `T(v′)` as a bitset), or all hits when `inner_filter` is
/// `None`. Produced pairs carry the outer node's position in `outer` as
/// their row id. This is the kernel-facing entry the edge-operator kernel
/// and the evaluation state's scratch arena feed.
pub(crate) fn index_value_join_kernel(
    outer_doc: &Document,
    outer: &[Pre],
    inner_index: &ValueIndex,
    inner_kind: NodeKind,
    inner_filter: Option<&PreSet>,
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let mut out = JoinOut::with_limit(outer.len(), limit);
    let limit = limit.unwrap_or(usize::MAX);
    'outer: for (row, &c) in outer.iter().enumerate() {
        let row = row as u32;
        cost.charge_in(1);
        cost.charge_probe(1);
        let v = join_value(outer_doc, c);
        let hits: &[Pre] = match inner_kind {
            NodeKind::Text => inner_index.text_eq(v),
            NodeKind::Attribute => inner_index.attr_eq(v),
            _ => unreachable!("value index covers text and attribute nodes"),
        };
        for &s in hits {
            if let Some(filter) = inner_filter {
                cost.charge_probe(1);
                if !filter.contains(s) {
                    continue;
                }
            }
            if out.emit(row, s, limit, cost) {
                break 'outer;
            }
        }
        out.ctx_done(row);
    }
    out
}

/// Nested-loop index-lookup join with the filter given as a sorted slice
/// (`None` keeps every hit): builds the [`PreSet`] on the fly (an
/// allocation the evaluation state's scratch arena avoids by caching the
/// set per vertex).
pub fn index_value_join(
    outer_doc: &Document,
    outer: &[Pre],
    inner_index: &ValueIndex,
    inner_kind: NodeKind,
    inner_filter: Option<&[Pre]>,
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let set = inner_filter.map(filter_set);
    index_value_join_kernel(
        outer_doc,
        outer,
        inner_index,
        inner_kind,
        set.as_ref(),
        limit,
        cost,
    )
}

/// Build the membership bitset for a sorted filter slice, sized by its
/// largest member (probes beyond it answer `false`).
pub(crate) fn filter_set(filter: &[Pre]) -> PreSet {
    debug_assert!(filter.windows(2).all(|w| w[0] <= w[1]));
    let universe = filter.last().map(|&p| p as usize + 1).unwrap_or(0);
    PreSet::from_nodes(universe, filter)
}

/// Hash join at the node level: all `(left, right)` pre pairs with equal
/// values. Builds on the smaller side. (The "hash" is the interner's
/// already-paid hash-consing: at join time the build side is a CSR table
/// and probes are array reads.) Pairs come out in probe order.
pub fn hash_value_join(
    left_doc: &Document,
    left: &[Pre],
    right_doc: &Document,
    right: &[Pre],
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    let build_left = left.len() <= right.len();
    let (build_doc, build, probe_doc, probe) = if build_left {
        (left_doc, left, right_doc, right)
    } else {
        (right_doc, right, left_doc, left)
    };
    // The build is an investment charged per input tuple.
    cost.charge_in(build.len());
    let symbols: Vec<Symbol> = build.iter().map(|&p| join_value(build_doc, p)).collect();
    let table = SymbolTable::from_pairs(&symbols, build);
    let mut pairs = Vec::new();
    for &p in probe {
        cost.charge_in(1);
        cost.charge_probe(1);
        for &m in table.get(join_value(probe_doc, p)) {
            cost.charge_out(1);
            if build_left {
                pairs.push((m, p));
            } else {
                pairs.push((p, m));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    fn setup() -> (
        Arc<Catalog>,
        Arc<Document>,
        Arc<Document>,
        ValueIndex,
        ValueIndex,
    ) {
        let cat = Arc::new(Catalog::new());
        let a = cat
            .load_str("a.xml", "<r><x>ann</x><x>bob</x><x>ann</x></r>")
            .unwrap();
        let b = cat
            .load_str("b.xml", "<r><y>ann</y><y>cat</y><y>bob</y></r>")
            .unwrap();
        let da = cat.doc(a);
        let db = cat.doc(b);
        let ia = ValueIndex::build(&da);
        let ib = ValueIndex::build(&db);
        (cat, da, db, ia, ib)
    }

    fn text_nodes(doc: &Document) -> Vec<Pre> {
        (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Text)
            .collect()
    }

    #[test]
    fn index_join_finds_cross_doc_matches() {
        let (_cat, da, _db, _ia, ib) = setup();
        let left = text_nodes(&da);
        let mut cost = Cost::new();
        let out = index_value_join(&da, &left, &ib, NodeKind::Text, None, None, &mut cost);
        // ann (x2 left) matches 1 right; bob matches 1 => 3 pairs.
        assert_eq!(out.pairs.len(), 3);
    }

    #[test]
    fn index_join_respects_filter() {
        let (_cat, da, db, _ia, ib) = setup();
        let left = text_nodes(&da);
        // Only allow the right "bob" text node.
        let right = text_nodes(&db);
        let bob_only: Vec<Pre> = right
            .iter()
            .copied()
            .filter(|&p| db.value_str(p) == "bob")
            .collect();
        let mut cost = Cost::new();
        let out = index_value_join(
            &da,
            &left,
            &ib,
            NodeKind::Text,
            Some(&bob_only),
            None,
            &mut cost,
        );
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(da.value_str(left[out.pairs[0].0 as usize]), "bob");
    }

    #[test]
    fn hash_join_matches_index_join() {
        let (_cat, da, db, _ia, ib) = setup();
        let left = text_nodes(&da);
        let right = text_nodes(&db);
        let mut c1 = Cost::new();
        let hash = hash_value_join(&da, &left, &db, &right, &mut c1);
        let mut c2 = Cost::new();
        let idx = index_value_join(&da, &left, &ib, NodeKind::Text, None, None, &mut c2);
        let mut hash_sorted = hash.clone();
        hash_sorted.sort_unstable();
        let mut idx_pairs: Vec<(Pre, Pre)> = idx
            .pairs
            .iter()
            .map(|&(r, s)| (left[r as usize], s))
            .collect();
        idx_pairs.sort_unstable();
        assert_eq!(hash_sorted, idx_pairs);
    }

    #[test]
    fn cutoff_on_index_join() {
        let (_cat, da, _db, _ia, ib) = setup();
        let left = text_nodes(&da);
        let mut cost = Cost::new();
        let out = index_value_join(&da, &left, &ib, NodeKind::Text, None, Some(1), &mut cost);
        assert!(out.truncated);
        assert_eq!(out.pairs.len(), 1);
        assert!(out.estimate() >= 1.0);
    }

    #[test]
    fn attribute_value_join() {
        let cat = Arc::new(Catalog::new());
        let a = cat
            .load_str("a.xml", r#"<r><e k="1"/><e k="2"/></r>"#)
            .unwrap();
        let b = cat
            .load_str("b.xml", r#"<r><f id="2"/><f id="3"/></r>"#)
            .unwrap();
        let da = cat.doc(a);
        let db = cat.doc(b);
        let ib = ValueIndex::build(&db);
        let attrs: Vec<Pre> = (0..da.node_count() as Pre)
            .filter(|&p| da.kind(p) == NodeKind::Attribute)
            .collect();
        let mut cost = Cost::new();
        let out = index_value_join(&da, &attrs, &ib, NodeKind::Attribute, None, None, &mut cost);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(da.value_str(attrs[out.pairs[0].0 as usize]), "2");
    }
}
