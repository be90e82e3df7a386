//! Kernel-equivalence property tests: [`execute_edge_op`] must be
//! **bit-identical** — pairs, order, truncation bookkeeping, and cost
//! counters — to the pre-refactor per-call-site dispatch it replaced. The
//! `seed_*` functions below reimplement that original dispatch logic
//! (smaller-side direction choice, the `|small| * 8 < |large|` index-NL
//! heuristic, forced-direction cut-off sampling) verbatim on top of the
//! plain operators, and every case checks the kernel against it.

use proptest::prelude::*;
use rox_index::ValueIndex;
use rox_ops::{
    execute_edge_op, hash_value_join, index_value_join, step_join, Axis, Cost, DenseState,
    EdgeClass, EdgeOpCtx, EdgeOpKind, ExecMode,
};
use rox_xmldb::{Catalog, Document, NodeKind, Pre};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Pre-refactor reference dispatch (the logic formerly inlined in
// rox-core's state.rs and estimate.rs).
// ---------------------------------------------------------------------

/// Seed full-mode step execution: from the smaller side, inverse axis when
/// executing from `v2`, pairs oriented `(v1, v2)`.
fn seed_full_step(
    doc: &Document,
    axis: Axis,
    t1: &[Pre],
    t2: &[Pre],
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    let (from_t, to_t, ax, from_is_v1) = if t1.len() <= t2.len() {
        (t1, t2, axis, true)
    } else {
        (t2, t1, axis.inverse(), false)
    };
    let out = step_join(doc, ax, from_t, to_t, None, cost);
    out.pairs
        .into_iter()
        .map(|(row, s)| {
            let c = from_t[row as usize];
            if from_is_v1 {
                (c, s)
            } else {
                (s, c)
            }
        })
        .collect()
}

/// Seed full-mode value-join execution: smaller side outer, index-NL when
/// `|small| * 8 < |large|`, hash otherwise, pairs oriented `(v1, v2)`.
fn seed_full_value_join(
    d1: &Document,
    t1: &[Pre],
    i1: &ValueIndex,
    d2: &Document,
    t2: &[Pre],
    i2: &ValueIndex,
    cost: &mut Cost,
) -> (Vec<(Pre, Pre)>, EdgeOpKind) {
    let (small, large, small_is_v1) = if t1.len() <= t2.len() {
        (t1, t2, true)
    } else {
        (t2, t1, false)
    };
    if small.len() * 8 < large.len() {
        let (outer_doc, inner_idx) = if small_is_v1 { (d1, i2) } else { (d2, i1) };
        let out = index_value_join(
            outer_doc,
            small,
            inner_idx,
            NodeKind::Text,
            Some(large),
            None,
            cost,
        );
        let pairs = out
            .pairs
            .into_iter()
            .map(|(row, s)| {
                let c = small[row as usize];
                if small_is_v1 {
                    (c, s)
                } else {
                    (s, c)
                }
            })
            .collect();
        (pairs, EdgeOpKind::IndexNLValueJoin)
    } else {
        let pairs = hash_value_join(d1, t1, d2, t2, cost);
        (pairs, EdgeOpKind::HashValueJoin)
    }
}

// ---------------------------------------------------------------------
// Input generators.
// ---------------------------------------------------------------------

/// An always-well-formed random tree: sections with nested items.
fn nested_doc(blocks: &[(u8, u8)]) -> String {
    let mut s = String::from("<site>");
    for &(n, m) in blocks {
        s.push_str("<a>");
        for _ in 0..n % 4 {
            s.push_str("<b>");
            for _ in 0..m % 3 {
                s.push_str("<c/>");
            }
            s.push_str("</b>");
        }
        s.push_str("</a>");
    }
    s.push_str("</site>");
    s
}

fn value_doc(vals: &[u8]) -> String {
    let mut s = String::from("<r>");
    for &v in vals {
        s.push_str(&format!("<t>k{}</t>", v % 12));
    }
    s.push_str("</r>");
    s
}

fn subset(nodes: &[Pre], mask: u64) -> Vec<Pre> {
    nodes
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| (mask >> (i % 64)) & 1 == 1 || *i >= 64)
        .map(|(_, p)| p)
        .collect()
}

fn elements(doc: &Document) -> Vec<Pre> {
    (0..doc.node_count() as Pre)
        .filter(|&p| doc.kind(p) == NodeKind::Element)
        .collect()
}

fn texts(doc: &Document) -> Vec<Pre> {
    (0..doc.node_count() as Pre)
        .filter(|&p| doc.kind(p) == NodeKind::Text)
        .collect()
}

const AXES: [Axis; 8] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Parent,
    Axis::Ancestor,
    Axis::Following,
    Axis::Preceding,
    Axis::SelfAxis,
];

fn step_ctx<'a>(
    mode: ExecMode,
    axis: Axis,
    doc: &'a Document,
    t1: &'a [Pre],
    t2: &'a [Pre],
) -> EdgeOpCtx<'a> {
    EdgeOpCtx {
        class: EdgeClass::Step(axis),
        mode,
        doc1: doc,
        doc2: doc,
        input1: t1,
        input2: t2,
        index1: None,
        index2: None,
        kind1: NodeKind::Element,
        kind2: NodeKind::Element,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-mode step edges: kernel == seed dispatch, pairs and costs.
    #[test]
    fn full_step_matches_seed_dispatch(
        blocks in prop::collection::vec((0u8..4, 0u8..3), 1..25),
        axis_i in 0usize..AXES.len(),
        m1 in any::<u64>(),
        m2 in any::<u64>(),
    ) {
        let axis = AXES[axis_i];
        let cat = Arc::new(Catalog::new());
        let id = cat.load_str("d.xml", &nested_doc(&blocks)).unwrap();
        let doc = cat.doc(id);
        let all = elements(&doc);
        let t1 = subset(&all, m1);
        let t2 = subset(&all, m2);
        let mut seed_cost = Cost::new();
        let expected = seed_full_step(&doc, axis, &t1, &t2, &mut seed_cost);
        let mut kernel_cost = Cost::new();
        let out = execute_edge_op(
            step_ctx(ExecMode::Full, axis, &doc, &t1, &t2),
            DenseState::default(),
            &mut kernel_cost,
        );
        prop_assert_eq!(out.choice.kind, EdgeOpKind::StepJoin);
        prop_assert_eq!(out.choice.outer_is_v1, t1.len() <= t2.len());
        prop_assert_eq!(out.result.into_full(), expected);
        prop_assert_eq!(kernel_cost, seed_cost);
    }

    /// Sampled-mode step edges with a forced outer side and cut-off:
    /// kernel == direct step_join call of the seed.
    #[test]
    fn sampled_step_matches_seed_dispatch(
        blocks in prop::collection::vec((0u8..4, 0u8..3), 1..25),
        axis_i in 0usize..AXES.len(),
        m1 in any::<u64>(),
        m2 in any::<u64>(),
        limit in 1usize..30,
        outer_is_v1 in any::<bool>(),
    ) {
        let axis = AXES[axis_i];
        let cat = Arc::new(Catalog::new());
        let id = cat.load_str("d.xml", &nested_doc(&blocks)).unwrap();
        let doc = cat.doc(id);
        let all = elements(&doc);
        let t1 = subset(&all, m1);
        let t2 = subset(&all, m2);
        // Seed logic: outer = the caller-fixed endpoint, inverse axis when
        // executing from v2.
        let (outer, inner, ax) = if outer_is_v1 {
            (&t1, &t2, axis)
        } else {
            (&t2, &t1, axis.inverse())
        };
        let mut seed_cost = Cost::new();
        let expected = step_join(&doc, ax, outer, inner, Some(limit), &mut seed_cost);
        let mut kernel_cost = Cost::new();
        let out = execute_edge_op(
            step_ctx(
                ExecMode::Sampled { limit, outer_is_v1 },
                axis,
                &doc,
                &t1,
                &t2,
            ),
            DenseState::default(),
            &mut kernel_cost,
        );
        let got = out.result.into_sampled();
        prop_assert_eq!(got.pairs, expected.pairs);
        prop_assert_eq!(got.truncated, expected.truncated);
        prop_assert_eq!(got.reduction_factor(), expected.reduction_factor());
        prop_assert_eq!(kernel_cost, seed_cost);
    }

    /// Full-mode value joins: kernel == seed dispatch (including the
    /// documented NL-vs-hash crossover).
    #[test]
    fn full_value_join_matches_seed_dispatch(
        l in prop::collection::vec(any::<u8>(), 0..40),
        r in prop::collection::vec(any::<u8>(), 0..40),
        m1 in any::<u64>(),
        m2 in any::<u64>(),
    ) {
        let cat = Arc::new(Catalog::new());
        let a = cat.load_str("a.xml", &value_doc(&l)).unwrap();
        let b = cat.load_str("b.xml", &value_doc(&r)).unwrap();
        let (da, db) = (cat.doc(a), cat.doc(b));
        let (ia, ib) = (ValueIndex::build(&da), ValueIndex::build(&db));
        let t1 = subset(&texts(&da), m1);
        let t2 = subset(&texts(&db), m2);
        let mut seed_cost = Cost::new();
        let (expected, expected_kind) =
            seed_full_value_join(&da, &t1, &ia, &db, &t2, &ib, &mut seed_cost);
        let mut kernel_cost = Cost::new();
        let out = execute_edge_op(
            EdgeOpCtx {
                class: EdgeClass::ValueJoin,
                mode: ExecMode::Full,
                doc1: &da,
                doc2: &db,
                input1: &t1,
                input2: &t2,
                index1: Some(&ia),
                index2: Some(&ib),
                kind1: NodeKind::Text,
                kind2: NodeKind::Text,
            },
            DenseState::default(),
            &mut kernel_cost,
        );
        prop_assert_eq!(out.choice.kind, expected_kind);
        prop_assert_eq!(out.result.into_full(), expected);
        prop_assert_eq!(kernel_cost, seed_cost);
    }

    /// Sampled-mode value joins: kernel == the seed's forced-direction
    /// index nested loop with filter and cut-off.
    #[test]
    fn sampled_value_join_matches_seed_dispatch(
        l in prop::collection::vec(any::<u8>(), 0..40),
        r in prop::collection::vec(any::<u8>(), 0..40),
        m1 in any::<u64>(),
        m2 in any::<u64>(),
        limit in 1usize..20,
        outer_is_v1 in any::<bool>(),
    ) {
        let cat = Arc::new(Catalog::new());
        let a = cat.load_str("a.xml", &value_doc(&l)).unwrap();
        let b = cat.load_str("b.xml", &value_doc(&r)).unwrap();
        let (da, db) = (cat.doc(a), cat.doc(b));
        let (ia, ib) = (ValueIndex::build(&da), ValueIndex::build(&db));
        let t1 = subset(&texts(&da), m1);
        let t2 = subset(&texts(&db), m2);
        let (outer_doc, outer, inner, inner_idx) = if outer_is_v1 {
            (&da, &t1, &t2, &ib)
        } else {
            (&db, &t2, &t1, &ia)
        };
        let mut seed_cost = Cost::new();
        let expected = index_value_join(
            outer_doc,
            outer,
            inner_idx,
            NodeKind::Text,
            Some(inner),
            Some(limit),
            &mut seed_cost,
        );
        let mut kernel_cost = Cost::new();
        let out = execute_edge_op(
            EdgeOpCtx {
                class: EdgeClass::ValueJoin,
                mode: ExecMode::Sampled { limit, outer_is_v1 },
                doc1: &da,
                doc2: &db,
                input1: &t1,
                input2: &t2,
                index1: Some(&ia),
                index2: Some(&ib),
                kind1: NodeKind::Text,
                kind2: NodeKind::Text,
            },
            DenseState::default(),
            &mut kernel_cost,
        );
        prop_assert_eq!(out.choice.kind, EdgeOpKind::IndexNLValueJoin);
        let got = out.result.into_sampled();
        prop_assert_eq!(got.pairs, expected.pairs);
        prop_assert_eq!(got.truncated, expected.truncated);
        prop_assert_eq!(kernel_cost, seed_cost);
    }
}
