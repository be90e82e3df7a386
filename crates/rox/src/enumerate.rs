//! The plan-enumeration tool of §4.2: join orders and canonical step
//! placements for star-shaped value-join queries (the DBLP workload).
//!
//! A "join order" fixes the order of the equi-joins (18 distinct linear
//! and bushy orders for the 4-way query, Fig. 5's legend); a "placement"
//! fixes where the XPath steps run relative to the joins:
//!
//! * `SJ`  — all steps first, then the joins;
//! * `JS`  — one step first, then all joins, remaining steps last;
//! * `S_J` — each document's steps right after the document is joined in.

use crate::env::RoxEnv;
use crate::state::EvalState;
use rox_joingraph::{EdgeId, EdgeKind, JoinGraph, VertexId};
use std::collections::{HashSet, VecDeque};

/// One document's slice of a star query.
#[derive(Debug, Clone)]
pub struct Member {
    /// The value vertex participating in the equi-join class.
    pub value_vertex: VertexId,
    /// Non-redundant step edges that constrain it, outermost first.
    pub prep_edges: Vec<EdgeId>,
    /// Document URI (for display).
    pub doc_uri: String,
}

/// A query whose equi-joins form one equivalence class over k documents.
#[derive(Debug, Clone)]
pub struct StarQuery {
    /// Members in appearance order.
    pub members: Vec<Member>,
}

/// Recognize the star structure; `None` when the graph does not match
/// (e.g. the XMark queries, which have two separate join pairs).
pub fn analyze_star(graph: &JoinGraph) -> Option<StarQuery> {
    let value_vertices: Vec<VertexId> = {
        let mut vs: HashSet<VertexId> = HashSet::new();
        for e in graph.edges() {
            if matches!(e.kind, EdgeKind::EquiJoin { .. }) {
                vs.insert(e.v1);
                vs.insert(e.v2);
            }
        }
        let mut vs: Vec<VertexId> = vs.into_iter().collect();
        vs.sort_unstable();
        vs
    };
    if value_vertices.len() < 2 {
        return None;
    }
    // All value vertices must be pairwise connected (the closure has run).
    for (i, &a) in value_vertices.iter().enumerate() {
        for &b in &value_vertices[i + 1..] {
            if !graph.has_edge_between(a, b) {
                return None;
            }
        }
    }
    // Each member: the step edges reachable from its value vertex without
    // crossing equi-join or redundant edges.
    let mut members = Vec::new();
    let mut claimed: HashSet<EdgeId> = HashSet::new();
    for &v in &value_vertices {
        let mut prep = Vec::new();
        let mut depth: Vec<(EdgeId, usize)> = Vec::new();
        let mut seen_v: HashSet<VertexId> = HashSet::new();
        let mut q = VecDeque::new();
        q.push_back((v, 0usize));
        seen_v.insert(v);
        while let Some((cur, d)) = q.pop_front() {
            for &e in graph.edges_of(cur) {
                let edge = graph.edge(e);
                if edge.redundant || !edge.is_step() || claimed.contains(&e) {
                    continue;
                }
                let other = edge.other(cur);
                if claimed.insert(e) {
                    depth.push((e, d));
                }
                if seen_v.insert(other) {
                    q.push_back((other, d + 1));
                }
            }
        }
        // Outermost (farthest from the value vertex) first.
        depth.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prep.extend(depth.into_iter().map(|(e, _)| e));
        members.push(Member {
            value_vertex: v,
            prep_edges: prep,
            doc_uri: graph.vertex(v).doc_uri.clone(),
        });
    }
    // Every non-redundant edge must be covered (steps by preps, the rest
    // equi-joins) or the graph has structure the enumerator cannot place.
    let covered: usize = members.iter().map(|m| m.prep_edges.len()).sum();
    let steps = graph
        .edges()
        .iter()
        .filter(|e| e.is_step() && !e.redundant)
        .count();
    if covered != steps {
        return None;
    }
    Some(StarQuery { members })
}

/// A join order: a sequence of component merges, each named by the member
/// indices whose components it connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOrder {
    /// Display name in the paper's notation, e.g. `(2-1)-3-4`.
    pub name: String,
    /// Member-index pairs to merge, in order.
    pub merges: Vec<(usize, usize)>,
}

/// Enumerate all distinct join orders for `k` members (2 ≤ k ≤ 4):
/// 1 for k=2, 3 for k=3, and the paper's 18 for k=4 (12 linear + 6 bushy).
pub fn enumerate_join_orders(k: usize) -> Vec<JoinOrder> {
    assert!(
        (2..=4).contains(&k),
        "join-order enumeration supports 2..=4 members"
    );
    let mut out = Vec::new();
    match k {
        2 => out.push(JoinOrder {
            name: "(1-2)".into(),
            merges: vec![(0, 1)],
        }),
        3 => {
            for (i, j) in [(0, 1), (0, 2), (1, 2)] {
                let rest = (0..3).find(|x| *x != i && *x != j).unwrap();
                out.push(JoinOrder {
                    name: format!("({}-{})-{}", i + 1, j + 1, rest + 1),
                    merges: vec![(i, j), (i, rest)],
                });
            }
        }
        4 => {
            let pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
            for &(i, j) in &pairs {
                let rest: Vec<usize> = (0..4).filter(|x| *x != i && *x != j).collect();
                let (k1, k2) = (rest[0], rest[1]);
                // Linear: two orders of the remaining attachments.
                out.push(JoinOrder {
                    name: format!("({}-{})-{}-{}", i + 1, j + 1, k1 + 1, k2 + 1),
                    merges: vec![(i, j), (i, k1), (i, k2)],
                });
                out.push(JoinOrder {
                    name: format!("({}-{})-{}-{}", i + 1, j + 1, k2 + 1, k1 + 1),
                    merges: vec![(i, j), (i, k2), (i, k1)],
                });
                // Bushy: the other pair joins on its own first.
                out.push(JoinOrder {
                    name: format!("({}-{})-({}-{})", i + 1, j + 1, k1 + 1, k2 + 1),
                    merges: vec![(i, j), (k1, k2), (i, k1)],
                });
            }
        }
        _ => unreachable!(),
    }
    out
}

/// Canonical step placements (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All steps before all joins.
    SJ,
    /// One step, all joins, remaining steps.
    JS,
    /// Steps interleaved right after each document joins.
    SJInterleaved,
}

impl Placement {
    /// All three canonical placements.
    pub const ALL: [Placement; 3] = [Placement::SJ, Placement::JS, Placement::SJInterleaved];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Placement::SJ => "SJ",
            Placement::JS => "JS",
            Placement::SJInterleaved => "S_J",
        }
    }
}

/// Materialize a `(join order, placement)` pair into an edge sequence
/// executable by [`run_plan`](crate::plan::run_plan).
pub fn plan_edges(
    graph: &JoinGraph,
    star: &StarQuery,
    order: &JoinOrder,
    placement: Placement,
) -> Vec<EdgeId> {
    // The equi edge connecting two members (exists by closure).
    let join_edge = |a: usize, b: usize| -> EdgeId {
        let va = star.members[a].value_vertex;
        let vb = star.members[b].value_vertex;
        graph
            .edges_of(va)
            .iter()
            .copied()
            .find(|&e| {
                let edge = graph.edge(e);
                matches!(edge.kind, EdgeKind::EquiJoin { .. }) && edge.other(va) == vb
            })
            .expect("closure edge between members")
    };
    // Member appearance order.
    let mut appearance: Vec<usize> = Vec::new();
    for &(a, b) in &order.merges {
        for m in [a, b] {
            if !appearance.contains(&m) {
                appearance.push(m);
            }
        }
    }
    let joins: Vec<EdgeId> = order.merges.iter().map(|&(a, b)| join_edge(a, b)).collect();
    let mut edges = Vec::new();
    match placement {
        Placement::SJ => {
            for &m in &appearance {
                edges.extend_from_slice(&star.members[m].prep_edges);
            }
            edges.extend_from_slice(&joins);
        }
        Placement::JS => {
            edges.extend_from_slice(&star.members[appearance[0]].prep_edges);
            edges.extend_from_slice(&joins);
            for &m in &appearance[1..] {
                edges.extend_from_slice(&star.members[m].prep_edges);
            }
        }
        Placement::SJInterleaved => {
            let mut prepped: HashSet<usize> = HashSet::new();
            let first = order.merges[0].0;
            edges.extend_from_slice(&star.members[first].prep_edges);
            prepped.insert(first);
            for (idx, &(a, b)) in order.merges.iter().enumerate() {
                edges.push(joins[idx]);
                for m in [a, b] {
                    if prepped.insert(m) {
                        edges.extend_from_slice(&star.members[m].prep_edges);
                    }
                }
            }
        }
    }
    // The join-equivalence closure leaves (k·(k-1)/2 − (k−1)) equi edges
    // unused by any spanning order; once the spanning joins ran they are
    // trivially satisfied (value equality is transitive) and execute as
    // no-op selections at the end.
    for e in graph.edges() {
        if !e.redundant && matches!(e.kind, EdgeKind::EquiJoin { .. }) && !edges.contains(&e.id) {
            edges.push(e.id);
        }
    }
    edges
}

/// The classical compile-time baseline of §4.2: exact cardinalities inside
/// each document (it "can correctly estimate the result size of an
/// operator executed in the context of a single document"), and a
/// smallest-input-first linear order across documents, where cross-
/// document join selectivities are unknown. The isolated prep-chain
/// executions run through the evaluation state's `execute_edge` and hence
/// the same edge-operator kernel as every other phase.
pub fn classical_join_order(env: &RoxEnv, graph: &JoinGraph, star: &StarQuery) -> JoinOrder {
    // Exact per-document constrained cardinality of each value vertex:
    // execute the member's prep chain in isolation (single-document work a
    // classical optimizer can estimate precisely from statistics).
    let mut sizes: Vec<(usize, usize)> = star
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let mut st = EvalState::new(env, graph);
            for e in graph.edges() {
                if e.redundant {
                    st.mark_executed(e.id);
                }
            }
            for &e in &m.prep_edges {
                st.execute_edge(e, None);
            }
            (i, st.card(m.value_vertex))
        })
        .collect();
    sizes.sort_by_key(|&(i, c)| (c, i));
    let seq: Vec<usize> = sizes.iter().map(|&(i, _)| i).collect();
    let mut merges = vec![(seq[0], seq[1])];
    for &m in &seq[2..] {
        merges.push((seq[0], m));
    }
    let name = {
        let mut s = format!("classical:({}-{})", seq[0] + 1, seq[1] + 1);
        for &m in &seq[2..] {
            s.push_str(&format!("-{}", m + 1));
        }
        s
    };
    JoinOrder { name, merges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;
    use rox_joingraph::compile_query;
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    const DBLP_Q: &str = r#"
        for $a1 in doc("D1.xml")//author,
            $a2 in doc("D2.xml")//author,
            $a3 in doc("D3.xml")//author,
            $a4 in doc("D4.xml")//author
        where $a1/text() = $a2/text() and
              $a1/text() = $a3/text() and
              $a1/text() = $a4/text()
        return $a1
    "#;

    fn doc(authors: &[&str]) -> String {
        let mut s = String::from("<j>");
        for a in authors {
            s.push_str(&format!(
                "<article><author>{a}</author><title>t</title></article>"
            ));
        }
        s.push_str("</j>");
        s
    }

    fn setup() -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        cat.load_str("D1.xml", &doc(&["ann", "bob", "cat"]))
            .unwrap();
        cat.load_str("D2.xml", &doc(&["ann", "bob"])).unwrap();
        cat.load_str("D3.xml", &doc(&["ann", "dan", "eva", "fox"]))
            .unwrap();
        cat.load_str("D4.xml", &doc(&["ann"])).unwrap();
        (cat, compile_query(DBLP_Q).unwrap())
    }

    #[test]
    fn analyze_finds_four_members() {
        let (_cat, g) = setup();
        let star = analyze_star(&g).unwrap();
        assert_eq!(star.members.len(), 4);
        for m in &star.members {
            assert_eq!(m.prep_edges.len(), 1, "author/text step only");
        }
    }

    #[test]
    fn eighteen_orders_for_four_members() {
        let orders = enumerate_join_orders(4);
        assert_eq!(orders.len(), 18);
        let names: HashSet<String> = orders.iter().map(|o| o.name.clone()).collect();
        assert_eq!(names.len(), 18, "names unique");
        assert!(names.contains("(1-2)-3-4"));
        assert!(names.contains("(3-4)-(1-2)"));
    }

    #[test]
    fn all_orders_and_placements_agree_on_output() {
        let (cat, g) = setup();
        let star = analyze_star(&g).unwrap();
        let mut reference: Option<rox_ops::Relation> = None;
        for order in enumerate_join_orders(4) {
            for placement in Placement::ALL {
                let edges = plan_edges(&g, &star, &order, placement);
                let run = run_plan(Arc::clone(&cat), &g, &edges).unwrap();
                match &reference {
                    None => reference = Some(run.output),
                    Some(r) => assert_eq!(
                        r,
                        &run.output,
                        "order {} placement {}",
                        order.name,
                        placement.label()
                    ),
                }
            }
        }
        // Only "ann" appears in all four documents.
        assert_eq!(reference.unwrap().len(), 1);
    }

    #[test]
    fn classical_prefers_smallest_inputs_first() {
        let (cat, g) = setup();
        let star = analyze_star(&g).unwrap();
        let env = RoxEnv::new(cat, &g).unwrap();
        let order = classical_join_order(&env, &g, &star);
        // D4 (1 author) and D2 (2 authors) are smallest.
        assert_eq!(order.merges[0], (3, 1));
        assert_eq!(order.merges.len(), 3);
    }

    #[test]
    fn xmark_query_is_not_a_star() {
        let g = compile_query(
            r#"
            let $d := doc("x.xml")
            for $o in $d//open_auction, $p in $d//person, $i in $d//item
            where $o//personref/@person = $p/@id and $o//itemref/@item = $i/@id
            return $o
        "#,
        )
        .unwrap();
        assert!(analyze_star(&g).is_none(), "two separate join pairs");
    }

    #[test]
    fn three_member_enumeration() {
        let orders = enumerate_join_orders(3);
        assert_eq!(orders.len(), 3);
    }
}
