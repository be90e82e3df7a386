//! A deliberately naive reference evaluator used as a differential-testing
//! oracle: it evaluates the Join Graph with nested-loop node joins and
//! per-row predicate checks, sharing no staircase/index/hash code with the
//! engine under test (only base lists, the columnar relation type, and the
//! kernel's row-at-a-time [`edge_predicate`] face — which is itself
//! index-free by construction).

use crate::env::RoxEnv;
use rox_joingraph::{JoinGraph, VertexLabel};
use rox_ops::{edge_predicate, Cost, Relation};
use rox_xmldb::Pre;
use std::collections::HashMap;

/// Evaluate the whole graph naively; returns (joined, output-after-tail).
pub fn naive_evaluate(env: &RoxEnv, graph: &JoinGraph) -> (Relation, Relation) {
    // Component maintenance mirroring the real evaluator, but with O(n·m)
    // joins and no operator reuse.
    let mut comp_of: Vec<Option<usize>> = vec![None; graph.vertex_count()];
    let mut comps: Vec<Option<Relation>> = Vec::new();

    let ensure = |v: u32, comp_of: &mut Vec<Option<usize>>, comps: &mut Vec<Option<Relation>>| {
        if comp_of[v as usize].is_none() {
            let base = env.base_list(graph, v);
            let rel = Relation::single(v, env.doc_id(v), base.to_vec());
            comp_of[v as usize] = Some(comps.len());
            comps.push(Some(rel));
        }
    };

    for edge in graph.edges() {
        if edge.redundant {
            continue;
        }
        let (v1, v2) = (edge.v1, edge.v2);
        ensure(v1, &mut comp_of, &mut comps);
        ensure(v2, &mut comp_of, &mut comps);
        let c1 = comp_of[v1 as usize].unwrap();
        let c2 = comp_of[v2 as usize].unwrap();
        let class = edge.kind.class();
        let cross_doc = env.doc_id(v1) != env.doc_id(v2);
        let holds = |a: Pre, b: Pre| -> bool {
            if edge.is_step() && cross_doc {
                return false;
            }
            edge_predicate(class, &env.doc(v1), &env.doc(v2), a, b)
        };
        if c1 == c2 {
            let rel = comps[c1].take().unwrap();
            let keep: Vec<bool> = (0..rel.len())
                .map(|i| holds(rel.col(v1)[i], rel.col(v2)[i]))
                .collect();
            let mut rel = rel;
            rel.retain_rows(&keep);
            comps[c1] = Some(rel);
        } else {
            let left = comps[c1].take().unwrap();
            let right = comps[c2].take().unwrap();
            // All node pairs by nested loops over the distinct columns.
            let ln = left.distinct_nodes(v1);
            let rn = right.distinct_nodes(v2);
            let mut pairs = Vec::new();
            for &a in &ln {
                for &b in &rn {
                    if holds(a, b) {
                        pairs.push((a, b));
                    }
                }
            }
            let joined = Relation::compose(&left, v1, &right, v2, &pairs);
            for slot in comp_of.iter_mut() {
                if *slot == Some(c2) {
                    *slot = Some(c1);
                }
            }
            comps[c1] = Some(joined);
        }
    }

    // Materialize untouched non-root vertices and combine components.
    for v in graph.vertices() {
        if matches!(v.label, VertexLabel::Root) {
            continue;
        }
        ensure(v.id, &mut comp_of, &mut comps);
    }
    let mut parts: HashMap<usize, Relation> = HashMap::new();
    for v in graph.vertices() {
        if matches!(v.label, VertexLabel::Root) {
            continue;
        }
        let cid = comp_of[v.id as usize].unwrap();
        parts
            .entry(cid)
            .or_insert_with(|| comps[cid].clone().unwrap());
    }
    let mut ids: Vec<usize> = parts.keys().copied().collect();
    ids.sort_unstable();
    let mut joined: Option<Relation> = None;
    for cid in ids {
        let part = parts.remove(&cid).unwrap();
        joined = Some(match joined {
            None => part,
            Some(acc) => Relation::cartesian(&acc, &part),
        });
    }
    let joined = joined.unwrap_or_else(|| Relation::empty(vec![], vec![]));
    let output = crate::driver::plan_tail(graph).apply(&joined, &mut Cost::new());
    (joined, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{run_rox, RoxOptions};
    use rox_joingraph::compile_query;
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    #[test]
    fn naive_matches_rox_on_step_query() {
        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "d.xml",
            "<site><auction><bidder><ref/></bidder><bidder/></auction><auction><bidder><ref/><ref/></bidder></auction></site>",
        )
        .unwrap();
        let g = compile_query(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder, $r in $b/ref return $r"#,
        )
        .unwrap();
        let env = RoxEnv::new(Arc::clone(&cat), &g).unwrap();
        let (_, naive_out) = naive_evaluate(&env, &g);
        let rox = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(naive_out, rox.output);
    }

    #[test]
    fn naive_matches_rox_on_join_query() {
        let cat = Arc::new(Catalog::new());
        cat.load_str("x.xml", "<r><a>k1</a><a>k2</a><a>k2</a><a>zz</a></r>")
            .unwrap();
        cat.load_str("y.xml", "<r><b>k2</b><b>k1</b><b>k1</b></r>")
            .unwrap();
        let g = compile_query(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
        )
        .unwrap();
        let env = RoxEnv::new(Arc::clone(&cat), &g).unwrap();
        let (naive_joined, naive_out) = naive_evaluate(&env, &g);
        let rox = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(naive_joined.len(), rox.joined.len());
        assert_eq!(naive_out, rox.output);
    }
}
