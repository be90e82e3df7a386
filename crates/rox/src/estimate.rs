//! Sampling-based cardinality estimation (§2.3 and Algorithm 1's
//! `EstimateCard`).
//!
//! An edge is sampled by feeding a (τ-sized) sample of one endpoint into
//! the edge's operator with cut-off execution, then linearly extrapolating:
//!
//! ```text
//! EstimateCard(e) = card(v)/|S(v)| × est,   (R, est) = τ(exec(e, S(v), T(v′)))
//! ```
//!
//! Only zero-investment operators are sampled: staircase steps and the
//! index nested-loop value join. The inner side is the materialized `T(v′)`
//! when available, else the vertex's index base list. Dispatch goes
//! through the edge-operator kernel ([`rox_ops::edgeop`]) in
//! [`ExecMode::Sampled`], so the operator sampled here is chosen by the
//! same cost function that full execution consults.

use crate::state::EvalState;
use rox_joingraph::{EdgeId, VertexId};
use rox_ops::{execute_edge_op, Cost, DenseState, EdgeOpCtx, EdgeOpKind, ExecMode};
use rox_xmldb::Pre;

/// Output of one sampled edge execution.
#[derive(Debug, Clone)]
pub(crate) struct SampledExec {
    /// Result nodes (the `v′` side of produced pairs, multiplicity kept,
    /// in context order) — the `I(p′)` input of the next chain round.
    pub output: Vec<Pre>,
    /// Extrapolated full cardinality of the operator on this input.
    pub est: f64,
    /// The physical operator the kernel chose (recorded in chain traces).
    pub op: EdgeOpKind,
}

/// Execute edge `e` on a *sample* of nodes of `from` (the outer side),
/// cutting off at `limit` produced pairs. `input` must be sorted on pre
/// (duplicates allowed — chain sampling feeds flow-through outputs).
pub(crate) fn sampled_edge_exec(
    state: &EvalState<'_>,
    e: EdgeId,
    from: VertexId,
    input: &[Pre],
    limit: usize,
    cost: &mut Cost,
) -> SampledExec {
    let edge = state.graph.edge(e);
    debug_assert!(
        edge.v1 == from || edge.v2 == from,
        "from must be an endpoint"
    );
    let to = edge.other(from);
    let outer_is_v1 = edge.v1 == from;
    let from_doc = state.env.doc(from);
    let to_doc = state.env.doc(to);
    let inner = state.table_or_base(to);
    // The inner value index and membership bitset (value joins only;
    // steps need neither). The bitset comes from the evaluation state's
    // scratch arena, so repeated rounds over an unchanged `T(v′)` probe
    // the same buffer instead of rebuilding it per sampled run.
    let to_indexes = (!edge.is_step()).then(|| state.env.store().indexes(state.env.doc_id(to)));
    let to_index = to_indexes.as_ref().map(|i| &i.value);
    let to_set = (!edge.is_step()).then(|| state.vertex_set(to));
    let (from_kind, to_kind) = (state.vertex_kind(from), state.vertex_kind(to));
    let mode = ExecMode::Sampled { limit, outer_is_v1 };
    let (ctx, dense) = if outer_is_v1 {
        (
            EdgeOpCtx {
                class: edge.kind.class(),
                mode,
                doc1: &from_doc,
                doc2: &to_doc,
                input1: input,
                input2: &inner,
                index1: None,
                index2: to_index,
                kind1: from_kind,
                kind2: to_kind,
            },
            DenseState {
                set2: to_set.as_deref(),
                ..DenseState::default()
            },
        )
    } else {
        (
            EdgeOpCtx {
                class: edge.kind.class(),
                mode,
                doc1: &to_doc,
                doc2: &from_doc,
                input1: &inner,
                input2: input,
                index1: to_index,
                index2: None,
                kind1: to_kind,
                kind2: from_kind,
            },
            DenseState {
                set1: to_set.as_deref(),
                ..DenseState::default()
            },
        )
    };
    let out = execute_edge_op(ctx, dense, cost);
    let run = out.result.into_sampled();
    SampledExec {
        est: run.estimate(),
        output: run.pairs.into_iter().map(|(_, s)| s).collect(),
        op: out.choice.kind,
    }
}

/// `EstimateCard(e)`: the weight of an unexecuted edge — its estimated
/// node-level result cardinality on the current `T` tables. Returns `None`
/// when neither endpoint has a sample yet (the edge "stays unweighted for
/// now", §3 Phase 1).
pub(crate) fn estimate_card(
    state: &EvalState<'_>,
    e: EdgeId,
    tau: usize,
    cost: &mut Cost,
) -> Option<f64> {
    let edge = state.graph.edge(e);
    // Choose the sampled endpoint: the smaller-cardinality one among those
    // that actually have a sample ("a sample from a smaller table provides
    // a more representative set").
    let mut candidates: Vec<VertexId> = [edge.v1, edge.v2]
        .into_iter()
        .filter(|&v| state.sample(v).is_some())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by_key(|&v| state.card(v));
    let from = candidates[0];
    let s = state.sample(from).expect("sample present");
    if s.is_empty() {
        return Some(0.0);
    }
    let run = sampled_edge_exec(state, e, from, s, tau, cost);
    let scale = state.card(from) as f64 / s.len() as f64;
    Some(run.est * scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RoxEnv;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rox_joingraph::{compile_query, EdgeKind, JoinGraph};
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    fn setup(src: &str, docs: &[(&str, &str)]) -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        for (uri, xml) in docs {
            cat.load_str(uri, xml).unwrap();
        }
        (cat, compile_query(src).unwrap())
    }

    fn many_auctions(n: usize, bidders_per: usize) -> String {
        let mut s = String::from("<site>");
        for _ in 0..n {
            s.push_str("<auction>");
            for _ in 0..bidders_per {
                s.push_str("<bidder/>");
            }
            s.push_str("</auction>");
        }
        s.push_str("</site>");
        s
    }

    #[test]
    fn step_estimate_is_close_to_truth() {
        let xml = many_auctions(200, 3);
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", &xml)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        let mut rng = StdRng::seed_from_u64(5);
        let a = g.var_vertices["a"];
        st.seed_sample(a, &mut rng, 50);
        let e = g.edges().iter().find(|e| !e.redundant).unwrap().id;
        let mut cost = Cost::new();
        let w = estimate_card(&st, e, 50, &mut cost).unwrap();
        // True cardinality: 600 pairs. Allow sampling noise.
        assert!(w > 300.0 && w < 1200.0, "w = {w}");
        assert!(cost.total() > 0);
    }

    #[test]
    fn unweighted_without_samples() {
        let xml = many_auctions(5, 1);
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", &xml)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let st = EvalState::new(&env, &g);
        let e = g.edges().iter().find(|e| !e.redundant).unwrap().id;
        assert_eq!(estimate_card(&st, e, 10, &mut Cost::new()), None);
    }

    #[test]
    fn equi_join_estimate() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k</a><a>k</a><a>z</a></r>"),
                ("y.xml", "<r><b>k</b><b>w</b></r>"),
            ],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        let mut rng = StdRng::seed_from_u64(5);
        // Seed samples on the text vertices adjacent to the equi edge.
        let equi = g
            .edges()
            .iter()
            .find(|e| matches!(e.kind, EdgeKind::EquiJoin { .. }))
            .unwrap();
        st.seed_sample(equi.v1, &mut rng, 100);
        st.seed_sample(equi.v2, &mut rng, 100);
        let w = estimate_card(&st, equi.id, 100, &mut Cost::new()).unwrap();
        // Exact: "k"x2 matches 1 -> 2 pairs (full sample, no cutoff).
        assert_eq!(w, 2.0);
    }

    #[test]
    fn sampled_exec_respects_direction() {
        let xml = many_auctions(10, 2);
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", &xml)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let st = EvalState::new(&env, &g);
        let e = g.edges().iter().find(|e| !e.redundant).unwrap();
        // Execute from the bidder side: parent step.
        let bidders = st.table_or_base(e.v2);
        let mut cost = Cost::new();
        let run = sampled_edge_exec(&st, e.id, e.v2, &bidders, 1000, &mut cost);
        assert_eq!(run.output.len(), 20); // each bidder has one auction parent
        assert_eq!(run.est, 20.0);
    }
}
