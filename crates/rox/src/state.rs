//! The evaluation state: fully-materialized execution of Join Graph edges.
//!
//! ROX "executes the operations in the Join Graph one by one, fully
//! materializing partial results" (§1.1). The state tracks:
//!
//! * **components** — maximal sets of vertices connected by already
//!   executed edges, each with its materialized fully-joined [`Relation`];
//! * **per-vertex tables** `T(v)` — the distinct nodes of `v` that still
//!   participate (Algorithm 1's semijoin-reduced vertex tables), plus
//!   `card(v)` and the sample `S(v)`;
//! * the executed-edge set and a per-edge result-size log (the data behind
//!   Fig. 5's cumulative intermediate cardinalities).
//!
//! Executing an edge between two components joins their relations through
//! node-level pairs produced by a staircase or value join; an edge within
//! one component is a selection. Both preserve XQuery multiplicity
//! semantics.

use crate::env::RoxEnv;
use rand::rngs::StdRng;
use rox_index::{sample_sorted, PreSet};
use rox_joingraph::{EdgeId, JoinGraph, VertexId, VertexLabel};
use rox_ops::{
    edge_predicate, execute_edge_op, Cost, DenseState, EdgeOpCtx, EdgeOpKind, ExecMode, Relation,
};
use rox_xmldb::{NodeKind, Pre};
use std::cell::RefCell;
use std::sync::Arc;

/// One executed edge: the size of the component relation it produced and
/// the physical operator the kernel chose for it (the per-edge record
/// behind Fig-6-style plan-class analysis), plus the node-level observed
/// cardinalities the guarded plan replay compares against its recorded
/// expectations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeExec {
    /// The edge.
    pub edge: EdgeId,
    /// Rows of the (merged or filtered) component relation afterwards.
    pub result_rows: usize,
    /// The physical operator that executed the edge
    /// ([`EdgeOpKind::Select`] for intra-component selections).
    pub op: EdgeOpKind,
    /// Node-level pairs the edge operator produced (for a selection: rows
    /// kept) — the observed cardinality a guarded replay checks.
    pub pairs: usize,
    /// Distinct input cardinalities `(|T(v1)|, |T(v2)|)` at execution
    /// time, the denominators of the observed reduction factor.
    pub inputs: (usize, usize),
}

impl EdgeExec {
    /// Observed reduction factor `pairs / (|T(v1)|·|T(v2)|)` — the per-edge
    /// selectivity a cached plan records so a later replay can detect
    /// correlation drift even when base cardinalities are unchanged.
    pub fn reduction(&self) -> f64 {
        let denom = (self.inputs.0 as f64) * (self.inputs.1 as f64);
        if denom == 0.0 {
            return 0.0;
        }
        self.pairs as f64 / denom
    }
}

/// Per-vertex scratch arena: the membership bitset over `T(v)`-or-base
/// that the sampled index nested-loop joins of the estimate → chain loop
/// would otherwise rebuild for every run on the same unchanged vertex
/// table.
///
/// Entries are built lazily by estimates ([`EvalState::vertex_set`]),
/// only *peeked* at by full execution, and
/// **invalidated on every write to `T(v)`** — the one rule that keeps a
/// cached set interchangeable with a fresh build. Reuse never changes
/// results *or* cost counters: bitset membership is uncharged (as the
/// binary search it replaced was).
struct Scratch {
    /// vertex → membership bitset over `table_or_base(v)`.
    sets: RefCell<Vec<Option<Arc<PreSet>>>>,
}

impl Scratch {
    fn new(vertices: usize) -> Self {
        Scratch {
            sets: RefCell::new(vec![None; vertices]),
        }
    }

    /// The cached set of `v`, if an estimate built one since the last
    /// `T(v)` write.
    fn peek(&self, v: VertexId) -> Option<Arc<PreSet>> {
        self.sets.borrow()[v as usize].clone()
    }

    /// Drop the cached set of `v` (call on every `T(v)` write).
    fn invalidate(&self, v: VertexId) {
        self.sets.borrow_mut()[v as usize] = None;
    }
}

/// Mutable evaluation state over one graph and environment.
pub(crate) struct EvalState<'a> {
    /// The environment (documents + indices).
    pub(crate) env: &'a RoxEnv,
    /// The Join Graph being evaluated.
    pub(crate) graph: &'a JoinGraph,
    comp_of: Vec<Option<usize>>,
    components: Vec<Option<Relation>>,
    t: Vec<Option<Arc<Vec<Pre>>>>,
    card: Vec<Option<usize>>,
    sample: Vec<Option<Arc<Vec<Pre>>>>,
    executed: Vec<bool>,
    /// Reusable membership bitset per vertex, invalidated whenever `T(v)`
    /// changes.
    scratch: Scratch,
    /// Work done by full edge executions.
    pub(crate) exec_cost: Cost,
    /// Log of executed edges with result sizes, in execution order.
    pub(crate) edge_log: Vec<EdgeExec>,
}

impl<'a> EvalState<'a> {
    /// Fresh state; nothing materialized, nothing executed.
    pub(crate) fn new(env: &'a RoxEnv, graph: &'a JoinGraph) -> Self {
        let nv = graph.vertex_count();
        EvalState {
            env,
            graph,
            comp_of: vec![None; nv],
            components: Vec::new(),
            t: vec![None; nv],
            card: vec![None; nv],
            sample: vec![None; nv],
            executed: vec![false; graph.edge_count()],
            scratch: Scratch::new(nv),
            exec_cost: Cost::new(),
            edge_log: Vec::new(),
        }
    }

    /// Has edge `e` been executed (or skipped as redundant)?
    pub(crate) fn is_executed(&self, e: EdgeId) -> bool {
        self.executed[e as usize]
    }

    /// Mark an edge executed without running it (redundant root steps).
    pub(crate) fn mark_executed(&mut self, e: EdgeId) {
        self.executed[e as usize] = true;
    }

    /// Ids of unexecuted edges.
    pub(crate) fn unexecuted_edges(&self) -> Vec<EdgeId> {
        (0..self.graph.edge_count() as EdgeId)
            .filter(|&e| !self.executed[e as usize])
            .collect()
    }

    /// Unexecuted edges incident to `v` (the paper's `edges(v)`).
    pub(crate) fn unexecuted_edges_of(&self, v: VertexId) -> Vec<EdgeId> {
        self.graph
            .edges_of(v)
            .iter()
            .copied()
            .filter(|&e| !self.executed[e as usize])
            .collect()
    }

    /// `T(v)` if materialized, else the vertex base list (the index lookup
    /// the execution would initialize `T(v)` with) — what sampled
    /// estimation probes as the "inner" side.
    pub(crate) fn table_or_base(&self, v: VertexId) -> Arc<Vec<Pre>> {
        match &self.t[v as usize] {
            Some(t) => Arc::clone(t),
            None => self.env.base_list(self.graph, v),
        }
    }

    /// `card(v)`: materialized count if available, else the base count.
    pub(crate) fn card(&self, v: VertexId) -> usize {
        match self.card[v as usize] {
            Some(c) => c,
            None => self.env.base_count(self.graph, v),
        }
    }

    /// `S(v)` if present.
    pub(crate) fn sample(&self, v: VertexId) -> Option<&Arc<Vec<Pre>>> {
        self.sample[v as usize].as_ref()
    }

    /// The membership bitset over [`EvalState::table_or_base`]`(v)`, built
    /// once per `T(v)` version and shared across every sampled operator
    /// run until the table changes — the scratch-arena counterpart of the
    /// inner filter every index nested-loop value join probes.
    pub(crate) fn vertex_set(&self, v: VertexId) -> Arc<PreSet> {
        if let Some(set) = self.scratch.peek(v) {
            return set;
        }
        let nodes = self.table_or_base(v);
        let set = Arc::new(PreSet::from_nodes(self.env.doc(v).node_count(), &nodes));
        self.scratch.sets.borrow_mut()[v as usize] = Some(Arc::clone(&set));
        set
    }

    /// Seed `S(v)` from the current `T(v)` — the base list while the
    /// vertex is untouched (Phase 1 of Algorithm 1), the materialized table
    /// once an executed prefix has reduced it (the sample Algorithm 1 would
    /// hold had it arrived at this state itself; mid-query demotion
    /// restarts Phase 1 this way).
    pub(crate) fn seed_sample(&mut self, v: VertexId, rng: &mut StdRng, tau: usize) {
        let t = self.table_or_base(v);
        self.sample[v as usize] = Some(Arc::new(sample_sorted(rng, &t, tau)));
    }

    /// Materialize a vertex as its own singleton component if untouched.
    fn ensure_materialized(&mut self, v: VertexId) {
        if self.comp_of[v as usize].is_some() {
            return;
        }
        let base = self.env.base_list(self.graph, v);
        self.exec_cost.charge_in(base.len());
        let rel = Relation::single(v, self.env.doc_id(v), base.to_vec());
        let cid = self.components.len();
        self.components.push(Some(rel));
        self.comp_of[v as usize] = Some(cid);
        self.t[v as usize] = Some(base);
        self.scratch.invalidate(v);
        self.card[v as usize] = Some(self.t[v as usize].as_ref().unwrap().len());
    }

    /// Execute edge `e` fully, materializing the result. Returns the
    /// vertices whose `T`/`card` changed (their incident edges must be
    /// re-weighted, Algorithm 1 lines 18–19). When `sampler` is given,
    /// `S(v)` of changed vertices is refreshed (line 16); replays pass
    /// `None` and skip sampling entirely.
    pub(crate) fn execute_edge(
        &mut self,
        e: EdgeId,
        mut sampler: Option<(&mut StdRng, usize)>,
    ) -> Vec<VertexId> {
        assert!(!self.executed[e as usize], "edge {e} already executed");
        self.executed[e as usize] = true;
        let edge = self.graph.edge(e).clone();
        let (v1, v2) = (edge.v1, edge.v2);
        self.ensure_materialized(v1);
        self.ensure_materialized(v2);
        let c1 = self.comp_of[v1 as usize].unwrap();
        let c2 = self.comp_of[v2 as usize].unwrap();
        let inputs = (self.card(v1), self.card(v2));

        let (op, pair_count): (EdgeOpKind, usize) = if c1 == c2 {
            // Selection within one component.
            let rel = self.components[c1].take().expect("live component");
            let filtered = self.filter_component(&edge, rel);
            let kept = filtered.len();
            self.components[c1] = Some(filtered);
            (EdgeOpKind::Select, kept)
        } else {
            let left = self.components[c1].take().expect("live component");
            let right = self.components[c2].take().expect("live component");
            let (pairs, op) = self.node_pairs(&edge);
            let pair_count = pairs.len();
            let joined = Relation::compose(&left, v1, &right, v2, &pairs);
            self.exec_cost.charge_out(joined.len());
            // Re-point all vertices of the absorbed component.
            for v in 0..self.comp_of.len() {
                if self.comp_of[v] == Some(c2) {
                    self.comp_of[v] = Some(c1);
                }
            }
            self.components[c1] = Some(joined);
            (op, pair_count)
        };

        let merged = self.components[c1].as_ref().expect("live component");
        self.edge_log.push(EdgeExec {
            edge: e,
            result_rows: merged.len(),
            op,
            pairs: pair_count,
            inputs,
        });

        // Refresh T(v), card(v) and S(v) for every vertex of the affected
        // component — the component join semijoin-reduces all of them. The
        // edge endpoints always count as changed: Algorithm 1 re-samples
        // their incident edges unconditionally (lines 14-19).
        let mut changed = vec![v1, v2];
        for i in 0..merged.schema().len() {
            let merged = self.components[c1].as_ref().expect("live component");
            let v = merged.schema()[i];
            let t = Arc::new(merged.distinct_nodes(v));
            let new_card = t.len();
            let stale = self.t[v as usize].as_ref().is_none_or(|old| **old != *t);
            if (stale || self.card[v as usize] != Some(new_card)) && !changed.contains(&v) {
                changed.push(v);
            }
            self.card[v as usize] = Some(new_card);
            if let Some((rng, tau)) = sampler.as_mut() {
                self.sample[v as usize] = Some(Arc::new(sample_sorted(*rng, &t, *tau)));
            }
            self.t[v as usize] = Some(t);
            self.scratch.invalidate(v);
        }
        changed
    }

    /// Node-level pairs `(v1 node, v2 node)` for a cross-component edge,
    /// computed over the *distinct* vertex tables by the edge-operator
    /// kernel ([`rox_ops::edgeop`]) — the same dispatch layer the sampling
    /// phases consult, so the operator executed here is by construction
    /// the one the weights were sampled with.
    fn node_pairs(&mut self, edge: &rox_joingraph::Edge) -> (Vec<(Pre, Pre)>, EdgeOpKind) {
        let (v1, v2) = (edge.v1, edge.v2);
        let t1 = Arc::clone(self.t[v1 as usize].as_ref().expect("materialized"));
        let t2 = Arc::clone(self.t[v2 as usize].as_ref().expect("materialized"));
        let (id1, id2) = (self.env.doc_id(v1), self.env.doc_id(v2));
        debug_assert!(!edge.is_step() || id1 == id2, "step spans documents");
        let d1 = self.env.doc(v1);
        let d2 = self.env.doc(v2);
        // Value indexes only matter for value joins; both documents'
        // indexes are already cached from base-list materialization.
        let indexes = (!edge.is_step())
            .then(|| (self.env.store().indexes(id1), self.env.store().indexes(id2)));
        let (kind1, kind2) = (self.vertex_kind(v1), self.vertex_kind(v2));
        // Whatever membership sets an estimate left in the arena since
        // the last `T(v)` write go along; which one (if any) the operator
        // needs is the kernel's decision alone.
        let (set1, set2) = (self.scratch.peek(v1), self.scratch.peek(v2));
        let dense = DenseState {
            set1: set1.as_deref(),
            set2: set2.as_deref(),
        };
        let out = execute_edge_op(
            EdgeOpCtx {
                class: edge.kind.class(),
                mode: ExecMode::Full,
                doc1: &d1,
                doc2: &d2,
                input1: &t1,
                input2: &t2,
                index1: indexes.as_ref().map(|(i1, _)| &i1.value),
                index2: indexes.as_ref().map(|(_, i2)| &i2.value),
                kind1,
                kind2,
            },
            dense,
            &mut self.exec_cost,
        );
        (out.result.into_full(), out.choice.kind)
    }

    /// Filter a component's rows by an intra-component edge predicate (the
    /// kernel's [`EdgeOpKind::Select`] path). The join columns are read as
    /// borrowed slices (no clones).
    fn filter_component(&mut self, edge: &rox_joingraph::Edge, mut rel: Relation) -> Relation {
        let (v1, v2) = (edge.v1, edge.v2);
        self.exec_cost.charge_in(rel.len());
        let class = edge.kind.class();
        let d1 = self.env.doc(v1);
        let d2 = self.env.doc(v2);
        let keep: Vec<bool> = rel
            .col(v1)
            .iter()
            .zip(rel.col(v2))
            .map(|(&a, &b)| edge_predicate(class, &d1, &d2, a, b))
            .collect();
        rel.retain_rows(&keep);
        self.exec_cost.charge_out(rel.len());
        rel
    }

    /// Finish evaluation: materialize every non-root vertex that only had
    /// redundant edges, then return the full join as the product of the
    /// remaining components (they are unconstrained w.r.t. each other).
    pub(crate) fn finalize(&mut self) -> Relation {
        for v in self.graph.vertices() {
            if matches!(v.label, VertexLabel::Root) {
                continue;
            }
            self.ensure_materialized(v.id);
        }
        // Collect live components that contain at least one non-root
        // vertex. Finalization consumes them: the evaluation is over, so
        // the slots are drained rather than cloned.
        let mut parts: Vec<Relation> = Vec::new();
        let mut seen: Vec<usize> = Vec::new();
        for v in self.graph.vertices() {
            if matches!(v.label, VertexLabel::Root) {
                continue;
            }
            let cid = self.comp_of[v.id as usize].expect("materialized");
            if !seen.contains(&cid) {
                seen.push(cid);
                parts.push(self.components[cid].take().expect("live component"));
            }
        }
        let mut result = match parts.pop() {
            Some(r) => r,
            None => Relation::empty(vec![], vec![]),
        };
        for part in parts {
            result = Relation::cartesian(&result, &part);
            self.exec_cost.charge_out(result.len());
        }
        result
    }

    /// The node kind of a vertex (text/attr distinction for value joins).
    pub(crate) fn vertex_kind(&self, v: VertexId) -> NodeKind {
        RoxEnv::vertex_kind(&self.graph.vertex(v).label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rox_joingraph::compile_query;
    use rox_xmldb::Catalog;

    fn setup(src: &str, docs: &[(&str, &str)]) -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        for (uri, xml) in docs {
            cat.load_str(uri, xml).unwrap();
        }
        (cat, compile_query(src).unwrap())
    }

    const AUCTION: &str = r#"<site><auction><bidder><ref p="1"/></bidder><bidder><ref p="2"/></bidder></auction><auction><bidder><ref p="3"/></bidder></auction><person id="1"/><person id="2"/></site>"#;

    #[test]
    fn step_edge_execution_joins_components() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", AUCTION)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        // Find the auction/bidder step edge (the non-redundant one).
        let e = g.edges().iter().find(|e| !e.redundant).unwrap().id;
        let changed = st.execute_edge(e, None);
        assert!(!changed.is_empty());
        let a = g.var_vertices["a"];
        let b = g.var_vertices["b"];
        // 3 (auction, bidder) pairs; auction 1 participates twice.
        assert_eq!(st.card(b), 3);
        assert_eq!(st.card(a), 2);
        assert_eq!(st.edge_log.len(), 1);
        assert_eq!(st.edge_log[0].result_rows, 3);
    }

    #[test]
    fn finalize_applies_redundant_only_vertices() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//person return $a"#,
            &[("d.xml", AUCTION)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        assert!(st.unexecuted_edges().is_empty());
        let rel = st.finalize();
        assert_eq!(rel.len(), 2); // two persons
    }

    #[test]
    fn equi_join_across_documents() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k1</a><a>k2</a></r>"),
                ("y.xml", "<r><b>k2</b><b>k3</b><b>k2</b></r>"),
            ],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        // Execute steps then the join, in edge order.
        for e in st.unexecuted_edges() {
            st.execute_edge(e, None);
        }
        let rel = st.finalize();
        // k2 text matches two y texts -> 2 rows.
        assert_eq!(rel.len(), 2);
        let x = g.var_vertices["x"];
        assert_eq!(st.card(x), 1);
    }

    #[test]
    fn intra_component_edge_filters() {
        // Triangle: auction//ref and auction/bidder and bidder/ref. After
        // joining auction–ref and auction–bidder, the bidder–ref edge is a
        // selection within the component.
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder, $r in $b/ref
               return $r"#,
            &[("d.xml", AUCTION)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        let edges = st.unexecuted_edges();
        assert_eq!(edges.len(), 2);
        for e in edges {
            st.execute_edge(e, None);
        }
        let rel = st.finalize();
        assert_eq!(rel.len(), 3); // 3 refs, each with its bidder & auction
    }

    #[test]
    fn sampler_refreshes_samples() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", AUCTION)],
        );
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        let e = g.edges().iter().find(|e| !e.redundant).unwrap().id;
        let mut rng = StdRng::seed_from_u64(1);
        st.execute_edge(e, Some((&mut rng, 2)));
        let b = g.var_vertices["b"];
        assert_eq!(st.sample(b).unwrap().len(), 2);
    }

    #[test]
    fn skewed_equi_join_uses_index_nl_and_matches_hash_semantics() {
        // One tiny side against a large side: triggers the index
        // nested-loop path; results must match the reference count.
        let cat = Arc::new(Catalog::new());
        let mut big = String::from("<r>");
        for i in 0..500 {
            big.push_str(&format!("<b>v{}</b>", i % 50));
        }
        big.push_str("</r>");
        cat.load_str("x.xml", "<r><a>v7</a></r>").unwrap();
        cat.load_str("y.xml", &big).unwrap();
        let g = compile_query(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $y"#,
        )
        .unwrap();
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        for e in st.unexecuted_edges() {
            st.execute_edge(e, None);
        }
        let rel = st.finalize();
        assert_eq!(rel.len(), 10); // "v7" appears 10 times in the big doc
    }
}
