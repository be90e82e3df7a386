//! The physical edge-operator kernel: **one** dispatch layer for every
//! edge execution in the system.
//!
//! ROX's central claim is that run-time estimates are trustworthy because
//! the *same* sampled operator run used for weighting is (an instance of)
//! the operator that will later execute the edge (§6). That only holds if
//! there is exactly one place that maps an edge to a physical operator.
//! This module is that place: candidate weighting, chain-sampling
//! extensions, full edge execution, plan replay, the enumeration baseline,
//! and the naive oracle all call [`execute_edge_op`] (or, for
//! intra-component selections, [`edge_predicate`]) instead of dispatching
//! on the edge kind themselves.
//!
//! The operator *choice* is the explicit cost function
//! [`choose_op`](crate::cost::choose_op()) in [`crate::cost`]; this module
//! owns the operator *execution*:
//!
//! | edge kind  | mode    | operator                                         |
//! |------------|---------|--------------------------------------------------|
//! | step       | sampled | [`step_join`] with cut-off, caller-fixed outer   |
//! | step       | full    | [`step_join_kernel`], smaller side outer, kernel by [`choose_step_kernel`](crate::cost::choose_step_kernel()) |
//! | value join | sampled | index nested loop ([`index_value_join`](crate::valjoin::index_value_join())'s kernel entry) with cut-off (0-invest) |
//! | value join | full, skewed | index nested loop, smaller side outer |
//! | value join | full, balanced | hash join ([`hash_value_join`](crate::valjoin::hash_value_join())) |
//!
//! New operators (staircase variants, semijoin reducers, new axes) plug in
//! here once and every phase — sampling included — picks them up.

use crate::axis::Axis;
use crate::cost::{choose_op, Cost};
use crate::cutoff::JoinOut;
use crate::staircase::{naive_axis, step_join, step_join_kernel, StepScratch};
use crate::valjoin::{filter_set, hash_value_join, index_value_join_kernel};
use rox_index::{PreSet, ValueIndex};
use rox_xmldb::{Document, NodeKind, Pre};

/// Logical classification of a Join Graph edge, decoupled from the graph
/// representation (the front-end crate maps its `EdgeKind` onto this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// A path step along `axis`, written `v1 ◦axis→ v2` (the direction is
    /// representational; the kernel may execute the inverse axis).
    Step(Axis),
    /// A relational value equi-join between two node sets.
    ValueJoin,
}

/// The physical operator the kernel chose for one edge execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOpKind {
    /// Structural staircase join ([`step_join`] / [`step_join_kernel`]).
    StepJoin,
    /// Index nested-loop value join probing the inner value index
    /// (zero-investment; the only value join sampling may use).
    IndexNLValueJoin,
    /// Hash value join over both materialized inputs (full mode only).
    HashValueJoin,
    /// Per-row predicate selection for an edge whose endpoints already
    /// live in one component (never produced by
    /// [`choose_op`](crate::cost::choose_op()); the evaluation state maps
    /// intra-component edges here and filters via [`edge_predicate`]).
    Select,
}

impl EdgeOpKind {
    /// Short label for explain/trace rendering.
    pub fn label(self) -> &'static str {
        match self {
            EdgeOpKind::StepJoin => "step",
            EdgeOpKind::IndexNLValueJoin => "idx-nl",
            EdgeOpKind::HashValueJoin => "hash",
            EdgeOpKind::Select => "select",
        }
    }
}

impl std::fmt::Display for EdgeOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How an edge is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Cut-off sampled execution (§2.3): the outer side is fixed by the
    /// caller (the sampled endpoint) and result generation stops after
    /// `limit` pairs. Restricted to zero-investment operators.
    Sampled {
        /// The cut-off `l` on produced pairs.
        limit: usize,
        /// Whether the outer (context) side is the edge's `v1` endpoint.
        outer_is_v1: bool,
    },
    /// Full materialized execution; direction and operator are chosen by
    /// cost.
    Full,
}

/// The resolved `(operator, direction)` decision for one edge execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOpChoice {
    /// Which physical operator runs.
    pub kind: EdgeOpKind,
    /// Whether the outer (context / probe-from) side is `v1`.
    pub outer_is_v1: bool,
}

/// Everything [`execute_edge_op`] needs to run one edge: the edge's
/// classification and mode plus, for each endpoint, its document, current
/// input, value index, and node kind. "Current input" means the
/// materialized distinct table `T(v)` in full mode; in sampled mode the
/// outer side carries the sample (duplicates allowed) and the inner side
/// `T(v′)` or the vertex base list.
pub struct EdgeOpCtx<'a> {
    /// Logical edge classification.
    pub class: EdgeClass,
    /// Sampled cut-off or full execution.
    pub mode: ExecMode,
    /// Document of `v1` (equals `doc2` for step edges).
    pub doc1: &'a Document,
    /// Document of `v2`.
    pub doc2: &'a Document,
    /// Current input on the `v1` side, sorted on pre.
    pub input1: &'a [Pre],
    /// Current input on the `v2` side, sorted on pre (distinct — it doubles
    /// as the binary-searched candidate/filter list when `v2` is inner).
    pub input2: &'a [Pre],
    /// Value index over `doc1` (value joins only; `None` for steps).
    pub index1: Option<&'a ValueIndex>,
    /// Value index over `doc2` (value joins only; `None` for steps).
    pub index2: Option<&'a ValueIndex>,
    /// Node kind of `v1`'s nodes (text/attribute routing of index probes).
    pub kind1: NodeKind,
    /// Node kind of `v2`'s nodes.
    pub kind2: NodeKind,
}

/// What one kernel invocation produced, in the shape its mode calls for.
#[derive(Debug, Clone)]
pub enum EdgeOpResult {
    /// Sampled mode: the cut-off pair output, rows indexing the outer
    /// input, with reduction-factor bookkeeping for extrapolation.
    Sampled(JoinOut<Pre>),
    /// Full mode: node-level pre pairs oriented `(v1 node, v2 node)`.
    Full(Vec<(Pre, Pre)>),
}

impl EdgeOpResult {
    /// The sampled-mode output; panics if the kernel ran in full mode.
    pub fn into_sampled(self) -> JoinOut<Pre> {
        match self {
            EdgeOpResult::Sampled(out) => out,
            EdgeOpResult::Full(_) => panic!("edge op ran in full mode, not sampled"),
        }
    }

    /// The full-mode `(v1, v2)` pairs; panics if the kernel ran sampled.
    pub fn into_full(self) -> Vec<(Pre, Pre)> {
        match self {
            EdgeOpResult::Full(pairs) => pairs,
            EdgeOpResult::Sampled(_) => panic!("edge op ran in sampled mode, not full"),
        }
    }
}

/// Output of [`execute_edge_op`]: the operator decision (for edge logs,
/// chain traces, and explain output) plus the mode-shaped result.
#[derive(Debug, Clone)]
pub struct EdgeOpOut {
    /// Which operator ran, in which direction.
    pub choice: EdgeOpChoice,
    /// The produced pairs.
    pub result: EdgeOpResult,
}

/// Membership bitsets the caller already holds over the two inputs of
/// [`EdgeOpCtx`]. Both are optional: the caller passes whatever it has
/// cached without predicting which operator will run; the kernel uses a
/// set when the operator it chose needs one and builds its own when the
/// field is `None`. Results and cost charges are identical either way.
#[derive(Default, Clone, Copy)]
pub struct DenseState<'a> {
    /// Membership bitset over `input1` (the inner filter of a value join,
    /// or the candidate set of a bitset-kernel step, when `v1` is the
    /// inner side).
    pub set1: Option<&'a PreSet>,
    /// Membership bitset over `input2`.
    pub set2: Option<&'a PreSet>,
}

/// Execute one edge through the kernel: consult
/// [`choose_op`](crate::cost::choose_op()) for the `(operator, direction)`
/// decision, run the operator, and — in full mode — orient the produced
/// pairs back into `(v1, v2)` order. All operator work is charged to
/// `cost`, exactly as the underlying operator charges it. `dense` carries
/// the caller's cached membership sets (`DenseState::default()` builds
/// everything on the fly); output, operator choice, and cost charges are
/// identical either way.
pub fn execute_edge_op(ctx: EdgeOpCtx<'_>, dense: DenseState<'_>, cost: &mut Cost) -> EdgeOpOut {
    let choice = choose_op(ctx.class, ctx.input1.len(), ctx.input2.len(), ctx.mode);
    // `inner_set` is the caller's cached membership bitset over the inner
    // input, when it supplied one (the evaluation state's scratch arena).
    let (outer_doc, outer, inner, inner_index, inner_kind, inner_set) = if choice.outer_is_v1 {
        (
            ctx.doc1, ctx.input1, ctx.input2, ctx.index2, ctx.kind2, dense.set2,
        )
    } else {
        (
            ctx.doc2, ctx.input2, ctx.input1, ctx.index1, ctx.kind1, dense.set1,
        )
    };
    let rows = match choice.kind {
        EdgeOpKind::StepJoin => {
            let axis = match ctx.class {
                EdgeClass::Step(ax) => ax,
                EdgeClass::ValueJoin => unreachable!("step op on a value-join edge"),
            };
            let ax = if choice.outer_is_v1 {
                axis
            } else {
                axis.inverse()
            };
            match ctx.mode {
                ExecMode::Sampled { limit, .. } => {
                    step_join(outer_doc, ax, outer, inner, Some(limit), cost)
                }
                ExecMode::Full => {
                    // The bitset kernel's candidate set is the inner
                    // endpoint's membership set; without a cached one the
                    // kernel builds its own.
                    let scratch = StepScratch {
                        kernel: None,
                        cands_set: inner_set,
                    };
                    step_join_kernel(outer_doc, ax, outer, inner, None, scratch, cost)
                }
            }
        }
        EdgeOpKind::IndexNLValueJoin => {
            let index = inner_index.expect("value join requires the inner value index");
            let limit = match ctx.mode {
                ExecMode::Sampled { limit, .. } => Some(limit),
                ExecMode::Full => None,
            };
            // The inner filter as a bitset: the caller's cached set when
            // provided, else built here from the (sorted) inner input.
            let built_set;
            let inner_set = match inner_set {
                Some(s) => s,
                None => {
                    built_set = filter_set(inner);
                    &built_set
                }
            };
            index_value_join_kernel(
                outer_doc,
                outer,
                index,
                inner_kind,
                Some(inner_set),
                limit,
                cost,
            )
        }
        EdgeOpKind::HashValueJoin => {
            // Emits (v1, v2)-oriented node pairs directly; the internal
            // build-side choice is independent of the outer/inner framing.
            let pairs = hash_value_join(ctx.doc1, ctx.input1, ctx.doc2, ctx.input2, cost);
            return EdgeOpOut {
                choice,
                result: EdgeOpResult::Full(pairs),
            };
        }
        EdgeOpKind::Select => unreachable!("choose_op never selects the predicate path"),
    };
    let result = match ctx.mode {
        ExecMode::Sampled { .. } => EdgeOpResult::Sampled(rows),
        ExecMode::Full => {
            // Resolve outer rows to nodes and orient pairs as (v1, v2).
            let pairs = rows.pairs.iter().map(|&(row, s)| {
                let c = outer[row as usize];
                if choice.outer_is_v1 {
                    (c, s)
                } else {
                    (s, c)
                }
            });
            EdgeOpResult::Full(pairs.collect())
        }
    };
    EdgeOpOut { choice, result }
}

/// Per-pair edge predicate: does the edge's operator relate `p1` (a node
/// of `v1`, in `doc1`) to `p2` (a node of `v2`, in `doc2`)? This is the
/// kernel's row-at-a-time face, used for intra-component selections
/// ([`EdgeOpKind::Select`]) and by the naive differential-testing oracle —
/// deliberately index-free so the oracle shares no staircase/hash code
/// with the set-at-a-time operators above.
pub fn edge_predicate(
    class: EdgeClass,
    doc1: &Document,
    doc2: &Document,
    p1: Pre,
    p2: Pre,
) -> bool {
    match class {
        EdgeClass::Step(ax) => naive_axis(doc1, ax, p1, p2),
        EdgeClass::ValueJoin => doc1.value(p1) == doc2.value(p2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    fn text_nodes(doc: &Document) -> Vec<Pre> {
        (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Text)
            .collect()
    }

    fn value_join_ctx<'a>(
        mode: ExecMode,
        da: &'a Document,
        ta: &'a [Pre],
        ia: &'a ValueIndex,
        db: &'a Document,
        tb: &'a [Pre],
        ib: &'a ValueIndex,
    ) -> EdgeOpCtx<'a> {
        EdgeOpCtx {
            class: EdgeClass::ValueJoin,
            mode,
            doc1: da,
            doc2: db,
            input1: ta,
            input2: tb,
            index1: Some(ia),
            index2: Some(ib),
            kind1: NodeKind::Text,
            kind2: NodeKind::Text,
        }
    }

    #[test]
    fn full_value_join_picks_hash_on_balanced_inputs() {
        let cat = Arc::new(Catalog::new());
        let a = cat
            .load_str("a.xml", "<r><x>k1</x><x>k2</x><x>k2</x></r>")
            .unwrap();
        let b = cat
            .load_str("b.xml", "<r><y>k2</y><y>k3</y><y>k1</y></r>")
            .unwrap();
        let (da, db) = (cat.doc(a), cat.doc(b));
        let (ia, ib) = (ValueIndex::build(&da), ValueIndex::build(&db));
        let (ta, tb) = (text_nodes(&da), text_nodes(&db));
        let mut cost = Cost::new();
        let out = execute_edge_op(
            value_join_ctx(ExecMode::Full, &da, &ta, &ia, &db, &tb, &ib),
            DenseState::default(),
            &mut cost,
        );
        assert_eq!(out.choice.kind, EdgeOpKind::HashValueJoin);
        let mut pairs = out.result.into_full();
        pairs.sort_unstable();
        // k1 matches 1, k2 (x2) matches 1 each => 3 pairs.
        assert_eq!(pairs.len(), 3);
        for &(l, r) in &pairs {
            assert_eq!(da.value(l), db.value(r));
        }
    }

    #[test]
    fn full_value_join_picks_index_nl_on_skew_and_matches_hash() {
        let cat = Arc::new(Catalog::new());
        let mut big = String::from("<r>");
        for i in 0..200 {
            big.push_str(&format!("<y>v{}</y>", i % 20));
        }
        big.push_str("</r>");
        let a = cat.load_str("a.xml", "<r><x>v7</x></r>").unwrap();
        let b = cat.load_str("b.xml", &big).unwrap();
        let (da, db) = (cat.doc(a), cat.doc(b));
        let (ia, ib) = (ValueIndex::build(&da), ValueIndex::build(&db));
        let (ta, tb) = (text_nodes(&da), text_nodes(&db));
        let mut cost = Cost::new();
        let out = execute_edge_op(
            value_join_ctx(ExecMode::Full, &da, &ta, &ia, &db, &tb, &ib),
            DenseState::default(),
            &mut cost,
        );
        assert_eq!(out.choice.kind, EdgeOpKind::IndexNLValueJoin);
        assert!(out.choice.outer_is_v1);
        let pairs = out.result.into_full();
        assert_eq!(pairs.len(), 10); // v7 appears 10 times on the big side
                                     // Flip the sides: the kernel must flip direction and re-orient the
                                     // pairs so the (v1, v2) framing is preserved.
        let mut cost2 = Cost::new();
        let flipped = execute_edge_op(
            value_join_ctx(ExecMode::Full, &db, &tb, &ib, &da, &ta, &ia),
            DenseState::default(),
            &mut cost2,
        );
        assert_eq!(flipped.choice.kind, EdgeOpKind::IndexNLValueJoin);
        assert!(!flipped.choice.outer_is_v1);
        let swapped: Vec<(Pre, Pre)> = flipped
            .result
            .into_full()
            .into_iter()
            .map(|(l, r)| (r, l))
            .collect();
        assert_eq!(swapped, pairs);
    }

    #[test]
    fn sampled_step_honors_direction_and_cutoff() {
        let cat = Arc::new(Catalog::new());
        let id = cat
            .load_str(
                "d.xml",
                "<site><a><b/><b/></a><a><b/></a><a><b/><b/><b/></a></site>",
            )
            .unwrap();
        let doc = cat.doc(id);
        let sym_a = doc.interner().get("a").unwrap();
        let sym_b = doc.interner().get("b").unwrap();
        let all: Vec<Pre> = (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Element)
            .collect();
        let a_nodes: Vec<Pre> = all
            .iter()
            .copied()
            .filter(|&p| doc.name(p) == sym_a)
            .collect();
        let b_nodes: Vec<Pre> = all
            .iter()
            .copied()
            .filter(|&p| doc.name(p) == sym_b)
            .collect();
        let ctx = |mode| EdgeOpCtx {
            class: EdgeClass::Step(Axis::Child),
            mode,
            doc1: &doc,
            doc2: &doc,
            input1: &a_nodes,
            input2: &b_nodes,
            index1: None,
            index2: None,
            kind1: NodeKind::Element,
            kind2: NodeKind::Element,
        };
        // Forward: children of each a.
        let mut cost = Cost::new();
        let fwd = execute_edge_op(
            ctx(ExecMode::Sampled {
                limit: 100,
                outer_is_v1: true,
            }),
            DenseState::default(),
            &mut cost,
        );
        assert_eq!(fwd.choice.kind, EdgeOpKind::StepJoin);
        assert_eq!(fwd.result.into_sampled().pairs.len(), 6);
        // Reverse: parent of each b (inverse axis).
        let rev = execute_edge_op(
            ctx(ExecMode::Sampled {
                limit: 100,
                outer_is_v1: false,
            }),
            DenseState::default(),
            &mut cost,
        );
        assert_eq!(rev.result.into_sampled().pairs.len(), 6);
        // Cut-off truncates and extrapolates.
        let cut = execute_edge_op(
            ctx(ExecMode::Sampled {
                limit: 2,
                outer_is_v1: true,
            }),
            DenseState::default(),
            &mut cost,
        );
        let out = cut.result.into_sampled();
        assert!(out.truncated);
        assert_eq!(out.pairs.len(), 2);
        assert!(out.estimate() >= 2.0);
    }

    #[test]
    fn full_step_runs_from_smaller_side_with_v1_v2_pairs() {
        let cat = Arc::new(Catalog::new());
        let id = cat
            .load_str("d.xml", "<site><a><b/><b/></a><a><b/></a></site>")
            .unwrap();
        let doc = cat.doc(id);
        let sym_a = doc.interner().get("a").unwrap();
        let sym_b = doc.interner().get("b").unwrap();
        let a_nodes: Vec<Pre> = (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Element && doc.name(p) == sym_a)
            .collect();
        let b_nodes: Vec<Pre> = (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Element && doc.name(p) == sym_b)
            .collect();
        let mut cost = Cost::new();
        let out = execute_edge_op(
            EdgeOpCtx {
                class: EdgeClass::Step(Axis::Child),
                mode: ExecMode::Full,
                doc1: &doc,
                doc2: &doc,
                input1: &a_nodes,
                input2: &b_nodes,
                index1: None,
                index2: None,
                kind1: NodeKind::Element,
                kind2: NodeKind::Element,
            },
            DenseState::default(),
            &mut cost,
        );
        // 2 a-nodes vs 3 b-nodes: executes forward from the a side.
        assert!(out.choice.outer_is_v1);
        let pairs = out.result.into_full();
        assert_eq!(pairs.len(), 3);
        for &(a, b) in &pairs {
            assert_eq!(doc.name(a), sym_a);
            assert_eq!(doc.name(b), sym_b);
            assert!(naive_axis(&doc, Axis::Child, a, b));
        }
    }

    #[test]
    fn predicate_matches_operator_semantics() {
        let cat = Arc::new(Catalog::new());
        let id = cat
            .load_str("d.xml", "<site><a><b/></a><b/></site>")
            .unwrap();
        let doc = cat.doc(id);
        // a (pre 1) has child b (pre 2); the other b (pre 3) is a sibling.
        assert!(edge_predicate(
            EdgeClass::Step(Axis::Child),
            &doc,
            &doc,
            1,
            2
        ));
        assert!(!edge_predicate(
            EdgeClass::Step(Axis::Child),
            &doc,
            &doc,
            1,
            3
        ));
    }
}
