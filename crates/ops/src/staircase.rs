//! Structural (staircase) joins over the pre/size/level encoding.
//!
//! `step_join(axis, C, S)` evaluates one XPath step for a context sequence
//! `C` against a candidate sequence `S` (both pre-sorted within one
//! document), producing *pairs* `(context row, result node)` so the caller
//! can both derive the duplicate-free node result (the paper's staircase
//! join output) and compose fully-joined component relations.
//!
//! All implementations are **zero-investment** with respect to `C` (§2.3):
//! work is `O(|C|·log|S| + |R|)` or better — no preprocessing proportional
//! to `|S|` happens before the first result can be produced, which is what
//! makes cut-off sampling of these operators strictly bounded.
//!
//! # Kernels
//!
//! The join is served by one of two *kernels*, selected per call by the
//! documented cost rule
//! [`choose_step_kernel`](crate::cost::choose_step_kernel()):
//!
//! * [`StepKernel::Probe`] — the classic walk: per context node, traverse
//!   the axis and test each produced node against the sorted candidate
//!   slice. Probes are **range-pruned**: a produced node outside
//!   `[S.first(), S.last()]` skips its binary search (charged as if it
//!   ran), and the Ancestor walk stops chasing parents the moment the
//!   chain drops below `S.first()` — the remaining probes are bulk-charged
//!   from the node's stored level. The only kernel cut-off sampling uses.
//! * [`StepKernel::Bitset`] — the same walk with membership answered by
//!   a [`PreSet`] (one shift + mask). The set is the caller's cached one
//!   ([`StepScratch::cands_set`], the evaluation state's scratch arena)
//!   or built on the fly. Full execution only.
//!
//! Both kernels are **bit-identical** in pairs, pair order, truncation
//! point, and [`Cost`] charges (pinned by
//! `tests/proptest_staircase_kernels.rs`): one probe is charged per node
//! the walk produces, whichever way its membership is decided, so the
//! figure harnesses' work counters cannot observe which kernel ran.
//!
//! # Entry points
//!
//! [`step_join`] is the plain signature; [`step_join_kernel`] is the one
//! kernel-facing entry the edge-operator kernel ([`crate::edgeop`]) calls,
//! taking a [`StepScratch`] of reusable state.

use crate::axis::Axis;
use crate::cost::{choose_step_kernel, Cost, StepKernel};
use crate::cutoff::JoinOut;
use crate::valjoin::filter_set;
use rox_index::PreSet;
use rox_xmldb::{Document, NodeKind, Pre};

/// Caller-provided reusable state for one [`step_join_kernel`] call.
/// Every field is optional — the default chooses the kernel by cost and
/// builds (and frees) whatever it needs; supplying a field only skips
/// rebuilds, never changes results or charges.
#[derive(Default, Clone, Copy)]
pub struct StepScratch<'a> {
    /// Force a kernel instead of consulting
    /// [`choose_step_kernel`](crate::cost::choose_step_kernel()) (the
    /// kernel-equivalence proptests).
    pub kernel: Option<StepKernel>,
    /// A membership set over exactly the call's candidate list (the
    /// evaluation state caches one per vertex table version).
    pub cands_set: Option<&'a PreSet>,
}

/// Evaluate `axis::S` for every context node, stopping once `limit` pairs
/// have been produced (cut-off execution, §2.3). Produced pairs carry the
/// context node's *position* in `ctx` as their row id — the densely
/// increasing row identifier the reduction factor relies on. `ctx` must be
/// sorted on pre (duplicates allowed); `cands` must be sorted,
/// duplicate-free, and pre-filtered by the step's node test
/// (element-index / value-index lookups produce exactly this shape).
///
/// The kernel is chosen by
/// [`choose_step_kernel`](crate::cost::choose_step_kernel()); see
/// [`step_join_kernel`] to reuse cached scratch state or force a kernel.
pub fn step_join(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    step_join_kernel(doc, axis, ctx, cands, limit, StepScratch::default(), cost)
}

/// As [`step_join`] with caller-provided [`StepScratch`]: the kernel-facing
/// entry. Pairs, order, truncation, and cost charges equal
/// [`step_join`]'s whatever the scratch holds.
pub fn step_join_kernel(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    limit: Option<usize>,
    scratch: StepScratch<'_>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    debug_assert!(
        ctx.windows(2).all(|w| w[0] <= w[1]),
        "context not sorted on pre"
    );
    debug_assert!(
        cands.windows(2).all(|w| w[0] < w[1]),
        "candidates not sorted/unique"
    );
    let kernel = scratch
        .kernel
        .unwrap_or_else(|| choose_step_kernel(axis, ctx.len(), cands.len(), limit.is_some()));
    // The bitset kernel's membership set: the caller's cached one, else a
    // fresh build.
    let owned_set =
        (kernel == StepKernel::Bitset && scratch.cands_set.is_none()).then(|| filter_set(cands));
    let set = match kernel {
        StepKernel::Probe => None,
        StepKernel::Bitset => scratch.cands_set.or(owned_set.as_ref()),
    };
    probe_walk(doc, axis, ctx, cands, set, limit, cost)
}

/// Candidate membership for the probe walk: the range prune applies to
/// both backends, the lookup is a binary search (slice) or a shift + mask
/// (bitset). The set, when given, must cover exactly `cands`.
#[inline]
fn member(cands: &[Pre], set: Option<&PreSet>, lo: Pre, hi: Pre, p: Pre) -> bool {
    if p < lo || p > hi {
        return false;
    }
    match set {
        Some(s) => s.contains(p),
        None => cands.binary_search(&p).is_ok(),
    }
}

/// The probe-loop walk shared by the Probe and Bitset kernels: per context
/// node, traverse the axis and test every produced node. One probe is
/// charged per produced node whether or not the range prune skips its
/// lookup, so charges are independent of pruning and membership backend.
fn probe_walk(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    set: Option<&PreSet>,
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let mut out = JoinOut::with_limit(ctx.len(), limit);
    let limit = limit.unwrap_or(usize::MAX);
    // Range prune bounds (empty candidate list: lo > hi rejects all).
    let lo = cands.first().copied().unwrap_or(1);
    let hi = cands.last().copied().unwrap_or(0);
    'outer: for (row, &c) in ctx.iter().enumerate() {
        let row = row as u32;
        cost.charge_in(1);
        match axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                let from = if axis == Axis::Descendant { c + 1 } else { c };
                let until = doc.post(c);
                cost.charge_probe(1);
                let start = cands.partition_point(|&s| s < from);
                for &s in &cands[start..] {
                    if s > until {
                        break;
                    }
                    // The descendant axes exclude attribute nodes even
                    // though they fall inside the pre range.
                    if doc.kind(s) == NodeKind::Attribute {
                        continue;
                    }
                    if out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Child => {
                for s in doc.children(c) {
                    cost.charge_probe(1);
                    if member(cands, set, lo, hi, s) && out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Attribute => {
                for s in doc.attributes(c) {
                    cost.charge_probe(1);
                    if member(cands, set, lo, hi, s) && out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Parent => {
                if c != 0 {
                    let p = doc.parent(c);
                    cost.charge_probe(1);
                    if member(cands, set, lo, hi, p) && out.emit(row, p, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                let mut cur = c;
                if axis == Axis::AncestorOrSelf {
                    cost.charge_probe(1);
                    if member(cands, set, lo, hi, cur) && out.emit(row, cur, limit, cost) {
                        break 'outer;
                    }
                }
                while cur != 0 {
                    cur = doc.parent(cur);
                    if cur < lo {
                        // The chain left the candidate range for good
                        // (ancestor pres only decrease): bulk-charge the
                        // probes the un-pruned walk would still make —
                        // this node plus one per remaining ancestor — and
                        // stop chasing parents.
                        cost.charge_probe(1 + doc.level(cur) as usize);
                        break;
                    }
                    cost.charge_probe(1);
                    if member(cands, set, lo, hi, cur) && out.emit(row, cur, limit, cost) {
                        break 'outer;
                    }
                    if cur == 0 {
                        break;
                    }
                }
            }
            Axis::Following => {
                let until = doc.post(c);
                cost.charge_probe(1);
                let start = cands.partition_point(|&s| s <= until);
                for &s in &cands[start..] {
                    if doc.kind(s) == NodeKind::Attribute {
                        continue;
                    }
                    if out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Preceding => {
                cost.charge_probe(1);
                let end = cands.partition_point(|&s| s < c);
                for &s in &cands[..end] {
                    // Exclude ancestors (whose subtree contains c) and
                    // attribute nodes.
                    if doc.post(s) >= c || doc.kind(s) == NodeKind::Attribute {
                        continue;
                    }
                    if out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                if c == 0 {
                    continue;
                }
                let p = doc.parent(c);
                for s in doc.children(p) {
                    let keep = if axis == Axis::FollowingSibling {
                        s > c
                    } else {
                        s < c
                    };
                    if !keep {
                        continue;
                    }
                    cost.charge_probe(1);
                    if member(cands, set, lo, hi, s) && out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::SelfAxis => {
                cost.charge_probe(1);
                if member(cands, set, lo, hi, c) && out.emit(row, c, limit, cost) {
                    break 'outer;
                }
            }
        }
        out.ctx_done(row);
    }
    out
}

/// Reference (naive) axis semantics used by the property tests: enumerate
/// every node of the document and decide membership per the XPath data
/// model. O(|C|·|D|) — never used by the engine itself.
pub fn naive_axis(doc: &Document, axis: Axis, c: Pre, s: Pre) -> bool {
    let anc = |a: Pre, d: Pre| doc.is_ancestor(a, d);
    let s_attr = doc.kind(s) == NodeKind::Attribute;
    match axis {
        Axis::Child => !s_attr && doc.parent(s) == c && s != c,
        Axis::Attribute => s_attr && doc.parent(s) == c,
        Axis::Descendant => !s_attr && anc(c, s),
        Axis::DescendantOrSelf => !s_attr && (s == c || anc(c, s)),
        Axis::Parent => c != 0 && doc.parent(c) == s,
        Axis::Ancestor => anc(s, c),
        Axis::AncestorOrSelf => s == c || anc(s, c),
        Axis::Following => !s_attr && s > doc.post(c),
        Axis::Preceding => !s_attr && doc.post(s) < c,
        // The root is its own parent in the encoding, so exclude it
        // explicitly: it is nobody's sibling.
        Axis::FollowingSibling => {
            c != 0 && s != 0 && s != c && !s_attr && doc.parent(s) == doc.parent(c) && s > c
        }
        Axis::PrecedingSibling => {
            c != 0 && s != 0 && s != c && !s_attr && doc.parent(s) == doc.parent(c) && s < c
        }
        Axis::SelfAxis => s == c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::NodeTest;
    use rox_index::ElementIndex;
    use rox_xmldb::parse_document;

    const DOC: &str = r#"<site><people><person id="p1"><name>a</name></person><person id="p2"><name>b</name></person></people><auctions><auction><bidder><ref/></bidder><bidder><ref/></bidder></auction><auction><bidder><ref/></bidder></auction></auctions></site>"#;

    fn setup() -> (std::sync::Arc<rox_xmldb::Document>, ElementIndex) {
        let d = parse_document("t.xml", DOC).unwrap();
        let idx = ElementIndex::build(&d);
        (d, idx)
    }

    fn run(d: &rox_xmldb::Document, axis: Axis, ctx: &[Pre], cands: &[Pre]) -> Vec<(u32, Pre)> {
        let mut cost = Cost::new();
        step_join(d, axis, ctx, cands, None, &mut cost).pairs
    }

    /// Run one axis under both kernels and assert bit-identical output and
    /// charges; returns the probe kernel's pairs.
    fn run_all_kernels(
        d: &rox_xmldb::Document,
        axis: Axis,
        ctx: &[Pre],
        cands: &[Pre],
        limit: Option<usize>,
    ) -> Vec<(u32, Pre)> {
        let run = |kernel, cost: &mut Cost| {
            let scratch = StepScratch {
                kernel: Some(kernel),
                ..StepScratch::default()
            };
            step_join_kernel(d, axis, ctx, cands, limit, scratch, cost)
        };
        let mut probe_cost = Cost::new();
        let probe = run(StepKernel::Probe, &mut probe_cost);
        let mut cost = Cost::new();
        let got = run(StepKernel::Bitset, &mut cost);
        assert_eq!(got.pairs, probe.pairs, "{axis:?} pairs");
        assert_eq!(got.truncated, probe.truncated, "{axis:?}");
        assert_eq!(cost, probe_cost, "{axis:?} cost");
        probe.pairs
    }

    #[test]
    fn descendant_matches_naive() {
        let (d, idx) = setup();
        let bidder = d.interner().get("bidder").unwrap();
        let cands = idx.lookup(bidder);
        let pairs = run(&d, Axis::Descendant, &[0], cands);
        assert_eq!(pairs.len(), 3);
        for (_, s) in &pairs {
            assert!(naive_axis(&d, Axis::Descendant, 0, *s));
        }
    }

    #[test]
    fn child_only_direct_children() {
        let (d, idx) = setup();
        let auction = d.interner().get("auction").unwrap();
        let auctions_el = idx.lookup(d.interner().get("auctions").unwrap())[0];
        let pairs = run_all_kernels(&d, Axis::Child, &[auctions_el], idx.lookup(auction), None);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn attribute_axis_finds_attrs() {
        let (d, idx) = setup();
        let person = d.interner().get("person").unwrap();
        let persons = idx.lookup(person).to_vec();
        let attrs = idx.attributes().to_vec();
        let pairs = run_all_kernels(&d, Axis::Attribute, &persons, &attrs, None);
        assert_eq!(pairs.len(), 2);
        for (_, a) in pairs {
            assert_eq!(d.kind(a), NodeKind::Attribute);
        }
    }

    #[test]
    fn ancestor_walks_to_root() {
        let (d, idx) = setup();
        let refs = idx.lookup(d.interner().get("ref").unwrap()).to_vec();
        let elems = idx.elements().to_vec();
        let pairs = run_all_kernels(&d, Axis::Ancestor, &refs, &elems, None);
        // Each ref has ancestors: bidder, auction, auctions, site = 4.
        assert_eq!(pairs.len(), refs.len() * 4);
    }

    #[test]
    fn following_and_preceding_partition() {
        let (d, idx) = setup();
        let person = idx.lookup(d.interner().get("person").unwrap()).to_vec();
        let elems = idx.elements().to_vec();
        let c = person[0];
        let foll = run(&d, Axis::Following, &[c], &elems);
        let prec = run(&d, Axis::Preceding, &[c], &elems);
        for (_, s) in &foll {
            assert!(naive_axis(&d, Axis::Following, c, *s));
        }
        for (_, s) in &prec {
            assert!(naive_axis(&d, Axis::Preceding, c, *s));
        }
        // person[0] has no preceding elements (only ancestors before it).
        assert!(prec.is_empty());
        assert!(!foll.is_empty());
    }

    #[test]
    fn siblings() {
        let (d, idx) = setup();
        let person = idx.lookup(d.interner().get("person").unwrap()).to_vec();
        let folls = run_all_kernels(&d, Axis::FollowingSibling, &[person[0]], &person, None);
        assert_eq!(folls, vec![(0, person[1])]);
        let precs = run_all_kernels(&d, Axis::PrecedingSibling, &[person[1]], &person, None);
        assert_eq!(precs, vec![(0, person[0])]);
    }

    #[test]
    fn parent_and_self() {
        let (d, idx) = setup();
        let name = idx.lookup(d.interner().get("name").unwrap()).to_vec();
        let person = idx.lookup(d.interner().get("person").unwrap()).to_vec();
        let pairs = run_all_kernels(&d, Axis::Parent, &name, &person, None);
        assert_eq!(pairs.len(), 2);
        let selfs = run_all_kernels(&d, Axis::SelfAxis, &person, &person, None);
        assert_eq!(selfs.len(), 2);
    }

    #[test]
    fn cutoff_truncates_and_extrapolates() {
        let (d, idx) = setup();
        let bidder = idx.lookup(d.interner().get("bidder").unwrap()).to_vec();
        // Context: the two auction elements -> 3 bidder pairs total.
        let auction = idx.lookup(d.interner().get("auction").unwrap()).to_vec();
        let mut cost = Cost::new();
        let out = step_join(&d, Axis::Descendant, &auction, &bidder, Some(2), &mut cost);
        assert!(out.truncated);
        assert_eq!(out.pairs.len(), 2);
        // First auction (row 0) produced both pairs before the cut-off:
        // f = 1/2 processed, estimate = 2 / (1/2) = 4 (true value 3).
        let est = out.estimate();
        assert!((3.0..=4.5).contains(&est), "est = {est}");
    }

    #[test]
    fn cutoff_is_kernel_independent() {
        let (d, idx) = setup();
        let bidder = idx.lookup(d.interner().get("bidder").unwrap()).to_vec();
        let auction = idx.lookup(d.interner().get("auction").unwrap()).to_vec();
        for limit in 1..=4 {
            run_all_kernels(&d, Axis::Child, &auction, &bidder, Some(limit));
        }
    }

    #[test]
    fn empty_candidates_are_kernel_independent() {
        let (d, idx) = setup();
        let person = idx.lookup(d.interner().get("person").unwrap()).to_vec();
        for axis in [Axis::Child, Axis::Attribute, Axis::Parent, Axis::Ancestor] {
            let pairs = run_all_kernels(&d, axis, &person, &[], None);
            assert!(pairs.is_empty());
        }
    }

    #[test]
    fn node_test_prefilter_equivalence() {
        // Using a name-filtered candidate list is the same as filtering after.
        let (d, idx) = setup();
        let bidder_sym = d.interner().get("bidder").unwrap();
        let all = idx.elements().to_vec();
        let pairs_all = run(&d, Axis::Descendant, &[0], &all);
        let test = NodeTest::element(bidder_sym);
        let filtered: Vec<_> = pairs_all
            .into_iter()
            .filter(|(_, s)| test.matches(&d, *s))
            .collect();
        let direct = run(&d, Axis::Descendant, &[0], idx.lookup(bidder_sym));
        assert_eq!(filtered, direct);
    }
}
