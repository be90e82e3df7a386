//! Kernel-equivalence property tests for the vectorized staircase join:
//! the Bitset kernel, the range-pruned Probe kernel, and the `step_join`
//! dispatch must all be **bit-identical** — pairs,
//! pair order, truncation point, reduction-factor bookkeeping, and every
//! [`Cost`] counter — to the pre-vectorization probe loop, reimplemented
//! verbatim below as the oracle. This is what guarantees the figure
//! harnesses' work counters cannot observe which kernel ran.

use proptest::prelude::*;
use rox_index::{ElementIndex, PreSet};
use rox_ops::{
    choose_step_kernel, step_join, step_join_kernel, Axis, Cost, JoinOut, StepKernel, StepScratch,
};
use rox_xmldb::catalog::DocId;
use rox_xmldb::{Document, DocumentBuilder, NodeKind, Pre};

/// The seed (pre-vectorization) probe loop, verbatim: per context node,
/// walk the axis and binary-search every produced node — no range
/// pruning, no level-based bulk charges, no kernels.
fn seed_step_join(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let mut out = JoinOut::with_limit(ctx.len(), limit);
    let limit = limit.unwrap_or(usize::MAX);
    'outer: for (row, &c) in ctx.iter().enumerate() {
        let row = row as u32;
        cost.charge_in(1);
        match axis {
            Axis::Descendant | Axis::DescendantOrSelf => {
                let lo = if axis == Axis::Descendant { c + 1 } else { c };
                let hi = doc.post(c);
                cost.charge_probe(1);
                let start = cands.partition_point(|&s| s < lo);
                for &s in &cands[start..] {
                    if s > hi {
                        break;
                    }
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
                    if cands.binary_search(&s).is_ok() && out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Attribute => {
                for s in doc.attributes(c) {
                    cost.charge_probe(1);
                    if cands.binary_search(&s).is_ok() && out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Parent => {
                if c != 0 {
                    let p = doc.parent(c);
                    cost.charge_probe(1);
                    if cands.binary_search(&p).is_ok() && out.emit(row, p, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                let mut cur = c;
                if axis == Axis::AncestorOrSelf {
                    cost.charge_probe(1);
                    if cands.binary_search(&cur).is_ok() && out.emit(row, cur, limit, cost) {
                        break 'outer;
                    }
                }
                while cur != 0 {
                    cur = doc.parent(cur);
                    cost.charge_probe(1);
                    if cands.binary_search(&cur).is_ok() && out.emit(row, cur, limit, cost) {
                        break 'outer;
                    }
                    if cur == 0 {
                        break;
                    }
                }
            }
            Axis::Following => {
                let hi = doc.post(c);
                cost.charge_probe(1);
                let start = cands.partition_point(|&s| s <= hi);
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
                    if cands.binary_search(&s).is_ok() && out.emit(row, s, limit, cost) {
                        break 'outer;
                    }
                }
            }
            Axis::SelfAxis => {
                cost.charge_probe(1);
                if cands.binary_search(&c).is_ok() && out.emit(row, c, limit, cost) {
                    break 'outer;
                }
            }
        }
        out.ctx_done(row);
    }
    out
}

/// Random document driving the builder (same shape as
/// `proptest_staircase.rs`).
fn doc_strategy() -> impl Strategy<Value = Document> {
    prop::collection::vec((0u8..4, 0u8..4), 1..80).prop_map(|actions| {
        let names = ["a", "b", "c", "d"];
        let mut b = DocumentBuilder::new("prop.xml");
        let mut depth = 0usize;
        let mut attrs_ok = false;
        for (action, pick) in actions {
            match action {
                0 => {
                    b.start_element(names[pick as usize]);
                    depth += 1;
                    attrs_ok = true;
                }
                1 => {
                    if depth > 0 {
                        b.end_element();
                        depth -= 1;
                        attrs_ok = false;
                    }
                }
                2 => {
                    if depth > 0 {
                        b.text(&format!("t{pick}"));
                        attrs_ok = false;
                    }
                }
                _ => {
                    if depth > 0 && attrs_ok {
                        b.attribute(names[pick as usize], "v");
                    }
                }
            }
        }
        while depth > 0 {
            b.end_element();
            depth -= 1;
        }
        b.finish(DocId(0))
    })
}

const AXES: [Axis; 12] = [
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::Following,
    Axis::Preceding,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::SelfAxis,
    Axis::Attribute,
];

/// Context: a pseudo-random sorted subset of elements (single-node and
/// empty subsets included); candidates: a pseudo-random subset of the
/// axis-appropriate node kind, so range pruning sees gaps.
fn inputs(doc: &Document, axis: Axis, seed: u64) -> (Vec<Pre>, Vec<Pre>) {
    let idx = ElementIndex::build(doc);
    let mut ctx: Vec<Pre> = idx
        .elements()
        .iter()
        .copied()
        .filter(|p| (p.wrapping_mul(2654435761).wrapping_add(seed as u32)) % 3 != 0)
        .collect();
    ctx.sort_unstable();
    let cands: Vec<Pre> = if axis == Axis::Attribute {
        idx.attributes().to_vec()
    } else {
        (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) != NodeKind::Attribute)
            .filter(|p| (p.wrapping_mul(40503).wrapping_add(seed as u32)) % 4 != 0)
            .collect()
    };
    (ctx, cands)
}

/// Assert one kernel run is bit-identical to the seed loop's output.
fn assert_matches_seed(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    limit: Option<usize>,
    kernel: StepKernel,
    scratch: StepScratch<'_>,
) -> Result<(), String> {
    let scratch = StepScratch {
        kernel: Some(kernel),
        ..scratch
    };
    let mut seed_cost = Cost::new();
    let expect = seed_step_join(doc, axis, ctx, cands, limit, &mut seed_cost);
    let mut cost = Cost::new();
    let got = step_join_kernel(doc, axis, ctx, cands, limit, scratch, &mut cost);
    prop_assert_eq!(&got.pairs, &expect.pairs, "{:?} {:?} pairs", axis, kernel);
    prop_assert_eq!(
        got.truncated,
        expect.truncated,
        "{:?} {:?} truncation",
        axis,
        kernel
    );
    prop_assert_eq!(
        got.reduction_factor().to_bits(),
        expect.reduction_factor().to_bits(),
        "{:?} {:?} reduction factor",
        axis,
        kernel
    );
    prop_assert_eq!(cost, seed_cost, "{:?} {:?} cost counters", axis, kernel);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_kernels_match_seed_probe_loop(doc in doc_strategy(), seed in 0u64..1000) {
        for axis in AXES {
            let (ctx, cands) = inputs(&doc, axis, seed);
            for kernel in [StepKernel::Probe, StepKernel::Bitset] {
                assert_matches_seed(
                    &doc, axis, &ctx, &cands, None, kernel, StepScratch::default(),
                )?;
            }
        }
    }

    #[test]
    fn all_kernels_match_seed_under_cutoff(doc in doc_strategy(), seed in 0u64..1000, limit in 1usize..12) {
        // Small limits force mid-context (and mid-child-list) cut-off
        // hits; charge parity must hold at the exact truncation point.
        for axis in AXES {
            let (ctx, cands) = inputs(&doc, axis, seed);
            for kernel in [StepKernel::Probe, StepKernel::Bitset] {
                assert_matches_seed(
                    &doc, axis, &ctx, &cands, Some(limit), kernel, StepScratch::default(),
                )?;
            }
        }
    }

    #[test]
    fn cached_set_changes_nothing(doc in doc_strategy(), seed in 0u64..1000) {
        for axis in AXES {
            let (ctx, cands) = inputs(&doc, axis, seed);
            let universe = cands.last().map_or(0, |&p| p as usize + 1);
            let set = PreSet::from_nodes(universe, &cands);
            let scratch = StepScratch { cands_set: Some(&set), ..StepScratch::default() };
            assert_matches_seed(&doc, axis, &ctx, &cands, None, StepKernel::Bitset, scratch)?;
        }
    }

    #[test]
    fn dispatch_equals_chosen_kernel(doc in doc_strategy(), seed in 0u64..1000, raw_limit in 0usize..12) {
        // raw_limit == 0 encodes "no cut-off".
        let limit = (raw_limit > 0).then_some(raw_limit);
        for axis in AXES {
            let (ctx, cands) = inputs(&doc, axis, seed);
            let kernel = choose_step_kernel(axis, ctx.len(), cands.len(), limit.is_some());
            if limit.is_some() {
                prop_assert_eq!(kernel, StepKernel::Probe, "sampled mode must stay zero-investment");
            }
            let mut c1 = Cost::new();
            let via_dispatch = step_join(&doc, axis, &ctx, &cands, limit, &mut c1);
            let mut c2 = Cost::new();
            let forced = StepScratch { kernel: Some(kernel), ..StepScratch::default() };
            let via_kernel = step_join_kernel(&doc, axis, &ctx, &cands, limit, forced, &mut c2);
            prop_assert_eq!(via_dispatch.pairs, via_kernel.pairs);
            prop_assert_eq!(c1, c2);
        }
    }

    #[test]
    fn empty_and_single_node_edges(doc in doc_strategy()) {
        let idx = ElementIndex::build(&doc);
        let elements = idx.elements().to_vec();
        let one: Vec<Pre> = elements.iter().copied().take(1).collect();
        for axis in AXES {
            for kernel in [StepKernel::Probe, StepKernel::Bitset] {
                // Empty candidates: every context still pays its walk.
                assert_matches_seed(&doc, axis, &elements, &[], None, kernel, StepScratch::default())?;
                // Empty context.
                assert_matches_seed(&doc, axis, &[], &elements, None, kernel, StepScratch::default())?;
                // Single context node, single candidate.
                assert_matches_seed(&doc, axis, &one, &one, None, kernel, StepScratch::default())?;
            }
        }
    }
}
