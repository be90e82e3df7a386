//! Algebraic property tests for [`Relation`]: compose/expand laws,
//! distinct/sort idempotence, and tail invariants.

use proptest::prelude::*;
use rox_ops::{Cost, Relation, Tail};
use rox_xmldb::catalog::DocId;
use rox_xmldb::Pre;

const D: DocId = DocId(0);

fn single_rel(var: u32) -> impl Strategy<Value = Relation> {
    prop::collection::vec(0u32..12, 0..20).prop_map(move |pres| Relation::single(var, D, pres))
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(Pre, Pre)>> {
    prop::collection::vec((0u32..12, 0u32..12), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compose_cardinality_formula(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        let joined = Relation::compose(&left, 1, &right, 2, &pairs);
        // |join| = Σ over pairs of (left multiplicity × right multiplicity).
        let mult = |r: &Relation, var: u32, node: Pre| {
            r.col(var).iter().filter(|&&x| x == node).count()
        };
        let expected: usize = pairs
            .iter()
            .map(|&(a, b)| mult(&left, 1, a) * mult(&right, 2, b))
            .sum();
        prop_assert_eq!(joined.len(), expected);
    }

    #[test]
    fn compose_matches_naive_row_nested_loop(
        left in single_rel(1),
        right in single_rel(2),
        pairs in pairs_strategy(),
        stride in prop::sample::select(vec![1u32, 4099]),
    ) {
        // Stride 1 keeps node values within a small multiple of the row
        // count; stride 4099 spreads the same duplicate-heavy columns over
        // pres far above it — the row index must be sized by the rows it
        // is given, whatever the document's pre universe.
        let left = Relation::single(1, D, left.col(1).iter().map(|&p| p * stride).collect());
        let right = Relation::single(2, D, right.col(2).iter().map(|&p| p * stride).collect());
        let pairs: Vec<(Pre, Pre)> =
            pairs.into_iter().map(|(a, b)| (a * stride, b * stride)).collect();
        // Reference: the old per-pair row nested loop, reimplemented here.
        let mut expected = Relation::empty(vec![1, 2], vec![D, D]);
        for &(a, b) in &pairs {
            for &lv in left.col(1) {
                if lv != a { continue; }
                for &rv in right.col(2) {
                    if rv != b { continue; }
                    expected.push_row(&[lv, rv]);
                }
            }
        }
        let got = Relation::compose(&left, 1, &right, 2, &pairs);
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn compose_is_symmetric_up_to_schema(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        let ab = Relation::compose(&left, 1, &right, 2, &pairs);
        let flipped: Vec<(Pre, Pre)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
        let ba = Relation::compose(&right, 2, &left, 1, &flipped);
        prop_assert_eq!(ab.len(), ba.len());
        // Same multiset of (var1, var2) bindings.
        let mut x: Vec<(Pre, Pre)> =
            ab.col(1).iter().zip(ab.col(2)).map(|(&a, &b)| (a, b)).collect();
        let mut y: Vec<(Pre, Pre)> =
            ba.col(1).iter().zip(ba.col(2)).map(|(&a, &b)| (a, b)).collect();
        x.sort_unstable();
        y.sort_unstable();
        prop_assert_eq!(x, y);
    }

    #[test]
    fn distinct_is_idempotent(rel in single_rel(1)) {
        let mut once = rel.clone();
        once.distinct();
        let mut twice = once.clone();
        twice.distinct();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn distinct_matches_hashset_reference(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        // Two-column relation so dedup works on real row tuples.
        let mut rel = Relation::compose(&left, 1, &right, 2, &pairs);
        // Reference: first-occurrence filter via a HashSet of rows (the
        // pre-vectorization implementation).
        let mut seen = std::collections::HashSet::new();
        let keep: Vec<bool> = (0..rel.len())
            .map(|i| seen.insert((rel.col(1)[i], rel.col(2)[i])))
            .collect();
        let mut expected = rel.clone();
        expected.retain_rows(&keep);
        rel.distinct();
        prop_assert_eq!(rel, expected);
    }

    #[test]
    fn sort_is_idempotent_and_stable_cardinality(rel in single_rel(1)) {
        let mut s1 = rel.clone();
        s1.sort_by(&[1]);
        prop_assert_eq!(s1.len(), rel.len());
        let mut s2 = s1.clone();
        s2.sort_by(&[1]);
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn tail_output_is_sorted_and_distinct(rel in single_rel(1)) {
        let tail = Tail { dedup_vars: vec![1], sort_vars: vec![1], output_vars: vec![1] };
        let out = tail.apply(&rel, &mut Cost::new());
        let col = out.col(1);
        prop_assert!(col.windows(2).all(|w| w[0] < w[1]), "strictly increasing after dedup");
        // Same distinct node set as the input.
        prop_assert_eq!(col.to_vec(), rel.distinct_nodes(1));
    }

    #[test]
    fn expand_preserves_left_bindings(rel in single_rel(1), raw in prop::collection::vec((0u32..20, 0u32..12), 0..20)) {
        let pairs: Vec<(u32, Pre)> = raw
            .into_iter()
            .filter(|(row, _)| (*row as usize) < rel.len())
            .collect();
        let ex = rel.expand(&pairs, 2, DocId(1));
        prop_assert_eq!(ex.len(), pairs.len());
        prop_assert_eq!(ex.doc_of(2), DocId(1));
        for (i, &(row, node)) in pairs.iter().enumerate() {
            prop_assert_eq!(ex.col(1)[i], rel.col(1)[row as usize]);
            prop_assert_eq!(ex.col(2)[i], node);
        }
    }
}
