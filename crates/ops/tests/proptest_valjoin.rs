//! Property tests for the value-join algorithms: hash and
//! index-nested-loop must agree with each other and with a quadratic
//! reference on random documents.

use proptest::prelude::*;
use rox_index::ValueIndex;
use rox_ops::{hash_value_join, index_value_join, Cost};
use rox_xmldb::{Catalog, Document, NodeKind, Pre};
use std::sync::Arc;

fn docs_strategy() -> impl Strategy<Value = (Vec<String>, Vec<String>)> {
    let val = prop::sample::select(vec!["a", "b", "c", "d", "e", "f", "g", "h"]);
    (
        prop::collection::vec(val.clone(), 0..30),
        prop::collection::vec(val, 0..30),
    )
        .prop_map(|(l, r)| {
            (
                l.into_iter().map(str::to_string).collect(),
                r.into_iter().map(str::to_string).collect(),
            )
        })
}

fn build(values_l: &[String], values_r: &[String]) -> (Arc<Document>, Arc<Document>) {
    let cat = Arc::new(Catalog::new());
    let mk = |vals: &[String]| {
        let mut s = String::from("<r>");
        for v in vals {
            s.push_str(&format!("<t>{v}</t>"));
        }
        s.push_str("</r>");
        s
    };
    let a = cat.load_str("a.xml", &mk(values_l)).unwrap();
    let b = cat.load_str("b.xml", &mk(values_r)).unwrap();
    (cat.doc(a), cat.doc(b))
}

fn text_nodes(d: &Document) -> Vec<Pre> {
    (0..d.node_count() as Pre)
        .filter(|&p| d.kind(p) == NodeKind::Text)
        .collect()
}

/// Quadratic reference join.
fn reference(da: &Document, la: &[Pre], db: &Document, lb: &[Pre]) -> Vec<(Pre, Pre)> {
    let mut out = Vec::new();
    for &a in la {
        for &b in lb {
            if da.value_str(a) == db.value_str(b) {
                out.push((a, b));
            }
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_join_matches_reference((l, r) in docs_strategy()) {
        let (da, db) = build(&l, &r);
        let (la, lb) = (text_nodes(&da), text_nodes(&db));
        let mut got = hash_value_join(&da, &la, &db, &lb, &mut Cost::new());
        got.sort_unstable();
        prop_assert_eq!(got, reference(&da, &la, &db, &lb));
    }

    #[test]
    fn index_nl_join_matches_reference((l, r) in docs_strategy()) {
        let (da, db) = build(&l, &r);
        let (la, lb) = (text_nodes(&da), text_nodes(&db));
        let idx = ValueIndex::build(&db);
        let out = index_value_join(&da, &la, &idx, NodeKind::Text, Some(&lb), None, &mut Cost::new());
        let mut got: Vec<(Pre, Pre)> = out
            .pairs
            .iter()
            .map(|&(row, s)| (la[row as usize], s))
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, reference(&da, &la, &db, &lb));
    }

    #[test]
    fn cutoff_join_is_prefix((l, r) in docs_strategy(), limit in 1usize..10) {
        let (da, db) = build(&l, &r);
        let la = text_nodes(&da);
        let idx = ValueIndex::build(&db);
        let full = index_value_join(&da, &la, &idx, NodeKind::Text, None, None, &mut Cost::new());
        let cut = index_value_join(&da, &la, &idx, NodeKind::Text, None, Some(limit), &mut Cost::new());
        prop_assert!(cut.pairs.len() <= limit.max(1));
        prop_assert_eq!(&full.pairs[..cut.pairs.len()], &cut.pairs[..]);
        if cut.truncated {
            let est = cut.estimate();
            prop_assert!(est.is_finite() && est >= cut.pairs.len() as f64);
        }
    }

    #[test]
    fn join_cardinality_is_symmetric((l, r) in docs_strategy()) {
        let (da, db) = build(&l, &r);
        let (la, lb) = (text_nodes(&da), text_nodes(&db));
        let ab = hash_value_join(&da, &la, &db, &lb, &mut Cost::new()).len();
        let ba = hash_value_join(&db, &lb, &da, &la, &mut Cost::new()).len();
        prop_assert_eq!(ab, ba);
    }
}
