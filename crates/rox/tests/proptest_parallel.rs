//! Parallel/sequential equivalence: `run_rox` under any `Parallelism`
//! must be **bit-identical** to the sequential run — same output, same
//! chosen join order, same edge log, same deterministic cost counters —
//! across random documents, queries, seeds, and thread counts. This is the
//! contract that makes the parallel candidate-sampling subsystem safe to
//! enable everywhere.

use proptest::prelude::*;
use rox_core::{run_plan_with_env, run_rox, Parallelism, RoxEnv, RoxOptions};
use rox_xmldb::Catalog;
use std::sync::Arc;

/// Random auction-flavoured document (same family as `tests/equivalence.rs`
/// at the workspace root, kept deliberately branchy so chain sampling has
/// paths to explore).
fn doc_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..5, 0u8..7, any::<bool>()), 1..30).prop_map(|blocks| {
        let mut s = String::from("<site>");
        for (kind, n, flag) in blocks {
            match kind {
                0..=1 => {
                    s.push_str("<auction>");
                    if flag {
                        s.push_str("<cheap/>");
                    }
                    for i in 0..n {
                        s.push_str(&format!(
                            "<bidder><personref person=\"p{}\"/></bidder>",
                            i % 5
                        ));
                    }
                    s.push_str("</auction>");
                }
                2 => {
                    s.push_str(&format!("<person id=\"p{}\"/>", n % 5));
                }
                3 => {
                    s.push_str(&format!("<note>txt{}</note>", n % 4));
                }
                _ => {
                    s.push_str("<auction><cheap/></auction>");
                }
            }
        }
        s.push_str("</site>");
        s
    })
}

const QUERIES: [&str; 4] = [
    r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
    r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder, $p in $b/personref return $p"#,
    r#"for $r in doc("d.xml")//personref, $p in doc("d.xml")//person
       where $r/@person = $p/@id return $r"#,
    r#"for $a in doc("d.xml")//auction, $n in doc("d.xml")//note return $n"#,
];

fn assert_identical_runs(xml: &str, qi: usize, seed: u64, par: Parallelism) -> Result<(), String> {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", xml).unwrap();
    let graph = rox_joingraph::compile_query(QUERIES[qi]).unwrap();
    let base = RoxOptions {
        seed,
        tau: 16,
        trace: true,
        ..Default::default()
    };
    let seq = run_rox(Arc::clone(&catalog), &graph, base).unwrap();
    let parl = run_rox(
        Arc::clone(&catalog),
        &graph,
        RoxOptions {
            parallelism: par,
            ..base
        },
    )
    .unwrap();
    if parl.output != seq.output {
        return Err("outputs differ".into());
    }
    if parl.executed_order != seq.executed_order {
        return Err(format!(
            "join orders differ: {:?} vs {:?}",
            parl.executed_order, seq.executed_order
        ));
    }
    if parl.joined != seq.joined {
        return Err("joined relations differ".into());
    }
    if parl.edge_log != seq.edge_log {
        return Err("edge logs differ".into());
    }
    if parl.exec_cost != seq.exec_cost {
        return Err(format!(
            "exec costs differ: {:?} vs {:?}",
            parl.exec_cost, seq.exec_cost
        ));
    }
    if parl.sample_cost != seq.sample_cost {
        return Err(format!(
            "sample costs differ: {:?} vs {:?}",
            parl.sample_cost, seq.sample_cost
        ));
    }
    if parl.traces.len() != seq.traces.len() {
        return Err("trace counts differ".into());
    }
    for (a, b) in parl.traces.iter().zip(&seq.traces) {
        if a.chosen != b.chosen || a.seed_edge != b.seed_edge || a.rounds != b.rounds {
            return Err("chain-sampling traces differ".into());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn threads_match_sequential_bit_for_bit(
        xml in doc_strategy(),
        qi in 0usize..4,
        seed in 0u64..1000,
        threads in 2usize..9,
    ) {
        let r = assert_identical_runs(&xml, qi, seed, Parallelism::Threads(threads));
        prop_assert!(r.is_ok(), "{} (query {qi}, seed {seed}, threads {threads})", r.unwrap_err());
    }

    #[test]
    fn auto_parallelism_matches_sequential(xml in doc_strategy(), qi in 0usize..4) {
        let r = assert_identical_runs(&xml, qi, 7, Parallelism::Auto);
        prop_assert!(r.is_ok(), "{} (query {qi})", r.unwrap_err());
    }
}

/// A document large enough that full edge execution crosses the
/// partitioned operators' engagement threshold (2 * `MIN_PARTITION_INPUT`
/// = 4096 probe tuples), so the partitioned staircase and hash joins
/// genuinely run multi-threaded — and must still be bit-identical.
fn large_doc() -> String {
    let mut s = String::from("<site>");
    for i in 0..9000 {
        s.push_str("<auction>");
        if i % 3 == 0 {
            s.push_str("<cheap/>");
        }
        for j in 0..2 {
            s.push_str(&format!(
                "<bidder><personref person=\"p{}\"/></bidder>",
                (i + j) % 40
            ));
        }
        s.push_str("</auction>");
    }
    for p in 0..40 {
        s.push_str(&format!("<person id=\"p{p}\"/>"));
    }
    s.push_str("</site>");
    s
}

#[test]
fn partitioned_execution_is_identical_on_large_inputs() {
    let xml = large_doc();
    for qi in 0..QUERIES.len() {
        assert_identical_runs(&xml, qi, 42, Parallelism::Threads(4))
            .unwrap_or_else(|e| panic!("query {qi}: {e}"));
    }
}

#[test]
fn plan_replay_is_identical_under_parallelism() {
    let xml = large_doc();
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", &xml).unwrap();
    let graph = rox_joingraph::compile_query(QUERIES[1]).unwrap();
    let order: Vec<u32> = graph
        .edges()
        .iter()
        .filter(|e| !e.redundant)
        .map(|e| e.id)
        .collect();
    let seq = rox_core::run_plan(Arc::clone(&catalog), &graph, &order).unwrap();
    let env = RoxEnv::with_parallelism(catalog, &graph, Parallelism::Threads(4)).unwrap();
    let par = run_plan_with_env(&env, &graph, &order).unwrap();
    assert_eq!(par.output, seq.output);
    assert_eq!(par.edge_log, seq.edge_log);
    assert_eq!(par.cost, seq.cost);
    assert_eq!(par.cumulative_rows, seq.cumulative_rows);
}
