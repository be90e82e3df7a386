//! End-to-end kernel-equivalence properties over random join graphs: with
//! every consumer layer (Phase-1 weighting, chain-sampling extensions,
//! full edge execution, plan replay, the naive oracle) routed through
//! `rox_ops::edgeop`, a ROX run must stay
//!
//! * **internally deterministic** — a second run over the same (now warm)
//!   environment reproduces output, join order, edge log (including the
//!   per-edge operator choices), and cost counters bit for bit;
//! * **replayable** — replaying the executed order through the plan layer
//!   reproduces the same relations, edge log, and operator choices; and
//! * **correct** — equal to the kernel-independent naive oracle's output.

use proptest::prelude::*;
use rox_core::{
    naive_evaluate, run_plan_with_env, run_rox_with_env, EdgeOpKind, RoxEnv, RoxOptions,
};
use rox_xmldb::Catalog;
use std::sync::Arc;

/// Random two-document corpus: an auction site plus a person registry so
/// queries exercise steps, branching predicates, and cross-document value
/// joins (both skewed and balanced — the NL/hash crossover is data-driven).
fn corpus_strategy() -> impl Strategy<Value = (String, String)> {
    (
        prop::collection::vec((0u8..4, 0u8..6, any::<bool>()), 1..25),
        1u8..30,
    )
        .prop_map(|(blocks, persons)| {
            let mut site = String::from("<site>");
            for (kind, n, flag) in blocks {
                match kind {
                    0..=1 => {
                        site.push_str("<auction>");
                        if flag {
                            site.push_str("<cheap/>");
                        }
                        for i in 0..n {
                            site.push_str(&format!(
                                "<bidder><personref person=\"p{}\"/></bidder>",
                                i % 7
                            ));
                        }
                        site.push_str("</auction>");
                    }
                    2 => site.push_str(&format!("<note>t{}</note>", n % 3)),
                    _ => site.push_str("<auction><cheap/><bidder/></auction>"),
                }
            }
            site.push_str("</site>");
            let mut reg = String::from("<people>");
            for p in 0..persons {
                reg.push_str(&format!("<person id=\"p{}\"/>", p % 9));
            }
            reg.push_str("</people>");
            (site, reg)
        })
}

const QUERIES: [&str; 5] = [
    r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
    r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder, $p in $b/personref return $p"#,
    r#"for $r in doc("d.xml")//personref, $p in doc("p.xml")//person
       where $r/@person = $p/@id return $r"#,
    r#"for $a in doc("d.xml")//auction, $r in $a//personref, $p in doc("p.xml")//person
       where $r/@person = $p/@id return $p"#,
    r#"for $a in doc("d.xml")//auction, $n in doc("d.xml")//note return $n"#,
];

fn check(site: &str, reg: &str, qi: usize, seed: u64) -> Result<(), String> {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", site).unwrap();
    catalog.load_str("p.xml", reg).unwrap();
    let graph = rox_joingraph::compile_query(QUERIES[qi]).unwrap();
    let env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
    let base = RoxOptions {
        seed,
        tau: 12,
        trace: true,
        ..Default::default()
    };
    let seq = run_rox_with_env(&env, &graph, base).unwrap();
    let again = run_rox_with_env(&env, &graph, base).unwrap();

    // 1. A rerun on the warm environment is bit-identical, operator log
    //    included.
    if again.output != seq.output {
        return Err("outputs differ across runs".into());
    }
    if again.executed_order != seq.executed_order {
        return Err("join orders differ across runs".into());
    }
    if again.edge_log != seq.edge_log {
        return Err("edge logs (incl. operator choices) differ".into());
    }
    if again.exec_cost != seq.exec_cost || again.sample_cost != seq.sample_cost {
        return Err("cost counters differ across runs".into());
    }
    for (a, b) in again.traces.iter().zip(&seq.traces) {
        if a.rounds != b.rounds {
            return Err("chain traces (incl. operator tags) differ".into());
        }
    }

    // 2. Plan replay through the same kernel, on a fresh environment,
    //    reproduces the run exactly — including which physical operator
    //    each edge used.
    let replay_env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
    let replay =
        run_plan_with_env(&replay_env, &graph, &seq.executed_order).map_err(|e| e.to_string())?;
    if replay.output != seq.output {
        return Err("replay output differs".into());
    }
    if replay.edge_log != seq.edge_log {
        return Err("replay edge log / operator choices differ".into());
    }

    // 3. The kernel-independent oracle agrees on the output.
    let (_, oracle) = naive_evaluate(&env, &graph);
    if oracle != seq.output {
        return Err("naive oracle disagrees".into());
    }

    // 4. Every executed edge carries a kernel operator tag consistent with
    //    its mode: selections only for repeat-component edges, and value
    //    joins never tagged as steps.
    for x in &seq.edge_log {
        let edge = graph.edge(x.edge);
        match x.op {
            EdgeOpKind::StepJoin if !edge.is_step() => {
                return Err(format!("edge {} tagged step but is a join", x.edge));
            }
            EdgeOpKind::IndexNLValueJoin | EdgeOpKind::HashValueJoin if edge.is_step() => {
                return Err(format!("edge {} tagged value-join but is a step", x.edge));
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_routing_is_bit_identical_and_correct(
        (site, reg) in corpus_strategy(),
        qi in 0usize..QUERIES.len(),
        seed in 0u64..500,
    ) {
        let r = check(&site, &reg, qi, seed);
        prop_assert!(r.is_ok(), "{} (query {qi}, seed {seed})", r.unwrap_err());
    }
}

/// Deterministic regression: a corpus sized so the skewed value join takes
/// the index-NL path and the balanced one takes hash, with both visible in
/// the edge log.
#[test]
fn operator_log_distinguishes_nl_from_hash() {
    let mut site = String::from("<site>");
    for i in 0..400 {
        site.push_str(&format!(
            "<auction><bidder><personref person=\"p{}\"/></bidder></auction>",
            i % 300
        ));
    }
    site.push_str("</site>");
    // One person: the person side is tiny vs. 400 personrefs -> index-NL.
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", &site).unwrap();
    catalog
        .load_str("p.xml", "<people><person id=\"p7\"/></people>")
        .unwrap();
    let graph = rox_joingraph::compile_query(
        r#"for $r in doc("d.xml")//personref, $p in doc("p.xml")//person
           where $r/@person = $p/@id return $r"#,
    )
    .unwrap();
    let env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
    let run = run_rox_with_env(&env, &graph, RoxOptions::default()).unwrap();
    assert!(
        run.edge_log
            .iter()
            .any(|x| x.op == EdgeOpKind::IndexNLValueJoin),
        "skewed join should use index-NL; log: {:?}",
        run.edge_log
    );

    // Balanced registry -> hash join.
    let catalog2 = Arc::new(Catalog::new());
    catalog2.load_str("d.xml", &site).unwrap();
    let mut reg = String::from("<people>");
    for p in 0..300 {
        reg.push_str(&format!("<person id=\"p{p}\"/>"));
    }
    reg.push_str("</people>");
    catalog2.load_str("p.xml", &reg).unwrap();
    let env2 = RoxEnv::new(Arc::clone(&catalog2), &graph).unwrap();
    let run2 = run_rox_with_env(&env2, &graph, RoxOptions::default()).unwrap();
    assert!(
        run2.edge_log
            .iter()
            .any(|x| x.op == EdgeOpKind::HashValueJoin),
        "balanced join should use hash; log: {:?}",
        run2.edge_log
    );
}
