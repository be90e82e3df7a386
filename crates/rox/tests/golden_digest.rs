//! Golden run digests: the committed bit-identity check.
//!
//! Every run path — optimizing run, pure plan replay, engine plan-cache
//! replay, re-optimization after an invalidation — is folded into an
//! FNV-1a-64 over everything a run reports except wall clocks: the
//! executed order, every [`EdgeExec`] field, both [`Cost`] counters, and
//! the output and joined rows. `XMARK_DIGEST` and `DBLP_DIGEST` were
//! generated at the commit *before* the scratch pool was deleted;
//! `ENGINE_DIGEST` was generated by its current test body on an engine
//! that still ran sampled spot probes before every plan-cache replay. A
//! replay's sample cost is the one thing left out of the fold; the test
//! pins it to zero separately. A refactor that claims "outputs, join
//! orders, edge logs and cost counters stay bit-identical" passes this
//! file unchanged or is wrong.
//!
//! When a change is *meant* to move a digest (a new cost rule, a new
//! operator choice), the failing assertion prints the new value.
//!
//! The xmark and engine tests fold each query twice (the second pass on a
//! fresh environment, or warm on the same engine), where a sequential and
//! a two-thread pass used to run; the constants did not move when the
//! two-thread passes went. No longer pinned: two-thread runs take the
//! morsel arms.

use rox_core::{
    run_plan_with_env, run_rox_with_env, EdgeExec, EngineRun, PlanReuse, RoxEngine, RoxEnv,
    RoxOptions, RoxReport,
};
use rox_datagen::{
    dblp_query, generate_dblp, generate_xmark, grouped_combinations, xmark_query, DblpConfig,
    XmarkConfig,
};
use rox_joingraph::compile_query;
use rox_ops::{Cost, Relation};
use rox_xmldb::Catalog;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const XMARK_DIGEST: u64 = 0x5955_acb0_1d1c_8c19;
const ENGINE_DIGEST: u64 = 0xefc5_8114_bb46_abf2;
const DBLP_DIGEST: u64 = 0x6112_3a28_8839_5f40;

/// FNV-1a-64 over a stream of `u64` words (little-endian bytes), plus the
/// operator labels it has seen — so each test can assert its digest
/// actually covers the operators it is meant to pin.
struct Digest {
    hash: u64,
    ops: BTreeSet<&'static str>,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            ops: BTreeSet::new(),
        }
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Compare against the committed constant, printing the fresh value
    /// on a mismatch.
    fn check(&self, name: &str, golden: u64) {
        assert_eq!(
            self.hash, golden,
            "{name} moved: now {:#018x}, committed {golden:#018x}",
            self.hash
        );
    }

    fn ops(&self) -> Vec<&'static str> {
        self.ops.iter().copied().collect()
    }

    fn relation(&mut self, rel: &Relation) {
        self.word(rel.schema().len() as u64);
        self.word(rel.len() as u64);
        for (&var, doc) in rel.schema().iter().zip(rel.docs()) {
            self.word(u64::from(var));
            self.word(u64::from(doc.0));
            for &pre in rel.col(var) {
                self.word(u64::from(pre));
            }
        }
    }

    fn cost(&mut self, cost: &Cost) {
        self.word(cost.tuples_in);
        self.word(cost.tuples_out);
        self.word(cost.probes);
    }

    fn edge_log(&mut self, log: &[EdgeExec]) {
        self.word(log.len() as u64);
        for x in log {
            self.word(u64::from(x.edge));
            self.word(x.result_rows as u64);
            for b in x.op.label().bytes() {
                self.word(u64::from(b));
            }
            self.word(x.pairs as u64);
            self.word(x.inputs.0 as u64);
            self.word(x.inputs.1 as u64);
            self.ops.insert(x.op.label());
        }
    }

    fn order(&mut self, order: &[u32]) {
        self.word(order.len() as u64);
        for &e in order {
            self.word(u64::from(e));
        }
    }

    fn report(&mut self, r: &RoxReport) {
        self.order(&r.executed_order);
        self.edge_log(&r.edge_log);
        self.cost(&r.exec_cost);
        self.cost(&r.sample_cost);
        self.relation(&r.output);
        self.relation(&r.joined);
    }

    /// A replay's sampling is not folded: it is pinned to zero outside
    /// the digest.
    fn engine_run(&mut self, r: &EngineRun) {
        self.word(u64::from(r.plan_cache_hit));
        self.order(&r.executed_order);
        self.edge_log(&r.edge_log);
        self.cost(&r.exec_cost);
        if !r.plan_cache_hit {
            self.cost(&r.sample_cost);
        }
        self.relation(&r.output);
        self.relation(&r.joined);
    }
}

/// Large enough that the bitset staircase kernel engages.
fn xmark_config() -> XmarkConfig {
    XmarkConfig {
        persons: 2400,
        items: 2000,
        auctions: 2000,
        ..XmarkConfig::default()
    }
}

const Q_CHAIN: &str =
    r#"for $o in doc("xmark.xml")//open_auction, $b in $o/bidder, $r in $b/personref return $r"#;
const Q_REF_JOIN: &str = r#"for $r in doc("xmark.xml")//personref, $p in doc("xmark.xml")//person
                            where $r/@person = $p/@id return $r"#;

fn xmark_queries() -> [String; 4] {
    [
        xmark_query("<", 145.0),
        xmark_query(">", 145.0),
        Q_CHAIN.to_string(),
        Q_REF_JOIN.to_string(),
    ]
}

#[test]
fn xmark_runs_and_replays() {
    let catalog = Arc::new(Catalog::new());
    generate_xmark(&catalog, "xmark.xml", &xmark_config());
    let mut d = Digest::new();
    for query in xmark_queries() {
        let graph = compile_query(&query).unwrap();
        // Two passes, each on a fresh environment.
        for _pass in 0..2 {
            let env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
            for seed in [1, 42, 1975] {
                let options = RoxOptions {
                    seed,
                    ..RoxOptions::default()
                };
                let report = run_rox_with_env(&env, &graph, options).unwrap();
                d.report(&report);
                let replay = run_plan_with_env(&env, &graph, &report.executed_order).unwrap();
                d.edge_log(&replay.edge_log);
                d.cost(&replay.cost);
                d.relation(&replay.output);
                d.relation(&replay.joined);
            }
        }
    }
    assert_eq!(d.ops(), ["hash", "step"]);
    d.check("XMARK_DIGEST", XMARK_DIGEST);
}

/// 30 auctions (every third `cheap`), one `personref` per bidder; varying
/// only the bidder split moves the joint selectivity of `cheap ∘ bidder`
/// while every base cardinality stays put.
fn correlated_site(bidders_on_cheap: usize, bidders_on_dear: usize) -> String {
    let mut xml = String::from("<site>");
    for i in 0..30 {
        xml.push_str("<auction>");
        let cheap = i % 3 == 0;
        if cheap {
            xml.push_str("<cheap/>");
        }
        let bidders = if cheap {
            bidders_on_cheap
        } else {
            bidders_on_dear
        };
        for b in 0..bidders {
            xml.push_str(&format!(
                "<bidder><personref person=\"p{}\"/></bidder>",
                b % 7
            ));
        }
        xml.push_str("</auction>");
    }
    for p in 0..7 {
        xml.push_str(&format!("<person id=\"p{p}\"/>"));
    }
    xml.push_str("</site>");
    xml
}

#[test]
fn engine_cold_replayed_invalidated() {
    let reuse = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..RoxOptions::default()
    };
    let mut d = Digest::new();
    let mut hits: Vec<EngineRun> = Vec::new();

    // A content change under a warm plan: cold → replayed → reload and
    // invalidate → re-optimized on the new data → replayed again.
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", &correlated_site(1, 10)).unwrap();
    let engine = RoxEngine::new(Arc::clone(&catalog));
    let graph = compile_query(
        r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder, $p in $b/personref return $p"#,
    )
    .unwrap();
    let cold = engine.run(&graph, reuse).unwrap();
    assert!(!cold.plan_cache_hit);
    d.engine_run(&cold);
    let warm = engine.run(&graph, reuse).unwrap();
    assert!(warm.plan_cache_hit);
    d.engine_run(&warm);
    hits.push(warm);
    catalog.load_str("d.xml", &correlated_site(21, 0)).unwrap();
    engine.invalidate_document("d.xml");
    let changed = engine.run(&graph, reuse).unwrap();
    assert!(!changed.plan_cache_hit);
    let env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
    let fresh = run_rox_with_env(&env, &graph, reuse).unwrap();
    assert_eq!(changed.executed_order, fresh.executed_order);
    assert_eq!(changed.edge_log, fresh.edge_log);
    assert_eq!(changed.exec_cost, fresh.exec_cost);
    assert_eq!(changed.sample_cost, fresh.sample_cost);
    assert_eq!(changed.output, fresh.output);
    assert_eq!(changed.joined, fresh.joined);
    d.engine_run(&changed);
    let rewarm = engine.run(&graph, reuse).unwrap();
    assert!(rewarm.plan_cache_hit);
    d.engine_run(&rewarm);
    hits.push(rewarm);

    // The serving shape of the benchmark: XMark Q1/Qm1, cold then warm.
    let catalog = Arc::new(Catalog::new());
    generate_xmark(&catalog, "xmark.xml", &xmark_config());
    let engine = RoxEngine::new(catalog);
    for op in ["<", ">"] {
        let graph = compile_query(&xmark_query(op, 145.0)).unwrap();
        for pass in 0..2 {
            let run = engine.run(&graph, reuse).unwrap();
            assert_eq!(run.plan_cache_hit, pass == 1);
            d.engine_run(&run);
            if run.plan_cache_hit {
                hits.push(run);
            }
        }
    }
    d.check("ENGINE_DIGEST", ENGINE_DIGEST);

    // A hit is a plain replay: it samples nothing and checks nothing.
    for (i, hit) in hits.iter().enumerate() {
        assert_eq!(hit.sample_cost.total(), 0, "hit {i} sampled");
        assert_eq!(hit.sample_wall, Duration::ZERO, "hit {i} sampled");
        assert!(hit.spot_checks.is_empty(), "hit {i} ran spot checks");
    }
}

#[test]
fn dblp_four_way_combos() {
    let catalog = Arc::new(Catalog::new());
    generate_dblp(&catalog, &DblpConfig::tiny());
    let combos = grouped_combinations();
    let stride = combos.len() / 32;
    let mut d = Digest::new();
    for (combo, _) in combos.iter().step_by(stride).take(32) {
        let graph = compile_query(&dblp_query(combo)).unwrap();
        let env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
        for chain_sampling in [true, false] {
            let options = RoxOptions {
                chain_sampling,
                ..RoxOptions::default()
            };
            d.report(&run_rox_with_env(&env, &graph, options).unwrap());
        }
    }
    assert_eq!(d.ops(), ["hash", "idx-nl", "select", "step"]);
    d.check("DBLP_DIGEST", DBLP_DIGEST);
}
