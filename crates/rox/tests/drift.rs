//! Drift-injection harness for guarded plan replay.
//!
//! The [`DriftInjector`] fixture mutates a catalog *underneath* a warm
//! [`RoxEngine`] through the incremental-update path (`reindex_document`:
//! derived data refreshed, cached plans kept) — exactly the situation the
//! replay guard exists for. Three injection modes:
//!
//! * **document swap** — replace a document's content wholesale;
//! * **value-skew rewrite** — serialize the live document, transform the
//!   text, and reload it (content-addressed drift);
//! * **cardinality inflation** — regenerate an XMark document with scaled
//!   [`XmarkConfig`] knobs (more auctions, more bidders per auction).
//!
//! On top of the fixture: a deterministic correlation-drift test (base
//! cardinalities preserved, joint selectivity inflated ~20×) that must
//! demote **mid-query** and match a fresh optimization bit-for-bit, plus
//! two property tests — zero drift never demotes and stays bit-identical
//! to the pure plan replay (PR-5 behavior), and drifted replays always
//! match a fresh `AlwaysOptimize` run on the drifted catalog, leaving the
//! cache holding the refreshed plan.

use proptest::prelude::*;
use rox_core::{
    run_plan_with_env, run_rox, run_rox_with_env, CheckKind, PlanReuse, RoxEngine, RoxEnv,
    RoxOptions, RunMode,
};
use rox_datagen::{generate_xmark, XmarkConfig};
use rox_joingraph::JoinGraph;
use rox_ops::revalidation_budget;
use rox_xmldb::{serialize_document, Catalog};
use std::sync::Arc;

/// A warm engine plus controlled ways to drift the data underneath it.
///
/// Every injection goes through [`RoxEngine::reindex_document`]: indexes
/// and base lists are refreshed but cached plans survive, so the next
/// `ReuseValidated` run replays against data the plan was not seeded on —
/// the guard, not the cache key, must catch the drift.
struct DriftInjector {
    engine: RoxEngine,
}

impl DriftInjector {
    /// Engine over a single-document catalog.
    fn new(uri: &str, xml: &str) -> Self {
        let catalog = Arc::new(Catalog::new());
        catalog.load_str(uri, xml).unwrap();
        DriftInjector {
            engine: RoxEngine::new(catalog),
        }
    }

    /// Engine over a generated XMark document, loaded from the shared
    /// fixture snapshot when a previous binary already generated it.
    fn new_xmark(uri: &str, cfg: &XmarkConfig) -> Self {
        DriftInjector {
            engine: RoxEngine::new(rox_datagen::shared_xmark_catalog(uri, cfg)),
        }
    }

    fn engine(&self) -> &RoxEngine {
        &self.engine
    }

    /// Mode 1 — swap the document's content wholesale.
    fn swap_document(&self, uri: &str, xml: &str) {
        self.engine.catalog().load_str(uri, xml).unwrap();
        self.engine.reindex_document(uri);
    }

    /// Mode 2 — value-skew rewrite: serialize the live document, let the
    /// caller transform the text, reload the result.
    fn rewrite(&self, uri: &str, f: impl FnOnce(&str) -> String) {
        let doc = self
            .engine
            .catalog()
            .doc_by_uri(uri)
            .expect("document to rewrite");
        let xml = serialize_document(&doc);
        self.swap_document(uri, &f(&xml));
    }

    /// Mode 3 — cardinality inflation: regenerate the XMark document under
    /// scaled generator knobs.
    fn inflate_xmark(&self, uri: &str, cfg: &XmarkConfig) {
        generate_xmark(self.engine.catalog(), uri, cfg);
        self.engine.reindex_document(uri);
    }
}

fn reuse(seed: u64, tau: usize) -> RoxOptions {
    RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        seed,
        tau,
        ..Default::default()
    }
}

/// 30 auctions (every third `cheap`), bidder counts split by class, one
/// `personref` per bidder. Varying only the split moves the *joint*
/// selectivity of `cheap ∘ bidder` while every base cardinality — auctions,
/// cheap flags, bidders, personrefs — stays put.
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

const Q_CHEAP_CHAIN: &str =
    r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder, $p in $b/personref return $p"#;

/// The acceptance test of the issue: a ~20×-skewed replay demotes
/// **mid-query** — the skew is pure correlation, so every pre-execution
/// sampled check passes (base cardinalities are unchanged) and only an
/// *observed* check, after at least one plan edge has executed, can fire.
/// The demoted run's output matches a fresh optimization bit-for-bit.
#[test]
fn correlation_skew_demotes_mid_query_and_matches_fresh_optimization() {
    // Seed: 10 cheap auctions hold 1 bidder each (10 of 210 total);
    // drift: the same 210 bidders, now all 210 under the cheap auctions.
    let inj = DriftInjector::new("d.xml", &correlated_site(1, 10));
    let g = rox_joingraph::compile_query(Q_CHEAP_CHAIN).unwrap();
    let opts = reuse(42, 100);
    let cold = inj.engine().run(&g, opts).unwrap();
    assert_eq!(cold.mode, RunMode::Optimized);

    inj.swap_document("d.xml", &correlated_site(21, 0));
    let drifted = inj.engine().run(&g, opts).unwrap();

    let RunMode::Demoted { at_edge } = drifted.mode else {
        panic!("drifted replay must demote, got {:?}", drifted.mode);
    };
    assert!(
        at_edge >= 1,
        "correlation drift is invisible before execution; demotion must \
         happen mid-query, not at edge 0"
    );
    // The pre-execution sampled checks all passed; the breach was observed.
    let breached: Vec<_> = drifted.spot_checks.iter().filter(|c| c.breached).collect();
    assert_eq!(breached.len(), 1);
    assert_eq!(breached[0].kind, CheckKind::Observed);
    assert!(drifted
        .spot_checks
        .iter()
        .filter(|c| c.kind == CheckKind::SampledWeight)
        .all(|c| !c.breached));

    // Bit-for-bit against a fresh optimizing run on the drifted catalog.
    let fresh = run_rox(
        Arc::clone(inj.engine().catalog()),
        &g,
        RoxOptions {
            seed: opts.seed,
            tau: opts.tau,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(drifted.output, fresh.output);
    assert_eq!(drifted.joined, fresh.joined);

    // Demotion re-seeded the cache; the refreshed plan now revalidates.
    assert_eq!(inj.engine().stats().plan_demotions, 1);
    assert_eq!(inj.engine().stats().cached_plans, 1);
    let rewarm = inj.engine().run(&g, opts).unwrap();
    assert_eq!(rewarm.mode, RunMode::Revalidated);
    assert_eq!(rewarm.output, fresh.output);
}

/// Uniform cardinality inflation is the opposite regime: every base list
/// grows ~10×, so the *sampled* pre-execution checks fire and the plan is
/// demoted before a single stale-plan edge executes.
#[test]
fn cardinality_inflation_breaches_a_sampled_precheck() {
    let tiny = XmarkConfig::tiny();
    let inj = DriftInjector::new_xmark("xmark.xml", &tiny);
    let q = r#"for $o in doc("xmark.xml")//open_auction, $b in $o/bidder, $r in $b/personref return $r"#;
    let g = rox_joingraph::compile_query(q).unwrap();
    let opts = reuse(7, 64);
    inj.engine().run(&g, opts).unwrap();

    // ~10× auctions and ~10× bidders per auction (price_per_bidder ÷ 10).
    let inflated = XmarkConfig {
        auctions: tiny.auctions * 10,
        price_per_bidder: tiny.price_per_bidder / 10.0,
        ..tiny.clone()
    };
    inj.inflate_xmark("xmark.xml", &inflated);

    let drifted = inj.engine().run(&g, opts).unwrap();
    assert_eq!(drifted.mode, RunMode::Demoted { at_edge: 0 });
    assert!(drifted
        .spot_checks
        .iter()
        .any(|c| c.breached && c.kind == CheckKind::SampledWeight));
    // Demoted before any edge executed, the run *is* a fresh optimization
    // of the drifted catalog: Phase 1 seeds from untouched vertices either
    // way, so order, per-edge log, execution work and output all coincide
    // (only the spot probes' sampling charge sets the two apart).
    let env = RoxEnv::new(Arc::clone(inj.engine().catalog()), &g).unwrap();
    let fresh = run_rox_with_env(
        &env,
        &g,
        RoxOptions {
            seed: opts.seed,
            tau: opts.tau,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(drifted.executed_order, fresh.executed_order);
    assert_eq!(drifted.edge_log, fresh.edge_log);
    assert_eq!(drifted.exec_cost, fresh.exec_cost);
    assert_eq!(drifted.output, fresh.output);
}

/// Value-skew rewrite drift: textually rewriting `person` references so
/// the equi-join fans out onto a single hot key inflates the join result
/// without touching any element count.
#[test]
fn value_skew_rewrite_demotes_the_value_join_plan() {
    let inj = DriftInjector::new("d.xml", &correlated_site(3, 3));
    let q = r#"for $r in doc("d.xml")//personref, $p in doc("d.xml")//person
               where $r/@person = $p/@id return $r"#;
    let g = rox_joingraph::compile_query(q).unwrap();
    let opts = reuse(42, 100);
    let cold = inj.engine().run(&g, opts).unwrap();

    // Skew every personref onto p0 and fan the person side out: each of
    // the 90 refs now matches 7 duplicate ids instead of 1 distinct one.
    inj.rewrite("d.xml", |xml| {
        let mut skewed = xml.to_string();
        for p in 1..7 {
            skewed = skewed.replace(&format!("person=\"p{p}\""), "person=\"p0\"");
            skewed = skewed.replace(&format!("id=\"p{p}\""), "id=\"p0\"");
        }
        skewed
    });

    let drifted = inj.engine().run(&g, opts).unwrap();
    assert!(
        matches!(drifted.mode, RunMode::Demoted { .. }),
        "skewed join must demote, got {:?}",
        drifted.mode
    );
    let fresh = run_rox(
        Arc::clone(inj.engine().catalog()),
        &g,
        RoxOptions {
            seed: opts.seed,
            tau: opts.tau,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(drifted.output, fresh.output);
    assert!(drifted.output.len() > cold.output.len());
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

/// Random auction-flavoured document (same family as
/// `proptest_engine.rs`).
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

const QUERIES: [&str; 3] = [
    r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
    r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder, $p in $b/personref return $p"#,
    r#"for $r in doc("d.xml")//personref, $p in doc("d.xml")//person
       where $r/@person = $p/@id return $r"#,
];

/// Zero drift: the guarded replay must be bit-identical — output, joined
/// relation, edge order, edge log (incl. operator choices), exec cost —
/// to the *pure* plan replay of the cached order (the pre-guard PR-5
/// behavior), never demote, and charge at most the spot-check budget on
/// top of it (also bounded by the seeding run's own sampling).
fn check_zero_drift(xml: &str, qi: usize, seed: u64) -> Result<(), String> {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", xml).unwrap();
    let graph: JoinGraph = rox_joingraph::compile_query(QUERIES[qi]).unwrap();
    let engine = RoxEngine::new(Arc::clone(&catalog));
    let opts = reuse(seed, 16);

    let cold = engine.run(&graph, opts).map_err(|e| e.to_string())?;
    let plan = engine.cached_plan(&graph).ok_or("no plan seeded")?;
    // PR-5 oracle: replay the cached order with no guard at all.
    let env = RoxEnv::new(Arc::clone(&catalog), &graph).map_err(|e| e.to_string())?;
    let pure = run_plan_with_env(&env, &graph, &plan.order).map_err(|e| e.to_string())?;

    let warm = engine.run(&graph, opts).map_err(|e| e.to_string())?;
    if warm.mode != RunMode::Revalidated {
        return Err(format!("zero drift must revalidate, got {:?}", warm.mode));
    }
    if warm.spot_checks.iter().any(|c| c.breached) {
        return Err("zero drift produced a breached spot check".into());
    }
    if warm.output != pure.output {
        return Err("guarded output differs from pure replay".into());
    }
    if warm.joined != pure.joined {
        return Err("guarded joined relation differs from pure replay".into());
    }
    if warm.edge_log != pure.edge_log {
        return Err("guarded edge log differs from pure replay".into());
    }
    if warm.exec_cost != pure.cost {
        return Err(format!(
            "guarded exec cost {:?} differs from pure replay {:?}",
            warm.exec_cost, pure.cost
        ));
    }
    if warm.executed_order != cold.executed_order {
        return Err("guarded order differs from the seeding run".into());
    }
    // Overhead: each spot check probes both endpoints at the small fixed
    // REVALIDATE_SPOT_TAU, so the total charge is bounded by the budget
    // the guard grants itself (the cap allows one probe of overshoot —
    // the budget is checked before a probe starts, not during it).
    if warm.sample_cost.total() > 2 * revalidation_budget(opts.tau) {
        return Err(format!(
            "spot checks ({}) blew through the revalidation budget ({})",
            warm.sample_cost.total(),
            revalidation_budget(opts.tau)
        ));
    }
    Ok(())
}

/// Drifted: whatever the guard decides (revalidate a still-accurate plan
/// or demote a stale one), the served output must equal a fresh
/// `AlwaysOptimize` run on the drifted catalog, and after a demotion the
/// cache must end up holding the refreshed plan (served cleanly next).
fn check_drifted(xml: &str, drifted_xml: &str, qi: usize, seed: u64) -> Result<(), String> {
    let inj = DriftInjector::new("d.xml", xml);
    let graph: JoinGraph = rox_joingraph::compile_query(QUERIES[qi]).unwrap();
    let opts = reuse(seed, 16);
    inj.engine().run(&graph, opts).map_err(|e| e.to_string())?;

    inj.swap_document("d.xml", drifted_xml);
    let served = inj.engine().run(&graph, opts).map_err(|e| e.to_string())?;
    let fresh = run_rox(
        Arc::clone(inj.engine().catalog()),
        &graph,
        RoxOptions {
            seed,
            tau: 16,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    if served.output != fresh.output {
        return Err(format!(
            "served output ({:?}) differs from fresh optimization on the \
             drifted catalog",
            served.mode
        ));
    }
    if matches!(served.mode, RunMode::Demoted { .. }) {
        // The demotion re-seeded the cache with the refreshed plan …
        let plan = inj
            .engine()
            .cached_plan(&graph)
            .ok_or("demotion left no refreshed plan behind")?;
        if plan.order != served.executed_order {
            return Err("refreshed plan does not hold the demoted run's order".into());
        }
        // … which a follow-up replay serves without demoting again.
        let rewarm = inj.engine().run(&graph, opts).map_err(|e| e.to_string())?;
        if rewarm.mode != RunMode::Revalidated {
            return Err(format!(
                "refreshed plan must revalidate, got {:?}",
                rewarm.mode
            ));
        }
        if rewarm.output != fresh.output {
            return Err("refreshed replay output differs".into());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn zero_drift_guarded_replay_is_bit_identical_to_pure_replay(
        xml in doc_strategy(),
        qi in 0usize..3,
        seed in 0u64..500,
    ) {
        let r = check_zero_drift(&xml, qi, seed);
        prop_assert!(r.is_ok(), "{} (query {qi}, seed {seed})", r.unwrap_err());
    }

    #[test]
    fn drifted_replay_always_matches_fresh_optimization(
        xml in doc_strategy(),
        drifted in doc_strategy(),
        qi in 0usize..3,
        seed in 0u64..500,
    ) {
        let r = check_drifted(&xml, &drifted, qi, seed);
        prop_assert!(r.is_ok(), "{} (query {qi}, seed {seed})", r.unwrap_err());
    }
}
