//! Engine-sharing equivalence: N worker threads running a random query
//! mix against **one** [`RoxEngine`] must produce results, edge logs, and
//! cost counters bit-identical to a fresh standalone `run_rox` per query —
//! shared indexes, shared base lists, and cache warm-up order must never
//! leak into any output. A plan-cache replay (`ReuseValidated`) must
//! reproduce the optimizing run that seeded it — and the pure plan replay
//! of the cached order — with zero redundant index / base-list work and
//! no sampling. A content change (reload + `invalidate_document`) must
//! make the next run re-optimize exactly like a fresh run on the new data.
//! And `invalidate_document` racing concurrent replays must never let a
//! plan versioned against dropped statistics be served.

use proptest::prelude::*;
use rox_core::{run_plan_with_env, run_rox, PlanReuse, RoxEngine, RoxOptions};
use rox_joingraph::JoinGraph;
use rox_par::WorkerPool;
use rox_xmldb::Catalog;
use std::sync::Arc;
use std::time::Duration;

/// Random auction-flavoured document: branchy enough for chain sampling,
/// with value joins whose NL/hash choice is data-driven.
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

fn catalog_for(xml: &str) -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("d.xml", xml).unwrap();
    catalog
}

fn options(seed: u64) -> RoxOptions {
    RoxOptions {
        seed,
        tau: 16,
        ..Default::default()
    }
}

/// One shared engine on a pool of `workers` threads, a concurrent mixed
/// workload, fresh-run oracle.
fn check_concurrent_mix(xml: &str, jobs: &[(usize, u64)], workers: usize) -> Result<(), String> {
    let catalog = catalog_for(xml);
    let graphs: Vec<JoinGraph> = QUERIES
        .iter()
        .map(|q| rox_joingraph::compile_query(q).unwrap())
        .collect();
    let engine = RoxEngine::with_workers(Arc::clone(&catalog), Arc::new(WorkerPool::new(workers)));
    let engine_jobs: Vec<(&JoinGraph, RoxOptions)> = jobs
        .iter()
        .map(|&(qi, seed)| (&graphs[qi], options(seed)))
        .collect();
    let served = engine.run_many(&engine_jobs);
    for (i, (&(qi, seed), run)) in jobs.iter().zip(served).enumerate() {
        let run = run.map_err(|e| e.to_string())?;
        // Oracle: a completely fresh, sequential, cache-less run.
        let fresh =
            run_rox(Arc::clone(&catalog), &graphs[qi], options(seed)).map_err(|e| e.to_string())?;
        if run.output != fresh.output {
            return Err(format!("job {i} (q{qi}, seed {seed}): outputs differ"));
        }
        if run.executed_order != fresh.executed_order {
            return Err(format!(
                "job {i} (q{qi}, seed {seed}): join orders differ: {:?} vs {:?}",
                run.executed_order, fresh.executed_order
            ));
        }
        if run.edge_log != fresh.edge_log {
            return Err(format!("job {i} (q{qi}, seed {seed}): edge logs differ"));
        }
        if run.exec_cost != fresh.exec_cost {
            return Err(format!("job {i} (q{qi}, seed {seed}): exec costs differ"));
        }
        if run.sample_cost != fresh.sample_cost {
            return Err(format!("job {i} (q{qi}, seed {seed}): sample costs differ"));
        }
    }
    Ok(())
}

/// Seed the plan cache with an optimizing run, then replay: identical
/// output/joined/edge log to the seeding run and to the pure replay of the
/// cached order, no sampling, zero new index or base-list builds. Then
/// reload the document as `drifted` and invalidate it: the next run misses
/// and equals a fresh optimizing run on the new data, and the run after it
/// hits again.
fn check_plan_reuse(xml: &str, drifted: &str, qi: usize, seed: u64) -> Result<(), String> {
    let catalog = catalog_for(xml);
    let graph = rox_joingraph::compile_query(QUERIES[qi]).unwrap();
    let engine = RoxEngine::new(Arc::clone(&catalog));
    let opts = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..options(seed)
    };
    let cold = engine.run(&graph, opts).map_err(|e| e.to_string())?;
    if cold.plan_cache_hit {
        return Err("first run cannot hit the plan cache".into());
    }
    let after_cold = engine.stats();
    let warm = engine.run(&graph, opts).map_err(|e| e.to_string())?;
    let after_warm = engine.stats();
    if !warm.plan_cache_hit {
        return Err("repeat run must hit the plan cache".into());
    }
    if warm.sample_cost.total() != 0 || warm.sample_wall != Duration::ZERO {
        return Err(format!(
            "replay sampled ({} units, {:?})",
            warm.sample_cost.total(),
            warm.sample_wall
        ));
    }
    if !warm.spot_checks.is_empty() {
        return Err("replay ran spot checks".into());
    }
    if warm.output != cold.output {
        return Err("replay output differs from seeding run".into());
    }
    if warm.joined != cold.joined {
        return Err("replay joined relation differs".into());
    }
    if warm.executed_order != cold.executed_order {
        return Err("replay order differs".into());
    }
    if warm.edge_log != cold.edge_log {
        return Err("replay edge log (incl. operator choices) differs".into());
    }
    if after_warm.index_builds != after_cold.index_builds {
        return Err("warm run rebuilt document indexes".into());
    }
    if after_warm.base_list_builds != after_cold.base_list_builds {
        return Err("warm run rebuilt base lists".into());
    }

    // A hit is exactly the pure replay of the cached order.
    let plan = engine.cached_plan(&graph).ok_or("no plan cached")?;
    let session = engine.session(&graph).map_err(|e| e.to_string())?;
    let pure = run_plan_with_env(&session, &graph, &plan.order).map_err(|e| e.to_string())?;
    if warm.edge_log != pure.edge_log {
        return Err("replay edge log differs from the pure replay".into());
    }
    if warm.exec_cost != pure.cost {
        return Err(format!(
            "replay exec cost {:?} differs from the pure replay {:?}",
            warm.exec_cost, pure.cost
        ));
    }
    if warm.output != pure.output || warm.joined != pure.joined {
        return Err("replay rows differ from the pure replay".into());
    }

    // A content change goes through invalidation: the next run
    // re-optimizes on the new data, the one after replays again.
    catalog.load_str("d.xml", drifted).unwrap();
    engine.invalidate_document("d.xml");
    let changed = engine.run(&graph, opts).map_err(|e| e.to_string())?;
    if changed.plan_cache_hit {
        return Err("run after an invalidation hit the plan cache".into());
    }
    let fresh = run_rox(Arc::clone(&catalog), &graph, options(seed)).map_err(|e| e.to_string())?;
    if changed.output != fresh.output || changed.joined != fresh.joined {
        return Err("run after an invalidation differs from a fresh run in its rows".into());
    }
    if changed.executed_order != fresh.executed_order || changed.edge_log != fresh.edge_log {
        return Err("run after an invalidation differs from a fresh run in its plan".into());
    }
    if changed.exec_cost != fresh.exec_cost || changed.sample_cost != fresh.sample_cost {
        return Err("run after an invalidation differs from a fresh run in its costs".into());
    }
    let rewarm = engine.run(&graph, opts).map_err(|e| e.to_string())?;
    if !rewarm.plan_cache_hit {
        return Err("the re-seeded plan was not replayed".into());
    }
    if rewarm.output != fresh.output {
        return Err("replay of the re-seeded plan differs".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_engine_mix_matches_fresh_sequential_runs(
        xml in doc_strategy(),
        jobs in prop::collection::vec((0usize..4, 0u64..500), 1..10),
    ) {
        for workers in [2, 4, 8] {
            let r = check_concurrent_mix(&xml, &jobs, workers);
            prop_assert!(r.is_ok(), "{} (workers {workers})", r.unwrap_err());
        }
    }

    #[test]
    fn plan_cache_replay_matches_seeding_run(
        xml in doc_strategy(),
        drifted in doc_strategy(),
        qi in 0usize..4,
        seed in 0u64..500,
    ) {
        let r = check_plan_reuse(&xml, &drifted, qi, seed);
        prop_assert!(r.is_ok(), "{} (query {qi}, seed {seed})", r.unwrap_err());
    }
}

/// Deterministic regression: a warm engine serving repeats of an already
/// seen query mix does zero index builds and zero base-list builds, and
/// every repeat replays from the plan cache.
#[test]
fn warm_engine_does_zero_redundant_work_across_a_mix() {
    let mut xml = String::from("<site>");
    for i in 0..200 {
        xml.push_str(&format!(
            "<auction>{}<bidder><personref person=\"p{}\"/></bidder></auction>",
            if i % 3 == 0 { "<cheap/>" } else { "" },
            i % 11
        ));
    }
    for p in 0..11 {
        xml.push_str(&format!("<person id=\"p{p}\"/>"));
    }
    xml.push_str("<note>txt</note></site>");
    let catalog = catalog_for(&xml);
    let graphs: Vec<JoinGraph> = QUERIES
        .iter()
        .map(|q| rox_joingraph::compile_query(q).unwrap())
        .collect();
    let engine = RoxEngine::with_workers(catalog, Arc::new(WorkerPool::new(4)));
    let opts = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..options(42)
    };

    // Warm-up pass: one cold run per query shape.
    let firsts: Vec<_> = graphs
        .iter()
        .map(|g| engine.run(g, opts).unwrap())
        .collect();
    let warmed = engine.stats();
    assert_eq!(warmed.plan_hits, 0);
    assert_eq!(warmed.cached_plans, graphs.len());

    // Serving pass: 3 concurrent repeats of every query.
    let jobs: Vec<(&JoinGraph, RoxOptions)> = (0..3)
        .flat_map(|_| graphs.iter().map(|g| (g, opts)))
        .collect();
    let served = engine.run_many(&jobs);
    for (i, run) in served.into_iter().enumerate() {
        let run = run.unwrap();
        let cold = &firsts[i % graphs.len()];
        assert!(run.plan_cache_hit, "warm job {i} missed the plan cache");
        assert_eq!(run.sample_cost.total(), 0, "warm job {i} sampled");
        assert_eq!(run.output, cold.output, "job {i}");
    }
    let after = engine.stats();
    assert_eq!(
        after.index_builds, warmed.index_builds,
        "warm traffic rebuilt document indexes"
    );
    assert_eq!(
        after.base_list_builds, warmed.base_list_builds,
        "warm traffic rebuilt base lists"
    );
    assert_eq!(after.plan_hits, jobs.len() as u64);
}

/// Threaded regression for the invalidation/replay race: a writer loops
/// `invalidate_document` while readers hammer `ReuseValidated` replays of
/// the same (unchanged) document. The epoch protocol — bump strictly
/// before dropping derived data, re-check under the plan-cache lock on
/// insert — must guarantee that (a) no run is ever served from a plan
/// versioned against dropped statistics (here: unchanged data, so any
/// wrong output is a versioning bug), and (b) the cache never
/// *ends up* holding a plan whose recorded epochs disagree with the live
/// ones.
#[test]
fn concurrent_invalidation_never_serves_a_stale_versioned_plan() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut xml = String::from("<site>");
    for i in 0..60 {
        xml.push_str(&format!(
            "<auction>{}<bidder><personref person=\"p{}\"/></bidder></auction>",
            if i % 3 == 0 { "<cheap/>" } else { "" },
            i % 7
        ));
    }
    for p in 0..7 {
        xml.push_str(&format!("<person id=\"p{p}\"/>"));
    }
    xml.push_str("<note>txt</note></site>");
    let catalog = catalog_for(&xml);
    let engine = RoxEngine::new(catalog);
    let graphs: Vec<JoinGraph> = QUERIES
        .iter()
        .map(|q| rox_joingraph::compile_query(q).unwrap())
        .collect();
    let opts = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..options(42)
    };
    let references: Vec<_> = graphs
        .iter()
        .map(|g| engine.run(g, opts).unwrap().output)
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                engine.invalidate_document("d.xml");
                std::thread::yield_now();
            }
        });
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let engine = &engine;
                let graphs = &graphs;
                let references = &references;
                scope.spawn(move || {
                    for i in 0..30 {
                        let qi = (t + i) % graphs.len();
                        let run = engine.run(&graphs[qi], opts).unwrap();
                        assert_eq!(
                            run.output, references[qi],
                            "reader {t} iteration {i}: stale plan served"
                        );
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    });

    // The cache may hold plans (re-seeded after the last invalidation) but
    // never one versioned against dropped statistics.
    for g in &graphs {
        if let Some(plan) = engine.cached_plan(g) {
            for (uri, epoch) in &plan.stats_epochs {
                assert_eq!(
                    *epoch,
                    engine.doc_epoch(uri),
                    "cached plan pinned to a dropped statistics version of {uri}"
                );
            }
        }
    }
    // And one more invalidation deterministically forces the next run to
    // re-optimize.
    engine.invalidate_document("d.xml");
    let post = engine.run(&graphs[0], opts).unwrap();
    assert!(!post.plan_cache_hit, "replay served across an invalidation");
}
