//! Engine ↔ snapshot-storage integration: cold opens serve bit-identical
//! results without parsing or index builds, every segment is read exactly
//! once per engine — also under concurrent first touches — and
//! invalidation guarantees a snapshot never serves an index from a
//! superseded epoch.

use rox_core::{PlanReuse, RoxEngine, RoxOptions};
use rox_xmldb::Catalog;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

const SITE_V1: &str = r#"<site><open_auction><bidder><increase>12</increase></bidder><bidder><increase>30</increase></bidder><current>150</current></open_auction><open_auction><bidder><increase>7</increase></bidder><current>40</current></open_auction></site>"#;
const SITE_V2: &str = r#"<site><open_auction><bidder><increase>99</increase></bidder><current>500</current></open_auction></site>"#;

const QUERY: &str =
    r#"for $a in doc("site.xml")//open_auction, $b in $a/bidder, $i in $b/increase return $i"#;

fn snap_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rox-engine-snap-{}-{name}.rox", std::process::id()));
    p
}

fn parsed_engine(xml: &str) -> RoxEngine {
    let catalog = Arc::new(Catalog::new());
    catalog.load_str("site.xml", xml).unwrap();
    RoxEngine::new(catalog)
}

fn run(engine: &RoxEngine) -> rox_ops::Relation {
    let graph = rox_joingraph::compile_query(QUERY).unwrap();
    engine.run(&graph, RoxOptions::default()).unwrap().output
}

#[test]
fn open_snapshot_serves_bit_identical_outputs_without_rebuilds() {
    let path = snap_path("bitident");
    let fresh = parsed_engine(SITE_V1);
    let expected = run(&fresh);
    let report = fresh.save_snapshot(&path).unwrap();
    assert_eq!(report.docs, 1);

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    // Nothing resident before the first query.
    let id = engine.catalog().resolve("site.xml").unwrap();
    assert!(engine.catalog().get(id).is_none());
    let output = run(&engine);
    assert_eq!(
        output, expected,
        "snapshot-served output must be bit-identical"
    );

    let stats = engine.stats();
    assert_eq!(stats.index_builds, 0, "indexes must decode, not rebuild");
    assert!(stats.storage_loads >= 2, "doc + indexes faulted: {stats:?}");
    assert_eq!(stats.pages.misses, u64::from(report.pages), "{stats:?}");
    assert_eq!(stats.snapshot_pages, report.pages as u64);
    std::fs::remove_file(&path).ok();
}

/// The invariant the whole read path rests on: a segment is read once per
/// engine. The open reads the symbol heap and the directory; the first
/// query reads the document's two segments; later queries read nothing.
#[test]
fn each_segment_is_read_once_per_engine() {
    let path = snap_path("once");
    let mut xml = String::from("<site>");
    for i in 0..150 {
        xml.push_str(&format!(
            "<open_auction><bidder><increase>{}</increase></bidder><current>{}</current></open_auction>",
            i % 40,
            i * 3
        ));
    }
    xml.push_str("</site>");
    let fresh = parsed_engine(&xml);
    let expected = run(&fresh);
    let report = fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    assert_eq!(engine.stats().pages.misses, 2, "open: symbols + directory");
    for query in 0..4 {
        assert_eq!(run(&engine), expected, "query {query} output diverged");
        let stats = engine.stats();
        assert_eq!(stats.pages.misses, u64::from(report.pages), "query {query}");
    }
    assert_eq!(engine.stats().index_builds, 0);
    std::fs::remove_file(&path).ok();
}

/// First touches of different documents race without a lock around the
/// positioned read: four threads each fault in their own document of one
/// snapshot, and every segment is still read exactly once.
#[test]
fn concurrent_first_touches_read_each_segment_once() {
    let path = snap_path("concurrent");
    let catalog = Arc::new(Catalog::new());
    for d in 0..4 {
        let mut xml = String::from("<site>");
        for i in 0..40 + 5 * d {
            xml.push_str(&format!(
                "<open_auction><bidder><increase>{}</increase></bidder></open_auction>",
                (i * 7 + d) % 30
            ));
        }
        xml.push_str("</site>");
        catalog.load_str(&format!("site{d}.xml"), &xml).unwrap();
    }
    let fresh = RoxEngine::new(catalog);
    let query = |d: usize| {
        rox_joingraph::compile_query(&QUERY.replace("site.xml", &format!("site{d}.xml"))).unwrap()
    };
    let expected: Vec<_> = (0..4)
        .map(|d| fresh.run(&query(d), RoxOptions::default()).unwrap().output)
        .collect();
    let report = fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    let barrier = Barrier::new(4);
    let outputs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|d| {
                let (engine, barrier, graph) = (&engine, &barrier, query(d));
                s.spawn(move || {
                    barrier.wait();
                    engine.run(&graph, RoxOptions::default()).unwrap().output
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(outputs, expected);
    let stats = engine.stats();
    assert_eq!(stats.pages.misses, u64::from(report.pages), "{stats:?}");
    assert_eq!(stats.index_builds, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn invalidation_bumps_the_epoch_and_kills_stored_index_segments() {
    let path = snap_path("invalidate");
    let fresh = parsed_engine(SITE_V1);
    run(&fresh);
    fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    // Warm the snapshot path first: stored indexes served once.
    run(&engine);
    assert_eq!(engine.stats().index_builds, 0);

    // Reload with new content, then invalidate. The stored index segments
    // are from the v1 epoch and must never be served again.
    engine.catalog().load_str("site.xml", SITE_V2).unwrap();
    engine.invalidate_document("site.xml");
    assert_eq!(engine.doc_epoch("site.xml"), 1);
    let snapshot = engine.snapshot().unwrap();
    assert_eq!(snapshot.stale_count(), 1, "snapshot must be marked stale");

    let v2_expected = run(&parsed_engine(SITE_V2));
    assert_eq!(run(&engine), v2_expected, "query must see the new epoch");
    assert!(
        engine.stats().index_builds >= 1,
        "the new epoch's indexes must be rebuilt from the live document"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_replay_works_across_a_snapshot_reopen() {
    let path = snap_path("replay");
    let fresh = parsed_engine(SITE_V1);
    let expected = run(&fresh);
    fresh.save_snapshot(&path).unwrap();

    let engine = RoxEngine::open_snapshot(&path, None).unwrap();
    let graph = rox_joingraph::compile_query(QUERY).unwrap();
    let options = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..Default::default()
    };
    let cold = engine.run(&graph, options).unwrap();
    let warm = engine.run(&graph, options).unwrap();
    assert!(!cold.plan_cache_hit && warm.plan_cache_hit);
    assert_eq!(cold.output, expected);
    assert_eq!(warm.output, expected);
    std::fs::remove_file(&path).ok();
}
