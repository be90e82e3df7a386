//! A query runs on the thread that calls it: a standalone `run_rox` must
//! not start worker threads behind its caller's back. Linux only — the
//! check reads the thread names under `/proc/self/task`.
#![cfg(target_os = "linux")]

use rox_core::{run_rox, RoxOptions};
use rox_joingraph::compile_query;
use rox_xmldb::Catalog;
use std::sync::Arc;

/// The names of this process's threads. A thread that has not run yet
/// still carries its parent's name, so callers compare counts as well.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect()
}

#[test]
fn standalone_run_spawns_no_worker_thread() {
    let catalog = Arc::new(Catalog::new());
    catalog
        .load_str(
            "d.xml",
            r#"<site><auction><bidder><personref person="p1"/></bidder></auction><auction><bidder><personref person="p2"/></bidder><bidder/></auction></site>"#,
        )
        .unwrap();
    let graph = compile_query(
        r#"for $a in doc("d.xml")//auction, $b in $a/bidder, $p in $b/personref return $p"#,
    )
    .unwrap();
    assert!(graph.vertex_count() >= 3);
    let before = thread_names();
    let report = run_rox(catalog, &graph, RoxOptions::default()).unwrap();
    assert_eq!(report.output.len(), 2);
    let after = thread_names();
    let workers = after.iter().filter(|n| n.starts_with("rox-worker")).count();
    assert_eq!(workers, 0, "the run started pool workers: {after:?}");
    assert_eq!(
        after.len(),
        before.len(),
        "the run started threads: {after:?}"
    );
}
