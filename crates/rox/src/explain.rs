//! Human-readable explanations of ROX runs: rendered execution orders,
//! chain-sampling traces (the paper's Table 2 rows) and plan summaries.

use crate::chain::ChainTrace;
use crate::engine::{EngineRun, RunMode};
use crate::guard::CheckKind;
use crate::optimizer::RoxReport;
use crate::state::EdgeExec;
use rox_joingraph::{EdgeId, JoinGraph};
use std::fmt::Write as _;

/// Render one edge as `label <op> label`.
pub fn render_edge(graph: &JoinGraph, e: EdgeId) -> String {
    let edge = graph.edge(e);
    format!(
        "{} {} {}",
        graph.vertex(edge.v1).label,
        edge.kind.symbol(),
        graph.vertex(edge.v2).label
    )
}

/// Render the executed order with per-edge result sizes and the physical
/// operator the kernel chose (the Fig. 3.3/3.4 presentation, extended with
/// the plan-class information of Fig. 6 — NL vs. hash executions are
/// distinguishable per edge).
pub fn render_execution(graph: &JoinGraph, report: &RoxReport) -> String {
    render_order(graph, &report.executed_order, &report.edge_log)
}

/// Shared body of [`render_execution`] and [`render_engine_run`]: one line
/// per executed edge, in execution order.
fn render_order(graph: &JoinGraph, order: &[EdgeId], edge_log: &[EdgeExec]) -> String {
    let mut out = String::new();
    for (i, &e) in order.iter().enumerate() {
        let exec = edge_log.iter().find(|x| x.edge == e);
        let rows = exec.map(|x| x.result_rows).unwrap_or(0);
        let op = exec.map(|x| x.op.label()).unwrap_or("?");
        let _ = writeln!(
            out,
            "{:>3}. {} [{}]  -> {} rows",
            i + 1,
            render_edge(graph, e),
            op,
            rows
        );
    }
    out
}

/// Render an engine run: a header tagging how the plan was obtained —
/// `[optimized]` (fresh Algorithm 1), `[revalidated]` (guarded replay whose
/// spot checks all passed) or `[demoted @k]` (replay abandoned after `k`
/// edges and re-optimized mid-query) — followed by the executed order in
/// the same per-edge format as [`render_execution`]. Breached spot checks
/// are listed under the header with their drift ratios.
pub fn render_engine_run(graph: &JoinGraph, run: &EngineRun) -> String {
    let mut out = String::new();
    match run.mode {
        RunMode::Optimized => {
            let _ = writeln!(out, "run [optimized]");
        }
        RunMode::Revalidated => {
            let _ = writeln!(
                out,
                "run [revalidated] ({} spot-check{})",
                run.spot_checks.len(),
                if run.spot_checks.len() == 1 { "" } else { "s" }
            );
        }
        RunMode::Demoted { at_edge } => {
            let _ = writeln!(out, "run [demoted @{at_edge}]");
        }
    }
    for check in run.spot_checks.iter().filter(|c| c.breached) {
        let kind = match check.kind {
            CheckKind::SampledWeight => "sampled",
            CheckKind::Observed => "observed",
        };
        let _ = writeln!(
            out,
            "     drift on {} ({kind}): expected {:.1}, observed {:.1} (x{:.1})",
            render_edge(graph, check.edge),
            check.expected,
            check.observed,
            check.ratio
        );
    }
    out.push_str(&render_order(graph, &run.executed_order, &run.edge_log));
    out
}

/// Render a chain-sampling trace as the (cost, sf) round table of Table 2.
pub fn render_trace(graph: &JoinGraph, trace: &ChainTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "seed e{} ({}), source v{}",
        trace.seed_edge,
        render_edge(graph, trace.seed_edge),
        trace.source
    );
    for (round, snaps) in trace.rounds.iter().enumerate() {
        let _ = write!(out, "round {:>2}:", round + 1);
        for p in snaps {
            let edges: Vec<String> = p
                .edges
                .iter()
                .zip(&p.ops)
                .map(|(e, op)| format!("e{e}[{}]", op.label()))
                .collect();
            let _ = write!(out, "  ({}: {:.1}, {:.2})", edges.join("·"), p.cost, p.sf);
        }
        let _ = writeln!(out);
    }
    let chosen: Vec<String> = trace.chosen.iter().map(|e| format!("e{e}")).collect();
    let _ = writeln!(
        out,
        "chosen [{}] {}",
        chosen.join("·"),
        if trace.stopped_early {
            "(stopping condition)"
        } else {
            "(exhausted)"
        }
    );
    out
}

/// One-paragraph run summary.
pub fn summarize(report: &RoxReport) -> String {
    format!(
        "{} edges executed, {} result rows; work: {} execution + {} sampling \
         ({:.1}% overhead); wall: {:?} total ({:?} sampling)",
        report.executed_order.len(),
        report.output.len(),
        report.exec_cost.total(),
        report.sample_cost.total(),
        report.sampling_overhead_pct(),
        report.total_wall,
        report.sample_wall,
    )
}

/// One-paragraph durability summary: WAL traffic over both lanes,
/// acknowledgements per fsync, and the recovery replay, from
/// [`crate::engine::EngineStats`].
pub fn render_durability(stats: &crate::engine::EngineStats) -> String {
    let w = &stats.wal;
    let acks_per_fsync = if w.fsyncs == 0 {
        0.0
    } else {
        w.commits as f64 / w.fsyncs as f64
    };
    format!(
        "wal (both lanes): {} records, {} bytes, lsn {} (durable prefix {}); \
         {} acked commits over {} fsyncs ({acks_per_fsync:.2} acks/fsync); \
         {} records replayed at recovery",
        w.records, w.bytes, w.last_lsn, w.durable_lsn, w.commits, w.fsyncs, stats.wal_replayed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{run_rox, RoxOptions};
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    fn setup() -> (JoinGraph, RoxReport) {
        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "d.xml",
            "<site><auction><cheap/><bidder/></auction><auction><bidder/><bidder/></auction></site>",
        )
        .unwrap();
        let g = rox_joingraph::compile_query(
            r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder return $b"#,
        )
        .unwrap();
        let r = run_rox(
            cat,
            &g,
            RoxOptions {
                trace: true,
                tau: 4,
                ..Default::default()
            },
        )
        .unwrap();
        (g, r)
    }

    #[test]
    fn execution_rendering_covers_all_edges() {
        let (g, r) = setup();
        let s = render_execution(&g, &r);
        assert_eq!(s.lines().count(), r.executed_order.len());
        assert!(s.contains("rows"));
    }

    #[test]
    fn trace_rendering_shows_rounds() {
        let (g, r) = setup();
        for t in &r.traces {
            let s = render_trace(&g, t);
            assert!(s.contains("seed"));
            assert!(s.contains("chosen"));
        }
    }

    /// Snapshot: the rendered execution lines carry the kernel's chosen
    /// operator per edge, in a stable format.
    #[test]
    fn execution_rendering_snapshot_with_operators() {
        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "d.xml",
            "<site><auction><bidder/><bidder/></auction><auction><bidder/></auction></site>",
        )
        .unwrap();
        let g = rox_joingraph::compile_query(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
        )
        .unwrap();
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        let s = render_execution(&g, &r);
        // One non-redundant edge: auction ◦child bidder, executed as a
        // staircase step producing 3 rows.
        assert_eq!(s, "  1. auction ◦/ bidder [step]  -> 3 rows\n");
    }

    /// Chain traces tag each sampled edge with the operator the kernel
    /// chose for it.
    #[test]
    fn trace_rendering_tags_ops() {
        let (g, r) = setup();
        let mut saw_tag = false;
        for t in &r.traces {
            let s = render_trace(&g, t);
            if s.contains("[step]") || s.contains("[idx-nl]") {
                saw_tag = true;
            }
        }
        assert!(saw_tag, "no operator tag rendered in any trace");
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let (_, r) = setup();
        let s = summarize(&r);
        assert!(s.contains("result rows"));
        assert!(s.contains("overhead"));
    }

    /// The engine-run renderer tags runs with how their plan was obtained:
    /// a cold run renders `[optimized]`, a warm guarded replay renders
    /// `[revalidated]`, and both share the per-edge line format of
    /// `render_execution`.
    #[test]
    fn engine_run_rendering_tags_modes() {
        use crate::engine::{PlanReuse, RoxEngine};

        let cat = Arc::new(Catalog::new());
        cat.load_str(
            "d.xml",
            "<site><auction><bidder/><bidder/></auction><auction><bidder/></auction></site>",
        )
        .unwrap();
        let engine = RoxEngine::new(cat);
        let g = rox_joingraph::compile_query(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
        )
        .unwrap();
        let opts = RoxOptions {
            plan_reuse: PlanReuse::ReuseValidated,
            ..Default::default()
        };
        let cold = engine.run(&g, opts).unwrap();
        let warm = engine.run(&g, opts).unwrap();

        let cold_s = render_engine_run(&g, &cold);
        let warm_s = render_engine_run(&g, &warm);
        assert!(cold_s.starts_with("run [optimized]\n"), "{cold_s}");
        assert!(warm_s.starts_with("run [revalidated]"), "{warm_s}");
        // Per-edge lines are byte-identical to the render_execution format.
        assert!(
            warm_s.contains("  1. auction ◦/ bidder [step]  -> 3 rows\n"),
            "{warm_s}"
        );
    }
}
