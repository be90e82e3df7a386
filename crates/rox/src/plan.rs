//! Explicit plans: a plan is a total order over the (non-redundant) Join
//! Graph edges. Replaying a plan executes exactly those edges in that
//! order with **no sampling** — the "pure plan (excl. sampling)" runs of
//! Figs. 6–8, and the executor behind the enumeration tool of §4.2.
//!
//! Replay routes every edge through the same edge-operator kernel
//! (`rox_ops::edgeop`) as the sampled run it replays, so the per-edge
//! operator choices recorded in [`PlanRun::edge_log`] (`EdgeExec::op`)
//! reproduce the original run's exactly — the property the
//! kernel-equivalence proptest pins.

use crate::driver::RunDriver;
use crate::env::{EnvError, RoxEnv};
use crate::optimizer::RoxOptions;
use crate::state::EdgeExec;
use rox_joingraph::{EdgeId, EdgeKind, JoinGraph};
use rox_ops::{Cost, Relation};
use rox_xmldb::Catalog;
use std::sync::Arc;
use std::time::Duration;

/// Result of one plan replay.
#[derive(Debug)]
pub struct PlanRun {
    /// Fully joined relation.
    pub joined: Relation,
    /// Output after the tail.
    pub output: Relation,
    /// Per-edge result sizes in execution order.
    pub edge_log: Vec<EdgeExec>,
    /// Total work.
    pub cost: Cost,
    /// Wall-clock of the replay.
    pub wall: Duration,
    /// Sum of intermediate (equi-join) result sizes — Fig. 5's metric.
    pub cumulative_join_rows: u64,
    /// Sum of all intermediate result sizes (steps included).
    pub cumulative_rows: u64,
}

/// A plan validation / execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

impl From<EnvError> for PlanError {
    fn from(e: EnvError) -> Self {
        PlanError { message: e.message }
    }
}

/// Check that `order` covers every non-redundant edge exactly once.
pub fn validate_plan(graph: &JoinGraph, order: &[EdgeId]) -> Result<(), PlanError> {
    let mut seen = vec![false; graph.edge_count()];
    for &e in order {
        if e as usize >= graph.edge_count() {
            return Err(PlanError {
                message: format!("edge {e} does not exist"),
            });
        }
        if seen[e as usize] {
            return Err(PlanError {
                message: format!("edge {e} appears twice"),
            });
        }
        seen[e as usize] = true;
    }
    for edge in graph.edges() {
        if !edge.redundant && !seen[edge.id as usize] {
            return Err(PlanError {
                message: format!("edge {} missing from plan", edge.id),
            });
        }
    }
    Ok(())
}

/// Replay a plan (no sampling). Redundant edges are skipped; `order` must
/// cover all other edges (checked).
pub fn run_plan(
    catalog: Arc<Catalog>,
    graph: &JoinGraph,
    order: &[EdgeId],
) -> Result<PlanRun, PlanError> {
    let env = RoxEnv::new(catalog, graph)?;
    run_plan_with_env(&env, graph, order)
}

/// As [`run_plan`] with a reusable environment.
pub fn run_plan_with_env(
    env: &RoxEnv,
    graph: &JoinGraph,
    order: &[EdgeId],
) -> Result<PlanRun, PlanError> {
    validate_plan(graph, order)?;
    let mut driver = RunDriver::new(env, graph, RoxOptions::default());
    for &e in order {
        driver.replay_edge(e);
    }
    let report = driver.finish();
    // Fig. 5's metric: summed intermediate result sizes, over equi-join
    // edges only or over every edge.
    let cumulative = |joins_only: bool| -> u64 {
        report
            .edge_log
            .iter()
            .filter(|x| !joins_only || matches!(graph.edge(x.edge).kind, EdgeKind::EquiJoin { .. }))
            .map(|x| x.result_rows as u64)
            .sum()
    };
    Ok(PlanRun {
        cumulative_join_rows: cumulative(true),
        cumulative_rows: cumulative(false),
        joined: report.joined,
        output: report.output,
        edge_log: report.edge_log,
        cost: report.exec_cost,
        wall: report.total_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{run_rox, RoxOptions};
    use rox_joingraph::compile_query;

    fn setup(src: &str, docs: &[(&str, &str)]) -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        for (uri, xml) in docs {
            cat.load_str(uri, xml).unwrap();
        }
        (cat, compile_query(src).unwrap())
    }

    #[test]
    fn replay_of_rox_order_matches_rox_result() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k1</a><a>k2</a><a>k2</a></r>"),
                ("y.xml", "<r><b>k2</b><b>k1</b></r>"),
            ],
        );
        let rox = run_rox(Arc::clone(&cat), &g, RoxOptions::default()).unwrap();
        let replay = run_plan(cat, &g, &rox.executed_order).unwrap();
        assert_eq!(replay.output, rox.output);
        // Replay logs the same intermediate sizes.
        assert_eq!(replay.edge_log, rox.edge_log);
        // Fig. 5's sums: the equi-join alone yields k1×1 + k2×2 = 3 rows.
        assert!(replay.cumulative_join_rows >= 3);
        assert!(replay.cumulative_rows >= replay.cumulative_join_rows);
    }

    #[test]
    fn any_edge_order_gives_same_output() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder, $r in $b/ref
               return $r"#,
            &[(
                "d.xml",
                "<site><auction><bidder><ref/></bidder></auction><auction><bidder><ref/><ref/></bidder></auction></site>",
            )],
        );
        let non_redundant: Vec<EdgeId> = g
            .edges()
            .iter()
            .filter(|e| !e.redundant)
            .map(|e| e.id)
            .collect();
        let forward = run_plan(Arc::clone(&cat), &g, &non_redundant).unwrap();
        let mut rev = non_redundant.clone();
        rev.reverse();
        let backward = run_plan(cat, &g, &rev).unwrap();
        assert_eq!(forward.output, backward.output);
        assert_eq!(forward.output.len(), 3);
    }

    #[test]
    fn missing_edge_is_rejected() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", "<site><auction><bidder/></auction></site>")],
        );
        let e = run_plan(cat, &g, &[]).unwrap_err();
        assert!(e.message.contains("missing"), "{e}");
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[("d.xml", "<site><auction><bidder/></auction></site>")],
        );
        let step = g.edges().iter().find(|e| !e.redundant).unwrap().id;
        let e = run_plan(cat, &g, &[step, step]).unwrap_err();
        assert!(e.message.contains("twice"), "{e}");
    }
}
