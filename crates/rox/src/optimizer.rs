//! The ROX run-time optimizer (Algorithm 1): intertwined optimization and
//! evaluation of a Join Graph.
//!
//! Phase 1 seeds per-vertex samples and cardinalities from the indices and
//! weights every edge by sampled execution. Phase 2 alternates
//! chain sampling ([`crate::chain`], search-space exploration)
//! with full execution of the superior path segment, re-sampling the
//! weights of all edges incident to updated vertices after every execution
//! — re-sampling, not scaling, is what lets ROX "detect arbitrary
//! correlations between edges in the Join Graph" (§3). Both phases live in
//! the crate's one run driver (`driver.rs`), which plan replay and the
//! guarded replay's mid-query demotion share; this module holds the
//! options, the report, and the two public entry points.

use crate::chain::ChainTrace;
use crate::driver::RunDriver;
use crate::env::{EnvError, RoxEnv};
use crate::state::EdgeExec;
use rox_joingraph::{EdgeId, JoinGraph};
use rox_ops::{Cost, Relation};
use rox_xmldb::Catalog;
use std::sync::Arc;
use std::time::Duration;

/// Tunables of the run-time optimizer.
#[derive(Debug, Clone, Copy)]
pub struct RoxOptions {
    /// Sample size τ (the paper's default is 100, §3 Phase 1).
    pub tau: usize,
    /// RNG seed — all sampling is deterministic under a fixed seed.
    pub seed: u64,
    /// Record chain-sampling traces (Table 2 / Fig. 3 reproductions).
    pub trace: bool,
    /// Ablation: disable chain sampling and greedily execute the
    /// minimum-weight edge (Algorithm 2 degenerates to its line-5 case).
    /// ROX with this off is vulnerable to exactly the local minima §3.1
    /// motivates.
    pub chain_sampling: bool,
    /// Ablation: disable weight re-sampling after executions and keep the
    /// Phase 1 weights. The paper argues re-sampling (not scaling) is what
    /// detects arbitrary correlations (§3); turning it off shows why.
    pub resample: bool,
    /// Extension (paper §6, first item): adaptive optimization effort.
    /// When set, chain sampling is skipped (greedy fallback) while the
    /// accumulated sampling work exceeds `budget × max(execution work, τ²)`
    /// — i.e. ROX stops investing in exploration when optimization already
    /// dominates the run. `None` (default) reproduces the paper's
    /// always-explore behaviour.
    pub effort_budget: Option<f64>,
    /// Extension: plan-cache policy, honoured by
    /// [`RoxEngine::run`](crate::RoxEngine::run) (a direct [`run_rox`]
    /// call has no plan cache and always optimizes, whatever this says).
    /// The default reproduces the paper's per-query optimization.
    pub plan_reuse: crate::engine::PlanReuse,
    /// Extension: bound on the engine's serving admission queue. With
    /// `Some(m)`, [`RoxEngine::try_submit`](crate::RoxEngine::try_submit)
    /// rejects a job (`ServeError::Overloaded`) once `m` admitted jobs are
    /// already waiting to start, and
    /// [`RoxEngine::run_many`](crate::RoxEngine::run_many) rejects the
    /// jobs deeper than `w + m` in its batch, where `w` is the engine
    /// pool's worker count — explicit backpressure instead of unbounded
    /// buffering. `None` (default) admits everything.
    pub max_queued: Option<usize>,
}

impl Default for RoxOptions {
    fn default() -> Self {
        RoxOptions {
            tau: 100,
            seed: 42,
            trace: false,
            chain_sampling: true,
            resample: true,
            effort_budget: None,
            plan_reuse: crate::engine::PlanReuse::AlwaysOptimize,
            max_queued: None,
        }
    }
}

/// Everything a ROX run produces.
#[derive(Debug)]
pub struct RoxReport {
    /// The fully joined Join Graph result (pre-tail).
    pub joined: Relation,
    /// The query output after the plan tail (π·δ·τ·π).
    pub output: Relation,
    /// Edges in the order ROX executed them — the "pure plan" that replays
    /// without sampling.
    pub executed_order: Vec<EdgeId>,
    /// Per-execution result sizes (Fig. 5's cumulative intermediates).
    pub edge_log: Vec<EdgeExec>,
    /// Work done by full executions.
    pub exec_cost: Cost,
    /// Work done by sampling (phase 1 + chain sampling + re-weighting).
    pub sample_cost: Cost,
    /// Wall-clock spent in full execution (+ finalization and tail).
    pub exec_wall: Duration,
    /// Wall-clock spent sampling.
    pub sample_wall: Duration,
    /// Total wall-clock of the run.
    pub total_wall: Duration,
    /// Chain-sampling traces (only when `options.trace`).
    pub traces: Vec<ChainTrace>,
}

impl RoxReport {
    /// Relative sampling overhead `(R - r) / r` in percent, computed from
    /// the work counters (deterministic analogue of Fig. 8's wall-clock
    /// metric).
    pub fn sampling_overhead_pct(&self) -> f64 {
        let r = self.exec_cost.total() as f64;
        if r == 0.0 {
            return 0.0;
        }
        100.0 * self.sample_cost.total() as f64 / r
    }
}

/// Run ROX over a compiled Join Graph against loaded documents.
pub fn run_rox(
    catalog: Arc<Catalog>,
    graph: &JoinGraph,
    options: RoxOptions,
) -> Result<RoxReport, EnvError> {
    let env = RoxEnv::new(catalog, graph)?;
    run_rox_with_env(&env, graph, options)
}

/// As [`run_rox`] but reusing an existing environment (index caches stay
/// warm across runs — how the experiment harnesses amortize setup).
pub fn run_rox_with_env(
    env: &RoxEnv,
    graph: &JoinGraph,
    options: RoxOptions,
) -> Result<RoxReport, EnvError> {
    let mut driver = RunDriver::new(env, graph, options);
    driver.optimize_remaining();
    Ok(driver.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_joingraph::compile_query;

    fn setup(src: &str, docs: &[(&str, &str)]) -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        for (uri, xml) in docs {
            cat.load_str(uri, xml).unwrap();
        }
        (cat, compile_query(src).unwrap())
    }

    #[test]
    fn simple_path_query() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[(
                "d.xml",
                "<site><auction><bidder/><bidder/></auction><auction><bidder/></auction></site>",
            )],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(r.output.len(), 3);
        assert!(!r.executed_order.is_empty());
    }

    #[test]
    fn cross_document_join_query() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k1</a><a>k2</a><a>zz</a></r>"),
                ("y.xml", "<r><b>k2</b><b>k1</b><b>k1</b></r>"),
            ],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        // Join pairs: k1×2, k2×1 = 3 joined rows; distinct (a,b) pairs = 3;
        // output column a values: k1 twice (two partners), k2 once.
        assert_eq!(r.joined.len(), 3);
        assert_eq!(r.output.len(), 3);
    }

    #[test]
    fn deterministic_under_seed() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k1</a><a>k2</a></r>"),
                ("y.xml", "<r><b>k2</b><b>k1</b></r>"),
            ],
        );
        let r1 = run_rox(Arc::clone(&cat), &g, RoxOptions::default()).unwrap();
        let r2 = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(r1.executed_order, r2.executed_order);
        assert_eq!(r1.output, r2.output);
    }

    #[test]
    fn empty_result_is_fine() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[("x.xml", "<r><a>p</a></r>"), ("y.xml", "<r><b>q</b></r>")],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(r.output.len(), 0);
    }

    #[test]
    fn sampling_and_exec_costs_separated() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[(
                "d.xml",
                "<site><auction><bidder/><bidder/></auction></site>",
            )],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert!(r.sample_cost.total() > 0);
        assert!(r.exec_cost.total() > 0);
        assert!(r.sampling_overhead_pct() >= 0.0);
    }

    #[test]
    fn adaptive_effort_caps_sampling_and_stays_correct() {
        let body: String = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    "<auction><cheap/><bidder/></auction>"
                } else {
                    "<auction><bidder/><bidder/><bidder/></auction>"
                }
            })
            .collect();
        let xml = format!("<site>{body}</site>");
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder return $b"#,
            &[("d.xml", &xml)],
        );
        let free = run_rox(Arc::clone(&cat), &g, RoxOptions::default()).unwrap();
        let capped = run_rox(
            cat,
            &g,
            RoxOptions {
                effort_budget: Some(0.0),
                tau: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(free.output, capped.output);
        // With a zero budget past the τ² floor, sampling must not balloon.
        assert!(capped.sample_cost.total() <= free.sample_cost.total());
    }

    #[test]
    fn trace_collection_when_enabled() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder return $b"#,
            &[(
                "d.xml",
                "<site><auction><cheap/><bidder/></auction><auction><bidder/><bidder/></auction></site>",
            )],
        );
        let r = run_rox(
            cat,
            &g,
            RoxOptions {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.traces.is_empty());
        assert_eq!(r.output.len(), 1);
    }
}
