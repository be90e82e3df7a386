//! The one run driver: every way a Join Graph gets evaluated — a ROX
//! optimizing run ([`crate::run_rox_with_env`]), a pure plan replay
//! ([`crate::run_plan_with_env`]), and a guarded replay that may demote
//! mid-query ([`crate::guard`]) — is a short composition of the four steps
//! here:
//!
//! 1. [`RunDriver::new`] — evaluation state, redundant edges marked;
//! 2. [`RunDriver::replay_edge`] — execute one given edge, no sampling;
//! 3. [`RunDriver::optimize_remaining`] — Algorithm 1 over whatever is
//!    still unexecuted: Phase 1 seeds samples and weights from the
//!    *current* tables, Phase 2 alternates chain sampling with execution;
//! 4. [`RunDriver::finish`] — finalize the join, apply the plan tail.
//!
//! The driver owns everything a run accumulates — executed order, both
//! cost counters, both wall clocks, chain traces — so the three callers
//! cannot drift apart in what they set up, seed, time, or tear down.

use crate::chain::{chain_sample, ChainOutcome, ChainTrace};
use crate::env::RoxEnv;
use crate::estimate::estimate_card;
use crate::optimizer::{RoxOptions, RoxReport};
use crate::state::{EdgeExec, EvalState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rox_joingraph::{EdgeId, JoinGraph};
use rox_ops::{Cost, Tail};
use std::time::{Duration, Instant};

/// The plan tail (π·δ·τ·π) `graph` asks for, as the operator that applies
/// it.
pub(crate) fn plan_tail(graph: &JoinGraph) -> Tail {
    Tail {
        dedup_vars: graph.tail.dedup.clone(),
        sort_vars: graph.tail.sort.clone(),
        output_vars: vec![graph.tail.output],
    }
}

/// One run in progress; see the module docs.
pub(crate) struct RunDriver<'a> {
    /// The evaluation state (tables, components, executed set, edge log,
    /// execution cost).
    pub(crate) state: EvalState<'a>,
    options: RoxOptions,
    rng: StdRng,
    /// Current edge weights (`None` = unweighted, treated as +∞).
    weights: Vec<Option<f64>>,
    /// Edges executed so far, replayed or chosen, in order.
    pub(crate) executed_order: Vec<EdgeId>,
    /// Work done by sampling (spot probes, Phase 1, chain sampling,
    /// re-weighting).
    pub(crate) sample_cost: Cost,
    sample_wall: Duration,
    exec_wall: Duration,
    traces: Vec<ChainTrace>,
    started: Instant,
}

impl<'a> RunDriver<'a> {
    /// Fresh state over `env`/`graph`. Descendant steps from document
    /// roots are semantically redundant and marked executed up front
    /// (§3.2).
    pub(crate) fn new(env: &'a RoxEnv, graph: &'a JoinGraph, options: RoxOptions) -> Self {
        let started = Instant::now();
        let mut state = EvalState::new(env, graph);
        for e in graph.edges() {
            if e.redundant {
                state.mark_executed(e.id);
            }
        }
        RunDriver {
            state,
            options,
            rng: StdRng::seed_from_u64(options.seed),
            weights: vec![None; graph.edge_count()],
            executed_order: Vec::new(),
            sample_cost: Cost::new(),
            sample_wall: Duration::ZERO,
            exec_wall: Duration::ZERO,
            traces: Vec::new(),
            started,
        }
    }

    /// Run `f` — sampling work outside Algorithm 1 proper (the guard's
    /// spot probes) — over the state and the sampling cost counter, on
    /// the sampling clock.
    pub(crate) fn sampled<R>(&mut self, f: impl FnOnce(&mut EvalState<'a>, &mut Cost) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.state, &mut self.sample_cost);
        self.sample_wall += t.elapsed();
        out
    }

    /// Execute edge `e` of a given plan with no sampling and return what
    /// it observed; redundant edges are skipped (`None`).
    pub(crate) fn replay_edge(&mut self, e: EdgeId) -> Option<EdgeExec> {
        if self.state.graph.edge(e).redundant {
            return None;
        }
        let t = Instant::now();
        self.state.execute_edge(e, None);
        self.exec_wall += t.elapsed();
        self.executed_order.push(e);
        self.state.edge_log.last().copied()
    }

    /// Algorithm 1 over the unexecuted edges. Phase 1 (lines 1-4) seeds
    /// `S(v)` from the current `T(v)` — the base list on an untouched
    /// vertex — and weighs every candidate edge by an independent cut-off
    /// sampled run, so a state that already carries an executed prefix
    /// (mid-query demotion) restarts exactly where a run that had arrived
    /// there itself would stand. Then the Phase-2 loop.
    pub(crate) fn optimize_remaining(&mut self) {
        let t0 = Instant::now();
        for v in self.state.graph.vertices() {
            self.state
                .seed_sample(v.id, &mut self.rng, self.options.tau);
        }
        let candidates = self.state.unexecuted_edges();
        self.reweigh(&candidates);
        self.sample_wall += t0.elapsed();
        self.optimize_loop();
    }

    /// Re-sample the weights of `edges` — one sampled run per edge.
    fn reweigh(&mut self, edges: &[EdgeId]) {
        for &e in edges {
            self.weights[e as usize] =
                estimate_card(&self.state, e, self.options.tau, &mut self.sample_cost);
        }
    }

    /// The minimum-weight edge of `edges` (ties to the lower id).
    fn lightest(&self, edges: &[EdgeId]) -> Option<EdgeId> {
        let weight = |e: EdgeId| self.weights[e as usize].unwrap_or(f64::INFINITY);
        edges.iter().copied().min_by(|&a, &b| {
            weight(a)
                .partial_cmp(&weight(b))
                .expect("weights are never NaN")
                .then(a.cmp(&b))
        })
    }

    /// The Phase-2 drive loop of Algorithm 1 (lines 5-19): alternate
    /// exploration (chain sampling or the greedy ablation) with full
    /// execution of the superior path segment, re-weighting edges incident
    /// to updated vertices after every execution.
    fn optimize_loop(&mut self) {
        let options = self.options;
        while !self.state.unexecuted_edges().is_empty() {
            let t_sample = Instant::now();
            // Adaptive effort (§6): once sampling work dominates execution
            // work beyond the budget, stop paying for lookahead.
            let explore = options.chain_sampling
                && options.effort_budget.is_none_or(|budget| {
                    let floor = (options.tau * options.tau) as f64;
                    (self.sample_cost.total() as f64)
                        <= budget * (self.state.exec_cost.total() as f64).max(floor)
                });
            let outcome = if explore {
                chain_sample(
                    &self.state,
                    &self.weights,
                    &mut self.rng,
                    options.tau,
                    &mut self.sample_cost,
                )
            } else {
                // Greedy ablation: the minimum-weight edge, no lookahead.
                let e = self
                    .lightest(&self.state.unexecuted_edges())
                    .expect("loop guard");
                ChainOutcome {
                    path: vec![e],
                    trace: ChainTrace {
                        seed_edge: e,
                        ..Default::default()
                    },
                }
            };
            self.sample_wall += t_sample.elapsed();
            if options.trace {
                self.traces.push(outcome.trace);
            }
            // Execute the chosen path segment: the paper treats it "as a
            // separate Join Graph" and executes it in its best order — we
            // pick the current-minimum-weight edge of the segment each
            // time, re-weighting in between.
            let mut remaining: Vec<EdgeId> = outcome.path;
            loop {
                remaining.retain(|&e| !self.state.is_executed(e));
                let Some(e) = self.lightest(&remaining) else {
                    break;
                };
                let t_exec = Instant::now();
                let changed = self
                    .state
                    .execute_edge(e, Some((&mut self.rng, options.tau)));
                self.exec_wall += t_exec.elapsed();
                self.executed_order.push(e);
                // Lines 18-19: re-sample the weights of all unexecuted
                // edges incident to updated vertices.
                if options.resample {
                    let t_rw = Instant::now();
                    let stale: Vec<EdgeId> = changed
                        .iter()
                        .flat_map(|&v| self.state.unexecuted_edges_of(v))
                        .collect();
                    self.reweigh(&stale);
                    self.sample_wall += t_rw.elapsed();
                }
            }
        }
    }

    /// Finish the run: assemble the full join and apply the plan tail
    /// (charged, like finalization, to execution).
    pub(crate) fn finish(mut self) -> RoxReport {
        let t_fin = Instant::now();
        let joined = self.state.finalize();
        let mut exec_cost = self.state.exec_cost;
        let output = plan_tail(self.state.graph).apply(&joined, &mut exec_cost);
        RoxReport {
            joined,
            output,
            executed_order: self.executed_order,
            edge_log: self.state.edge_log,
            exec_cost,
            sample_cost: self.sample_cost,
            exec_wall: self.exec_wall + t_fin.elapsed(),
            sample_wall: self.sample_wall,
            total_wall: self.started.elapsed(),
            traces: self.traces,
        }
    }
}
