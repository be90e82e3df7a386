//! Guarded plan replay: sampled revalidation and mid-query demotion.
//!
//! Since the plan cache replays on shape match alone, it silently gives up
//! the paper's whole robustness story the moment the data drifts. This
//! module puts Algorithm 1 back in the loop *continuously*: every
//! `ReuseValidated` replay is checked against the cardinalities the
//! seeding run recorded, and a breach demotes the replay **mid-query** to
//! a fresh run-time optimization of the remaining edges.
//!
//! Two kinds of checks, both compared through the documented thresholds in
//! `rox_ops::cost` ([`DRIFT_RATIO`] /
//! [`DRIFT_ABS_FLOOR`](rox_ops::DRIFT_ABS_FLOOR)):
//!
//! 1. **Sampled spot checks** (before any execution): the first
//!    [`REVALIDATE_SPOT_CHECKS`] plan
//!    edges are re-estimated by a cheap zero-investment probe — both
//!    endpoints sampled at the small, τ-independent
//!    [`REVALIDATE_SPOT_TAU`] under an RNG
//!    derived from the recorded plan seed and the edge id. The recorded
//!    expectation was computed by the *same* probe procedure at seed time,
//!    so on unchanged data the replay's probe is **bit-identical** to it
//!    (ratio exactly 1) and zero drift can never spuriously demote; the
//!    charged work is capped by
//!    [`revalidation_budget`].
//! 2. **Observed checks** (during execution, free): after each replayed
//!    edge, the actual node-level pairs and result rows are compared
//!    against the recorded [`EdgeExec`] — exact values, no sampling noise
//!    — which is what catches *correlation* drift that leaves every base
//!    cardinality untouched.
//!
//! On breach the run driver — with its executed prefix, tables, and
//! cardinalities — simply continues into the same Phase-1 + Phase-2 step
//! an optimizing run is made of ([`crate::optimizer`]): samples are
//! re-seeded from the *current* `T(v)` tables and the remaining edges are
//! optimized from scratch. Output correctness is unconditional (any edge order joins to
//! the same relation); demotion recovers the *order* quality.

use crate::driver::RunDriver;
use crate::engine::RunMode;
use crate::env::RoxEnv;
use crate::estimate::estimate_card;
use crate::optimizer::{RoxOptions, RoxReport};
use crate::plan::{validate_plan, PlanError};
use crate::state::{EdgeExec, EvalState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rox_joingraph::{EdgeId, JoinGraph};
use rox_ops::{
    drift_ratio, revalidation_budget, Cost, DRIFT_RATIO, REVALIDATE_SPOT_CHECKS,
    REVALIDATE_SPOT_TAU,
};

/// What the seeding run recorded for one plan edge — the expectations a
/// guarded replay checks the live run against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeExpectation {
    /// The seed-time spot-probe estimate of the edge, recorded by the
    /// exact probe procedure the replay re-runs (`None` when the edge sits
    /// past the spot-check window or the probe had nothing to sample).
    pub spot_estimate: Option<f64>,
    /// Component result rows the seeding run observed ([`EdgeExec`]).
    pub result_rows: usize,
    /// Node-level pairs the seeding run observed.
    pub pairs: usize,
    /// Input cardinalities `(|T(v1)|, |T(v2)|)` at the seeding execution.
    pub inputs: (usize, usize),
}

impl EdgeExpectation {
    /// Recorded reduction factor `pairs / (|T(v1)|·|T(v2)|)`.
    pub fn reduction(&self) -> f64 {
        let denom = (self.inputs.0 as f64) * (self.inputs.1 as f64);
        if denom == 0.0 {
            return 0.0;
        }
        self.pairs as f64 / denom
    }
}

/// The replayable slice of a plan-cache entry: what [`run_guarded`] needs,
/// with no strings attached (cloning it out of the cache lock is cheap).
#[derive(Debug, Clone)]
pub(crate) struct GuardSpec {
    /// Edge order to replay.
    pub order: Vec<EdgeId>,
    /// Per-edge expectations, parallel to `order`.
    pub expected: Vec<EdgeExpectation>,
    /// τ the seeding run sampled with (governs the Phase-1 reproduction).
    pub tau: usize,
    /// RNG seed of the seeding run.
    pub seed: u64,
}

/// Which comparison a [`SpotCheck`] made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Pre-execution sampled probe vs the recorded Phase-1 weight.
    SampledWeight,
    /// Post-execution observed pairs / result rows vs the recorded
    /// [`EdgeExec`] (exact, free).
    Observed,
}

/// One drift comparison a guarded replay performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotCheck {
    /// The checked edge.
    pub edge: EdgeId,
    /// Sampled or observed.
    pub kind: CheckKind,
    /// The recorded expectation.
    pub expected: f64,
    /// What the replay measured.
    pub observed: f64,
    /// Symmetric floored ratio (see [`rox_ops::drift_ratio`]).
    pub ratio: f64,
    /// Did the ratio breach [`DRIFT_RATIO`]?
    pub breached: bool,
}

impl SpotCheck {
    fn new(edge: EdgeId, kind: CheckKind, expected: f64, observed: f64) -> Self {
        let ratio = drift_ratio(observed, expected);
        SpotCheck {
            edge,
            kind,
            expected,
            observed,
            ratio,
            breached: ratio > DRIFT_RATIO,
        }
    }
}

/// Replay `spec` under drift guards; demote to a fresh optimization of the
/// remaining edges on breach. See the module docs for the check semantics.
/// Returns the run, how it ended ([`RunMode::Revalidated`] or
/// [`RunMode::Demoted`], whose `at_edge` is 0 when a pre-execution sampled
/// check fired), and every drift comparison made, in order.
pub(crate) fn run_guarded(
    env: &RoxEnv,
    graph: &JoinGraph,
    spec: &GuardSpec,
    options: RoxOptions,
) -> Result<(RoxReport, RunMode, Vec<SpotCheck>), PlanError> {
    validate_plan(graph, &spec.order)?;
    debug_assert_eq!(spec.order.len(), spec.expected.len());
    let mut driver = RunDriver::new(env, graph, options);
    let mut checks: Vec<SpotCheck> = Vec::new();
    let mut breached = false;

    // ---- Sampled spot checks: re-run the seed-time probe procedure ----
    // ---- on the first K plan edges and compare bit-for-bit.        ----
    let budget = revalidation_budget(spec.tau);
    for (i, &e) in spec.order.iter().enumerate().take(REVALIDATE_SPOT_CHECKS) {
        if driver.sample_cost.total() >= budget {
            break;
        }
        let Some(expected) = spec.expected[i].spot_estimate else {
            continue;
        };
        let Some(observed) = driver.sampled(|state, cost| spot_probe(state, e, spec.seed, cost))
        else {
            continue;
        };
        let check = SpotCheck::new(e, CheckKind::SampledWeight, expected, observed);
        checks.push(check);
        if check.breached {
            breached = true;
            break;
        }
    }

    // ---- Replay, with free observed checks after every edge. ----
    if !breached {
        for (i, &e) in spec.order.iter().enumerate() {
            let Some(exec) = driver.replay_edge(e) else {
                continue;
            };
            let exp = &spec.expected[i];
            // The worse of the pair-level and row-level drifts: pairs is
            // what the sampled probes estimate, result rows is what the
            // component join actually pays for.
            let by_pairs =
                SpotCheck::new(e, CheckKind::Observed, exp.pairs as f64, exec.pairs as f64);
            let by_rows = SpotCheck::new(
                e,
                CheckKind::Observed,
                exp.result_rows as f64,
                exec.result_rows as f64,
            );
            let check = if by_pairs.ratio >= by_rows.ratio {
                by_pairs
            } else {
                by_rows
            };
            checks.push(check);
            if check.breached {
                breached = true;
                break;
            }
        }
    }

    // ---- Breach: demote mid-query — re-seed Phase 1 from the current ----
    // ---- tables and drive Algorithm 1 over the remaining edges.      ----
    let mode = if breached {
        let at_edge = driver.executed_order.len();
        driver.optimize_remaining();
        RunMode::Demoted { at_edge }
    } else {
        RunMode::Revalidated
    };
    Ok((driver.finish(), mode, checks))
}

/// Deterministic RNG for edge `e`'s spot probe, derived from the plan's
/// recorded seed (splitmix-style spread so neighbouring edge ids draw
/// uncorrelated streams).
fn spot_rng(seed: u64, e: EdgeId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (e as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One zero-investment spot probe of edge `e` on a *pre-execution* state:
/// sample both endpoints at [`REVALIDATE_SPOT_TAU`] under the edge-derived
/// RNG and estimate the edge cardinality with a cut-off probe. The
/// procedure reads nothing but the base lists and the derived seed, so the
/// seed-time recording and every zero-drift replay compute bit-identical
/// values — and its cost is independent of the run's τ.
fn spot_probe(state: &mut EvalState<'_>, e: EdgeId, seed: u64, cost: &mut Cost) -> Option<f64> {
    let edge = state.graph.edge(e);
    let (v1, v2) = (edge.v1, edge.v2);
    let mut rng = spot_rng(seed, e);
    state.seed_sample(v1, &mut rng, REVALIDATE_SPOT_TAU);
    state.seed_sample(v2, &mut rng, REVALIDATE_SPOT_TAU);
    estimate_card(state, e, REVALIDATE_SPOT_TAU, cost)
}

/// Build the per-edge expectations for seeding (or re-seeding, after a
/// demotion) the plan cache: observed cardinalities come from the run's
/// own `edge_log`, and the first [`REVALIDATE_SPOT_CHECKS`] edges get a
/// recorded spot estimate computed by the exact probe procedure a future
/// guarded replay will re-run (same derived RNG, same probe τ, same base
/// lists) — so the next zero-drift replay compares bit-equal values. The
/// sampling charged here is cache-maintenance work, not part of any run's
/// counters.
pub(crate) fn plan_expectations(
    env: &RoxEnv,
    graph: &JoinGraph,
    order: &[EdgeId],
    edge_log: &[EdgeExec],
    options: &RoxOptions,
) -> Vec<EdgeExpectation> {
    debug_assert_eq!(order.len(), edge_log.len());
    let mut state = RunDriver::new(env, graph, *options).state;
    let mut maintenance = Cost::new();
    let mut expectations = Vec::with_capacity(order.len());
    for (i, (&e, exec)) in order.iter().zip(edge_log).enumerate() {
        let spot_estimate = if i < REVALIDATE_SPOT_CHECKS {
            spot_probe(&mut state, e, options.seed, &mut maintenance)
        } else {
            None
        };
        expectations.push(EdgeExpectation {
            spot_estimate,
            result_rows: exec.result_rows,
            pairs: exec.pairs,
            inputs: exec.inputs,
        });
    }
    expectations
}
