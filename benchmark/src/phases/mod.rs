//! The three traffic phases the workloads are composed from: serving
//! (closed and open loop), snapshot cold-start cycles, and the durable
//! read/write mix with its crash and recovery. A workload runs its own
//! phase for the whole window and the others as short tails.

pub mod durable;
pub mod serve;
pub mod snapshot;

use crate::metrics::Values;
use crate::trace::Recorder;
use crate::workloads::Tally;
use rox_core::{run_plan_with_env, EdgeOpKind, EngineRun, RoxEngine, RoxOptions};
use rox_joingraph::JoinGraph;
use rox_ops::Relation;

/// Exact work counts read from what `engine.run` returns, summed over the
/// first `limit` runs a client makes: a time-bounded window serves a
/// different number of queries every time, but a seeded client's first
/// `limit` queries are always the same ones, so these repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Runs counted per client before counting stops.
    pub limit: u64,
    /// Runs counted.
    pub queries: u64,
    /// Summed `sample_cost.total()`.
    pub sample_work: u64,
    /// Summed `exec_cost.total()`.
    pub exec_work: u64,
    /// Executed edges by physical operator: step, index nested-loop,
    /// hash, select.
    pub edge_kinds: [u64; 4],
}

impl WorkCounts {
    /// A counter that stops after `limit` runs.
    pub fn with_limit(limit: u64) -> WorkCounts {
        WorkCounts {
            limit,
            ..Default::default()
        }
    }

    /// Count one run (ignored past the limit).
    pub fn add(&mut self, run: &EngineRun) {
        if self.queries >= self.limit {
            return;
        }
        self.queries += 1;
        self.sample_work += run.sample_cost.total();
        self.exec_work += run.exec_cost.total();
        for x in &run.edge_log {
            let slot = match x.op {
                EdgeOpKind::StepJoin => 0,
                EdgeOpKind::IndexNLValueJoin => 1,
                EdgeOpKind::HashValueJoin => 2,
                EdgeOpKind::Select => 3,
            };
            self.edge_kinds[slot] += 1;
        }
    }

    /// Fold another client's counts in.
    pub fn merge(&mut self, other: WorkCounts) {
        self.queries += other.queries;
        self.sample_work += other.sample_work;
        self.exec_work += other.exec_work;
        for (a, b) in self.edge_kinds.iter_mut().zip(other.edge_kinds) {
            *a += b;
        }
    }

    /// Record the counts as per-layer metrics.
    pub fn report(&self, layer: &mut Values) {
        let total = (self.sample_work + self.exec_work) as f64;
        layer.set(
            "optimizer.sample_work_share",
            if total > 0.0 {
                self.sample_work as f64 / total
            } else {
                0.0
            },
        );
        layer.set(
            "ops.exec_work_per_query",
            self.exec_work as f64 / (self.queries as f64).max(1.0),
        );
        for (name, n) in [
            "ops.edge_kind.step",
            "ops.edge_kind.idx-nl",
            "ops.edge_kind.hash",
            "ops.edge_kind.select",
        ]
        .into_iter()
        .zip(self.edge_kinds)
        {
            layer.set(name, n as f64);
        }
    }
}

/// Timings from operations that took the decomposed public path in a
/// traced run.
#[derive(Debug, Default, Clone)]
pub struct Decomposed {
    /// Warm `engine.session`, microseconds.
    pub session_us: Vec<f64>,
    /// Pure `run_plan_with_env` of the cached order, milliseconds.
    pub replay_ms: Vec<f64>,
    /// `engine.run` under `ReuseValidated` of the same query, milliseconds.
    pub guarded_ms: Vec<f64>,
    /// Spot checks the guarded runs performed.
    pub spot_checks: u64,
}

impl Decomposed {
    /// Fold another thread's samples in.
    pub fn merge(&mut self, other: Decomposed) {
        self.session_us.extend(other.session_us);
        self.replay_ms.extend(other.replay_ms);
        self.guarded_ms.extend(other.guarded_ms);
        self.spot_checks += other.spot_checks;
    }

    /// `(guarded − replay) / guarded` over the summed samples.
    pub fn guard_overhead_share(&self) -> f64 {
        let guarded: f64 = self.guarded_ms.iter().sum();
        let replay: f64 = self.replay_ms.iter().sum();
        if guarded <= 0.0 {
            return 0.0;
        }
        (guarded - replay) / guarded
    }
}

/// One warm read taken apart: `engine.session`, then the pure replay of
/// the cached plan, then the same query through the guarded `engine.run`
/// — each in its own span. Both results are checked against `reference`.
pub fn decomposed_replay(
    engine: &RoxEngine,
    graph: &JoinGraph,
    reference: &Relation,
    options: RoxOptions,
    rec: &mut Recorder,
    out: &mut Decomposed,
    tally: &mut Tally,
) {
    let s = rec.enter("engine.session");
    let env = engine.session(graph);
    out.session_us.push(rec.exit(s).as_secs_f64() * 1e6);
    let plan = engine.cached_plan(graph);
    let (Ok(env), Some(plan)) = (env, plan) else {
        tally.check(false, || {
            "decomposed read found no session or cached plan".into()
        });
        return;
    };
    let s = rec.enter("plan.replay");
    let replay = run_plan_with_env(&env, graph, &plan.order);
    out.replay_ms.push(rec.exit(s).as_secs_f64() * 1e3);
    let ok = replay.is_ok_and(|r| &r.output == reference);
    tally.check(ok, || {
        "pure replay output differs from the reference".into()
    });

    let s = rec.enter("engine.run");
    let guarded = engine.run(graph, options);
    out.guarded_ms.push(rec.exit(s).as_secs_f64() * 1e3);
    let ok = guarded.is_ok_and(|r| {
        out.spot_checks += r.spot_checks.len() as u64;
        &r.output == reference
    });
    tally.check(ok, || {
        "guarded replay output differs from the reference".into()
    });
}
