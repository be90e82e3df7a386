//! `dblp_adhoc` — the paper's own setting (§4.1–4.2). An in-memory DBLP
//! corpus at the paper's ×1 scale (23 venue documents); one client, closed
//! loop; every operation compiles and runs a 4-way author query with
//! `PlanReuse::AlwaysOptimize`, so the Join Graph compiler, the sampling
//! optimizer, the index samplers and the value joins do the work, and the
//! plan cache, the worker pool, storage and the log do none.
//!
//! The query set is fixed by the inputs, not by the seed: the 4-venue
//! combinations of all three correlation groups (4:0, 3:1, 2:2) whose
//! author-tag total is at most [`TAG_CAP`] (so a query takes milliseconds,
//! not the seconds the DB-only combinations take), every [`STRIDE`]-th of
//! them. The window runs whole *passes* over that set — a seeded order
//! and a different `RoxOptions::seed` per pass — and only whole passes
//! are reported, so every reported number covers the same query mix.

use super::tails::{self, Tails};
use super::{
    build_engine, repeat_setup, report_build, report_engine_counters, report_proc,
    report_trace_accounting, serialize_catalog, Ctx, DocInput, Oracle, Outcome, ReadSet, Tally,
    BASELINE_SHARE, CORPUS_SEED, DECOMPOSE_EVERY,
};
use crate::gen::{stream, sub_seed};
use crate::metrics::Values;
use crate::phases::durable::{side_inputs, DurableSet};
use crate::phases::WorkCounts;
use crate::probes::{self, ProbeQueries};
use crate::procfs::ProcSample;
use crate::stats::{median, quiet_p50, tail, upper_quartile};
use crate::trace::{Recorder, Trace};
use rand::prelude::*;
use rox_core::{
    analyze_star, enumerate_join_orders, plan_edges, run_plan_with_env, run_rox_with_env,
    EngineStats, Placement, RoxEngine, RoxOptions,
};
use rox_datagen::{dblp_query, generate_dblp, grouped_combinations, venue_uri, DblpConfig};
use rox_xmldb::Catalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest author-tag total (at size factor 1) of a combination in the
/// query set.
pub const TAG_CAP: f64 = 12_000.0;

/// Every this-many-th qualifying combination is in the query set.
pub const STRIDE: usize = 4;

/// Sample size τ (the paper's default).
pub const TAU: usize = 100;

/// Fused runs whose work is counted exactly.
pub const COUNTED_RUNS: u64 = 128;

/// Queries in the plan-regret subset (the smallest by author-tag total).
pub const REGRET_QUERIES: usize = 16;

/// Read queries the tails use.
const TAIL_QUERIES: usize = 8;

struct Inputs {
    docs: Vec<DocInput>,
    /// Query texts, in enumeration order.
    texts: Vec<String>,
    /// Indices into `texts` of the regret subset.
    regret: Vec<usize>,
    probes: ProbeQueries,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let size_factor = if ctx.smoke { 0.03 } else { 1.0 };
    let scratch = Arc::new(Catalog::new());
    let corpus = generate_dblp(
        &scratch,
        &DblpConfig {
            scale: 1,
            size_factor,
            seed: sub_seed(CORPUS_SEED, 1),
            ..DblpConfig::default()
        },
    );
    let tags_of =
        |combo: &[usize; 4]| -> usize { combo.iter().map(|&v| corpus.author_tags[v]).sum() };
    let stride = if ctx.smoke { STRIDE * 4 } else { STRIDE };
    let combos: Vec<[usize; 4]> = grouped_combinations()
        .into_iter()
        .map(|(combo, _group)| combo)
        .filter(|combo| tags_of(combo) as f64 <= TAG_CAP * size_factor)
        .step_by(stride)
        .collect();
    let mut by_size: Vec<usize> = (0..combos.len()).collect();
    by_size.sort_by_key(|&i| (tags_of(&combos[i]), i));
    by_size.truncate(REGRET_QUERIES);

    // The two venues with the most author tags feed the operator probes.
    let mut venues: Vec<usize> = (0..corpus.author_tags.len()).collect();
    venues.sort_by_key(|&v| std::cmp::Reverse(corpus.author_tags[v]));
    let (a, b) = (venue_uri(venues[0]), venue_uri(venues[1]));
    Inputs {
        docs: serialize_catalog(&scratch),
        texts: combos.iter().map(dblp_query).collect(),
        regret: by_size,
        probes: ProbeQueries {
            child_step: format!(r#"for $x in doc("{a}")//article, $y in $x/author return $y"#),
            descendant_step: format!(
                r#"for $x in doc("{a}")//article, $y in $x//author return $y"#
            ),
            value_join: format!(
                r#"for $x in doc("{a}")//author, $y in doc("{b}")//author
                   where $x/text() = $y/text() return $x"#
            ),
        },
    }
}

/// What one window of passes measured.
#[derive(Default)]
struct Window {
    /// Queries per second of each whole pass.
    pass_rates: Vec<f64>,
    /// Compile + run latency of every fused query in a whole pass.
    latency_ms: Vec<f64>,
    /// `compile_query` durations.
    compile_us: Vec<f64>,
    /// Decomposed path: `engine.session`.
    session_us: Vec<f64>,
    /// Decomposed path: `run_rox_with_env` wall minus the replay of the
    /// order it chose.
    overhead_ms: Vec<f64>,
    /// Decomposed path: the replay itself.
    replay_ms: Vec<f64>,
    /// Fused `engine.run` calls that succeeded.
    fused_runs: u64,
    /// Whole passes' wall time and the part spent in decomposed operations.
    busy_s: f64,
    decomposed_s: f64,
    work: WorkCounts,
    tally: Tally,
}

impl Window {
    fn fused_rate(&self) -> f64 {
        self.latency_ms.len() as f64 / (self.busy_s - self.decomposed_s).max(1e-9)
    }
}

fn window(
    engine: &RoxEngine,
    texts: &[String],
    reads: &ReadSet,
    seconds: f64,
    seed: u64,
    rec: &mut Recorder,
) -> Window {
    let traced = rec.enabled();
    let mut out = Window {
        work: WorkCounts::with_limit(COUNTED_RUNS),
        ..Default::default()
    };
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut ops = 0u64;
    for pass in 0u64.. {
        let mut order: Vec<usize> = (0..texts.len()).collect();
        order.shuffle(&mut stream(seed, 500 + pass));
        let pass_start = Instant::now();
        let (mut latency_ms, mut decomposed_s) = (Vec::with_capacity(order.len()), 0.0);
        let mut whole = true;
        for &q in &order {
            if start.elapsed() >= deadline {
                whole = false;
                break;
            }
            let options = RoxOptions {
                tau: TAU,
                seed: sub_seed(seed, 1000 + pass * texts.len() as u64 + q as u64),
                ..RoxOptions::default()
            };
            ops += 1;
            rec.next_request();
            let op = rec.enter("op");
            let s = rec.enter("joingraph.compile");
            let graph = rox_joingraph::compile_query(&texts[q]);
            let compile = rec.exit(s);
            out.compile_us.push(compile.as_secs_f64() * 1e6);
            let Ok(graph) = graph else {
                rec.exit(op);
                out.tally
                    .check(false, || format!("query {q} does not compile"));
                continue;
            };
            if traced && ops.is_multiple_of(DECOMPOSE_EVERY) {
                let ok = decomposed(engine, &graph, &reads.refs[q], options, rec, &mut out);
                decomposed_s += rec.exit(op).as_secs_f64();
                out.tally
                    .check(ok, || format!("decomposed query {q} failed or differs"));
                continue;
            }
            let s = rec.enter("engine.run");
            let run = engine.run(&graph, options);
            let ran = rec.exit(s);
            let s = rec.enter("bench.verify");
            let ok = run.is_ok_and(|r| {
                out.fused_runs += 1;
                out.work.add(&r);
                r.output == reads.refs[q]
            });
            rec.exit(s);
            rec.exit(op);
            if out
                .tally
                .check(ok, || format!("ad-hoc query {q} failed or differs"))
            {
                latency_ms.push((compile + ran).as_secs_f64() * 1e3);
            }
        }
        if !whole {
            break;
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        out.pass_rates.push(order.len() as f64 / pass_s);
        out.latency_ms.extend(latency_ms);
        out.busy_s += pass_s;
        out.decomposed_s += decomposed_s;
    }
    out
}

/// One query taken apart: session, the optimizing run, and the pure
/// replay of the order it chose — the difference is what optimizing at
/// run time cost in wall time.
fn decomposed(
    engine: &RoxEngine,
    graph: &rox_joingraph::JoinGraph,
    reference: &rox_ops::Relation,
    options: RoxOptions,
    rec: &mut Recorder,
    out: &mut Window,
) -> bool {
    let s = rec.enter("engine.session");
    let env = engine.session(graph);
    out.session_us.push(rec.exit(s).as_secs_f64() * 1e6);
    let Ok(env) = env else {
        return false;
    };
    let s = rec.enter("optimizer.run_rox");
    let report = run_rox_with_env(&env, graph, options);
    let rox_ms = rec.exit(s).as_secs_f64() * 1e3;
    let Ok(report) = report else {
        return false;
    };
    let s = rec.enter("plan.replay");
    let replay = run_plan_with_env(&env, graph, &report.executed_order);
    let replay_ms = rec.exit(s).as_secs_f64() * 1e3;
    out.overhead_ms.push(rox_ms - replay_ms);
    out.replay_ms.push(replay_ms);
    &report.output == reference && replay.is_ok_and(|r| &r.output == reference)
}

/// Σ ROX execution work / Σ best enumerated plan's work over the regret
/// subset. Every enumerated plan's output is also checked: any edge order
/// must give the same answer.
fn plan_regret(engine: &RoxEngine, inputs: &Inputs, reads: &ReadSet, tally: &mut Tally) -> f64 {
    let (mut rox_work, mut best_work) = (0u64, 0u64);
    for &q in &inputs.regret {
        let graph = &reads.graphs[q];
        let (Some(star), Ok(env)) = (analyze_star(graph), engine.session(graph)) else {
            tally.check(false, || format!("query {q} is not a star query"));
            continue;
        };
        let options = RoxOptions {
            tau: TAU,
            ..RoxOptions::default()
        };
        let Ok(rox) = run_rox_with_env(&env, graph, options) else {
            tally.check(false, || format!("regret query {q} failed"));
            continue;
        };
        let mut best = u64::MAX;
        for order in enumerate_join_orders(star.members.len()) {
            for placement in Placement::ALL {
                let edges = plan_edges(graph, &star, &order, placement);
                let run = run_plan_with_env(&env, graph, &edges);
                let ok = run.is_ok_and(|r| {
                    best = best.min(r.cost.total());
                    r.output == reads.refs[q]
                });
                tally.check(ok, || {
                    format!(
                        "query {q}: join order {} gives a different answer",
                        order.name
                    )
                });
            }
        }
        rox_work += rox.exec_cost.total();
        best_work += best;
    }
    rox_work as f64 / (best_work as f64).max(1.0)
}

/// With `AlwaysOptimize` the plan cache must miss exactly once per fused
/// run (and nothing else may have run on the engine meanwhile).
fn check_every_run_optimized(
    before: &EngineStats,
    after: &EngineStats,
    w: &Window,
    broken: &mut Vec<String>,
) {
    let misses = after.plan_misses - before.plan_misses;
    if misses != w.fused_runs {
        broken.push(format!(
            "{misses} plan misses for {} always-optimize runs",
            w.fused_runs
        ));
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = inputs(ctx);
    let mut all_docs = inputs.docs.clone();
    all_docs.extend(side_inputs());
    let mut oracle = Oracle::new(&all_docs, ctx.smoke);
    let reads = ReadSet::new(&inputs.texts, &mut oracle);

    let mut tally = Tally::default();
    let mut broken = Vec::new();
    let (built, setup_s) = repeat_setup(|_| build_engine(&inputs.docs));
    let engine = &built.engine;
    let epoch = Instant::now();

    if !ctx.trace {
        let mut e2e = Values::end_to_end();
        e2e.set("setup_s", median(&setup_s));
        let before = engine.stats();
        let mut rec = Recorder::new(epoch, false, 0);
        let w = window(
            engine,
            &inputs.texts,
            &reads,
            ctx.seconds,
            ctx.seed,
            &mut rec,
        );
        let after = engine.stats();
        e2e.set("ops_per_s", upper_quartile(&w.pass_rates));
        e2e.set("query_p50_ms", quiet_p50(&w.latency_ms));
        if w.pass_rates.is_empty() {
            broken.push("the window was too short for one whole pass".into());
        }
        check_every_run_optimized(&before, &after, &w, &mut broken);
        if after.snapshot_pages != 0 || after.wal.records != 0 {
            broken.push("the in-memory workload touched storage".into());
        }
        tally.merge(w.tally);

        let tail_reads = reads.head(TAIL_QUERIES);
        tails::warm(engine, &tail_reads, &mut tally);
        let set = DurableSet::new(tail_reads.head(TAIL_QUERIES), &mut oracle);
        let tails = Tails {
            serve: Some((engine, &tail_reads)),
            snapshot: Some((engine, &tail_reads, super::user_bytes(&inputs.docs))),
            durable: Some((&all_docs, &set)),
        };
        tally.merge(tails.run(ctx, &mut e2e));
        super::serving_invariants(&engine.stats(), &mut broken);
        tally.merge(oracle.tally);
        return Outcome {
            tally,
            invariants: broken,
            values: e2e,
            trace: None,
        };
    }

    let mut layer = Values::per_layer();
    report_build(&built, &inputs.docs, &mut layer);
    let mut untraced = Recorder::new(epoch, false, 0);
    let baseline = window(
        engine,
        &inputs.texts,
        &reads,
        ctx.seconds * BASELINE_SHARE,
        ctx.seed,
        &mut untraced,
    );
    let before = engine.stats();
    let proc_before = ProcSample::now();
    let mut rec = Recorder::new(epoch, true, 0);
    let traced_start = Instant::now();
    let w = window(
        engine,
        &inputs.texts,
        &reads,
        ctx.seconds * (1.0 - BASELINE_SHARE),
        ctx.seed,
        &mut rec,
    );
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let proc_w = ProcSample::now().since(&proc_before);
    let after = engine.stats();
    check_every_run_optimized(&before, &after, &w, &mut broken);
    report_engine_counters(&before, &after, &mut layer);
    report_proc(&proc_w, w.tally.attempted, &mut layer);
    w.work.report(&mut layer);
    layer.set("query_p99_ms", tail(&w.latency_ms));
    layer.set("joingraph.compile_us", median(&w.compile_us));
    layer.set("engine.session_us", median(&w.session_us));
    layer.set("optimizer.overhead_ms_p50", median(&w.overhead_ms));
    layer.set("plan.replay_ms_p50", median(&w.replay_ms));
    layer.set(
        "optimizer.plan_regret",
        plan_regret(engine, &inputs, &reads, &mut tally),
    );
    probes::run_common(engine, &inputs.probes, ctx.seed, &mut layer);

    let mut trace = Trace::default();
    trace.absorb(rec);
    report_trace_accounting(
        baseline.fused_rate(),
        w.fused_rate(),
        trace.total_self_s(),
        traced_wall,
        &mut layer,
        &mut broken,
    );
    tally.merge(baseline.tally);
    tally.merge(w.tally);
    tally.merge(oracle.tally);
    Outcome {
        tally,
        invariants: broken,
        values: layer,
        trace: Some(trace),
    }
}
