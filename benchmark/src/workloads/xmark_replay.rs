//! `xmark_replay` — the serving path. One XMark document that fits in
//! memory, eight Q1/Qm1 shapes picked by a Zipf law, plan cache warmed:
//! every query is a guarded replay through the admission queue and the
//! worker pool, and the optimizer does none of the work.
//!
//! Phase A (a quarter of the window): closed loop, two clients →
//! `capacity_qps`. Phase B (the rest): open loop, Poisson arrivals at a
//! fixed [`RATE_QPS`] → `query_p50_ms`, `query_p99_ms` from each
//! request's *due* time, and `ops_per_s` as the rate achieved.

use super::tails::{self, replay_options, Tails, CLIENTS};
use super::{
    build_engine, repeat_setup, report_build, report_engine_counters, report_proc,
    report_trace_accounting, serialize_catalog, serving_invariants, Ctx, DocInput, Oracle, Outcome,
    ReadSet, Tally, BASELINE_SHARE, CORPUS_SEED,
};
use crate::gen::sub_seed;
use crate::metrics::Values;
use crate::phases::durable::{side_inputs, DurableSet};
use crate::phases::serve;
use crate::probes::{self, ProbeQueries};
use crate::procfs::ProcSample;
use crate::stats::{median, quiet_p50, quiet_rate, tail};
use crate::trace::Trace;
use rox_core::RoxOptions;
use rox_datagen::{generate_xmark, xmark_query, XmarkConfig};
use rox_xmldb::Catalog;
use std::sync::Arc;
use std::time::Instant;

/// Query shapes.
pub const SHAPES: usize = 8;

/// Open-loop arrival rate: fixed, about half of what phase A sustains on
/// the two-core box this was sized on.
pub const RATE_QPS: f64 = 250.0;

/// Share of the window phase A (closed loop) takes; phase B takes the
/// rest, because its tail needs every sample it can get.
pub const PHASE_A_SHARE: f64 = 0.25;

/// Admission-queue bound in phase B.
pub const MAX_QUEUED: usize = 512;

/// URI of the document.
pub const URI: &str = "xmark.xml";

/// The XMark shape: the paper's 3000/2500/2500, a twentieth of it for smoke.
pub fn xmark_config(seed: u64, smoke: bool) -> XmarkConfig {
    let scale = if smoke { 20 } else { 1 };
    XmarkConfig {
        persons: 3000 / scale,
        items: 2500 / scale,
        auctions: 2500 / scale,
        seed,
        ..XmarkConfig::default()
    }
}

/// One generated XMark document under `uri`.
pub fn xmark_input(uri: &str, cfg: &XmarkConfig) -> DocInput {
    let scratch = Arc::new(Catalog::new());
    generate_xmark(&scratch, uri, cfg);
    serialize_catalog(&scratch).remove(0)
}

/// The eight Q1 (`<`) / Qm1 (`>`) shapes over `uri`.
pub fn shape_texts(uri: &str) -> Vec<String> {
    (0..SHAPES)
        .map(|i| {
            let op = if i % 2 == 0 { "<" } else { ">" };
            xmark_query(op, 100.0 + 15.0 * i as f64).replace(URI, uri)
        })
        .collect()
}

/// The probe queries of an XMark document under `uri`.
pub fn probe_queries(uri: &str) -> ProbeQueries {
    ProbeQueries {
        child_step: format!(r#"for $o in doc("{uri}")//open_auction, $b in $o/bidder return $b"#),
        descendant_step: format!(
            r#"for $o in doc("{uri}")//open_auction, $r in $o//personref return $r"#
        ),
        value_join: format!(
            r#"for $r in doc("{uri}")//personref, $p in doc("{uri}")//person
               where $r/@person = $p/@id return $r"#
        ),
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let docs = vec![xmark_input(
        URI,
        &xmark_config(sub_seed(CORPUS_SEED, 1), ctx.smoke),
    )];
    let mut all_docs = docs.clone();
    all_docs.extend(side_inputs());
    let mut oracle = Oracle::new(&all_docs, ctx.smoke);
    let reads = ReadSet::new(&shape_texts(URI), &mut oracle);

    let mut tally = Tally::default();
    let mut broken = Vec::new();
    let (built, setup_s) = repeat_setup(|_| {
        let built = build_engine(&docs);
        tails::warm(&built.engine, &reads, &mut tally);
        built
    });
    let engine = &built.engine;
    let serve_options = RoxOptions {
        max_queued: Some(MAX_QUEUED),
        ..replay_options()
    };
    let epoch = Instant::now();

    if !ctx.trace {
        let mut e2e = Values::end_to_end();
        e2e.set("setup_s", median(&setup_s));
        let before = engine.stats();
        let a = serve::closed_loop(
            engine,
            &reads,
            replay_options(),
            CLIENTS,
            ctx.seconds * PHASE_A_SHARE,
            ctx.seed,
            epoch,
            false,
        );
        let b = serve::open_loop(
            engine,
            &reads,
            serve_options,
            RATE_QPS,
            ctx.seconds * (1.0 - PHASE_A_SHARE),
            ctx.seed,
            epoch,
            false,
        );
        let after = engine.stats();
        e2e.set("capacity_qps", quiet_rate(&a.stamps, a.wall_s));
        e2e.set("ops_per_s", b.stamps.len() as f64 / b.drained_s);
        e2e.set("query_p50_ms", quiet_p50(&b.latency_ms));
        tally.merge(a.tally);
        tally.merge(b.tally);
        serving_invariants(&after, &mut broken);
        if after.plan_misses != before.plan_misses {
            broken.push(format!(
                "{} plan misses on a warmed plan cache",
                after.plan_misses - before.plan_misses
            ));
        }
        if after.snapshot_pages != 0 || after.wal.records != 0 {
            broken.push("the in-memory workload touched storage".into());
        }

        let set = DurableSet::new(reads.head(SHAPES), &mut oracle);
        let tails = Tails {
            serve: None,
            snapshot: Some((engine, &reads, super::user_bytes(&docs))),
            durable: Some((&all_docs, &set)),
        };
        tally.merge(tails.run(ctx, &mut e2e));
        tally.merge(oracle.tally);
        return Outcome {
            tally,
            invariants: broken,
            values: e2e,
            trace: None,
        };
    }

    // Traced run: an untraced closed-loop baseline, then both phases with
    // spans recorded, then the fixed probes.
    let mut layer = Values::per_layer();
    report_build(&built, &docs, &mut layer);
    let baseline = serve::closed_loop(
        engine,
        &reads,
        replay_options(),
        CLIENTS,
        ctx.seconds * BASELINE_SHARE,
        ctx.seed,
        epoch,
        false,
    );
    tally.merge(baseline.tally);
    let traced_s = ctx.seconds * (1.0 - BASELINE_SHARE);
    let before = engine.stats();
    let a = serve::closed_loop(
        engine,
        &reads,
        replay_options(),
        CLIENTS,
        traced_s * PHASE_A_SHARE,
        ctx.seed,
        epoch,
        true,
    );
    let proc_before = ProcSample::now();
    let b = serve::open_loop(
        engine,
        &reads,
        serve_options,
        RATE_QPS,
        traced_s * (1.0 - PHASE_A_SHARE),
        ctx.seed,
        epoch,
        true,
    );
    let proc_b = ProcSample::now().since(&proc_before);
    let after = engine.stats();
    serving_invariants(&after, &mut broken);

    report_engine_counters(&before, &after, &mut layer);
    report_proc(&proc_b, b.stamps.len() as u64, &mut layer);
    a.work.report(&mut layer);
    layer.set("engine.session_us", median(&a.decomposed.session_us));
    layer.set("plan.replay_ms_p50", median(&a.decomposed.replay_ms));
    layer.set("guard.overhead_share", a.decomposed.guard_overhead_share());
    layer.set(
        "guard.spot_checks_per_run",
        a.decomposed.spot_checks as f64 / (a.decomposed.guarded_ms.len() as f64).max(1.0),
    );
    layer.set("query_p99_ms", tail(&b.latency_ms));
    layer.set("engine.submit_us", median(&b.submit_us));
    layer.set("engine.queue_depth_mean", b.depth_mean);
    layer.set("engine.queue_depth_max", b.depth_max as f64);
    layer.set(
        "engine.slo_miss_share",
        b.slo_misses as f64 / (b.submitted as f64).max(1.0),
    );
    layer.set("gen.max_lateness_ms", b.max_lateness_ms);
    probes::run_common(engine, &probe_queries(URI), ctx.seed, &mut layer);

    // The closed-loop clients are busy for the whole of phase A, so their
    // spans must account for (clients × wall) there.
    let mut trace = Trace::default();
    let (traced_rate, busy_s) = (a.fused_rate(CLIENTS), CLIENTS as f64 * a.wall_s);
    trace.absorb_all(a.recorders);
    report_trace_accounting(
        baseline.fused_rate(CLIENTS),
        traced_rate,
        trace.total_self_s(),
        busy_s,
        &mut layer,
        &mut broken,
    );
    trace.absorb_all(b.recorders);
    tally.merge(a.tally);
    tally.merge(b.tally);
    tally.merge(oracle.tally);
    Outcome {
        tally,
        invariants: broken,
        values: layer,
        trace: Some(trace),
    }
}
