//! `snapshot_cold` — the restart and larger-than-pool path. Twelve XMark
//! documents (distinct generator seeds) are saved once in set-up as one
//! page file; the window is one client running restart cycles:
//! `open_snapshot` with a pool a quarter of the file → one Q1 per
//! document in a seeded order (first touch: fault, decode, optimise) →
//! the same queries again, warm, through that undersized pool → drop.
//!
//! `query_p50_ms` / `query_p99_ms` are the warm passes (the
//! snapshot-backed-versus-in-memory replay gap); the cold pass has its
//! own `first_touch_p50_ms`.

use super::tails::{self, Tails};
use super::xmark_replay::{probe_queries, xmark_config, xmark_input};
use super::{
    build_engine, repeat_setup, report_build, report_proc, report_trace_accounting,
    serving_invariants, user_bytes, Built, Ctx, DocInput, Oracle, Outcome, ReadSet, Tally,
    BASELINE_SHARE, CORPUS_SEED,
};
use crate::gen::sub_seed;
use crate::metrics::Values;
use crate::phases::durable::{side_inputs, DurableSet};
use crate::phases::snapshot::{self, Cycles, PerCycle, Until, POOL_DIVISOR};
use crate::probes;
use crate::procfs::ProcSample;
use crate::stats::{median, quiet_p50, tail, upper_quartile};
use crate::trace::Trace;
use rox_core::RoxEngine;
use rox_datagen::xmark_query;
use rox_storage::SaveReport;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Documents in the snapshot.
pub const DOCS: usize = 12;

/// Cycles whose pool and work counters are summed exactly.
pub const COUNTED_CYCLES: u64 = 4;

/// Q1's price threshold.
const Q1_THRESHOLD: f64 = 145.0;

fn uri(d: usize) -> String {
    format!("xmark/{d}.xml")
}

struct Setup {
    built: Built,
    path: PathBuf,
    report: SaveReport,
    save_ms: f64,
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let doc_count = if ctx.smoke { 4 } else { DOCS };
    let docs: Vec<DocInput> = (0..doc_count)
        .map(|d| {
            xmark_input(
                &uri(d),
                &xmark_config(sub_seed(CORPUS_SEED, 10 + d as u64), ctx.smoke),
            )
        })
        .collect();
    let texts: Vec<String> = (0..doc_count)
        .map(|d| xmark_query("<", Q1_THRESHOLD).replace(super::xmark_replay::URI, &uri(d)))
        .collect();
    let mut all_docs = docs.clone();
    all_docs.extend(side_inputs());
    let mut oracle = Oracle::new(&all_docs, ctx.smoke);
    let reads = ReadSet::new(&texts, &mut oracle);

    let mut tally = Tally::default();
    let mut broken = Vec::new();
    let (setup, setup_s) = repeat_setup(|rep| {
        let built = build_engine(&docs);
        let path = ctx.scratch.join(format!("snapshot-{rep}.rox"));
        if rep > 0 {
            std::fs::remove_file(ctx.scratch.join(format!("snapshot-{}.rox", rep - 1))).ok();
        }
        let t = Instant::now();
        let report = built
            .engine
            .save_snapshot(&path)
            .expect("saving the snapshot");
        Setup {
            built,
            path,
            report,
            save_ms: t.elapsed().as_secs_f64() * 1e3,
        }
    });
    let epoch = Instant::now();
    let cycles = |seconds: f64, traced: bool| -> Cycles {
        snapshot::cycles(
            &setup.path,
            setup.report.pages,
            &reads,
            PerCycle::All,
            Until::Seconds(seconds),
            COUNTED_CYCLES,
            ctx.seed,
            epoch,
            traced,
        )
    };

    if !ctx.trace {
        let mut e2e = Values::end_to_end();
        e2e.set("setup_s", median(&setup_s));
        let run = cycles(ctx.seconds, false);
        e2e.set("ops_per_s", upper_quartile(&run.cycle_rates));
        e2e.set("query_p50_ms", quiet_p50(&run.warm_ms));
        e2e.set("first_touch_p50_ms", quiet_p50(&run.first_touch_ms));
        e2e.set(
            "stored_bytes_per_user_byte",
            setup.report.file_bytes as f64 / user_bytes(&docs) as f64,
        );
        if run.counts.index_builds != 0 {
            broken.push(format!(
                "{} index builds on the snapshot path",
                run.counts.index_builds
            ));
        }
        tally.merge(run.tally);

        // Capacity of a snapshot-backed engine behind the same small pool.
        let frames = (setup.report.pages as usize / POOL_DIVISOR).max(1);
        let engine = RoxEngine::open_snapshot(&setup.path, Some(frames)).map(Arc::new);
        if let Ok(engine) = &engine {
            tails::warm(engine, &reads, &mut tally);
        } else {
            tally.check(false, || "open_snapshot for the serve tail failed".into());
        }
        let set = DurableSet::new(reads.head(DOCS), &mut oracle);
        let tails = Tails {
            serve: engine.as_ref().ok().map(|e| (e, &reads)),
            snapshot: None,
            durable: Some((&all_docs, &set)),
        };
        tally.merge(tails.run(ctx, &mut e2e));
        if let Ok(engine) = &engine {
            serving_invariants(&engine.stats(), &mut broken);
        }
        tally.merge(oracle.tally);
        std::fs::remove_file(&setup.path).ok();
        return Outcome {
            tally,
            invariants: broken,
            values: e2e,
            trace: None,
        };
    }

    let mut layer = Values::per_layer();
    report_build(&setup.built, &docs, &mut layer);
    layer.set("storage.save_ms", setup.save_ms);
    layer.set(
        "storage.compression_ratio",
        setup.report.payload_bytes as f64 / setup.report.raw_payload_bytes as f64,
    );
    let baseline = cycles(ctx.seconds * BASELINE_SHARE, false);
    let proc_before = ProcSample::now();
    let run = cycles(ctx.seconds * (1.0 - BASELINE_SHARE), true);
    let proc_run = ProcSample::now().since(&proc_before);
    report_proc(&proc_run, run.tally.attempted, &mut layer);
    run.work.report(&mut layer);
    layer.set("query_p99_ms", tail(&run.warm_ms));
    layer.set("open_p50_ms", quiet_p50(&run.open_ms));
    let c = &run.counts;
    if c.index_builds != 0 {
        broken.push(format!(
            "{} index builds on the snapshot path",
            c.index_builds
        ));
    }
    if c.pool.evictions > c.pool.misses {
        broken.push("pool evictions exceed misses".into());
    }
    layer.set("storage.open_ms", median(&run.raw_open_ms));
    layer.set("storage.doc_decode_ms", median(&run.doc_decode_ms));
    layer.set(
        "storage.loads_per_cycle",
        c.loads as f64 / (c.cycles as f64).max(1.0),
    );
    layer.set(
        "storage.pages_read_per_query",
        c.pool.misses as f64 / (c.queries as f64).max(1.0),
    );
    layer.set(
        "storage.pool.hit_share",
        c.pool.hits as f64 / ((c.pool.hits + c.pool.misses) as f64).max(1.0),
    );
    layer.set("storage.pool.misses", c.pool.misses as f64);
    layer.set("storage.pool.evictions", c.pool.evictions as f64);
    layer.set(
        "storage.pool.prefetch_hit_share",
        c.pool.prefetch_hits as f64 / (c.pool.prefetched as f64).max(1.0),
    );
    layer.set(
        "storage.pool.ghost_promotions",
        c.pool.ghost_promotions as f64,
    );
    layer.set("engine.session_us", median(&run.decomposed.session_us));
    layer.set("plan.replay_ms_p50", median(&run.decomposed.replay_ms));
    layer.set(
        "guard.overhead_share",
        run.decomposed.guard_overhead_share(),
    );
    layer.set(
        "guard.spot_checks_per_run",
        run.decomposed.spot_checks as f64 / (run.decomposed.guarded_ms.len() as f64).max(1.0),
    );
    // The operator probes read the same documents, resident in memory.
    probes::run_common(
        &setup.built.engine,
        &probe_queries(&uri(0)),
        ctx.seed,
        &mut layer,
    );

    let fused_rate = |c: &Cycles| -> f64 {
        (c.first_touch_ms.len() + c.warm_ms.len()) as f64 / (c.wall_s - c.decomposed_s).max(1e-9)
    };
    let mut trace = Trace::default();
    let (traced_rate, wall_s) = (fused_rate(&run), run.wall_s);
    trace.absorb_all(run.recorders);
    report_trace_accounting(
        fused_rate(&baseline),
        traced_rate,
        trace.total_self_s(),
        wall_s,
        &mut layer,
        &mut broken,
    );
    tally.merge(baseline.tally);
    tally.merge(run.tally);
    tally.merge(oracle.tally);
    std::fs::remove_file(&setup.path).ok();
    Outcome {
        tally,
        invariants: broken,
        values: layer,
        trace: Some(trace),
    }
}
