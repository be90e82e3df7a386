//! `durable_mutate` — writes beside reads on the same engine caches. An
//! XMark base document plus sixteen small side documents, made durable
//! over the flush-tracking I/O layer; two clients, closed loop, each a
//! seeded mix of 90% durable writes (a new version of a side document:
//! `Catalog::load_str` + `try_invalidate_document`, acknowledged after
//! the group fsync) and 10% reads (nine in ten over the side documents —
//! re-index and re-optimise after the invalidation — one in ten a replay
//! over the untouched base document); a checkpoint every fixed number of
//! writes. Then the power is cut: every file is truncated to its
//! last-flushed length, the directory is recovered two dozen times
//! from copies, and every acknowledged write is checked.

use super::tails::{self, Tails, CLIENTS};
use super::xmark_replay::{probe_queries, shape_texts, xmark_config, xmark_input, URI};
use super::{
    build_engine, repeat_setup, report_build, report_engine_counters, report_proc,
    report_trace_accounting, serving_invariants, Built, Ctx, Oracle, Outcome, ReadSet, Tally,
    BASELINE_SHARE, CORPUS_SEED,
};
use crate::gen::sub_seed;
use crate::metrics::Values;
use crate::phases::durable::{self, side_inputs, side_uri, DurableSet, Mix, SIDE_DOCS, VARIANTS};
use crate::probes;
use crate::procfs::ProcSample;
use crate::stats::{median, quiet_p50, quiet_rate, tail};
use crate::trace::Trace;
use crate::walio::TrackingIo;
use rox_storage::wal::{encode_frame, DocPut, WalRecord};
use rox_xmldb::Catalog;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Setup {
    built: Built,
    io: TrackingIo,
    dir: PathBuf,
}

/// Log bytes per record and per user byte of a side-document write,
/// averaged over every document and variant: exact, from the frame
/// encoder, so it repeats run to run whatever versions the window ended on.
fn log_bytes(set: &DurableSet) -> (f64, f64) {
    let scratch = Catalog::new();
    let (mut frames, mut frame_bytes, mut xml_bytes) = (0usize, 0usize, 0usize);
    for (i, variants) in set.side_xmls.iter().enumerate() {
        for xml in variants {
            let uri = side_uri(i);
            let id = scratch.load_str(&uri, xml).expect("side document parses");
            let record = WalRecord::DocInvalidate {
                uri,
                epoch: 1,
                put: DocPut::from_document(&scratch.doc(id), 0, Vec::new()),
            };
            frames += 1;
            frame_bytes += encode_frame(1, &record).len();
            xml_bytes += xml.len();
        }
    }
    (
        frame_bytes as f64 / frames as f64,
        frame_bytes as f64 / xml_bytes as f64,
    )
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut docs = vec![xmark_input(
        URI,
        &xmark_config(sub_seed(CORPUS_SEED, 1), ctx.smoke),
    )];
    docs.extend(side_inputs());
    let mut oracle = Oracle::new(&docs, ctx.smoke);
    let base = ReadSet::new(&shape_texts(URI), &mut oracle);
    let set = DurableSet::new(base, &mut oracle);

    let mut tally = Tally::default();
    let mut broken = Vec::new();
    let (setup, setup_s) = repeat_setup(|rep| {
        if rep > 0 {
            std::fs::remove_dir_all(ctx.scratch.join(format!("durable-{}", rep - 1))).ok();
        }
        let built = build_engine(&docs);
        tails::warm(&built.engine, &set.base, &mut tally);
        let io = TrackingIo::new();
        let dir = ctx.scratch.join(format!("durable-{rep}"));
        built
            .engine
            .make_durable_with_io(&dir, Arc::new(io.clone()))
            .expect("making the engine durable");
        Setup { built, io, dir }
    });
    let Setup { built, io, dir } = setup;
    let engine = Arc::clone(&built.engine);
    let mut versions = vec![0u64; SIDE_DOCS];
    let epoch = Instant::now();
    let mix = |seconds: f64, traced: bool, versions: &mut Vec<u64>| -> Mix {
        durable::mix(
            &engine,
            &set,
            versions,
            CLIENTS,
            seconds,
            durable::CHECKPOINT_EVERY,
            ctx.seed,
            epoch,
            traced,
        )
    };

    if !ctx.trace {
        let mut e2e = Values::end_to_end();
        e2e.set("setup_s", median(&setup_s));
        let run = mix(ctx.seconds, false, &mut versions);
        e2e.set("ops_per_s", quiet_rate(&run.stamps, run.wall_s));
        // The replays on the untouched base document: what a reader
        // beside the writers waits. (The reads over the side documents are
        // 70 µs of re-indexing a four-element document; their median moved
        // by a tenth between runs of one binary.)
        e2e.set("query_p50_ms", quiet_p50(&run.base_read_ms));
        e2e.set("write_ack_p50_ms", quiet_p50(&run.write_ack_ms));
        tally.merge(run.tally);

        let xml_bytes: u64 = docs[0].xml.len() as u64
            + (0..SIDE_DOCS)
                .map(|i| set.side_xmls[i][versions[i] as usize % VARIANTS].len() as u64)
                .sum::<u64>();
        let tails = Tails {
            serve: Some((&engine, &set.base)),
            snapshot: Some((&engine, &set.base, xml_bytes)),
            durable: None,
        };
        tally.merge(tails.run(ctx, &mut e2e));
        serving_invariants(&engine.stats(), &mut broken);
        drop(built);
        let recovered = durable::crash_and_recover(
            engine,
            &io,
            &dir,
            &set,
            &mut versions,
            ctx.count(durable::SETTLE_WRITES),
            &ctx.scratch,
        );
        e2e.set("recover_p50_ms", quiet_p50(&recovered.recover_ms));
        // What durability costs in space: the crashed directory (snapshot
        // plus log tail) against the XML it holds.
        e2e.set(
            "stored_bytes_per_user_byte",
            recovered.stored_bytes as f64 / xml_bytes as f64,
        );
        tally.merge(recovered.tally);
        tally.merge(oracle.tally);
        std::fs::remove_dir_all(&dir).ok();
        return Outcome {
            tally,
            invariants: broken,
            values: e2e,
            trace: None,
        };
    }

    let mut layer = Values::per_layer();
    report_build(&built, &docs, &mut layer);
    let baseline = mix(ctx.seconds * BASELINE_SHARE, false, &mut versions);
    let before = engine.stats();
    let device_before = io.stats();
    let proc_before = ProcSample::now();
    let run = mix(ctx.seconds * (1.0 - BASELINE_SHARE), true, &mut versions);
    let proc_run = ProcSample::now().since(&proc_before);
    let device = io.stats();
    let after = engine.stats();
    report_engine_counters(&before, &after, &mut layer);
    report_proc(&proc_run, run.tally.attempted, &mut layer);
    run.work.report(&mut layer);
    layer.set("query_p99_ms", tail(&run.read_ms));
    layer.set("write_ack_p99_ms", tail(&run.write_ack_ms));
    layer.set(
        "xmldb.parse_mb_per_s",
        run.user_bytes_written as f64 / 1e6 / run.parse_s.max(f64::EPSILON),
    );
    layer.set(
        "wal.acks_per_fsync",
        (after.wal.commits - before.wal.commits) as f64
            / ((after.wal.fsyncs - before.wal.fsyncs) as f64).max(1.0),
    );
    let (bytes_per_record, bytes_per_user_byte) = log_bytes(&set);
    layer.set("wal.bytes_per_record", bytes_per_record);
    layer.set("wal.bytes_per_user_byte", bytes_per_user_byte);
    layer.set(
        "device.writes",
        (device.writes - device_before.writes) as f64,
    );
    layer.set(
        "device.write_bytes",
        (device.write_bytes - device_before.write_bytes) as f64,
    );
    layer.set(
        "device.flushes",
        (device.flushes - device_before.flushes) as f64,
    );
    layer.set("recovery.checkpoint_ms_p50", median(&run.checkpoint_ms));
    layer.set("recovery.checkpoint_stall_ms_max", run.stall_ms_max);
    layer.set(
        "wal.append_commit_us",
        probes::wal_append_commit_us(&engine, &side_uri(0), &ctx.scratch),
    );
    probes::run_common(&engine, &probe_queries(URI), ctx.seed, &mut layer);

    let rate = |m: &Mix| m.stamps.len() as f64 / m.wall_s;
    let mut trace = Trace::default();
    let (traced_rate, wall_s) = (rate(&run), run.wall_s);
    trace.absorb_all(run.recorders);
    report_trace_accounting(
        rate(&baseline),
        traced_rate,
        trace.total_self_s(),
        CLIENTS as f64 * wall_s,
        &mut layer,
        &mut broken,
    );
    tally.merge(baseline.tally);
    tally.merge(run.tally);

    drop(built);
    let recovered = durable::crash_and_recover(
        engine,
        &io,
        &dir,
        &set,
        &mut versions,
        ctx.count(durable::SETTLE_WRITES),
        &ctx.scratch,
    );
    layer.set("recovery.replayed_records", recovered.replayed as f64);
    layer.set("recovery.torn_tail_bytes", recovered.torn_tail_bytes as f64);
    tally.merge(recovered.tally);
    tally.merge(oracle.tally);
    std::fs::remove_dir_all(&dir).ok();
    Outcome {
        tally,
        invariants: broken,
        values: layer,
        trace: Some(trace),
    }
}
