//! The short tails an untraced run closes with: each is another
//! workload's phase, run briefly on this workload's corpus, so that every
//! end-to-end metric is measured on every workload. A workload whose own
//! window already measures a metric leaves that tail out.
//!
//! The tails run in interleaved *rounds* — a slice of serving, a few
//! restart cycles, a slice of the durable mix, and round again — so each
//! metric's samples are spread over the whole tail period. This sandbox
//! slows down for a second or two at a time; a tail measured in one
//! two-second block is either inside such an episode or not, which made
//! its metrics bimodal from run to run. The samples of all rounds are
//! summarized together, by the quiet quartiles of [`crate::stats`].

use super::{build_engine, Ctx, DocInput, ReadSet, Tally};
use crate::metrics::Values;
use crate::phases::durable::{self, DurableSet};
use crate::phases::serve;
use crate::phases::snapshot::{self, PerCycle, Until};
use crate::stats::{quiet_p50, slice_rates, upper_quartile};
use crate::walio::TrackingIo;
use rox_core::{PlanReuse, RoxEngine, RoxOptions};
use std::sync::Arc;
use std::time::Instant;

/// Rounds the tails are interleaved over.
const ROUNDS: usize = 8;

/// Closed-loop serving per round, seconds.
const SERVE_ROUND_S: f64 = 0.5;

/// Restart cycles per round.
const SNAPSHOT_ROUND_CYCLES: usize = 15;

/// Durable read/write mix per round, seconds.
const DURABLE_ROUND_S: f64 = 0.5;

/// Clients in the closed-loop and durable phases.
pub const CLIENTS: usize = 2;

/// Options for replaying warmed plans.
pub fn replay_options() -> RoxOptions {
    RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..Default::default()
    }
}

/// Seed the plan cache: one run per query under `ReuseValidated`, each
/// checked against its reference.
pub fn warm(engine: &RoxEngine, reads: &ReadSet, tally: &mut Tally) {
    for (graph, reference) in reads.graphs.iter().zip(&reads.refs) {
        let run = engine.run(graph, replay_options());
        tally.check(run.is_ok_and(|r| &r.output == reference), || {
            "warm-up run failed or differs".into()
        });
    }
}

/// Which tails a workload needs, and on what.
pub struct Tails<'a> {
    /// `capacity_qps`: closed-loop serving of these queries on this
    /// (already warmed) engine.
    pub serve: Option<(&'a Arc<RoxEngine>, &'a ReadSet)>,
    /// `first_touch_p50_ms`, `stored_bytes_per_user_byte`:
    /// save this engine's catalog (this many bytes of XML) and restart
    /// from it, one of these queries on a fresh engine per cycle.
    pub snapshot: Option<(&'a RoxEngine, &'a ReadSet, u64)>,
    /// `write_ack_p50_ms`, `recover_p50_ms`: a fresh
    /// durable engine over these documents (which end with the side
    /// documents), the read/write mix, then crash and recovery.
    pub durable: Option<(&'a [DocInput], &'a DurableSet)>,
}

impl Tails<'_> {
    /// Run the requested tails in interleaved rounds and record their
    /// metrics in `e2e`.
    pub fn run(&self, ctx: &Ctx, e2e: &mut Values) -> Tally {
        let mut tally = Tally::default();
        let epoch = Instant::now();

        // Prepare: the snapshot file and the durable engine.
        let snapshot = self.snapshot.and_then(|(engine, reads, user_bytes)| {
            let path = ctx.scratch.join("tail-snapshot.rox");
            match engine.save_snapshot(&path) {
                Ok(report) => {
                    e2e.set(
                        "stored_bytes_per_user_byte",
                        report.file_bytes as f64 / user_bytes as f64,
                    );
                    Some((path, report.pages, reads))
                }
                Err(e) => {
                    tally.check(false, || format!("saving the tail snapshot: {e}"));
                    None
                }
            }
        });
        let durable = self.durable.and_then(|(docs, set)| {
            let built = build_engine(docs);
            warm(&built.engine, &set.base, &mut tally);
            let dir = ctx.scratch.join("tail-durable");
            std::fs::remove_dir_all(&dir).ok();
            let io = TrackingIo::new();
            match built
                .engine
                .make_durable_with_io(&dir, Arc::new(io.clone()))
            {
                Ok(_) => Some((built.engine, io, dir, set)),
                Err(e) => {
                    tally.check(false, || format!("make_durable in the durable tail: {e}"));
                    None
                }
            }
        });

        let mut rates = Vec::new();
        let mut first_touch_ms = Vec::new();
        let mut write_ack_ms = Vec::new();
        let mut versions = vec![0u64; durable::SIDE_DOCS];
        for round in 0..ctx.count(ROUNDS) {
            let seed = ctx.seed.wrapping_add(round as u64);
            if let Some((engine, reads)) = self.serve {
                let run = serve::closed_loop(
                    engine,
                    reads,
                    replay_options(),
                    CLIENTS,
                    SERVE_ROUND_S.min(ctx.seconds),
                    seed,
                    epoch,
                    false,
                );
                rates.extend(slice_rates(&run.stamps, run.wall_s));
                tally.merge(run.tally);
            }
            if let Some((path, pages, reads)) = &snapshot {
                let run = snapshot::cycles(
                    path,
                    *pages,
                    reads,
                    PerCycle::One,
                    Until::Cycles(ctx.count(SNAPSHOT_ROUND_CYCLES)),
                    0,
                    seed,
                    epoch,
                    false,
                );
                first_touch_ms.extend(run.first_touch_ms);
                tally.merge(run.tally);
            }
            if let Some((engine, _, _, set)) = &durable {
                let mix = durable::mix(
                    engine,
                    set,
                    &mut versions,
                    CLIENTS,
                    DURABLE_ROUND_S.min(ctx.seconds),
                    // No checkpoint in a tail: whether a second one fits
                    // would hang on the write rate, and its cost is
                    // `durable_mutate`'s subject.
                    u64::MAX,
                    seed,
                    epoch,
                    false,
                );
                write_ack_ms.extend(mix.write_ack_ms);
                tally.merge(mix.tally);
            }
        }

        if self.serve.is_some() {
            e2e.set("capacity_qps", upper_quartile(&rates));
        }
        if let Some((path, _, _)) = snapshot {
            e2e.set("first_touch_p50_ms", quiet_p50(&first_touch_ms));
            std::fs::remove_file(path).ok();
        }
        if let Some((engine, io, dir, set)) = durable {
            e2e.set("write_ack_p50_ms", quiet_p50(&write_ack_ms));
            let recovered = durable::crash_and_recover(
                engine,
                &io,
                &dir,
                set,
                &mut versions,
                ctx.count(durable::SETTLE_WRITES),
                &ctx.scratch,
            );
            std::fs::remove_dir_all(&dir).ok();
            e2e.set("recover_p50_ms", quiet_p50(&recovered.recover_ms));
            tally.merge(recovered.tally);
        }
        tally
    }
}
