//! The snapshot phase: restart cycles against a saved page file through a
//! buffer pool smaller than the file. Each cycle opens the snapshot,
//! answers its queries once cold (fault + decode + optimise) and then
//! [`WARM_PASSES`] times warm, and drops the engine.

use super::{decomposed_replay, Decomposed, WorkCounts};
use crate::gen::stream;
use crate::trace::Recorder;
use crate::workloads::{ReadSet, Tally, DECOMPOSE_EVERY};
use rand::prelude::*;
use rox_core::{RoxEngine, RoxOptions};
use rox_storage::{PoolStats, Snapshot};
use std::path::Path;
use std::time::{Duration, Instant};

/// The pool gets this fraction of the snapshot's pages.
pub const POOL_DIVISOR: usize = 4;

/// Warm passes after the cold pass of a cycle.
pub const WARM_PASSES: usize = 2;

/// Which queries a cycle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerCycle {
    /// Every query of the set, in a seeded order (each on its own
    /// document, so every cold-pass query is a true first touch).
    All,
    /// One query per cycle, rotating through the set (for sets whose
    /// queries share documents: a fresh engine makes it a first touch).
    One,
}

/// When the phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After the first cycle that ends past this many seconds.
    Seconds(f64),
    /// After exactly this many cycles.
    Cycles(usize),
}

/// Pool and store counters summed over the counted cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotCounts {
    /// Cycles counted.
    pub cycles: u64,
    /// Queries those cycles ran (both passes).
    pub queries: u64,
    /// Documents and index sets decoded from the snapshot.
    pub loads: u64,
    /// Index builds (must stay 0: the snapshot stores the indexes).
    pub index_builds: u64,
    /// Buffer-pool counters, field-wise sums.
    pub pool: PoolStats,
}

/// What the phase measured.
#[derive(Default)]
pub struct Cycles {
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// `open_snapshot` durations.
    pub open_ms: Vec<f64>,
    /// Cold-pass query latencies.
    pub first_touch_ms: Vec<f64>,
    /// Warm-pass query latencies.
    pub warm_ms: Vec<f64>,
    /// Queries per second of each whole cycle (open and drop included).
    pub cycle_rates: Vec<f64>,
    /// `Snapshot::open` alone (decomposed cycles of a traced run).
    pub raw_open_ms: Vec<f64>,
    /// `try_document` + `try_indexes` per document (decomposed cycles).
    pub doc_decode_ms: Vec<f64>,
    /// Decomposed warm reads (traced runs).
    pub decomposed: Decomposed,
    /// Time spent in decomposed cycles and reads, seconds.
    pub decomposed_s: f64,
    /// Counters over the first `count_cycles` normal cycles.
    pub counts: SnapshotCounts,
    /// Exact work counts over the same cycles' fused runs.
    pub work: WorkCounts,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The client's recorder.
    pub recorders: Vec<Recorder>,
}

fn add_pool(sum: &mut PoolStats, s: &PoolStats) {
    sum.capacity = s.capacity;
    sum.resident += s.resident;
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.probation_hits += s.probation_hits;
    sum.protected_hits += s.protected_hits;
    sum.promotions += s.promotions;
    sum.ghost_promotions += s.ghost_promotions;
    sum.prefetched += s.prefetched;
    sum.prefetch_hits += s.prefetch_hits;
}

/// Run restart cycles against the snapshot at `path` (`pages` pages) with
/// one client. Counters are summed over the first `count_cycles` cycles
/// only, so a time-bounded run still reports exact counts.
#[allow(clippy::too_many_arguments)]
pub fn cycles(
    path: &Path,
    pages: u32,
    set: &ReadSet,
    per_cycle: PerCycle,
    until: Until,
    count_cycles: u64,
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> Cycles {
    let frames = (pages as usize / POOL_DIVISOR).max(1);
    let options = RoxOptions {
        plan_reuse: rox_core::PlanReuse::ReuseValidated,
        ..Default::default()
    };
    let mut rng = stream(seed, 300);
    let mut rec = Recorder::new(epoch, traced, 0);
    let mut out = Cycles {
        work: WorkCounts::with_limit(u64::MAX),
        ..Default::default()
    };
    let start = Instant::now();
    let mut cycle = 0u64;
    loop {
        match until {
            Until::Seconds(s) if start.elapsed() >= Duration::from_secs_f64(s) => break,
            Until::Cycles(n) if cycle as usize >= n => break,
            _ => {}
        }
        cycle += 1;
        rec.next_request();
        if traced && cycle.is_multiple_of(DECOMPOSE_EVERY) {
            let t = Instant::now();
            decomposed_cycle(path, frames, &mut rec, &mut out);
            out.decomposed_s += t.elapsed().as_secs_f64();
            continue;
        }
        let order: Vec<usize> = match per_cycle {
            PerCycle::All => {
                let mut order: Vec<usize> = (0..set.graphs.len()).collect();
                order.shuffle(&mut rng);
                order
            }
            PerCycle::One => vec![(cycle as usize - 1) % set.graphs.len()],
        };
        let cycle_start = Instant::now();
        let op = rec.enter("op");
        let s = rec.enter("engine.open_snapshot");
        let engine = RoxEngine::open_snapshot(path, Some(frames));
        out.open_ms.push(rec.exit(s).as_secs_f64() * 1e3);
        let Ok(engine) = engine else {
            rec.exit(op);
            out.tally.check(false, || "open_snapshot failed".into());
            continue;
        };
        let counted = out.counts.cycles < count_cycles;
        for pass in 0..=WARM_PASSES {
            let samples = if pass == 0 {
                &mut out.first_touch_ms
            } else {
                &mut out.warm_ms
            };
            for (k, &q) in order.iter().enumerate() {
                if pass == 1 && traced && k == 0 {
                    let t = Instant::now();
                    decomposed_replay(
                        &engine,
                        &set.graphs[q],
                        &set.refs[q],
                        options,
                        &mut rec,
                        &mut out.decomposed,
                        &mut out.tally,
                    );
                    out.decomposed_s += t.elapsed().as_secs_f64();
                    continue;
                }
                let s = rec.enter("engine.run");
                let run = engine.run(&set.graphs[q], options);
                let ms = rec.exit(s).as_secs_f64() * 1e3;
                let s = rec.enter("bench.verify");
                let ok = run.is_ok_and(|r| {
                    if counted {
                        out.work.add(&r);
                    }
                    r.output == set.refs[q]
                });
                rec.exit(s);
                if out.tally.check(ok, || {
                    format!("snapshot query {q} (pass {pass}) failed or differs")
                }) {
                    samples.push(ms);
                }
            }
        }
        let stats = engine.stats();
        let s = rec.enter("engine.drop");
        drop(engine);
        rec.exit(s);
        rec.exit(op);
        let queries = (1 + WARM_PASSES) * order.len();
        out.cycle_rates
            .push(queries as f64 / cycle_start.elapsed().as_secs_f64());
        if counted {
            out.counts.cycles += 1;
            out.counts.queries += queries as u64;
            out.counts.loads += stats.storage_loads as u64;
            out.counts.index_builds += stats.index_builds as u64;
            add_pool(&mut out.counts.pool, &stats.pages);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.recorders.push(rec);
    out
}

/// The storage layer's half of a restart on its own: `Snapshot::open`,
/// then every document and index set decoded straight from the source.
fn decomposed_cycle(path: &Path, frames: usize, rec: &mut Recorder, out: &mut Cycles) {
    let op = rec.enter("op");
    let s = rec.enter("storage.open");
    let opened = Snapshot::open(path, Some(frames));
    out.raw_open_ms.push(rec.exit(s).as_secs_f64() * 1e3);
    match opened {
        Ok((catalog, source)) => {
            for id in catalog.doc_ids() {
                let s = rec.enter("storage.doc_decode");
                let doc = source.try_document(id);
                let indexes = source.try_indexes(id);
                let ms = rec.exit(s).as_secs_f64() * 1e3;
                let ok = matches!((doc, indexes), (Ok(Some(_)), Ok(Some(_))));
                if out
                    .tally
                    .check(ok, || format!("decoding stored document {id:?} failed"))
                {
                    out.doc_decode_ms.push(ms);
                }
            }
        }
        Err(e) => {
            out.tally
                .check(false, || format!("Snapshot::open failed: {e}"));
        }
    }
    rec.exit(op);
}
