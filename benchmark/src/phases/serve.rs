//! The serving phase: cached plans replayed through the engine's
//! admission path, closed loop (capacity) and open loop (latency).

use super::{decomposed_replay, Decomposed, WorkCounts};
use crate::gen::{poisson_arrivals, stream, Zipf};
use crate::trace::Recorder;
use crate::workloads::{ReadSet, Tally, DECOMPOSE_EVERY};
use rox_core::{EngineTicket, RoxEngine, RoxOptions};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Zipf skew over the query shapes.
pub const ZIPF_S: f64 = 1.1;

/// A response later than this misses the service-level objective.
pub const SLO_MS: f64 = 50.0;

/// What a closed-loop run measured.
#[derive(Default)]
pub struct ClosedLoop {
    /// Length of the window, seconds.
    pub wall_s: f64,
    /// Completion time of every correct fused query, seconds from start.
    pub stamps: Vec<f64>,
    /// Decomposed-path samples (traced runs).
    pub decomposed: Decomposed,
    /// Client time spent in decomposed operations, seconds.
    pub decomposed_s: f64,
    /// Exact work counts over each client's first queries.
    pub work: WorkCounts,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// One recorder per client.
    pub recorders: Vec<Recorder>,
}

/// Queries per client whose work is counted exactly.
pub const COUNTED_QUERIES: u64 = 256;

impl ClosedLoop {
    /// Fused queries per second of client time not spent in decomposed
    /// operations — comparable between a traced and an untraced run.
    pub fn fused_rate(&self, clients: usize) -> f64 {
        self.stamps.len() as f64 / (clients as f64 * self.wall_s - self.decomposed_s).max(1e-9)
    }
}

/// `clients` threads each submit a Zipf-picked query through
/// `try_submit`, wait for it, check it, drop it, and go again — for
/// `seconds`. Results are never retained.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    engine: &Arc<RoxEngine>,
    set: &ReadSet,
    options: RoxOptions,
    clients: usize,
    seconds: f64,
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> ClosedLoop {
    let zipf = Zipf::new(set.graphs.len(), ZIPF_S);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let per_client: Vec<ClosedLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut rng = stream(seed, 100 + c as u64);
                    let mut rec = Recorder::new(epoch, traced, c as u64);
                    let mut out = ClosedLoop {
                        work: WorkCounts::with_limit(COUNTED_QUERIES),
                        ..Default::default()
                    };
                    let mut n = 0u64;
                    while start.elapsed() < deadline {
                        let shape = zipf.pick(&mut rng);
                        let (graph, reference) = (&set.graphs[shape], &set.refs[shape]);
                        rec.next_request();
                        let op = rec.enter("op");
                        n += 1;
                        if traced && n.is_multiple_of(DECOMPOSE_EVERY) {
                            decomposed_replay(
                                engine,
                                graph,
                                reference,
                                options,
                                &mut rec,
                                &mut out.decomposed,
                                &mut out.tally,
                            );
                            out.decomposed_s += rec.exit(op).as_secs_f64();
                            continue;
                        }
                        let s = rec.enter("engine.submit");
                        let ticket = engine.try_submit(graph, options);
                        rec.exit(s);
                        let finished = match ticket {
                            Ok(ticket) => {
                                let s = rec.enter("engine.wait");
                                let outcome = ticket.wait();
                                rec.exit(s);
                                let s = rec.enter("bench.verify");
                                let ok = outcome.result.is_ok_and(|run| {
                                    out.work.add(&run);
                                    &run.output == reference
                                });
                                rec.exit(s);
                                ok.then_some(outcome.finished_at)
                            }
                            Err(_) => None,
                        };
                        rec.exit(op);
                        let ok = out.tally.check(finished.is_some(), || {
                            format!("closed-loop query {shape} failed or differs")
                        });
                        if let (true, Some(at)) = (ok, finished) {
                            out.stamps.push(at.duration_since(start).as_secs_f64());
                        }
                    }
                    out.recorders.push(rec);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut out = ClosedLoop {
        wall_s: seconds,
        ..Default::default()
    };
    for c in per_client {
        out.stamps.extend(c.stamps);
        out.decomposed.merge(c.decomposed);
        out.decomposed_s += c.decomposed_s;
        out.work.merge(c.work);
        out.tally.merge(c.tally);
        out.recorders.extend(c.recorders);
    }
    out
}

/// What an open-loop run measured.
#[derive(Default)]
pub struct OpenLoop {
    /// From the window's start to the last correct query's finish.
    pub drained_s: f64,
    /// Finish time of every correct query, seconds from start.
    pub stamps: Vec<f64>,
    /// Latency from the instant the request was *due* to worker finish.
    pub latency_ms: Vec<f64>,
    /// Duration of the `try_submit` call itself.
    pub submit_us: Vec<f64>,
    /// Worst distance between a request's due time and its submission.
    pub max_lateness_ms: f64,
    /// Mean admission-queue depth, sampled at every arrival.
    pub depth_mean: f64,
    /// Deepest admission queue seen.
    pub depth_max: usize,
    /// Requests offered.
    pub submitted: u64,
    /// Requests rejected, failed, or later than [`SLO_MS`].
    pub slo_misses: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The dispatcher's and the collector's recorders.
    pub recorders: Vec<Recorder>,
}

struct InFlight {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    shape: usize,
    ticket: EngineTicket,
}

/// Poisson arrivals at `rate` per second for `seconds` (conditioned on
/// their count, see [`poisson_arrivals`]), whatever the engine does: the
/// dispatcher never waits for a completion. A collector
/// thread claims tickets in submission order, checks each result against
/// its reference and drops it at once.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    engine: &Arc<RoxEngine>,
    set: &ReadSet,
    options: RoxOptions,
    rate: f64,
    seconds: f64,
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> OpenLoop {
    let zipf = Zipf::new(set.graphs.len(), ZIPF_S);
    let mut rng = stream(seed, 200);
    let mut out = OpenLoop::default();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);

    struct Collected {
        stamps: Vec<f64>,
        latency_ms: Vec<f64>,
        late: u64,
        tally: Tally,
        rec: Recorder,
    }
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut c = Collected {
                stamps: Vec::new(),
                latency_ms: Vec::new(),
                late: 0,
                tally: Tally::default(),
                rec: Recorder::new(epoch, traced, 1),
            };
            for job in rx {
                let outcome = job.ticket.wait();
                let finished = outcome.finished_at;
                let ok = outcome
                    .result
                    .is_ok_and(|run| run.output == set.refs[job.shape]);
                c.rec.next_request();
                // The request's life as spans: from due time to the
                // worker's finish stamp, split at the submission call.
                let root = c.rec.add("op", job.due, finished.max(job.due));
                c.rec
                    .add_under(root, "gen.lateness", job.due, job.submit_start.max(job.due));
                c.rec
                    .add_under(root, "engine.submit", job.submit_start, job.submit_end);
                c.rec
                    .add_under(root, "engine.queue_and_run", job.submit_end, finished);
                let ms = finished.saturating_duration_since(job.due).as_secs_f64() * 1e3;
                if c.tally.check(ok, || {
                    format!("open-loop query {} failed or differs", job.shape)
                }) {
                    c.latency_ms.push(ms);
                    c.stamps.push(finished.duration_since(start).as_secs_f64());
                }
                if !ok || ms > SLO_MS {
                    c.late += 1;
                }
            }
            c
        });

        let arrivals = poisson_arrivals(&mut rng, (rate * seconds).round() as usize, window);
        let mut depth_sum = 0u64;
        for next_at in arrivals {
            let now = start.elapsed();
            if next_at > now {
                std::thread::sleep(next_at - now);
            }
            let due = start + next_at;
            let shape = zipf.pick(&mut rng);
            out.submitted += 1;
            let submit_start = Instant::now();
            let ticket = engine.try_submit(&set.graphs[shape], options);
            let submit_end = Instant::now();
            out.submit_us
                .push((submit_end - submit_start).as_secs_f64() * 1e6);
            let lateness = submit_start.saturating_duration_since(due).as_secs_f64() * 1e3;
            out.max_lateness_ms = out.max_lateness_ms.max(lateness);
            match ticket {
                Ok(ticket) => tx
                    .send(InFlight {
                        due,
                        submit_start,
                        submit_end,
                        shape,
                        ticket,
                    })
                    .expect("collector alive"),
                Err(e) => {
                    out.tally
                        .check(false, || format!("open-loop submit refused: {e}"));
                    out.slo_misses += 1;
                }
            }
            let depth = engine.queue_depth();
            depth_sum += depth as u64;
            out.depth_max = out.depth_max.max(depth);
        }
        drop(tx);
        out.depth_mean = depth_sum as f64 / (out.submitted as f64).max(1.0);
        collector.join().expect("open-loop collector panicked")
    });
    out.drained_s = collected
        .stamps
        .iter()
        .copied()
        .reduce(f64::max)
        .unwrap_or(seconds);
    out.stamps = collected.stamps;
    out.latency_ms = collected.latency_ms;
    out.slo_misses += collected.late;
    out.tally.merge(collected.tally);
    out.recorders.push(collected.rec);
    out
}
