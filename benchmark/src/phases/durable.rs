//! The durable phase: a read/write mix against an engine whose mutations
//! go through the write-ahead log, then a simulated power cut and
//! recovery from only the bytes that were flushed.
//!
//! Flush policy (as shipped): every write is acknowledged only after the
//! group fsync that covers its log record; concurrent committers share
//! one fsync. Nothing here changes that policy — the phase measures it.

use super::WorkCounts;
use crate::gen::stream;
use crate::trace::Recorder;
use crate::walio::TrackingIo;
use crate::workloads::{DocInput, Oracle, ReadSet, Tally};
use rand::prelude::*;
use rox_core::{PlanReuse, RoxEngine, RoxOptions};
use rox_joingraph::JoinGraph;
use rox_ops::Relation;
use rox_xmldb::serialize_document;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Small mutable documents beside the base corpus.
pub const SIDE_DOCS: usize = 16;

/// Distinct contents each side document cycles through.
pub const VARIANTS: usize = 4;

/// Share of operations that are writes.
pub const WRITE_SHARE: f64 = 0.9;

/// Share of reads that go to the untouched base corpus.
pub const BASE_READ_SHARE: f64 = 0.1;

/// In `durable_mutate`'s window a checkpoint runs after every this many
/// acknowledged writes.
pub const CHECKPOINT_EVERY: u64 = 8192;

/// Writes between the closing checkpoint and the crash, so that every
/// recovery replays the same number of records.
pub const SETTLE_WRITES: usize = 1024;

/// Times recovery is repeated on copies of the crashed directory.
pub const RECOVER_REPEATS: usize = 24;

/// URI of side document `i`.
pub fn side_uri(i: usize) -> String {
    format!("side/{i}.xml")
}

/// Content of side document `i` in variant `k`: a tiny auction whose
/// bidder count changes with the variant, so a stale read shows.
pub fn side_xml(i: usize, k: usize) -> String {
    let mut s = String::from("<site><open_auction>");
    for b in 0..=k {
        s.push_str(&format!(
            "<bidder><increase>{}</increase></bidder>",
            (i * 31 + k * 7 + b) % 97
        ));
    }
    s.push_str(&format!(
        "<current>{}</current></open_auction></site>",
        (k * 53 + i) % 311
    ));
    s
}

/// The side documents in their initial variant.
pub fn side_inputs() -> Vec<DocInput> {
    (0..SIDE_DOCS)
        .map(|i| DocInput {
            uri: side_uri(i),
            xml: side_xml(i, 0),
        })
        .collect()
}

/// Everything the mix reads and writes, with its references.
pub struct DurableSet {
    /// One read query per side document.
    pub side_graphs: Vec<JoinGraph>,
    /// Reference output per side document per variant.
    pub side_refs: Vec<Vec<Relation>>,
    /// Canonical serialization per side document per variant.
    pub side_texts: Vec<Vec<String>>,
    /// The XML a write of each side document and variant loads.
    pub side_xmls: Vec<Vec<String>>,
    /// Read queries over the untouched base corpus.
    pub base: ReadSet,
}

impl DurableSet {
    /// Compute the side references on `oracle` (which must hold the side
    /// documents), leaving it at variant 0 again.
    pub fn new(base: ReadSet, oracle: &mut Oracle) -> DurableSet {
        let side_graphs: Vec<JoinGraph> = (0..SIDE_DOCS)
            .map(|i| {
                rox_joingraph::compile_query(&format!(
                    r#"for $o in doc("{}")//open_auction, $b in $o/bidder return $b"#,
                    side_uri(i)
                ))
                .expect("side query compiles")
            })
            .collect();
        let mut side_refs = Vec::with_capacity(SIDE_DOCS);
        let mut side_texts = Vec::with_capacity(SIDE_DOCS);
        for (i, graph) in side_graphs.iter().enumerate() {
            let mut refs = Vec::with_capacity(VARIANTS);
            let mut texts = Vec::with_capacity(VARIANTS);
            // Variant 0 last, so the oracle ends where the engine starts.
            for k in (0..VARIANTS).rev() {
                oracle.replace(&side_uri(i), &side_xml(i, k));
                refs.push(oracle.reference(graph));
                texts.push(oracle.text_of(&side_uri(i)));
            }
            refs.reverse();
            texts.reverse();
            side_refs.push(refs);
            side_texts.push(texts);
        }
        let side_xmls = (0..SIDE_DOCS)
            .map(|i| (0..VARIANTS).map(|k| side_xml(i, k)).collect())
            .collect();
        DurableSet {
            side_graphs,
            side_refs,
            side_texts,
            side_xmls,
            base,
        }
    }
}

/// Versions acknowledged so far, per side document: the version number is
/// also the document's statistics epoch, and `version % VARIANTS` its
/// content.
pub type Versions = Vec<u64>;

fn read_options() -> RoxOptions {
    RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..Default::default()
    }
}

/// What the mix measured.
#[derive(Default)]
pub struct Mix {
    /// Length of the window, seconds.
    pub wall_s: f64,
    /// Completion time of every correct operation, seconds from start.
    pub stamps: Vec<f64>,
    /// `load_str` start to durable acknowledgement.
    pub write_ack_ms: Vec<f64>,
    /// Read-query latency, every read.
    pub read_ms: Vec<f64>,
    /// Latency of the reads over the untouched base corpus alone.
    pub base_read_ms: Vec<f64>,
    /// Time in `Catalog::load_str`, and the bytes parsed.
    pub parse_s: f64,
    /// XML bytes written (acknowledged writes only).
    pub user_bytes_written: u64,
    /// `checkpoint()` durations.
    pub checkpoint_ms: Vec<f64>,
    /// Longest write acknowledgement that overlapped a checkpoint.
    pub stall_ms_max: f64,
    /// Exact work counts over each client's first reads.
    pub work: WorkCounts,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// One recorder per client.
    pub recorders: Vec<Recorder>,
}

/// Reads per client whose work is counted exactly.
pub const COUNTED_READS: u64 = 64;

/// One durable write of the next version of side document `i`. Returns
/// the acknowledgement latency in milliseconds, or `None` on failure
/// (the version is then not advanced).
fn write_side(
    engine: &RoxEngine,
    set: &DurableSet,
    i: usize,
    versions: &mut [u64],
    rec: &mut Recorder,
    parse_s: &mut f64,
) -> Option<f64> {
    let next = versions[i] + 1;
    let uri = side_uri(i);
    let xml = &set.side_xmls[i][next as usize % VARIANTS];
    let begun = Instant::now();
    let s = rec.enter("xmldb.parse");
    let parsed = engine.catalog().load_str(&uri, xml);
    *parse_s += rec.exit(s).as_secs_f64();
    parsed.ok()?;
    let s = rec.enter("engine.invalidate");
    let acked = engine.try_invalidate_document(&uri);
    rec.exit(s);
    match acked {
        Ok(Some(_lsn)) => {
            versions[i] = next;
            Some(begun.elapsed().as_secs_f64() * 1e3)
        }
        _ => None,
    }
}

/// `clients` threads each run a seeded mix of durable writes and reads
/// for `seconds`. Client `c` owns the side documents `i` with
/// `i % clients == c`, so the expected content of every read is known.
/// `versions` carries the acknowledged versions in and out; a checkpoint
/// runs after every `checkpoint_every` acknowledged writes.
#[allow(clippy::too_many_arguments)]
pub fn mix(
    engine: &Arc<RoxEngine>,
    set: &DurableSet,
    versions: &mut Versions,
    clients: usize,
    seconds: f64,
    checkpoint_every: u64,
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> Mix {
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let writes_done = AtomicU64::new(0);
    // Odd while a checkpoint runs; a write whose two readings differ, or
    // whose first is odd, overlapped one.
    let checkpoint_clock = AtomicU64::new(0);
    let checkpoint_ms = Mutex::new(Vec::new());
    let shared_versions = Mutex::new(std::mem::take(versions));

    let per_client: Vec<Mix> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (writes_done, checkpoint_clock) = (&writes_done, &checkpoint_clock);
                let (checkpoint_ms, shared_versions) = (&checkpoint_ms, &shared_versions);
                scope.spawn(move || {
                    let mut rng = stream(seed, 400 + c as u64);
                    let mut rec = Recorder::new(epoch, traced, c as u64);
                    let mut out = Mix {
                        work: WorkCounts::with_limit(COUNTED_READS),
                        ..Default::default()
                    };
                    let own: Vec<usize> = (0..SIDE_DOCS).filter(|i| i % clients == c).collect();
                    let mut mine = shared_versions.lock().expect("versions").clone();
                    while start.elapsed() < deadline {
                        rec.next_request();
                        let i = *own.choose(&mut rng).expect("client owns documents");
                        let op = rec.enter("op");
                        if rng.random_bool(WRITE_SHARE) {
                            let before = checkpoint_clock.load(Ordering::SeqCst);
                            let acked =
                                write_side(engine, set, i, &mut mine, &mut rec, &mut out.parse_s);
                            let after = checkpoint_clock.load(Ordering::SeqCst);
                            rec.exit(op);
                            if let (true, Some(ms)) = (
                                out.tally.check(acked.is_some(), || {
                                    format!("durable write of side/{i} failed")
                                }),
                                acked,
                            ) {
                                out.write_ack_ms.push(ms);
                                out.stamps.push(start.elapsed().as_secs_f64());
                                out.user_bytes_written +=
                                    set.side_xmls[i][mine[i] as usize % VARIANTS].len() as u64;
                                if before % 2 == 1 || after != before {
                                    out.stall_ms_max = out.stall_ms_max.max(ms);
                                }
                                let done = writes_done.fetch_add(1, Ordering::SeqCst) + 1;
                                if done.is_multiple_of(checkpoint_every) {
                                    rec.next_request();
                                    checkpoint_clock.fetch_add(1, Ordering::SeqCst);
                                    let s = rec.enter("engine.checkpoint");
                                    let cp = engine.checkpoint();
                                    let ms = rec.exit(s).as_secs_f64() * 1e3;
                                    checkpoint_clock.fetch_add(1, Ordering::SeqCst);
                                    if out.tally.check(cp.is_ok(), || "checkpoint failed".into()) {
                                        checkpoint_ms.lock().expect("checkpoints").push(ms);
                                    }
                                }
                            }
                        } else {
                            let on_base = rng.random_bool(BASE_READ_SHARE);
                            let (graph, reference) = if on_base {
                                let q = rng.random_range(0..set.base.graphs.len());
                                (&set.base.graphs[q], &set.base.refs[q])
                            } else {
                                let k = mine[i] as usize % VARIANTS;
                                (&set.side_graphs[i], &set.side_refs[i][k])
                            };
                            let s = rec.enter("engine.run");
                            let run = engine.run(graph, read_options());
                            let ms = rec.exit(s).as_secs_f64() * 1e3;
                            let s = rec.enter("bench.verify");
                            let ok = run.is_ok_and(|r| {
                                out.work.add(&r);
                                &r.output == reference
                            });
                            rec.exit(s);
                            rec.exit(op);
                            if out.tally.check(ok, || {
                                format!("read beside writes (side/{i}) failed or differs")
                            }) {
                                out.read_ms.push(ms);
                                if on_base {
                                    out.base_read_ms.push(ms);
                                }
                                out.stamps.push(start.elapsed().as_secs_f64());
                            }
                        }
                    }
                    let mut all = shared_versions.lock().expect("versions");
                    for &i in &own {
                        all[i] = mine[i];
                    }
                    out.recorders.push(rec);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("durable client panicked"))
            .collect()
    });

    *versions = shared_versions.into_inner().expect("versions");
    let mut out = Mix {
        wall_s: seconds,
        checkpoint_ms: checkpoint_ms.into_inner().expect("checkpoints"),
        ..Default::default()
    };
    for c in per_client {
        out.stamps.extend(c.stamps);
        out.write_ack_ms.extend(c.write_ack_ms);
        out.read_ms.extend(c.read_ms);
        out.base_read_ms.extend(c.base_read_ms);
        out.parse_s += c.parse_s;
        out.user_bytes_written += c.user_bytes_written;
        out.stall_ms_max = out.stall_ms_max.max(c.stall_ms_max);
        out.work.merge(c.work);
        out.tally.merge(c.tally);
        out.recorders.extend(c.recorders);
    }
    out
}

/// What the crash and the recoveries measured.
#[derive(Default)]
pub struct Recovered {
    /// `recover_with_io` durations on copies of the crashed directory.
    pub recover_ms: Vec<f64>,
    /// Records each recovery replayed.
    pub replayed: u64,
    /// Torn-tail bytes recovery found (the crash cuts at a sync point,
    /// so this stays 0 unless a sync covered half a record).
    pub torn_tail_bytes: u64,
    /// Unsynced bytes the simulated power cut discarded.
    pub dropped_bytes: u64,
    /// Snapshot plus log bytes left in the crashed directory.
    pub stored_bytes: u64,
    /// Acknowledged writes checked and found missing or wrong.
    pub tally: Tally,
}

/// A private image of the crashed directory for one recovery. Recovery
/// only ever *reads* the snapshot, so that file is hard-linked where the
/// file system allows (copying it for every recovery would put more dirty pages
/// into the page cache than the whole run wrote); the log, which recovery
/// truncates and reopens for appending, is always copied.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        let read_only = entry.file_name() == rox_storage::recovery::SNAPSHOT_FILE;
        if !(read_only && std::fs::hard_link(entry.path(), &target).is_ok()) {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Close the durable run and crash it: checkpoint, `settle_writes` more
/// acknowledged writes from one client ([`SETTLE_WRITES`] in a full run), then one last write the device
/// never acknowledges; drop the engine; cut the power (every file is
/// truncated to its last-synced length); recover [`RECOVER_REPEATS`]
/// times from copies of the crashed directory; and check on the first
/// recovery that every acknowledged write's epoch and text, and one query
/// per read set, match the references.
pub fn crash_and_recover(
    engine: Arc<RoxEngine>,
    io: &TrackingIo,
    dir: &Path,
    set: &DurableSet,
    versions: &mut Versions,
    settle_writes: usize,
    scratch: &Path,
) -> Recovered {
    let mut out = Recovered::default();
    let mut rec = Recorder::new(Instant::now(), false, 0);
    let mut parse_s = 0.0;
    out.tally.check(engine.checkpoint().is_ok(), || {
        "closing checkpoint failed".into()
    });
    for n in 0..settle_writes {
        let i = n % SIDE_DOCS;
        let acked = write_side(&engine, set, i, versions, &mut rec, &mut parse_s);
        out.tally.check(acked.is_some(), || {
            format!("settling write of side/{i} failed")
        });
    }
    // The write in flight when the power goes: appended, never synced,
    // never acknowledged — it must not survive, and nothing may need it.
    io.fail_syncs();
    let mut unacked = versions.clone();
    let lost = write_side(&engine, set, 0, &mut unacked, &mut rec, &mut parse_s);
    // A worker may still hold its job's engine handle for an instant
    // after the ticket resolved; the files must be closed before the cut.
    let patience = Instant::now() + Duration::from_secs(2);
    while Arc::strong_count(&engine) > 1 && Instant::now() < patience {
        std::thread::yield_now();
    }
    drop(engine);
    out.tally.check(lost.is_none(), || {
        "a write was acknowledged by a device that refused the sync".into()
    });
    out.dropped_bytes = io.crash().unwrap_or(0);
    out.tally.check(out.dropped_bytes > 0, || {
        "the power cut found no unsynced bytes to discard".into()
    });
    out.stored_bytes = dir_bytes(dir);

    for k in 0..RECOVER_REPEATS {
        let copy: PathBuf = scratch.join(format!("recover-{k}"));
        std::fs::remove_dir_all(&copy).ok();
        if copy_dir(dir, &copy).is_err() {
            out.tally
                .check(false, || "copying the crashed directory failed".into());
            continue;
        }
        let t = Instant::now();
        let recovered = RoxEngine::recover_with_io(&copy, None, Arc::new(TrackingIo::new()));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match recovered {
            Ok((engine, report)) => {
                out.recover_ms.push(ms);
                out.replayed = report.replayed as u64;
                out.torn_tail_bytes = report.torn_tail_bytes;
                if k == 0 {
                    verify_recovered(&engine, set, versions, &mut out.tally);
                }
            }
            Err(e) => {
                out.tally.check(false, || format!("recovery failed: {e}"));
            }
        }
        std::fs::remove_dir_all(&copy).ok();
    }
    out
}

/// Every acknowledged write must be there: right epoch, right text, and
/// the queries over it and over the base corpus answer as the references.
fn verify_recovered(engine: &RoxEngine, set: &DurableSet, versions: &[u64], tally: &mut Tally) {
    for (i, &version) in versions.iter().enumerate() {
        let uri = side_uri(i);
        let k = version as usize % VARIANTS;
        tally.check(engine.doc_epoch(&uri) == version, || {
            format!(
                "{uri}: recovered epoch {} but {version} writes were acknowledged",
                engine.doc_epoch(&uri)
            )
        });
        let text = engine
            .catalog()
            .resolve(&uri)
            .map(|id| serialize_document(&engine.store().doc(id)));
        tally.check(
            text.as_deref() == Some(set.side_texts[i][k].as_str()),
            || format!("{uri}: recovered text is not the last acknowledged version"),
        );
        let run = engine.run(&set.side_graphs[i], read_options());
        tally.check(run.is_ok_and(|r| r.output == set.side_refs[i][k]), || {
            format!("{uri}: query over the recovered document differs")
        });
    }
    for (graph, reference) in set.base.graphs.iter().zip(&set.base.refs) {
        let run = engine.run(graph, read_options());
        tally.check(run.is_ok_and(|r| &r.output == reference), || {
            "base query over the recovered corpus differs".into()
        });
    }
}
