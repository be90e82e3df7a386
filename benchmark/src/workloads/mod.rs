//! The four workloads and what they share: generated inputs, the
//! correctness oracle, the failure tally, and the set-up helper.
//!
//! Every workload follows the same script. Inputs (XML text and query
//! text) are generated from `--seed`. Set-up — parse, index, save or make
//! durable, warm up — is run several times and its median reported. A
//! separate in-memory oracle engine computes a reference result for every
//! query; every served result is compared to it bit for bit and dropped.
//! The measured window runs the workload's own traffic. An untraced run
//! then closes with short *tails* of the other workloads' phases on this
//! workload's corpus, so that every end-to-end metric has a value on every
//! workload; a traced run instead re-runs the window with spans recorded
//! and finishes with the fixed layer probes.

pub mod dblp_adhoc;
pub mod durable_mutate;
pub mod snapshot_cold;
pub mod tails;
pub mod xmark_replay;

use crate::metrics::Values;
use crate::procfs::{peak_rss_mb, ProcSample};
use crate::stats::median;
use crate::trace::Trace;
use rox_core::{naive_evaluate, EngineStats, RoxEngine, RoxOptions};
use rox_joingraph::JoinGraph;
use rox_ops::Relation;
use rox_par::WorkerPool;
use rox_xmldb::{serialize_document, Catalog, DocId};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "dblp_adhoc",
    "xmark_replay",
    "snapshot_cold",
    "durable_mutate",
];

/// Seed of every corpus generator. The documents are the same on every
/// run: `--seed` drives the *request stream* (which shapes, in what
/// order, arriving when, optimized under which sampling seed, which
/// document written next). A different corpus per seed moved every latency
/// by more than the bounds — the result sizes of the same query text
/// differ by tens of percent between generator seeds — so seeds would
/// have compared documents, not runs.
pub const CORPUS_SEED: u64 = 2009_0629;

/// Worker threads per engine: this box has two cores, and the builder
/// contract allows no more than two load threads beside them.
pub const WORKERS: usize = 2;

/// Times set-up is repeated; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// In a traced run, one operation in this many takes the decomposed
/// public path instead of the fused `engine.run`.
pub const DECOMPOSE_EVERY: u64 = 8;

/// Share of `--seconds` a traced run spends on its untraced baseline
/// window (the rest is the traced window).
pub const BASELINE_SHARE: f64 = 0.3;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Small corpora, plus the naive-evaluator check of every reference.
    pub smoke: bool,
    /// Private directory for snapshots and durable directories.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A fixed operation count, cut to a quarter in a smoke run.
    pub fn count(&self, full: usize) -> usize {
        if self.smoke {
            (full / 4).max(1)
        } else {
            full
        }
    }
}

/// What one invocation produced.
pub struct Outcome {
    /// Operations attempted and failed across every phase.
    pub tally: Tally,
    /// Counter invariants that did not hold (any makes the run incorrect).
    pub invariants: Vec<String>,
    /// End-to-end values (untraced) or per-layer values (traced).
    pub values: Values,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

/// Operations attempted and failed. An operation fails when it errors,
/// is refused, returns something other than the reference, or — for a
/// write — is acknowledged and then missing after recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failure prints `why` (the first few only).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", why());
            }
        }
        ok
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One generated document: what a user would hand the system.
#[derive(Debug, Clone)]
pub struct DocInput {
    /// URI queries name it by.
    pub uri: String,
    /// Serialized XML.
    pub xml: String,
}

/// Total XML bytes of `docs` — the "user bytes" denominator.
pub fn user_bytes(docs: &[DocInput]) -> u64 {
    docs.iter().map(|d| d.xml.len() as u64).sum()
}

/// Serialize every document of a generator's scratch catalog, in id
/// order, to the XML text the system under test will parse.
pub fn serialize_catalog(catalog: &Catalog) -> Vec<DocInput> {
    catalog
        .doc_ids()
        .into_iter()
        .map(|id| {
            let doc = catalog.doc(id);
            DocInput {
                uri: doc.uri().to_string(),
                xml: serialize_document(&doc),
            }
        })
        .collect()
}

/// A parsed, indexed, in-memory engine over `docs`, and what building it
/// cost.
pub struct Built {
    /// The engine (two workers).
    pub engine: Arc<RoxEngine>,
    /// Seconds spent in `Catalog::load_str`.
    pub parse_s: f64,
    /// Milliseconds per document spent building its indexes.
    pub index_ms: Vec<f64>,
}

/// Parse `docs` into a fresh catalog, wrap it in an engine with
/// [`WORKERS`] workers, and build every document's indexes.
pub fn build_engine(docs: &[DocInput]) -> Built {
    let catalog = Arc::new(Catalog::new());
    let t = Instant::now();
    let ids: Vec<DocId> = docs
        .iter()
        .map(|d| {
            catalog
                .load_str(&d.uri, &d.xml)
                .unwrap_or_else(|e| panic!("generated document {} does not parse: {e}", d.uri))
        })
        .collect();
    let parse_s = t.elapsed().as_secs_f64();
    let engine = Arc::new(RoxEngine::with_workers(
        catalog,
        Arc::new(WorkerPool::new(WORKERS)),
    ));
    let index_ms = ids
        .iter()
        .map(|&id| {
            let t = Instant::now();
            engine.store().indexes(id);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Built {
        engine,
        parse_s,
        index_ms,
    }
}

/// Run `setup` [`SETUP_REPEATS`] times; returns the last state built and
/// every repeat's wall time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        // Drop the previous repeat's state first: set-up is measured from
        // nothing resident.
        drop(last.take());
        let t = Instant::now();
        let state = setup(rep);
        times.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    (last.expect("at least one set-up repeat"), times)
}

/// The correctness oracle: a separate in-memory engine over the same
/// inputs that answers every query with a fresh optimizing run. Document
/// ids match the system under test because both load the inputs in the
/// same order.
pub struct Oracle {
    engine: RoxEngine,
    smoke: bool,
    /// References checked against the naive evaluator (smoke runs).
    pub tally: Tally,
}

impl Oracle {
    /// An oracle over `docs`.
    pub fn new(docs: &[DocInput], smoke: bool) -> Oracle {
        let catalog = Arc::new(Catalog::new());
        for d in docs {
            catalog
                .load_str(&d.uri, &d.xml)
                .expect("generated XML parses");
        }
        Oracle {
            engine: RoxEngine::with_workers(catalog, Arc::new(WorkerPool::new(WORKERS))),
            smoke,
            tally: Tally::default(),
        }
    }

    /// Replace the oracle's copy of `uri` (a new document version).
    pub fn replace(&self, uri: &str, xml: &str) {
        self.engine
            .catalog()
            .load_str(uri, xml)
            .expect("generated XML parses");
        self.engine.invalidate_document(uri);
    }

    /// The oracle's canonical serialization of `uri`.
    pub fn text_of(&self, uri: &str) -> String {
        let id = self.engine.catalog().resolve(uri).expect("oracle document");
        serialize_document(&self.engine.store().doc(id))
    }

    /// The reference output of `graph`. In a smoke run it is also checked
    /// against the nested-loop evaluator that shares no operator code.
    pub fn reference(&mut self, graph: &JoinGraph) -> Relation {
        let run = self
            .engine
            .run(graph, RoxOptions::default())
            .expect("oracle run");
        if self.smoke {
            let env = self.engine.session(graph).expect("oracle session");
            let (_, naive) = naive_evaluate(&env, graph);
            self.tally.check(naive == run.output, || {
                "reference differs from the naive evaluator".to_string()
            });
        }
        run.output
    }
}

/// A set of compiled read queries with their reference outputs.
pub struct ReadSet {
    /// Compiled queries.
    pub graphs: Vec<JoinGraph>,
    /// Reference output per query.
    pub refs: Vec<Relation>,
}

impl ReadSet {
    /// Compile `texts` and compute their references.
    pub fn new(texts: &[String], oracle: &mut Oracle) -> ReadSet {
        let graphs: Vec<JoinGraph> = texts
            .iter()
            .map(|t| rox_joingraph::compile_query(t).expect("generated query compiles"))
            .collect();
        let refs = graphs.iter().map(|g| oracle.reference(g)).collect();
        ReadSet { graphs, refs }
    }

    /// The first `n` queries as their own set (for the tails).
    pub fn head(&self, n: usize) -> ReadSet {
        let n = n.min(self.graphs.len());
        ReadSet {
            graphs: self.graphs[..n].to_vec(),
            refs: self.refs[..n].to_vec(),
        }
    }
}

/// Record what set-up measured about the parse and index layers.
pub fn report_build(built: &Built, docs: &[DocInput], layer: &mut Values) {
    layer.set(
        "xmldb.parse_mb_per_s",
        user_bytes(docs) as f64 / 1e6 / built.parse_s.max(f64::EPSILON),
    );
    layer.set("index.build_ms_per_doc", median(&built.index_ms));
}

/// Record the engine-cache counters accumulated between two readings.
pub fn report_engine_counters(before: &EngineStats, after: &EngineStats, layer: &mut Values) {
    let d = |a: usize, b: usize| (a - b) as f64;
    layer.set(
        "engine.base_list_builds",
        d(after.base_list_builds, before.base_list_builds),
    );
    layer.set(
        "engine.base_list_hits",
        d(after.base_list_hits, before.base_list_hits),
    );
    layer.set(
        "engine.plan_hits",
        (after.plan_hits - before.plan_hits) as f64,
    );
    layer.set(
        "engine.plan_misses",
        (after.plan_misses - before.plan_misses) as f64,
    );
    layer.set(
        "engine.plan_demotions",
        (after.plan_demotions - before.plan_demotions) as f64,
    );
    let leases = after.scratch.leases - before.scratch.leases;
    let misses = after.scratch.misses - before.scratch.misses;
    layer.set(
        "engine.scratch_miss_share",
        misses as f64 / (leases as f64).max(1.0),
    );
}

/// Record CPU time and page faults per operation over `window`.
pub fn report_proc(window: &ProcSample, ops: u64, layer: &mut Values) {
    let ops = (ops as f64).max(1.0);
    layer.set("proc.cpu_user_ms_per_op", window.user_s * 1e3 / ops);
    layer.set("proc.cpu_sys_ms_per_op", window.sys_s * 1e3 / ops);
    layer.set("proc.minor_faults_per_op", window.minor_faults / ops);
    layer.set("proc.peak_rss_mb", peak_rss_mb());
}

/// The serving counters must reconcile once traffic has stopped.
pub fn serving_invariants(stats: &EngineStats, broken: &mut Vec<String>) {
    if stats.jobs_submitted != stats.jobs_served + stats.jobs_rejected + stats.jobs_aborted {
        broken.push(format!(
            "jobs_submitted {} != served {} + rejected {} + aborted {}",
            stats.jobs_submitted, stats.jobs_served, stats.jobs_rejected, stats.jobs_aborted
        ));
    }
    if stats.queue_depth != 0 {
        broken.push(format!("queue_depth {} after the drain", stats.queue_depth));
    }
    if stats.pages.evictions > stats.pages.misses {
        broken.push(format!(
            "pool evictions {} exceed misses {}",
            stats.pages.evictions, stats.pages.misses
        ));
    }
}

/// Record the tracing overhead and how much of the clients' time the
/// spans account for; a trace that loses more than a tenth of the busy
/// time is reported as a broken invariant.
pub fn report_trace_accounting(
    untraced_rate: f64,
    traced_rate: f64,
    self_s: f64,
    busy_s: f64,
    layer: &mut Values,
    broken: &mut Vec<String>,
) {
    layer.set(
        "trace.overhead_share",
        1.0 - traced_rate / untraced_rate.max(f64::EPSILON),
    );
    let accounted = self_s / busy_s.max(f64::EPSILON);
    layer.set("trace.accounted_share", accounted);
    if !(0.9..=1.1).contains(&accounted) {
        broken.push(format!(
            "span self-times sum to {self_s:.3} s but the clients were busy {busy_s:.3} s"
        ));
    }
}

/// Run the workload called `name`.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    match name {
        "dblp_adhoc" => Some(dblp_adhoc::run(ctx)),
        "xmark_replay" => Some(xmark_replay::run(ctx)),
        "snapshot_cold" => Some(snapshot_cold::run(ctx)),
        "durable_mutate" => Some(durable_mutate::run(ctx)),
        _ => None,
    }
}
