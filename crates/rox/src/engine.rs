//! The query-serving layer: a long-lived, thread-safe [`RoxEngine`] that
//! amortizes everything *around* one ROX run across many.
//!
//! ROX pays a per-query sampling overhead to discover a robust join order
//! at run time (§2.3). That trade only makes sense as a *service* if the
//! per-query setup around it — index construction, base-list lookups, and
//! for repeat queries the sampling itself — is paid once, not per call.
//! The engine owns three caches, each keyed so reuse is sound by
//! construction:
//!
//! * **document indexes** — the shared [`IndexedStore`], keyed by
//!   [`DocId`]: element/value indexes (including the dense CSR tables)
//!   are built once per document, ever;
//! * **base lists** — [`BaseListCache`], keyed by `(DocId, VertexLabel)`:
//!   a vertex's base list depends on nothing but its document and its
//!   label, so *any* later query using the same vertex shape reuses it
//!   (unlike the old per-graph `VertexId` keying, which died with the
//!   env);
//! * **plans** — keyed by [`JoinGraph::fingerprint`]: the edge order an
//!   optimizing run discovered. Under [`PlanReuse::ReuseValidated`] a
//!   repeat of the same query shape replays that order with no sampling —
//!   the same steps as [`crate::run_plan_with_env`]. Any fingerprint
//!   mismatch, canonical-form collision, stale edge set, or stale
//!   statistics epoch bypasses the cache and re-optimizes.
//!
//! Plans are **versioned against per-document statistics**: the engine
//! keeps an epoch per document URI, [`RoxEngine::invalidate_document`]
//! bumps the epoch *before* dropping derived data, and both plan lookup
//! and plan seeding verify the epochs they captured are still current —
//! so a replay racing an invalidation can never serve (or cache) a plan
//! versioned against dropped statistics. Every content change goes
//! through that call, so a cached plan only ever replays on the data it
//! was discovered on, and the first run after a change re-optimizes.
//!
//! A query runs inside a *session* ([`RoxEngine::session`]) — a thin
//! [`RoxEnv`] view borrowing the engine's caches — on the thread that
//! serves it. The engine owns one always-on [`WorkerPool`] for the
//! inter-query serving paths: [`RoxEngine::run_many`] fans a batch of
//! queries out over that pool (results in job order), and
//! [`RoxEngine::try_submit`] is the open-loop face: it enqueues one query
//! behind a **bounded admission queue** ([`RoxOptions::max_queued`]) and
//! returns an [`EngineTicket`] immediately, rejecting with
//! [`ServeError::Overloaded`] when the queue is full — backpressure
//! instead of unbounded buffering. Results are bit-identical to fresh
//! standalone runs: every cached structure is value-equal to the fresh
//! build it replaces, and
//! `run` with [`PlanReuse::AlwaysOptimize`] (the default) performs the
//! exact same sampling an un-cached [`crate::run_rox`] would.

use crate::env::{EnvError, RoxEnv};
use crate::optimizer::{run_rox_with_env, RoxOptions, RoxReport};
use crate::plan::{replay, validate_plan};
use crate::state::EdgeExec;
use rox_index::IndexedStore;
use rox_joingraph::{EdgeId, JoinGraph, VertexLabel};
use rox_ops::{Cost, Relation};
use rox_par::WorkerPool;
use rox_storage::wal::{DocPut, Lsn, Wal, WalIo, WalRecord, WalStats};
use rox_storage::{
    recovery, PoolStats, RecoveryReport, SaveReport, Snapshot, SnapshotSource, StdWalIo,
    StorageError,
};
use rox_xmldb::{Catalog, DocId, Pre};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Plan-cache policy for [`RoxEngine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanReuse {
    /// Optimize every run (the paper's behaviour). Discovered plans still
    /// *seed* the cache so a later `ReuseValidated` run can hit.
    #[default]
    AlwaysOptimize,
    /// Replay the cached plan when the query's fingerprint matches a
    /// cached entry that validates against the graph: canonical form
    /// equal, edge order still covering every non-redundant edge
    /// ([`validate_plan`]), statistics epochs current. The replay samples
    /// nothing. Anything else falls back to a full optimizing run.
    ReuseValidated,
}

/// Cross-query base-list cache, keyed by `(DocId, VertexLabel)`.
///
/// The key is sound because a base list is a pure function of the document
/// and the vertex label (see `RoxEnv::build_base_list`); the label is
/// keyed through its injective [`VertexLabel::cache_key`]. Shared behind
/// an `RwLock` — warm lookups are read-locked only. Under a first-touch
/// race both threads build and the first insert wins, so the `builds`
/// counter is exact for sequential warm-path assertions and an upper
/// bound under contention.
pub struct BaseListCache {
    lists: RwLock<BaseListMap>,
    builds: AtomicUsize,
    hits: AtomicUsize,
}

/// `(document, canonical label key)` → shared base list.
type BaseListMap = HashMap<(DocId, String), Arc<Vec<Pre>>>;

/// Safety valve on the base-list cache: parameterized traffic (a fresh
/// range constant per query) mints a fresh `(DocId, label)` key per
/// constant, and each entry holds a materialized pre list — unbounded
/// growth would leak on a long-lived server. Past the cap an arbitrary
/// entry is evicted per insert (outstanding `Arc`s stay valid; a future
/// touch simply rebuilds).
const MAX_CACHED_BASE_LISTS: usize = 8192;

/// Same safety valve for the plan cache (canonical strings + edge
/// orders); evicted FIFO past the cap.
const MAX_CACHED_PLANS: usize = 1024;

impl Default for BaseListCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BaseListCache {
    /// An empty cache.
    pub fn new() -> Self {
        BaseListCache {
            lists: RwLock::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// The list for `(doc, label)`, building it via `build` on a miss.
    pub(crate) fn get_or_build(
        &self,
        doc: DocId,
        label: &VertexLabel,
        build: impl FnOnce() -> Vec<Pre>,
    ) -> Arc<Vec<Pre>> {
        let key = (doc, label.cache_key());
        if let Some(list) = self.lists.read().expect("base-list cache").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(list);
        }
        let built = Arc::new(build());
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lists.write().expect("base-list cache");
        if map.len() >= MAX_CACHED_BASE_LISTS && !map.contains_key(&key) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// How many base lists were built (not served from cache).
    pub fn build_count(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// How many lookups were served from the shared cache.
    pub fn hit_count(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached lists.
    pub fn len(&self) -> usize {
        self.lists.read().expect("base-list cache").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every list of `doc` (after a document reload).
    fn invalidate_doc(&self, doc: DocId) {
        self.lists
            .write()
            .expect("base-list cache")
            .retain(|(d, _), _| *d != doc);
    }
}

/// One plan-cache entry: the join order an optimizing run discovered for
/// one query fingerprint, and the statistics it was discovered on.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The non-redundant edges in the order ROX executed them — the "pure
    /// plan" replayed on a hit.
    pub order: Vec<EdgeId>,
    /// Per-document statistics epochs `(uri, epoch)` captured when the
    /// seeding run started, sorted by URI. A replay or re-seed whose
    /// current epochs differ is refused — the plan was versioned against
    /// statistics that [`RoxEngine::invalidate_document`] has dropped.
    pub stats_epochs: Vec<(String, u64)>,
    /// Collision guard: the full canonical form the fingerprint hashed.
    canonical: String,
    /// Documents the plan touches (for invalidation).
    doc_uris: Vec<String>,
}

/// A serving-path error: admission rejection, query failure, or an
/// aborted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue was full at submission time
    /// ([`RoxOptions::max_queued`]); the job never entered the system.
    Overloaded {
        /// Queue depth observed at rejection.
        queued: usize,
        /// The bound the job's options asked for.
        max_queued: usize,
    },
    /// The query itself failed (unknown document, ...).
    Env(EnvError),
    /// The job was admitted but never completed: it panicked mid-run, or
    /// the pool shut down while it was still queued.
    Aborted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, max_queued } => write!(
                f,
                "overloaded: {queued} jobs queued (admission bound {max_queued})"
            ),
            ServeError::Env(e) => write!(f, "{e}"),
            ServeError::Aborted => write!(f, "job aborted before completion"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EnvError> for ServeError {
    fn from(e: EnvError) -> Self {
        ServeError::Env(e)
    }
}

/// What a completed [`EngineTicket`] resolves to.
#[derive(Debug)]
pub struct TicketOutcome {
    /// The run result (or why it failed).
    pub result: Result<EngineRun, ServeError>,
    /// When the worker finished the job — latency measured here excludes
    /// any delay in the collector picking the ticket up.
    pub finished_at: Instant,
}

enum TicketState {
    Pending,
    Done(Box<TicketOutcome>),
    Taken,
}

struct TicketInner {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl TicketInner {
    /// First completion wins; later calls (e.g. the drop guard after a
    /// normal finish) are no-ops.
    fn complete(&self, result: Result<EngineRun, ServeError>) -> bool {
        let mut state = self.state.lock().expect("ticket state");
        if !matches!(*state, TicketState::Pending) {
            return false;
        }
        *state = TicketState::Done(Box::new(TicketOutcome {
            result,
            finished_at: Instant::now(),
        }));
        self.cv.notify_all();
        true
    }
}

/// A handle to one query admitted through [`RoxEngine::try_submit`]. The
/// submitter never blocks; the result is claimed with
/// [`EngineTicket::wait`]. Every admitted job resolves its ticket exactly
/// once — on completion, on panic, or (as [`ServeError::Aborted`]) when
/// the pool shuts down with the job still queued.
pub struct EngineTicket {
    inner: Arc<TicketInner>,
}

impl EngineTicket {
    /// Block until the job resolves and take its outcome.
    ///
    /// Do not call this from inside the same pool's worker (it would
    /// occupy the worker while waiting on work only that pool can run);
    /// tickets are for external collectors — dispatch loops, benches,
    /// request handlers.
    pub fn wait(self) -> TicketOutcome {
        let mut state = self.inner.state.lock().expect("ticket state");
        loop {
            if matches!(*state, TicketState::Done(_)) {
                match std::mem::replace(&mut *state, TicketState::Taken) {
                    TicketState::Done(out) => return *out,
                    _ => unreachable!("just matched Done"),
                }
            }
            state = self.inner.cv.wait(state).expect("ticket state");
        }
    }
}

/// Completion guard moved into every submitted job closure. Whatever
/// happens to the closure — runs to completion, panics inside `run`, or
/// gets dropped unrun at pool shutdown — the drop leg settles the
/// admission-queue gauge and resolves the ticket, so a collector blocked
/// in [`EngineTicket::wait`] can never hang and the serving counters
/// always reconcile.
struct JobGuard {
    engine: Arc<RoxEngine>,
    inner: Arc<TicketInner>,
    dequeued: bool,
    finished: bool,
}

impl JobGuard {
    /// The job left the admission queue and started running.
    fn dequeue(&mut self) {
        if !self.dequeued {
            self.dequeued = true;
            self.engine.queued.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn finish(&mut self, result: Result<EngineRun, ServeError>) {
        self.finished = true;
        self.engine.jobs_served.fetch_add(1, Ordering::Relaxed);
        self.inner.complete(result);
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.dequeue();
        if !self.finished {
            self.engine.jobs_aborted.fetch_add(1, Ordering::Relaxed);
            self.inner.complete(Err(ServeError::Aborted));
        }
    }
}

/// Always-zero vestige of the deleted scratch pool's counters, retained
/// only because the frozen `benchmark/` reads it for
/// `engine.scratch_miss_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Always 0.
    pub leases: u64,
    /// Always 0.
    pub misses: u64,
}

/// Counters describing how much work the engine's caches absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// `DocIndexes::build` runs in the shared store.
    pub index_builds: usize,
    /// Base lists built (shared-cache misses).
    pub base_list_builds: usize,
    /// Base-list lookups served from the shared cache.
    pub base_list_hits: usize,
    /// `run` calls answered by plan replay.
    pub plan_hits: u64,
    /// `run` calls that ran the optimizer (including every
    /// `AlwaysOptimize` call).
    pub plan_misses: u64,
    /// Always 0: a plan-cache hit is a plain replay and is never demoted.
    /// Retained only because the frozen `benchmark/` reads it for
    /// `engine.plan_demotions`.
    pub plan_demotions: u64,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// See [`ScratchStats`].
    pub scratch: ScratchStats,
    /// Jobs offered to the serving path ([`RoxEngine::try_submit`] and
    /// [`RoxEngine::run_many`]), admitted or not.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion (successfully or with a query error).
    pub jobs_served: u64,
    /// Jobs rejected at admission with [`ServeError::Overloaded`].
    pub jobs_rejected: u64,
    /// Admitted jobs that never completed (panicked mid-run, or dropped
    /// at pool shutdown). At quiescence
    /// `submitted == served + rejected + aborted`.
    pub jobs_aborted: u64,
    /// Jobs currently admitted but not yet started (the live admission
    /// queue gauge [`RoxOptions::max_queued`] bounds).
    pub queue_depth: usize,
    /// Segments read from the snapshot backing this engine, as
    /// `pages.misses` (see [`rox_storage::PoolStats`]). All zero for an
    /// in-memory engine (no snapshot).
    pub pages: PoolStats,
    /// Segments in the backing snapshot file (0 without one).
    pub snapshot_pages: u64,
    /// Documents/index sets decoded from the snapshot instead of being
    /// parsed/built (the store's fault counter).
    pub storage_loads: usize,
    /// Write-ahead-log counters (records, bytes, commits vs fsyncs,
    /// LSN water marks). All zero for an engine without a durable
    /// directory (see [`RoxEngine::make_durable`]).
    pub wal: WalStats,
    /// WAL records replayed when this engine was built by
    /// [`RoxEngine::recover`]; 0 otherwise.
    pub wal_replayed: u64,
}

/// Everything one engine-served query run produces, uniform across
/// optimizing runs and plan-cache replays (a replay's `sample_cost` and
/// `sample_wall` are zero).
#[derive(Debug)]
pub struct EngineRun {
    /// The query output after the plan tail (π·δ·τ·π).
    pub output: Relation,
    /// The fully joined Join Graph result (pre-tail).
    pub joined: Relation,
    /// Edges in the order they were executed (discovered or replayed).
    pub executed_order: Vec<EdgeId>,
    /// Per-execution result sizes and operator choices.
    pub edge_log: Vec<EdgeExec>,
    /// Work done by full executions.
    pub exec_cost: Cost,
    /// Work done by sampling (zero for a plan-cache replay).
    pub sample_cost: Cost,
    /// Wall-clock spent in full execution (+ finalization and tail).
    pub exec_wall: Duration,
    /// Wall-clock spent sampling (Phase 1, chain sampling, re-weighting).
    pub sample_wall: Duration,
    /// Wall-clock of the run; at least `exec_wall + sample_wall`.
    pub total_wall: Duration,
    /// True when the plan cache answered this run: the cached order was
    /// replayed, nothing was sampled.
    pub plan_cache_hit: bool,
    /// Always empty: nothing checks a replay against recorded
    /// cardinalities. Retained only because the frozen `benchmark/` reads
    /// its length for `guard.spot_checks_per_run`.
    pub spot_checks: Vec<std::convert::Infallible>,
    /// The query's join-graph fingerprint (the plan-cache key).
    pub fingerprint: u64,
}

impl EngineRun {
    fn new(report: RoxReport, fingerprint: u64, plan_cache_hit: bool) -> Self {
        EngineRun {
            output: report.output,
            joined: report.joined,
            executed_order: report.executed_order,
            edge_log: report.edge_log,
            exec_cost: report.exec_cost,
            sample_cost: report.sample_cost,
            exec_wall: report.exec_wall,
            sample_wall: report.sample_wall,
            total_wall: report.total_wall,
            plan_cache_hit,
            spot_checks: Vec::new(),
            fingerprint,
        }
    }
}

/// The long-lived, thread-safe query-serving layer: one engine per
/// catalog, shared by reference across every query and worker thread.
///
/// ```
/// use std::sync::Arc;
/// use rox_core::{PlanReuse, RoxEngine, RoxOptions};
///
/// let catalog = Arc::new(rox_xmldb::Catalog::new());
/// catalog.load_str("d.xml", "<site><auction><bidder/></auction></site>").unwrap();
/// let engine = RoxEngine::new(catalog);
/// let graph = rox_joingraph::compile_query(
///     r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
/// ).unwrap();
/// let options = RoxOptions { plan_reuse: PlanReuse::ReuseValidated, ..Default::default() };
/// let cold = engine.run(&graph, options).unwrap(); // optimizes, seeds the plan cache
/// let warm = engine.run(&graph, options).unwrap(); // replays the cached order
/// assert!(!cold.plan_cache_hit && warm.plan_cache_hit);
/// assert_eq!(warm.output, cold.output);
/// assert_eq!(warm.sample_cost.total(), 0); // a replay samples nothing
/// ```
pub struct RoxEngine {
    store: Arc<IndexedStore>,
    base_lists: Arc<BaseListCache>,
    plans: Mutex<PlanCache>,
    /// Per-document statistics epochs, keyed by URI (absent = epoch 0).
    /// [`RoxEngine::invalidate_document`] bumps an epoch *before* touching
    /// any derived data, and plan lookup/seeding compare captured epochs
    /// against current ones — the versioning rule that closes the
    /// invalidate-vs-replay race.
    doc_epochs: RwLock<HashMap<String, u64>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    /// The always-on worker pool the serving paths run queries on.
    workers: Arc<WorkerPool>,
    /// Jobs admitted through [`RoxEngine::try_submit`] but not yet
    /// started — the gauge the bounded admission queue checks.
    queued: AtomicUsize,
    jobs_submitted: AtomicU64,
    jobs_served: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_aborted: AtomicU64,
    /// The snapshot this engine was opened from, when it was
    /// ([`RoxEngine::open_snapshot`]); carries the segment-read counter
    /// [`RoxEngine::stats`] surfaces.
    snapshot: Option<Arc<SnapshotSource>>,
    /// The durable half, when [`RoxEngine::make_durable`] or
    /// [`RoxEngine::recover`] attached one: mutations append to its WAL
    /// and are acknowledged only once their record and every earlier
    /// one are fsynced.
    durable: RwLock<Option<Arc<DurableState>>>,
    /// Records [`RoxEngine::recover`] replayed to build this engine.
    wal_replayed: AtomicU64,
}

/// The durable half of an engine: the directory, the I/O layer writes
/// go through (real, or fault-injected in tests), the log itself, and
/// the mutation-order lock.
struct DurableState {
    dir: PathBuf,
    io: Arc<dyn WalIo>,
    wal: Wal,
    /// Serializes durable mutations against each other and against
    /// checkpoints: the epoch bump, the interner-delta capture, and the
    /// record append must form one atomic step so replay reconstructs
    /// the exact original order (and the exact symbol-id assignment).
    order: Mutex<DurableCursor>,
}

/// The per-directory high-water marks the order lock protects.
struct DurableCursor {
    /// Symbols already persisted (in the snapshot or an earlier
    /// record); the next document record logs the interner delta from
    /// here.
    symbols_logged: usize,
}

/// The bounded plan store behind the engine's mutex: fingerprint → plan
/// plus insertion order for FIFO eviction past [`MAX_CACHED_PLANS`]. The
/// FIFO holds exactly the map's fingerprints, each once — removal goes
/// through [`PlanCache::retain`], which sweeps both.
#[derive(Default)]
struct PlanCache {
    map: HashMap<u64, CachedPlan>,
    fifo: std::collections::VecDeque<u64>,
}

impl PlanCache {
    fn insert(&mut self, fingerprint: u64, plan: CachedPlan) {
        if self.map.insert(fingerprint, plan).is_none() {
            self.fifo.push_back(fingerprint);
        }
        while self.map.len() > MAX_CACHED_PLANS {
            match self.fifo.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
    }

    /// The entry usable for `graph`: fingerprint present, canonical form
    /// equal (collision guard), the stored order still valid for the
    /// graph's edge set, and the plan's statistics epochs equal to the
    /// current ones. Anything less is a miss.
    fn validated(
        &self,
        fingerprint: u64,
        canonical: &str,
        graph: &JoinGraph,
        current_epochs: &[(String, u64)],
    ) -> Option<&CachedPlan> {
        let plan = self.map.get(&fingerprint)?;
        (plan.canonical == canonical
            && plan.stats_epochs == current_epochs
            && validate_plan(graph, &plan.order).is_ok())
        .then_some(plan)
    }

    /// Keep only the plans satisfying `keep`, in the map and the FIFO
    /// alike: a fingerprint left queued after its plan is gone would be
    /// queued a second time by the re-seeding insert, and the stale front
    /// copy would later evict the re-seeded plan.
    fn retain(&mut self, keep: impl Fn(&CachedPlan) -> bool) {
        self.map.retain(|_, plan| keep(plan));
        self.fifo.retain(|f| self.map.contains_key(f));
    }
}

impl std::fmt::Debug for RoxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("RoxEngine")
            .field("documents", &self.catalog().len())
            .field("stats", &stats)
            .finish()
    }
}

/// The serving pool an engine gets unless the caller brings its own: one
/// worker per logical core, with a floor of two.
fn machine_pool() -> Arc<WorkerPool> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Arc::new(WorkerPool::new(cores.max(2)))
}

impl RoxEngine {
    /// An engine over `catalog`, with all caches empty and a worker pool
    /// sized to the machine (logical core count, floor of two).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_workers(catalog, machine_pool())
    }

    /// As [`RoxEngine::new`] with an explicit worker pool — for serving
    /// setups that size the pool themselves or share one pool across
    /// several engines.
    pub fn with_workers(catalog: Arc<Catalog>, workers: Arc<WorkerPool>) -> Self {
        Self::from_store(Arc::new(IndexedStore::new(catalog)), workers, None)
    }

    /// Open a snapshot file (see [`rox_storage::Snapshot`]) and serve
    /// queries straight off it: every stored URI resolves immediately, and
    /// document content plus prebuilt indices are *faulted in on first
    /// touch*, one whole segment per read. The cold path this replaces —
    /// re-parsing and re-shredding the XML, then rebuilding every index —
    /// never runs. `_frames` is ignored; kept for the frozen benchmark.
    ///
    /// [`RoxEngine::invalidate_document`] marks the document's stored
    /// index segments stale before any derived data is dropped, so the
    /// snapshot can never serve an index from a superseded epoch.
    pub fn open_snapshot(path: &Path, _frames: Option<usize>) -> Result<Self, StorageError> {
        let (catalog, source) = Snapshot::open(path, None)?;
        Ok(Self::over_snapshot(catalog, source))
    }

    /// An engine serving `catalog` off the opened snapshot `source`.
    fn over_snapshot(catalog: Arc<Catalog>, source: Arc<SnapshotSource>) -> Self {
        let store = Arc::new(IndexedStore::with_source(
            catalog,
            Arc::<SnapshotSource>::clone(&source),
        ));
        Self::from_store(store, machine_pool(), Some(source))
    }

    /// Persist this engine's catalog — documents, symbol heap, and the
    /// element/value indices (building any missing ones) — as a snapshot
    /// file at `path`, ready for [`RoxEngine::open_snapshot`].
    pub fn save_snapshot(&self, path: &Path) -> Result<SaveReport, StorageError> {
        Snapshot::save(path, &self.store)
    }

    /// The snapshot this engine serves from, if opened via
    /// [`RoxEngine::open_snapshot`].
    pub fn snapshot(&self) -> Option<&Arc<SnapshotSource>> {
        self.snapshot.as_ref()
    }

    /// Attach a durable directory at `dir`: persist the current catalog
    /// as `snapshot.rox`, start the log's two lanes (`wal.rox`,
    /// `wal.1.rox`), and from here on route every
    /// [`RoxEngine::invalidate_document`] through the write-ahead log —
    /// each mutation is acknowledged only after its record is fsynced, and
    /// [`RoxEngine::recover`] on the directory rebuilds this engine's exact
    /// state after any crash.
    pub fn make_durable(&self, dir: &Path) -> Result<SaveReport, StorageError> {
        self.make_durable_with_io(dir, Arc::new(StdWalIo))
    }

    /// As [`RoxEngine::make_durable`] with an explicit I/O layer — the
    /// seam the fault-injection torture suite interposes on (see
    /// [`rox_storage::failpoint`]).
    pub fn make_durable_with_io(
        &self,
        dir: &Path,
        io: Arc<dyn WalIo>,
    ) -> Result<SaveReport, StorageError> {
        std::fs::create_dir_all(dir)?;
        // Sample the symbol high-water mark *before* encoding: the
        // snapshot then holds at least [0, symbols_logged), so a record
        // logging the delta from here can never skip a symbol (it may
        // duplicate one already in the snapshot, which replay dedups).
        let symbols_logged = self.catalog().interner().len();
        let epochs = self.epoch_table();
        let out = recovery::write_checkpoint(dir, &self.store, epochs, 1, &*io, None)?;
        let state = DurableState {
            dir: dir.to_path_buf(),
            io,
            wal: Wal::open_lanes(out.wal_files, 1, 1, out.wal_bytes),
            order: Mutex::new(DurableCursor { symbols_logged }),
        };
        *self.durable.write().expect("durable state") = Some(Arc::new(state));
        Ok(out.report)
    }

    /// Checkpoint the durable directory: persist a fresh snapshot of
    /// the current catalog and rotate the log to a new generation whose
    /// only record is the checkpoint (truncation — every record of the
    /// old generation is baked into the new snapshot). Runs the
    /// tmp-write → verify → rename → dir-fsync state machine of
    /// [`rox_storage::recovery::write_checkpoint`]; a crash anywhere in
    /// it recovers. Errors if the engine has no durable directory. A
    /// checkpoint that fails once it has started replacing the log files
    /// leaves every later durable mutation erroring until
    /// [`RoxEngine::recover`].
    pub fn checkpoint(&self) -> Result<SaveReport, StorageError> {
        let durable = self.durable.read().expect("durable state").clone();
        let Some(d) = durable else {
            return Err(StorageError::Format(
                "checkpoint without a durable directory (call make_durable first)".to_string(),
            ));
        };
        // The order lock stalls durable mutations for the duration: no
        // record with an LSN above the checkpoint's can exist yet.
        let mut cur = d.order.lock().expect("durable order");
        // The symbol high-water mark advances only once the checkpoint
        // is durably on disk: advancing it first and then failing would
        // leave symbols in [old mark, new mark) in neither the old
        // snapshot nor any later record's delta.
        let symbols_logged = self.catalog().interner().len();
        let epochs = self.epoch_table();
        let cp_lsn = d.wal.last_lsn() + 1;
        let out =
            recovery::write_checkpoint(&d.dir, &self.store, epochs, cp_lsn, &*d.io, Some(&d.wal))?;
        d.wal.install_rotated(out.wal_files, cp_lsn, out.wal_bytes);
        cur.symbols_logged = symbols_logged;
        Ok(out.report)
    }

    /// Recover the durable directory at `dir` into a serving engine:
    /// open the newest valid snapshot, replay the WAL tail over it
    /// (torn tail detected and truncated), and return the engine plus
    /// what recovery found. The recovered engine is bit-identical — in
    /// query output, document columns, and epoch table — to the engine
    /// that wrote the directory, as of its last durable LSN, and it is
    /// itself durable: mutations keep appending to the recovered log.
    pub fn recover(dir: &Path) -> Result<(Self, RecoveryReport), StorageError> {
        Self::recover_with_io(dir, None, Arc::new(StdWalIo))
    }

    /// As [`RoxEngine::recover`] with an explicit I/O layer for the
    /// recovered engine's subsequent writes. `_frames` is ignored; kept
    /// for the frozen benchmark.
    pub fn recover_with_io(
        dir: &Path,
        _frames: Option<usize>,
        io: Arc<dyn WalIo>,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let state = recovery::recover(dir, &*io)?;
        let engine = Self::over_snapshot(state.catalog, state.source);
        *engine.doc_epochs.write().expect("doc epochs") = state.epochs.into_iter().collect();
        engine
            .wal_replayed
            .store(state.report.replayed as u64, Ordering::Relaxed);
        let symbols_logged = engine.catalog().interner().len();
        *engine.durable.write().expect("durable state") = Some(Arc::new(DurableState {
            dir: dir.to_path_buf(),
            io,
            wal: state.wal,
            order: Mutex::new(DurableCursor { symbols_logged }),
        }));
        Ok((engine, state.report))
    }

    /// The full `(uri, epoch)` table, sorted by URI.
    fn epoch_table(&self) -> Vec<(String, u64)> {
        let mut epochs: Vec<(String, u64)> = self
            .doc_epochs
            .read()
            .expect("doc epochs")
            .iter()
            .map(|(uri, &e)| (uri.clone(), e))
            .collect();
        epochs.sort();
        epochs
    }

    fn from_store(
        store: Arc<IndexedStore>,
        workers: Arc<WorkerPool>,
        snapshot: Option<Arc<SnapshotSource>>,
    ) -> Self {
        RoxEngine {
            store,
            base_lists: Arc::new(BaseListCache::new()),
            plans: Mutex::new(PlanCache::default()),
            doc_epochs: RwLock::new(HashMap::new()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            workers,
            queued: AtomicUsize::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_served: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_aborted: AtomicU64::new(0),
            snapshot,
            durable: RwLock::new(None),
            wal_replayed: AtomicU64::new(0),
        }
    }

    /// The engine's always-on worker pool.
    pub fn workers(&self) -> &Arc<WorkerPool> {
        &self.workers
    }

    /// Jobs admitted but not yet started (the live admission-queue depth).
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    /// The catalog this engine serves.
    pub fn catalog(&self) -> &Arc<Catalog> {
        self.store.catalog()
    }

    /// The shared document-index store.
    pub fn store(&self) -> &Arc<IndexedStore> {
        &self.store
    }

    /// The shared cross-query base-list cache.
    pub fn base_lists(&self) -> &Arc<BaseListCache> {
        &self.base_lists
    }

    /// A per-query session: a thin [`RoxEnv`] view borrowing this engine's
    /// index store and base-list cache. Cheap enough to create per call —
    /// the only per-session work is resolving the graph's document URIs.
    pub fn session(&self, graph: &JoinGraph) -> Result<RoxEnv, EnvError> {
        RoxEnv::from_shared(Arc::clone(&self.store), Arc::clone(&self.base_lists), graph)
    }

    /// Serve one query: replay the cached plan when
    /// [`RoxOptions::plan_reuse`] allows it and a validated entry exists
    /// (no sampling; the steps of [`crate::run_plan_with_env`]), else run
    /// the full optimizer ([`crate::run_rox`] semantics — the result is
    /// bit-identical to a fresh standalone run) and seed the plan cache
    /// with what it discovered.
    pub fn run(&self, graph: &JoinGraph, options: RoxOptions) -> Result<EngineRun, EnvError> {
        // Serialize the canonical form once per run; the fingerprint, the
        // collision compare, and (on a miss) the seeded entry all reuse it.
        let canonical = graph.canonical_form();
        let fingerprint = rox_joingraph::fingerprint_of(&canonical);
        // Capture the statistics epochs *before* any derived data is
        // touched: a concurrent `invalidate_document` bumps its epoch
        // first, so any invalidation racing this run makes the captured
        // vector stale and the seed/replay below refuses it.
        let epochs = self.capture_epochs(graph);
        let env = self.session(graph)?;
        let order = (options.plan_reuse == PlanReuse::ReuseValidated)
            .then(|| self.lookup_validated(fingerprint, &canonical, graph, &epochs))
            .flatten();
        if let Some(order) = order {
            let report = replay(&env, graph, &order);
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(EngineRun::new(report, fingerprint, true));
        }
        let report = run_rox_with_env(&env, graph, options)?;
        // A miss counts only once the optimizer actually ran, so failed
        // sessions (unknown documents) never skew the hit rate; it seeds
        // the cache, versioned against the epochs captured at run start.
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        self.insert_plan(fingerprint, canonical, graph, &report, epochs);
        Ok(EngineRun::new(report, fingerprint, false))
    }

    /// Serve a batch of queries concurrently on the engine's worker pool,
    /// with a concurrency window of the pool's worker count, all against
    /// this engine's shared caches. Results come back in job order; each
    /// job is exactly one [`RoxEngine::run`].
    ///
    /// The batch is closed-loop, so admission is resolved up front: all
    /// jobs arrive at once, a window's worth of them start immediately, the
    /// next
    /// [`RoxOptions::max_queued`] wait their turn, and any job deeper than
    /// that is rejected with [`ServeError::Overloaded`] — deterministic in
    /// the job index, exactly what an open-loop submitter racing a full
    /// queue would see. (For live open-loop traffic use
    /// [`RoxEngine::try_submit`].)
    pub fn run_many(
        &self,
        jobs: &[(&JoinGraph, RoxOptions)],
    ) -> Vec<Result<EngineRun, ServeError>> {
        let window = self.workers.workers();
        self.jobs_submitted
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.workers.par_map(window, jobs.len(), |i| {
            let (graph, options) = jobs[i];
            if let Some(max) = options.max_queued {
                if i >= window + max {
                    self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        queued: max,
                        max_queued: max,
                    });
                }
            }
            let run = self.run(graph, options).map_err(ServeError::Env);
            self.jobs_served.fetch_add(1, Ordering::Relaxed);
            run
        })
    }

    /// Submit one query to the serving pool behind the bounded admission
    /// queue, without blocking: returns an [`EngineTicket`] immediately,
    /// or [`ServeError::Overloaded`] when
    /// [`RoxOptions::max_queued`] jobs are already waiting (backpressure —
    /// the caller sheds load instead of buffering unboundedly). The
    /// admission check never blocks and never occupies a worker.
    ///
    /// The job owns a clone of `graph`; the ticket resolves when a worker
    /// finishes the run (or with [`ServeError::Aborted`] if the job
    /// panics or the pool shuts down first).
    pub fn try_submit(
        self: &Arc<Self>,
        graph: &JoinGraph,
        options: RoxOptions,
    ) -> Result<EngineTicket, ServeError> {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = options.max_queued {
            // Claim a queue slot only below the bound (CAS loop — a plain
            // increment could overshoot under contention).
            let mut depth = self.queued.load(Ordering::Acquire);
            loop {
                if depth >= max {
                    self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        queued: depth,
                        max_queued: max,
                    });
                }
                match self.queued.compare_exchange_weak(
                    depth,
                    depth + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(current) => depth = current,
                }
            }
        } else {
            self.queued.fetch_add(1, Ordering::AcqRel);
        }
        let inner = Arc::new(TicketInner {
            state: Mutex::new(TicketState::Pending),
            cv: Condvar::new(),
        });
        let mut job = JobGuard {
            engine: Arc::clone(self),
            inner: Arc::clone(&inner),
            dequeued: false,
            finished: false,
        };
        let graph = graph.clone();
        self.workers.execute(move || {
            job.dequeue();
            let result = job.engine.run(&graph, options).map_err(ServeError::Env);
            job.finish(result);
        });
        Ok(EngineTicket { inner })
    }

    /// The cached plan for `graph`, if a validated one exists.
    pub fn cached_plan(&self, graph: &JoinGraph) -> Option<CachedPlan> {
        let canonical = graph.canonical_form();
        let fingerprint = rox_joingraph::fingerprint_of(&canonical);
        let epochs = self.capture_epochs(graph);
        let plans = self.plans.lock().expect("plan cache");
        plans
            .validated(fingerprint, &canonical, graph, &epochs)
            .cloned()
    }

    /// Cache-effectiveness counters (cheap; all atomics).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            index_builds: self.store.build_count(),
            base_list_builds: self.base_lists.build_count(),
            base_list_hits: self.base_lists.hit_count(),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_demotions: 0,
            cached_plans: self.plans.lock().expect("plan cache").map.len(),
            scratch: ScratchStats::default(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_served: self.jobs_served.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_aborted: self.jobs_aborted.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Acquire),
            pages: self
                .snapshot
                .as_ref()
                .map(|s| s.pool_stats())
                .unwrap_or_default(),
            snapshot_pages: self
                .snapshot
                .as_ref()
                .map(|s| s.segment_count())
                .unwrap_or(0),
            storage_loads: self.store.load_count(),
            wal: self
                .durable
                .read()
                .expect("durable state")
                .as_ref()
                .map(|d| d.wal.stats())
                .unwrap_or_default(),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
        }
    }

    /// The current statistics epoch of `uri` (0 until the first
    /// invalidation). Plans record the epochs of every document they touch
    /// and are refused once any recorded epoch is stale.
    pub fn doc_epoch(&self, uri: &str) -> u64 {
        self.doc_epochs
            .read()
            .expect("doc epochs")
            .get(uri)
            .copied()
            .unwrap_or(0)
    }

    /// The `(uri, epoch)` vector for every document `graph` touches,
    /// sorted and deduplicated by URI.
    fn capture_epochs(&self, graph: &JoinGraph) -> Vec<(String, u64)> {
        let mut uris: Vec<String> = graph.vertices().iter().map(|v| v.doc_uri.clone()).collect();
        uris.sort();
        uris.dedup();
        let epochs = self.doc_epochs.read().expect("doc epochs");
        uris.into_iter()
            .map(|uri| {
                let epoch = epochs.get(&uri).copied().unwrap_or(0);
                (uri, epoch)
            })
            .collect()
    }

    /// Invalidate everything derived from document `uri` after a reload —
    /// the one way a content change reaches the engine: its statistics
    /// epoch (bumped **first** — the versioning rule), its indexes, its
    /// base lists, and every cached plan touching it, so the next run
    /// re-optimizes on the new data. (A stale plan would still produce
    /// correct output — any edge order does — but its order and operator
    /// choices were discovered on the old data.)
    ///
    /// The epoch bump strictly precedes every drop, so any plan lookup or
    /// seed that captured its epochs before this call observes the
    /// mismatch and refuses — a replay racing this invalidation can never
    /// serve, nor re-insert, a plan versioned against the dropped
    /// statistics.
    /// On a durable engine this is [`RoxEngine::try_invalidate_document`]
    /// and panics on a storage failure (the log is poisoned and every
    /// further durable mutation would error anyway); serving setups that
    /// want the error use the `try_` form directly.
    pub fn invalidate_document(&self, uri: &str) {
        self.try_invalidate_document(uri)
            .unwrap_or_else(|e| panic!("durable invalidate of {uri:?} failed: {e}"));
    }

    /// As [`RoxEngine::invalidate_document`], but on a durable engine
    /// the mutation is written ahead: an `epoch-bump` or
    /// `document-invalidate` record (the latter carrying the resident
    /// content and the interner delta) is appended and fsynced
    /// **before** any in-memory state changes beyond the epoch bump.
    /// Returns the record's LSN (`None` without a durable directory) —
    /// when this returns `Ok`, the mutation survives any crash.
    pub fn try_invalidate_document(&self, uri: &str) -> Result<Option<Lsn>, StorageError> {
        let durable = self.durable.read().expect("durable state").clone();
        let Some(d) = durable else {
            self.bump_epoch(uri);
            self.finish_invalidate(uri);
            return Ok(None);
        };
        let lsn = {
            let mut cur = d.order.lock().expect("durable order");
            let epoch = self.bump_epoch(uri);
            let record = match self
                .catalog()
                .resolve(uri)
                .and_then(|id| self.catalog().get(id))
            {
                Some(doc) => WalRecord::DocInvalidate {
                    uri: uri.to_string(),
                    epoch,
                    put: self.capture_put(&doc, &mut cur),
                },
                // No resident content to log: only the epoch moves.
                None => WalRecord::EpochBump {
                    uri: uri.to_string(),
                    epoch,
                },
            };
            d.wal.append(&record)?
        };
        // The commit is the acknowledgement point: after this line the
        // mutation and every earlier one are durable, whatever happens
        // next.
        d.wal.commit(lsn)?;
        self.finish_invalidate(uri);
        Ok(Some(lsn))
    }

    /// Bump `uri`'s statistics epoch (strictly before any derived data
    /// is dropped — the versioning rule).
    fn bump_epoch(&self, uri: &str) -> u64 {
        let mut epochs = self.doc_epochs.write().expect("doc epochs");
        let e = epochs.entry(uri.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// The in-memory half of an invalidation: index and base-list drops,
    /// plan sweep. The epoch was already bumped.
    fn finish_invalidate(&self, uri: &str) {
        self.drop_derived(uri);
        self.plans
            .lock()
            .expect("plan cache")
            .retain(|p| !p.doc_uris.iter().any(|u| u == uri));
    }

    /// Drop everything derived from `uri`'s old content. The store goes
    /// first, and it marks the backing snapshot's index segments for the
    /// document stale *before* dropping its own cells — persistent state
    /// from the old content must be unservable before the in-memory
    /// derived data is dropped and can be refilled.
    fn drop_derived(&self, uri: &str) {
        if let Some(id) = self.catalog().resolve(uri) {
            self.store.invalidate(id);
            self.base_lists.invalidate_doc(id);
        }
    }

    /// Capture `doc`'s content for the log along with the interner
    /// delta since the last logged record (under the order lock, so the
    /// delta ranges of successive records tile the symbol space).
    fn capture_put(&self, doc: &Arc<rox_xmldb::Document>, cur: &mut DurableCursor) -> DocPut {
        let interner = self.catalog().interner();
        let base = cur.symbols_logged;
        let new_symbols = interner.dump_from(base);
        cur.symbols_logged = base + new_symbols.len();
        DocPut::from_document(doc, base as u32, new_symbols)
    }

    /// The order of the cache entry usable for `graph` (see
    /// [`PlanCache::validated`]); the critical section clones no strings.
    fn lookup_validated(
        &self,
        fingerprint: u64,
        canonical: &str,
        graph: &JoinGraph,
        current_epochs: &[(String, u64)],
    ) -> Option<Vec<EdgeId>> {
        let plans = self.plans.lock().expect("plan cache");
        let plan = plans.validated(fingerprint, canonical, graph, current_epochs)?;
        Some(plan.order.clone())
    }

    /// Seed the plan cache with the edge order `report`'s run discovered.
    /// The plan is versioned against
    /// `epochs` (captured at run start): if any of those epochs has
    /// advanced since — a concurrent `invalidate_document` — the insert is
    /// refused, because the plan was discovered on statistics that no
    /// longer exist. The epoch re-read happens *inside* the plan-cache
    /// critical section, and the invalidator bumps epochs strictly before
    /// its retain-sweep takes the same lock, so every interleaving either
    /// refuses the insert here or sweeps the entry there.
    fn insert_plan(
        &self,
        fingerprint: u64,
        canonical: String,
        graph: &JoinGraph,
        report: &RoxReport,
        epochs: Vec<(String, u64)>,
    ) {
        let mut doc_uris: Vec<String> =
            graph.vertices().iter().map(|v| v.doc_uri.clone()).collect();
        doc_uris.sort();
        doc_uris.dedup();
        let mut plans = self.plans.lock().expect("plan cache");
        {
            let current = self.doc_epochs.read().expect("doc epochs");
            let stale = epochs
                .iter()
                .any(|(uri, epoch)| current.get(uri).copied().unwrap_or(0) != *epoch);
            if stale {
                return;
            }
        }
        plans.insert(
            fingerprint,
            CachedPlan {
                order: report.executed_order.clone(),
                stats_epochs: epochs,
                canonical,
                doc_uris,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_rox;
    use rox_joingraph::compile_query;

    const SITE: &str = r#"<site><auction><cheap/><bidder><personref person="p1"/></bidder></auction><auction><bidder><personref person="p2"/></bidder><bidder><personref person="p1"/></bidder></auction><person id="p1"/><person id="p2"/></site>"#;

    const Q_STEP: &str = r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#;
    const Q_JOIN: &str = r#"for $r in doc("d.xml")//personref, $p in doc("d.xml")//person
                            where $r/@person = $p/@id return $r"#;

    fn engine() -> RoxEngine {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", SITE).unwrap();
        RoxEngine::new(cat)
    }

    fn engine_with_workers(workers: usize) -> RoxEngine {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", SITE).unwrap();
        RoxEngine::with_workers(cat, Arc::new(WorkerPool::new(workers)))
    }

    fn reuse() -> RoxOptions {
        RoxOptions {
            plan_reuse: PlanReuse::ReuseValidated,
            ..Default::default()
        }
    }

    #[test]
    fn engine_run_matches_standalone_run_rox() {
        let engine = engine();
        let g = compile_query(Q_JOIN).unwrap();
        let standalone = run_rox(Arc::clone(engine.catalog()), &g, RoxOptions::default()).unwrap();
        let served = engine.run(&g, RoxOptions::default()).unwrap();
        assert_eq!(served.output, standalone.output);
        assert_eq!(served.executed_order, standalone.executed_order);
        assert_eq!(served.edge_log, standalone.edge_log);
        assert_eq!(served.exec_cost, standalone.exec_cost);
        assert_eq!(served.sample_cost, standalone.sample_cost);
    }

    #[test]
    fn warm_identical_query_does_zero_redundant_work() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        assert!(!cold.plan_cache_hit);
        let after_cold = engine.stats();
        assert!(after_cold.index_builds > 0);
        assert!(after_cold.base_list_builds > 0);

        let warm = engine.run(&g, reuse()).unwrap();
        let after_warm = engine.stats();
        // The acceptance bar: no index build, no base-list rebuild, and
        // no sampling at all on the warm path.
        assert_eq!(after_warm.index_builds, after_cold.index_builds);
        assert_eq!(after_warm.base_list_builds, after_cold.base_list_builds);
        assert!(warm.plan_cache_hit);
        assert_eq!(warm.sample_cost.total(), 0);
        assert_eq!(warm.sample_wall, Duration::ZERO);
        assert!(warm.spot_checks.is_empty());
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.executed_order, cold.executed_order);
        assert_eq!(after_warm.plan_hits, 1);
        assert_eq!(after_warm.plan_demotions, 0);
        // Either way a run was answered, its two clocks are disjoint
        // slices of its total.
        assert!(cold.sample_wall > Duration::ZERO);
        for run in [&cold, &warm] {
            assert!(run.exec_wall > Duration::ZERO);
            assert!(run.exec_wall + run.sample_wall <= run.total_wall);
        }
    }

    #[test]
    fn replay_reproduces_operator_choices() {
        let engine = engine();
        let g = compile_query(Q_JOIN).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        let warm = engine.run(&g, reuse()).unwrap();
        assert!(warm.plan_cache_hit);
        assert_eq!(warm.edge_log, cold.edge_log);
        assert_eq!(engine.cached_plan(&g).unwrap().order, warm.executed_order);
    }

    #[test]
    fn always_optimize_never_replays_but_still_seeds() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        let r1 = engine.run(&g, RoxOptions::default()).unwrap();
        let r2 = engine.run(&g, RoxOptions::default()).unwrap();
        assert!(!r1.plan_cache_hit && !r2.plan_cache_hit);
        assert!(r2.sample_cost.total() > 0, "AlwaysOptimize must sample");
        let stats = engine.stats();
        assert_eq!(stats.plan_hits, 0);
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.cached_plans, 1);
        // The seeded plan serves a later ReuseValidated run.
        let r3 = engine.run(&g, reuse()).unwrap();
        assert!(r3.plan_cache_hit);
        assert_eq!(r3.output, r1.output);
    }

    #[test]
    fn different_fingerprints_do_not_cross_hit() {
        let engine = engine();
        let g1 = compile_query(Q_STEP).unwrap();
        let g2 = compile_query(Q_JOIN).unwrap();
        engine.run(&g1, reuse()).unwrap();
        let r2 = engine.run(&g2, reuse()).unwrap();
        assert!(!r2.plan_cache_hit, "distinct query must not hit");
        assert_eq!(engine.stats().cached_plans, 2);
    }

    #[test]
    fn invalidate_document_drops_plans_and_rebuilds() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        // Reload with one more bidder; stale caches must not survive.
        let reloaded = SITE.replace(
            "<auction><cheap/>",
            "<auction><cheap/><bidder><personref person=\"p9\"/></bidder>",
        );
        engine.catalog().load_str("d.xml", &reloaded).unwrap();
        engine.invalidate_document("d.xml");
        assert_eq!(engine.stats().cached_plans, 0);
        let fresh = engine.run(&g, reuse()).unwrap();
        assert!(!fresh.plan_cache_hit);
        assert_eq!(fresh.output.len(), cold.output.len() + 1);
    }

    /// Invalidate → re-run is `durable_mutate`'s steady state: the sweep
    /// must take a fingerprint out of the FIFO along with its plan, or
    /// every cycle queues one more copy and a stale front copy later
    /// evicts a freshly re-seeded plan.
    #[test]
    fn invalidation_sweeps_the_plan_fifo_with_the_map() {
        let engine = engine();
        let g1 = compile_query(Q_STEP).unwrap();
        let g2 = compile_query(Q_JOIN).unwrap();
        for _ in 0..4 * MAX_CACHED_PLANS {
            engine.run(&g1, RoxOptions::default()).unwrap();
            engine.run(&g2, RoxOptions::default()).unwrap();
            engine.invalidate_document("d.xml");
            let plans = engine.plans.lock().unwrap();
            assert!(plans.fifo.len() <= plans.map.len(), "{}", plans.fifo.len());
        }
        engine.run(&g1, RoxOptions::default()).unwrap();
        engine.run(&g2, RoxOptions::default()).unwrap();
        {
            let plans = engine.plans.lock().unwrap();
            assert_eq!((plans.map.len(), plans.fifo.len()), (2, 2));
        }
        assert!(engine.run(&g2, reuse()).unwrap().plan_cache_hit);
        assert!(engine.run(&g1, reuse()).unwrap().plan_cache_hit);
    }

    #[test]
    fn run_many_serves_a_mixed_batch() {
        let engine = engine_with_workers(4);
        let g1 = compile_query(Q_STEP).unwrap();
        let g2 = compile_query(Q_JOIN).unwrap();
        // Seed both shapes deterministically — a concurrent cold batch may
        // race several optimizing runs per shape, which would make any
        // hit-count assertion scheduling-dependent.
        engine.run(&g1, reuse()).unwrap();
        engine.run(&g2, reuse()).unwrap();
        let jobs: Vec<(&JoinGraph, RoxOptions)> = (0..8)
            .map(|i| (if i % 2 == 0 { &g1 } else { &g2 }, reuse()))
            .collect();
        let runs = engine.run_many(&jobs);
        assert_eq!(runs.len(), 8);
        let expect1 = run_rox(Arc::clone(engine.catalog()), &g1, RoxOptions::default()).unwrap();
        let expect2 = run_rox(Arc::clone(engine.catalog()), &g2, RoxOptions::default()).unwrap();
        for (i, run) in runs.into_iter().enumerate() {
            let run = run.unwrap();
            let expect = if i % 2 == 0 { &expect1 } else { &expect2 };
            assert_eq!(run.output, expect.output, "job {i}");
            assert!(run.plan_cache_hit, "warm job {i} missed the plan cache");
        }
        let stats = engine.stats();
        assert_eq!(stats.plan_hits, 8, "every warm job must replay: {stats:?}");
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.jobs_submitted, 8);
        assert_eq!(stats.jobs_served, 8);
        assert_eq!(stats.jobs_rejected, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn try_submit_serves_tickets_and_counts_reconcile() {
        let engine = Arc::new(engine());
        let g = compile_query(Q_JOIN).unwrap();
        let expect = engine.run(&g, RoxOptions::default()).unwrap();
        let tickets: Vec<EngineTicket> = (0..6)
            .map(|_| engine.try_submit(&g, RoxOptions::default()).unwrap())
            .collect();
        for ticket in tickets {
            let outcome = ticket.wait();
            assert_eq!(outcome.result.unwrap().output, expect.output);
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_served, 6);
        assert_eq!(stats.jobs_rejected, 0);
        assert_eq!(stats.jobs_aborted, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    /// The bounded admission queue: with the lone worker pinned, the first
    /// `max_queued` submissions are admitted and the next is rejected with
    /// `Overloaded` — immediately, on the submitter's thread, without ever
    /// blocking or occupying a worker. After the worker is released every
    /// admitted ticket resolves and the counters reconcile.
    #[test]
    fn saturated_queue_rejects_with_overloaded() {
        let engine = Arc::new(engine_with_workers(1));
        let g = compile_query(Q_STEP).unwrap();

        // Pin the single worker on a gate so admitted jobs pile up queued.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        engine.workers().execute(move || {
            let (lock, cv) = &*g2;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });

        let options = RoxOptions {
            max_queued: Some(2),
            ..Default::default()
        };
        let t1 = engine.try_submit(&g, options).unwrap();
        let t2 = engine.try_submit(&g, options).unwrap();
        assert_eq!(engine.queue_depth(), 2);
        match engine.try_submit(&g, options) {
            Err(ServeError::Overloaded { queued, max_queued }) => {
                assert_eq!(queued, 2);
                assert_eq!(max_queued, 2);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| "ticket")),
        }

        // Release the worker; both admitted jobs must resolve.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(t1.wait().result.is_ok());
        assert!(t2.wait().result.is_ok());
        let stats = engine.stats();
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.jobs_served, 2);
        assert_eq!(stats.jobs_rejected, 1);
        assert_eq!(stats.jobs_aborted, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(
            stats.jobs_submitted,
            stats.jobs_served + stats.jobs_rejected + stats.jobs_aborted
        );
    }

    /// `run_many`'s closed-loop admission rule is deterministic in the job
    /// index: with a window of `w` pool workers and a bound of `m`, exactly
    /// the jobs deeper than `w + m` come back `Overloaded`.
    #[test]
    fn run_many_admission_is_deterministic() {
        let engine = engine_with_workers(2);
        let g = compile_query(Q_STEP).unwrap();
        engine.run(&g, reuse()).unwrap();
        let options = RoxOptions {
            max_queued: Some(1),
            ..reuse()
        };
        let jobs: Vec<(&JoinGraph, RoxOptions)> = (0..6).map(|_| (&g, options)).collect();
        // Two workers over 6 jobs → a window of 2, so jobs 0..3 are
        // admitted (2 running + 1 queued) and 3..6 are rejected.
        let runs = engine.run_many(&jobs);
        for (i, run) in runs.iter().enumerate() {
            if i < 3 {
                assert!(run.is_ok(), "job {i} should be admitted");
            } else {
                assert!(
                    matches!(run, Err(ServeError::Overloaded { .. })),
                    "job {i} should be rejected"
                );
            }
        }
        let stats = engine.stats();
        // The seeding run() does not go through the serving path.
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_served, 3);
        assert_eq!(stats.jobs_rejected, 3);
    }

    /// A query failure inside an admitted job comes back through the
    /// ticket as `ServeError::Env`, and still counts as served.
    #[test]
    fn ticket_surfaces_query_errors() {
        let engine = Arc::new(engine());
        let g = compile_query(r#"for $a in doc("missing.xml")//a return $a"#).unwrap();
        let outcome = engine.try_submit(&g, RoxOptions::default()).unwrap().wait();
        assert!(matches!(outcome.result, Err(ServeError::Env(_))));
        let stats = engine.stats();
        assert_eq!(stats.jobs_served, 1);
        assert_eq!(stats.jobs_rejected, 0);
    }

    #[test]
    fn invalidate_document_bumps_the_stats_epoch_first() {
        let engine = engine();
        assert_eq!(engine.doc_epoch("d.xml"), 0);
        engine.invalidate_document("d.xml");
        assert_eq!(engine.doc_epoch("d.xml"), 1);
        engine.invalidate_document("d.xml");
        assert_eq!(engine.doc_epoch("d.xml"), 2);
        // Unknown documents have epoch 0 and bumping them is harmless.
        assert_eq!(engine.doc_epoch("other.xml"), 0);
    }

    #[test]
    fn unknown_document_surfaces_as_env_error() {
        let engine = engine();
        let g = compile_query(r#"for $i in doc("nope.xml")//x return $i"#).unwrap();
        let e = engine.run(&g, reuse()).unwrap_err();
        assert!(e.message.contains("nope.xml"));
    }
}
