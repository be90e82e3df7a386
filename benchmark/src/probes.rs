//! Fixed layer probes: small timed calls into one layer's public
//! functions, run once after the window on the workload's own data. They
//! are micro-measurements, not end-to-end numbers — each says which
//! end-to-end metric it should move in the README.

use crate::gen::stream;
use crate::metrics::Values;
use crate::stats::median;
use rox_core::{RoxEngine, RoxEnv};
use rox_index::sample_sorted;
use rox_joingraph::{EdgeKind, JoinGraph, VertexId};
use rox_ops::{hash_value_join, index_value_join, step_join, Axis, Cost};
use rox_par::WorkerPool;
use rox_storage::wal::{DocPut, WalRecord};
use rox_storage::{StdWalIo, Wal, WalIo};
use rox_xmldb::{NodeKind, Pre};
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Repeats of each operator probe (the median is reported).
const OP_REPEATS: usize = 15;

/// Repeats of the cheap dispatch probes.
const DISPATCH_REPEATS: usize = 2000;

/// Records appended by the WAL probe.
const WAL_RECORDS: usize = 1000;

/// The queries whose vertices and edges supply a workload's probe inputs.
pub struct ProbeQueries {
    /// A query with a child step between its two largest node lists.
    pub child_step: String,
    /// A query with a descendant step between them.
    pub descendant_step: String,
    /// A query with a value equi-join between its two largest value lists.
    pub value_join: String,
}

fn median_us(mut f: impl FnMut(), repeats: usize) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The endpoints of the first executable edge of `graph` matching `want`.
fn edge_endpoints(
    graph: &JoinGraph,
    want: impl Fn(&EdgeKind) -> bool,
) -> Option<(VertexId, VertexId)> {
    graph
        .edges()
        .iter()
        .find(|e| !e.redundant && want(&e.kind))
        .map(|e| (e.v1, e.v2))
}

/// One staircase probe: the step edge of `query` executed in full over
/// its endpoints' base lists, along `axis` (context and candidates swap
/// for the reverse axis).
fn staircase_us(engine: &RoxEngine, query: &str, edge_axis: Axis, run_axis: Axis) -> f64 {
    let graph = rox_joingraph::compile_query(query).expect("probe query compiles");
    let env = engine.session(&graph).expect("probe session");
    let (v1, v2) = edge_endpoints(&graph, |k| *k == EdgeKind::Step(edge_axis))
        .expect("probe query has the step edge");
    let (ctx_v, cand_v) = if run_axis == edge_axis {
        (v1, v2)
    } else {
        (v2, v1)
    };
    let doc = env.doc(ctx_v);
    let ctx = env.base_list(&graph, ctx_v);
    let cands = env.base_list(&graph, cand_v);
    median_us(
        || {
            let mut cost = Cost::new();
            black_box(step_join(&doc, run_axis, &ctx, &cands, None, &mut cost));
        },
        OP_REPEATS,
    )
}

struct ValueJoinInputs {
    env: RoxEnv,
    graph: JoinGraph,
    outer_v: VertexId,
    inner_v: VertexId,
}

fn value_join_inputs(engine: &RoxEngine, query: &str) -> ValueJoinInputs {
    let graph = rox_joingraph::compile_query(query).expect("probe query compiles");
    let env = engine.session(&graph).expect("probe session");
    let (v1, v2) = edge_endpoints(&graph, |k| matches!(k, EdgeKind::EquiJoin { .. }))
        .expect("probe query has an equi-join edge");
    // Probe from the smaller side into the larger side's index, as the
    // kernel's cost function would.
    let (outer_v, inner_v) = if env.base_count(&graph, v1) <= env.base_count(&graph, v2) {
        (v1, v2)
    } else {
        (v2, v1)
    };
    ValueJoinInputs {
        env,
        graph,
        outer_v,
        inner_v,
    }
}

/// Run the operator, index and dispatch probes every workload shares and
/// record them in `layer`.
pub fn run_common(engine: &RoxEngine, queries: &ProbeQueries, seed: u64, layer: &mut Values) {
    layer.set(
        "ops.staircase.child_us",
        staircase_us(engine, &queries.child_step, Axis::Child, Axis::Child),
    );
    layer.set(
        "ops.staircase.desc_us",
        staircase_us(
            engine,
            &queries.descendant_step,
            Axis::Descendant,
            Axis::Descendant,
        ),
    );
    layer.set(
        "ops.staircase.anc_us",
        staircase_us(
            engine,
            &queries.descendant_step,
            Axis::Descendant,
            Axis::Ancestor,
        ),
    );

    let vj = value_join_inputs(engine, &queries.value_join);
    let (outer_doc, inner_doc) = (vj.env.doc(vj.outer_v), vj.env.doc(vj.inner_v));
    let outer = vj.env.base_list(&vj.graph, vj.outer_v);
    let inner = vj.env.base_list(&vj.graph, vj.inner_v);
    let inner_indexes = vj.env.store().indexes(vj.env.doc_id(vj.inner_v));
    let inner_kind = RoxEnv::vertex_kind(&vj.graph.vertex(vj.inner_v).label);
    layer.set(
        "ops.valjoin.hash_us",
        median_us(
            || {
                let mut cost = Cost::new();
                black_box(hash_value_join(
                    &outer_doc, &outer, &inner_doc, &inner, &mut cost,
                ));
            },
            OP_REPEATS,
        ),
    );
    layer.set(
        "ops.valjoin.index_nl_us",
        median_us(
            || {
                let mut cost = Cost::new();
                black_box(index_value_join(
                    &outer_doc,
                    &outer,
                    &inner_indexes.value,
                    inner_kind,
                    Some(&inner),
                    None,
                    &mut cost,
                ));
            },
            OP_REPEATS,
        ),
    );

    // Index layer: one τ=100 sample of the largest list, and one value
    // probe per outer node.
    let largest: &[Pre] = if inner.len() >= outer.len() {
        &inner
    } else {
        &outer
    };
    let mut rng = stream(seed, 900);
    layer.set(
        "index.sample_us",
        median_us(
            || {
                black_box(sample_sorted(&mut rng, largest, 100));
            },
            DISPATCH_REPEATS,
        ),
    );
    let per_pass_us = median_us(
        || {
            for &p in outer.iter() {
                let sym = outer_doc.value(p);
                let hits = match inner_kind {
                    NodeKind::Attribute => inner_indexes.value.attr_eq(sym),
                    _ => inner_indexes.value.text_eq(sym),
                };
                black_box(hits.len());
            }
        },
        OP_REPEATS,
    );
    layer.set(
        "index.value_probe_ns",
        per_pass_us * 1e3 / (outer.len() as f64).max(1.0),
    );

    let (dispatch_us, par_map_us) = dispatch_probes(engine.workers());
    layer.set("par.dispatch_us", dispatch_us);
    layer.set("par.par_map_us", par_map_us);
}

/// `(execute submit → job start, par_map of two trivial tasks)`, medians
/// in microseconds.
fn dispatch_probes(pool: &WorkerPool) -> (f64, f64) {
    let (tx, rx) = mpsc::channel::<Instant>();
    let dispatch: Vec<f64> = (0..DISPATCH_REPEATS)
        .map(|_| {
            let tx = tx.clone();
            let submitted = Instant::now();
            pool.execute(move || {
                tx.send(Instant::now()).ok();
            });
            let started = rx.recv().expect("probe job ran");
            started.saturating_duration_since(submitted).as_secs_f64() * 1e6
        })
        .collect();
    let par_map = median_us(
        || {
            black_box(pool.par_map(2, 2, |i| i));
        },
        DISPATCH_REPEATS,
    );
    (median(&dispatch), par_map)
}

/// `Wal::append` + `commit` of one record the size the workload logs (a
/// document-invalidate of `uri` as it stands in `engine`), on a scratch
/// log under `scratch`; median microseconds per acknowledged record.
pub fn wal_append_commit_us(engine: &RoxEngine, uri: &str, scratch: &Path) -> f64 {
    let id = engine.catalog().resolve(uri).expect("probe document");
    let doc = engine.store().doc(id);
    let record = WalRecord::DocInvalidate {
        uri: uri.to_string(),
        epoch: 1,
        put: DocPut::from_document(&doc, 0, Vec::new()),
    };
    let path = scratch.join("probe-wal.rox");
    let file = StdWalIo.create(&path).expect("scratch log");
    let wal = Wal::open(file, 0, 0, 0);
    let us = median_us(
        || {
            let lsn = wal.append(&record).expect("probe append");
            wal.commit(lsn).expect("probe commit");
        },
        WAL_RECORDS,
    );
    drop(wal);
    std::fs::remove_file(&path).ok();
    us
}
