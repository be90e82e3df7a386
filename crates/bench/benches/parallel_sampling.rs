//! `parallel_sampling` bench: the candidate-weighting phase of Algorithm 1
//! (every unexecuted edge weighed by an independent cut-off sampled run)
//! at 1, 2, and 4 worker threads over the XMark workload, plus the
//! staircase join's morsel-parallel arm on its own.
//!
//! The sequential/parallel runs weigh identical state and are verified to
//! produce identical weights before timing. Expect ~1x on single-core
//! containers and >=1.5x at 4 threads on real multi-core hardware (the
//! fan-out is embarrassingly parallel; see `fig_scaling_threads` for the
//! full scaling table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rox_bench::scaling_threads::SamplingWorkload;
use rox_bench::xmark_catalog;
use rox_core::{Parallelism, RoxEnv};
use rox_datagen::{xmark_query, XmarkConfig};
use rox_ops::{step_join, step_join_kernel, Axis, Cost, StepScratch};
use std::hint::black_box;
use std::sync::Arc;

const TAU: usize = 4096;

fn bench_candidate_sampling(c: &mut Criterion) {
    let catalog = xmark_catalog(&XmarkConfig {
        persons: 3000,
        items: 2500,
        auctions: 2500,
        ..XmarkConfig::default()
    });
    let graph = rox_joingraph::compile_query(&xmark_query("<", 145.0)).unwrap();
    let env = RoxEnv::new(Arc::clone(&catalog), &graph).unwrap();
    let workload = SamplingWorkload::prepare(&env, &graph, TAU, 42);
    let (baseline, _) = workload.weigh(Parallelism::Sequential);

    let mut group = c.benchmark_group("parallel_sampling");
    group.sample_size(10);
    for par in [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let (w, _) = workload.weigh(par);
        assert_eq!(w, baseline, "parallel weights must match sequential");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{}", par.threads())),
            &par,
            |b, &par| b.iter(|| black_box(workload.weigh(par))),
        );
    }
    group.finish();
}

fn bench_partitioned_step_join(c: &mut Criterion) {
    let catalog = xmark_catalog(&XmarkConfig {
        persons: 4000,
        items: 3000,
        auctions: 3000,
        ..XmarkConfig::default()
    });
    let doc = catalog.doc(rox_xmldb::DocId(0));
    let idx = rox_index::ElementIndex::build(&doc);
    let auctions = idx
        .lookup(doc.interner().get("open_auction").unwrap())
        .to_vec();
    let bidders = idx.lookup(doc.interner().get("bidder").unwrap()).to_vec();
    let mut seq_cost = Cost::new();
    let seq = step_join(
        &doc,
        Axis::Descendant,
        &auctions,
        &bidders,
        None,
        &mut seq_cost,
    );

    let mut group = c.benchmark_group("partitioned_step_join");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(step_join(
                &doc,
                Axis::Descendant,
                &auctions,
                &bidders,
                None,
                &mut Cost::new(),
            ))
        })
    });
    for threads in [2usize, 4] {
        let run = |cost: &mut Cost| {
            let scratch = StepScratch {
                par: Parallelism::Threads(threads),
                ..StepScratch::default()
            };
            step_join_kernel(
                &doc,
                Axis::Descendant,
                &auctions,
                &bidders,
                None,
                scratch,
                cost,
            )
        };
        let mut cost = Cost::new();
        assert_eq!(
            run(&mut cost).pairs,
            seq.pairs,
            "morsel-parallel join must match sequential"
        );
        assert_eq!(cost, seq_cost);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("threads_{threads}")),
            &threads,
            |b, _| b.iter(|| black_box(run(&mut Cost::new()))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_candidate_sampling, bench_partitioned_step_join
}
criterion_main!(benches);
