//! Chain sampling (Algorithm 2): exploring multiple operators ahead to
//! escape local minima caused by correlated data.
//!
//! Starting from the minimum-weight edge, path segments are extended
//! breadth-first — one edge per path per round — by feeding the output
//! sample of one sampled operator into the next (`I(p′) =
//! cutoff(exec(e, I(p), T(v′)))`). Each segment tracks
//!
//! * `cost(p)` — estimated combined cardinality of all its intermediates
//!   at full scale, and
//! * `sf(p)` — its cumulative join hit ratio (output per initial sample
//!   tuple).
//!
//! After every round the *stopping condition*
//! `cost(pᵢ) + sf(pᵢ)·cost(pⱼ) ≤ cost(pⱼ)` is checked pairwise: when
//! executing pᵢ first provably makes every alternative cheaper than that
//! alternative alone, exploration stops and pᵢ is executed. The cut-off
//! grows by τ per round to mitigate the front bias of cut-off sampling.

use crate::estimate::sampled_edge_exec;
use crate::state::EvalState;
use rand::rngs::StdRng;
use rox_index::sample_sorted;
use rox_joingraph::{EdgeId, VertexId};
use rox_ops::{Cost, EdgeOpKind};
use rox_xmldb::Pre;

/// A path segment being explored.
#[derive(Debug, Clone)]
struct PathSeg {
    edges: Vec<EdgeId>,
    /// Physical operator the kernel chose per edge of `edges`.
    ops: Vec<EdgeOpKind>,
    stop: VertexId,
    input: Vec<Pre>,
    cost: f64,
    sf: f64,
}

/// A per-round snapshot of one path segment (the rows of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PathSnapshot {
    /// Edges of the segment so far.
    pub edges: Vec<EdgeId>,
    /// The physical operator the kernel sampled each edge with (parallel
    /// to `edges`) — lets Table-2-style traces distinguish steps from
    /// index-NL value joins.
    pub ops: Vec<EdgeOpKind>,
    /// `cost(p)` after this round.
    pub cost: f64,
    /// `sf(p)` after this round.
    pub sf: f64,
}

/// Full trace of one chain-sampling invocation (drives the Table 2 and
/// Fig. 3 reproductions).
#[derive(Debug, Clone, Default)]
pub struct ChainTrace {
    /// The minimum-weight seed edge.
    pub seed_edge: EdgeId,
    /// The chosen source vertex.
    pub source: VertexId,
    /// Snapshots of all live paths after each round.
    pub rounds: Vec<Vec<PathSnapshot>>,
    /// The selected path.
    pub chosen: Vec<EdgeId>,
    /// True when the strict stopping condition fired before exhaustion.
    pub stopped_early: bool,
}

/// Outcome of [`chain_sample`].
pub(crate) struct ChainOutcome {
    /// The path segment to execute next (never empty).
    pub path: Vec<EdgeId>,
    /// Trace for explain/experiment output.
    pub trace: ChainTrace,
}

/// Run one chain-sampling phase (Algorithm 2). `weights[e]` holds the
/// current edge weights (`None` = unweighted, treated as +∞).
/// Sampling work is charged to `cost`.
pub(crate) fn chain_sample(
    state: &EvalState<'_>,
    weights: &[Option<f64>],
    rng: &mut StdRng,
    tau: usize,
    cost: &mut Cost,
) -> ChainOutcome {
    let unexecuted = state.unexecuted_edges();
    debug_assert!(!unexecuted.is_empty());
    // Line 1: the minimum-weight unexecuted edge.
    let seed = *unexecuted
        .iter()
        .min_by(|&&a, &&b| {
            let wa = weights[a as usize].unwrap_or(f64::INFINITY);
            let wb = weights[b as usize].unwrap_or(f64::INFINITY);
            wa.partial_cmp(&wb).unwrap().then(a.cmp(&b))
        })
        .expect("at least one unexecuted edge");
    let edge = state.graph.edge(seed);
    let (v1, v2) = (edge.v1, edge.v2);
    let mut trace = ChainTrace {
        seed_edge: seed,
        ..ChainTrace::default()
    };

    // Lines 2-5: no chain sampling when neither endpoint branches.
    let branching =
        state.unexecuted_edges_of(v1).len() > 1 || state.unexecuted_edges_of(v2).len() > 1;
    if !branching {
        trace.chosen = vec![seed];
        trace.source = if state.card(v1) <= state.card(v2) {
            v1
        } else {
            v2
        };
        return ChainOutcome {
            path: vec![seed],
            trace,
        };
    }
    // Line 3: source = smaller-cardinality endpoint.
    let source = if state.card(v1) <= state.card(v2) {
        v1
    } else {
        v2
    };
    trace.source = source;

    // Lines 6-9: the empty path anchored at source.
    let initial_input: Vec<Pre> = match state.sample(source) {
        Some(s) => s.as_ref().clone(),
        None => {
            let base = state.env.base_list(state.graph, source);
            sample_sorted(rng, &base, tau)
        }
    };
    let mut paths = vec![PathSeg {
        edges: Vec::new(),
        ops: Vec::new(),
        stop: source,
        input: initial_input,
        cost: 0.0,
        sf: 1.0,
    }];
    let mut cutoff = tau;
    let max_rounds = state.graph.edge_count() + 2;

    for _round in 0..max_rounds {
        let extendable = |p: &PathSeg| {
            state
                .unexecuted_edges_of(p.stop)
                .iter()
                .any(|e| !p.edges.contains(e))
        };
        if !paths.iter().any(extendable) {
            break;
        }
        // Line 12: grow the cutoff to counter front bias.
        cutoff += tau;
        // Lines 13-23: extend every extendable path by each candidate edge,
        // in (path, edge) order.
        let mut next_paths: Vec<PathSeg> = Vec::new();
        for mut p in paths {
            let exts: Vec<EdgeId> = state
                .unexecuted_edges_of(p.stop)
                .into_iter()
                .filter(|e| !p.edges.contains(e))
                .collect();
            if exts.is_empty() {
                next_paths.push(p);
                continue;
            }
            p.input.sort_unstable();
            for e in exts {
                let run = sampled_edge_exec(state, e, p.stop, &p.input, cutoff, cost);
                let to = state.graph.edge(e).other(p.stop);
                let mut edges = p.edges.clone();
                edges.push(e);
                let mut ops = p.ops.clone();
                ops.push(run.op);
                let scale = state.card(source) as f64 / tau as f64;
                next_paths.push(PathSeg {
                    edges,
                    ops,
                    stop: to,
                    input: run.output,
                    cost: p.cost + run.est * scale,
                    sf: run.est / tau as f64,
                });
            }
        }
        paths = next_paths;
        trace.rounds.push(
            paths
                .iter()
                .map(|p| PathSnapshot {
                    edges: p.edges.clone(),
                    ops: p.ops.clone(),
                    cost: p.cost,
                    sf: p.sf,
                })
                .collect(),
        );
        // Lines 24-31: the strict stopping condition.
        if paths.len() >= 2 {
            if let Some(winner) = strict_winner(&paths) {
                trace.stopped_early = true;
                trace.chosen = paths[winner].edges.clone();
                let path = paths[winner].edges.clone();
                return ChainOutcome { path, trace };
            }
        }
    }

    // Lines 32-39: exhausted — pick the best candidate by the symmetric
    // comparison, falling back to most pairwise wins / smallest cost.
    let idx = final_winner(&paths);
    trace.chosen = paths[idx].edges.clone();
    let mut path = paths.into_iter().nth(idx).expect("winner exists").edges;
    if path.is_empty() {
        // The source never produced an extension (e.g. empty sample):
        // degrade gracefully to the seed edge.
        path = vec![seed];
        trace.chosen = path.clone();
    }
    ChainOutcome { path, trace }
}

/// Index of a path satisfying `cost(pᵢ) + sf(pᵢ)·cost(pⱼ) ≤ cost(pⱼ)` for
/// every other path, if any (line 26).
fn strict_winner(paths: &[PathSeg]) -> Option<usize> {
    (0..paths.len()).find(|&i| {
        !paths[i].edges.is_empty()
            && (0..paths.len())
                .all(|j| i == j || paths[i].cost + paths[i].sf * paths[j].cost <= paths[j].cost)
    })
}

/// Final selection (line 34): a path beating all others under the
/// symmetric condition, else the one with most pairwise wins (ties broken
/// by smaller cost).
fn final_winner(paths: &[PathSeg]) -> usize {
    let candidates: Vec<usize> = (0..paths.len())
        .filter(|&i| !paths[i].edges.is_empty())
        .collect();
    if candidates.is_empty() {
        return 0;
    }
    let beats = |i: usize, j: usize| {
        paths[i].cost + paths[i].sf * paths[j].cost <= paths[j].cost + paths[j].sf * paths[i].cost
    };
    if let Some(&winner) = candidates
        .iter()
        .find(|&&i| candidates.iter().all(|&j| i == j || beats(i, j)))
    {
        return winner;
    }
    // Non-transitive estimates: count wins.
    let mut best = candidates[0];
    let mut best_wins = usize::MIN;
    for &i in &candidates {
        let wins = candidates
            .iter()
            .filter(|&&j| j != i && beats(i, j))
            .count();
        if wins > best_wins || (wins == best_wins && paths[i].cost < paths[best].cost) {
            best = i;
            best_wins = wins;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::RoxEnv;
    use rand::SeedableRng;
    use rox_joingraph::compile_query;
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    /// Correlated document: auctions with a `cheap` child have exactly one
    /// bidder; auctions with an `exp` child have ten. A chain sampler
    /// starting from `cheap` should discover the small bidder branch.
    fn corr_doc() -> String {
        let mut s = String::from("<site>");
        for i in 0..60 {
            s.push_str("<auction>");
            if i % 2 == 0 {
                s.push_str("<cheap/>");
                s.push_str("<bidder/>");
            } else {
                s.push_str("<exp/>");
                for _ in 0..10 {
                    s.push_str("<bidder/>");
                }
            }
            s.push_str("</auction>");
        }
        s.push_str("</site>");
        s
    }

    fn setup() -> (Arc<Catalog>, rox_joingraph::JoinGraph) {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", &corr_doc()).unwrap();
        let g =
            compile_query(r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder return $b"#)
                .unwrap();
        (cat, g)
    }

    #[test]
    fn returns_seed_when_no_branching() {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", "<site><a><b/></a></site>").unwrap();
        let g = compile_query(r#"for $x in doc("d.xml")//a, $y in $x/b return $y"#).unwrap();
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        let weights = vec![Some(1.0); g.edge_count()];
        let mut rng = StdRng::seed_from_u64(1);
        let out = chain_sample(&st, &weights, &mut rng, 10, &mut Cost::new());
        assert_eq!(out.path.len(), 1);
        assert!(out.trace.rounds.is_empty());
    }

    #[test]
    fn explores_branches_and_chooses_nonempty_path() {
        let (cat, g) = setup();
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        let mut rng = StdRng::seed_from_u64(3);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        for v in g.vertices() {
            st.seed_sample(v.id, &mut rng, 20);
        }
        let mut cost = Cost::new();
        let mut weights: Vec<Option<f64>> = vec![None; g.edge_count()];
        for e in st.unexecuted_edges() {
            weights[e as usize] = crate::estimate::estimate_card(&st, e, 20, &mut cost);
        }
        let out = chain_sample(&st, &weights, &mut rng, 20, &mut cost);
        assert!(!out.path.is_empty());
        // Branching exists (auction has two unexecuted edges), so rounds ran.
        assert!(!out.trace.rounds.is_empty());
        for e in &out.path {
            assert!(!st.is_executed(*e));
        }
        assert!(cost.total() > 0, "sampling must be accounted");
    }

    #[test]
    fn trace_costs_are_monotone_in_rounds() {
        let (cat, g) = setup();
        let env = RoxEnv::new(cat, &g).unwrap();
        let mut st = EvalState::new(&env, &g);
        let mut rng = StdRng::seed_from_u64(9);
        for e in g.edges() {
            if e.redundant {
                st.mark_executed(e.id);
            }
        }
        for v in g.vertices() {
            st.seed_sample(v.id, &mut rng, 20);
        }
        let mut cost = Cost::new();
        let mut weights: Vec<Option<f64>> = vec![None; g.edge_count()];
        for e in st.unexecuted_edges() {
            weights[e as usize] = crate::estimate::estimate_card(&st, e, 20, &mut cost);
        }
        let out = chain_sample(&st, &weights, &mut rng, 20, &mut cost);
        // A path extended across rounds never reduces its cost.
        for w in out.trace.rounds.windows(2) {
            for snap in &w[1] {
                if let Some(prev) = w[0]
                    .iter()
                    .find(|s| snap.edges.starts_with(&s.edges) && s.edges.len() < snap.edges.len())
                {
                    assert!(snap.cost >= prev.cost - 1e-9);
                }
            }
        }
    }
}
