//! Deterministic work accounting and the physical-operator cost model.
//!
//! Every physical operator charges the tuples it touches to a [`Cost`]
//! counter following the cost column of Table 1 in the paper. The ROX
//! optimizer keeps two counters — execution work and sampling work — which
//! is how the experiments separate "full run" from "pure plan" time
//! (Figs. 6–8).
//!
//! This module also hosts [`choose_op`], the Table-1-style cost function
//! that maps an edge (kind + current input cardinalities + execution mode)
//! to the physical operator the kernel in [`crate::edgeop`] runs. Keeping
//! the choice in one auditable function is what guarantees sampling and
//! full execution can never disagree on operator selection.

use crate::edgeop::{EdgeClass, EdgeOpChoice, EdgeOpKind, ExecMode};

/// Crossover factor of the index nested-loop vs. hash value join (the
/// Table 1 cost comparison): with `|small|` outer probes against the inner
/// value index, the nested loop wins while
/// `|small| * NL_VS_HASH_FACTOR < |large|` — i.e. while the per-probe
/// index-lookup overhead is amortized by skipping the `|small| + |large|`
/// hash build/probe scan. The factor is deliberately conservative: the
/// hash join is only abandoned when the outer side is nearly an order of
/// magnitude smaller.
pub const NL_VS_HASH_FACTOR: usize = 8;

/// Is the index nested-loop value join cheaper than the hash join for a
/// `small`-sized outer against a `large`-sized inner? (Table 1 comparison;
/// see [`NL_VS_HASH_FACTOR`].)
#[inline]
pub fn nl_cheaper(small: usize, large: usize) -> bool {
    small * NL_VS_HASH_FACTOR < large
}

/// The explicit per-edge operator choice (the cost function of Table 1,
/// lifted out of the evaluation state so every phase — sampling,
/// chain-sampling, full execution, replay — consults the same rule).
///
/// * **Sampled mode** keeps the caller-fixed outer side (the sampled
///   endpoint) and always picks the zero-investment variant of the edge's
///   operator — a staircase step or the index nested-loop value join —
///   because only zero-investment operators admit cut-off execution
///   (§2.3).
/// * **Full mode** executes steps from the smaller side (the direction in
///   the graph is representational only, §2.1) and picks index-NL over
///   hash for value joins when one side is much smaller
///   ([`nl_cheaper`]).
pub fn choose_op(class: EdgeClass, n1: usize, n2: usize, mode: ExecMode) -> EdgeOpChoice {
    match mode {
        ExecMode::Sampled { outer_is_v1, .. } => EdgeOpChoice {
            kind: match class {
                EdgeClass::Step(_) => EdgeOpKind::StepJoin,
                EdgeClass::ValueJoin => EdgeOpKind::IndexNLValueJoin,
            },
            outer_is_v1,
        },
        ExecMode::Full => {
            let outer_is_v1 = n1 <= n2;
            let kind = match class {
                EdgeClass::Step(_) => EdgeOpKind::StepJoin,
                EdgeClass::ValueJoin => {
                    let (small, large) = if outer_is_v1 { (n1, n2) } else { (n2, n1) };
                    if nl_cheaper(small, large) {
                        EdgeOpKind::IndexNLValueJoin
                    } else {
                        EdgeOpKind::HashValueJoin
                    }
                }
            };
            EdgeOpChoice { kind, outer_is_v1 }
        }
    }
}

/// Physical kernel variants of the staircase join (see
/// [`crate::staircase`]). Both produce bit-identical pairs, order,
/// truncation, and cost charges; they differ only in how they *test*
/// candidate membership, so picking between them is purely a wall-clock
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKernel {
    /// The classic probe loop: walk the axis per context node and test
    /// each produced node against the sorted candidate list (binary
    /// search, range-pruned). Zero-investment; the only kernel sampled
    /// (cut-off) execution uses.
    Probe,
    /// The probe-loop walk with candidate membership answered by a
    /// [`PreSet`](rox_index::PreSet) bitset (one shift + mask instead of
    /// a binary search). Pays an `O(|S|)` set build unless the caller
    /// supplies a cached set, so full execution only.
    Bitset,
}

/// Bitset-kernel engagement bound: building (or resetting) the candidate
/// membership bitset costs `O(|S|)`, amortized by the `|C| * fanout`
/// membership probes that each drop from a binary search to one shift and
/// mask. Engaged while `|S| <= |C| * STEP_BITSET_FACTOR` (with at least
/// one expected probe per 8 candidate-set bits, the build pays for
/// itself on every real document shape we measured).
pub const STEP_BITSET_FACTOR: usize = 8;

/// Pick the staircase kernel for one `step_join` call (the Table-1-style
/// selection rule of the vectorized execution layer; see
/// [`crate::staircase`] for the kernel semantics):
///
/// | condition | kernel |
/// |---|---|
/// | sampled (cut-off) execution | [`StepKernel::Probe`] — zero-investment, and the cut-off's incremental probe charging is native to the walk |
/// | Descendant/Following/Preceding axes | [`StepKernel::Probe`] — these already scan a candidate range; there is no binary search to beat |
/// | any probing axis, `\|S\| <= \|C\|·`[`STEP_BITSET_FACTOR`] | [`StepKernel::Bitset`] |
/// | otherwise | [`StepKernel::Probe`] — context too small to amortize anything |
pub fn choose_step_kernel(
    axis: crate::axis::Axis,
    ctx_len: usize,
    cands_len: usize,
    sampled: bool,
) -> StepKernel {
    use crate::axis::Axis;
    if sampled || ctx_len == 0 || cands_len == 0 {
        return StepKernel::Probe;
    }
    match axis {
        // Range-scan axes: no membership probes to speed up.
        Axis::Descendant | Axis::DescendantOrSelf | Axis::Following | Axis::Preceding => {
            StepKernel::Probe
        }
        _ if cands_len <= ctx_len * STEP_BITSET_FACTOR => StepKernel::Bitset,
        _ => StepKernel::Probe,
    }
}

/// Drift thresholds of the guarded plan replay (`rox-core`'s guard
/// module). A cached plan's recorded per-edge cardinalities are compared
/// against what the replay observes; the plan is demoted to a fresh
/// run-time optimization of the remaining edges when any check breaches.
///
/// | constant | value | role |
/// |---|---|---|
/// | [`DRIFT_RATIO`] | 4.0 | breach when observed/expected (or its inverse) exceeds this |
/// | [`DRIFT_ABS_FLOOR`] | 8.0 | both sides are floored here first — tiny absolute cardinalities never breach |
/// | [`REVALIDATE_SPOT_CHECKS`] | 2 | sampled pre-execution probes on the first K plan edges |
/// | [`REVALIDATE_SPOT_TAU`] | 32 | probe sample size per spot check (decoupled from the run's τ) |
/// | [`revalidation_budget`] | 64·τ | hard cap on the work those probes may charge |
///
/// The ratio is symmetric (growth and shrinkage both count: a plan tuned
/// for a big intermediate is as stale when the intermediate collapses) and
/// deliberately loose — the sampled side of a check carries sampling
/// noise, and a demotion costs a full re-optimization, so the guard only
/// fires on order-of-magnitude-class drift. The absolute floor keeps
/// 1-vs-5-row noise from ever demoting: below [`DRIFT_ABS_FLOOR`] rows,
/// any order is as good as any other.
pub const DRIFT_RATIO: f64 = 4.0;

/// Absolute floor applied to both sides of a drift comparison; see
/// [`DRIFT_RATIO`].
pub const DRIFT_ABS_FLOOR: f64 = 8.0;

/// Number of leading plan edges spot-checked by sampled probes before a
/// guarded replay starts executing; see [`DRIFT_RATIO`].
pub const REVALIDATE_SPOT_CHECKS: usize = 2;

/// Sample size of one spot-check probe. Deliberately small and *decoupled
/// from the run's τ*: the probe only needs to distinguish
/// order-of-magnitude-class drift (the [`DRIFT_RATIO`] bar), not rank
/// candidate operators, so a replay's guard cost stays flat as τ grows.
/// Bit-reproducibility is unaffected — the recorded expectation is
/// computed by the *same* probe procedure at seed time.
pub const REVALIDATE_SPOT_TAU: usize = 32;

/// Per-check work allowance factor: each spot check is a cut-off sampled
/// probe whose charge is `O(τ)`-class; 32·τ units of slack per check
/// absorb the fan-out-heavy outliers.
pub const REVALIDATE_BUDGET_PER_CHECK: usize = 32;

/// Hard cap on the sampling work ([`Cost::total`]) a guarded replay may
/// charge for its pre-execution spot checks:
/// [`REVALIDATE_SPOT_CHECKS`]` × `[`REVALIDATE_BUDGET_PER_CHECK`]` × τ`.
/// Checks stop (plan is trusted as-is) once the budget is spent.
pub fn revalidation_budget(tau: usize) -> u64 {
    (REVALIDATE_SPOT_CHECKS * REVALIDATE_BUDGET_PER_CHECK * tau.max(1)) as u64
}

/// Symmetric drift ratio between an observed and an expected cardinality,
/// with both sides floored at [`DRIFT_ABS_FLOOR`]. Always ≥ 1.
pub fn drift_ratio(observed: f64, expected: f64) -> f64 {
    let o = observed.max(DRIFT_ABS_FLOOR);
    let e = expected.max(DRIFT_ABS_FLOOR);
    if o >= e {
        o / e
    } else {
        e / o
    }
}

/// Does `observed` vs `expected` breach the [`DRIFT_RATIO`] threshold?
pub fn drift_breached(observed: f64, expected: f64) -> bool {
    drift_ratio(observed, expected) > DRIFT_RATIO
}

/// Accumulated operator work, in tuples touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cost {
    /// Tuples read from operator inputs.
    pub tuples_in: u64,
    /// Tuples produced into operator outputs.
    pub tuples_out: u64,
    /// Index probes (binary searches / hash lookups).
    pub probes: u64,
}

impl Cost {
    /// A zeroed counter.
    pub fn new() -> Self {
        Cost::default()
    }

    /// Charge `n` input tuples.
    #[inline]
    pub fn charge_in(&mut self, n: usize) {
        self.tuples_in += n as u64;
    }

    /// Charge `n` output tuples.
    #[inline]
    pub fn charge_out(&mut self, n: usize) {
        self.tuples_out += n as u64;
    }

    /// Charge `n` index probes.
    #[inline]
    pub fn charge_probe(&mut self, n: usize) {
        self.probes += n as u64;
    }

    /// Total work units (the scalar the harnesses report alongside wall
    /// time).
    #[inline]
    pub fn total(&self) -> u64 {
        self.tuples_in + self.tuples_out + self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut c = Cost::new();
        c.charge_in(10);
        c.charge_out(3);
        c.charge_probe(2);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn nl_vs_hash_crossover_is_pinned() {
        use crate::axis::Axis;
        // With a 10-node outer the crossover sits exactly at 80 inner
        // nodes: 10 * NL_VS_HASH_FACTOR = 80 is NOT strictly smaller than
        // 80 (hash), but is strictly smaller than 81 (index-NL).
        assert!(!nl_cheaper(10, 10 * NL_VS_HASH_FACTOR));
        assert!(nl_cheaper(10, 10 * NL_VS_HASH_FACTOR + 1));
        let at = choose_op(
            EdgeClass::ValueJoin,
            10,
            10 * NL_VS_HASH_FACTOR,
            ExecMode::Full,
        );
        assert_eq!(at.kind, EdgeOpKind::HashValueJoin);
        let above = choose_op(
            EdgeClass::ValueJoin,
            10,
            10 * NL_VS_HASH_FACTOR + 1,
            ExecMode::Full,
        );
        assert_eq!(above.kind, EdgeOpKind::IndexNLValueJoin);
        assert!(above.outer_is_v1);
        // Symmetric: the small side may be v2.
        let flipped = choose_op(
            EdgeClass::ValueJoin,
            10 * NL_VS_HASH_FACTOR + 1,
            10,
            ExecMode::Full,
        );
        assert_eq!(flipped.kind, EdgeOpKind::IndexNLValueJoin);
        assert!(!flipped.outer_is_v1);
        // Steps always use the staircase join, from the smaller side.
        let step = choose_op(EdgeClass::Step(Axis::Child), 5, 3, ExecMode::Full);
        assert_eq!(step.kind, EdgeOpKind::StepJoin);
        assert!(!step.outer_is_v1);
    }

    #[test]
    fn sampled_mode_keeps_forced_direction_and_zero_investment_ops() {
        use crate::axis::Axis;
        for outer_is_v1 in [true, false] {
            let mode = ExecMode::Sampled {
                limit: 7,
                outer_is_v1,
            };
            let s = choose_op(EdgeClass::Step(Axis::Descendant), 1000, 1, mode);
            assert_eq!(s.kind, EdgeOpKind::StepJoin);
            assert_eq!(s.outer_is_v1, outer_is_v1);
            // Even when hash would win at full scale, sampling stays on
            // the zero-investment index nested loop.
            let v = choose_op(EdgeClass::ValueJoin, 1000, 1000, mode);
            assert_eq!(v.kind, EdgeOpKind::IndexNLValueJoin);
            assert_eq!(v.outer_is_v1, outer_is_v1);
        }
    }

    #[test]
    fn drift_ratio_is_symmetric_and_floored() {
        // Symmetric: growth and shrinkage drift equally.
        assert_eq!(drift_ratio(100.0, 25.0), drift_ratio(25.0, 100.0));
        assert!(drift_breached(100.0, 20.0));
        assert!(drift_breached(20.0, 100.0));
        // At exactly the threshold nothing breaches (strict inequality).
        assert!(!drift_breached(100.0, 25.0));
        // The absolute floor absorbs tiny-cardinality noise: 1 row vs 6
        // rows is a 6x ratio but both sit under the floor.
        assert!(!drift_breached(1.0, 6.0));
        assert_eq!(drift_ratio(0.0, 0.0), 1.0);
        // Budget scales with tau and never hits zero.
        assert_eq!(
            revalidation_budget(100),
            (REVALIDATE_SPOT_CHECKS * REVALIDATE_BUDGET_PER_CHECK * 100) as u64
        );
        assert!(revalidation_budget(0) > 0);
    }
}
