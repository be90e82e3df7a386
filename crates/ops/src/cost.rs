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
}
