//! Cut-off sampled operator execution (§2.3 of the paper).
//!
//! Rather than evaluating an operator on a sample and *then* reducing an
//! exploded result, ROX cuts result generation off at a limit `l` and
//! records the fraction `f` of context tuples processed at that point; the
//! full result cardinality is extrapolated as `|r′| = |r| / f`. [`JoinOut`]
//! carries exactly that bookkeeping for every pair-producing operator.

use crate::cost::Cost;
use rox_xmldb::Pre;

/// Output of a (possibly cut-off) pair-producing join.
#[derive(Debug, Clone)]
pub struct JoinOut<T> {
    /// The produced `(context row, result)` pairs, in context order.
    pub pairs: Vec<(u32, T)>,
    /// Whether result generation was cut off at the limit.
    pub truncated: bool,
    /// Number of context tuples in the input.
    pub ctx_len: usize,
    /// Row id of the last context tuple that was *fully* processed.
    fully_processed: Option<u32>,
}

/// Upper bound on the speculative pair pre-allocation when no cut-off
/// bounds the output — keeps a huge context from reserving a huge buffer
/// it may never fill.
const MAX_PREALLOC_PAIRS: usize = 4096;

impl<T> JoinOut<T> {
    /// Emit one pair, charging it to `cost`; returns `true` when the limit
    /// has been reached (caller must stop).
    #[inline]
    pub fn emit(&mut self, row: u32, value: T, limit: usize, cost: &mut Cost) -> bool {
        self.pairs.push((row, value));
        cost.charge_out(1);
        if self.pairs.len() >= limit {
            self.truncated = true;
            true
        } else {
            false
        }
    }

    /// Record that the context tuple `row` was fully processed.
    #[inline]
    pub fn ctx_done(&mut self, row: u32) {
        self.fully_processed = Some(row);
    }

    /// The reduction factor `f`: the observed fraction of context tuples
    /// processed. `1.0` for non-truncated runs.
    pub fn reduction_factor(&self) -> f64 {
        if !self.truncated || self.ctx_len == 0 {
            return 1.0;
        }
        // The paper computes f = max(r.rowid) / max(c.rowid); with dense
        // 0-based rows that is (last emitted row + 1) / |ctx|. Preferring
        // the last *fully processed* row (when ahead of the last emitting
        // row) only sharpens the estimate.
        let last_emit = self.pairs.last().map(|(r, _)| *r + 1).unwrap_or(0);
        let last_done = self.fully_processed.map(|r| r + 1).unwrap_or(0);
        let processed = last_emit.max(last_done).max(1);
        (processed as f64 / self.ctx_len as f64).min(1.0)
    }

    /// Extrapolated full-result cardinality `|r| / f`.
    pub fn estimate(&self) -> f64 {
        self.pairs.len() as f64 / self.reduction_factor()
    }

    /// Distinct result values, sorted — the duplicate-free node output of
    /// the staircase join definition.
    pub fn distinct_results(&self) -> Vec<T>
    where
        T: Ord + Copy,
    {
        let mut out: Vec<T> = self.pairs.iter().map(|&(_, v)| v).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Distinct context rows that produced at least one pair, sorted.
    pub fn distinct_ctx_rows(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.pairs.iter().map(|&(r, _)| r).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl JoinOut<Pre> {
    /// Fresh output for a context of `ctx_len` tuples. Capacity is
    /// reserved up front: `min(limit, ctx_len)` when a cut-off is known
    /// (a heuristic — output is bounded by `limit`, not `ctx_len`, so a
    /// high-fan-out context can still grow the buffer), else `ctx_len`
    /// capped at a sane default.
    pub fn with_limit(ctx_len: usize, limit: Option<usize>) -> Self {
        JoinOut {
            pairs: Vec::with_capacity(limit.unwrap_or(MAX_PREALLOC_PAIRS).min(ctx_len)),
            truncated: false,
            ctx_len,
            fully_processed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_truncated_estimate_is_exact() {
        let mut cost = Cost::new();
        let mut out = JoinOut::with_limit(10, None);
        for i in 0..5u32 {
            assert!(!out.emit(i, i * 10, usize::MAX, &mut cost));
            out.ctx_done(i);
        }
        assert_eq!(out.reduction_factor(), 1.0);
        assert_eq!(out.estimate(), 5.0);
    }

    #[test]
    fn truncated_estimate_extrapolates() {
        let mut cost = Cost::new();
        let mut out = JoinOut::with_limit(100, None);
        // 20 pairs produced while only the first 10 context tuples were seen.
        for i in 0..10u32 {
            out.emit(i, 0, 20, &mut cost);
            out.emit(i, 1, 20, &mut cost);
            out.ctx_done(i);
        }
        assert!(out.truncated);
        // f = 10/100, estimate = 20 / 0.1 = 200.
        assert_eq!(out.estimate(), 200.0);
    }

    #[test]
    fn distinct_results_dedup_and_sort() {
        let mut cost = Cost::new();
        let mut out = JoinOut::with_limit(3, None);
        out.emit(0, 9, usize::MAX, &mut cost);
        out.emit(1, 3, usize::MAX, &mut cost);
        out.emit(2, 9, usize::MAX, &mut cost);
        assert_eq!(out.distinct_results(), vec![3, 9]);
        assert_eq!(out.distinct_ctx_rows(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_context_is_safe() {
        let out: JoinOut<u32> = JoinOut::with_limit(0, None);
        assert_eq!(out.estimate(), 0.0);
        assert_eq!(out.reduction_factor(), 1.0);
    }

    #[test]
    fn capacity_reserved_up_front() {
        // Cut-off known: reserve min(limit, ctx_len) so the sampling path
        // never reallocates.
        let out: JoinOut<u32> = JoinOut::with_limit(1000, Some(64));
        assert!(out.pairs.capacity() >= 64);
        let small: JoinOut<u32> = JoinOut::with_limit(3, Some(64));
        assert!(small.pairs.capacity() >= 3);
        // No cut-off: ctx_len capped at the pre-allocation bound.
        let unbounded: JoinOut<u32> = JoinOut::with_limit(1 << 24, None);
        assert!(unbounded.pairs.capacity() <= MAX_PREALLOC_PAIRS * 2);
    }
}
