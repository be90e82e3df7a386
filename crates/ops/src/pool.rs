//! The scratch pool: recycled buffers for the full-execution spine.
//!
//! Every full edge execution used to allocate the same shapes over and
//! over: a pair buffer for the staircase/value-join output, a `(v1, v2)`
//! node-pair buffer for orientation, one column vector per relation
//! attribute, a distinct-nodes vector per refreshed `T(v)`, and a
//! [`PreSet`] universe per bitset kernel. [`ScratchPool`] keeps a
//! free-list per shape so a long-lived engine leases and returns them
//! instead: once a query shape has been served, a repeat of it (the warm
//! plan-replay path) draws **every** pooled buffer from the free-lists and
//! allocates nothing new — the property the engine proptest pins via the
//! miss counter of [`ScratchPool::stats`].
//!
//! Design rules:
//!
//! * **Manual lease/return.** Buffers are plain `Vec`s (and `PreSet`s)
//!   handed out by value; callers return them when done. No guard types —
//!   the lease frequently crosses function boundaries (kernel → state →
//!   relation), where a drop guard would fight the borrow checker for no
//!   gain. A buffer that is *not* returned is simply dropped; the pool
//!   stays correct, it just re-allocates on the next lease.
//! * **Returned buffers are cleared** on the way in, so a lease is always
//!   an empty buffer with whatever capacity its history earned it.
//! * **Bounded.** Each free-list is capped in count
//!   ([`MAX_POOLED_PER_SHAPE`]) *and* per-buffer capacity
//!   ([`MAX_POOLED_BUF_CAPACITY`] elements / bitset words): returns
//!   beyond either bound are dropped, so neither pathological query
//!   volume nor one huge query can pin a long-lived engine's idle
//!   footprint.
//! * **Thread-safe, never blocking.** Free-lists sit behind mutexes
//!   acquired with `try_lock`: a contended lease simply allocates (and
//!   counts as a miss), a contended return drops the buffer. Leases
//!   happen per edge execution (or per morsel), not per tuple, so
//!   contention is rare — and when it does happen, worker threads pay an
//!   allocation instead of serializing on a lock.
//!
//! Reuse never changes results: a leased buffer is observationally a fresh
//! empty one, and cost counters are charged by the operators, never by the
//! pool.

use rox_index::PreSet;
use rox_xmldb::Pre;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cap on the number of buffers each free-list retains; returns past the
/// cap are dropped (bounding a long-lived engine's idle footprint).
pub const MAX_POOLED_PER_SHAPE: usize = 64;

/// Cap on the *capacity* (elements for `Vec`s, 64-bit words for
/// [`PreSet`]s) a returned buffer may retain: clearing a `Vec` keeps its
/// allocation, so without this bound one huge query would pin
/// maximum-size buffers in the pool for the engine's lifetime. 1 Mi
/// elements ≈ 4 MiB for the `u32`-element shapes.
pub const MAX_POOLED_BUF_CAPACITY: usize = 1 << 20;

/// Cumulative lease counters of one pool (monotone; never reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total leases served (hits + misses).
    pub leases: u64,
    /// Leases that had to allocate because the free-list was empty.
    pub misses: u64,
}

impl PoolStats {
    /// Leases served from the free-lists.
    pub fn hits(&self) -> u64 {
        self.leases - self.misses
    }
}

/// A shape-keyed free-list of scratch buffers shared by one engine (or one
/// standalone environment). See the module docs for the lease contract.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// `Vec<Pre>`: base-list copies, distinct `T(v)` refreshes, relation
    /// columns (a column is a `Vec<Pre>` since the columnar relation
    /// layout), row-index keys and rows.
    pres: Mutex<Vec<Vec<Pre>>>,
    /// `(row, node)` pair buffers — the staircase / value-join output.
    pairs: Mutex<Vec<Vec<(u32, Pre)>>>,
    /// `(v1 node, v2 node)` pair buffers — oriented full-join output.
    node_pairs: Mutex<Vec<Vec<(Pre, Pre)>>>,
    /// Row-keep flags for selections.
    flags: Mutex<Vec<Vec<bool>>>,
    /// Bitset universes for the bitset step kernel and value-join filters.
    sets: Mutex<Vec<PreSet>>,
    leases: AtomicU64,
    misses: AtomicU64,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    fn count(&self, missed: bool) {
        self.leases.fetch_add(1, Ordering::Relaxed);
        if missed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn lease_from<T>(&self, list: &Mutex<Vec<T>>, new: impl FnOnce() -> T) -> T {
        // Contended lease: allocate instead of blocking (counted as a
        // miss — it is one).
        let got = list.try_lock().ok().and_then(|mut list| list.pop());
        self.count(got.is_none());
        got.unwrap_or_else(new)
    }

    /// `capacity` is the buffer's retained allocation in its own units;
    /// oversized buffers are dropped (see [`MAX_POOLED_BUF_CAPACITY`]).
    fn return_to<T>(&self, list: &Mutex<Vec<T>>, value: T, capacity: usize) {
        if capacity > MAX_POOLED_BUF_CAPACITY {
            return;
        }
        // Contended return: drop the buffer instead of blocking.
        if let Ok(mut list) = list.try_lock() {
            if list.len() < MAX_POOLED_PER_SHAPE {
                list.push(value);
            }
        }
    }

    /// Lease an empty `Vec<Pre>` (node lists, relation columns).
    pub fn lease_pres(&self) -> Vec<Pre> {
        self.lease_from(&self.pres, Vec::new)
    }

    /// Return a `Vec<Pre>`; it is cleared on the way in.
    pub fn give_pres(&self, mut buf: Vec<Pre>) {
        buf.clear();
        let cap = buf.capacity();
        self.return_to(&self.pres, buf, cap);
    }

    /// Lease an empty `(row, node)` pair buffer.
    pub fn lease_pairs(&self) -> Vec<(u32, Pre)> {
        self.lease_from(&self.pairs, Vec::new)
    }

    /// Return a `(row, node)` pair buffer.
    pub fn give_pairs(&self, mut buf: Vec<(u32, Pre)>) {
        buf.clear();
        let cap = buf.capacity();
        self.return_to(&self.pairs, buf, cap);
    }

    /// Lease an empty `(v1, v2)` node-pair buffer.
    pub fn lease_node_pairs(&self) -> Vec<(Pre, Pre)> {
        self.lease_from(&self.node_pairs, Vec::new)
    }

    /// Return a `(v1, v2)` node-pair buffer.
    pub fn give_node_pairs(&self, mut buf: Vec<(Pre, Pre)>) {
        buf.clear();
        let cap = buf.capacity();
        self.return_to(&self.node_pairs, buf, cap);
    }

    /// Lease an empty row-flag buffer.
    pub fn lease_flags(&self) -> Vec<bool> {
        self.lease_from(&self.flags, Vec::new)
    }

    /// Return a row-flag buffer.
    pub fn give_flags(&self, mut buf: Vec<bool>) {
        buf.clear();
        let cap = buf.capacity();
        self.return_to(&self.flags, buf, cap);
    }

    /// Lease a [`PreSet`] reset to `universe` with `nodes` inserted —
    /// observationally `PreSet::from_nodes(universe, nodes)` over a
    /// recycled word buffer.
    pub fn lease_set(&self, universe: usize, nodes: &[Pre]) -> PreSet {
        let mut set = self.lease_from(&self.sets, PreSet::default);
        set.reset_from_nodes(universe, nodes);
        set
    }

    /// Return a [`PreSet`] universe.
    pub fn give_set(&self, set: PreSet) {
        let cap = set.word_capacity();
        self.return_to(&self.sets, set, cap);
    }

    /// Cumulative lease counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            leases: self.leases.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycles_capacity_and_counts() {
        let pool = ScratchPool::new();
        let mut buf = pool.lease_pres();
        assert_eq!(
            pool.stats(),
            PoolStats {
                leases: 1,
                misses: 1
            }
        );
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        pool.give_pres(buf);
        let again = pool.lease_pres();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "capacity must survive the pool");
        let stats = pool.stats();
        assert_eq!(stats.leases, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits(), 1);
    }

    #[test]
    fn set_lease_matches_fresh_build() {
        let pool = ScratchPool::new();
        let nodes: Vec<Pre> = vec![1, 64, 127];
        let set = pool.lease_set(128, &nodes);
        for p in 0..130u32 {
            assert_eq!(set.contains(p), nodes.contains(&p), "node {p}");
        }
        pool.give_set(set);
        // Reuse with a different (smaller) universe: out-of-universe
        // probes must answer false again.
        let set = pool.lease_set(2, &[0]);
        assert!(set.contains(0));
        assert!(!set.contains(64), "stale bit survived the reset");
        assert_eq!(pool.stats().misses, 1, "second set lease must reuse");
    }

    #[test]
    fn free_lists_are_bounded() {
        let pool = ScratchPool::new();
        for _ in 0..(MAX_POOLED_PER_SHAPE + 10) {
            pool.give_flags(vec![true; 8]);
        }
        let mut served = 0;
        loop {
            pool.lease_flags();
            served += 1;
            if pool.stats().misses > 1 {
                break;
            }
        }
        // MAX_POOLED_PER_SHAPE pooled buffers, then allocation.
        assert_eq!(served, MAX_POOLED_PER_SHAPE + 2);
    }
}
