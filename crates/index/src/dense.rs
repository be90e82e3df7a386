//! Dense, hash-free data layouts for the join core.
//!
//! Both `Symbol` (interned value id) and `Pre` (node id) are *dense* `u32`
//! identifiers, so every symbol-keyed table and every node-membership set
//! in the hot join paths can be a flat array instead of a general-purpose
//! hash map or a binary-searched sorted slice:
//!
//! * [`SymbolTable`] — a CSR (offsets + values) multimap `Symbol → [Pre]`,
//!   built once per join build side. A lookup is two array reads; no
//!   hashing, no pointer chasing per group.
//! * [`PreSet`] — a fixed-size bitset over `0..node_count`, answering the
//!   membership probes that used to be per-hit `binary_search` calls in
//!   `O(1)` with one shift and mask.
//!
//! Layout invariants both types share with the structures they replace:
//! within one symbol group [`SymbolTable`] preserves *insertion order* of
//! the build input (exactly like `HashMap<Symbol, Vec<Pre>>` pushing per
//! entry), and lookups of symbols beyond the built universe return the
//! empty group — so swapping the hash map for the CSR table is
//! bit-identical, not just equivalent.

use rox_xmldb::{Pre, Symbol};

/// A CSR-layout multimap from [`Symbol`] to the build-side nodes carrying
/// that symbol, indexed directly by `Symbol.0`.
///
/// `offsets` has `universe + 1` entries; group `s` occupies
/// `values[offsets[s]..offsets[s + 1]]`. Symbols at or beyond `universe`
/// were not present in the build input and resolve to the empty slice.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    offsets: Vec<u32>,
    values: Vec<Pre>,
}

impl SymbolTable {
    /// Build the table from `(symbols[i], nodes[i])` pairs with a counting
    /// sort keyed on the symbol: two passes, no hashing. Within one symbol
    /// group the nodes keep their input order (the order a
    /// `HashMap<Symbol, Vec<Pre>>` build loop would have pushed them in).
    ///
    /// `symbols` and `nodes` must have equal length.
    pub fn from_pairs(symbols: &[Symbol], nodes: &[Pre]) -> Self {
        debug_assert_eq!(symbols.len(), nodes.len());
        let universe = symbols.iter().map(|s| s.index() + 1).max().unwrap_or(0);
        let mut offsets = vec![0u32; universe + 1];
        for s in symbols {
            offsets[s.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut values = vec![0 as Pre; nodes.len()];
        // `cursor[s]` starts at offsets[s] and walks forward; reuse a copy
        // of the prefix sums so the fill stays a single pass.
        let mut cursor = offsets.clone();
        for (s, &p) in symbols.iter().zip(nodes) {
            let at = cursor[s.index()];
            values[at as usize] = p;
            cursor[s.index()] += 1;
        }
        SymbolTable { offsets, values }
    }

    /// Reassemble a table from raw CSR arrays (the snapshot decode path).
    /// Returns `None` — instead of risking a panicking lookup later — when
    /// the arrays are not a well-formed CSR: offsets must be monotone,
    /// start at 0, and end exactly at `values.len()`.
    pub fn from_raw(offsets: Vec<u32>, values: Vec<Pre>) -> Option<Self> {
        if offsets.is_empty() {
            return if values.is_empty() {
                Some(SymbolTable::default())
            } else {
                None
            };
        }
        if offsets[0] != 0
            || *offsets.last().unwrap() as usize != values.len()
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return None;
        }
        Some(SymbolTable { offsets, values })
    }

    /// The raw CSR offsets array (`universe + 1` entries; empty for a
    /// default-built table) — the snapshot encode path's payload.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw CSR values array, parallel to [`SymbolTable::offsets`].
    pub fn values(&self) -> &[Pre] {
        &self.values
    }

    /// The nodes grouped under `sym`, in build order; empty when `sym` was
    /// absent from (or beyond) the build input. Two array reads.
    #[inline]
    pub fn get(&self, sym: Symbol) -> &[Pre] {
        let i = sym.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total build-side entries (the investment a join charges for the
    /// build, cached or not).
    #[inline]
    pub fn build_len(&self) -> usize {
        self.values.len()
    }

    /// Number of distinct symbols with at least one entry.
    pub fn distinct_symbols(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Iterate the non-empty `(symbol, group)` pairs in symbol order.
    pub fn groups(&self) -> impl Iterator<Item = (Symbol, &[Pre])> {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] != w[1])
            .map(|(i, w)| (Symbol(i as u32), &self.values[w[0] as usize..w[1] as usize]))
    }
}

/// A fixed-size bitset over the dense node-id space `0..universe`.
///
/// Replaces sorted-slice `binary_search` membership probes on the hot join
/// paths. Probes at or beyond `universe` answer `false` (mirroring "not in
/// the slice"), so a set built from one node list is safe to probe with
/// any node id.
#[derive(Debug, Clone, Default)]
pub struct PreSet {
    words: Vec<u64>,
    len: usize,
}

impl PreSet {
    /// An empty set able to hold nodes `0..universe`.
    pub fn new(universe: usize) -> Self {
        PreSet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
        }
    }

    /// Build a set from a node list (any order, duplicates allowed) over
    /// `0..universe`; `universe` must exceed every listed node.
    pub fn from_nodes(universe: usize, nodes: &[Pre]) -> Self {
        let mut set = PreSet::new(universe);
        for &p in nodes {
            set.insert(p);
        }
        set
    }

    /// Insert one node. The node must lie below the construction universe.
    #[inline]
    pub fn insert(&mut self, p: Pre) {
        let word = &mut self.words[(p / 64) as usize];
        let bit = 1u64 << (p % 64);
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Membership probe: one shift and mask; out-of-universe ids are
    /// absent by definition.
    #[inline]
    pub fn contains(&self, p: Pre) -> bool {
        self.words
            .get((p / 64) as usize)
            .is_some_and(|w| w & (1u64 << (p % 64)) != 0)
    }

    /// Number of distinct members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(raw: &[u32]) -> Vec<Symbol> {
        raw.iter().copied().map(Symbol).collect()
    }

    #[test]
    fn csr_groups_preserve_build_order() {
        let symbols = syms(&[3, 1, 3, 1, 3]);
        let nodes: Vec<Pre> = vec![10, 20, 30, 40, 50];
        let t = SymbolTable::from_pairs(&symbols, &nodes);
        assert_eq!(t.get(Symbol(3)), &[10, 30, 50]);
        assert_eq!(t.get(Symbol(1)), &[20, 40]);
        assert_eq!(t.get(Symbol(0)), &[] as &[Pre]);
        assert_eq!(t.get(Symbol(99)), &[] as &[Pre]);
        assert_eq!(t.build_len(), 5);
        assert_eq!(t.distinct_symbols(), 2);
    }

    #[test]
    fn csr_empty_universe() {
        let t = SymbolTable::from_pairs(&[], &[]);
        assert_eq!(t.get(Symbol(0)), &[] as &[Pre]);
        assert_eq!(t.get(Symbol::EMPTY), &[] as &[Pre]);
        assert_eq!(t.build_len(), 0);
        assert_eq!(t.distinct_symbols(), 0);
        assert_eq!(t.groups().count(), 0);
    }

    #[test]
    fn csr_max_symbol_at_boundary() {
        // The largest symbol sits exactly at the end of the offsets array.
        let t = SymbolTable::from_pairs(&syms(&[u16::MAX as u32]), &[7]);
        assert_eq!(t.get(Symbol(u16::MAX as u32)), &[7]);
        assert_eq!(t.get(Symbol(u16::MAX as u32 + 1)), &[] as &[Pre]);
    }

    #[test]
    fn csr_groups_iterate_in_symbol_order() {
        let t = SymbolTable::from_pairs(&syms(&[5, 2, 5]), &[1, 2, 3]);
        let got: Vec<(Symbol, Vec<Pre>)> = t.groups().map(|(s, g)| (s, g.to_vec())).collect();
        assert_eq!(got, vec![(Symbol(2), vec![2]), (Symbol(5), vec![1, 3])]);
    }

    #[test]
    fn bitset_membership_matches_slice() {
        let nodes: Vec<Pre> = vec![0, 3, 63, 64, 65, 100];
        let set = PreSet::from_nodes(128, &nodes);
        for p in 0..130u32 {
            assert_eq!(set.contains(p), nodes.contains(&p), "node {p}");
        }
        assert_eq!(set.len(), nodes.len());
        assert!(!set.is_empty());
    }

    #[test]
    fn bitset_empty_universe_is_safe() {
        let set = PreSet::new(0);
        assert!(!set.contains(0));
        assert!(set.is_empty());
        let built = PreSet::from_nodes(0, &[]);
        assert_eq!(built.len(), 0);
    }

    #[test]
    fn bitset_duplicates_count_once() {
        let set = PreSet::from_nodes(10, &[4, 4, 4]);
        assert_eq!(set.len(), 1);
        assert!(set.contains(4));
    }
}
