//! Columnar relations over XML nodes.
//!
//! The semantics of a Join Graph is "a fully joined relation containing
//! attributes of base relations" (§2.1). [`Relation`] is that intermediate:
//! one column per Join Graph vertex that has been joined in so far. The
//! ROX evaluator materializes these (the paper's fully-materialized
//! execution model) and derives the per-vertex tables `T(v)` as distinct
//! projections.
//!
//! # Layout
//!
//! Strict struct-of-arrays: a column is a plain `Vec<`[`Pre`]`>` — 4 bytes
//! per binding — and the column's document is stored **once** per
//! attribute (`docs[i]`), not per row; a vertex's bindings all live in one
//! document, so the old per-cell `NodeId` (doc, pre) pairs carried the
//! same `DocId` millions of times. Every bulk operation (join composition,
//! row filtering, sorting, dedup, cartesian products) works column-wise
//! with index **gathers** — no per-row `Vec` is ever built, and the hot
//! [`Relation::compose`] resolves node→row matches through a sorted
//! `(node, row)` index instead of a `HashMap`.

use rand::Rng;
use rox_xmldb::catalog::DocId;
use rox_xmldb::{NodeId, Pre};

/// Identifier of a Join Graph vertex / relation attribute.
pub type VarId = u32;

/// A columnar relation: `cols[i]` holds the binding of `schema[i]` for
/// every row, all in document `docs[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    schema: Vec<VarId>,
    docs: Vec<DocId>,
    cols: Vec<Vec<Pre>>,
}

impl Relation {
    /// An empty relation with the given schema; `docs` must be parallel to
    /// `schema`.
    pub fn empty(schema: Vec<VarId>, docs: Vec<DocId>) -> Self {
        debug_assert_eq!(schema.len(), docs.len());
        let cols = schema.iter().map(|_| Vec::new()).collect();
        Relation { schema, docs, cols }
    }

    /// A single-attribute relation from a node list in one document.
    pub fn single(var: VarId, doc: DocId, nodes: Vec<Pre>) -> Self {
        Relation {
            schema: vec![var],
            docs: vec![doc],
            cols: vec![nodes],
        }
    }

    /// The attribute list.
    pub fn schema(&self) -> &[VarId] {
        &self.schema
    }

    /// Per-attribute documents, parallel to [`Relation::schema`].
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Position of `var` in the schema.
    pub fn col_idx(&self, var: VarId) -> Option<usize> {
        self.schema.iter().position(|&v| v == var)
    }

    /// The column bound to `var`.
    ///
    /// # Panics
    /// Panics when `var` is not in the schema.
    pub fn col(&self, var: VarId) -> &[Pre] {
        let i = self.col_idx(var).expect("variable not in relation schema");
        &self.cols[i]
    }

    /// The document `var`'s bindings live in.
    ///
    /// # Panics
    /// Panics when `var` is not in the schema.
    pub fn doc_of(&self, var: VarId) -> DocId {
        let i = self.col_idx(var).expect("variable not in relation schema");
        self.docs[i]
    }

    /// The global node id bound to `var` in row `row`.
    pub fn node(&self, var: VarId, row: usize) -> NodeId {
        let i = self.col_idx(var).expect("variable not in relation schema");
        NodeId::new(self.docs[i], self.cols[i][row])
    }

    /// Distinct nodes of `var`'s column, sorted in document order — the
    /// paper's `T(v)` as a projection of the component relation.
    pub fn distinct_nodes(&self, var: VarId) -> Vec<Pre> {
        let mut nodes = self.col(var).to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Append one row; `row` must be parallel to the schema.
    pub fn push_row(&mut self, row: &[Pre]) {
        debug_assert_eq!(row.len(), self.schema.len());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Keep only the rows whose index satisfies `keep`.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        for col in &mut self.cols {
            let mut i = 0;
            col.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
        }
    }

    /// Project onto `vars` (clones the columns, preserves row order and
    /// multiplicity).
    pub fn project(&self, vars: &[VarId]) -> Relation {
        let idx: Vec<usize> = vars
            .iter()
            .map(|&v| self.col_idx(v).expect("projection variable not in schema"))
            .collect();
        Relation {
            schema: vars.to_vec(),
            docs: idx.iter().map(|&i| self.docs[i]).collect(),
            cols: idx.iter().map(|&i| self.cols[i].clone()).collect(),
        }
    }

    /// Sort rows lexicographically by the given variables (document order
    /// per column) — the `τ` numbering/sort of the plan tail.
    pub fn sort_by(&mut self, vars: &[VarId]) {
        let key_cols: Vec<usize> = vars
            .iter()
            .map(|&v| self.col_idx(v).expect("sort variable not in schema"))
            .collect();
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by(|&a, &b| {
            for &k in &key_cols {
                let ord = self.cols[k][a as usize].cmp(&self.cols[k][b as usize]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.reorder(&order);
    }

    /// Gather every column through a row-index permutation (or subset).
    fn reorder(&mut self, order: &[u32]) {
        for col in &mut self.cols {
            let new_col: Vec<Pre> = order.iter().map(|&i| col[i as usize]).collect();
            *col = new_col;
        }
    }

    /// Compare two rows over the full schema.
    fn rows_cmp(&self, a: u32, b: u32) -> std::cmp::Ordering {
        for col in &self.cols {
            let ord = col[a as usize].cmp(&col[b as usize]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Remove duplicate rows with respect to the full schema (the plan
    /// tail's `δ`). Keeps the first occurrence; row order is otherwise
    /// preserved. Sort-based: no per-row hashing or row materialization.
    pub fn distinct(&mut self) {
        let n = self.len();
        if n <= 1 {
            return;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.rows_cmp(a, b).then(a.cmp(&b)));
        let mut keep = vec![false; n];
        let mut i = 0;
        while i < n {
            // Rows of one equal-run are index-sorted, so the run's first
            // entry is the row's first occurrence.
            keep[order[i] as usize] = true;
            let mut j = i + 1;
            while j < n && self.rows_cmp(order[i], order[j]) == std::cmp::Ordering::Equal {
                j += 1;
            }
            i = j;
        }
        self.retain_rows(&keep);
    }

    /// Uniform without-replacement sample of `amount` rows (row order
    /// preserved).
    pub fn sample_rows<R: Rng + ?Sized>(&self, rng: &mut R, amount: usize) -> Relation {
        if amount >= self.len() {
            return self.clone();
        }
        let mut idx: Vec<usize> = rand::seq::index::sample(rng, self.len(), amount).into_vec();
        idx.sort_unstable();
        let cols = self
            .cols
            .iter()
            .map(|col| idx.iter().map(|&i| col[i]).collect())
            .collect();
        Relation {
            schema: self.schema.clone(),
            docs: self.docs.clone(),
            cols,
        }
    }

    /// Natural composition through a node-level pair list: every
    /// `(a, b)` in `pairs` matches left rows with `col(var_a) == a` against
    /// right rows with `col(var_b) == b`; output rows are the concatenation
    /// of the left and right bindings.
    ///
    /// This is how the evaluator turns a node-level structural or value
    /// join into the component-level join while preserving multiplicities.
    /// Row matching goes through a sorted index per side (node → rows, one
    /// binary search per lookup), and output rows are produced as one
    /// **gather per column** — never row by row.
    pub fn compose(
        left: &Relation,
        var_a: VarId,
        right: &Relation,
        var_b: VarId,
        pairs: &[(Pre, Pre)],
    ) -> Relation {
        let left_index = RowIndex::build(left.col(var_a));
        let right_index = RowIndex::build(right.col(var_b));
        // Matched row-index pairs, flat: (left row, right row) per output
        // row, in pair order × left-row order × right-row order.
        let mut lrows = Vec::new();
        let mut rrows = Vec::new();
        for &(a, b) in pairs {
            let ls = left_index.rows(a);
            let rs = right_index.rows(b);
            if ls.is_empty() || rs.is_empty() {
                continue;
            }
            for &li in ls {
                for &ri in rs {
                    lrows.push(li);
                    rrows.push(ri);
                }
            }
        }
        let mut schema = Vec::with_capacity(left.schema.len() + right.schema.len());
        schema.extend_from_slice(&left.schema);
        schema.extend_from_slice(&right.schema);
        let mut docs = Vec::with_capacity(schema.len());
        docs.extend_from_slice(&left.docs);
        docs.extend_from_slice(&right.docs);
        let mut cols = Vec::with_capacity(schema.len());
        for col in &left.cols {
            cols.push(gather(col, &lrows));
        }
        for col in &right.cols {
            cols.push(gather(col, &rrows));
        }
        Relation { schema, docs, cols }
    }

    /// Extend this relation with a new attribute through row-level pairs
    /// `(row index, node)` — the output of a step/value join executed with
    /// this relation's `var` column as context. `new_doc` is the document
    /// the new attribute's nodes live in.
    pub fn expand(&self, pairs: &[(u32, Pre)], new_var: VarId, new_doc: DocId) -> Relation {
        let mut schema = self.schema.clone();
        schema.push(new_var);
        let mut docs = self.docs.clone();
        docs.push(new_doc);
        let mut cols: Vec<Vec<Pre>> = self
            .cols
            .iter()
            .map(|col| pairs.iter().map(|&(row, _)| col[row as usize]).collect())
            .collect();
        cols.push(pairs.iter().map(|&(_, node)| node).collect());
        Relation { schema, docs, cols }
    }

    /// Cartesian product: every row of `a` against every row of `b` (used
    /// only to combine genuinely unconstrained components). Column-wise:
    /// `a`'s columns repeat each element `b.len()` times, `b`'s columns
    /// repeat whole `a.len()` times.
    pub fn cartesian(a: &Relation, b: &Relation) -> Relation {
        let mut schema = a.schema.clone();
        schema.extend_from_slice(&b.schema);
        let mut docs = a.docs.clone();
        docs.extend_from_slice(&b.docs);
        let (an, bn) = (a.len(), b.len());
        let mut cols = Vec::with_capacity(schema.len());
        for col in &a.cols {
            let mut out = Vec::with_capacity(an * bn);
            for &v in col {
                out.extend(std::iter::repeat_n(v, bn));
            }
            cols.push(out);
        }
        for col in &b.cols {
            let mut out = Vec::with_capacity(an * bn);
            for _ in 0..an {
                out.extend_from_slice(col);
            }
            cols.push(out);
        }
        Relation { schema, docs, cols }
    }
}

/// Gather `col` through a row-index list into a fresh output column.
fn gather(col: &[Pre], rows: &[Pre]) -> Vec<Pre> {
    rows.iter().map(|&i| col[i as usize]).collect()
}

/// A node → row-indexes multimap over one column: the hash-free
/// replacement for `HashMap<NodeId, Vec<u32>>` in [`Relation::compose`].
/// Sorted `(node, row)` pairs split into two parallel arrays, with
/// binary-searched group lookups. The build is sized by the rows joined,
/// never by the document's pre universe, and the columns it indexes
/// arrive almost sorted, so the sort is near-linear. Groups keep
/// insertion (row) order — sorting `(node, row)` ties rows ascending —
/// and lookups of absent nodes return the empty slice.
struct RowIndex {
    /// Column values, sorted; parallel to `rows`.
    keys: Vec<Pre>,
    /// Row indexes, ascending within one key's run.
    rows: Vec<Pre>,
}

impl RowIndex {
    fn build(col: &[Pre]) -> RowIndex {
        let mut pairs: Vec<(Pre, Pre)> = col
            .iter()
            .enumerate()
            .map(|(row, &p)| (p, row as Pre))
            .collect();
        pairs.sort_unstable();
        let (keys, rows) = pairs.into_iter().unzip();
        RowIndex { keys, rows }
    }

    #[inline]
    fn rows(&self, p: Pre) -> &[Pre] {
        let start = self.keys.partition_point(|&k| k < p);
        let end = start + self.keys[start..].partition_point(|&k| k == p);
        &self.rows[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DocId = DocId(0);

    fn rel(var: VarId, pres: &[u32]) -> Relation {
        Relation::single(var, D, pres.to_vec())
    }

    #[test]
    fn single_and_basics() {
        let r = rel(1, &[3, 5, 5]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema(), &[1]);
        assert_eq!(r.doc_of(1), D);
        assert_eq!(r.distinct_nodes(1), vec![3, 5]);
        assert_eq!(r.node(1, 0), rox_xmldb::NodeId::new(D, 3));
    }

    #[test]
    fn expand_adds_column_with_multiplicity() {
        let r = rel(1, &[3, 5]);
        let pairs = vec![(0u32, 10), (0u32, 11), (1u32, 12)];
        let e = r.expand(&pairs, 2, DocId(7));
        assert_eq!(e.schema(), &[1, 2]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.col(1), &[3, 3, 5]);
        assert_eq!(e.col(2), &[10, 11, 12]);
        assert_eq!(e.doc_of(2), DocId(7));
    }

    #[test]
    fn compose_cross_multiplies_matching_rows() {
        // left has node 3 twice.
        let left = rel(1, &[3, 3, 5]);
        let right = rel(2, &[7, 8]);
        let pairs = vec![(3, 7), (5, 8)];
        let j = Relation::compose(&left, 1, &right, 2, &pairs);
        assert_eq!(j.schema(), &[1, 2]);
        assert_eq!(j.len(), 3); // (3,7) ×2 + (5,8)
        assert_eq!(j.col(1), &[3, 3, 5]);
        assert_eq!(j.col(2), &[7, 7, 8]);
    }

    #[test]
    fn compose_ignores_pairs_without_rows() {
        let left = rel(1, &[3]);
        let right = rel(2, &[7]);
        let pairs = vec![(4, 7), (3, 9)];
        let j = Relation::compose(&left, 1, &right, 2, &pairs);
        assert!(j.is_empty());
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let mut r = rel(1, &[3, 3, 5, 3]);
        r.distinct();
        assert_eq!(r.col(1), &[3, 5]);
    }

    #[test]
    fn distinct_keeps_first_occurrence_order() {
        let mut r = Relation::empty(vec![1, 2], vec![D, D]);
        r.push_row(&[5, 1]);
        r.push_row(&[3, 9]);
        r.push_row(&[5, 1]); // dup of row 0
        r.push_row(&[3, 8]);
        r.push_row(&[3, 9]); // dup of row 1
        r.distinct();
        assert_eq!(r.col(1), &[5, 3, 3]);
        assert_eq!(r.col(2), &[1, 9, 8]);
    }

    #[test]
    fn sort_by_orders_rows() {
        let mut r = Relation::empty(vec![1, 2], vec![D, D]);
        r.push_row(&[5, 1]);
        r.push_row(&[3, 9]);
        r.push_row(&[5, 0]);
        r.sort_by(&[1, 2]);
        assert_eq!(r.col(1), &[3, 5, 5]);
        assert_eq!(r.col(2), &[9, 0, 1]);
    }

    #[test]
    fn project_clones_columns() {
        let mut r = Relation::empty(vec![1, 2], vec![D, DocId(3)]);
        r.push_row(&[5, 1]);
        let p = r.project(&[2]);
        assert_eq!(p.schema(), &[2]);
        assert_eq!(p.col(2), &[1]);
        assert_eq!(p.doc_of(2), DocId(3));
    }

    #[test]
    fn retain_rows_filters() {
        let mut r = rel(1, &[1, 2, 3, 4]);
        r.retain_rows(&[true, false, true, false]);
        assert_eq!(r.col(1), &[1, 3]);
    }

    #[test]
    fn cartesian_repeats_in_row_major_order() {
        let a = rel(1, &[1, 2]);
        let b = rel(2, &[8, 9]);
        let c = Relation::cartesian(&a, &b);
        assert_eq!(c.col(1), &[1, 1, 2, 2]);
        assert_eq!(c.col(2), &[8, 9, 8, 9]);
    }

    #[test]
    fn sample_rows_is_subset() {
        let r = rel(1, &(0..100).collect::<Vec<_>>());
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = r.sample_rows(&mut rng, 10);
        assert_eq!(s.len(), 10);
    }
}
