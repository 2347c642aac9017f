use crate::{DataError, SparseInstance};

/// A borrowed view of one row of a [`Dataset`]: the nonzero entries of a
/// sparse instance, without copying. The default view is an empty row.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowView<'a> {
    indices: &'a [u32],
    values: &'a [f32],
}

impl<'a> RowView<'a> {
    /// Sorted feature indices of the nonzero entries.
    pub fn indices(&self) -> &'a [u32] {
        self.indices
    }

    /// Values parallel to [`Self::indices`].
    pub fn values(&self) -> &'a [f32] {
        self.values
    }

    /// Number of nonzero entries in this row.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterates `(feature, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + 'a {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Value of feature `f`, or `0.0` when absent.
    pub fn get(&self, f: u32) -> f32 {
        match self.indices.binary_search(&f) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Copies this view into an owned [`SparseInstance`].
    pub fn to_instance(&self) -> SparseInstance {
        SparseInstance::new(self.indices.to_vec(), self.values.to_vec())
            .expect("dataset rows are validated on insertion")
    }
}

/// Per-feature summary statistics, used for sketch seeding and sanity checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Smallest nonzero value observed (or `f32::INFINITY` if the column is
    /// entirely zero).
    pub min: f32,
    /// Largest nonzero value observed (or `f32::NEG_INFINITY`).
    pub max: f32,
    /// Number of rows with a nonzero entry in this column.
    pub nnz: usize,
}

impl Default for ColumnStats {
    fn default() -> Self {
        Self {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            nnz: 0,
        }
    }
}

/// A labelled sparse dataset in CSR (compressed sparse row) layout.
///
/// Rows are training instances, columns are features. The CSR layout keeps
/// every worker's shard in three flat arrays, which is what makes the
/// sparsity-aware histogram pass of Algorithm 2 a linear scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    labels: Vec<f32>,
    num_features: usize,
}

impl Dataset {
    /// An empty dataset with the given dimensionality.
    pub fn empty(num_features: usize) -> Self {
        Self {
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            labels: Vec::new(),
            num_features,
        }
    }

    /// Builds a dataset from owned instances and labels.
    pub fn from_instances(
        instances: &[SparseInstance],
        labels: Vec<f32>,
        num_features: usize,
    ) -> Result<Self, DataError> {
        if instances.len() != labels.len() {
            return Err(DataError::LengthMismatch {
                what: "instances/labels",
                left: instances.len(),
                right: labels.len(),
            });
        }
        let mut builder = DatasetBuilder::new(num_features);
        for (inst, &label) in instances.iter().zip(&labels) {
            builder.push_instance(inst, label)?;
        }
        builder.finish()
    }

    /// Wraps CSR arrays a reader filled itself. They must hold what
    /// [`DatasetBuilder::push_raw`] would have let in: strictly increasing
    /// indices below `num_features` within each row, no zero values.
    pub(crate) fn from_csr(
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
        labels: Vec<f32>,
        num_features: usize,
    ) -> Self {
        debug_assert_eq!(indptr.len(), labels.len() + 1);
        debug_assert_eq!(indptr.last(), Some(&indices.len()));
        debug_assert_eq!(indices.len(), values.len());
        Self {
            indptr,
            indices,
            values,
            labels,
            num_features,
        }
    }

    /// Number of rows (instances).
    pub fn num_rows(&self) -> usize {
        self.labels.len()
    }

    /// Declared dimensionality (number of features, including all-zero ones).
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total number of stored nonzero entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Average nonzeros per row (the paper's `z`).
    pub fn avg_nnz(&self) -> f64 {
        if self.num_rows() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.num_rows() as f64
        }
    }

    /// Fraction of the dense matrix that is nonzero.
    pub fn density(&self) -> f64 {
        let cells = self.num_rows() * self.num_features;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Borrowed view of row `i`.
    pub fn row(&self, i: usize) -> RowView<'_> {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        RowView {
            indices: &self.indices[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> f32 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Iterates `(row view, label)` over all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (RowView<'_>, f32)> {
        (0..self.num_rows()).map(move |i| (self.row(i), self.label(i)))
    }

    /// Restricts the dataset to the first `m` features, dropping entries with
    /// larger indices. This is exactly how the paper derives Gender-10K /
    /// Gender-100K from the full Gender dataset (Section 7.3.4).
    pub fn restrict_features(&self, m: usize) -> Self {
        let mut builder = DatasetBuilder::new(m);
        for (row, label) in self.iter_rows() {
            let cut = row.indices.partition_point(|&f| (f as usize) < m);
            builder
                .push_raw(&row.indices[..cut], &row.values[..cut], label)
                .expect("restricting a valid dataset cannot fail");
        }
        builder
            .finish()
            .expect("restricting a valid dataset cannot fail")
    }

    /// Copies the selected rows into a new dataset (used for partitioning and
    /// train/test splits). Row order follows `rows`. The rows are already
    /// valid, so each is one slice copy into arrays sized up front.
    pub fn subset(&self, rows: &[usize]) -> Self {
        let span = |i: usize| self.indptr[i]..self.indptr[i + 1];
        let nnz = rows.iter().map(|&i| span(i).len()).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for &i in rows {
            indices.extend_from_slice(&self.indices[span(i)]);
            values.extend_from_slice(&self.values[span(i)]);
            indptr.push(indices.len());
        }
        Self {
            indptr,
            indices,
            values,
            labels: rows.iter().map(|&i| self.labels[i]).collect(),
            num_features: self.num_features,
        }
    }

    /// Per-column min/max/nnz statistics over nonzero entries.
    pub fn column_stats(&self) -> Vec<ColumnStats> {
        let mut stats = vec![ColumnStats::default(); self.num_features];
        for (&f, &v) in self.indices.iter().zip(&self.values) {
            let s = &mut stats[f as usize];
            s.min = s.min.min(v);
            s.max = s.max.max(v);
            s.nnz += 1;
        }
        stats
    }

    /// Approximate in-memory footprint in bytes (CSR arrays + labels).
    pub fn memory_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
            + self.labels.len() * std::mem::size_of::<f32>()
    }
}

/// A borrowed view of one feature of a [`ColumnView`]: the rows holding a
/// nonzero there, ascending, and their values.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    rows: &'a [u32],
    values: &'a [f32],
}

impl<'a> Column<'a> {
    /// Ids of the rows with a nonzero entry, strictly ascending.
    pub fn rows(&self) -> &'a [u32] {
        self.rows
    }

    /// Values parallel to [`Self::rows`] — the column's nonzeros in row
    /// order.
    pub fn values(&self) -> &'a [f32] {
        self.values
    }
}

/// The transpose of a [`Dataset`]'s nonzeros (CSC): per feature, the rows
/// holding it in ascending order and their values. What reads one feature
/// across many rows — a quantile sketch, a node split — walks one
/// contiguous column instead of searching every row for it. Costs 8 bytes
/// per nonzero next to the CSR it was built from.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnView {
    colptr: Vec<usize>,
    rows: Vec<u32>,
    values: Vec<f32>,
}

impl ColumnView {
    /// Transposes `dataset` in two passes over its nonzeros (count, place).
    pub fn build(dataset: &Dataset) -> Self {
        let mut colptr = vec![0usize; dataset.num_features + 1];
        for &f in &dataset.indices {
            colptr[f as usize + 1] += 1;
        }
        for f in 0..dataset.num_features {
            colptr[f + 1] += colptr[f];
        }
        let mut next = colptr.clone();
        let mut rows = vec![0u32; dataset.nnz()];
        let mut values = vec![0.0f32; dataset.nnz()];
        // Rows are visited in ascending order, so every column fills
        // ascending.
        for (i, span) in dataset.indptr.windows(2).enumerate() {
            let entries = span[0]..span[1];
            for (&f, &v) in dataset.indices[entries.clone()]
                .iter()
                .zip(&dataset.values[entries])
            {
                let at = &mut next[f as usize];
                rows[*at] = i as u32;
                values[*at] = v;
                *at += 1;
            }
        }
        Self {
            colptr,
            rows,
            values,
        }
    }

    /// Number of features (columns), all-zero ones included.
    pub fn num_features(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Column of feature `f`; empty for a feature no row holds, which
    /// includes any `f` past the dimensionality (as [`RowView::get`] reads
    /// `0.0` there).
    pub fn column(&self, f: usize) -> Column<'_> {
        let (lo, hi) = match f < self.num_features() {
            true => (self.colptr[f], self.colptr[f + 1]),
            false => (0, 0),
        };
        Column {
            rows: &self.rows[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// In-memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.colptr.len() * std::mem::size_of::<usize>()
            + self.rows.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f32>()
    }
}

/// Incremental [`Dataset`] constructor.
#[derive(Debug)]
pub struct DatasetBuilder {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    labels: Vec<f32>,
    num_features: usize,
}

impl DatasetBuilder {
    /// Starts an empty builder for `num_features`-dimensional data.
    pub fn new(num_features: usize) -> Self {
        Self {
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            labels: Vec::new(),
            num_features,
        }
    }

    /// Pre-allocates for an expected number of rows and nonzeros.
    pub fn with_capacity(num_features: usize, rows: usize, nnz: usize) -> Self {
        let mut b = Self::new(num_features);
        b.indptr.reserve(rows);
        b.labels.reserve(rows);
        b.indices.reserve(nnz);
        b.values.reserve(nnz);
        b
    }

    /// Appends a validated sparse instance.
    pub fn push_instance(&mut self, inst: &SparseInstance, label: f32) -> Result<(), DataError> {
        self.push_raw(inst.indices(), inst.values(), label)
    }

    /// Appends a row from raw parallel slices, validating order and range.
    pub fn push_raw(
        &mut self,
        indices: &[u32],
        values: &[f32],
        label: f32,
    ) -> Result<(), DataError> {
        if indices.len() != values.len() {
            return Err(DataError::LengthMismatch {
                what: "indices/values",
                left: indices.len(),
                right: values.len(),
            });
        }
        for (pos, w) in indices.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(DataError::UnsortedIndices { position: pos + 1 });
            }
        }
        if let Some(&last) = indices.last() {
            if last as usize >= self.num_features {
                return Err(DataError::FeatureOutOfRange {
                    index: last,
                    num_features: self.num_features,
                });
            }
        }
        for (&i, &v) in indices.iter().zip(values) {
            if v != 0.0 {
                self.indices.push(i);
                self.values.push(v);
            }
        }
        self.indptr.push(self.indices.len());
        self.labels.push(label);
        Ok(())
    }

    /// Number of rows accumulated so far.
    pub fn num_rows(&self) -> usize {
        self.labels.len()
    }

    /// Finalizes the dataset.
    pub fn finish(self) -> Result<Dataset, DataError> {
        Ok(Dataset {
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
            labels: self.labels,
            num_features: self.num_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // 3 rows, 5 features.
        let insts = vec![
            SparseInstance::new(vec![0, 2], vec![1.0, 2.0]).unwrap(),
            SparseInstance::new(vec![1], vec![-1.0]).unwrap(),
            SparseInstance::new(vec![2, 4], vec![0.5, 3.0]).unwrap(),
        ];
        Dataset::from_instances(&insts, vec![1.0, 0.0, 1.0], 5).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let ds = toy();
        assert_eq!(ds.num_rows(), 3);
        assert_eq!(ds.num_features(), 5);
        assert_eq!(ds.nnz(), 5);
        assert!((ds.avg_nnz() - 5.0 / 3.0).abs() < 1e-12);
        assert!((ds.density() - 5.0 / 15.0).abs() < 1e-12);
        assert_eq!(ds.row(0).get(2), 2.0);
        assert_eq!(ds.row(1).get(0), 0.0);
        assert_eq!(ds.label(2), 1.0);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = DatasetBuilder::new(3);
        let err = b.push_raw(&[5], &[1.0], 0.0).unwrap_err();
        assert!(matches!(
            err,
            DataError::FeatureOutOfRange {
                index: 5,
                num_features: 3
            }
        ));
    }

    #[test]
    fn builder_rejects_unsorted() {
        let mut b = DatasetBuilder::new(10);
        let err = b.push_raw(&[4, 2], &[1.0, 1.0], 0.0).unwrap_err();
        assert!(matches!(err, DataError::UnsortedIndices { .. }));
    }

    #[test]
    fn from_instances_rejects_label_mismatch() {
        let insts = vec![SparseInstance::empty()];
        let err = Dataset::from_instances(&insts, vec![], 1).unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }));
    }

    #[test]
    fn restrict_features_drops_high_indices() {
        let ds = toy().restrict_features(2);
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.num_rows(), 3);
        assert_eq!(ds.row(0).nnz(), 1); // feature 2 dropped
        assert_eq!(ds.row(2).nnz(), 0); // features 2, 4 dropped
        assert_eq!(ds.labels(), toy().labels());
    }

    #[test]
    fn subset_preserves_rows_in_order() {
        let ds = toy();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.label(0), 1.0);
        assert_eq!(sub.row(0).get(4), 3.0);
        assert_eq!(sub.row(1).get(0), 1.0);
    }

    #[test]
    fn column_stats_cover_nonzeros() {
        let stats = toy().column_stats();
        assert_eq!(stats[2].nnz, 2);
        assert_eq!(stats[2].min, 0.5);
        assert_eq!(stats[2].max, 2.0);
        assert_eq!(stats[3].nnz, 0);
    }

    #[test]
    fn column_view_is_the_transpose() {
        let ds = toy();
        let view = ColumnView::build(&ds);
        assert_eq!(view.num_features(), 5);
        let col = |f| {
            (
                view.column(f).rows().to_vec(),
                view.column(f).values().to_vec(),
            )
        };
        assert_eq!(col(0), (vec![0], vec![1.0]));
        assert_eq!(col(1), (vec![1], vec![-1.0]));
        assert_eq!(col(2), (vec![0, 2], vec![2.0, 0.5]));
        assert_eq!(col(3), (vec![], vec![]));
        assert_eq!(col(4), (vec![2], vec![3.0]));
        // Past the dimensionality reads as absent, like `RowView::get`.
        assert_eq!(col(5), (vec![], vec![]));
        assert_eq!(col(usize::MAX), (vec![], vec![]));
        assert_eq!(view.memory_bytes(), 6 * 8 + ds.nnz() * 8);
        let empty = ColumnView::build(&Dataset::empty(3));
        assert!(empty.column(1).rows().is_empty());
    }

    #[test]
    fn zero_values_are_dropped_on_push() {
        let mut b = DatasetBuilder::new(4);
        b.push_raw(&[0, 1, 2], &[1.0, 0.0, 2.0], 0.0).unwrap();
        let ds = b.finish().unwrap();
        assert_eq!(ds.nnz(), 2);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::empty(7);
        assert_eq!(ds.num_rows(), 0);
        assert_eq!(ds.num_features(), 7);
        assert_eq!(ds.avg_nnz(), 0.0);
    }
}
