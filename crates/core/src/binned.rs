//! Pre-binned histogram construction (extension beyond the paper).
//!
//! Algorithm 2 binary-searches each nonzero value into its bucket on *every*
//! histogram build — once per tree layer. But split candidates are fixed
//! after PULL_SKETCH, so the bucket of a `(feature, value)` pair never
//! changes: it can be resolved once and reused. A [`BinnedShard`] stores,
//! for every nonzero entry of a worker's shard, the direct element offsets
//! of its G/H histogram cells plus its feature's zero-bucket cells, turning
//! the inner loop of histogram construction into four indexed adds with no
//! search at all. LightGBM and XGBoost-hist are built around the same idea.
//!
//! The trade-off is memory (12 bytes per nonzero plus per-feature tables)
//! and a one-time binning pass; it pays off whenever more than one layer of
//! histograms is built, i.e. always.

use dimboost_data::Dataset;

use crate::fused::{accumulate, build_rows_into, Rows};
use crate::loss::GradPair;
use crate::meta::FeatureMeta;

/// A shard with every nonzero entry pre-resolved to histogram offsets.
///
/// ```
/// use dimboost_core::binned::BinnedShard;
/// use dimboost_core::hist_build::{build_row, new_row};
/// use dimboost_core::loss::GradPair;
/// use dimboost_core::FeatureMeta;
/// use dimboost_data::synthetic::{generate, SparseGenConfig};
/// use dimboost_sketch::SplitCandidates;
///
/// let ds = generate(&SparseGenConfig::new(100, 20, 5, 7));
/// let cands: Vec<_> = (0..20)
///     .map(|_| SplitCandidates::from_boundaries(vec![0.5, 1.0]))
///     .collect();
/// let meta = FeatureMeta::all_features(&cands);
/// let grads = vec![GradPair { g: 1.0, h: 0.5 }; 100];
/// let instances: Vec<u32> = (0..100).collect();
///
/// let binned = BinnedShard::build(&ds, &meta);
/// let mut fast = new_row(&meta);
/// binned.build_into(&instances, &grads, &mut fast);
/// // Bit-identical to Algorithm 2, with zero binary searches per build.
/// assert_eq!(fast, build_row(&ds, &instances, &grads, &meta, true));
/// ```
#[derive(Debug, Clone)]
pub struct BinnedShard {
    /// Row pointers into the entry arrays (only sampled-feature nonzeros).
    /// (`pub(crate)`: the layer-fused kernel in [`crate::fused`] walks the
    /// CSR arrays directly.)
    pub(crate) indptr: Vec<usize>,
    /// Direct element offset of the entry's G cell in a histogram row.
    pub(crate) g_elem: Vec<u32>,
    /// Direct element offset of the entry's H cell.
    pub(crate) h_elem: Vec<u32>,
    /// Sampled-feature index of the entry (for the zero-bucket subtraction).
    pub(crate) sf: Vec<u32>,
    /// Per sampled feature: element offset of the zero bucket's G cell.
    pub(crate) zero_g: Vec<u32>,
    /// Per sampled feature: element offset of the zero bucket's H cell.
    pub(crate) zero_h: Vec<u32>,
}

impl BinnedShard {
    /// Bins every sampled-feature nonzero of `shard` against `meta`'s
    /// candidates. One binary search per nonzero, once.
    pub fn build(shard: &Dataset, meta: &FeatureMeta) -> Self {
        let layout = meta.layout();
        let mut indptr = Vec::with_capacity(shard.num_rows() + 1);
        indptr.push(0usize);
        let mut g_elem = Vec::with_capacity(shard.nnz());
        let mut h_elem = Vec::with_capacity(shard.nnz());
        let mut sf_arr = Vec::with_capacity(shard.nnz());
        for (row, _) in shard.iter_rows() {
            for (f, v) in row.iter() {
                if let Some(sf) = meta.sampled_index(f) {
                    let bucket = meta.candidates(sf).bucket(v);
                    g_elem.push(layout.g_index(sf, bucket) as u32);
                    h_elem.push(layout.h_index(sf, bucket) as u32);
                    sf_arr.push(sf as u32);
                }
            }
            indptr.push(g_elem.len());
        }
        let zero_g = (0..meta.num_sampled())
            .map(|sf| layout.g_index(sf, meta.candidates(sf).zero_bucket()) as u32)
            .collect();
        let zero_h = (0..meta.num_sampled())
            .map(|sf| layout.h_index(sf, meta.candidates(sf).zero_bucket()) as u32)
            .collect();
        Self {
            indptr,
            g_elem,
            h_elem,
            sf: sf_arr,
            zero_g,
            zero_h,
        }
    }

    /// False once [`QuantBinned::build_releasing`](crate::hist_build::QuantBinned)
    /// freed the per-entry arrays the f32 builders read.
    pub(crate) fn has_f32_entries(&self) -> bool {
        self.g_elem.len() == self.nnz()
    }

    /// Rows covered by this binned shard.
    pub fn num_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Stored (sampled) nonzero entries.
    pub fn nnz(&self) -> usize {
        self.indptr[self.indptr.len() - 1]
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + (self.g_elem.len() + self.h_elem.len() + self.sf.len()) * 4
            + (self.zero_g.len() + self.zero_h.len()) * 4
    }

    /// Algorithm 2 over pre-resolved offsets, added into `out` (a zeroed
    /// row, or one this builder already added into): identical output to
    /// `hist_build::build_sparse`, no binary searches. The one-slot case of
    /// the [`crate::fused`] f32 kernel.
    pub fn build_into(&self, instances: &[u32], grads: &[GradPair], out: &mut [f32]) {
        let (rows, all) = (Rows::Node(instances), 0..instances.len());
        accumulate(self, rows, all, grads, out.len(), out, &mut [None]);
    }

    /// Batched parallel variant (Section 5.2's scheme over the binned data):
    /// instance batches statically striped over up to `threads` stripes,
    /// bit-identical across reruns for any fixed configuration (see
    /// `crate::fused`).
    pub fn build_row_batched(
        &self,
        instances: &[u32],
        grads: &[GradPair],
        meta: &FeatureMeta,
        batch_size: usize,
        threads: usize,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        let rows = Rows::Node(instances);
        build_rows_into(self, rows, grads, meta, batch_size, threads, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist_build::{build_row, new_row};
    use crate::parallel::{build_row_batched, BatchConfig};
    use dimboost_data::synthetic::{generate, SparseGenConfig};
    use dimboost_sketch::SplitCandidates;

    fn setup(n: usize, m: usize) -> (Dataset, FeatureMeta, Vec<GradPair>) {
        let ds = generate(&SparseGenConfig::new(n, m, 10, 27));
        let cands: Vec<SplitCandidates> = (0..m)
            .map(|f| {
                SplitCandidates::from_boundaries(vec![-0.5, 0.2 + (f % 3) as f32 * 0.3, 1.0, 1.6])
            })
            .collect();
        let meta = FeatureMeta::all_features(&cands);
        let grads: Vec<GradPair> = (0..n)
            .map(|i| GradPair {
                g: ((i % 9) as f32 - 4.0) / 4.0,
                h: 0.1 + (i % 4) as f32 * 0.3,
            })
            .collect();
        (ds, meta, grads)
    }

    #[test]
    fn binned_matches_sparse_builder_exactly() {
        let (ds, meta, grads) = setup(400, 60);
        let binned = BinnedShard::build(&ds, &meta);
        assert_eq!(binned.num_rows(), 400);
        let instances: Vec<u32> = (0..400).collect();
        let reference = build_row(&ds, &instances, &grads, &meta, true);
        let mut out = new_row(&meta);
        binned.build_into(&instances, &grads, &mut out);
        assert_eq!(out, reference, "binned builder must be bit-identical");
    }

    #[test]
    fn binned_matches_on_instance_subsets() {
        let (ds, meta, grads) = setup(300, 40);
        let binned = BinnedShard::build(&ds, &meta);
        for range in [0..100u32, 50..220, 299..300, 0..0] {
            let instances: Vec<u32> = range.collect();
            let reference = build_row(&ds, &instances, &grads, &meta, true);
            let mut out = new_row(&meta);
            binned.build_into(&instances, &grads, &mut out);
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn binned_respects_feature_sampling() {
        let ds = generate(&SparseGenConfig::new(200, 50, 8, 5));
        let cands: Vec<SplitCandidates> = (0..50)
            .map(|_| SplitCandidates::from_boundaries(vec![0.5, 1.2]))
            .collect();
        let sampled = FeatureMeta::sample_features(50, 0.4, 7, 0);
        let meta = FeatureMeta::new(sampled, &cands);
        let binned = BinnedShard::build(&ds, &meta);
        // Binned entries only cover sampled features.
        assert!(binned.nnz() < ds.nnz());
        let grads = vec![GradPair { g: 1.0, h: 0.5 }; 200];
        let instances: Vec<u32> = (0..200).collect();
        let reference = build_row(&ds, &instances, &grads, &meta, true);
        let mut out = new_row(&meta);
        binned.build_into(&instances, &grads, &mut out);
        assert_eq!(out, reference);
    }

    #[test]
    fn batched_binned_bit_equals_raw_batched_algorithm_2() {
        // The raw-shard batched builder runs `build_sparse` per batch under
        // the same striping: separate code, so the binned kernel must match
        // it bit for bit at every (batch, threads), one stripe or many.
        let (ds, meta, grads) = setup(500, 30);
        let binned = BinnedShard::build(&ds, &meta);
        let instances: Vec<u32> = (0..500).filter(|i| i % 5 != 3).collect();
        for (batch_size, threads) in [(64, 4), (100, 2), (7, 8), (1000, 4), (37, 1)] {
            let out = binned.build_row_batched(&instances, &grads, &meta, batch_size, threads);
            let cfg = BatchConfig {
                batch_size,
                threads,
                sparse: true,
            };
            let raw = build_row_batched(&ds, &instances, &grads, &meta, &cfg);
            assert_eq!(out, raw, "batch={batch_size} threads={threads}");
        }
    }

    // Static striping makes the batched binned builder bit-deterministic:
    // reruns with a fixed (instances, threads, batch_size) must agree on
    // every f32 bit, for each multi-threaded configuration.
    #[test]
    fn batched_binned_repeat_runs_bit_identical() {
        let (ds, meta, grads) = setup(500, 30);
        let binned = BinnedShard::build(&ds, &meta);
        let instances: Vec<u32> = (0..500).collect();
        for threads in [2, 4, 8] {
            let first = binned.build_row_batched(&instances, &grads, &meta, 37, threads);
            for _ in 0..10 {
                let again = binned.build_row_batched(&instances, &grads, &meta, 37, threads);
                assert_eq!(again, first, "threads={threads}");
            }
        }
    }

    #[test]
    fn memory_accounting() {
        let (ds, meta, _) = setup(100, 20);
        let binned = BinnedShard::build(&ds, &meta);
        assert!(binned.memory_bytes() >= binned.nnz() * 12);
    }
}
