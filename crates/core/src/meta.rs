//! Per-tree feature metadata: which features were sampled, their split
//! candidates, and the histogram layout derived from them.

use dimboost_ps::split::{best_split_in_range, FinalSplit, PullSplitResult, SplitDecision};
use dimboost_ps::{HistogramLayout, SplitParams};
use dimboost_sketch::{bucket_in, SplitCandidates};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Feature metadata for one tree: the σ-sampled feature subset (Section 2.2,
/// "feature sampling"), each sampled feature's split candidates, and the
/// [`HistogramLayout`] describing one `GradHist` row over them.
///
/// Next to the per-feature objects the metadata keeps a **flat binning
/// table** for the raw sparse builder, which looks a feature up once per
/// nonzero of the shard: one 16-byte [`BinRecord`] per *global* feature id
/// and every sampled feature's boundaries back to back in one array. Going
/// through `map` → `candidates[sf]` → its `Vec`'s heap block → `layout`'s
/// offset and bucket arrays is four dependent loads per nonzero; the record
/// is one, and the boundaries it points at are the only other memory the
/// lookup touches. The table is derived from `candidates`/`layout` in
/// [`FeatureMeta::new`] and says nothing they do not.
#[derive(Debug, Clone)]
pub struct FeatureMeta {
    /// Sorted global ids of the sampled features.
    sampled: Vec<u32>,
    /// Split candidates per sampled feature (parallel to `sampled`).
    candidates: Vec<SplitCandidates>,
    /// Layout of one histogram row over the sampled features.
    layout: HistogramLayout,
    /// Dense map: global feature id → sampled index (`u32::MAX` = absent).
    map: Vec<u32>,
    /// Per global feature id; `buckets == 0` marks a feature not sampled.
    records: Vec<BinRecord>,
    /// Boundaries of all sampled features, in sampled order.
    splits: Vec<f32>,
}

/// Where one feature's buckets live: `[row offset, buckets, zero bucket,
/// splits offset]`. Its G cells start at `row_offset`, its H cells
/// `buckets` later; its `buckets − 1` boundaries start at `splits_offset`.
#[derive(Debug, Clone, Copy, Default)]
struct BinRecord {
    row_offset: u32,
    buckets: u32,
    zero_bucket: u32,
    splits_offset: u32,
}

/// The four row elements Algorithm 2 updates for one nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cells {
    pub g: usize,
    pub h: usize,
    pub zero_g: usize,
    pub zero_h: usize,
}

impl BinRecord {
    #[inline]
    fn cells(self, bucket: usize) -> Cells {
        let (g0, nb, zero) = (
            self.row_offset as usize,
            self.buckets as usize,
            self.zero_bucket as usize,
        );
        Cells {
            g: g0 + bucket,
            h: g0 + nb + bucket,
            zero_g: g0 + zero,
            zero_h: g0 + nb + zero,
        }
    }
}

impl FeatureMeta {
    /// Builds metadata for a set of sampled global features, taking their
    /// candidates from the global per-feature candidate table.
    ///
    /// # Panics
    /// Panics if a sampled id is out of range of the candidate table, or if
    /// the row would not be addressable with 32-bit offsets.
    pub fn new(mut sampled: Vec<u32>, global_candidates: &[SplitCandidates]) -> Self {
        sampled.sort_unstable();
        sampled.dedup();
        let candidates: Vec<SplitCandidates> = sampled
            .iter()
            .map(|&f| global_candidates[f as usize].clone())
            .collect();
        let layout = HistogramLayout::with_zero_buckets(
            candidates.iter().map(|c| c.num_buckets() as u32).collect(),
            candidates.iter().map(|c| c.zero_bucket() as u32).collect(),
        );
        assert!(
            u32::try_from(layout.row_len()).is_ok(),
            "histogram row too long for 32-bit offsets"
        );
        let mut map = vec![u32::MAX; global_candidates.len()];
        let mut records = vec![BinRecord::default(); global_candidates.len()];
        let mut splits = Vec::with_capacity(layout.row_len() / 2);
        for (i, (&f, cand)) in sampled.iter().zip(&candidates).enumerate() {
            map[f as usize] = i as u32;
            records[f as usize] = BinRecord {
                row_offset: layout.g_index(i, 0) as u32,
                buckets: cand.num_buckets() as u32,
                zero_bucket: cand.zero_bucket() as u32,
                splits_offset: splits.len() as u32,
            };
            splits.extend_from_slice(cand.splits());
        }
        Self {
            sampled,
            candidates,
            layout,
            map,
            records,
            splits,
        }
    }

    /// Metadata covering all features (σ = 1).
    pub fn all_features(global_candidates: &[SplitCandidates]) -> Self {
        Self::new(
            (0..global_candidates.len() as u32).collect(),
            global_candidates,
        )
    }

    /// Deterministically samples `⌈σ·M⌉` features for tree `tree_index`.
    /// The leader worker runs this and publishes the result; every worker
    /// reproduces it from the same seed.
    pub fn sample_features(
        num_features: usize,
        ratio: f64,
        seed: u64,
        tree_index: usize,
    ) -> Vec<u32> {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "sampling ratio must be in [0, 1]"
        );
        if ratio >= 1.0 {
            return (0..num_features as u32).collect();
        }
        let take = ((num_features as f64 * ratio).ceil() as usize).clamp(1, num_features);
        let mut rng =
            StdRng::seed_from_u64(seed ^ (tree_index as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut ids: Vec<u32> = (0..num_features as u32).collect();
        ids.shuffle(&mut rng);
        ids.truncate(take);
        ids.sort_unstable();
        ids
    }

    /// Sorted global ids of the sampled features.
    pub fn sampled(&self) -> &[u32] {
        &self.sampled
    }

    /// Number of sampled features.
    pub fn num_sampled(&self) -> usize {
        self.sampled.len()
    }

    /// Candidates of the `sf`-th sampled feature.
    pub fn candidates(&self, sf: usize) -> &SplitCandidates {
        &self.candidates[sf]
    }

    /// The histogram row layout.
    pub fn layout(&self) -> &HistogramLayout {
        &self.layout
    }

    /// Maps a global feature id to its sampled index, if sampled.
    #[inline]
    pub fn sampled_index(&self, global: u32) -> Option<usize> {
        match self.map.get(global as usize) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    /// Bins one nonzero `(global feature, value)` through the flat table:
    /// the row elements its gradient is added to and subtracted from, or
    /// `None` when the feature is not sampled. Same bucket as
    /// `candidates(sf).bucket(v)`, same offsets as `layout()`.
    #[inline]
    pub(crate) fn cells(&self, global: u32, v: f32) -> Option<Cells> {
        let rec = *self.records.get(global as usize)?;
        if rec.buckets == 0 {
            return None;
        }
        let start = rec.splits_offset as usize;
        let splits = &self.splits[start..start + rec.buckets as usize - 1];
        Some(rec.cells(bucket_in(splits, v)))
    }

    /// Each sampled feature's zero-bucket `(G, H)` elements, in sampled
    /// order (Algorithm 2's closing deposit).
    pub(crate) fn zero_cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sampled.iter().map(|&f| {
            let c = self.records[f as usize].cells(0);
            (c.zero_g, c.zero_h)
        })
    }

    /// Maps a sampled index back to the global feature id.
    pub fn global_id(&self, sf: usize) -> u32 {
        self.sampled[sf]
    }

    /// The split threshold tested between buckets `bucket` and `bucket + 1`
    /// of sampled feature `sf`.
    pub fn threshold(&self, sf: usize, bucket: usize) -> f32 {
        self.candidates[sf].threshold(bucket)
    }

    /// Turns what a scan of `node`'s histogram found — a winner named by
    /// sampled index and bucket — into the decision SPLIT_TREE applies,
    /// which names the global feature and the threshold value.
    pub fn resolve(&self, node: u32, found: PullSplitResult) -> SplitDecision {
        let split = found.best.map(|s| FinalSplit {
            feature: self.global_id(s.feature as usize),
            threshold: self.threshold(s.feature as usize, s.bucket as usize),
            gain: s.gain,
            left_g: s.left_g,
            left_h: s.left_h,
            default_left: s.default_left,
        });
        SplitDecision {
            node,
            split,
            total_g: found.total_g,
            total_h: found.total_h,
        }
    }

    /// Algorithm 1's split rule over `node`'s merged whole `row`: the best
    /// split across every sampled feature (node totals taken from the first
    /// feature's buckets), resolved. Every system the paper compares decides
    /// through here, whatever it did to construct and aggregate the row.
    pub fn decide(&self, node: u32, row: &[f32], params: &SplitParams) -> SplitDecision {
        let found = best_split_in_range(row, &self.layout, 0..self.num_sampled(), None, params);
        self.resolve(node, found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(n: usize) -> Vec<SplitCandidates> {
        (0..n)
            .map(|f| SplitCandidates::from_boundaries(vec![f as f32 + 1.0, f as f32 + 2.0]))
            .collect()
    }

    #[test]
    fn all_features_meta() {
        let meta = FeatureMeta::all_features(&cands(4));
        assert_eq!(meta.num_sampled(), 4);
        assert_eq!(meta.sampled(), &[0, 1, 2, 3]);
        assert_eq!(meta.sampled_index(2), Some(2));
        assert_eq!(meta.global_id(3), 3);
        // 3 boundaries (incl. 0) -> 4 buckets per feature -> 8 elems each.
        assert_eq!(meta.layout().row_len(), 4 * 8);
    }

    #[test]
    fn subset_mapping() {
        let meta = FeatureMeta::new(vec![3, 1], &cands(5));
        assert_eq!(meta.sampled(), &[1, 3]);
        assert_eq!(meta.sampled_index(1), Some(0));
        assert_eq!(meta.sampled_index(3), Some(1));
        assert_eq!(meta.sampled_index(0), None);
        assert_eq!(meta.sampled_index(4), None);
        assert_eq!(meta.sampled_index(99), None);
        assert_eq!(meta.global_id(1), 3);
    }

    #[test]
    fn flat_binning_table_agrees_with_candidates_and_layout() {
        let cands: Vec<SplitCandidates> = (0..6)
            .map(|f| {
                let lo = -(f as f32);
                SplitCandidates::from_boundaries(vec![lo, lo / 2.0, 1.0, f as f32 + 1.5])
            })
            .collect();
        let meta = FeatureMeta::new(vec![4, 0, 3], &cands);
        let layout = meta.layout();
        for f in 0..7u32 {
            for v in [-9.0f32, -1.5, -0.0, 0.0, 0.5, 1.0, 4.5, 99.0, f32::NAN] {
                let Some(sf) = meta.sampled_index(f) else {
                    assert_eq!(meta.cells(f, v), None, "feature {f} is not sampled");
                    continue;
                };
                let (bucket, zero) = (
                    meta.candidates(sf).bucket(v),
                    meta.candidates(sf).zero_bucket(),
                );
                let want = Cells {
                    g: layout.g_index(sf, bucket),
                    h: layout.h_index(sf, bucket),
                    zero_g: layout.g_index(sf, zero),
                    zero_h: layout.h_index(sf, zero),
                };
                assert_eq!(meta.cells(f, v), Some(want), "feature {f} value {v}");
            }
        }
        let zeros: Vec<(usize, usize)> = (0..meta.num_sampled())
            .map(|sf| {
                let zero = layout.zero_bucket(sf);
                (layout.g_index(sf, zero), layout.h_index(sf, zero))
            })
            .collect();
        assert_eq!(meta.zero_cells().collect::<Vec<_>>(), zeros);
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let a = FeatureMeta::sample_features(100, 0.3, 7, 2);
        let b = FeatureMeta::sample_features(100, 0.3, 7, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let c = FeatureMeta::sample_features(100, 0.3, 7, 3);
        assert_ne!(a, c, "different trees sample different subsets");
    }

    #[test]
    fn full_ratio_returns_everything() {
        let s = FeatureMeta::sample_features(10, 1.0, 0, 0);
        assert_eq!(s, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn tiny_ratio_keeps_at_least_one() {
        let s = FeatureMeta::sample_features(10, 0.01, 0, 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn threshold_lookup() {
        let meta = FeatureMeta::new(vec![2], &cands(3));
        // feature 2 boundaries: [0.0, 3.0, 4.0]
        assert_eq!(meta.threshold(0, 0), 0.0);
        assert_eq!(meta.threshold(0, 1), 3.0);
        assert_eq!(meta.threshold(0, 2), 4.0);
    }
}
