//! Split-candidate proposal from merged quantile sketches.
//!
//! After the parameter server has merged the per-worker sketches of a
//! feature, each worker pulls the merged summary and derives `K` split
//! candidates (the PULL_SKETCH phase). The candidates partition the feature's
//! value range into histogram buckets; Algorithm 2 additionally needs a
//! well-defined **zero bucket** — the bucket that contains the value `0.0` —
//! so `0.0` is always inserted as an explicit boundary.

use serde::{Deserialize, Serialize};

use crate::GkSketch;

/// Split candidates for one feature: a sorted list of distinct boundary
/// values. With `s` boundaries there are `s + 1` buckets; bucket `k` holds
/// values `v` with `splits[k-1] < v <= splits[k]` (bucket `0` is everything
/// `<= splits[0]`, bucket `s` everything `> splits[s-1]`).
///
/// ```
/// use dimboost_sketch::SplitCandidates;
///
/// let c = SplitCandidates::from_boundaries(vec![1.0, 2.0]); // 0.0 inserted
/// assert_eq!(c.splits(), &[0.0, 1.0, 2.0]);
/// assert_eq!(c.num_buckets(), 4);
/// assert_eq!(c.bucket(0.0), c.zero_bucket());
/// assert_eq!(c.bucket(1.5), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitCandidates {
    splits: Vec<f32>,
    zero_bucket: usize,
}

impl SplitCandidates {
    /// Builds candidates from explicit boundaries. `0.0` is inserted if
    /// missing; boundaries are sorted and deduplicated.
    pub fn from_boundaries(mut splits: Vec<f32>) -> Self {
        splits.retain(|v| !v.is_nan());
        if !splits.contains(&0.0) {
            splits.push(0.0);
        }
        splits.sort_unstable_by(f32::total_cmp);
        splits.dedup();
        let zero_bucket = splits.partition_point(|&s| s < 0.0);
        Self {
            splits,
            zero_bucket,
        }
    }

    /// The sorted boundary values.
    pub fn splits(&self) -> &[f32] {
        &self.splits
    }

    /// Number of histogram buckets (`splits.len() + 1`).
    pub fn num_buckets(&self) -> usize {
        self.splits.len() + 1
    }

    /// Index of the bucket containing `0.0` (Algorithm 2's `idx_0`).
    pub fn zero_bucket(&self) -> usize {
        self.zero_bucket
    }

    /// Bucket index for a value: the number of boundaries strictly below `v`.
    /// A value equal to a boundary lands in that boundary's bucket, so the
    /// split predicate "goes left iff `v <= splits[k]`" matches bucket
    /// prefix sums exactly.
    pub fn bucket(&self, v: f32) -> usize {
        bucket_in(&self.splits, v)
    }

    /// The split value tested when splitting between buckets `k` and `k+1`
    /// (i.e. instances go left iff `value <= threshold`).
    pub fn threshold(&self, k: usize) -> f32 {
        self.splits[k]
    }
}

/// Tables up to this long are counted linearly by [`bucket_in`]; longer ones
/// are binary-searched. The paper's `K = 20` candidates (21 boundaries with
/// the mandatory `0.0`) sit well inside it.
const LINEAR_BUCKET_MAX: usize = 32;

/// The bucket of `v` in the sorted, NaN-free boundary table `splits`: the
/// number of boundaries strictly below `v` (what [`SplitCandidates::bucket`]
/// returns, exposed for callers that keep many tables in one flat array).
///
/// Short tables are *counted* — one compare per boundary, no data-dependent
/// branch, so the loop vectorises and never mispredicts. On a sorted table
/// `s < v` is true for a prefix and false after it, so the count equals
/// `partition_point(|s| s < v)`; a NaN `v` compares false everywhere and
/// both give `0`.
#[inline]
pub fn bucket_in(splits: &[f32], v: f32) -> usize {
    if splits.len() <= LINEAR_BUCKET_MAX {
        splits.iter().map(|&s| usize::from(s < v)).sum()
    } else {
        splits.partition_point(|&s| s < v)
    }
}

/// Proposes `k` split candidates for one feature from its merged sketch.
///
/// Candidates are the `i/k` quantiles of the *nonzero* value distribution
/// (workers only feed nonzero entries to sketches — zeros dominate
/// high-dimensional data and carry no rank information), plus the mandatory
/// `0.0` boundary. Duplicate quantiles (heavy-hitter values) collapse, so
/// fewer than `k` boundaries may result.
pub fn propose_candidates(sketch: &mut GkSketch, k: usize) -> SplitCandidates {
    assert!(k >= 1, "need at least one split candidate");
    if sketch.is_empty() {
        return SplitCandidates::from_boundaries(Vec::new());
    }
    let mut boundaries = Vec::with_capacity(k + 1);
    for i in 1..=k {
        let phi = i as f64 / k as f64;
        if let Some(q) = sketch.query(phi) {
            boundaries.push(q);
        }
    }
    SplitCandidates::from_boundaries(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_always_a_boundary() {
        let c = SplitCandidates::from_boundaries(vec![1.0, 2.0, 3.0]);
        assert!(c.splits().contains(&0.0));
        assert_eq!(c.zero_bucket(), 0);
        assert_eq!(c.bucket(0.0), 0);
    }

    #[test]
    fn bucket_assignment_with_negatives() {
        let c = SplitCandidates::from_boundaries(vec![-1.0, 0.0, 1.0]);
        // splits: [-1, 0, 1]; buckets: (-inf,-1], (-1,0], (0,1], (1,inf)
        assert_eq!(c.num_buckets(), 4);
        assert_eq!(c.bucket(-2.0), 0);
        assert_eq!(c.bucket(-1.0), 0);
        assert_eq!(c.bucket(-0.5), 1);
        assert_eq!(c.bucket(0.0), 1);
        assert_eq!(c.zero_bucket(), 1);
        assert_eq!(c.bucket(0.5), 2);
        assert_eq!(c.bucket(1.0), 2);
        assert_eq!(c.bucket(5.0), 3);
    }

    #[test]
    fn boundaries_are_sorted_dedup() {
        let c = SplitCandidates::from_boundaries(vec![3.0, 1.0, 3.0, 2.0]);
        assert_eq!(c.splits(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn nan_boundaries_dropped() {
        let c = SplitCandidates::from_boundaries(vec![f32::NAN, 1.0]);
        assert_eq!(c.splits(), &[0.0, 1.0]);
    }

    #[test]
    fn propose_from_uniform_sketch() {
        let mut s = GkSketch::new(0.005);
        s.extend((1..=10_000).map(|i| i as f32));
        let c = propose_candidates(&mut s, 10);
        // Expect boundaries near 1000, 2000, ..., 10000 plus the zero bound.
        assert_eq!(c.num_buckets(), c.splits().len() + 1);
        assert!(c.splits().len() >= 10);
        for (i, &s) in c.splits().iter().skip(1).enumerate() {
            let expected = 1000.0 * (i + 1) as f32;
            assert!(
                (s - expected).abs() <= 100.0,
                "candidate {i} = {s}, expected ~{expected}"
            );
        }
        assert_eq!(c.zero_bucket(), 0);
    }

    #[test]
    fn propose_collapses_duplicates() {
        let mut s = GkSketch::new(0.01);
        s.extend(std::iter::repeat_n(5.0f32, 1000));
        let c = propose_candidates(&mut s, 20);
        assert_eq!(c.splits(), &[0.0, 5.0]);
        assert_eq!(c.num_buckets(), 3);
    }

    #[test]
    fn propose_from_empty_sketch() {
        let mut s = GkSketch::new(0.01);
        let c = propose_candidates(&mut s, 10);
        assert_eq!(c.splits(), &[0.0]);
        assert_eq!(c.num_buckets(), 2);
    }

    #[test]
    fn counted_bucket_equals_partition_point() {
        // Short (counted) and long (searched) tables, with and without
        // negative boundaries, probed on every boundary, just beside each
        // one, both zeros, both infinities and NaN.
        let short: Vec<f32> = vec![-2.5, -1.0, 0.5, 1.0, 7.25];
        let long: Vec<f32> = (0..(LINEAR_BUCKET_MAX as i32 + 9))
            .map(|i| (i - 11) as f32 * 0.75)
            .collect();
        for table in [short, long, Vec::new()] {
            let c = SplitCandidates::from_boundaries(table);
            let splits = c.splits();
            let mut probes = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            for &s in splits {
                probes.extend([s, f32::from_bits(s.to_bits() + 1), s - 1e-3, s + 1e-3]);
            }
            for v in probes {
                let reference = splits.partition_point(|&s| s < v);
                assert_eq!(c.bucket(v), reference, "v={v} in {splits:?}");
                assert_eq!(bucket_in(splits, v), reference);
            }
            assert_eq!(c.bucket(0.0), c.zero_bucket());
            assert_eq!(c.bucket(-0.0), c.zero_bucket());
        }
    }

    #[test]
    fn threshold_matches_bucket_boundary() {
        let c = SplitCandidates::from_boundaries(vec![1.0, 2.0]);
        assert_eq!(c.threshold(0), 0.0);
        assert_eq!(c.threshold(1), 1.0);
        assert_eq!(c.threshold(2), 2.0);
        // "goes left iff v <= threshold(k)" is consistent with bucket():
        // every value in buckets 0..=k satisfies v <= threshold(k).
        for v in [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            let b = c.bucket(v);
            for k in 0..c.splits().len() {
                assert_eq!(v <= c.threshold(k), b <= k, "v={v} k={k}");
            }
        }
    }
}
