//! Parallel batch histogram construction (Section 5.2).
//!
//! The node-parallel scheme leaves cores idle near the root ("cold start":
//! one node, one thread). The batch scheme divides a node's instance range
//! into batches of `b` instances, builds partial histograms for batches on
//! `q` threads, and merges. Each thread owns one partial row, so no locks
//! are taken on the hot path.
//!
//! # Deterministic striping
//!
//! Batches are assigned by **static round-robin striping**
//! ([`crate::pool::Striping`], the one owner of the rule): stripe `t`
//! processes batches `t, t + q, t + 2q, …` in ascending order. An earlier
//! version claimed batches from an atomic cursor, which made each thread's
//! f32 partial sum depend on OS scheduling and silently broke the repo's
//! bit-reproducibility guarantee. With striping, each partial row is a pure
//! function of `(instances, threads, batch_size)`, and partials are merged
//! in stripe order ([`merge_partials`], shared with the binned kernel in
//! [`crate::fused`]), so the output is bit-identical across reruns for any
//! fixed configuration. The binned builders and the batch scoring engine in
//! `dimboost-predict` take their batches from the same `Striping`.
//!
//! This is the raw-shard builder: every batch runs Algorithm 2
//! ([`crate::hist_build::build_sparse`]) or the dense pass over the
//! unbinned rows, code separate from the binned kernel — which is why the
//! kernel tests use it as their reference.
//!
//! Across *different* `(threads, batch_size)` the f32 builders only agree to
//! a float-associativity tolerance — the grouping of additions changes. The
//! quantized kernel ([`crate::hist_build::build_quantized`] and
//! `fused::build_layer_quantized`, behind `Optimizations::quantized_hist`)
//! sums fixed-point integers, which are associative, so its histograms — and
//! the resulting model bytes — are bit-identical across **any** thread count
//! and batch size (DESIGN.md §15).
//!
//! The stripes execute on the persistent [`crate::pool`] (one pool per
//! process) rather than per-call scoped threads; `threads` here is the
//! number of *logical stripes*, which the pool's determinism rule keeps
//! independent of its own physical size.

use dimboost_data::Dataset;

use crate::hist_build::{build_dense, build_row_into, build_sparse, new_row};
use crate::loss::GradPair;
use crate::meta::FeatureMeta;
use crate::pool::{self, Striping};

/// Tuning knobs for the batched builder.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Instances per batch (the paper's `b`, default 10 000).
    pub batch_size: usize,
    /// Maximum worker threads (the paper's `q`).
    pub threads: usize,
    /// Use the sparsity-aware inner builder.
    pub sparse: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            batch_size: 10_000,
            threads: 4,
            sparse: true,
        }
    }
}

/// Builds one node's histogram row by processing instance batches in
/// parallel and merging the per-thread partial rows.
pub fn build_row_batched(
    shard: &Dataset,
    instances: &[u32],
    grads: &[GradPair],
    meta: &FeatureMeta,
    config: &BatchConfig,
) -> Vec<f32> {
    let mut out = Vec::new();
    build_row_batched_into(shard, instances, grads, meta, config, &mut out);
    out
}

/// [`build_row_batched`] into a kept buffer (see
/// [`reset_row`](crate::hist_build::reset_row)). A node that fits one batch
/// or one thread — every node of a high-dimensional shard — builds straight
/// into `out`; only a multi-stripe build allocates partial rows.
pub fn build_row_batched_into(
    shard: &Dataset,
    instances: &[u32],
    grads: &[GradPair],
    meta: &FeatureMeta,
    config: &BatchConfig,
    out: &mut Vec<f32>,
) {
    let striping = Striping::new(instances.len(), config.batch_size, config.threads);
    if striping.stripes() == 1 {
        // Single batch or single thread: no parallel machinery.
        return build_row_into(shard, instances, grads, meta, config.sparse, out);
    }
    let partials: Vec<Vec<f32>> = pool::global().run(striping.stripes(), |t| {
        let mut partial = new_row(meta);
        let mut scratch = Vec::new();
        for batch in striping.batches(t) {
            let batch = &instances[batch];
            if config.sparse {
                build_sparse(shard, batch, grads, meta, &mut partial);
            } else {
                build_dense(shard, batch, grads, meta, &mut partial, &mut scratch);
            }
        }
        partial
    });
    merge_partials(partials, out);
}

/// Merges per-stripe partial rows in stripe-index order (the "send once all
/// threads are finished" step): stripe 0's row becomes `out`, the rest are
/// added to it elementwise. The order is fixed, so the merged row is
/// bit-stable.
pub(crate) fn merge_partials(partials: Vec<Vec<f32>>, out: &mut Vec<f32>) {
    let mut iter = partials.into_iter();
    *out = iter.next().expect("at least one partial row");
    for p in iter {
        for (o, v) in out.iter_mut().zip(&p) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist_build::build_row;
    use dimboost_data::synthetic::{generate, SparseGenConfig};
    use dimboost_sketch::SplitCandidates;

    fn setup(n: usize) -> (Dataset, FeatureMeta, Vec<GradPair>) {
        let ds = generate(&SparseGenConfig::new(n, 40, 8, 5));
        let cands: Vec<SplitCandidates> = (0..40)
            .map(|_| SplitCandidates::from_boundaries(vec![0.3, 0.8, 1.4]))
            .collect();
        let meta = FeatureMeta::all_features(&cands);
        let grads: Vec<GradPair> = (0..n)
            .map(|i| GradPair {
                g: ((i % 5) as f32 - 2.0),
                h: 0.5 + (i % 2) as f32,
            })
            .collect();
        (ds, meta, grads)
    }

    // The batched builder is fully deterministic: batches are statically
    // striped (thread t owns batches t, t+q, …) and partials are merged in
    // thread-index order, so for a fixed (instances, threads, batch_size)
    // the output is bit-identical across reruns — pinned exactly by
    // `repeat_runs_are_bit_identical` below. This tolerance exists only for
    // comparing *against the sequential reference*, where f32 associativity
    // differs: striping regroups the additions into per-thread partial
    // sums. With |g| ≤ 2 over ≤ 500 instances the sums stay within ±1000,
    // where reordering error is bounded well below 1e-2; the bound catches
    // real regressions without ever flaking.
    fn assert_rows_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-2, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn batched_equals_sequential_sparse() {
        let (ds, meta, grads) = setup(500);
        let instances: Vec<u32> = (0..500).collect();
        let seq = build_row(&ds, &instances, &grads, &meta, true);
        for threads in [1, 2, 4, 8] {
            for batch_size in [7, 64, 100, 1000] {
                let cfg = BatchConfig {
                    batch_size,
                    threads,
                    sparse: true,
                };
                let par = build_row_batched(&ds, &instances, &grads, &meta, &cfg);
                if threads == 1 || batch_size >= instances.len() {
                    // Single thread (or a single batch) adds in the exact
                    // same order as the sequential builder: bit-equal.
                    assert_eq!(par, seq, "threads={threads} batch={batch_size}");
                } else {
                    assert_rows_close(&par, &seq);
                }
            }
        }
    }

    // Pins the headline invariant of static striping: for a fixed
    // configuration the builder's output is bit-identical across reruns,
    // for every thread count — no tolerance, exact f32 bit equality.
    #[test]
    fn repeat_runs_are_bit_identical() {
        let (ds, meta, grads) = setup(500);
        let instances: Vec<u32> = (0..500).collect();
        for threads in [2, 4, 8] {
            for sparse in [true, false] {
                let cfg = BatchConfig {
                    batch_size: 37,
                    threads,
                    sparse,
                };
                let first = build_row_batched(&ds, &instances, &grads, &meta, &cfg);
                for _ in 0..10 {
                    let again = build_row_batched(&ds, &instances, &grads, &meta, &cfg);
                    assert_eq!(again, first, "threads={threads} sparse={sparse}");
                }
            }
        }
    }

    #[test]
    fn batched_equals_sequential_dense() {
        let (ds, meta, grads) = setup(200);
        let instances: Vec<u32> = (0..200).collect();
        let seq = build_row(&ds, &instances, &grads, &meta, false);
        let cfg = BatchConfig {
            batch_size: 33,
            threads: 3,
            sparse: false,
        };
        let par = build_row_batched(&ds, &instances, &grads, &meta, &cfg);
        assert_rows_close(&par, &seq);
    }

    #[test]
    fn subset_of_instances() {
        let (ds, meta, grads) = setup(300);
        let instances: Vec<u32> = (100..250).collect();
        let seq = build_row(&ds, &instances, &grads, &meta, true);
        let cfg = BatchConfig {
            batch_size: 20,
            threads: 4,
            sparse: true,
        };
        let par = build_row_batched(&ds, &instances, &grads, &meta, &cfg);
        assert_rows_close(&par, &seq);
    }

    #[test]
    fn empty_instances() {
        let (ds, meta, grads) = setup(10);
        let cfg = BatchConfig::default();
        let row = build_row_batched(&ds, &[], &grads, &meta, &cfg);
        assert!(row.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn rejects_zero_batch_size() {
        let (ds, meta, grads) = setup(10);
        let cfg = BatchConfig {
            batch_size: 0,
            threads: 1,
            sparse: true,
        };
        build_row_batched(&ds, &[0], &grads, &meta, &cfg);
    }
}
