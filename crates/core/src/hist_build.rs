//! Gradient histogram construction (Section 5.1).
//!
//! Two builders produce bit-identical histograms:
//!
//! * [`build_dense`] — the traditional algorithm: enumerate **every**
//!   (sampled) feature of every instance, `O(M·N)`. This is the baseline the
//!   paper measures against (Table 3's first row).
//! * [`build_sparse`] — Algorithm 2, the sparsity-aware construction:
//!   accumulate the gradient sum of all instances once, touch only nonzero
//!   entries (adding to their bucket and *subtracting* from the zero
//!   bucket), then deposit the accumulated sums into every feature's zero
//!   bucket. `O(z·N + M)` where `z` is the mean nonzeros per instance.
//!
//! Both walk the raw shard and stay separate code from the binned kernels
//! in [`crate::fused`], which the kernel tests pin against them.
//!
//! This module also holds the types of the non-paper **fixed-point integer**
//! accumulation ([`build_quantized`] is its per-node entry; the kernel is
//! [`crate::fused`]'s packed-integer one): gradients are pre-quantized once
//! per tree ([`QuantizedGrads`]) and each histogram cell holds a *packed*
//! G/H code pair in one integer, so integer addition — associative and
//! commutative — replaces float addition and the result is bit-identical
//! under **any** thread count, batch size, or merge order. DESIGN.md §15
//! documents the format and the overflow bounds.

use dimboost_data::Dataset;
use dimboost_ps::quantize::levels;

use crate::binned::BinnedShard;
use crate::fused::{build_rows_quantized_into, Rows};
use crate::loss::GradPair;
use crate::meta::FeatureMeta;

/// Allocates a zeroed histogram row for `meta`'s layout.
pub fn new_row(meta: &FeatureMeta) -> Vec<f32> {
    vec![0.0f32; meta.layout().row_len()]
}

/// Makes a kept buffer a zeroed row for `meta`'s layout — what [`new_row`]
/// would return, without the allocation once the buffer has grown to size.
/// Every `_into` builder starts with this, so a buffer carried from node to
/// node (and from a tree with one sampled feature set to a tree with
/// another) can never leak a stale or short row into a histogram.
pub fn reset_row(meta: &FeatureMeta, out: &mut Vec<f32>) {
    out.clear();
    out.resize(meta.layout().row_len(), 0.0);
}

/// Traditional dense construction: for each instance, walk **all** sampled
/// features (materializing the dense view of the row once) and bin each
/// value. `out` must be a zeroed row of `meta.layout().row_len()`;
/// `scratch` is a reusable dense buffer of `shard.num_features()` values.
pub fn build_dense(
    shard: &Dataset,
    instances: &[u32],
    grads: &[GradPair],
    meta: &FeatureMeta,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let layout = meta.layout();
    debug_assert_eq!(out.len(), layout.row_len());
    scratch.clear();
    scratch.resize(shard.num_features(), 0.0);

    for &i in instances {
        let row = shard.row(i as usize);
        let gp = grads[i as usize];
        // Materialize the dense view of this instance.
        for (f, v) in row.iter() {
            scratch[f as usize] = v;
        }
        // The traditional pass: every sampled feature is examined.
        for sf in 0..meta.num_sampled() {
            let f = meta.global_id(sf);
            let v = scratch[f as usize];
            let bucket = meta.candidates(sf).bucket(v);
            out[layout.g_index(sf, bucket)] += gp.g;
            out[layout.h_index(sf, bucket)] += gp.h;
        }
        // Clear only the touched entries.
        for &f in row.indices() {
            scratch[f as usize] = 0.0;
        }
    }
}

/// Sparsity-aware construction (Algorithm 2): only nonzero entries are
/// binned individually; the zero mass is handled in aggregate.
///
/// Each nonzero is resolved through [`FeatureMeta`]'s flat binning table
/// (one record load, then a counted compare over the feature's boundaries)
/// instead of through the per-feature candidate objects and the layout;
/// the cells updated, their order and the f32 operations on them are the
/// same, so the row is too (pinned against the object walk in the tests).
pub fn build_sparse(
    shard: &Dataset,
    instances: &[u32],
    grads: &[GradPair],
    meta: &FeatureMeta,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), meta.layout().row_len());

    let mut sum_g = 0.0f64;
    let mut sum_h = 0.0f64;
    for &i in instances {
        let gp = grads[i as usize];
        // Line 2-3: accumulate the total gradient mass in the same pass.
        sum_g += gp.g as f64;
        sum_h += gp.h as f64;
        // Lines 4-10: handle nonzero entries individually.
        for (f, v) in shard.row(i as usize).iter() {
            let Some(cells) = meta.cells(f, v) else {
                continue;
            };
            out[cells.g] += gp.g;
            out[cells.h] += gp.h;
            out[cells.zero_g] -= gp.g;
            out[cells.zero_h] -= gp.h;
        }
    }
    // Lines 12-15: deposit the total mass into every zero bucket.
    for (zero_g, zero_h) in meta.zero_cells() {
        out[zero_g] += sum_g as f32;
        out[zero_h] += sum_h as f32;
    }
}

/// Builds a row with the configured strategy, allocating the output.
pub fn build_row(
    shard: &Dataset,
    instances: &[u32],
    grads: &[GradPair],
    meta: &FeatureMeta,
    sparse: bool,
) -> Vec<f32> {
    let mut out = Vec::new();
    build_row_into(shard, instances, grads, meta, sparse, &mut out);
    out
}

/// [`build_row`] into a kept buffer (see [`reset_row`]).
pub fn build_row_into(
    shard: &Dataset,
    instances: &[u32],
    grads: &[GradPair],
    meta: &FeatureMeta,
    sparse: bool,
    out: &mut Vec<f32>,
) {
    reset_row(meta, out);
    if sparse {
        build_sparse(shard, instances, grads, meta, out);
    } else {
        let mut scratch = Vec::new();
        build_dense(shard, instances, grads, meta, out, &mut scratch);
    }
}

// ---------------------------------------------------------------------------
// Quantized integer accumulation (extension; DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Largest magnitude a 16-bit accumulator lane can hold: `i16::MAX`.
///
/// The narrow mode is legal exactly when `rows_in_node · max_code` stays at
/// or below this bound (see [`acc_mode_for`]); one past it must promote to
/// the wide mode.
pub const NARROW_LANE_MAX: u64 = i16::MAX as u64; // 32_767

/// Accumulator cell width for the quantized histogram path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccMode {
    /// `i32` cells with two 16-bit lanes — half the cell traffic, legal only
    /// under the [`NARROW_LANE_MAX`] bound.
    Narrow,
    /// `i64` cells with two 32-bit lanes — always legal under the
    /// [`effective_quant_bits`] row-count guard.
    Wide,
}

/// Overflow promotion rule: the narrow (16-bit-lane) accumulator is chosen
/// iff the worst-case lane magnitude `max_rows · max_code` cannot exceed
/// [`NARROW_LANE_MAX`]; anything larger *could* overflow a lane and promotes
/// to [`AccMode::Wide`]. The bound is exact — a node of `max_rows` rows all
/// quantizing to `±max_code` lands precisely on `max_rows · max_code`.
pub fn acc_mode_for(max_rows: u64, max_code: u32) -> AccMode {
    if max_rows.saturating_mul(max_code as u64) <= NARROW_LANE_MAX {
        AccMode::Narrow
    } else {
        AccMode::Wide
    }
}

/// Per-layer row-count guard for the wide accumulator: demotes the requested
/// bit width until `rows · levels(bits) ≤ i32::MAX`, so a 32-bit lane can
/// never wrap even if every one of `rows` instances quantizes to the extreme
/// code. `bits` never drops below 2 (a 2-bit code has `levels == 1`, safe
/// for any `rows ≤ i32::MAX`, and shards are far smaller than that).
pub fn effective_quant_bits(requested: u8, rows: usize) -> u8 {
    let mut bits = requested.clamp(2, 16);
    while bits > 2 && (rows as u64).saturating_mul(levels(bits) as u64) > i32::MAX as u64 {
        bits -= 1;
    }
    bits
}

/// Per-tree fixed-point gradient/hessian codes.
///
/// Scale derivation mirrors the wire quantizer (`dimboost_ps::quantize`):
/// the scale is the max-abs over the shard's values (same `fold`), and the
/// grid has [`levels`]`(bits)` positive steps. Unlike the wire path the
/// rounding here is **deterministic** round-to-nearest (half away from
/// zero) — stochastic rounding would make histogram bytes depend on RNG
/// consumption order. G and H get independent scales.
#[derive(Debug, Clone)]
pub struct QuantizedGrads {
    g_codes: Vec<i32>,
    h_codes: Vec<i32>,
    g_step: f32,
    h_step: f32,
    bits: u8,
}

impl QuantizedGrads {
    /// Quantizes one shard's gradient pairs at `bits` (callers should first
    /// run the width through [`effective_quant_bits`]).
    pub fn quantize(grads: &[GradPair], bits: u8) -> Self {
        assert!(
            (2..=16).contains(&bits),
            "bit width must be in 2..=16, got {bits}"
        );
        let g_scale = grads.iter().fold(0.0f32, |m, p| m.max(p.g.abs()));
        let h_scale = grads.iter().fold(0.0f32, |m, p| m.max(p.h.abs()));
        let levels_f = levels(bits) as f32;
        let max_code = levels(bits) as i32;
        let code = |v: f32, scale: f32| -> i32 {
            if scale == 0.0 {
                return 0;
            }
            // Deterministic round-to-nearest; `as i32` saturates (and maps
            // NaN to 0) so the clamp is belt-and-braces for |v| ≤ scale.
            ((v / scale * levels_f).round() as i32).clamp(-max_code, max_code)
        };
        Self {
            g_codes: grads.iter().map(|p| code(p.g, g_scale)).collect(),
            h_codes: grads.iter().map(|p| code(p.h, h_scale)).collect(),
            g_step: if g_scale == 0.0 {
                0.0
            } else {
                g_scale / levels_f
            },
            h_step: if h_scale == 0.0 {
                0.0
            } else {
                h_scale / levels_f
            },
            bits,
        }
    }

    /// Bit width the codes were quantized at.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Largest code magnitude: `levels(bits)`.
    pub fn max_code(&self) -> u32 {
        levels(self.bits)
    }

    /// Value of one G code step (`scale / levels`).
    pub fn g_step(&self) -> f32 {
        self.g_step
    }

    /// Value of one H code step.
    pub fn h_step(&self) -> f32 {
        self.h_step
    }

    /// Code pair for row `i`.
    #[inline]
    pub(crate) fn codes(&self, i: usize) -> (i64, i64) {
        (self.g_codes[i] as i64, self.h_codes[i] as i64)
    }
}

/// Pair-offset view of a [`BinnedShard`] for the packed-cell accumulator.
///
/// The f32 layout stores each feature as `[G block][H block]`, so an
/// entry's G and H cells are `num_buckets` apart. The quantized accumulator
/// instead keeps **one packed cell per (feature, bucket)** — `pair_len ==
/// row_len / 2` cells — which halves both the indexed reads (`pair_elem` +
/// `zero_elem` = 8 bytes/entry vs 12) and the read-modify-writes (2 per
/// entry vs 4). This derived index is built once per tree alongside the
/// binned CSR.
#[derive(Debug, Clone)]
pub struct QuantBinned {
    /// Packed-cell offset per CSR entry (parallel to `BinnedShard::g_elem`).
    pub(crate) pair_elem: Vec<u32>,
    /// Zero-bucket cell offset per CSR entry: `zero_pair[sf[e]]` resolved
    /// ahead of time, so the hot loop streams it instead of chasing two
    /// loads per entry.
    pub(crate) zero_elem: Vec<u32>,
    /// Packed-cell offset of each sampled feature's zero bucket.
    pub(crate) zero_pair: Vec<u32>,
    /// Cells per histogram row: `Σ_f num_buckets(f) == row_len / 2`.
    pair_len: usize,
}

impl QuantBinned {
    /// Derives the pair offsets from an already-built binned shard.
    pub fn build(binned: &BinnedShard, meta: &FeatureMeta) -> Self {
        let (pair_of_g, zero_pair, pair_len) = pair_layout(meta);
        Self {
            pair_elem: pair_elems(&binned.g_elem, &pair_of_g),
            zero_elem: zero_elems(&binned.sf, &zero_pair),
            zero_pair,
            pair_len,
        }
    }

    /// [`QuantBinned::build`] for a shard only the integer kernels will read
    /// again: they walk its row pointers and this view, so each of its three
    /// per-entry arrays (12 bytes per nonzero) is freed as soon as the view
    /// no longer needs it — before the next 4 bytes per nonzero are
    /// allocated, not after. The f32 builders must not run on `binned`
    /// afterwards ([`BinnedShard::has_f32_entries`]).
    pub(crate) fn build_releasing(binned: &mut BinnedShard, meta: &FeatureMeta) -> Self {
        let (pair_of_g, zero_pair, pair_len) = pair_layout(meta);
        let pair_elem = pair_elems(&binned.g_elem, &pair_of_g);
        (binned.g_elem, binned.h_elem) = (Vec::new(), Vec::new());
        let zero_elem = zero_elems(&binned.sf, &zero_pair);
        binned.sf = Vec::new();
        Self {
            pair_elem,
            zero_elem,
            zero_pair,
            pair_len,
        }
    }

    /// Packed cells per histogram row (`row_len / 2`).
    pub fn pair_len(&self) -> usize {
        self.pair_len
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.pair_elem.len() + self.zero_elem.len() + self.zero_pair.len()) * 4
    }
}

/// The packed-cell offset of every G cell of `meta`'s f32 layout
/// (`u32::MAX` at the H cells), of each sampled feature's zero bucket, and
/// the number of cells.
fn pair_layout(meta: &FeatureMeta) -> (Vec<u32>, Vec<u32>, usize) {
    let layout = meta.layout();
    // Pair base of feature `sf` is the cumulative bucket count, i.e.
    // exactly `layout.g_index(sf, 0) / 2` — but derive it independently
    // so this never relies on the f32 layout's internal offsets.
    let mut pair_of_g = vec![u32::MAX; layout.row_len()];
    let mut zero_pair = Vec::with_capacity(meta.num_sampled());
    let mut base = 0u32;
    for sf in 0..meta.num_sampled() {
        let nb = layout.num_buckets(sf);
        for k in 0..nb {
            pair_of_g[layout.g_index(sf, k)] = base + k as u32;
        }
        zero_pair.push(base + layout.zero_bucket(sf) as u32);
        base += nb as u32;
    }
    (pair_of_g, zero_pair, base as usize)
}

fn pair_elems(g_elem: &[u32], pair_of_g: &[u32]) -> Vec<u32> {
    let pair = |&g: &u32| {
        let p = pair_of_g[g as usize];
        debug_assert_ne!(p, u32::MAX, "g_elem offset outside any G block");
        p
    };
    g_elem.iter().map(pair).collect()
}

/// Pre-resolving each entry's zero cell (`zero_pair[sf[e]]`) turns the hot
/// loop's data-dependent double load into one streamed read, for 4
/// bytes/entry — the accumulators are memory-bound, so the shorter
/// dependency chain is worth the extra array.
fn zero_elems(sf: &[u32], zero_pair: &[u32]) -> Vec<u32> {
    sf.iter().map(|&sf| zero_pair[sf as usize]).collect()
}

/// A packed G/H accumulator cell: two signed lanes in one integer.
///
/// All arithmetic is wrapping (ring mod 2^ring_bits), which makes the sum
/// of packed values a ring homomorphism: `Σ pack(gᵢ, hᵢ) ≡ pack(ΣG, ΣH)`
/// regardless of any transient lane borrow, so the *final* cell decodes
/// exactly whenever the final lane sums fit their lanes — which the
/// [`acc_mode_for`] / [`effective_quant_bits`] bounds guarantee.
pub(crate) trait PairCell: Copy + Send + 'static {
    const ZERO: Self;
    fn pack(g: i64, h: i64) -> Self;
    fn add(self, other: Self) -> Self;
    fn sub(self, other: Self) -> Self;
    /// Exact lane split: `h` is the sign-extended low lane and `g` is
    /// recovered as `(cell − h) >> lane_bits`, which corrects the borrow a
    /// negative `h` lane takes from the `g` lane (naïve `cell >> lane_bits`
    /// would read `G − 1` whenever `H < 0`).
    fn unpack(self) -> (i64, i64);
}

impl PairCell for i64 {
    const ZERO: Self = 0;
    #[inline]
    fn pack(g: i64, h: i64) -> Self {
        (g << 32).wrapping_add(h)
    }
    #[inline]
    fn add(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
    #[inline]
    fn sub(self, other: Self) -> Self {
        self.wrapping_sub(other)
    }
    #[inline]
    fn unpack(self) -> (i64, i64) {
        let h = (self as i32) as i64;
        let g = self.wrapping_sub(h) >> 32;
        (g, h)
    }
}

impl PairCell for i32 {
    const ZERO: Self = 0;
    #[inline]
    fn pack(g: i64, h: i64) -> Self {
        ((g as i32) << 16).wrapping_add(h as i32)
    }
    #[inline]
    fn add(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
    #[inline]
    fn sub(self, other: Self) -> Self {
        self.wrapping_sub(other)
    }
    #[inline]
    fn unpack(self) -> (i64, i64) {
        let h = (self as i16) as i32;
        let g = self.wrapping_sub(h) >> 16;
        (g as i64, h as i64)
    }
}

/// Per-node quantized histogram build: packed integer accumulation followed
/// by one dequantize pass — the one-slot case of the [`crate::fused`]
/// packed-integer kernel. The integer phase is associative, so the output
/// depends only on the *set* of instances — not on threads, batching, or
/// visit order — and is bit-identical to the layer-fused quantized build.
pub fn build_quantized(
    binned: &BinnedShard,
    qb: &QuantBinned,
    instances: &[u32],
    grads: &QuantizedGrads,
    meta: &FeatureMeta,
    mode: AccMode,
) -> Vec<f32> {
    let mut out = Vec::new();
    let (rows, batch_size) = (Rows::Node(instances), instances.len().max(1));
    build_rows_quantized_into(binned, qb, rows, grads, meta, batch_size, 1, mode, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_data::synthetic::{generate, SparseGenConfig};
    use dimboost_data::SparseInstance;
    use dimboost_sketch::SplitCandidates;

    fn meta_for(ds: &Dataset, boundaries: Vec<f32>) -> FeatureMeta {
        let cands: Vec<SplitCandidates> = (0..ds.num_features())
            .map(|_| SplitCandidates::from_boundaries(boundaries.clone()))
            .collect();
        FeatureMeta::all_features(&cands)
    }

    fn uniform_grads(n: usize, g: f32, h: f32) -> Vec<GradPair> {
        vec![GradPair { g, h }; n]
    }

    /// Algorithm 2 as it was written before the flat binning table: every
    /// nonzero walks `sampled_index` → `candidates` → `layout`. Kept as the
    /// reference `build_sparse` is pinned against.
    fn build_sparse_reference(
        shard: &Dataset,
        instances: &[u32],
        grads: &[GradPair],
        meta: &FeatureMeta,
        out: &mut [f32],
    ) {
        let layout = meta.layout();
        let mut sum_g = 0.0f64;
        let mut sum_h = 0.0f64;
        for &i in instances {
            let gp = grads[i as usize];
            sum_g += gp.g as f64;
            sum_h += gp.h as f64;
            for (f, v) in shard.row(i as usize).iter() {
                let Some(sf) = meta.sampled_index(f) else {
                    continue;
                };
                let cand = meta.candidates(sf);
                let bucket = cand.splits().partition_point(|&s| s < v);
                let zero = cand.zero_bucket();
                out[layout.g_index(sf, bucket)] += gp.g;
                out[layout.h_index(sf, bucket)] += gp.h;
                out[layout.g_index(sf, zero)] -= gp.g;
                out[layout.h_index(sf, zero)] -= gp.h;
            }
        }
        for sf in 0..meta.num_sampled() {
            let zero = meta.candidates(sf).zero_bucket();
            out[layout.g_index(sf, zero)] += sum_g as f32;
            out[layout.h_index(sf, zero)] += sum_h as f32;
        }
    }

    #[test]
    fn flat_table_build_matches_object_walk_bitwise_in_a_reused_buffer() {
        let ds = generate(&SparseGenConfig::new(400, 60, 9, 17));
        let grads = varied_grads(400);
        let cands: Vec<SplitCandidates> = (0..60)
            .map(|f| {
                let k = 1 + f % 5;
                SplitCandidates::from_boundaries(
                    (0..k)
                        .map(|i| (i as f32 - 1.0) * 0.4 + f as f32 * 0.01)
                        .collect(),
                )
            })
            .collect();
        // One buffer through metas of different width (σ < 1 changes the
        // row length every tree) and instance sets of different size.
        let mut buf = vec![f32::NAN; 7];
        for sampled in [
            (0..60).collect::<Vec<u32>>(),
            (0..60).filter(|f| f % 3 != 0).collect(),
            vec![5, 59],
            (0..60).collect(),
        ] {
            let meta = FeatureMeta::new(sampled, &cands);
            for instances in [
                (0..400).collect::<Vec<u32>>(),
                (0..400).filter(|i| i % 7 == 2).collect(),
                Vec::new(),
            ] {
                let mut want = new_row(&meta);
                build_sparse_reference(&ds, &instances, &grads, &meta, &mut want);
                build_row_into(&ds, &instances, &grads, &meta, true, &mut buf);
                assert_eq!(buf.len(), want.len());
                for (a, b) in buf.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                let mut fresh = new_row(&meta);
                build_sparse(&ds, &instances, &grads, &meta, &mut fresh);
                assert_eq!(fresh, buf, "reused, re-zeroed buffer == new_row");
            }
        }
    }

    #[test]
    fn sparse_equals_dense_on_toy_data() {
        let insts = vec![
            SparseInstance::new(vec![0, 2], vec![0.6, -1.5]).unwrap(),
            SparseInstance::new(vec![1], vec![2.0]).unwrap(),
            SparseInstance::empty(),
        ];
        let ds = Dataset::from_instances(&insts, vec![0.0; 3], 3).unwrap();
        let meta = meta_for(&ds, vec![-1.0, 1.0]);
        let grads = vec![
            GradPair { g: 1.0, h: 0.5 },
            GradPair { g: -2.0, h: 1.0 },
            GradPair { g: 3.0, h: 2.0 },
        ];
        let instances: Vec<u32> = vec![0, 1, 2];
        let sparse = build_row(&ds, &instances, &grads, &meta, true);
        let dense = build_row(&ds, &instances, &grads, &meta, false);
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-5, "sparse={sparse:?} dense={dense:?}");
        }
    }

    #[test]
    fn sparse_equals_dense_on_generated_data() {
        let ds = generate(&SparseGenConfig::new(300, 50, 8, 11));
        let meta = meta_for(&ds, vec![0.25, 0.5, 1.0, 1.5]);
        let grads: Vec<GradPair> = (0..300)
            .map(|i| GradPair {
                g: ((i % 7) as f32 - 3.0) / 2.0,
                h: 0.1 + (i % 3) as f32,
            })
            .collect();
        let instances: Vec<u32> = (0..300).collect();
        let sparse = build_row(&ds, &instances, &grads, &meta, true);
        let dense = build_row(&ds, &instances, &grads, &meta, false);
        // Deterministic (fixed generator seed); the tolerance only covers
        // f32 accumulation-order differences between the two passes — the
        // sparse pass reconstructs each zero bucket as `total − Σ nonzero`,
        // so a bucket summing ~300 |g| ≤ 1.5 terms can differ by a few ulp
        // of the partial sums, far below 1e-3.
        for (i, (s, d)) in sparse.iter().zip(&dense).enumerate() {
            assert!((s - d).abs() < 1e-3, "elem {i}: {s} vs {d}");
        }
    }

    #[test]
    fn histogram_totals_equal_gradient_sums_per_feature() {
        let ds = generate(&SparseGenConfig::new(200, 20, 5, 3));
        let meta = meta_for(&ds, vec![0.5, 1.0]);
        let grads = uniform_grads(200, 0.5, 0.25);
        let instances: Vec<u32> = (0..200).collect();
        let row = build_row(&ds, &instances, &grads, &meta, true);
        let layout = meta.layout();
        for sf in 0..meta.num_sampled() {
            let g_total: f32 = (0..layout.num_buckets(sf))
                .map(|k| row[layout.g_index(sf, k)])
                .sum();
            let h_total: f32 = (0..layout.num_buckets(sf))
                .map(|k| row[layout.h_index(sf, k)])
                .sum();
            // The sparse pass cancels each nonzero's ±g against the zero
            // bucket, so per-feature totals should reproduce the exact sums
            // up to f32 cancellation error (sums ≤ 100), well under 1e-2.
            assert!((g_total - 100.0).abs() < 1e-2, "feature {sf}: G={g_total}");
            assert!((h_total - 50.0).abs() < 1e-2, "feature {sf}: H={h_total}");
        }
    }

    #[test]
    fn subset_of_instances_only_counts_those() {
        let ds = generate(&SparseGenConfig::new(100, 10, 4, 9));
        let meta = meta_for(&ds, vec![0.5]);
        let grads = uniform_grads(100, 1.0, 1.0);
        let instances: Vec<u32> = (0..50).collect();
        let row = build_row(&ds, &instances, &grads, &meta, true);
        let layout = meta.layout();
        let g_total: f32 = (0..layout.num_buckets(0))
            .map(|k| row[layout.g_index(0, k)])
            .sum();
        assert!((g_total - 50.0).abs() < 1e-3);
    }

    #[test]
    fn feature_sampling_restricts_row() {
        let insts = vec![SparseInstance::new(vec![0, 1, 2], vec![1.0, 1.0, 1.0]).unwrap()];
        let ds = Dataset::from_instances(&insts, vec![1.0], 3).unwrap();
        let cands: Vec<SplitCandidates> = (0..3)
            .map(|_| SplitCandidates::from_boundaries(vec![0.5]))
            .collect();
        let meta = FeatureMeta::new(vec![1], &cands);
        let grads = uniform_grads(1, 2.0, 1.0);
        let sparse = build_row(&ds, &[0], &grads, &meta, true);
        let dense = build_row(&ds, &[0], &grads, &meta, false);
        assert_eq!(sparse.len(), meta.layout().row_len());
        assert_eq!(sparse, dense);
        // Feature 1, value 1.0 > 0.5 -> bucket 1 (boundaries [0, 0.5]).
        let layout = meta.layout();
        assert_eq!(sparse[layout.g_index(0, 2)], 2.0);
    }

    #[test]
    fn empty_instance_list_gives_zero_row() {
        let ds = generate(&SparseGenConfig::new(10, 5, 2, 1));
        let meta = meta_for(&ds, vec![0.5]);
        let grads = uniform_grads(10, 1.0, 1.0);
        let row = build_row(&ds, &[], &grads, &meta, true);
        assert!(row.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn negative_values_bin_below_zero_bucket() {
        let insts = vec![SparseInstance::new(vec![0], vec![-2.0]).unwrap()];
        let ds = Dataset::from_instances(&insts, vec![0.0], 1).unwrap();
        let cands = vec![SplitCandidates::from_boundaries(vec![-1.0, 1.0])];
        let meta = FeatureMeta::all_features(&cands);
        let grads = uniform_grads(1, 1.0, 1.0);
        let row = build_row(&ds, &[0], &grads, &meta, true);
        let layout = meta.layout();
        // boundaries [-1, 0, 1]: -2.0 -> bucket 0; zero bucket is 1.
        assert_eq!(meta.candidates(0).zero_bucket(), 1);
        assert_eq!(row[layout.g_index(0, 0)], 1.0);
        assert_eq!(row[layout.g_index(0, 1)], 0.0);
    }

    // --- quantized accumulator (DESIGN.md §15) ---

    fn varied_grads(n: usize) -> Vec<GradPair> {
        (0..n)
            .map(|i| GradPair {
                g: ((i % 13) as f32 - 6.0) / 3.0,
                h: 0.05 + (i % 5) as f32 * 0.3,
            })
            .collect()
    }

    #[test]
    fn pack_unpack_is_exact_including_negative_low_lane() {
        // The borrow case: a negative H lane borrows from the G lane in the
        // packed representation; unpack must still split exactly.
        for (g, h) in [
            (0i64, 0i64),
            (1, -1),
            (-1, 1),
            (32_767, -32_767),
            (-32_767, 32_767),
            (12_345, -7),
        ] {
            assert_eq!(<i32 as PairCell>::pack(g, h).unpack(), (g, h), "narrow");
        }
        for (g, h) in [
            (0i64, 0i64),
            (1, -1),
            (i32::MAX as i64, -(i32::MAX as i64)),
            (-(i32::MAX as i64), i32::MAX as i64),
            (987_654_321, -123),
        ] {
            assert_eq!(<i64 as PairCell>::pack(g, h).unpack(), (g, h), "wide");
        }
    }

    #[test]
    fn packed_accumulation_is_a_ring_homomorphism() {
        // Mixed-sign code stream whose *partial* sums overflow a lane's
        // nominal range transiently; the final sums fit, so decode is exact.
        let stream: Vec<(i64, i64)> = vec![(30_000, 1), (-29_999, -2), (5, 1), (-4, 1)];
        let (expect_g, expect_h) = stream
            .iter()
            .fold((0i64, 0i64), |(g, h), &(dg, dh)| (g + dg, h + dh));
        let mut narrow = <i32 as PairCell>::ZERO;
        let mut wide = <i64 as PairCell>::ZERO;
        for &(g, h) in &stream {
            narrow = narrow.add(<i32 as PairCell>::pack(g, h));
            wide = wide.add(<i64 as PairCell>::pack(g, h));
        }
        assert_eq!(narrow.unpack(), (expect_g, expect_h));
        assert_eq!(wide.unpack(), (expect_g, expect_h));
    }

    #[test]
    fn narrow_promotion_triggers_exactly_at_documented_bound() {
        // NARROW_LANE_MAX == 32_767: the rule is `rows · max_code ≤ bound`.
        assert_eq!(acc_mode_for(32_767, 1), AccMode::Narrow);
        assert_eq!(acc_mode_for(32_768, 1), AccMode::Wide);
        assert_eq!(acc_mode_for(1, 32_767), AccMode::Narrow);
        // 3 · 10_922 = 32_766 ≤ bound; 3 · 10_923 = 32_769 > bound.
        assert_eq!(acc_mode_for(3, 10_922), AccMode::Narrow);
        assert_eq!(acc_mode_for(3, 10_923), AccMode::Wide);
        // Saturating product: absurd row counts must not wrap back to Narrow.
        assert_eq!(acc_mode_for(u64::MAX, 2), AccMode::Wide);
        // Zero rows / zero code always fit.
        assert_eq!(acc_mode_for(0, 32_767), AccMode::Narrow);
    }

    #[test]
    fn effective_bits_guard_keeps_wide_lane_exact() {
        // The wide lane holds sums up to rows · levels(bits); the guard must
        // demote bits until that product fits i32, and never below 2.
        for rows in [1usize, 1000, 65_538, 70_000, 10_000_000] {
            for requested in [2u8, 8, 12, 16] {
                let eff = effective_quant_bits(requested, rows);
                assert!((2..=requested.max(2)).contains(&eff));
                assert!(
                    eff == 2 || (rows as u64) * (levels(eff) as u64) <= i32::MAX as u64,
                    "rows={rows} requested={requested} eff={eff}"
                );
                // Maximality: one more bit (if available) would overflow.
                if eff < requested.clamp(2, 16) {
                    assert!((rows as u64) * (levels(eff + 1) as u64) > i32::MAX as u64);
                }
            }
        }
        // 16 bits (levels 32_767) fits exactly up to ⌊i32::MAX / 32_767⌋.
        let limit = (i32::MAX as u64 / 32_767) as usize;
        assert_eq!(effective_quant_bits(16, limit), 16);
        assert_eq!(effective_quant_bits(16, limit + 1), 15);
    }

    #[test]
    fn quantize_grads_rounds_to_nearest_deterministically() {
        let grads = vec![
            GradPair { g: 1.0, h: 2.0 },    // scale definers
            GradPair { g: -1.0, h: 0.0 },   // extreme negative / zero
            GradPair { g: 0.2501, h: 1.0 }, // rounds to nearest step
        ];
        // bits = 3 → levels = 3, g_step = 1/3.
        let q = QuantizedGrads::quantize(&grads, 3);
        assert_eq!(q.bits(), 3);
        assert_eq!(q.max_code(), 3);
        assert_eq!(q.codes(0), (3, 3));
        assert_eq!(q.codes(1), (-3, 0));
        // 0.2501 / 1.0 * 3 = 0.7503 → rounds to 1; 1.0/2.0*3 = 1.5 rounds
        // half-away-from-zero to 2.
        assert_eq!(q.codes(2), (1, 2));
        assert_eq!(q.g_step(), 1.0 / 3.0);
        // Re-quantizing is bit-identical (no RNG anywhere).
        let q2 = QuantizedGrads::quantize(&grads, 3);
        assert_eq!(q.codes(2), q2.codes(2));
        assert_eq!(q.g_step().to_bits(), q2.g_step().to_bits());
    }

    #[test]
    fn all_zero_grads_quantize_to_zero_codes_and_steps() {
        let q = QuantizedGrads::quantize(&uniform_grads(10, 0.0, 0.0), 12);
        assert_eq!(q.codes(0), (0, 0));
        assert_eq!(q.g_step(), 0.0);
        assert_eq!(q.h_step(), 0.0);
    }

    #[test]
    fn quantized_narrow_equals_wide_bitwise() {
        let ds = generate(&SparseGenConfig::new(200, 30, 6, 21));
        let meta = meta_for(&ds, vec![0.25, 0.5, 1.0, 1.5]);
        let grads = varied_grads(200);
        // bits = 8 → max_code = 127; 200 · 127 = 25_400 ≤ 32_767, so the
        // narrow mode is legal for the full instance set.
        let q = QuantizedGrads::quantize(&grads, 8);
        assert_eq!(acc_mode_for(200, q.max_code()), AccMode::Narrow);
        let binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let instances: Vec<u32> = (0..200).collect();
        let narrow = build_quantized(&binned, &qb, &instances, &q, &meta, AccMode::Narrow);
        let wide = build_quantized(&binned, &qb, &instances, &q, &meta, AccMode::Wide);
        // Same integer sums, same dequantize pass → assert_eq on f32 bits.
        assert_eq!(narrow, wide);
    }

    // The trainer's quantized arm frees the binned shard's three f32 entry
    // arrays while it derives the pair view: the view must be the one
    // `build` derives, and both integer kernels must read the same rows off
    // what is left (row pointers + pair view).
    #[test]
    fn quantized_kernels_read_nothing_the_release_drops() {
        let ds = generate(&SparseGenConfig::new(250, 30, 6, 11));
        let meta = meta_for(&ds, vec![0.25, 0.5, 1.0, 1.5]);
        let q = QuantizedGrads::quantize(&varied_grads(250), 10);
        let mut binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let instances: Vec<u32> = (0..250).filter(|i| i % 3 != 0).collect();
        let positions = crate::fused::positions_from_index(
            &crate::NodeIndex::from_instances(instances.clone(), 1),
            &[0],
            250,
        );
        let both = |binned: &BinnedShard| {
            let per_node = build_quantized(binned, &qb, &instances, &q, &meta, AccMode::Wide);
            let fused =
                crate::fused::build_layer_quantized(binned, &qb, &positions, &q, &meta, 64, 1);
            (per_node, fused.0)
        };
        let before = both(&binned);
        let (nnz, bytes) = (binned.nnz(), binned.memory_bytes());
        let released = QuantBinned::build_releasing(&mut binned, &meta);
        assert_eq!(
            (
                &released.pair_elem,
                &released.zero_elem,
                &released.zero_pair
            ),
            (&qb.pair_elem, &qb.zero_elem, &qb.zero_pair)
        );
        assert!(!binned.has_f32_entries());
        assert_eq!(binned.nnz(), nnz);
        assert_eq!(binned.memory_bytes(), bytes - 12 * nnz);
        assert_eq!(both(&binned), before);
        assert_eq!(before.0, before.1);
    }

    #[test]
    fn quantized_matches_f32_reference_within_derived_tolerance() {
        let n = 300usize;
        let ds = generate(&SparseGenConfig::new(n, 40, 8, 5));
        let meta = meta_for(&ds, vec![0.25, 0.5, 1.0, 1.5]);
        let grads = varied_grads(n);
        let bits = 12u8;
        let q = QuantizedGrads::quantize(&grads, bits);
        let binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let instances: Vec<u32> = (0..n as u32).collect();
        let quant = build_quantized(&binned, &qb, &instances, &q, &meta, AccMode::Wide);
        let reference = build_row(&ds, &instances, &grads, &meta, true);
        // Tolerance derivation: round-to-nearest puts each row's value
        // within 0.5·step of code·step (the clamp never binds because
        // |v| ≤ scale). A cell sums ≤ n rows, so
        //   |dequant − exact| ≤ n · 0.5 · step
        // plus f32 evaluation error of the two sums themselves (both are
        // ≤ n·|v|max ≈ 600, so a few hundred ulp ≈ 1e-2 at that magnitude —
        // dominated by the quantization term below anyway).
        let g_tol = n as f32 * 0.5 * q.g_step() + 1e-2;
        let h_tol = n as f32 * 0.5 * q.h_step() + 1e-2;
        let layout = meta.layout();
        for sf in 0..meta.num_sampled() {
            for k in 0..layout.num_buckets(sf) {
                let (gi, hi) = (layout.g_index(sf, k), layout.h_index(sf, k));
                assert!(
                    (quant[gi] - reference[gi]).abs() <= g_tol,
                    "G sf={sf} k={k}: {} vs {} (tol {g_tol})",
                    quant[gi],
                    reference[gi]
                );
                assert!(
                    (quant[hi] - reference[hi]).abs() <= h_tol,
                    "H sf={sf} k={k}: {} vs {} (tol {h_tol})",
                    quant[hi],
                    reference[hi]
                );
            }
        }
    }

    #[test]
    fn quantized_wide_lane_never_wraps_under_row_count_guard() {
        // Adversarial input: every row quantizes to the extreme code, so
        // lane sums hit rows · levels(bits) exactly — the guard's bound.
        let n = 500usize;
        let insts: Vec<SparseInstance> = (0..n)
            .map(|_| SparseInstance::new(vec![0], vec![2.0]).unwrap())
            .collect();
        let ds = Dataset::from_instances(&insts, vec![0.0; n], 2).unwrap();
        let meta = meta_for(&ds, vec![-1.0, 1.0]);
        let grads = uniform_grads(n, 1.5, 1.5); // all at max-abs → code ±levels
        let bits = effective_quant_bits(16, n);
        assert_eq!(bits, 16, "500 · 32_767 fits i32 comfortably");
        let q = QuantizedGrads::quantize(&grads, bits);
        let binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let instances: Vec<u32> = (0..n as u32).collect();
        let row = build_quantized(&binned, &qb, &instances, &q, &meta, AccMode::Wide);
        let layout = meta.layout();
        // Exact: lane sum is n · max_code, dequantized as (n·L)·(scale/L).
        let expect = (n as i64 * q.max_code() as i64) as f32 * q.g_step();
        let bucket = meta.candidates(0).bucket(2.0);
        assert_eq!(row[layout.g_index(0, bucket)], expect);
        assert_eq!(row[layout.h_index(0, bucket)], expect);
    }

    #[test]
    fn quant_binned_pair_view_matches_layout() {
        let ds = generate(&SparseGenConfig::new(50, 10, 4, 3));
        let meta = meta_for(&ds, vec![0.5, 1.0]);
        let binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let layout = meta.layout();
        assert_eq!(qb.pair_len() * 2, layout.row_len());
        assert_eq!(qb.zero_pair.len(), meta.num_sampled());
        // Every pair offset is the g offset halved-by-construction: feature
        // blocks are [G][H], so pair base == cumulative buckets == g_base/2.
        for (e, &p) in qb.pair_elem.iter().enumerate() {
            let g = binned.g_elem[e] as usize;
            let sf = binned.sf[e] as usize;
            let g_base = layout.g_index(sf, 0);
            assert_eq!(p as usize - (g_base / 2), g - g_base);
        }
    }
}
