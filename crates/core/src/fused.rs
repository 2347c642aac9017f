//! Layer-fused histogram construction.
//!
//! The per-node builders ([`crate::binned`], [`crate::parallel`]) make one
//! pass over each build node's instance list — up to 2^d passes per layer
//! at depth `d`, each historically spawning its own scoped threads. This
//! kernel instead makes **one** statically-striped pass over the whole
//! shard's binned CSR *in row order*, routing every row's contribution
//! through a per-instance node-position array into a contiguous
//! `[build_nodes × row_len]` histogram block — the level-synchronous scheme
//! GPU GBDT implementations use to process all nodes of a level in a
//! single data sweep.
//!
//! # Determinism and bit-equality contract
//!
//! Batches of rows are statically striped over logical stripes (stripe `t`
//! owns batches `t, t + threads, …`, executed on the persistent
//! [`crate::pool`]), each accumulating a private block; partial blocks are
//! merged elementwise in stripe order. Hence, like the per-node builders:
//!
//! * output is **bit-identical across reruns** for any fixed
//!   `(threads, batch_size)`;
//! * at `threads == 1` the kernel makes a single whole-shard pass with one
//!   zero-bucket deposit per node at the end — for each build node the f32
//!   addition sequence is then *exactly* the per-node
//!   [`BinnedShard::build_into`] sequence (instance lists are ascending by
//!   construction: [`crate::node_index`]'s split is stable), so every block
//!   row is bit-equal to the per-node path, no tolerances;
//! * across *different* thread counts only a float-associativity tolerance
//!   holds for the **f32** kernel — the quantized kernel below erases even
//!   that caveat.
//!
//! # Quantized variant
//!
//! [`build_layer_quantized`] replaces the f32 cells with packed fixed-point
//! integer cells ([`crate::hist_build`], DESIGN.md §15). Integer addition is
//! associative and commutative, so its output is bit-identical across **any**
//! `(threads, batch_size)` — and bit-identical to the per-node
//! [`crate::hist_build::build_quantized`] — not merely across reruns. The
//! node axis is additionally *tiled* so each stripe's working set
//! (`tile_nodes × pair_len` cells) stays L2-resident on wide layers; tiling
//! cannot affect the result, again by associativity.
//!
//! # Memory trade-off
//!
//! Every stripe carries a private block of `build_nodes × row_len × 4`
//! bytes. The trainer guards this with `GbdtConfig::fused_block_budget` and
//! falls back to per-node builds when `blocks × threads` would exceed it.
//! The quantized kernel is exempt: its per-stripe working set is capped at
//! [`QUANT_TILE_BUDGET_BYTES`] by construction.

use dimboost_data::Dataset;

use crate::binned::BinnedShard;
use crate::hist_build::{
    acc_mode_for, deposit_zero_sums, dequantize_cells_into, AccMode, PairCell, QuantBinned,
    QuantizedGrads,
};
use crate::loss::GradPair;
use crate::meta::FeatureMeta;
use crate::node_index::NodeIndex;
use crate::parallel::merge_partials;
use crate::pool;
use crate::tree::Tree;

/// Position-array marker for rows that belong to no build node (not
/// sampled, routed to a finished leaf, or the large sibling under
/// histogram subtraction).
pub const NO_NODE: u32 = u32::MAX;

/// Per-instance routing for one layer: which build-node slot each shard
/// row contributes to, plus the per-slot instance counts (the same counts
/// the per-node path reports in telemetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPositions {
    /// Per shard row: index into the layer's build-node list, or
    /// [`NO_NODE`].
    pub slots: Vec<u32>,
    /// Per build-node slot: number of contributing rows.
    pub counts: Vec<u64>,
}

/// Derives layer positions from the node-to-instance index (the fast
/// path). Rows absent from every build node's range — e.g. unsampled rows
/// or rows at non-build nodes — map to [`NO_NODE`].
pub fn positions_from_index(
    index: &NodeIndex,
    build_nodes: &[u32],
    num_rows: usize,
) -> LayerPositions {
    let mut slots = vec![NO_NODE; num_rows];
    let mut counts = vec![0u64; build_nodes.len()];
    for (slot, &node) in build_nodes.iter().enumerate() {
        let instances = index.instances(node);
        counts[slot] = instances.len() as u64;
        for &i in instances {
            slots[i as usize] = slot as u32;
        }
    }
    LayerPositions { slots, counts }
}

/// Derives layer positions by routing every (mask-included) row through
/// the partial tree — the `node_index = false` ablation path, fused
/// analogue of the trainer's `scan_instances`.
pub fn positions_from_scan(
    shard: &Dataset,
    tree: &Tree,
    build_nodes: &[u32],
    mask: Option<&[bool]>,
) -> LayerPositions {
    let capacity = build_nodes
        .iter()
        .map(|&n| n as usize + 1)
        .max()
        .unwrap_or(0);
    let mut slot_of = vec![NO_NODE; capacity];
    for (slot, &node) in build_nodes.iter().enumerate() {
        slot_of[node as usize] = slot as u32;
    }
    let num_rows = shard.num_rows();
    let mut slots = vec![NO_NODE; num_rows];
    let mut counts = vec![0u64; build_nodes.len()];
    for i in 0..num_rows {
        if mask.is_some_and(|m| !m[i]) {
            continue;
        }
        let node = tree.route(&shard.row(i), 0) as usize;
        if node < capacity && slot_of[node] != NO_NODE {
            let slot = slot_of[node];
            slots[i] = slot;
            counts[slot as usize] += 1;
        }
    }
    LayerPositions { slots, counts }
}

/// Builds the whole layer's histograms in one pass over `binned`'s CSR.
///
/// Returns the merged block, `num_slots × row_len` f32s; slot `s`'s
/// histogram row is `block[s * row_len..(s + 1) * row_len]`. See the
/// module docs for the determinism/bit-equality contract.
///
/// # Panics
/// Panics if `batch_size` or `threads` is zero, or if `positions.slots`
/// does not cover exactly `binned.num_rows()` rows.
pub fn build_layer(
    binned: &BinnedShard,
    positions: &LayerPositions,
    grads: &[GradPair],
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
) -> Vec<f32> {
    let mut block = Vec::new();
    build_layer_into(
        binned, positions, grads, meta, batch_size, threads, &mut block,
    );
    block
}

/// [`build_layer`] into a kept buffer, which is cleared, resized to
/// `num_slots × row_len` and zeroed first.
pub fn build_layer_into(
    binned: &BinnedShard,
    positions: &LayerPositions,
    grads: &[GradPair],
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
    block: &mut Vec<f32>,
) {
    assert!(batch_size > 0, "batch_size must be positive");
    assert!(threads > 0, "threads must be positive");
    assert_eq!(
        positions.slots.len(),
        binned.num_rows(),
        "positions must cover every shard row"
    );
    let num_slots = positions.counts.len();
    let row_len = meta.layout().row_len();
    let num_rows = positions.slots.len();
    block.clear();
    if num_slots == 0 {
        return;
    }
    let num_batches = num_rows.div_ceil(batch_size);
    let threads = threads.min(num_batches.max(1));

    if threads <= 1 {
        // Single whole-shard pass with one zero-bucket deposit per node at
        // the end: for each build node this is exactly `build_into` over
        // its (ascending) instance list — the bit-equality anchor.
        block.resize(num_slots * row_len, 0.0);
        let mut sums = vec![(0.0f64, 0.0f64); num_slots];
        let mut touched = vec![false; num_slots];
        accumulate(
            binned,
            &positions.slots,
            grads,
            0,
            num_rows,
            row_len,
            block,
            &mut sums,
            &mut touched,
        );
        deposit(binned, row_len, block, &sums, &touched);
        return;
    }

    // Static striping on the persistent pool: stripe `t` owns batches
    // t, t + threads, … in ascending order; partial blocks merge in stripe
    // order. Zero-bucket sums deposit at every batch boundary, mirroring
    // the per-node batched builders' per-batch `build_into` deposits.
    let partials: Vec<Vec<f32>> = pool::global().run(threads, |t| {
        let mut block = vec![0.0f32; num_slots * row_len];
        let mut sums = vec![(0.0f64, 0.0f64); num_slots];
        let mut touched = vec![false; num_slots];
        let mut b = t;
        while b < num_batches {
            let lo = b * batch_size;
            let hi = (lo + batch_size).min(num_rows);
            accumulate(
                binned,
                &positions.slots,
                grads,
                lo,
                hi,
                row_len,
                &mut block,
                &mut sums,
                &mut touched,
            );
            deposit(binned, row_len, &mut block, &sums, &touched);
            for s in 0..num_slots {
                sums[s] = (0.0, 0.0);
                touched[s] = false;
            }
            b += threads;
        }
        block
    });
    merge_partials(partials, block);
}

/// Accumulates rows `lo..hi` into `block`, tracking per-slot f64 gradient
/// sums and which slots were touched (so deposits can skip silent slots —
/// their cells hold `+0.0` either way, bit-equal to depositing a zero sum).
#[allow(clippy::too_many_arguments)]
fn accumulate(
    binned: &BinnedShard,
    slots: &[u32],
    grads: &[GradPair],
    lo: usize,
    hi: usize,
    row_len: usize,
    block: &mut [f32],
    sums: &mut [(f64, f64)],
    touched: &mut [bool],
) {
    debug_assert!(binned.has_f32_entries(), "f32 build over a released shard");
    for (i, &slot) in slots.iter().enumerate().take(hi).skip(lo) {
        if slot == NO_NODE {
            continue;
        }
        let s = slot as usize;
        let gp = grads[i];
        sums[s].0 += gp.g as f64;
        sums[s].1 += gp.h as f64;
        touched[s] = true;
        let base = s * row_len;
        let (elo, ehi) = (binned.indptr[i], binned.indptr[i + 1]);
        for e in elo..ehi {
            let sf = binned.sf[e] as usize;
            block[base + binned.g_elem[e] as usize] += gp.g;
            block[base + binned.h_elem[e] as usize] += gp.h;
            block[base + binned.zero_g[sf] as usize] -= gp.g;
            block[base + binned.zero_h[sf] as usize] -= gp.h;
        }
    }
}

/// Deposits the accumulated zero-bucket sums for every touched slot, in
/// slot order (same order the per-node path deposits each node).
fn deposit(
    binned: &BinnedShard,
    row_len: usize,
    block: &mut [f32],
    sums: &[(f64, f64)],
    touched: &[bool],
) {
    for (s, &(sum_g, sum_h)) in sums.iter().enumerate() {
        if !touched[s] {
            continue;
        }
        let base = s * row_len;
        for sf in 0..binned.zero_g.len() {
            block[base + binned.zero_g[sf] as usize] += sum_g as f32;
            block[base + binned.zero_h[sf] as usize] += sum_h as f32;
        }
    }
}

// ---------------------------------------------------------------------------
// Quantized layer kernel (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Per-stripe working-set budget for the quantized kernel's node tiling —
/// sized for a typical L2 slice. Layers whose full packed block exceeds
/// this are swept in tiles of [`quant_tile_nodes`] node slots each.
pub const QUANT_TILE_BUDGET_BYTES: usize = 1 << 20;

/// Tile size (in node slots) for a quantized layer: the largest slot count
/// whose packed cells fit [`QUANT_TILE_BUDGET_BYTES`], at least 1. Sized
/// against the *wide* (8-byte) cell so the tile choice — which the trainer
/// reports in telemetry — is a pure function of the histogram row length
/// and the layer width, independent of data, threads, and accumulator mode
/// (a narrow tile simply uses at most half the budget).
pub fn quant_tile_nodes(pair_len: usize, num_slots: usize) -> usize {
    if num_slots == 0 {
        return 0;
    }
    (QUANT_TILE_BUDGET_BYTES / (pair_len * 8).max(1)).clamp(1, num_slots)
}

/// Telemetry from one quantized layer build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantLayerStats {
    /// Node slots per cache tile (see [`quant_tile_nodes`]).
    pub tile_nodes: usize,
    /// Accumulator width the layer ran at.
    pub mode: AccMode,
}

/// Quantized layer-fused histogram build: one statically-striped pass per
/// cache tile over `binned`'s CSR, accumulating packed integer cells.
///
/// Returns the dequantized `num_slots × row_len` f32 block (same shape as
/// [`build_layer`]) plus tiling/mode telemetry. Because every integer sum is
/// exact and order-free, the block is bit-identical for **any**
/// `(threads, batch_size)` and bit-identical to running
/// [`crate::hist_build::build_quantized`] per node slot.
///
/// The accumulator width is chosen per layer by [`acc_mode_for`] from the
/// largest build node (`positions.counts`) and the code magnitude bound —
/// the overflow promotion rule documented in DESIGN.md §15.
///
/// # Panics
/// Panics if `batch_size` or `threads` is zero, or if `positions.slots`
/// does not cover exactly `binned.num_rows()` rows.
pub fn build_layer_quantized(
    binned: &BinnedShard,
    qb: &QuantBinned,
    positions: &LayerPositions,
    grads: &QuantizedGrads,
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
) -> (Vec<f32>, QuantLayerStats) {
    let mut block = Vec::new();
    let stats = build_layer_quantized_into(
        binned, qb, positions, grads, meta, batch_size, threads, &mut block,
    );
    (block, stats)
}

/// [`build_layer_quantized`] into a kept buffer, which is cleared and
/// resized to `num_slots × row_len` first (every element is then written by
/// the dequantize pass).
#[allow(clippy::too_many_arguments)]
pub fn build_layer_quantized_into(
    binned: &BinnedShard,
    qb: &QuantBinned,
    positions: &LayerPositions,
    grads: &QuantizedGrads,
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
    block: &mut Vec<f32>,
) -> QuantLayerStats {
    assert!(batch_size > 0, "batch_size must be positive");
    assert!(threads > 0, "threads must be positive");
    assert_eq!(
        positions.slots.len(),
        binned.num_rows(),
        "positions must cover every shard row"
    );
    let num_slots = positions.counts.len();
    let tile_nodes = quant_tile_nodes(qb.pair_len(), num_slots);
    block.clear();
    if num_slots == 0 {
        return QuantLayerStats {
            tile_nodes: 0,
            mode: AccMode::Wide,
        };
    }
    block.resize(num_slots * meta.layout().row_len(), 0.0);
    let max_rows = positions.counts.iter().copied().max().unwrap_or(0);
    let mode = acc_mode_for(max_rows, grads.max_code());
    match mode {
        AccMode::Narrow => quantized_block::<i32>(
            binned, qb, positions, grads, meta, batch_size, threads, tile_nodes, block,
        ),
        AccMode::Wide => quantized_block::<i64>(
            binned, qb, positions, grads, meta, batch_size, threads, tile_nodes, block,
        ),
    };
    QuantLayerStats { tile_nodes, mode }
}

/// Generic tiled sweep. Each tile covers node slots `[tile_lo, tile_hi)`;
/// stripes accumulate private packed cells plus per-slot code sums over
/// their batches, partials merge with wrapping adds (order irrelevant),
/// then one zero-bucket deposit and one dequantize pass per slot.
#[allow(clippy::too_many_arguments)]
fn quantized_block<C: PairCell>(
    binned: &BinnedShard,
    qb: &QuantBinned,
    positions: &LayerPositions,
    grads: &QuantizedGrads,
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
    tile_nodes: usize,
    out: &mut [f32],
) {
    let num_slots = positions.counts.len();
    let row_len = meta.layout().row_len();
    let pair_len = qb.pair_len();
    let num_rows = positions.slots.len();
    let num_batches = num_rows.div_ceil(batch_size);
    let threads = threads.min(num_batches.max(1));
    debug_assert_eq!(out.len(), num_slots * row_len);

    let mut tile_lo = 0usize;
    while tile_lo < num_slots {
        let tile_hi = (tile_lo + tile_nodes).min(num_slots);
        let tile_n = tile_hi - tile_lo;
        let stripe = |t: usize| -> (Vec<C>, Vec<(i64, i64)>) {
            let mut cells = vec![C::ZERO; tile_n * pair_len];
            let mut sums = vec![(0i64, 0i64); tile_n];
            let mut b = t;
            while b < num_batches {
                let lo = b * batch_size;
                let hi = (lo + batch_size).min(num_rows);
                accumulate_tile::<C>(
                    binned,
                    qb,
                    grads,
                    &positions.slots,
                    lo,
                    hi,
                    tile_lo,
                    tile_hi,
                    pair_len,
                    &mut cells,
                    &mut sums,
                );
                b += threads;
            }
            (cells, sums)
        };
        let (mut cells, sums) = if threads <= 1 {
            stripe(0)
        } else {
            let mut partials = pool::global().run(threads, stripe).into_iter();
            let (mut cells, mut sums) = partials.next().expect("at least one stripe");
            for (pc, ps) in partials {
                for (c, v) in cells.iter_mut().zip(pc) {
                    *c = c.add(v);
                }
                for (s, v) in sums.iter_mut().zip(ps) {
                    s.0 += v.0;
                    s.1 += v.1;
                }
            }
            (cells, sums)
        };
        for s in 0..tile_n {
            let cell_row = &mut cells[s * pair_len..(s + 1) * pair_len];
            // Depositing a zero sum is the integer identity, so untouched
            // slots need no skip logic (unlike the f32 ±0.0 subtlety).
            deposit_zero_sums::<C>(&qb.zero_pair, sums[s].0, sums[s].1, cell_row);
            let slot = tile_lo + s;
            dequantize_cells_into::<C>(
                cell_row,
                meta,
                grads,
                &mut out[slot * row_len..(slot + 1) * row_len],
            );
        }
        tile_lo = tile_hi;
    }
}

/// Accumulates rows `lo..hi` whose slot falls inside the current tile.
/// 2 wrapping read-modify-writes per CSR entry.
#[allow(clippy::too_many_arguments)]
fn accumulate_tile<C: PairCell>(
    binned: &BinnedShard,
    qb: &QuantBinned,
    grads: &QuantizedGrads,
    slots: &[u32],
    lo: usize,
    hi: usize,
    tile_lo: usize,
    tile_hi: usize,
    pair_len: usize,
    cells: &mut [C],
    sums: &mut [(i64, i64)],
) {
    for (i, &slot) in slots.iter().enumerate().take(hi).skip(lo) {
        if slot == NO_NODE {
            continue;
        }
        let s = slot as usize;
        if s < tile_lo || s >= tile_hi {
            continue;
        }
        let rel = s - tile_lo;
        let (gc, hc) = grads.codes(i);
        sums[rel].0 += gc;
        sums[rel].1 += hc;
        let base = rel * pair_len;
        let packed = C::pack(gc, hc);
        for e in binned.indptr[i]..binned.indptr[i + 1] {
            let p = base + qb.pair_elem[e] as usize;
            cells[p] = cells[p].add(packed);
            let z = base + qb.zero_elem[e] as usize;
            cells[z] = cells[z].sub(packed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist_build::new_row;
    use dimboost_data::synthetic::{generate, SparseGenConfig};
    use dimboost_sketch::SplitCandidates;

    /// The tiled sweep into a block allocated here, for tests that call it
    /// with a tile size of their own.
    #[allow(clippy::too_many_arguments)]
    fn quantized_block<C: PairCell>(
        binned: &BinnedShard,
        qb: &QuantBinned,
        positions: &LayerPositions,
        grads: &QuantizedGrads,
        meta: &FeatureMeta,
        batch_size: usize,
        threads: usize,
        tile_nodes: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; positions.counts.len() * meta.layout().row_len()];
        super::quantized_block::<C>(
            binned, qb, positions, grads, meta, batch_size, threads, tile_nodes, &mut out,
        );
        out
    }

    fn setup(n: usize, m: usize) -> (Dataset, FeatureMeta, Vec<GradPair>) {
        let ds = generate(&SparseGenConfig::new(n, m, 9, 41));
        let cands: Vec<SplitCandidates> = (0..m)
            .map(|f| SplitCandidates::from_boundaries(vec![-0.4, 0.3 + (f % 2) as f32 * 0.5, 1.3]))
            .collect();
        let meta = FeatureMeta::all_features(&cands);
        let grads: Vec<GradPair> = (0..n)
            .map(|i| GradPair {
                g: ((i % 11) as f32 - 5.0) / 3.0,
                h: 0.2 + (i % 3) as f32 * 0.4,
            })
            .collect();
        (ds, meta, grads)
    }

    /// Round-robin partition of rows into `nodes` slots, with every third
    /// row left out (NO_NODE) to exercise skipping.
    fn partition(num_rows: usize, nodes: usize) -> LayerPositions {
        let mut slots = vec![NO_NODE; num_rows];
        let mut counts = vec![0u64; nodes];
        for (i, slot) in slots.iter_mut().enumerate() {
            if i % 3 == 2 {
                continue;
            }
            let s = i % nodes;
            *slot = s as u32;
            counts[s] += 1;
        }
        LayerPositions { slots, counts }
    }

    fn per_node_reference(
        binned: &BinnedShard,
        positions: &LayerPositions,
        grads: &[GradPair],
        meta: &FeatureMeta,
    ) -> Vec<Vec<f32>> {
        (0..positions.counts.len())
            .map(|s| {
                let instances: Vec<u32> = positions
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|&(_, &slot)| slot == s as u32)
                    .map(|(i, _)| i as u32)
                    .collect();
                let mut row = new_row(meta);
                binned.build_into(&instances, grads, &mut row);
                row
            })
            .collect()
    }

    #[test]
    fn single_thread_bit_equals_per_node_build_into() {
        let (ds, meta, grads) = setup(400, 30);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = partition(400, 5);
        let reference = per_node_reference(&binned, &positions, &grads, &meta);
        let row_len = meta.layout().row_len();
        // Any batch size: the single-thread kernel ignores batching.
        for batch_size in [7, 64, 1000] {
            let block = build_layer(&binned, &positions, &grads, &meta, batch_size, 1);
            for (s, expected) in reference.iter().enumerate() {
                assert_eq!(
                    &block[s * row_len..(s + 1) * row_len],
                    expected.as_slice(),
                    "slot {s} batch {batch_size}"
                );
            }
        }
    }

    #[test]
    fn multithreaded_reruns_bit_identical_and_close_to_reference() {
        let (ds, meta, grads) = setup(500, 25);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = partition(500, 4);
        let reference = build_layer(&binned, &positions, &grads, &meta, 37, 1);
        for threads in [2, 4, 8] {
            let first = build_layer(&binned, &positions, &grads, &meta, 37, threads);
            for rep in 0..10 {
                let again = build_layer(&binned, &positions, &grads, &meta, 37, threads);
                assert_eq!(again, first, "threads={threads} rep={rep}");
            }
            for (i, (a, b)) in first.iter().zip(&reference).enumerate() {
                assert!((a - b).abs() < 1e-2, "elem {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn whole_shard_batch_multithreaded_is_bit_equal_to_reference() {
        // One batch → one stripe does all the work in row order: bit-equal
        // to the single-thread pass even with threads > 1 requested.
        let (ds, meta, grads) = setup(300, 20);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = partition(300, 3);
        let single = build_layer(&binned, &positions, &grads, &meta, 300, 1);
        let multi = build_layer(&binned, &positions, &grads, &meta, 300, 8);
        assert_eq!(single, multi);
    }

    #[test]
    fn positions_from_index_matches_manual_partition() {
        let index = NodeIndex::new(10, 7);
        let mut index = index;
        index.split(0, 1, 2, |i| i < 6);
        index.split(1, 3, 4, |i| i % 2 == 0);
        let positions = positions_from_index(&index, &[3, 4, 2], 10);
        assert_eq!(positions.counts, vec![3, 3, 4]);
        assert_eq!(positions.slots[0], 0); // row 0: even, < 6 → node 3
        assert_eq!(positions.slots[1], 1); // row 1: odd, < 6 → node 4
        assert_eq!(positions.slots[7], 2); // row 7: ≥ 6 → node 2
    }

    #[test]
    fn empty_build_set_yields_empty_block() {
        let (ds, meta, grads) = setup(50, 10);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = LayerPositions {
            slots: vec![NO_NODE; 50],
            counts: Vec::new(),
        };
        assert!(build_layer(&binned, &positions, &grads, &meta, 16, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "positions must cover")]
    fn rejects_mismatched_positions() {
        let (ds, meta, grads) = setup(50, 10);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = LayerPositions {
            slots: vec![NO_NODE; 10],
            counts: vec![0],
        };
        build_layer(&binned, &positions, &grads, &meta, 16, 1);
    }

    // --- quantized layer kernel ---

    use crate::hist_build::build_quantized;

    fn quant_setup(
        n: usize,
        m: usize,
        bits: u8,
    ) -> (BinnedShard, QuantBinned, QuantizedGrads, FeatureMeta) {
        let (ds, meta, grads) = setup(n, m);
        let binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let qg = QuantizedGrads::quantize(&grads, bits);
        (binned, qb, qg, meta)
    }

    #[test]
    fn quantized_layer_bit_equals_per_node_for_any_threads_and_batch() {
        let (binned, qb, qg, meta) = quant_setup(400, 30, 12);
        let positions = partition(400, 5);
        let row_len = meta.layout().row_len();
        let max_rows = positions.counts.iter().copied().max().unwrap();
        let mode = acc_mode_for(max_rows, qg.max_code());
        let reference: Vec<Vec<f32>> = (0..positions.counts.len())
            .map(|s| {
                let instances: Vec<u32> = positions
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|&(_, &slot)| slot == s as u32)
                    .map(|(i, _)| i as u32)
                    .collect();
                build_quantized(&binned, &qb, &instances, &qg, &meta, mode)
            })
            .collect();
        for threads in [1usize, 2, 3, 8] {
            for batch_size in [7usize, 64, 1000] {
                let (block, stats) = build_layer_quantized(
                    &binned, &qb, &positions, &qg, &meta, batch_size, threads,
                );
                assert_eq!(stats.mode, mode);
                for (s, expected) in reference.iter().enumerate() {
                    // assert_eq on f32 bits: integer accumulation makes the
                    // fused block independent of threads AND batch size, and
                    // structurally equal to the per-node quantized build.
                    assert_eq!(
                        &block[s * row_len..(s + 1) * row_len],
                        expected.as_slice(),
                        "slot {s} threads={threads} batch={batch_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_tiling_does_not_change_the_block() {
        let (binned, qb, qg, meta) = quant_setup(300, 25, 10);
        let positions = partition(300, 6);
        // Reference: one tile covering all slots.
        let whole = quantized_block::<i64>(&binned, &qb, &positions, &qg, &meta, 37, 4, 6);
        for tile in [1usize, 2, 4, 5] {
            let tiled = quantized_block::<i64>(&binned, &qb, &positions, &qg, &meta, 37, 4, tile);
            assert_eq!(tiled, whole, "tile={tile}");
        }
    }

    #[test]
    fn quant_tile_heuristic_fits_budget_and_covers_edge_cases() {
        // pair_len 2000 → wide cells 16 000 B per slot → ⌊1 MiB / 16 000⌋
        // = 65 slots per tile.
        assert_eq!(quant_tile_nodes(2000, 100), 65);
        // Huge rows never drop below one slot per tile.
        assert_eq!(quant_tile_nodes(10_000_000, 4), 1);
        // Small layers are a single tile.
        assert_eq!(quant_tile_nodes(50, 8), 8);
        assert_eq!(quant_tile_nodes(0, 8), 8);
        assert_eq!(quant_tile_nodes(2000, 0), 0);
        // Reported tile matches what the kernel actually uses.
        let (binned, qb, qg, meta) = quant_setup(100, 20, 8);
        let positions = partition(100, 4);
        let (_, stats) = build_layer_quantized(&binned, &qb, &positions, &qg, &meta, 32, 2);
        assert_eq!(stats.tile_nodes, quant_tile_nodes(qb.pair_len(), 4));
    }

    #[test]
    fn quantized_layer_narrow_mode_engages_and_matches_wide() {
        // 8-bit codes, ≤ 160 rows per slot → 160 · 127 ≪ 32 767: narrow.
        let (binned, qb, qg, meta) = quant_setup(300, 20, 8);
        let positions = partition(300, 2);
        let (block, stats) = build_layer_quantized(&binned, &qb, &positions, &qg, &meta, 64, 4);
        assert_eq!(stats.mode, AccMode::Narrow);
        let wide = quantized_block::<i64>(
            &binned,
            &qb,
            &positions,
            &qg,
            &meta,
            64,
            4,
            stats.tile_nodes,
        );
        assert_eq!(block, wide);
    }

    #[test]
    fn quantized_empty_build_set_yields_empty_block() {
        let (binned, qb, qg, meta) = quant_setup(50, 10, 8);
        let positions = LayerPositions {
            slots: vec![NO_NODE; 50],
            counts: Vec::new(),
        };
        let (block, stats) = build_layer_quantized(&binned, &qb, &positions, &qg, &meta, 16, 4);
        assert!(block.is_empty());
        assert_eq!(stats.tile_nodes, 0);
    }
}
