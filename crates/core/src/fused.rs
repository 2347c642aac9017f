//! The histogram kernels over a [`BinnedShard`]: one per cell type.
//!
//! Both kernels are Algorithm 2 (Section 5.1) run over every build node of a
//! layer in **one** statically-striped pass over the shard's binned CSR *in
//! row order*, routing every row through a per-instance node-position array
//! into a contiguous `[build_nodes × row_len]` histogram block — the
//! level-synchronous scheme GPU GBDT implementations use. A per-node build
//! ([`BinnedShard::build_into`], [`crate::hist_build::build_quantized`], …)
//! is the same kernel over a one-slot layer fed by the node's instance list
//! ([`Rows`]).
//!
//! # Determinism and bit-equality contract
//!
//! Positions (instances of a node, rows of a layer) are cut into batches and
//! the batches statically striped over logical stripes by
//! [`crate::pool::Striping`], executed on the persistent [`crate::pool`];
//! each stripe accumulates a private block, depositing the zero-bucket sums
//! once per batch, and the blocks merge elementwise in stripe order
//! ([`crate::parallel`]'s `merge_partials`). Hence:
//!
//! * output is **bit-identical across reruns** for any fixed
//!   `(threads, batch_size)`;
//! * when a single stripe runs (one thread, or one batch) the kernel makes
//!   one pass with one zero-bucket deposit per slot at the end — for each
//!   build node the f32 addition sequence is then *exactly* Algorithm 2's
//!   ([`crate::hist_build::build_sparse`]) over its instance list (instance
//!   lists are ascending by construction: [`crate::node_index`]'s split is
//!   stable), so every block row is bit-equal to it, no tolerances;
//! * across *different* thread counts only a float-associativity tolerance
//!   holds for the **f32** kernel — the quantized kernel below erases even
//!   that caveat.
//!
//! # Quantized kernel
//!
//! [`build_layer_quantized`] replaces the f32 cells with packed fixed-point
//! integer cells ([`crate::hist_build`], DESIGN.md §15). Integer addition is
//! associative and commutative, so its output is bit-identical across **any**
//! `(threads, batch_size)` and for the per-node and layer entry points alike,
//! not merely across reruns. The node axis is additionally *tiled* so each
//! stripe's working set (`tile_nodes × pair_len` cells) stays L2-resident on
//! wide layers; tiling cannot affect the result, again by associativity.
//!
//! # Memory trade-off
//!
//! Every stripe carries a private block of `build_nodes × row_len × 4`
//! bytes. The trainer guards this with `GbdtConfig::fused_block_budget` and
//! falls back to per-node builds when `blocks × threads` would exceed it.
//! The quantized kernel is exempt: its per-stripe working set is capped at
//! [`QUANT_TILE_BUDGET_BYTES`] by construction.

use std::ops::Range;

use dimboost_data::Dataset;

use crate::binned::BinnedShard;
use crate::hist_build::{acc_mode_for, AccMode, PairCell, QuantBinned, QuantizedGrads};
use crate::loss::GradPair;
use crate::meta::FeatureMeta;
use crate::node_index::NodeIndex;
use crate::parallel::merge_partials;
use crate::pool::{self, Striping};
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

/// Where a kernel's rows come from, and which slot each one fills.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// One node's ascending instance list, every instance going to slot 0.
    Node(&'a [u32]),
    /// Every shard row, each going to its [`LayerPositions::slots`] entry;
    /// rows at [`NO_NODE`] are skipped.
    Layer(&'a LayerPositions),
}

impl<'a> Rows<'a> {
    /// Histogram rows (slots) the kernel fills.
    fn num_slots(self) -> usize {
        match self {
            Rows::Node(_) => 1,
            Rows::Layer(positions) => positions.counts.len(),
        }
    }

    /// The accumulator width the largest slot needs ([`acc_mode_for`]).
    pub(crate) fn acc_mode(self, grads: &QuantizedGrads) -> AccMode {
        let max_rows = match self {
            Rows::Node(instances) => instances.len() as u64,
            Rows::Layer(positions) => positions.counts.iter().copied().max().unwrap_or(0),
        };
        acc_mode_for(max_rows, grads.max_code())
    }

    /// The positions the batches split: instances of a node, rows of a
    /// layer.
    fn positions(self) -> Range<usize> {
        match self {
            Rows::Node(instances) => 0..instances.len(),
            Rows::Layer(positions) => 0..positions.slots.len(),
        }
    }

    /// The striping of [`Rows::positions`].
    ///
    /// # Panics
    /// Panics if `batch_size` or `threads` is zero, or if a layer's
    /// positions do not cover exactly `binned.num_rows()` rows.
    fn striping(self, binned: &BinnedShard, batch_size: usize, threads: usize) -> Striping {
        if let Rows::Layer(positions) = self {
            assert_eq!(
                positions.slots.len(),
                binned.num_rows(),
                "positions must cover every shard row"
            );
        }
        Striping::new(self.positions().len(), batch_size, threads)
    }

    /// `(row, slot)` for every routed position in `range`, in order.
    fn iter(self, range: Range<usize>) -> RowIter<'a> {
        match self {
            Rows::Node(instances) => RowIter::Node(instances[range].iter()),
            Rows::Layer(positions) => RowIter::Layer(range.start, positions.slots[range].iter()),
        }
    }
}

/// The iterator of [`Rows::iter`]. An iterator rather than a callback so the
/// kernels' loops stay in the kernel functions, where the optimiser knows
/// the histogram block aliases none of the offset arrays it reads.
enum RowIter<'a> {
    Node(std::slice::Iter<'a, u32>),
    /// The row id of the next slot entry, and the entries.
    Layer(usize, std::slice::Iter<'a, u32>),
}

impl Iterator for RowIter<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        match self {
            RowIter::Node(instances) => instances.next().map(|&i| (i as usize, 0)),
            RowIter::Layer(row, slots) => loop {
                let slot = *slots.next()?;
                *row += 1;
                if slot != NO_NODE {
                    return Some((*row - 1, slot as usize));
                }
            },
        }
    }
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
    let rows = Rows::Layer(positions);
    build_rows_into(binned, rows, grads, meta, batch_size, threads, &mut block);
    block
}

/// The f32 kernel under the static striping rule (module docs), into `out`
/// (cleared, then `num_slots × row_len` f32s).
pub(crate) fn build_rows_into(
    binned: &BinnedShard,
    rows: Rows<'_>,
    grads: &[GradPair],
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
    out: &mut Vec<f32>,
) {
    let striping = rows.striping(binned, batch_size, threads);
    let (num_slots, row_len) = (rows.num_slots(), meta.layout().row_len());
    out.clear();
    if striping.stripes() == 1 {
        out.resize(num_slots * row_len, 0.0);
        let (all, mut sums) = (rows.positions(), vec![None; num_slots]);
        return accumulate(binned, rows, all, grads, row_len, out, &mut sums);
    }
    let partials: Vec<Vec<f32>> = pool::global().run(striping.stripes(), |t| {
        let mut block = vec![0.0f32; num_slots * row_len];
        let mut sums = vec![None; num_slots];
        for batch in striping.batches(t) {
            accumulate(binned, rows, batch, grads, row_len, &mut block, &mut sums);
        }
        block
    });
    merge_partials(partials, out);
}

/// The f32 accumulation loop — Algorithm 2 over pre-resolved offsets: adds
/// positions `range` of `rows` into their slot rows of `block` (each nonzero
/// to its bucket, minus from its feature's zero bucket), then deposits each
/// touched slot's gradient sums into every zero bucket, in slot order,
/// leaving `sums` empty for the next batch. Skipping an untouched slot is
/// bit-equal to depositing `+0.0`: cells that start at `+0.0` never become
/// `-0.0` under round-to-nearest addition, so adding `+0.0` is a no-op.
pub(crate) fn accumulate(
    binned: &BinnedShard,
    rows: Rows<'_>,
    range: Range<usize>,
    grads: &[GradPair],
    row_len: usize,
    block: &mut [f32],
    sums: &mut [Option<(f64, f64)>],
) {
    debug_assert!(binned.has_f32_entries(), "f32 build over a released shard");
    for (i, s) in rows.iter(range) {
        let gp = grads[i];
        let sum = sums[s].get_or_insert((0.0, 0.0));
        sum.0 += gp.g as f64;
        sum.1 += gp.h as f64;
        let base = s * row_len;
        for e in binned.indptr[i]..binned.indptr[i + 1] {
            let sf = binned.sf[e] as usize;
            block[base + binned.g_elem[e] as usize] += gp.g;
            block[base + binned.h_elem[e] as usize] += gp.h;
            block[base + binned.zero_g[sf] as usize] -= gp.g;
            block[base + binned.zero_h[sf] as usize] -= gp.h;
        }
    }
    for (s, sum) in sums.iter_mut().enumerate() {
        let Some((sum_g, sum_h)) = sum.take() else {
            continue;
        };
        let base = s * row_len;
        for (&zero_g, &zero_h) in binned.zero_g.iter().zip(&binned.zero_h) {
            block[base + zero_g as usize] += sum_g as f32;
            block[base + zero_h as usize] += sum_h as f32;
        }
    }
}

// ---------------------------------------------------------------------------
// Quantized kernel (DESIGN.md §15)
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
    let rows = Rows::Layer(positions);
    let mode = rows.acc_mode(grads);
    let stats = build_rows_quantized_into(
        binned, qb, rows, grads, meta, batch_size, threads, mode, &mut block,
    );
    (block, stats)
}

/// The packed-integer kernel under the static striping rule, into `out`
/// (cleared, then `num_slots × row_len` f32s, every one written by the
/// dequantize pass), at accumulator width `mode`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_rows_quantized_into(
    binned: &BinnedShard,
    qb: &QuantBinned,
    rows: Rows<'_>,
    grads: &QuantizedGrads,
    meta: &FeatureMeta,
    batch_size: usize,
    threads: usize,
    mode: AccMode,
    out: &mut Vec<f32>,
) -> QuantLayerStats {
    debug_assert!(
        mode == AccMode::Wide || rows.acc_mode(grads) == AccMode::Narrow,
        "narrow mode requested past the overflow bound"
    );
    let striping = rows.striping(binned, batch_size, threads);
    let num_slots = rows.num_slots();
    let tile_nodes = quant_tile_nodes(qb.pair_len(), num_slots);
    out.clear();
    out.resize(num_slots * meta.layout().row_len(), 0.0);
    match mode {
        AccMode::Narrow => {
            quantized_block::<i32>(binned, qb, rows, grads, meta, striping, tile_nodes, out)
        }
        AccMode::Wide => {
            quantized_block::<i64>(binned, qb, rows, grads, meta, striping, tile_nodes, out)
        }
    }
    QuantLayerStats { tile_nodes, mode }
}

/// Generic tiled sweep. Each tile covers a range of node slots; stripes
/// accumulate private packed cells plus per-slot code sums over their
/// batches, partials merge with wrapping adds (order irrelevant), then one
/// zero-bucket deposit and one dequantize pass per slot.
#[allow(clippy::too_many_arguments)]
fn quantized_block<C: PairCell>(
    binned: &BinnedShard,
    qb: &QuantBinned,
    rows: Rows<'_>,
    grads: &QuantizedGrads,
    meta: &FeatureMeta,
    striping: Striping,
    tile_nodes: usize,
    out: &mut [f32],
) {
    let num_slots = rows.num_slots();
    let row_len = meta.layout().row_len();
    let pair_len = qb.pair_len();
    debug_assert_eq!(out.len(), num_slots * row_len);

    for tile_lo in (0..num_slots).step_by(tile_nodes.max(1)) {
        let tile = tile_lo..(tile_lo + tile_nodes).min(num_slots);
        let stripe = |t: usize| -> (Vec<C>, Vec<(i64, i64)>) {
            let mut cells = vec![C::ZERO; tile.len() * pair_len];
            let mut sums = vec![(0i64, 0i64); tile.len()];
            for batch in striping.batches(t) {
                let tile = tile.clone();
                accumulate_tile::<C>(
                    binned, qb, grads, rows, batch, tile, pair_len, &mut cells, &mut sums,
                );
            }
            (cells, sums)
        };
        let (mut cells, sums) = if striping.stripes() == 1 {
            stripe(0)
        } else {
            let mut partials = pool::global().run(striping.stripes(), stripe).into_iter();
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
        for (k, &(sum_g, sum_h)) in sums.iter().enumerate() {
            let cell_row = &mut cells[k * pair_len..(k + 1) * pair_len];
            // Depositing a zero sum is the integer identity, so untouched
            // slots need no skip logic (unlike the f32 ±0.0 subtlety).
            deposit_zero_sums::<C>(&qb.zero_pair, sum_g, sum_h, cell_row);
            let slot = tile.start + k;
            dequantize_cells_into::<C>(
                cell_row,
                meta,
                grads,
                &mut out[slot * row_len..(slot + 1) * row_len],
            );
        }
    }
}

/// The packed-integer accumulation loop: for positions `range` of `rows`
/// whose slot falls inside `tile`, adds each nonzero's packed code pair to
/// its bucket cell and subtracts it from its feature's zero cell — 2
/// wrapping read-modify-writes per CSR entry (the f32 kernel does 4) — and
/// sums the codes per slot for the zero-bucket deposit.
#[allow(clippy::too_many_arguments)]
fn accumulate_tile<C: PairCell>(
    binned: &BinnedShard,
    qb: &QuantBinned,
    grads: &QuantizedGrads,
    rows: Rows<'_>,
    range: Range<usize>,
    tile: Range<usize>,
    pair_len: usize,
    cells: &mut [C],
    sums: &mut [(i64, i64)],
) {
    for (i, s) in rows.iter(range) {
        if !tile.contains(&s) {
            continue;
        }
        let rel = s - tile.start;
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

/// Deposits the accumulated code sums into every feature's zero cell
/// (Algorithm 2 lines 12-15, packed form).
fn deposit_zero_sums<C: PairCell>(zero_pair: &[u32], sum_g: i64, sum_h: i64, cells: &mut [C]) {
    let packed = C::pack(sum_g, sum_h);
    for &z in zero_pair {
        cells[z as usize] = cells[z as usize].add(packed);
    }
}

/// Decodes one slot's packed cells into an f32 histogram row in layout
/// order: `lane_sum as f32 * step` per cell.
fn dequantize_cells_into<C: PairCell>(
    cells: &[C],
    meta: &FeatureMeta,
    grads: &QuantizedGrads,
    out: &mut [f32],
) {
    let layout = meta.layout();
    debug_assert_eq!(out.len(), layout.row_len());
    let mut base = 0usize;
    for sf in 0..meta.num_sampled() {
        let nb = layout.num_buckets(sf);
        for k in 0..nb {
            let (g, h) = cells[base + k].unpack();
            out[layout.g_index(sf, k)] = g as f32 * grads.g_step();
            out[layout.h_index(sf, k)] = h as f32 * grads.h_step();
        }
        base += nb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist_build::{build_sparse, new_row};
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
        let rows = Rows::Layer(positions);
        let striping = rows.striping(binned, batch_size, threads);
        super::quantized_block::<C>(
            binned, qb, rows, grads, meta, striping, tile_nodes, &mut out,
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

    /// The striped f32 layer restated on the raw shard's Algorithm 2
    /// (`build_sparse`, separate code from the kernel): stripe `t` of
    /// `stripes = threads.min(batches).max(1)` sums batches
    /// `t, t + stripes, …` into a private block — one `build_sparse` per slot
    /// per batch, so one zero deposit per batch — and the blocks add up in
    /// stripe order. A single stripe is one batch covering every row.
    fn striped_reference(
        ds: &Dataset,
        positions: &LayerPositions,
        grads: &[GradPair],
        meta: &FeatureMeta,
        batch_size: usize,
        threads: usize,
    ) -> Vec<f32> {
        let (n, row_len) = (positions.slots.len(), meta.layout().row_len());
        let stripes = threads.min(n.div_ceil(batch_size)).max(1);
        let batch_size = if stripes == 1 { n.max(1) } else { batch_size };
        let mut out = vec![0.0f32; positions.counts.len() * row_len];
        for t in 0..stripes {
            let mut block = vec![0.0f32; out.len()];
            for b in (t..n.div_ceil(batch_size)).step_by(stripes) {
                let batch = b * batch_size..((b + 1) * batch_size).min(n);
                for (s, row) in block.chunks_mut(row_len).enumerate() {
                    let instances: Vec<u32> = batch
                        .clone()
                        .filter(|&i| positions.slots[i] == s as u32)
                        .map(|i| i as u32)
                        .collect();
                    build_sparse(ds, &instances, grads, meta, row);
                }
            }
            if t == 0 {
                out = block;
            } else {
                for (o, v) in out.iter_mut().zip(&block) {
                    *o += v;
                }
            }
        }
        out
    }

    #[test]
    fn single_thread_bit_equals_algorithm_2() {
        let (ds, meta, grads) = setup(400, 30);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = partition(400, 5);
        let row_len = meta.layout().row_len();
        // Any batch size: a single stripe makes one pass.
        for batch_size in [7, 64, 1000] {
            let block = build_layer(&binned, &positions, &grads, &meta, batch_size, 1);
            for s in 0..5u32 {
                let instances: Vec<u32> = (0..400u32)
                    .filter(|&i| positions.slots[i as usize] == s)
                    .collect();
                let mut expected = new_row(&meta);
                build_sparse(&ds, &instances, &grads, &meta, &mut expected);
                let s = s as usize;
                assert_eq!(
                    &block[s * row_len..(s + 1) * row_len],
                    expected.as_slice(),
                    "slot {s} batch {batch_size}"
                );
            }
        }
    }

    #[test]
    fn multithreaded_reruns_bit_equal_striped_algorithm_2() {
        let (ds, meta, grads) = setup(500, 25);
        let binned = BinnedShard::build(&ds, &meta);
        let positions = partition(500, 4);
        for (threads, batch_size) in [(2, 37), (4, 37), (8, 37), (3, 64), (8, 500)] {
            let expected = striped_reference(&ds, &positions, &grads, &meta, batch_size, threads);
            let first = build_layer(&binned, &positions, &grads, &meta, batch_size, threads);
            assert_eq!(first, expected, "threads={threads} batch={batch_size}");
            for rep in 0..10 {
                let again = build_layer(&binned, &positions, &grads, &meta, batch_size, threads);
                assert_eq!(again, first, "threads={threads} rep={rep}");
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

    // --- quantized kernel ---

    use crate::hist_build::build_quantized;

    fn quant_setup(
        n: usize,
        m: usize,
        bits: u8,
    ) -> (
        Dataset,
        BinnedShard,
        QuantBinned,
        QuantizedGrads,
        FeatureMeta,
    ) {
        let (ds, meta, grads) = setup(n, m);
        let binned = BinnedShard::build(&ds, &meta);
        let qb = QuantBinned::build(&binned, &meta);
        let qg = QuantizedGrads::quantize(&grads, bits);
        (ds, binned, qb, qg, meta)
    }

    /// Quantized slot rows the plain way, off the raw shard: per slot, sum
    /// the codes of each nonzero into its (feature, bucket) cell and out of
    /// its feature's zero bucket, deposit the slot's code totals into every
    /// zero bucket, then dequantize each lane sum as `sum as f32 * step`.
    fn plain_quantized_reference(
        ds: &Dataset,
        positions: &LayerPositions,
        qg: &QuantizedGrads,
        meta: &FeatureMeta,
    ) -> Vec<f32> {
        let layout = meta.layout();
        let row_len = layout.row_len();
        let mut out = vec![0.0f32; positions.counts.len() * row_len];
        for (s, row) in out.chunks_mut(row_len).enumerate() {
            let mut lanes = vec![0i64; row_len];
            let (mut total_g, mut total_h) = (0i64, 0i64);
            for i in (0..ds.num_rows()).filter(|&i| positions.slots[i] == s as u32) {
                let (gc, hc) = qg.codes(i);
                total_g += gc;
                total_h += hc;
                for (f, v) in ds.row(i).iter() {
                    let Some(sf) = meta.sampled_index(f) else {
                        continue;
                    };
                    let cand = meta.candidates(sf);
                    let (bucket, zero) = (cand.bucket(v), cand.zero_bucket());
                    lanes[layout.g_index(sf, bucket)] += gc;
                    lanes[layout.h_index(sf, bucket)] += hc;
                    lanes[layout.g_index(sf, zero)] -= gc;
                    lanes[layout.h_index(sf, zero)] -= hc;
                }
            }
            for sf in 0..meta.num_sampled() {
                let zero = meta.candidates(sf).zero_bucket();
                lanes[layout.g_index(sf, zero)] += total_g;
                lanes[layout.h_index(sf, zero)] += total_h;
            }
            for sf in 0..meta.num_sampled() {
                for k in 0..layout.num_buckets(sf) {
                    let (gi, hi) = (layout.g_index(sf, k), layout.h_index(sf, k));
                    row[gi] = lanes[gi] as f32 * qg.g_step();
                    row[hi] = lanes[hi] as f32 * qg.h_step();
                }
            }
        }
        out
    }

    #[test]
    fn quantized_layer_bit_equals_plain_code_sums_for_any_threads_and_batch() {
        let (ds, binned, qb, qg, meta) = quant_setup(400, 30, 12);
        let positions = partition(400, 5);
        let row_len = meta.layout().row_len();
        let max_rows = positions.counts.iter().copied().max().unwrap();
        let mode = acc_mode_for(max_rows, qg.max_code());
        let reference = plain_quantized_reference(&ds, &positions, &qg, &meta);
        for threads in [1usize, 2, 3, 8] {
            for batch_size in [7usize, 64, 1000] {
                let (block, stats) = build_layer_quantized(
                    &binned, &qb, &positions, &qg, &meta, batch_size, threads,
                );
                assert_eq!(stats.mode, mode);
                // assert_eq on f32 bits: integer accumulation makes the
                // block independent of threads AND batch size.
                assert_eq!(block, reference, "threads={threads} batch={batch_size}");
            }
        }
        // Per node, through the per-node entry point, at either width.
        for s in 0..positions.counts.len() {
            let instances: Vec<u32> = (0..400u32)
                .filter(|&i| positions.slots[i as usize] == s as u32)
                .collect();
            let expected = &reference[s * row_len..(s + 1) * row_len];
            for mode in [mode, AccMode::Wide] {
                let row = build_quantized(&binned, &qb, &instances, &qg, &meta, mode);
                assert_eq!(row.as_slice(), expected, "slot {s} {mode:?}");
            }
        }
    }

    #[test]
    fn quantized_tiling_does_not_change_the_block() {
        let (ds, binned, qb, qg, meta) = quant_setup(300, 25, 10);
        let positions = partition(300, 6);
        let reference = plain_quantized_reference(&ds, &positions, &qg, &meta);
        for tile in [1usize, 2, 4, 5, 6] {
            let tiled = quantized_block::<i64>(&binned, &qb, &positions, &qg, &meta, 37, 4, tile);
            assert_eq!(tiled, reference, "tile={tile}");
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
        let (_, binned, qb, qg, meta) = quant_setup(100, 20, 8);
        let positions = partition(100, 4);
        let (_, stats) = build_layer_quantized(&binned, &qb, &positions, &qg, &meta, 32, 2);
        assert_eq!(stats.tile_nodes, quant_tile_nodes(qb.pair_len(), 4));
    }

    #[test]
    fn quantized_layer_narrow_mode_engages_and_matches_wide() {
        // 8-bit codes, ≤ 160 rows per slot → 160 · 127 ≪ 32 767: narrow.
        let (_, binned, qb, qg, meta) = quant_setup(300, 20, 8);
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
        let (_, binned, qb, qg, meta) = quant_setup(50, 10, 8);
        let positions = LayerPositions {
            slots: vec![NO_NODE; 50],
            counts: Vec::new(),
        };
        let (block, stats) = build_layer_quantized(&binned, &qb, &positions, &qg, &meta, 16, 4);
        assert!(block.is_empty());
        assert_eq!(stats.tile_nodes, 0);
    }
}
