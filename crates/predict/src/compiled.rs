//! A trained ensemble compiled to one packed node array.
//!
//! The interpreted [`Tree`] stores a full implicit heap (`2^(depth+1)−1`
//! enum slots per tree) and matches on the `Node` tag at every step. The
//! compiled form keeps only reachable nodes, contiguously per tree in BFS
//! order, each one 16-byte [`PackedNode`]:
//!
//! | field       | internal node                              | leaf                   |
//! |-------------|--------------------------------------------|------------------------|
//! | `slot`      | tested feature's slot; bit 31 default-left | slot 0; bit 31 set     |
//! | `threshold` | split threshold                            | leaf weight `ω`        |
//! | `child`     | left child (right = `child + 1`)           | the leaf itself        |
//! | `feature`   | the tested feature (for the lookup walk)   | 0                      |
//!
//! A *slot* numbers the model's distinct tested features densely (a
//! feature→slot map, `slot_of`), so a row can be scattered once into a
//! short per-row vector instead of being binary-searched at every node.
//! Slot 0 is never written and reads `0.0`; slot 1 takes the features no
//! node tests and is never read. A leaf tests slot 0, takes its
//! default-left edge and lands on itself. Walking tree `t` for exactly its
//! compiled depth as `n = child + !go_left` therefore ends on the leaf the
//! interpreter reaches, with no leaf test and no branch.
//!
//! The map is indexed by feature id, so it costs 4 B per feature up to the
//! largest tested one — a `u32` a model file can put anywhere. It is built
//! only when it is no larger than the packed nodes; a model without one
//! scores every row through the lookup walk.
//!
//! Rows are scored in blocks of up to `BLOCK_ROWS`, and each block takes
//! one of two walks, chosen by `CompiledModel::walk_for` from the rows
//! themselves:
//!
//! * `Walk::Slots` scatters each row's nonzeros into its slot vector,
//!   advances every row of the block one level per step, tree by tree (so
//!   the block's chains of dependent loads overlap), and clears exactly the
//!   slots it wrote.
//! * `Walk::Lookup` walks each row alone, binary-searching its nonzeros
//!   ([`RowView::get`]) at each internal node and stopping at the leaf —
//!   cheaper when rows are dense next to the ensemble's total depth.
//!
//! Child indices are **global**, so a walk never needs the tree id after
//! its root. `Unused` slots a malformed tree can route into are compiled to
//! weight-0 leaves, which is exactly what [`Tree::predict`] returns for
//! them — compilation never changes a prediction, bit for bit, and neither
//! walk does: both make `Tree::route`'s comparisons on the same f32 values.

use std::cell::RefCell;
use std::collections::HashMap;

use dimboost_core::loss::softmax_inplace;
use dimboost_core::{loss_for, GbdtModel, LossKind, Node, Tree};
use dimboost_data::RowView;

/// Rows one block walk advances together.
pub(crate) const BLOCK_ROWS: usize = 8;

/// The slot every leaf tests: never written, so it always reads `0.0`.
const ZERO_SLOT: u32 = 0;
/// Where the scatter writes features no node tests; never read.
const SINK_SLOT: u32 = 1;
/// `PackedNode::slot` bit sending zero (absent) values left.
const DEFAULT_LEFT: u32 = 1 << 31;

/// One compiled node (see the module table).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
struct PackedNode {
    slot: u32,
    threshold: f32,
    child: u32,
    feature: u32,
}

impl PackedNode {
    /// A self-loop leaf at node index `at`.
    fn leaf(at: u32, weight: f32) -> Self {
        PackedNode {
            slot: ZERO_SLOT | DEFAULT_LEFT,
            threshold: weight,
            child: at,
            feature: 0,
        }
    }

    /// Index of the tested slot in a row's slot vector.
    #[inline(always)]
    fn slot(&self) -> usize {
        (self.slot & !DEFAULT_LEFT) as usize
    }

    /// The node a row with value `v` at this node's feature moves to.
    /// `Tree::route`'s test — `v == 0.0` follows the default direction,
    /// otherwise `v <= threshold` goes left — spelled with non-short-circuit
    /// `&`/`|` so it compiles to flag arithmetic rather than a branch.
    #[inline(always)]
    fn next(&self, v: f32) -> u32 {
        let default_left = self.slot & DEFAULT_LEFT != 0;
        let go_left = ((v == 0.0) & default_left) | ((v != 0.0) & (v <= self.threshold));
        self.child + u32::from(!go_left)
    }
}

/// Where a tree starts and how many steps reach every one of its leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TreeEntry {
    root: u32,
    depth: u32,
}

/// The walk a block of rows takes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// Scatter into slot vectors, then advance the whole block per step.
    Slots,
    /// Binary-search each row at each internal node.
    Lookup,
}

/// Caller-kept working memory of the block walk: one slot vector per block
/// row, plus the raw scores a transformed block is reduced from. It grows to
/// the largest model it has served and is reused from then on; between
/// calls every slot reads `0.0`. One scratch serves any number of models,
/// but not two calls at once.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    slots: Vec<f32>,
    raw: Vec<f32>,
}

impl ScoreScratch {
    /// An empty scratch; nothing is allocated until a block needs it.
    pub const fn new() -> Self {
        Self {
            slots: Vec::new(),
            raw: Vec::new(),
        }
    }
}

thread_local! {
    /// The scratch of the one-row entry points, which have no caller to
    /// keep one: allocated once per thread, not once per call.
    static ROW_SCRATCH: RefCell<ScoreScratch> = const { RefCell::new(ScoreScratch::new()) };
}

/// A [`GbdtModel`] compiled into packed node storage.
///
/// Scores are bit-equal to the interpreted model: every walk performs the
/// same `v == 0.0` / `v <= threshold` comparisons on the same f32 values,
/// and the per-class accumulation adds `η·ω` terms from `+0.0` in the same
/// tree order as [`GbdtModel::predict_scores`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    trees: Vec<TreeEntry>,
    nodes: Vec<PackedNode>,
    /// `slot_of[f]`: the slot of tested feature `f`, [`SINK_SLOT`] for a
    /// feature no node tests. Length: the largest tested feature + 1, or 0
    /// when that would outweigh `nodes` (then every block takes the lookup
    /// walk).
    slot_of: Vec<u32>,
    /// Length of a row's slot vector: the zero and sink slots plus one per
    /// tested feature.
    num_slots: usize,
    /// Σ tree depths: node steps per row of a slot walk.
    steps: usize,
    learning_rate: f32,
    loss: LossKind,
    num_features: usize,
}

impl CompiledModel {
    /// Compiles a trained model. Each tree is walked breadth-first from its
    /// root; only reachable nodes are emitted. Time and memory are linear
    /// in the reachable nodes, whatever feature ids they test.
    pub fn compile(model: &GbdtModel) -> Self {
        let mut c = CompiledModel {
            trees: Vec::with_capacity(model.num_trees()),
            nodes: Vec::new(),
            slot_of: Vec::new(),
            num_slots: 0,
            steps: 0,
            learning_rate: model.learning_rate(),
            loss: model.loss(),
            num_features: model.num_features(),
        };
        // Tested feature → slot, numbered in first-use order.
        let mut slots = HashMap::new();
        for tree in model.trees() {
            c.compile_tree(tree, &mut slots);
        }
        c.num_slots = SINK_SLOT as usize + 1 + slots.len();
        c.steps = c.trees.iter().map(|t| t.depth as usize).sum();
        // The dense map is sized by the largest tested feature, not by the
        // nodes: build it only when it costs no more than they do.
        let len = slots.keys().max().map_or(0, |&f| f as usize + 1);
        if len * std::mem::size_of::<u32>() <= c.nodes.len() * std::mem::size_of::<PackedNode>() {
            c.slot_of = vec![SINK_SLOT; len];
            for (&f, &s) in &slots {
                c.slot_of[f as usize] = s;
            }
        }
        c
    }

    fn compile_tree(&mut self, tree: &Tree, slots: &mut HashMap<u32, u32>) {
        let base = self.nodes.len() as u32;
        let mut depth = 0;
        // BFS order: when slot `i` of `order` is processed, its children (if
        // any) are appended at slots `order.len()` and `order.len() + 1`, so
        // their compiled indices are known before they are visited.
        let mut order: Vec<u32> = vec![0];
        let mut i = 0;
        while i < order.len() {
            let id = order[i];
            depth = depth.max(Tree::depth_of(id) as u32);
            let node = match tree.node(id) {
                Node::Internal {
                    feature,
                    threshold,
                    default_left,
                    ..
                } => {
                    let child = base + order.len() as u32;
                    order.push(Tree::left_child(id));
                    order.push(Tree::right_child(id));
                    let flag = if default_left { DEFAULT_LEFT } else { 0 };
                    PackedNode {
                        slot: slot_for(slots, feature) | flag,
                        threshold,
                        child,
                        feature,
                    }
                }
                Node::Leaf { weight } => PackedNode::leaf(base + i as u32, weight),
                // Routing into an Unused slot predicts 0.0 in the
                // interpreter; a weight-0 leaf is bit-identical.
                Node::Unused => PackedNode::leaf(base + i as u32, 0.0),
            };
            self.nodes.push(node);
            i += 1;
        }
        self.trees.push(TreeEntry { root: base, depth });
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total compiled nodes across all trees.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of score columns (1 for scalar losses, `classes` for softmax).
    pub fn num_classes(&self) -> usize {
        self.loss.trees_per_round()
    }

    /// The loss the model was trained with.
    pub fn loss(&self) -> LossKind {
        self.loss
    }

    /// Shrinkage learning rate η.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Dimensionality the model was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Memory footprint of the compiled model in bytes: the packed nodes
    /// (16 B each; a leaf's weight is its `threshold` field), the per-tree
    /// root and depth (8 B each) and the feature→slot map (4 B per feature
    /// up to the largest tested one, never more than the nodes: past that
    /// it is not built).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PackedNode>()
            + self.trees.len() * std::mem::size_of::<TreeEntry>()
            + self.slot_of.len() * std::mem::size_of::<u32>()
    }

    /// The walk a block of `rows` takes. Scattering and clearing costs two
    /// writes per nonzero of the block; the lookup walk costs about
    /// `⌈log2(nnz + 1)⌉` probes per node step, and a row takes at most
    /// `steps` = Σ tree depths of them. The block takes the lookup walk when
    /// `2·nnz > steps·⌈log2(nnz+1)⌉` summed over its rows, and always when
    /// the model has no slot map.
    pub(crate) fn walk_for(&self, rows: &[RowView<'_>]) -> Walk {
        let nnz: usize = rows.iter().map(RowView::nnz).sum();
        let probes: usize = rows
            .iter()
            .map(|r| (usize::BITS - r.nnz().leading_zeros()) as usize)
            .sum();
        if self.slot_of.is_empty() || 2 * nnz > self.steps.saturating_mul(probes) {
            Walk::Lookup
        } else {
            Walk::Slots
        }
    }

    /// Adds the per-class raw scores of `rows` into `out` (row-major,
    /// `rows × num_classes`, zeroed by the caller), eight rows at a
    /// time. Tree `i` contributes `η·ω` to class `i % K`, in tree order,
    /// as in [`GbdtModel::predict_scores`].
    pub fn score_rows<'r>(
        &self,
        rows: impl IntoIterator<Item = RowView<'r>>,
        scratch: &mut ScoreScratch,
        out: &mut [f32],
    ) {
        let k = self.num_classes();
        let scored = for_each_block(rows, |block, at| {
            self.score_block(
                block,
                &mut scratch.slots,
                &mut out[at * k..(at + block.len()) * k],
            );
        });
        assert_eq!(scored * k, out.len(), "out must hold rows × num_classes");
    }

    /// Writes the transformed prediction of each of `rows` into `out` (one
    /// per row; see [`Self::predict`]), eight rows at a time.
    pub fn predict_rows<'r>(
        &self,
        rows: impl IntoIterator<Item = RowView<'r>>,
        scratch: &mut ScoreScratch,
        out: &mut [f32],
    ) {
        let k = self.num_classes();
        let ScoreScratch { slots, raw } = scratch;
        let scored = for_each_block(rows, |block, at| {
            raw.clear();
            raw.resize(block.len() * k, 0.0);
            self.score_block(block, slots, raw);
            for (o, scores) in out[at..at + block.len()]
                .iter_mut()
                .zip(raw.chunks_exact(k))
            {
                *o = self.transform(scores);
            }
        });
        assert_eq!(scored, out.len(), "out must hold one prediction per row");
    }

    /// Adds the raw scores of one block (at most [`BLOCK_ROWS`] rows) into
    /// `out`, through the walk [`Self::walk_for`] picks. Every slot `slots`
    /// holds reads `0.0` before and after.
    fn score_block(&self, rows: &[RowView<'_>], slots: &mut Vec<f32>, out: &mut [f32]) {
        let k = self.num_classes();
        // Checked before anything is scattered: a panic mid-walk would
        // leave the scratch dirty.
        assert!(rows.len() <= BLOCK_ROWS && out.len() == rows.len() * k);
        match self.walk_for(rows) {
            Walk::Lookup => {
                for (row, scores) in rows.iter().zip(out.chunks_exact_mut(k)) {
                    for (t, tree) in self.trees.iter().enumerate() {
                        scores[t % k] += self.learning_rate * self.lookup_leaf(tree.root, row);
                    }
                }
            }
            Walk::Slots => {
                let stride = self.num_slots;
                if slots.len() < BLOCK_ROWS * stride {
                    slots.resize(BLOCK_ROWS * stride, 0.0);
                }
                self.scatter(rows, stride, slots, false);
                self.walk(rows.len(), stride, slots, out);
                self.scatter(rows, stride, slots, true);
            }
        }
    }

    /// Writes each row's nonzeros into its slot vector
    /// (`slots[r·stride..][..stride]`) — or, with `clear`, zeroes exactly
    /// those slots again. A feature past the map is tested by no node.
    fn scatter(&self, rows: &[RowView<'_>], stride: usize, slots: &mut [f32], clear: bool) {
        for (row, vector) in rows.iter().zip(slots.chunks_exact_mut(stride)) {
            for (&f, &v) in row.indices().iter().zip(row.values()) {
                if let Some(&s) = self.slot_of.get(f as usize) {
                    vector[s as usize] = if clear { 0.0 } else { v };
                }
            }
        }
    }

    /// The slot walk: tree by tree, every one of the block's `b` rows one
    /// level per step for exactly the tree's depth, then `η·ω` into each
    /// row's class column. The rows' chains of dependent loads are
    /// independent, so the block keeps `b` of them in flight.
    fn walk(&self, b: usize, stride: usize, slots: &[f32], out: &mut [f32]) {
        let k = self.num_classes();
        for (t, tree) in self.trees.iter().enumerate() {
            let mut at = [tree.root; BLOCK_ROWS];
            for _ in 0..tree.depth {
                for (r, n) in at[..b].iter_mut().enumerate() {
                    let node = self.nodes[*n as usize];
                    *n = node.next(slots[r * stride + node.slot()]);
                }
            }
            for (r, n) in at[..b].iter().enumerate() {
                out[r * k + t % k] += self.learning_rate * self.nodes[*n as usize].threshold;
            }
        }
    }

    /// The lookup walk: the unshrunk leaf weight the tree rooted at `root`
    /// predicts for `row`, searching the row at each internal node and
    /// stopping at the leaf. The search is `RowView::get`'s, spelled here
    /// so it inlines into the walk. Each outcome loads its own next node,
    /// which the compiler keeps as predicted branches: the next node's
    /// search starts before this one's compare resolves, as in a plain
    /// tree walk.
    fn lookup_leaf(&self, root: u32, row: &RowView<'_>) -> f32 {
        let mut node = self.nodes[root as usize];
        while node.slot() != ZERO_SLOT as usize {
            let v = match row.indices().binary_search(&node.feature) {
                Ok(at) => row.values()[at],
                Err(_) => 0.0,
            };
            let (left, right) = (node.child as usize, node.child as usize + 1);
            node = if v == 0.0 {
                if node.slot & DEFAULT_LEFT != 0 {
                    self.nodes[left]
                } else {
                    self.nodes[right]
                }
            } else if v <= node.threshold {
                self.nodes[left]
            } else {
                self.nodes[right]
            };
        }
        node.threshold
    }

    /// The transformed prediction from one row's raw class scores: the
    /// argmax class (as `f32`) for softmax, `loss.transform(raw)` otherwise.
    fn transform(&self, scores: &[f32]) -> f32 {
        match self.loss {
            LossKind::Softmax { .. } => scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c)
                .unwrap_or(0) as f32,
            kind => loss_for(kind).transform(scores[0]),
        }
    }

    /// Accumulates per-class raw scores for one instance into `scores`
    /// (length [`Self::num_classes`], zeroed by the caller) — a block of
    /// one.
    pub fn score_into(&self, row: &RowView<'_>, scores: &mut [f32]) {
        ROW_SCRATCH.with_borrow_mut(|s| {
            self.score_block(std::slice::from_ref(row), &mut s.slots, scores);
        });
    }

    /// Raw additive score for one instance (scalar losses).
    ///
    /// # Panics
    /// Panics for softmax models — use [`Self::score_into`].
    pub fn predict_raw(&self, row: &RowView<'_>) -> f32 {
        assert_eq!(self.num_classes(), 1, "multiclass model: use score_into");
        let mut score = [0.0f32];
        self.score_into(row, &mut score);
        score[0]
    }

    /// Transformed prediction, matching [`GbdtModel::predict`] bit for bit:
    /// predicted class index (as `f32`) for softmax, `loss.transform(raw)`
    /// otherwise.
    pub fn predict(&self, row: &RowView<'_>) -> f32 {
        let mut out = 0.0f32;
        ROW_SCRATCH.with_borrow_mut(|s| {
            self.predict_rows([*row], s, std::slice::from_mut(&mut out));
        });
        out
    }

    /// Per-class probabilities, matching [`GbdtModel::predict_proba`]. The
    /// returned vector is the only allocation.
    pub fn predict_proba(&self, row: &RowView<'_>) -> Vec<f32> {
        let mut scores = vec![0.0f32; self.num_classes()];
        self.score_into(row, &mut scores);
        match self.loss {
            LossKind::Softmax { .. } => softmax_inplace(&mut scores),
            kind => scores[0] = loss_for(kind).transform(scores[0]),
        }
        scores
    }
}

/// The slot of tested feature `feature`, assigning the next free one on
/// first sight.
fn slot_for(slots: &mut HashMap<u32, u32>, feature: u32) -> u32 {
    let next = SINK_SLOT as usize + 1 + slots.len();
    *slots.entry(feature).or_insert_with(|| {
        // Slots are bounded by nodes, themselves indexed by u32; bit 31
        // stays free for the default direction.
        assert!(next < DEFAULT_LEFT as usize, "too many tested features");
        next as u32
    })
}

/// Feeds `rows` to `f` as consecutive blocks of at most [`BLOCK_ROWS`],
/// with the index of each block's first row; returns the row count.
fn for_each_block<'r>(
    rows: impl IntoIterator<Item = RowView<'r>>,
    mut f: impl FnMut(&[RowView<'r>], usize),
) -> usize {
    let mut block = [RowView::default(); BLOCK_ROWS];
    let (mut len, mut at) = (0, 0);
    for row in rows {
        block[len] = row;
        len += 1;
        if len == BLOCK_ROWS {
            f(&block, at);
            at += len;
            len = 0;
        }
    }
    if len > 0 {
        f(&block[..len], at);
    }
    at + len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model(loss: LossKind) -> GbdtModel {
        let mut t1 = Tree::new(2);
        t1.set_internal_full(0, 3, 0.5, 1.0, false);
        t1.set_internal(1, 1, 1.2);
        t1.set_leaf(3, -1.0);
        t1.set_leaf(4, 0.25);
        t1.set_leaf(2, 1.5);
        let mut t2 = Tree::new(1);
        t2.set_leaf(0, 0.5);
        let trees = match loss {
            LossKind::Softmax { classes } => {
                let mut ts = Vec::new();
                for _ in 0..classes {
                    ts.push(t1.clone());
                }
                ts
            }
            _ => vec![t1, t2],
        };
        GbdtModel::new(trees, 0.3, loss, 8)
    }

    #[test]
    fn compiles_only_reachable_nodes() {
        let m = toy_model(LossKind::Logistic);
        let c = CompiledModel::compile(&m);
        // Tree 1: 5 live nodes; tree 2: a root leaf. The interpreted trees
        // hold 7 + 3 enum slots; the compiled form drops the unused ones.
        assert_eq!(c.num_trees(), 2);
        assert_eq!(c.num_nodes(), 6);
        // Six 16-byte nodes, two 8-byte tree entries and a feature→slot map
        // up to feature 3: 128 B. The map is the price of scattering a row
        // once instead of searching it at every node, and is never larger
        // than the nodes.
        assert_eq!(c.memory_bytes(), 6 * 16 + 2 * 8 + 4 * 4);
    }

    /// One split on `feature` over two leaves, as a model file with
    /// `num_features = 0` (which lets a node test any `u32`) reads back.
    fn stump_from_bytes(feature: u32) -> GbdtModel {
        use dimboost_core::model_io::{model_from_bytes, model_to_bytes};
        let mut tree = Tree::new(1);
        tree.set_internal_full(0, feature, 0.5, 1.0, true);
        tree.set_leaf(1, -1.0);
        tree.set_leaf(2, 2.0);
        let model = GbdtModel::new(vec![tree], 0.5, LossKind::Square, 0);
        model_from_bytes(model_to_bytes(&model)).unwrap()
    }

    #[test]
    fn slot_map_is_built_only_when_no_larger_than_the_nodes() {
        // Three 16-byte nodes hold a map of twelve 4-byte entries.
        assert_eq!(
            CompiledModel::compile(&stump_from_bytes(11)).slot_of.len(),
            12
        );
        assert!(CompiledModel::compile(&stump_from_bytes(12))
            .slot_of
            .is_empty());
    }

    #[test]
    fn far_tested_feature_costs_nodes_not_feature_ids() {
        let m = stump_from_bytes(0xFFFF_FFF0);
        let c = CompiledModel::compile(&m);
        assert!(c.slot_of.is_empty());
        assert_eq!(c.memory_bytes(), 3 * 16 + 8);
        let mut b = dimboost_data::DatasetBuilder::new(u32::MAX as usize);
        b.push_raw(&[], &[], 0.0).unwrap();
        b.push_raw(&[0xFFFF_FFF0], &[1.0], 0.0).unwrap();
        b.push_raw(&[3, 0xFFFF_FFF0], &[1.0, 0.25], 0.0).unwrap();
        let ds = b.finish().unwrap();
        let rows: Vec<RowView<'_>> = (0..ds.num_rows()).map(|i| ds.row(i)).collect();
        // An empty row would take the slot walk; without a map it cannot.
        assert_eq!(c.walk_for(&rows[..1]), Walk::Lookup);
        let mut raw = [0.0f32; 3];
        c.score_rows(rows.iter().copied(), &mut ScoreScratch::new(), &mut raw);
        assert_eq!(raw, [-0.5, 1.0, -0.5]);
        for (r, &s) in rows.iter().zip(&raw) {
            assert_eq!(s.to_bits(), m.predict_raw(r).to_bits());
        }
    }

    /// A complete tree of `depth` levels, node `id` testing feature
    /// `id·7 mod features`.
    fn full_tree(depth: usize, features: u32) -> Tree {
        let mut tree = Tree::new(depth);
        let internal = (1u32 << depth) - 1;
        for id in 0..internal {
            tree.set_internal(id, id * 7 % features, 0.5);
        }
        for id in internal..2 * internal + 1 {
            tree.set_leaf(id, id as f32 * 0.01);
        }
        tree
    }

    #[test]
    fn benchmark_shaped_blocks_take_their_pinned_walk() {
        // (name, trees, depth, features, nonzeros per row, walk) of the
        // benchmark's workloads. A change to the rule's constants that moves
        // one of these moves a workload from one walk to the other — restate
        // the expectation here, with the reason, if that is intended.
        let shapes = [
            ("highdim", 2, 4, 10_000, 100, Walk::Lookup), // 200 > 8 · 7
            ("serve", 16, 6, 600, 40, Walk::Slots),       // 80 ≤ 96 · 6
            ("tall-ext", 6, 6, 400, 48, Walk::Slots),     // 96 ≤ 36 · 6
        ];
        for (name, trees, depth, features, nnz, walk) in shapes {
            let tree = full_tree(depth, features as u32);
            let model = GbdtModel::new(vec![tree; trees], 0.1, LossKind::Logistic, features);
            let c = CompiledModel::compile(&model);
            // The pin is on the rule: every shape has its slot map.
            assert!(!c.slot_of.is_empty(), "{name}");
            let mut b = dimboost_data::DatasetBuilder::new(features);
            for r in 0..BLOCK_ROWS {
                let mut indices: Vec<u32> = (0..nnz)
                    .map(|j| ((j * features / nnz + r) % features) as u32)
                    .collect();
                indices.sort_unstable();
                let values: Vec<f32> = indices
                    .iter()
                    .map(|&f| (f % 5) as f32 * 0.3 - 0.4)
                    .collect();
                b.push_raw(&indices, &values, 0.0).unwrap();
            }
            let data = b.finish().unwrap();
            let rows: Vec<RowView<'_>> = (0..BLOCK_ROWS).map(|i| data.row(i)).collect();
            assert!(rows.iter().all(|r| r.nnz() == nnz), "{name}");
            assert_eq!(c.walk_for(&rows), walk, "{name}");
        }
    }

    #[test]
    fn leaves_are_self_loops_on_the_zero_slot() {
        let c = CompiledModel::compile(&toy_model(LossKind::Square));
        for (i, n) in c.nodes.iter().enumerate() {
            if n.slot() == ZERO_SLOT as usize {
                assert_eq!(n.child as usize, i);
                assert_eq!(n.next(0.0) as usize, i);
            } else {
                assert_eq!(c.slot_of[n.feature as usize] as usize, n.slot());
            }
        }
        assert_eq!(c.num_slots, 4); // zero, sink, features 3 and 1
        assert_eq!(
            c.trees,
            [
                TreeEntry { root: 0, depth: 2 },
                TreeEntry { root: 5, depth: 0 }
            ]
        );
        assert_eq!(c.steps, 2);
    }

    #[test]
    fn unused_root_predicts_zero_like_interpreter() {
        let dead = Tree::new(1); // all Unused
        let m = GbdtModel::new(vec![dead], 0.5, LossKind::Square, 4);
        let c = CompiledModel::compile(&m);
        let ds = dimboost_data::synthetic::generate(
            &dimboost_data::synthetic::SparseGenConfig::new(5, 4, 2, 1),
        );
        for i in 0..ds.num_rows() {
            assert_eq!(c.predict_raw(&ds.row(i)), m.predict_raw(&ds.row(i)));
            assert_eq!(c.predict_raw(&ds.row(i)), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "multiclass")]
    fn raw_rejects_multiclass() {
        let m = toy_model(LossKind::Softmax { classes: 3 });
        let c = CompiledModel::compile(&m);
        let ds = dimboost_data::synthetic::generate(
            &dimboost_data::synthetic::SparseGenConfig::new(1, 8, 3, 1),
        );
        c.predict_raw(&ds.row(0));
    }

    #[test]
    fn metadata_round_trips() {
        let m = toy_model(LossKind::Softmax { classes: 3 });
        let c = CompiledModel::compile(&m);
        assert_eq!(c.num_classes(), 3);
        assert_eq!(c.learning_rate(), 0.3);
        assert_eq!(c.num_features(), 8);
        assert_eq!(c.loss(), LossKind::Softmax { classes: 3 });
    }
}
