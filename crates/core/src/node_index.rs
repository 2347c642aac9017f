//! The node-to-instance index (Section 5.2, Figure 9).
//!
//! An array of instance ids plus, for every tree node, the contiguous range
//! of that array holding its instances. Splitting a node rearranges only its
//! own range, after which the two child ranges are recorded. Threads
//! building histograms for different nodes read disjoint ranges — no scan
//! of the whole dataset, no locking.
//!
//! The split is a **stable** partition (Figure 9 describes a two-pointer
//! swap pass; we keep each side's relative order instead, at the cost of a
//! right-side buffer). Stability is load-bearing: the root starts in
//! ascending row order, so every node's instance list stays ascending
//! forever, which makes the per-node builders' f32 addition order identical
//! to the layer-fused kernel's single ascending row sweep
//! (`crate::fused`) — the basis of their bit-equality contract.

use dimboost_data::Column;

use crate::tree::{Node, Tree};

/// The node-to-instance index for one worker's shard during one tree.
#[derive(Debug, Clone)]
pub struct NodeIndex {
    /// Instance ids, permuted so that every node's instances are contiguous.
    positions: Vec<u32>,
    /// Per tree node: `(start, end)` into `positions`, or `None` if the node
    /// has not been materialized.
    ranges: Vec<Option<(u32, u32)>>,
    /// Right-goers of the split in progress, kept between splits.
    rights: Vec<u32>,
}

impl NodeIndex {
    /// Creates the index for `num_instances` instances and a tree with
    /// `capacity` node slots; all instances start at the root (node 0).
    pub fn new(num_instances: usize, capacity: usize) -> Self {
        Self::from_instances((0..num_instances as u32).collect(), capacity)
    }

    /// Creates the index over an explicit instance subset (row subsampling:
    /// only the sampled instances participate in histogram construction).
    pub fn from_instances(instances: Vec<u32>, capacity: usize) -> Self {
        let mut ranges = vec![None; capacity];
        if !ranges.is_empty() {
            ranges[0] = Some((0, instances.len() as u32));
        }
        Self {
            positions: instances,
            ranges,
            rights: Vec::new(),
        }
    }

    /// Instance ids of `node` (empty if the node is absent or empty).
    pub fn instances(&self, node: u32) -> &[u32] {
        match self.ranges.get(node as usize).copied().flatten() {
            Some((l, r)) => &self.positions[l as usize..r as usize],
            None => &[],
        }
    }

    /// Number of instances at `node`.
    pub fn count(&self, node: u32) -> usize {
        self.instances(node).len()
    }

    /// True if `node` has a materialized (possibly empty) range.
    pub fn is_materialized(&self, node: u32) -> bool {
        self.ranges.get(node as usize).copied().flatten().is_some()
    }

    /// Splits `node`'s range between children `left` and `right`:
    /// instances for which `goes_left` holds move to the front, and the
    /// children's ranges are recorded. Returns the number of instances sent
    /// left.
    ///
    /// The partition is **stable** — both children keep their parent's
    /// relative order, so instance lists stay in ascending row order all
    /// the way down the tree (see the module docs for why the fused kernel
    /// depends on this).
    ///
    /// # Panics
    /// Panics if `node` has no range or a child slot is out of bounds.
    pub fn split(
        &mut self,
        node: u32,
        left: u32,
        right: u32,
        mut goes_left: impl FnMut(u32) -> bool,
    ) -> usize {
        let (l, r) = self.ranges[node as usize]
            .unwrap_or_else(|| panic!("node {node} has no instance range"));
        let (l, r) = (l as usize, r as usize);
        // Stable partition: left-goers compact in place in order; the
        // right-goers are buffered and written back after them.
        self.rights.clear();
        let mut write = l;
        for read in l..r {
            let id = self.positions[read];
            if goes_left(id) {
                self.positions[write] = id;
                write += 1;
            } else {
                self.rights.push(id);
            }
        }
        self.positions[write..r].copy_from_slice(&self.rights);
        let mid = write as u32;
        self.ranges[left as usize] = Some((l as u32, mid));
        self.ranges[right as usize] = Some((mid, r as u32));
        write - l
    }

    /// [`NodeIndex::split`] on one feature: an instance goes left when
    /// `goes_left` holds for its value in `column`, `0.0` where the column
    /// has no entry for it — the partition `|i| goes_left(row(i).get(f))`
    /// produces, without searching any row. The node's list and the column's
    /// row ids both ascend, so one cursor gallops through the column as the
    /// list is read: a node far smaller than the column skips most of it, a
    /// column far sparser than the node is passed in single steps. (A list
    /// that does not ascend restarts the cursor and stays correct.)
    pub fn split_column(
        &mut self,
        node: u32,
        left: u32,
        right: u32,
        column: Column<'_>,
        goes_left: impl Fn(f32) -> bool,
    ) -> usize {
        let (rows, values) = (column.rows(), column.values());
        let absent_left = goes_left(0.0);
        let (mut at, mut prev) = (0usize, 0u32);
        self.split(node, left, right, |id| {
            if id < prev {
                at = 0;
            }
            prev = id;
            // Invariant: every row before `at` is below `id`. Probe at
            // doubling strides until one is not, then search the last gap.
            let (mut probe, mut stride) = (at, 1usize);
            while probe < rows.len() && rows[probe] < id {
                at = probe + 1;
                probe += stride;
                stride *= 2;
            }
            let gap = &rows[at..probe.min(rows.len())];
            at += gap.partition_point(|&row| row < id);
            match rows.get(at) {
                Some(&row) if row == id => goes_left(values[at]),
                _ => absent_left,
            }
        })
    }

    /// Total instances tracked.
    pub fn num_instances(&self) -> usize {
        self.positions.len()
    }

    /// Adds the finished `tree`'s shrunk leaf weights to the scores of the
    /// instances this index tracks — every leaf owns one contiguous range,
    /// so no instance is routed. `scores` holds `k` columns per instance;
    /// column `class` is the one updated.
    pub fn update_scores(&self, tree: &Tree, eta: f32, scores: &mut [f32], class: usize, k: usize) {
        for leaf in 0..tree.capacity() as u32 {
            if let Node::Leaf { weight } = tree.node(leaf) {
                for &i in self.instances(leaf) {
                    scores[i as usize * k + class] += eta * weight;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_data::{ColumnView, DatasetBuilder};
    use std::collections::HashSet;

    #[test]
    fn starts_with_everything_at_root() {
        let idx = NodeIndex::new(5, 7);
        assert_eq!(idx.instances(0), &[0, 1, 2, 3, 4]);
        assert_eq!(idx.count(0), 5);
        assert!(idx.instances(1).is_empty());
        assert!(!idx.is_materialized(1));
    }

    #[test]
    fn split_partitions_by_predicate() {
        let mut idx = NodeIndex::new(6, 7);
        // Evens left, odds right.
        let n_left = idx.split(0, 1, 2, |i| i % 2 == 0);
        assert_eq!(n_left, 3);
        let left: HashSet<u32> = idx.instances(1).iter().copied().collect();
        let right: HashSet<u32> = idx.instances(2).iter().copied().collect();
        assert_eq!(left, HashSet::from([0, 2, 4]));
        assert_eq!(right, HashSet::from([1, 3, 5]));
        // Parent's range is now covered by the children.
        assert_eq!(idx.count(1) + idx.count(2), 6);
    }

    #[test]
    fn nested_splits_stay_disjoint() {
        let mut idx = NodeIndex::new(100, 15);
        idx.split(0, 1, 2, |i| i < 50);
        idx.split(1, 3, 4, |i| i < 25);
        idx.split(2, 5, 6, |i| i < 75);
        let collect = |n: u32| -> HashSet<u32> { idx.instances(n).iter().copied().collect() };
        let (a, b, c, d) = (collect(3), collect(4), collect(5), collect(6));
        assert_eq!(a.len() + b.len() + c.len() + d.len(), 100);
        assert!(a.iter().all(|&i| i < 25));
        assert!(b.iter().all(|&i| (25..50).contains(&i)));
        assert!(c.iter().all(|&i| (50..75).contains(&i)));
        assert!(d.iter().all(|&i| i >= 75));
    }

    #[test]
    fn all_left_and_all_right() {
        let mut idx = NodeIndex::new(4, 7);
        idx.split(0, 1, 2, |_| true);
        assert_eq!(idx.count(1), 4);
        assert_eq!(idx.count(2), 0);
        assert!(idx.is_materialized(2));

        let mut idx = NodeIndex::new(4, 7);
        idx.split(0, 1, 2, |_| false);
        assert_eq!(idx.count(1), 0);
        assert_eq!(idx.count(2), 4);
    }

    #[test]
    fn empty_node_splits_to_empty_children() {
        let mut idx = NodeIndex::new(4, 15);
        idx.split(0, 1, 2, |_| true);
        // node 2 is empty; splitting it materializes empty children.
        idx.split(2, 5, 6, |_| true);
        assert_eq!(idx.count(5), 0);
        assert_eq!(idx.count(6), 0);
        assert!(idx.is_materialized(5));
    }

    #[test]
    fn zero_instances() {
        let idx = NodeIndex::new(0, 3);
        assert_eq!(idx.count(0), 0);
        assert_eq!(idx.num_instances(), 0);
    }

    #[test]
    #[should_panic(expected = "no instance range")]
    fn splitting_unmaterialized_node_panics() {
        let mut idx = NodeIndex::new(4, 7);
        idx.split(5, 1, 2, |_| true);
    }

    // The fused layer kernel's bit-equality contract requires every node's
    // instance list to stay in ascending row order — i.e. the split must be
    // a stable partition, not the two-pointer swap that scrambles order.
    #[test]
    fn split_is_stable_and_preserves_ascending_order() {
        let mut idx = NodeIndex::new(64, 15);
        idx.split(0, 1, 2, |i| i % 3 == 0);
        idx.split(1, 3, 4, |i| i % 2 == 0);
        idx.split(2, 5, 6, |i| i % 5 < 2);
        // A split rearranges the parent's own range, so only the current
        // leaves are guaranteed ascending — which is all the fused kernel
        // ever builds from.
        for node in [3u32, 4, 5, 6] {
            let inst = idx.instances(node);
            assert!(
                inst.windows(2).all(|w| w[0] < w[1]),
                "node {node} not ascending: {inst:?}"
            );
        }
    }

    /// The view of a shard of `n` rows whose features are `columns`, each
    /// `(ascending rows, values)`.
    fn view_of(n: u32, columns: &[(Vec<u32>, Vec<f32>)]) -> ColumnView {
        let mut builder = DatasetBuilder::new(columns.len());
        for i in 0..n {
            let held = |(rows, _): &(Vec<u32>, Vec<f32>)| rows.binary_search(&i).ok();
            let entries = columns.iter().enumerate();
            let (indices, values): (Vec<u32>, Vec<f32>) = entries
                .filter_map(|(f, col)| held(col).map(|p| (f as u32, col.1[p])))
                .unzip();
            builder.push_raw(&indices, &values, 0.0).unwrap();
        }
        ColumnView::build(&builder.finish().unwrap())
    }

    // Equality with the predicate form over random shards, subsets and trees
    // is the root package's `tests/column_view.rs`; these are the cases it
    // cannot phrase, on hand-written columns.
    #[test]
    fn column_split_edge_cases() {
        let rule = |v: f32| v != 0.0 && v <= 0.5;
        let view = view_of(
            50,
            &[
                (vec![], vec![]),
                (vec![2], vec![0.1]),
                (
                    vec![1, 11, 40, 41, 42, 43],
                    vec![0.1, 0.2, 0.3, 0.3, 0.3, 0.3],
                ),
                (vec![0, 4, 5], vec![0.1, 9.0, 0.2]),
            ],
        );
        // Empty column: everything follows the absent rule (right here).
        let mut idx = NodeIndex::new(6, 7);
        assert_eq!(idx.split_column(0, 1, 2, view.column(0), rule), 0);
        assert_eq!(idx.instances(2), &[0, 1, 2, 3, 4, 5]);
        // Empty node.
        assert_eq!(idx.split_column(1, 3, 4, view.column(1), rule), 0);
        assert!(idx.is_materialized(3) && idx.count(4) == 0);
        // Column rows outside the node, before and after its ids.
        let mut idx = NodeIndex::from_instances(vec![10, 11, 12], 3);
        assert_eq!(idx.split_column(0, 1, 2, view.column(2), rule), 1);
        assert_eq!(idx.instances(1), &[11]);
        assert_eq!(idx.instances(2), &[10, 12]);
        // A list that does not ascend is still partitioned by value.
        let mut idx = NodeIndex::from_instances(vec![5, 1, 4, 0], 3);
        assert_eq!(idx.split_column(0, 1, 2, view.column(3), rule), 2);
        assert_eq!(idx.instances(1), &[5, 0]);
        assert_eq!(idx.instances(2), &[1, 4]);
    }

    #[test]
    fn predicate_sees_instance_ids_not_positions() {
        let mut idx = NodeIndex::new(6, 7);
        idx.split(0, 1, 2, |i| i >= 3); // reverse order split
        let left: HashSet<u32> = idx.instances(1).iter().copied().collect();
        assert_eq!(left, HashSet::from([3, 4, 5]));
    }
}
