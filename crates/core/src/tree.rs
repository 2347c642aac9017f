//! Regression trees in the implicit breadth-first layout the paper uses:
//! node `i`'s children are `2i + 1` and `2i + 2` (the "state array" of the
//! task scheduler, Figure 10, indexes nodes the same way).

use dimboost_data::RowView;
use dimboost_ps::split::SplitDecision;
use dimboost_ps::SplitParams;
use serde::{Deserialize, Serialize};

/// One slot of the tree's node array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Not (yet) part of the tree.
    Unused,
    /// A split node: instances with nonzero `value(feature) <= threshold`
    /// go left; zeros (absent features) follow `default_left`.
    Internal {
        /// Global feature index tested at this node.
        feature: u32,
        /// Split threshold.
        threshold: f32,
        /// Objective gain the split achieved (for feature importance).
        gain: f32,
        /// Where zero (absent) values go. `0.0 <= threshold` unless
        /// default-direction learning chose otherwise.
        default_left: bool,
    },
    /// A terminal node predicting `weight` (before shrinkage).
    Leaf {
        /// The regression weight `ω`.
        weight: f32,
    },
}

/// A single regression tree with at most `2^(max_depth+1) − 1` nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    max_depth: usize,
}

impl Tree {
    /// Creates an empty tree able to hold splits down to `max_depth` levels
    /// (leaves live at depth `max_depth`).
    pub fn new(max_depth: usize) -> Self {
        let capacity = (1usize << (max_depth + 1)) - 1;
        Self {
            nodes: vec![Node::Unused; capacity],
            max_depth,
        }
    }

    /// Reconstructs a tree from a full node array (deserialization path).
    ///
    /// # Errors
    /// Fails if the array length is not `2^(max_depth+1) − 1` or the
    /// structure violates [`Tree::check_consistency`].
    pub fn from_nodes(nodes: Vec<Node>, max_depth: usize) -> Result<Self, String> {
        let expected = (1usize << (max_depth + 1)) - 1;
        if nodes.len() != expected {
            return Err(format!(
                "node array length {} does not match depth {max_depth} (expected {expected})",
                nodes.len()
            ));
        }
        let tree = Self { nodes, max_depth };
        tree.check_consistency()?;
        Ok(tree)
    }

    /// The raw node array (serialization path).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Maximum split depth.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Total node-array capacity.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// The node at `id`.
    pub fn node(&self, id: u32) -> Node {
        self.nodes[id as usize]
    }

    /// Left child id.
    pub fn left_child(id: u32) -> u32 {
        2 * id + 1
    }

    /// Right child id.
    pub fn right_child(id: u32) -> u32 {
        2 * id + 2
    }

    /// Parent id (panics on the root).
    pub fn parent(id: u32) -> u32 {
        assert!(id > 0, "root has no parent");
        (id - 1) / 2
    }

    /// Depth of a node id in the implicit layout (root = 0).
    pub fn depth_of(id: u32) -> usize {
        (id + 1).ilog2() as usize
    }

    /// Marks `id` as an internal split node.
    pub fn set_internal(&mut self, id: u32, feature: u32, threshold: f32) {
        self.set_internal_with_gain(id, feature, threshold, 0.0);
    }

    /// Marks `id` as an internal split node, recording the split's gain;
    /// zeros take the natural direction (`0 <= threshold`).
    pub fn set_internal_with_gain(&mut self, id: u32, feature: u32, threshold: f32, gain: f32) {
        self.set_internal_full(id, feature, threshold, gain, 0.0 <= threshold);
    }

    /// Marks `id` as an internal split node with an explicit default
    /// direction for zero (absent) values.
    pub fn set_internal_full(
        &mut self,
        id: u32,
        feature: u32,
        threshold: f32,
        gain: f32,
        default_left: bool,
    ) {
        assert!(
            Self::depth_of(id) < self.max_depth,
            "cannot split node {id} at depth {} (max {})",
            Self::depth_of(id),
            self.max_depth
        );
        self.nodes[id as usize] = Node::Internal {
            feature,
            threshold,
            gain,
            default_left,
        };
    }

    /// Marks `id` as a leaf with the given weight.
    pub fn set_leaf(&mut self, id: u32, weight: f32) {
        self.nodes[id as usize] = Node::Leaf { weight };
    }

    /// SPLIT_TREE for one node: without a split it becomes a leaf weighted
    /// from the node totals; with one it becomes internal (gain and default
    /// direction recorded) and, when it sits on the last layer that may
    /// split, its children become leaves weighted from the split's left
    /// sums and the totals. Returns the children that join the next layer's
    /// active set — `None` when the node or its children ended as leaves.
    pub fn apply_decision(&mut self, d: &SplitDecision, params: &SplitParams) -> Option<[u32; 2]> {
        let leaf = |g, h| params.leaf_weight(g, h) as f32;
        let Some(split) = d.split else {
            self.set_leaf(d.node, leaf(d.total_g, d.total_h));
            return None;
        };
        let gain = split.gain as f32;
        self.set_internal_full(
            d.node,
            split.feature,
            split.threshold,
            gain,
            split.default_left,
        );
        let children = [Self::left_child(d.node), Self::right_child(d.node)];
        if Self::depth_of(d.node) + 1 < self.max_depth {
            return Some(children);
        }
        let (gl, hl) = (split.left_g, split.left_h);
        self.set_leaf(children[0], leaf(gl, hl));
        self.set_leaf(children[1], leaf(d.total_g - gl, d.total_h - hl));
        None
    }

    /// Number of leaves currently in the tree.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Number of internal nodes currently in the tree.
    pub fn num_internal(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Internal { .. }))
            .count()
    }

    /// Routes an instance from node `from` downward until it reaches a node
    /// that is not internal; returns that node id. Used both for prediction
    /// (reaching a leaf) and, during construction, for locating the active
    /// node an instance currently belongs to.
    pub fn route(&self, row: &RowView<'_>, from: u32) -> u32 {
        let mut id = from;
        loop {
            match self.nodes[id as usize] {
                Node::Internal {
                    feature,
                    threshold,
                    default_left,
                    ..
                } => {
                    let v = row.get(feature);
                    let left = if v == 0.0 {
                        default_left
                    } else {
                        v <= threshold
                    };
                    id = if left {
                        Self::left_child(id)
                    } else {
                        Self::right_child(id)
                    };
                }
                _ => return id,
            }
        }
    }

    /// Predicts the (unshrunk) weight for an instance. Instances landing on
    /// an `Unused` slot (possible only on malformed trees) predict `0.0`.
    pub fn predict(&self, row: &RowView<'_>) -> f32 {
        match self.nodes[self.route(row, 0) as usize] {
            Node::Leaf { weight } => weight,
            _ => 0.0,
        }
    }

    /// Renders the tree as an indented text outline (model inspection).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_node(0, 0, &mut out);
        out
    }

    fn dump_node(&self, id: u32, depth: usize, out: &mut String) {
        if id as usize >= self.nodes.len() {
            return;
        }
        let pad = "  ".repeat(depth);
        match self.nodes[id as usize] {
            Node::Unused => {}
            Node::Internal {
                feature,
                threshold,
                gain,
                default_left,
            } => {
                out.push_str(&format!(
                    "{pad}#{id} [f{feature} <= {threshold}] gain={gain:.4} zeros={}\n",
                    if default_left { "left" } else { "right" }
                ));
                self.dump_node(Self::left_child(id), depth + 1, out);
                self.dump_node(Self::right_child(id), depth + 1, out);
            }
            Node::Leaf { weight } => {
                out.push_str(&format!("{pad}#{id} leaf weight={weight:.4}\n"));
            }
        }
    }

    /// Checks structural invariants: every internal node has both children
    /// present (internal or leaf), and no node hangs below a leaf or unused
    /// slot. Returns the first violation found.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            let id = i as u32;
            match n {
                Node::Internal { .. } => {
                    for child in [Self::left_child(id), Self::right_child(id)] {
                        if child as usize >= self.nodes.len()
                            || matches!(self.nodes[child as usize], Node::Unused)
                        {
                            return Err(format!("internal node {id} missing child {child}"));
                        }
                    }
                }
                Node::Leaf { .. } | Node::Unused => {
                    for child in [Self::left_child(id), Self::right_child(id)] {
                        if (child as usize) < self.nodes.len()
                            && !matches!(self.nodes[child as usize], Node::Unused)
                        {
                            return Err(format!("non-internal node {id} has child {child}"));
                        }
                    }
                }
            }
        }
        if matches!(self.nodes[0], Node::Unused) {
            return Err("root is unused".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_data::{Dataset, SparseInstance};

    fn row_of(ds: &Dataset, i: usize) -> RowView<'_> {
        ds.row(i)
    }

    fn dataset() -> Dataset {
        let insts = vec![
            SparseInstance::new(vec![0], vec![0.2]).unwrap(), // left
            SparseInstance::new(vec![0], vec![0.9]).unwrap(), // right
            SparseInstance::empty(),                          // zero -> left
        ];
        Dataset::from_instances(&insts, vec![0.0; 3], 2).unwrap()
    }

    fn stump() -> Tree {
        let mut t = Tree::new(2);
        t.set_internal(0, 0, 0.5);
        t.set_leaf(1, -1.0);
        t.set_leaf(2, 1.0);
        t
    }

    #[test]
    fn children_and_depth() {
        assert_eq!(Tree::left_child(0), 1);
        assert_eq!(Tree::right_child(0), 2);
        assert_eq!(Tree::parent(2), 0);
        assert_eq!(Tree::depth_of(0), 0);
        assert_eq!(Tree::depth_of(1), 1);
        assert_eq!(Tree::depth_of(2), 1);
        assert_eq!(Tree::depth_of(3), 2);
        assert_eq!(Tree::depth_of(6), 2);
    }

    #[test]
    fn stump_predicts_by_threshold() {
        let t = stump();
        let ds = dataset();
        assert_eq!(t.predict(&row_of(&ds, 0)), -1.0);
        assert_eq!(t.predict(&row_of(&ds, 1)), 1.0);
        assert_eq!(t.predict(&row_of(&ds, 2)), -1.0); // zero goes left
    }

    #[test]
    fn route_stops_at_active_frontier() {
        let mut t = Tree::new(3);
        t.set_internal(0, 0, 0.5);
        // children not yet materialized: routing stops at them.
        let ds = dataset();
        assert_eq!(t.route(&row_of(&ds, 0), 0), 1);
        assert_eq!(t.route(&row_of(&ds, 1), 0), 2);
    }

    #[test]
    fn consistency_checks() {
        assert!(stump().check_consistency().is_ok());

        let mut t = Tree::new(2);
        t.set_internal(0, 0, 0.5);
        t.set_leaf(1, 0.0);
        // missing right child
        assert!(t.check_consistency().is_err());

        let mut t = Tree::new(2);
        t.set_leaf(0, 0.0);
        t.set_leaf(1, 0.0); // dangling below a leaf
        assert!(t.check_consistency().is_err());

        let t = Tree::new(2); // unused root
        assert!(t.check_consistency().is_err());
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn cannot_split_past_max_depth() {
        let mut t = Tree::new(1);
        t.set_internal(1, 0, 0.0);
    }

    #[test]
    fn apply_decision_grows_leaves_internals_and_last_layer_children() {
        use dimboost_ps::split::FinalSplit;
        let params = SplitParams::default();
        let split = FinalSplit {
            feature: 3,
            threshold: 0.5,
            gain: 2.0,
            left_g: 1.0,
            left_h: 2.0,
            default_left: false,
        };
        let decision = |node, split| SplitDecision {
            node,
            split,
            total_g: 4.0,
            total_h: 6.0,
        };
        let mut t = Tree::new(2);
        // Above the last layer the children open for the next one.
        assert_eq!(
            t.apply_decision(&decision(0, Some(split)), &params),
            Some([1, 2])
        );
        let internal = Node::Internal {
            feature: 3,
            threshold: 0.5,
            gain: 2.0,
            default_left: false,
        };
        assert_eq!(t.node(0), internal);
        assert_eq!(t.node(1), Node::Unused);
        // No split: a leaf from the node totals.
        assert_eq!(t.apply_decision(&decision(1, None), &params), None);
        let leaf = |g, h| Node::Leaf {
            weight: params.leaf_weight(g, h) as f32,
        };
        assert_eq!(t.node(1), leaf(4.0, 6.0));
        // On the last layer the children are leaves: left sums, and totals
        // minus left sums.
        assert_eq!(t.apply_decision(&decision(2, Some(split)), &params), None);
        assert_eq!(t.node(2), internal);
        assert_eq!(t.node(5), leaf(1.0, 2.0));
        assert_eq!(t.node(6), leaf(3.0, 4.0));
        assert!(t.check_consistency().is_ok());
    }

    #[test]
    fn capacity_matches_depth() {
        assert_eq!(Tree::new(1).capacity(), 3);
        assert_eq!(Tree::new(3).capacity(), 15);
        assert_eq!(Tree::new(7).capacity(), 255);
    }

    #[test]
    fn leaf_and_internal_counts() {
        let t = stump();
        assert_eq!(t.num_leaves(), 2);
        assert_eq!(t.num_internal(), 1);
    }
}
