//! Table 3 — effect of each proposed optimization, added cumulatively in
//! the paper's order.
//!
//! Three measurements, as in the paper:
//! 1. *Build the root node*: dense pass → sparsity-aware (Algorithm 2) →
//!    + parallel batch construction.
//! 2. *Build the last layer*: with instances located by re-routing the
//!    whole shard vs. by the node-to-instance index.
//! 3. *Build a tree* end-to-end: + task scheduler → + two-phase split →
//!    + low-precision histograms (modelled time = compute + simulated comm).
//!
//! Shapes to reproduce: sparsity-aware is the dominant win (paper: 1500×,
//! proportional to M/z), parallel batch adds a multi-core factor, the index
//! ~2× on deep layers, and the three FIND_SPLIT optimizations progressively
//! cut per-tree time (paper: 131 → 120 → 77 → 41 s).

use dimboost_bench::{fmt_bytes, fmt_secs, print_table, run, table3_steps, timed, Scale, System};
use dimboost_core::hist_build::build_row;
use dimboost_core::loss::GradPair;
use dimboost_core::parallel::{build_row_batched, BatchConfig};
use dimboost_core::{local_sketches, FeatureMeta, GbdtConfig, NodeIndex, Tree};
use dimboost_data::partition::partition_rows;
use dimboost_data::synthetic::{gender_like, generate};
use dimboost_simnet::{CostModel, Phase};
use dimboost_sketch::propose_candidates;

fn main() {
    let scale = Scale::from_env();
    let cfg_data = gender_like(42)
        .with_rows(scale.pick(20_000, 60_000))
        .with_features(scale.pick(4_000, 33_000));
    let ds = generate(&cfg_data);
    println!(
        "dataset: {} rows x {} features, avg nnz {:.1} (z/M = {:.5})",
        ds.num_rows(),
        ds.num_features(),
        ds.avg_nnz(),
        ds.avg_nnz() / ds.num_features() as f64
    );

    let candidates: Vec<_> = local_sketches(&ds, 0..ds.num_features(), 0.02)
        .iter_mut()
        .map(|s| propose_candidates(s, 20))
        .collect();
    let meta = FeatureMeta::all_features(&candidates);
    let grads: Vec<GradPair> = (0..ds.num_rows())
        .map(|i| GradPair {
            g: ((i % 5) as f32 - 2.0) / 2.0,
            h: 0.25,
        })
        .collect();
    let all: Vec<u32> = (0..ds.num_rows() as u32).collect();

    // ---- 1. Build the root node. -----------------------------------------
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "host parallelism: {cores} core(s){}",
        if cores == 1 {
            " — the parallel-batch row cannot speed up on one core; its win is the multi-core factor (paper: 33s -> 0.218s on 24 cores)"
        } else {
            ""
        }
    );

    let (_, t_dense) = timed(|| build_row(&ds, &all, &grads, &meta, false));
    let (_, t_sparse) = timed(|| build_row(&ds, &all, &grads, &meta, true));
    let bc = BatchConfig {
        batch_size: 1_000,
        threads: 8,
        sparse: true,
    };
    let (_, t_batch) = timed(|| build_row_batched(&ds, &all, &grads, &meta, &bc));
    print_table(
        "Table 3a: build the root node",
        &["configuration", "time", "speedup vs dense"],
        &[
            vec!["dense (basic)".into(), fmt_secs(t_dense), "1.0x".into()],
            vec![
                "+ sparsity-aware".into(),
                fmt_secs(t_sparse),
                format!("{:.0}x", t_dense / t_sparse),
            ],
            vec![
                "+ parallel batch".into(),
                fmt_secs(t_batch),
                format!("{:.0}x", t_dense / t_batch),
            ],
        ],
    );

    // ---- 2. Build the last layer: scan vs node-to-instance index. --------
    // Grow a random tree of depth `d-1` and mirror it in a NodeIndex, then
    // time histogram construction for the whole last layer both ways.
    let depth = 5;
    let mut tree = Tree::new(depth);
    let mut index = NodeIndex::new(ds.num_rows(), tree.capacity());
    let mut frontier = vec![0u32];
    for _ in 0..depth - 1 {
        let mut next = Vec::new();
        for &node in &frontier {
            // Split on the feature most frequent within this node (at
            // threshold 0), which keeps the layer reasonably balanced.
            let mut counts = vec![0u32; ds.num_features()];
            for &i in index.instances(node) {
                for &f in ds.row(i as usize).indices() {
                    counts[f as usize] += 1;
                }
            }
            let f = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(f, _)| f)
                .unwrap_or(0);
            let threshold = 0.0f32;
            tree.set_internal(node, f as u32, threshold);
            let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
            index.split(node, lc, rc, |i| {
                ds.row(i as usize).get(f as u32) <= threshold
            });
            next.push(lc);
            next.push(rc);
        }
        frontier = next;
    }
    println!(
        "\nlast layer: {} nodes, sizes {:?}",
        frontier.len(),
        frontier.iter().map(|&n| index.count(n)).collect::<Vec<_>>()
    );

    let (_, t_scan) = timed(|| {
        for &node in &frontier {
            let instances: Vec<u32> = (0..ds.num_rows() as u32)
                .filter(|&i| tree.route(&ds.row(i as usize), 0) == node)
                .collect();
            build_row_batched(&ds, &instances, &grads, &meta, &bc);
        }
    });
    let (_, t_index) = timed(|| {
        for &node in &frontier {
            build_row_batched(&ds, index.instances(node), &grads, &meta, &bc);
        }
    });
    print_table(
        "Table 3b: build the last layer",
        &["configuration", "time", "speedup"],
        &[
            vec![
                "full-shard routing (no index)".into(),
                fmt_secs(t_scan),
                "1.0x".into(),
            ],
            vec![
                "+ node-to-instance index".into(),
                fmt_secs(t_index),
                format!("{:.2}x", t_scan / t_index),
            ],
        ],
    );

    // ---- 3. Build a tree: FIND_SPLIT optimizations, cumulative. ----------
    let workers = scale.pick(5, 8);
    let shards = partition_rows(&ds, workers).unwrap();
    let base = GbdtConfig {
        num_trees: 1,
        max_depth: depth,
        num_candidates: 20,
        num_threads: 8,
        batch_size: 1_000,
        ..GbdtConfig::default()
    };
    let mut rows = Vec::new();
    let mut first_total = None;
    for (step, (label, opts)) in table3_steps().into_iter().enumerate() {
        let mut cfg = base.clone();
        cfg.opts = opts;
        let cost = CostModel::GIGABIT_LAN;
        let r = run(System::DimBoost, &shards, &cfg, workers, cost, None);
        let total = r.total_secs();
        let first = *first_total.get_or_insert(total);
        rows.push(vec![
            label.into(),
            fmt_secs(r.compute_secs),
            fmt_secs(r.comm_secs),
            fmt_bytes(r.phase_bytes(Phase::BuildHistogram)),
            fmt_bytes(r.phase_bytes(Phase::FindSplit)),
            fmt_secs(total),
            format!("{:.2}x", first / total),
        ]);
        r.write_artifacts(&format!("table3_step{step}"));
    }
    print_table(
        "Table 3c: build a tree (modelled time = compute + simulated comm)",
        &[
            "configuration",
            "compute",
            "comm(sim)",
            "hist bytes",
            "split bytes",
            "total",
            "speedup",
        ],
        &rows,
    );
}
