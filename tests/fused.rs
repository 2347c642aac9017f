//! The layer-fused histogram kernel's contract, end to end.
//!
//! The fused kernel (`dimboost::core::fused`) builds every build node of a
//! tree layer in one statically-striped pass over the binned CSR. Its
//! guarantees, pinned here at both the kernel and the full-trainer level:
//!
//! * at `threads == 1` it is **bit-equal** to Algorithm 2 over each node's
//!   instance list (`hist_build::build_sparse`, the raw-shard builder, which
//!   shares no code with the kernel) and trains the same model bytes as the
//!   per-node path — `assert_eq!`, no tolerances;
//! * for any fixed `(threads, batch_size)` it is bit-identical across
//!   reruns (≥10 reps at threads {2, 4, 8});
//! * combined with `hist_subtraction` it matches direct construction the
//!   same way the per-node path does;
//! * neither training nor batch scoring spawns per-call OS threads — both
//!   share one persistent pool per process.

use dimboost::core::binned::BinnedShard;
use dimboost::core::fused::{build_layer, LayerPositions, NO_NODE};
use dimboost::core::hist_build::{build_sparse, new_row};
use dimboost::core::loss::GradPair;
use dimboost::core::metrics::classification_error;
use dimboost::core::model_io::model_to_bytes;
use dimboost::core::{pool, train_distributed, FeatureMeta, GbdtConfig};
use dimboost::data::partition::{partition_rows, train_test_split};
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::data::Dataset;
use dimboost::ps::PsConfig;
use dimboost::simnet::CostModel;
use dimboost::sketch::SplitCandidates;
use proptest::collection::vec;
use proptest::prelude::*;

fn meta_for(ds: &Dataset) -> FeatureMeta {
    let cands: Vec<SplitCandidates> = (0..ds.num_features())
        .map(|_| SplitCandidates::from_boundaries(vec![-0.8, 0.1, 0.9]))
        .collect();
    FeatureMeta::all_features(&cands)
}

fn ps_config(servers: usize) -> PsConfig {
    PsConfig {
        num_servers: servers,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    }
}

fn fused_config(threads: usize) -> GbdtConfig {
    let mut config = GbdtConfig {
        num_trees: 3,
        max_depth: 3,
        num_candidates: 8,
        learning_rate: 0.3,
        num_threads: threads,
        batch_size: 64,
        ..GbdtConfig::default()
    };
    config.opts.fused_layer = true;
    config
}

/// Acceptance anchor: with one thread, training with the fused kernel must
/// produce **bit-identical model bytes** to the per-node binned path — for
/// every combination of the node-index ablation and histogram subtraction,
/// and under row subsampling.
#[test]
fn fused_threads1_model_bytes_equal_per_node_path() {
    let ds = generate(&SparseGenConfig::new(1_200, 90, 10, 61));
    let shards = partition_rows(&ds, 2).unwrap();
    for (node_index, hist_subtraction, row_sample) in [
        (true, false, 1.0),
        (false, false, 1.0),
        (true, true, 1.0),
        (false, true, 1.0),
        (true, false, 0.8),
    ] {
        let mut per_node = fused_config(1);
        per_node.opts.fused_layer = false;
        // The per-node reference runs over the same binned representation
        // the fused kernel uses.
        per_node.opts.pre_binning = true;
        per_node.opts.node_index = node_index;
        per_node.opts.hist_subtraction = hist_subtraction;
        per_node.instance_sample_ratio = row_sample;

        let mut fused = per_node.clone();
        fused.opts.fused_layer = true;

        let a = train_distributed(&shards, &per_node, ps_config(2)).unwrap();
        let b = train_distributed(&shards, &fused, ps_config(2)).unwrap();
        assert_eq!(
            model_to_bytes(&a.model),
            model_to_bytes(&b.model),
            "node_index={node_index} hist_subtraction={hist_subtraction} row_sample={row_sample}"
        );
    }
}

/// ≥10-rep stress: fused multi-threaded end-to-end training must be
/// bit-identical across reruns at every thread count (same shape as
/// `multithreaded_training_is_bit_identical_across_reruns`).
#[test]
fn fused_multithreaded_training_bit_identical_across_reruns() {
    let ds = generate(&SparseGenConfig::new(900, 80, 10, 37));
    let shards = partition_rows(&ds, 2).unwrap();
    for threads in [2, 4, 8] {
        let config = fused_config(threads);
        let reference = train_distributed(&shards, &config, ps_config(2)).unwrap();
        let reference_bytes = model_to_bytes(&reference.model);
        let reference_report = reference.report.canonical_json();
        for rep in 0..10 {
            let again = train_distributed(&shards, &config, ps_config(2)).unwrap();
            assert_eq!(
                model_to_bytes(&again.model),
                reference_bytes,
                "threads={threads} rep={rep}"
            );
            assert_eq!(
                again.report.canonical_json(),
                reference_report,
                "threads={threads} rep={rep}"
            );
        }
    }
}

/// `fused_layer + hist_subtraction` must match direct construction the
/// same way `hist_subtraction_matches_direct_construction` pins for the
/// per-node path: near-identical test error, strictly fewer pushed bytes.
#[test]
fn fused_with_subtraction_matches_direct_construction() {
    let ds = generate(&SparseGenConfig::new(2_000, 150, 12, 19));
    let (train, test) = train_test_split(&ds, 0.2, 19).unwrap();
    let shards = partition_rows(&train, 3).unwrap();

    let mut direct_cfg = GbdtConfig {
        num_trees: 5,
        max_depth: 4,
        num_candidates: 10,
        learning_rate: 0.3,
        num_threads: 2,
        ..GbdtConfig::default()
    };
    direct_cfg.opts.low_precision = false;
    direct_cfg.opts.fused_layer = true;
    let direct = train_distributed(&shards, &direct_cfg, ps_config(3)).unwrap();

    let mut sub_cfg = direct_cfg.clone();
    sub_cfg.opts.hist_subtraction = true;
    let sub = train_distributed(&shards, &sub_cfg, ps_config(3)).unwrap();

    let err_direct = classification_error(&direct.model.predict_dataset(&test), test.labels());
    let err_sub = classification_error(&sub.model.predict_dataset(&test), test.labels());
    assert!(
        (err_direct - err_sub).abs() < 0.03,
        "direct {err_direct} vs subtraction {err_sub}"
    );
    assert!(
        sub.breakdown.comm.bytes < direct.breakdown.comm.bytes,
        "subtraction {} should move fewer bytes than {}",
        sub.breakdown.comm.bytes,
        direct.breakdown.comm.bytes
    );
}

/// An undersized block budget must fall back to per-node builds — and,
/// since both paths agree bit-for-bit at one thread, produce the same
/// model; telemetry (hist bytes, per-node instance counts) must be
/// identical in every configuration.
#[test]
fn budget_fallback_is_transparent() {
    let ds = generate(&SparseGenConfig::new(800, 60, 8, 53));
    let shards = partition_rows(&ds, 2).unwrap();
    let fused = fused_config(1);
    let mut starved = fused.clone();
    starved.fused_block_budget = 0; // every layer falls back
    let a = train_distributed(&shards, &fused, ps_config(2)).unwrap();
    let b = train_distributed(&shards, &starved, ps_config(2)).unwrap();
    assert_eq!(model_to_bytes(&a.model), model_to_bytes(&b.model));
    assert_eq!(a.report.canonical_json(), b.report.canonical_json());
}

/// The trainer streams every local row through one kept buffer and one kept
/// code vector per worker. This run makes both change size as often as a
/// run can: σ < 1 gives every tree a different row length, and a block
/// budget that admits narrow layers but not wide ones makes the buffer
/// alternate between a fused layer block and a single row inside each
/// tree — with 8-bit pushes on, so a stale or short buffer would reach the
/// quantizer and the model. One thread, so the fused kernel is bit-equal to
/// the per-node binned path, which is the reference.
#[test]
fn streamed_buffers_survive_resizing_rows_blocks_and_trees() {
    let ds = generate(&SparseGenConfig::new(1_000, 90, 10, 71));
    let shards = partition_rows(&ds, 3).unwrap();
    let mut fused = fused_config(1);
    fused.num_trees = 4;
    fused.max_depth = 4;
    fused.feature_sample_ratio = 0.6;
    fused.opts.low_precision = true;
    fused.compress_bits = 8;
    // A row is at most 4.3 KB here (54 sampled features × ≤ 10 buckets):
    // the one- and two-node layers fit the budget as a block, the eight-node
    // layer never does, the four-node layer depends on the tree's features.
    fused.fused_block_budget = 9_000;
    let mut per_node = fused.clone();
    per_node.opts.fused_layer = false;
    per_node.opts.pre_binning = true;

    let a = train_distributed(&shards, &fused, ps_config(2)).unwrap();
    let b = train_distributed(&shards, &per_node, ps_config(2)).unwrap();
    assert_eq!(model_to_bytes(&a.model), model_to_bytes(&b.model));
    assert_eq!(a.report.canonical_json(), b.report.canonical_json());
    // The rows really did change size from tree to tree.
    let raw: Vec<u64> = a.report.rounds.iter().map(|r| r.hist_bytes_raw).collect();
    assert!(raw.windows(2).any(|w| w[0] != w[1]), "{raw:?}");
}

/// The acceptance pin for "no per-call thread spawns on hot paths": a full
/// multi-threaded training run plus a batch scoring run may construct at
/// most one pool (the shared global); repeating both adds zero.
#[test]
fn training_and_serving_share_one_pool() {
    let ds = generate(&SparseGenConfig::new(600, 50, 8, 71));
    let shards = partition_rows(&ds, 2).unwrap();
    let mut config = fused_config(4);
    config.batch_size = 25; // force genuinely multi-threaded builds
    let out = train_distributed(&shards, &config, ps_config(2)).unwrap();
    let compiled = dimboost::predict::CompiledModel::compile(&out.model);
    let engine = dimboost::predict::EngineConfig {
        threads: 4,
        batch_size: 32,
    };
    let first = dimboost::predict::score_raw(&compiled, &ds, &engine);
    let baseline = pool::pool_constructions();
    // Everything after the global pool exists must reuse it: more training,
    // more scoring, zero new pools.
    let again = train_distributed(&shards, &config, ps_config(2)).unwrap();
    assert_eq!(model_to_bytes(&again.model), model_to_bytes(&out.model));
    assert_eq!(dimboost::predict::score_raw(&compiled, &ds, &engine), first);
    assert_eq!(
        pool::pool_constructions(),
        baseline,
        "hot paths constructed a new thread pool"
    );
    // And the global pool accounts for at most one construction overall
    // (other tests in this binary may never have touched it).
    assert!(baseline <= 1, "expected at most one pool, saw {baseline}");
}

fn arb_layer_input() -> impl Strategy<Value = (Dataset, Vec<GradPair>, Vec<u32>)> {
    // 60 rows × 12 features with random sparsity, gradients, and a random
    // node assignment per row (4 slots plus "no node").
    (
        vec(vec((0u32..12, -1.5f32..1.5), 0..8), 60),
        vec((-2.0f32..2.0, 0.05f32..2.0), 60),
        vec(0u32..5, 60),
    )
        .prop_map(|(rows, gh, raw_slots)| {
            let instances: Vec<dimboost::data::SparseInstance> = rows
                .into_iter()
                .map(|mut pairs| {
                    pairs.sort_unstable_by_key(|&(f, _)| f);
                    pairs.dedup_by_key(|&mut (f, _)| f);
                    dimboost::data::SparseInstance::from_pairs(pairs).unwrap()
                })
                .collect();
            let labels = vec![0.0; instances.len()];
            let ds = Dataset::from_instances(&instances, labels, 12).unwrap();
            let grads = gh.into_iter().map(|(g, h)| GradPair { g, h }).collect();
            let slots = raw_slots
                .into_iter()
                .map(|s| if s == 4 { NO_NODE } else { s })
                .collect();
            (ds, grads, slots)
        })
}

proptest! {
    /// Kernel-level pin of the fused contract for random shards, node
    /// partitions, thread counts, and batch sizes: the single-threaded
    /// kernel is bit-equal to Algorithm 2 run per node on the raw shard
    /// (`build_sparse`, separate code from the kernel; `assert_eq!`), every multi-threaded configuration is bit-equal on
    /// rerun, and — since different thread counts regroup f32 additions —
    /// multi-threaded output matches the reference within the builders'
    /// shared associativity tolerance.
    #[test]
    fn fused_kernel_matches_per_node_reference(
        (ds, grads, slots) in arb_layer_input(),
        threads in 1usize..9,
        batch_size in 1usize..40,
    ) {
        let meta = meta_for(&ds);
        let binned = BinnedShard::build(&ds, &meta);
        let mut counts = vec![0u64; 4];
        for &s in &slots {
            if s != NO_NODE {
                counts[s as usize] += 1;
            }
        }
        let positions = LayerPositions { slots: slots.clone(), counts };
        let row_len = meta.layout().row_len();

        // Per-node reference: Algorithm 2 over each slot's (ascending)
        // instance list.
        let mut reference = Vec::with_capacity(4 * row_len);
        for s in 0..4u32 {
            let instances: Vec<u32> = (0..ds.num_rows() as u32)
                .filter(|&i| slots[i as usize] == s)
                .collect();
            let mut row = new_row(&meta);
            build_sparse(&ds, &instances, &grads, &meta, &mut row);
            reference.extend_from_slice(&row);
        }

        let single = build_layer(&binned, &positions, &grads, &meta, batch_size, 1);
        prop_assert_eq!(&single, &reference, "threads=1 must be bit-equal");

        let multi = build_layer(&binned, &positions, &grads, &meta, batch_size, threads);
        let rerun = build_layer(&binned, &positions, &grads, &meta, batch_size, threads);
        prop_assert_eq!(&multi, &rerun, "rerun must be bit-identical");
        for (i, (a, b)) in multi.iter().zip(&reference).enumerate() {
            prop_assert!((a - b).abs() < 1e-3, "elem {}: {} vs {}", i, a, b);
        }
    }
}
