//! The scripted round-0 replay.
//!
//! `train_distributed` is one 1 100-line function; from outside, its wall
//! time is a single number. To attribute that number to layers without
//! touching the trainer, this module re-executes **one boosting round**
//! stage by stage through the same public functions the trainer calls, in
//! the same order, each call inside a span:
//!
//! sketch insert/flush → `push_sketches`/`pull_sketches` →
//! `propose_candidates` → `FeatureMeta` → gradient pass → (binned /
//! pair-view / gradient-code builds) → per layer: the config's histogram
//! builder → `quantize_row` → the config's `push_histogram*` →
//! `derive_sibling` → `pull_split` → `NodeIndex::split` → prediction
//! update → loss.
//!
//! The *script* is the output of a real one-tree training call on the same
//! shards: tree 0 says which nodes split and on what, and
//! `report.rounds[0].node_instances` says which nodes were built at each
//! depth (under sibling subtraction, which child). Because the script fixes
//! nodes and instance sets, the replay's per-node instance counts and raw
//! push bytes must equal the trained round's exactly — [`reconcile`] checks
//! that, and it is the evidence that the spans describe the real round.
//!
//! The replay supports the flag combinations the workloads use: the
//! node-to-instance index, two-phase split finding, a scalar loss, σ = 1
//! and no row subsampling are required; every histogram builder and all
//! four push paths are mirrored.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dimboost_core::binned::BinnedShard;
use dimboost_core::config::LossKind;
use dimboost_core::hist_build::{self, build_row, QuantBinned, QuantizedGrads};
use dimboost_core::parallel::{build_row_batched, BatchConfig};
use dimboost_core::{
    fused, loss_for, FeatureMeta, FinalSplit, GbdtConfig, GradPair, Node, NodeIndex, NodeInstances,
    RoundRecord, RoundRobinScheduler, SplitDecision, TrainOutput, Tree,
};
use dimboost_data::Dataset;
use dimboost_ps::quantize::quantize_row;
use dimboost_ps::{ParameterServer, PsConfig};
use dimboost_simnet::TraceBus;
use dimboost_sketch::{propose_candidates, GkSketch, SplitCandidates};

use crate::measure::Checks;
use crate::spans::Recorder;

/// Work counted at the same boundaries the spans sit on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Values inserted into quantile sketches (= nonzeros, all workers).
    pub sketch_inserts: u64,
    /// Nonzero entries the histogram builders scanned (built nodes only).
    pub hist_entries: u64,
    /// Histogram cells zero-filled and produced (`row_len` per built node
    /// per worker).
    pub hist_cells: u64,
    /// Histogram elements passed through `quantize_row`.
    pub quantize_elems: u64,
    /// `push_histogram*` calls.
    pub push_calls: u64,
    /// Pushed bytes before compression (4 per element).
    pub push_bytes_raw: u64,
    /// Pushed bytes on the wire, as the trainer's telemetry counts them.
    pub push_bytes_wire: u64,
    /// `pull_split` calls.
    pub pull_split_calls: u64,
    /// Nodes whose replayed `pull_split` answer differs from the scripted
    /// tree (informational: 0 while the replay reproduces the trainer's
    /// arithmetic bit for bit).
    pub split_mismatches: u64,
}

/// One worker's state after the replayed round; the probes reuse it.
pub struct WorkerState {
    /// This tree's gradients.
    pub grads: Vec<GradPair>,
    /// Raw scores after the round.
    pub preds: Vec<f32>,
    /// Node-to-instance index after the last split.
    pub index: NodeIndex,
    /// Pre-binned shard, when the config builds one.
    pub binned: Option<BinnedShard>,
    /// Packed-pair view, when the config builds one.
    pub qbinned: Option<QuantBinned>,
    /// Fixed-point gradient codes, when the config builds them.
    pub qgrads: Option<QuantizedGrads>,
    rng: StdRng,
}

/// Everything one replay produced.
pub struct ReplayOutcome {
    /// Per built node, in build order: instances summed over workers.
    pub node_instances: Vec<NodeInstances>,
    /// Work counts.
    pub counts: ReplayCounts,
    /// Mean training loss after the replayed tree.
    pub train_loss: f64,
    /// The tree's feature metadata (layout, candidates).
    pub meta: FeatureMeta,
    /// Per-worker state after the round.
    pub workers: Vec<WorkerState>,
    /// Worker 0's root histogram row, for the isolated probes.
    pub root_row: Vec<f32>,
}

/// Which nodes were built at each depth, read off the trained round.
fn scripted_layers(record: &RoundRecord, max_depth: usize) -> Vec<Vec<u32>> {
    let mut layers = vec![Vec::new(); max_depth];
    for built in &record.node_instances {
        let depth = Tree::depth_of(built.node);
        if depth < max_depth {
            layers[depth].push(built.node);
        }
    }
    layers
}

/// The trainer's BUILD_HISTOGRAM body for one worker and one layer: the
/// builder the flags select, returning `(node, row, instance count)` per
/// build node exactly as the trainer collects them.
pub fn build_layer_rows(
    config: &GbdtConfig,
    shard: &Dataset,
    worker: &WorkerState,
    meta: &FeatureMeta,
    build_nodes: &[u32],
) -> Vec<(u32, Vec<f32>, u64)> {
    let row_len = meta.layout().row_len();
    let use_fused = config.opts.fused_layer
        && (config.opts.quantized_hist
            || build_nodes
                .len()
                .saturating_mul(row_len)
                .saturating_mul(4)
                .saturating_mul(config.num_threads.max(1))
                <= config.fused_block_budget);
    if use_fused {
        let binned = worker.binned.as_ref().expect("fused_layer bins the shard");
        let positions = fused::positions_from_index(&worker.index, build_nodes, shard.num_rows());
        let block = if config.opts.quantized_hist {
            fused::build_layer_quantized(
                binned,
                worker.qbinned.as_ref().expect("quantized_hist pair view"),
                &positions,
                worker.qgrads.as_ref().expect("quantized_hist codes"),
                meta,
                config.batch_size,
                config.num_threads,
            )
            .0
        } else {
            fused::build_layer(
                binned,
                &positions,
                &worker.grads,
                meta,
                config.batch_size,
                config.num_threads,
            )
        };
        return build_nodes
            .iter()
            .enumerate()
            .map(|(slot, &node)| {
                let row = block[slot * row_len..(slot + 1) * row_len].to_vec();
                (node, row, positions.counts[slot])
            })
            .collect();
    }
    build_nodes
        .iter()
        .map(|&node| {
            let instances = worker.index.instances(node);
            let count = instances.len() as u64;
            let row = if config.opts.quantized_hist {
                let qg = worker.qgrads.as_ref().expect("quantized_hist codes");
                hist_build::build_quantized(
                    worker.binned.as_ref().expect("quantized_hist bins"),
                    worker.qbinned.as_ref().expect("quantized_hist pair view"),
                    instances,
                    qg,
                    meta,
                    hist_build::acc_mode_for(count, qg.max_code()),
                )
            } else if let Some(binned) = &worker.binned {
                if config.opts.parallel_batch {
                    binned.build_row_batched(
                        instances,
                        &worker.grads,
                        meta,
                        config.batch_size,
                        config.num_threads,
                    )
                } else {
                    let mut out = hist_build::new_row(meta);
                    binned.build_into(instances, &worker.grads, &mut out);
                    out
                }
            } else if config.opts.parallel_batch {
                let batch = BatchConfig {
                    batch_size: config.batch_size,
                    threads: config.num_threads,
                    sparse: config.opts.sparse_hist,
                };
                build_row_batched(shard, instances, &worker.grads, meta, &batch)
            } else {
                build_row(
                    shard,
                    instances,
                    &worker.grads,
                    meta,
                    config.opts.sparse_hist,
                )
            };
            (node, row, count)
        })
        .collect()
}

/// The trainer's push of one local row: quantize (when low precision is
/// on) and push through the path the flags select. Returns the wire bytes
/// the trainer's telemetry would add for it.
#[allow(clippy::too_many_arguments)]
pub fn push_row(
    config: &GbdtConfig,
    ps: &ParameterServer,
    meta: &FeatureMeta,
    worker: u32,
    node: u32,
    row: &[f32],
    rng: &mut StdRng,
    rec: &mut Recorder,
) -> u64 {
    let quantized = config.opts.low_precision.then(|| {
        rec.span("ps.quantize_row", "ps", Some(worker), |_| {
            quantize_row(row, meta.layout(), config.compress_bits, rng)
        })
    });
    rec.span("ps.push", "ps", Some(worker), |_| {
        match (&quantized, config.opts.sparse_wire) {
            (Some(q), true) => ps
                .push_histogram_quantized_sparse(worker, node, q)
                .total_bytes(),
            (None, true) => ps.push_histogram_sparse(worker, node, row).total_bytes(),
            (Some(q), false) => {
                ps.push_histogram_quantized(node, q);
                q.wire_bytes() as u64
            }
            (None, false) => {
                ps.push_histogram(node, row);
                4 * row.len() as u64
            }
        }
    })
}

/// Replays round 0 of `trained` (a `num_trees = 1` run of `config` on
/// `shards`) under spans recorded into `rec`. All spans are children of
/// one `replay` span.
pub fn replay_round0(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    trained: &TrainOutput,
    rec: &mut Recorder,
) -> Result<ReplayOutcome, String> {
    let o = &config.opts;
    if !(o.node_index && o.two_phase_split)
        || matches!(config.loss, LossKind::Softmax { .. })
        || config.feature_sample_ratio < 1.0
        || config.instance_sample_ratio < 1.0
    {
        return Err(
            "replay needs node_index, two_phase_split, a scalar loss and no sampling".into(),
        );
    }
    let tree = trained
        .model
        .trees()
        .first()
        .ok_or("trained model has no tree to replay")?;
    let record = trained
        .report
        .rounds
        .first()
        .ok_or("trained report has no round to replay")?;
    let layers = scripted_layers(record, config.max_depth);
    rec.span("replay", "harness", None, |rec| {
        replay_body(shards, config, ps_config, tree, &layers, rec)
    })
}

fn replay_body(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    tree: &Tree,
    layers: &[Vec<u32>],
    rec: &mut Recorder,
) -> Result<ReplayOutcome, String> {
    let w = shards.len();
    let num_features = shards[0].num_features();
    let total_instances: usize = shards.iter().map(Dataset::num_rows).sum();
    let loss = loss_for(config.loss);
    let params = config.split_params();
    let mut counts = ReplayCounts::default();

    let ps = ParameterServer::new(num_features, ps_config);
    // The trainer always rides a (non-capturing) trace bus on the PS; do
    // the same so every PS call pays the same bookkeeping.
    let bus = TraceBus::new(w, ps_config.num_servers, ps_config.cost_model, false);
    ps.attach_trace(bus.clone());

    // ---- CREATE_SKETCH / PULL_SKETCH --------------------------------------
    let worker_eps = config.sketch_eps / ((w as f64).log2() + 2.0).max(2.0);
    let mut locals: Vec<Vec<GkSketch>> = Vec::with_capacity(w);
    for (wi, shard) in shards.iter().enumerate() {
        locals.push(rec.span("sketch.build", "sketch", Some(wi as u32), |_| {
            let mut sketches: Vec<GkSketch> = (0..num_features)
                .map(|_| GkSketch::new(worker_eps))
                .collect();
            for (row, _) in shard.iter_rows() {
                for (f, v) in row.iter() {
                    sketches[f as usize].insert(v);
                }
            }
            for s in &mut sketches {
                s.flush();
            }
            sketches
        }));
        counts.sketch_inserts += shard.nnz() as u64;
    }
    for (wi, mut local) in locals.into_iter().enumerate() {
        bus.set_worker(Some(wi as u32));
        rec.span("sketch.merge", "sketch", Some(wi as u32), |_| {
            std::hint::black_box(local.iter_mut().map(|s| s.wire_bytes()).sum::<usize>());
            ps.push_sketches(local);
        });
    }
    bus.set_worker(None);
    let mut merged = rec.span("sketch.merge", "sketch", None, |_| {
        let mut merged = ps.pull_sketches();
        std::hint::black_box(merged.iter_mut().map(|s| s.wire_bytes()).sum::<usize>());
        merged
    });
    let candidates: Vec<SplitCandidates> = rec.span("sketch.propose", "sketch", None, |_| {
        merged
            .iter_mut()
            .map(|s| propose_candidates(s, config.num_candidates))
            .collect()
    });
    drop(merged);

    // ---- NEW_TREE -----------------------------------------------------------
    let sampled = FeatureMeta::sample_features(num_features, 1.0, config.seed, 0);
    ps.publish_sampled(sampled);
    let meta = rec.span("core.feature_meta", "core", None, |_| {
        FeatureMeta::new(ps.pull_sampled(), &candidates)
    });
    rec.span("ps.init_clear", "ps", None, |_| {
        ps.init_tree(meta.layout().clone())
    });
    let capacity = tree.capacity();
    let row_len = meta.layout().row_len();
    let needs_binned =
        config.opts.pre_binning || config.opts.fused_layer || config.opts.quantized_hist;

    let mut workers: Vec<WorkerState> = Vec::with_capacity(w);
    for (wi, shard) in shards.iter().enumerate() {
        let worker = Some(wi as u32);
        let rows = shard.num_rows();
        let preds = vec![0.0f32; rows];
        let grads = rec.span("core.grad", "core", worker, |_| {
            // Round gradients, then the per-tree copy (one class).
            let all: Vec<GradPair> = (0..rows)
                .map(|i| loss.grad(preds[i], shard.label(i)))
                .collect();
            let mut grads = vec![GradPair::default(); rows];
            grads.copy_from_slice(&all);
            grads
        });
        let binned = needs_binned.then(|| {
            rec.span("core.binned_build", "core", worker, |_| {
                BinnedShard::build(shard, &meta)
            })
        });
        let (qbinned, qgrads) = if config.opts.quantized_hist {
            let binned = binned.as_ref().expect("quantized_hist bins the shard");
            let qbinned = rec.span("core.quantbinned_build", "core", worker, |_| {
                QuantBinned::build(binned, &meta)
            });
            let bits = hist_build::effective_quant_bits(config.quant_hist_bits, rows);
            let qgrads = rec.span("core.qgrads_quantize", "core", worker, |_| {
                QuantizedGrads::quantize(&grads, bits)
            });
            (Some(qbinned), Some(qgrads))
        } else {
            (None, None)
        };
        let index = rec.span("core.node_index_init", "core", worker, |_| {
            NodeIndex::new(rows, capacity)
        });
        workers.push(WorkerState {
            grads,
            preds,
            index,
            binned,
            qbinned,
            qgrads,
            // The trainer's per-worker stream (stochastic rounding).
            rng: StdRng::seed_from_u64(config.seed ^ ((wi as u64 + 1) << 32)),
        });
    }
    // Nonzeros per row, for the scanned-entries count.
    let row_nnz: Vec<Vec<u32>> = shards
        .iter()
        .map(|s| (0..s.num_rows()).map(|i| s.row(i).nnz() as u32).collect())
        .collect();

    // ---- Layers -------------------------------------------------------------
    let scheduler = if config.opts.task_scheduler {
        RoundRobinScheduler::new(w)
    } else {
        RoundRobinScheduler::single_agent(w)
    };
    let mut node_instances: Vec<NodeInstances> = Vec::new();
    let mut root_row: Vec<f32> = Vec::new();
    let mut active: Vec<u32> = vec![0];
    let mut pairs: Vec<(u32, u32, u32)> = Vec::new();

    for depth in 0..config.max_depth {
        if active.is_empty() {
            break;
        }
        let use_subtraction = config.opts.hist_subtraction && !pairs.is_empty();
        let build_nodes = &layers[depth];
        let expected = if use_subtraction {
            pairs.iter().map(|&(_, small, _)| small).collect()
        } else {
            active.clone()
        };
        if *build_nodes != expected {
            return Err(format!(
                "script and tree disagree at depth {depth}: built {build_nodes:?}, tree implies {expected:?}"
            ));
        }

        // BUILD_HISTOGRAM: every worker builds its local rows.
        let mut local_rows: Vec<Vec<(u32, Vec<f32>, u64)>> = Vec::with_capacity(w);
        for (wi, worker) in workers.iter().enumerate() {
            let rows = rec.span("core.hist_build", "core", Some(wi as u32), |_| {
                build_layer_rows(config, &shards[wi], worker, &meta, build_nodes)
            });
            for &node in build_nodes {
                counts.hist_cells += row_len as u64;
                counts.hist_entries += worker
                    .index
                    .instances(node)
                    .iter()
                    .map(|&i| row_nnz[wi][i as usize] as u64)
                    .sum::<u64>();
            }
            if depth == 0 && wi == 0 {
                root_row = rows[0].1.clone();
            }
            local_rows.push(rows);
        }

        // FIND_SPLIT, push half: workers push in ascending order.
        let mut node_counts = vec![0u64; build_nodes.len()];
        for (wi, (worker, rows)) in workers.iter_mut().zip(local_rows).enumerate() {
            bus.set_worker(Some(wi as u32));
            for (pos, (node, row, count)) in rows.into_iter().enumerate() {
                node_counts[pos] += count;
                counts.push_bytes_raw += 4 * row.len() as u64;
                counts.push_calls += 1;
                if config.opts.low_precision {
                    counts.quantize_elems += row.len() as u64;
                }
                counts.push_bytes_wire += push_row(
                    config,
                    &ps,
                    &meta,
                    wi as u32,
                    node,
                    &row,
                    &mut worker.rng,
                    rec,
                );
            }
        }
        bus.set_worker(None);
        for (&node, &instances) in build_nodes.iter().zip(&node_counts) {
            node_instances.push(NodeInstances { node, instances });
        }
        if use_subtraction {
            for &(parent, small, big) in &pairs {
                rec.span("ps.derive_sibling", "ps", None, |_| {
                    ps.derive_sibling(parent, small, big)
                });
                rec.span("ps.init_clear", "ps", None, |_| ps.clear_node(parent));
            }
        }

        // FIND_SPLIT, pull half: the scheduled worker pulls each node's
        // split and publishes the decision.
        for (pos, &node) in active.iter().enumerate() {
            let agent = scheduler.worker_for(pos) as u32;
            bus.set_worker(Some(agent));
            let result = rec.span("ps.pull_split", "ps", Some(agent), |_| {
                ps.pull_split(node, &params)
            });
            counts.pull_split_calls += 1;
            let split = result.best.map(|s| FinalSplit {
                feature: meta.global_id(s.feature as usize),
                threshold: meta.threshold(s.feature as usize, s.bucket as usize),
                gain: s.gain,
                left_g: s.left_g,
                left_h: s.left_h,
                default_left: s.default_left,
            });
            let agrees = match (tree.node(node), split) {
                (
                    Node::Internal {
                        feature,
                        threshold,
                        default_left,
                        ..
                    },
                    Some(s),
                ) => {
                    s.feature == feature
                        && s.threshold == threshold
                        && s.default_left == default_left
                }
                (Node::Leaf { .. }, None) => true,
                _ => false,
            };
            counts.split_mismatches += u64::from(!agrees);
            rec.span("ps.decisions", "ps", Some(agent), |_| {
                ps.publish_decision(SplitDecision {
                    node,
                    split,
                    total_g: result.total_g,
                    total_h: result.total_h,
                })
            });
        }
        bus.set_worker(None);

        // SPLIT_TREE: the *scripted* tree drives the index, so the
        // instance sets below are the trained round's by construction.
        rec.span("ps.decisions", "ps", None, |_| {
            std::hint::black_box(ps.pull_decisions(&active));
        });
        let mut next_active = Vec::new();
        let mut next_pairs = Vec::new();
        for &node in &active {
            let mut keep_row = false;
            if let Node::Internal {
                feature,
                threshold,
                default_left,
                ..
            } = tree.node(node)
            {
                let split = FinalSplit {
                    feature,
                    threshold,
                    gain: 0.0,
                    left_g: 0.0,
                    left_h: 0.0,
                    default_left,
                };
                let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
                for (wi, worker) in workers.iter_mut().enumerate() {
                    let shard = &shards[wi];
                    rec.span("core.node_index_split", "core", Some(wi as u32), |_| {
                        worker.index.split(node, lc, rc, |i| {
                            split.goes_left(shard.row(i as usize).get(feature))
                        })
                    });
                }
                if depth + 1 < config.max_depth {
                    next_active.push(lc);
                    next_active.push(rc);
                    if config.opts.hist_subtraction {
                        // The script says which child the trainer built.
                        let (small, big) = if layers[depth + 1].contains(&lc) {
                            (lc, rc)
                        } else {
                            (rc, lc)
                        };
                        next_pairs.push((node, small, big));
                        keep_row = true;
                    }
                }
            }
            if !keep_row {
                rec.span("ps.init_clear", "ps", None, |_| ps.clear_node(node));
            }
        }
        ps.clear_decisions();
        active = next_active;
        pairs = next_pairs;
    }

    // ---- FINISH: prediction update and round loss ---------------------------
    let eta = config.learning_rate;
    let mut loss_sum = 0.0f64;
    for (wi, worker) in workers.iter_mut().enumerate() {
        let shard = &shards[wi];
        rec.span("core.pred_update", "core", Some(wi as u32), |_| {
            for leaf in 0..capacity as u32 {
                if let Node::Leaf { weight } = tree.node(leaf) {
                    for &i in worker.index.instances(leaf) {
                        worker.preds[i as usize] += eta * weight;
                    }
                }
            }
        });
        loss_sum += rec.span("core.loss_eval", "core", Some(wi as u32), |_| {
            (0..shard.num_rows())
                .map(|i| loss.loss(worker.preds[i], shard.label(i)))
                .sum::<f64>()
        });
    }

    Ok(ReplayOutcome {
        node_instances,
        counts,
        train_loss: loss_sum / total_instances as f64,
        meta,
        workers,
        root_row,
    })
}

/// Compares a replay with the trained round it followed: per-node instance
/// counts, raw push bytes and the round loss must be equal. Wire bytes and
/// `split_mismatches` depend on reproducing the trainer's stochastic
/// rounding stream, so they are reported but not required.
pub fn reconcile(outcome: &ReplayOutcome, trained: &TrainOutput, checks: &mut Checks) {
    let Some(record) = trained.report.rounds.first() else {
        checks.check(false, || "trained report has no round 0".to_string());
        return;
    };
    checks.check(outcome.node_instances == record.node_instances, || {
        format!(
            "replay node instances differ from report.rounds[0]: {:?} vs {:?}",
            outcome.node_instances, record.node_instances
        )
    });
    let (got, want) = (outcome.counts.push_bytes_raw, record.hist_bytes_raw);
    checks.check(got == want, || {
        format!("replay raw push bytes {got} differ from report.rounds[0].hist_bytes_raw {want}")
    });
    let (got, want) = (outcome.train_loss, record.train_loss);
    checks.check(got == want, || {
        format!("replay round loss {got} differs from report.rounds[0].train_loss {want}")
    });
}
