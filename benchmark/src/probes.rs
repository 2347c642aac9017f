//! Isolated probes: single calls into one layer on fixed inputs taken from
//! the replay (worker 0's shard at the root layer, and its root histogram
//! row), each inside a span.
//!
//! Two kinds share this module. *Comparison* probes run code the workload's
//! config does not select — the other histogram builders, the other wire
//! codecs — so the per-layer table can say what a switch would cost.
//! *Off-path* probes run a stage the config skips entirely (the binned
//! builds and sibling derivation on the paper config) under the span name
//! the replay would have used, so every workload reports every metric.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dimboost_core::binned::BinnedShard;
use dimboost_core::hist_build::{self, QuantBinned, QuantizedGrads};
use dimboost_core::parallel::{build_row_batched, BatchConfig};
use dimboost_core::{fused, GbdtConfig, NodeIndex};
use dimboost_data::Dataset;
use dimboost_ps::quantize::{quantize_row, QuantizedRow};
use dimboost_ps::sparse::{decode_quantized_block, encode_quantized_block};
use dimboost_ps::{ParameterServer, PsConfig};
use dimboost_simnet::wire;

use crate::measure::probe_threads;
use crate::replay::{build_layer_rows, ReplayOutcome};
use crate::spans::Recorder;
use crate::workload::PROGRAM_SEED;

/// Runs every probe once. All spans are children of one `probes` span.
pub fn run_probes(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    outcome: &mut ReplayOutcome,
    rec: &mut Recorder,
) {
    rec.span("probes", "harness", None, |rec| {
        fill_off_path_builds(shards, config, outcome, rec);
        builder_probes(&shards[0], config, outcome, rec);
        let mut rng = StdRng::seed_from_u64(PROGRAM_SEED);
        let quantized = quantize_row(
            &outcome.root_row,
            outcome.meta.layout(),
            config.compress_bits,
            &mut rng,
        );
        wire_probes(&quantized, outcome, rec);
        if !config.opts.hist_subtraction {
            derive_sibling_probe(&quantized, ps_config, outcome, rec);
        }
    });
}

/// Builds, for every worker, whichever of the binned shard, the pair view
/// and the gradient codes the replay did not need.
fn fill_off_path_builds(
    shards: &[Dataset],
    config: &GbdtConfig,
    outcome: &mut ReplayOutcome,
    rec: &mut Recorder,
) {
    let meta = &outcome.meta;
    for (wi, (worker, shard)) in outcome.workers.iter_mut().zip(shards).enumerate() {
        let id = Some(wi as u32);
        if worker.binned.is_none() {
            worker.binned = Some(rec.span("core.binned_build", "core", id, |_| {
                BinnedShard::build(shard, meta)
            }));
        }
        let binned = worker.binned.as_ref().expect("just built");
        if worker.qbinned.is_none() {
            worker.qbinned = Some(rec.span("core.quantbinned_build", "core", id, |_| {
                QuantBinned::build(binned, meta)
            }));
        }
        if worker.qgrads.is_none() {
            let bits = hist_build::effective_quant_bits(config.quant_hist_bits, shard.num_rows());
            worker.qgrads = Some(rec.span("core.qgrads_quantize", "core", id, |_| {
                QuantizedGrads::quantize(&worker.grads, bits)
            }));
        }
    }
}

/// The root layer of worker 0 through each surviving builder, and through
/// the config's own builder at one thread and at [`probe_threads`] threads.
fn builder_probes(
    shard: &Dataset,
    config: &GbdtConfig,
    outcome: &mut ReplayOutcome,
    rec: &mut Recorder,
) {
    let meta = &outcome.meta;
    let worker = &mut outcome.workers[0];
    let rows = shard.num_rows();
    worker.index = NodeIndex::new(rows, 1);
    let instances: Vec<u32> = (0..rows as u32).collect();
    let (batch_size, threads) = (config.batch_size, config.num_threads);
    let binned = worker.binned.as_ref().expect("filled above");
    let positions = fused::positions_from_index(&worker.index, &[0], rows);

    rec.span("core.hist.sparse_batched", "core", Some(0), |_| {
        let batch = BatchConfig {
            batch_size,
            threads,
            sparse: true,
        };
        std::hint::black_box(build_row_batched(
            shard,
            &instances,
            &worker.grads,
            meta,
            &batch,
        ));
    });
    rec.span("core.hist.binned_batched", "core", Some(0), |_| {
        std::hint::black_box(binned.build_row_batched(
            &instances,
            &worker.grads,
            meta,
            batch_size,
            threads,
        ));
    });
    rec.span("core.hist.fused", "core", Some(0), |_| {
        std::hint::black_box(fused::build_layer(
            binned,
            &positions,
            &worker.grads,
            meta,
            batch_size,
            threads,
        ));
    });
    rec.span("core.hist.fused_quant", "core", Some(0), |_| {
        std::hint::black_box(fused::build_layer_quantized(
            binned,
            worker.qbinned.as_ref().expect("filled above"),
            &positions,
            worker.qgrads.as_ref().expect("filled above"),
            meta,
            batch_size,
            threads,
        ));
    });

    // The config's own builder at one thread and at the probe thread count.
    // Off-path structures filled above must not change which builder the
    // flags select, so hide them again for these calls.
    let needs_binned =
        config.opts.pre_binning || config.opts.fused_layer || config.opts.quantized_hist;
    let hidden = (!needs_binned).then(|| worker.binned.take());
    for (name, threads) in [
        ("core.hist_build_t1", 1),
        ("core.hist_build_tn", probe_threads()),
    ] {
        let config = GbdtConfig {
            num_threads: threads,
            ..config.clone()
        };
        rec.span(name, "core", Some(0), |_| {
            std::hint::black_box(build_layer_rows(&config, shard, worker, meta, &[0]));
        });
    }
    if let Some(binned) = hidden {
        worker.binned = binned;
    }
}

/// The dense and sparse f32 codecs and the quantized-block codec on
/// worker 0's root row.
fn wire_probes(q: &QuantizedRow, outcome: &ReplayOutcome, rec: &mut Recorder) {
    let row = &outcome.root_row;
    let layout = outcome.meta.layout();

    let frame = rec.span("simnet.wire.encode_dense", "simnet", None, |_| {
        wire::encode_f32(row)
    });
    rec.span("simnet.wire.decode_dense", "simnet", None, |_| {
        std::hint::black_box(wire::decode_f32(frame));
    });
    let (frame, _) = rec.span("simnet.wire.encode_sparse", "simnet", None, |_| {
        wire::encode_f32_sparse(row)
    });
    rec.span("simnet.wire.decode_sparse", "simnet", None, |_| {
        std::hint::black_box(wire::decode_f32_sparse(frame));
    });

    let features = 0..layout.num_features();
    let (frame, _) = rec.span("ps.sparse.encode_qblock", "ps", None, |_| {
        encode_quantized_block(q, layout, features.clone())
    });
    rec.span("ps.sparse.decode_qblock", "ps", None, |_| {
        std::hint::black_box(decode_quantized_block(frame, layout, features));
    });
}

/// Off-path on configs without sibling subtraction: one server-side
/// `parent − child` derivation of a root-sized row.
fn derive_sibling_probe(
    q: &QuantizedRow,
    ps_config: PsConfig,
    outcome: &ReplayOutcome,
    rec: &mut Recorder,
) {
    let layout = outcome.meta.layout();
    let ps = ParameterServer::new(layout.num_features(), ps_config);
    rec.span("probe.setup", "harness", None, |_| {
        ps.init_tree(layout.clone());
        ps.push_histogram_quantized(0, q);
        ps.push_histogram_quantized(1, q);
    });
    rec.span("ps.derive_sibling", "ps", None, |_| {
        ps.derive_sibling(0, 1, 2)
    });
}
