//! Property-based tests for the parameter server: quantization soundness and
//! two-phase split exactness on arbitrary histograms.

use dimboost_ps::quantize::{levels, quantize_row};
use dimboost_ps::split::best_split_in_range;
use dimboost_ps::{HistogramLayout, NodeSplit, ParameterServer, PsConfig, SplitParams};
use dimboost_simnet::CostModel;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy for (layout, one valid histogram row): G entries arbitrary,
/// H entries nonnegative, with consistent per-feature totals so that the
/// "derive totals from the first feature" trick is exercised honestly.
fn arb_layout_row() -> impl Strategy<Value = (HistogramLayout, Vec<f32>)> {
    (1usize..6, 2u32..8).prop_flat_map(|(nf, nb)| {
        // Per-feature bucket counts in 2..=nb+1.
        vec(2u32..=nb + 1, nf..=nf).prop_flat_map(move |buckets| {
            // Gradient pairs per instance-bucket; we synthesize per-feature
            // distributions over shared instance mass.
            let layout = HistogramLayout::new(buckets.clone());
            let total_pairs = 12usize;
            vec((-5.0f32..5.0, 0.01f32..2.0), total_pairs).prop_flat_map(move |pairs| {
                let buckets = buckets.clone();
                let layout = layout.clone();
                // For each feature, a bucket assignment for every pair.
                vec(
                    vec(
                        0usize..buckets.iter().copied().max().unwrap() as usize,
                        total_pairs,
                    ),
                    buckets.len(),
                )
                .prop_map(move |assignments| {
                    let mut row = vec![0.0f32; layout.row_len()];
                    for (f, assign) in assignments.iter().enumerate() {
                        let nb = layout.num_buckets(f);
                        for (i, &(g, h)) in pairs.iter().enumerate() {
                            let b = assign[i] % nb;
                            row[layout.g_index(f, b)] += g;
                            row[layout.h_index(f, b)] += h;
                        }
                    }
                    (layout.clone(), row)
                })
            })
        })
    })
}

proptest! {
    /// Two-phase exactness: for any shard partitioning, max over shard
    /// winners equals the full-scan winner.
    #[test]
    fn sharded_split_equals_full((layout, row) in arb_layout_row(), cut in 0usize..6) {
        let params = SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0, ..SplitParams::default() };
        let nf = layout.num_features();
        let cut = cut.min(nf);
        let full = best_split_in_range(&row, &layout, 0..nf, None, &params);
        let totals = Some((full.total_g, full.total_h));
        let left = best_split_in_range(&row[layout.elem_range(0..cut)], &layout, 0..cut, totals, &params);
        let right = best_split_in_range(&row[layout.elem_range(cut..nf)], &layout, cut..nf, totals, &params);
        prop_assert_eq!(NodeSplit::better(left.best, right.best), full.best);
    }

    /// Every reported split is internally consistent: positive gain matches
    /// recomputation from its own child sums, and children obey
    /// min_child_weight.
    #[test]
    fn reported_split_is_consistent((layout, row) in arb_layout_row()) {
        let params = SplitParams { lambda: 1.0, gamma: 0.1, min_child_weight: 0.05, ..SplitParams::default() };
        let nf = layout.num_features();
        let res = best_split_in_range(&row, &layout, 0..nf, None, &params);
        if let Some(s) = res.best {
            let gr = res.total_g - s.left_g;
            let hr = res.total_h - s.left_h;
            prop_assert!(s.left_h >= params.min_child_weight);
            prop_assert!(hr >= params.min_child_weight);
            let gain = params.gain(s.left_g, s.left_h, gr, hr);
            prop_assert!((gain - s.gain).abs() < 1e-6);
            prop_assert!(s.gain > 0.0);
        }
    }

    /// Server push/pull through any partitioning reproduces the sum of rows.
    #[test]
    fn server_accumulates_any_partitioning(
        (layout, row) in arb_layout_row(),
        servers in 1usize..5,
        pushes in 1usize..4,
    ) {
        let ps = ParameterServer::new(
            layout.num_features(),
            PsConfig { num_servers: servers, num_partitions: 0, cost_model: CostModel::FREE },
        );
        ps.init_tree(layout.clone());
        for _ in 0..pushes {
            ps.push_histogram(0, &row);
        }
        let got = ps.pull_histogram(0);
        for (g, r) in got.iter().zip(&row) {
            prop_assert!((g - r * pushes as f32).abs() < 1e-3);
        }
    }

    /// Quantization error is bounded by one step of the element's own block
    /// scale; zero buckets come back exactly.
    #[test]
    fn quantize_error_bound((layout, row) in arb_quantizer_input(100.0), bits in 2u8..12, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = quantize_row(&row, &layout, bits, &mut rng);
        let back = q.dequantize(&layout);
        for f in 0..layout.num_features() {
            for (block, range) in [layout.g_range(f), layout.h_range(f)].into_iter().enumerate() {
                let zero = range.start + layout.zero_bucket(f);
                let step = q.scales()[2 * f + block] / levels(bits) as f32;
                for idx in range {
                    let (v, b) = (row[idx], back[idx]);
                    if idx == zero {
                        prop_assert_eq!(v.to_bits(), b.to_bits());
                    } else {
                        prop_assert!((v - b).abs() <= step + 1e-4, "v={} b={} step={}", v, b, step);
                    }
                }
            }
        }
    }

    /// Quantized codes always fit the declared bit width.
    #[test]
    fn quantize_codes_in_range((layout, row) in arb_quantizer_input(10.0), bits in 2u8..16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = quantize_row(&row, &layout, bits, &mut rng);
        prop_assert_eq!(q.codes().len(), layout.row_len());
        for &c in q.codes() {
            prop_assert!((c as u32) <= 2 * levels(bits));
        }
    }
}

/// A generated layout (1–5 features of 1–8 buckets, the zero bucket anywhere)
/// and a row over it with values in `±span`.
fn arb_quantizer_input(span: f32) -> impl Strategy<Value = (HistogramLayout, Vec<f32>)> {
    (vec((1u32..9, any::<u32>()), 1..6), vec(-span..span, 80)).prop_map(|(features, values)| {
        let buckets: Vec<u32> = features.iter().map(|&(b, _)| b).collect();
        let zeros: Vec<u32> = features.iter().map(|&(b, pick)| pick % b).collect();
        let layout = HistogramLayout::with_zero_buckets(buckets, zeros);
        let row = values[..layout.row_len()].to_vec();
        (layout, row)
    })
}

use dimboost_simnet::fault::OutageSpec;
use dimboost_simnet::{FaultPlan, FaultSession, Phase};
use rand::seq::SliceRandom;

fn free_ps(features: usize, servers: usize) -> ParameterServer {
    let ps = ParameterServer::new(
        features,
        PsConfig {
            num_servers: servers,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        },
    );
    ps.init_tree(HistogramLayout::new(vec![2; features]));
    ps
}

proptest! {
    /// End-to-end exactness through the retry loop itself: the same pushes
    /// issued under an arbitrary fault plan (drops, lost acks, duplicates,
    /// an outage window) produce a bit-identical histogram and logical
    /// ledger to the clean run — only simulated time may differ.
    #[test]
    fn fault_plan_preserves_merged_state(
        plan_seed in any::<u64>(),
        drop_p in 0.0f64..0.35,
        ack_drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.2,
        rows in vec(vec(-4.0f32..4.0, 12..=12), 5..=5),
        order_seed in any::<u64>(),
    ) {
        let features = 3usize;
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let mut rng = StdRng::seed_from_u64(order_seed);
        order.shuffle(&mut rng);

        let clean = free_ps(features, 2);
        for &i in &order {
            clean.push_histogram(0, &rows[i]);
        }

        let faulted = free_ps(features, 2);
        let session = FaultSession::new(FaultPlan {
            seed: plan_seed,
            drop_p,
            ack_drop_p,
            dup_p,
            outages: vec![OutageSpec { server: 0, start: 0.0, duration: 0.01 }],
            ..FaultPlan::default()
        }, 3);
        faulted.attach_faults(session.clone());
        for &i in &order {
            session.set_worker(Some((i % 3) as u32));
            faulted.push_histogram(0, &rows[i]);
        }
        session.set_worker(None);

        prop_assert_eq!(faulted.pull_histogram(0), clean.pull_histogram(0));
        let (cl, fl) = (clean.comm_ledger(), faulted.comm_ledger());
        let p = Phase::BuildHistogram;
        prop_assert_eq!(cl.phase(p).bytes, fl.phase(p).bytes);
        prop_assert_eq!(cl.phase(p).packages, fl.phase(p).packages);
        let sum = session.summary();
        prop_assert_eq!(sum.dedup_hits, sum.ack_drops + sum.duplicates);
    }
}
