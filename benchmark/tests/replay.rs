//! The replay must measure the real round: on a tiny shape, for the paper
//! config and the extension config, its per-node instance counts, raw push
//! bytes and round loss equal `report.rounds[0]` of the training call it
//! follows, and its span tree is well formed.

use std::path::PathBuf;

use dimboost_benchmark::measure::Checks;
use dimboost_benchmark::probes::run_probes;
use dimboost_benchmark::replay::{reconcile, replay_round0};
use dimboost_benchmark::setup::prepare;
use dimboost_benchmark::spans::{self, Recorder};
use dimboost_benchmark::train::timed_train;
use dimboost_benchmark::workload::Workload;

fn tiny(extensions: bool) -> Workload {
    Workload {
        name: if extensions { "tiny-ext" } else { "tiny-paper" },
        rows: 1_500,
        features: 120,
        nnz: 12,
        workers: 3,
        servers: 2,
        trees: 1,
        depth: 4,
        extensions,
        train_in_setup: false,
        sim_requests: 100,
    }
}

/// A directory of its own per test: tests run on parallel threads of one
/// process and must not share the intermediate LibSVM file.
fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}-{}", std::process::id()))
}

#[test]
fn replay_equals_the_trained_round_for_both_configs() {
    for extensions in [false, true] {
        let workload = tiny(extensions);
        let mut checks = Checks::default();
        let prepared = prepare(
            &workload,
            7,
            &scratch("replay"),
            &mut Recorder::new(false),
            &mut checks,
        )
        .unwrap();
        let config = workload.gbdt_config(2);
        let ps_config = workload.ps_config();
        let trained = timed_train(&prepared.shards, &config, ps_config, &mut checks).unwrap();

        let mut rec = Recorder::new(true);
        let mut outcome = replay_round0(
            &prepared.shards,
            &config,
            ps_config,
            &trained.output,
            &mut rec,
        )
        .unwrap();
        let record = &trained.output.report.rounds[0];
        assert_eq!(outcome.node_instances, record.node_instances);
        assert_eq!(outcome.counts.push_bytes_raw, record.hist_bytes_raw);
        assert_eq!(outcome.train_loss, record.train_loss);
        // Depth 4 has at most 15 internal nodes; sibling subtraction builds
        // the root plus one child per split.
        let built = outcome.node_instances.len();
        assert!(
            (2..=if extensions { 8 } else { 15 }).contains(&built),
            "{:?}",
            outcome.node_instances
        );
        reconcile(&outcome, &trained.output, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);

        // Span tree: well formed, and the layers' self times add up to the
        // replay span minus the harness's own glue.
        run_probes(&prepared.shards, &config, ps_config, &mut outcome, &mut rec);
        spans::check_well_formed(rec.spans()).unwrap();
        let root = &rec.spans()[0];
        assert_eq!((root.name, root.layer), ("replay", "harness"));
        let (sub, base) = spans::descendants(rec.spans(), 0, "replay");
        let layers = spans::layer_self_secs(sub, base);
        let total: f64 = layers.iter().map(|(_, secs)| secs).sum();
        let root_self = spans::self_secs(rec.spans(), 0)[0];
        assert!(root_self >= 0.0);
        assert!((total + root_self - root.secs()).abs() < 1e-9);
        assert!(layers.iter().all(|(layer, _)| *layer != "harness"));
        for layer in ["sketch", "core", "ps"] {
            assert!(layers.iter().any(|(l, secs)| *l == layer && *secs > 0.0));
        }
        // Off-path stages are probed, so both configs time every span name.
        for name in [
            "core.binned_build",
            "ps.derive_sibling",
            "core.hist.fused_quant",
        ] {
            assert!(rec.spans().iter().any(|s| s.name == name), "{name} missing");
        }
    }
    let _ = std::fs::remove_dir_all(scratch("replay"));
}

#[test]
fn reconcile_rejects_a_round_the_replay_did_not_follow() {
    let workload = tiny(false);
    let mut checks = Checks::default();
    let prepared = prepare(
        &workload,
        11,
        &scratch("reconcile"),
        &mut Recorder::new(false),
        &mut checks,
    )
    .unwrap();
    let config = workload.gbdt_config(1);
    let mut trained =
        timed_train(&prepared.shards, &config, workload.ps_config(), &mut checks).unwrap();
    let outcome = replay_round0(
        &prepared.shards,
        &config,
        workload.ps_config(),
        &trained.output,
        &mut Recorder::new(false),
    )
    .unwrap();
    trained.output.report.rounds[0].node_instances[1].instances += 1;
    trained.output.report.rounds[0].hist_bytes_raw += 4;
    reconcile(&outcome, &trained.output, &mut checks);
    assert_eq!(checks.failed, 2, "{:?}", checks.failures);
    let _ = std::fs::remove_dir_all(scratch("reconcile"));
}
