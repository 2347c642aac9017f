//! Facade-level smoke for the serving simulation: train a real model,
//! drive it with seeded traffic through `dimboost::serving`, and check the
//! report is rerun-stable and internally consistent. The batch engine
//! behind `dimboost predict` is pinned to the interpreted model here too.

use dimboost::core::{train_single_machine, GbdtConfig, LossKind};
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::predict::{score_transformed, CompiledModel, EngineConfig};
use dimboost::serving::{poisson_arrivals, run_serve_sim, ServeSimConfig, TenantSpec};

#[test]
fn trained_model_serves_seeded_traffic_deterministically() {
    let ds = generate(&SparseGenConfig::new(300, 40, 8, 17));
    let cfg = GbdtConfig {
        num_trees: 4,
        max_depth: 3,
        loss: LossKind::Logistic,
        ..GbdtConfig::default()
    };
    let model = train_single_machine(&ds, &cfg).unwrap();
    let compiled = CompiledModel::compile(&model);
    // The batch engine is bit-equal to the interpreted model at any
    // (threads, batch_size).
    let interpreted: Vec<u32> = model
        .predict_dataset(&ds)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    for (threads, batch_size) in [(4, 64), (1, 1)] {
        let engine = EngineConfig {
            threads,
            batch_size,
        };
        let batch = score_transformed(&compiled, &ds, &engine);
        let bits: Vec<u32> = batch.iter().map(|p| p.to_bits()).collect();
        assert_eq!(
            bits, interpreted,
            "threads={threads} batch_size={batch_size}"
        );
    }
    let tenants = [TenantSpec {
        name: "tenant0".into(),
        model: compiled.clone(),
    }];
    let config = ServeSimConfig {
        seed: 123,
        ..ServeSimConfig::default()
    };
    let arrivals = poisson_arrivals(config.seed, 500, 4000.0, 1, ds.num_rows());
    let a = run_serve_sim(&tenants, &[], &ds, &arrivals, &config);
    let b = run_serve_sim(&tenants, &[], &ds, &arrivals, &config);
    assert_eq!(a.report.canonical_json(), b.report.canonical_json());
    assert_eq!(a.trace, b.trace);
    assert_eq!(
        a.report.arrived,
        a.report.served + a.report.shed + a.report.in_flight_at_end
    );
    // Every served score is the compiled engine's own answer for that row.
    for rec in &a.records {
        assert_eq!(
            rec.score.to_bits(),
            compiled.predict(&ds.row(rec.row)).to_bits()
        );
    }
    assert!(a
        .report
        .canonical_json()
        .starts_with("{\"kind\":\"serving_sim\""));
}
