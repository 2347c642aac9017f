//! `BENCHMARK.json` and the binary must agree: names are well formed and
//! unique, and every workload emits exactly the declared end-to-end
//! metrics with `--trace 0` and exactly the declared per-layer metrics
//! with `--trace 1`, with the declared units, on smoke shapes.

use std::path::{Path, PathBuf};

use dimboost_benchmark::json::{parse, Json};
use dimboost_benchmark::run::{run, RunArgs};
use dimboost_benchmark::suite::{Contract, Declared};
use dimboost_benchmark::workload::{Workload, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf()
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-contract-{}", std::process::id()))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn declarations_are_well_formed() {
    let contract = Contract::load(&repo_root()).unwrap();
    assert!((1..=16).contains(&contract.end_to_end.len()));
    assert!((1..=128).contains(&contract.per_layer.len()));
    assert!((2..=8).contains(&contract.workloads.len()));
    let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(contract.workloads, declared);

    let mut names: Vec<&str> = contract
        .end_to_end
        .iter()
        .chain(&contract.per_layer)
        .map(|d| d.name.as_str())
        .chain(contract.workloads.iter().map(String::as_str))
        .collect();
    assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    for d in contract.end_to_end.iter().chain(&contract.per_layer) {
        assert!(d.better == "lower" || d.better == "higher", "{d:?}");
        assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{d:?}");
    }
    for d in &contract.end_to_end {
        let bound = d.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{d:?}");
    }
    let setup = contract
        .end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let largest = contract
        .end_to_end
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s takes the largest bound"
    );
}

fn assert_same_set(emitted: &[(String, String)], declared: &[Declared], what: &str) {
    let mut got: Vec<(&str, &str)> = emitted
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    let mut want: Vec<(&str, &str)> = declared
        .iter()
        .map(|d| (d.name.as_str(), d.unit.as_str()))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "{what}: emitted (name, unit) set differs from BENCHMARK.json"
    );
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let contract = Contract::load(&repo_root()).unwrap();
    let out = out_dir();
    for name in &contract.workloads {
        let workload = Workload::by_name(name).unwrap().smoke();
        for trace in [false, true] {
            let what = format!("{name} --trace {}", u8::from(trace));
            let args = RunArgs {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                smoke: true,
                out_dir: out.clone(),
            };
            let result = run(&args).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                result.checks.failed, 0,
                "{what}: {:?}",
                result.checks.failures
            );
            assert!(result.checks.attempted >= 1);
            let emitted: Vec<(String, String)> = result
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let declared = if trace {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            assert_same_set(&emitted, declared, &what);

            // The last-line object has exactly the four contract keys.
            let line = dimboost_benchmark::json::to_string(&result.contract_json());
            let doc = parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            if trace {
                let sum = metric(&doc, "replay.total_s") + metric(&doc, "replay.unaccounted_s");
                assert!(
                    (sum - metric(&doc, "replay.train1_wall_s")).abs() < 1e-12,
                    "{what}"
                );
                assert!(metric(&doc, "core.pool_constructions") <= 1.0, "{what}");
                assert_eq!(metric(&doc, "serving.shed"), 0.0, "{what}");
            } else {
                for m in &result.metrics {
                    assert!(
                        m.value.is_finite() && m.value != 0.0,
                        "{what}: {} = {}",
                        m.name,
                        m.value
                    );
                }
            }

            // The output file records the host and shape facts.
            let suffix = if trace { "layers.json" } else { "json" };
            let text = std::fs::read_to_string(out.join(format!("{name}.{suffix}"))).unwrap();
            let file = parse(&text).unwrap();
            for key in ["host", "shape", "seed", "seconds", "metrics", "failures"] {
                assert!(file.get(key).is_some(), "{what}: output lacks {key}");
            }
            for key in ["available_parallelism", "threads", "rustc", "git_commit"] {
                assert!(
                    file.get("host").unwrap().get(key).is_some(),
                    "{what}: host lacks {key}"
                );
            }
            if trace {
                let spans = parse(
                    &std::fs::read_to_string(out.join(format!("{name}.spans.json"))).unwrap(),
                )
                .unwrap();
                assert!(spans.as_arr().is_some_and(|s| !s.is_empty()), "{what}");
                assert!(file.get("row_len").is_some(), "{what}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(out);
}
