//! Every report and profile the workspace emits is a JSON document, and the
//! canonical form of each is the timed form minus members `report_diff`
//! already ignores — so a new wall-clock member without a diff rule fails
//! here rather than as CI noise.

use dimboost_bench::diff::{default_rules, flatten, glob_match};
use dimboost_bench::json::{parse, Json};
use dimboost_core::{NodeInstances, PhaseReport, QuantHistRecord, RoundRecord, RunReport};
use dimboost_serving::{analyze_serve_trace, ServeSimReport, TenantReport};
use dimboost_simnet::wire::SparseWireStats;
use dimboost_simnet::{
    analyze_trace, CommStats, CostModel, FaultSummary, Lane, MembershipSummary, MetricExport,
    MetricsRegistry, Phase, SimTime, TraceBus,
};

/// A name no emitter may paste between quotes unescaped.
const HOSTILE: &str = "a\"b\\c\nd\u{1}";

fn metrics() -> Vec<MetricExport> {
    let mut registry = MetricsRegistry::new();
    registry.counter_add("sim/requests", 7);
    registry.observe("sim/service_secs", 0.002);
    registry.observe("wall/phase_secs/build_histogram", 0.1);
    registry.gauge_set("wall/rows_per_sec", 1234.5);
    registry.export()
}

fn run_report() -> RunReport {
    let comm = |bytes, packages, secs| CommStats {
        bytes,
        packages,
        sim_time: SimTime(secs),
    };
    let frames = SparseWireStats {
        frames: [1, 2, 3],
        bytes: [400, 50, 6],
    };
    let mut round = RoundRecord::new(0);
    round.trees = 1;
    round.train_loss = 0.5;
    round.compute_secs = 0.03;
    round.hist_bytes_raw = 4000;
    round.hist_bytes_wire = 456;
    round.max_quant_scale = 1.5;
    round.split_gains = vec![2.25, f32::INFINITY];
    round.node_instances = vec![NodeInstances {
        node: 0,
        instances: 100,
    }];
    round.sparse_frames = Some(frames);
    round.quant_hist = Some(QuantHistRecord {
        bits: 12,
        tile_nodes: 16,
    });
    let rounds = vec![round];
    RunReport {
        workers: 2,
        servers: 2,
        compute_secs: 0.04,
        comm: comm(1096, 6, 0.26),
        phases: vec![
            PhaseReport {
                phase: Phase::BuildHistogram,
                compute_max_secs: 0.03,
                compute_p50_secs: 0.02,
                compute_p99_secs: 0.03,
                compute_skew_secs: 0.01,
                comm: comm(1000, 4, 0.25),
            },
            PhaseReport {
                phase: Phase::FindSplit,
                compute_max_secs: 0.01,
                compute_p50_secs: 0.01,
                compute_p99_secs: 0.01,
                compute_skew_secs: 0.0,
                comm: comm(96, 2, 0.01),
            },
        ],
        sparsity: dimboost_core::report::SparsitySummary::from_rounds(&rounds),
        rounds,
        percentiles: metrics(),
        faults: Some(FaultSummary {
            plan_seed: u64::MAX,
            retries: 4,
            backoff_secs: 0.125,
            ..FaultSummary::default()
        }),
        membership: Some(MembershipSummary {
            joins: 1,
            leaves: 2,
            elastic_secs: 0.25,
            ..MembershipSummary::default()
        }),
        resumed_from_round: Some(2),
    }
}

fn serve_sim_report() -> ServeSimReport {
    ServeSimReport {
        seed: 7,
        requests_planned: 10,
        arrived: 10,
        admitted: 9,
        served: 8,
        shed: 1,
        in_flight_at_end: 1,
        batches: 3,
        swaps: 1,
        slo_violations: 2,
        queue_capacity: 4,
        max_batch: 8,
        slo_secs: 0.05,
        service_fixed_secs: 1e-4,
        service_per_row_secs: 1e-5,
        sim_clock_secs: 0.5,
        throughput_rps: 16.0,
        saturation_rps: 44444.444444444445,
        latency_p50_secs: 0.01,
        latency_p99_secs: 0.04,
        latency_p999_secs: 0.045,
        latency_max_secs: 0.05,
        wall_secs: 0.123,
        tenants: vec![TenantReport {
            name: HOSTILE.into(),
            arrived: 10,
            served: 8,
            shed: 1,
            swaps: 1,
            final_epoch: 1,
            score_checksum: u64::MAX,
        }],
        percentiles: metrics(),
    }
}

/// A trace with request, service, fault and membership lanes.
fn trace_profile_json() -> String {
    let b = TraceBus::new(2, 1, CostModel::GIGABIT_LAN, true);
    b.on_lane(
        Lane::Membership,
        Phase::NewTree,
        "join",
        SimTime(0.02),
        4096,
        1,
    );
    b.on_charge(Phase::NewTree, SimTime(0.03));
    for w in 0..2 {
        b.set_worker(Some(w));
        b.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            1_000_000,
            2,
            SimTime::ZERO,
        );
    }
    b.set_worker(None);
    b.on_lane(
        Lane::Fault,
        Phase::BuildHistogram,
        "retry_backoff",
        SimTime(0.01),
        0,
        1,
    );
    b.on_charge(Phase::BuildHistogram, SimTime(0.25));
    b.on_charge(Phase::Finish, SimTime(0.01));
    analyze_trace(&b.finish()).unwrap().canonical_json()
}

fn serve_profile_json() -> String {
    let trace = concat!(
        "# serve-sim-trace v1 tenants=2 seed=7 queue_cap=1 max_batch=2 ",
        "slo=0.05 service_fixed=0.0001 service_per_row=0.00001\n",
        "arrive t=0 req=0 tenant=0 row=1 depth=1\n",
        "arrive t=0.01 req=1 tenant=0 row=2 depth=2\n",
        "dispatch t=0.02 tenant=0 rows=2 epoch=0\n",
        "arrive t=0.03 req=2 tenant=1 row=3 depth=1\n",
        "complete t=0.04 tenant=0 rows=2 epoch=0\n",
        "swap t=0.04 tenant=1 epoch=1 label=refresh\n",
        "dispatch t=0.04 tenant=1 rows=1 epoch=1\n",
        "shed t=0.05 req=3 tenant=1 depth=1\n",
        "complete t=0.06 tenant=1 rows=1 epoch=1\n",
    );
    analyze_serve_trace(trace).unwrap().canonical_json()
}

/// `timed` with every member and element that `canonical` lacks deleted.
/// Array elements are matched by their `name` member when they have one
/// (the `percentiles` entries, which canonical documents drop whole) and by
/// position otherwise.
fn prune(timed: &Json, canonical: &Json) -> Json {
    match (timed, canonical) {
        (Json::Obj(t), Json::Obj(_)) => Json::Obj(
            t.iter()
                .filter_map(|(k, v)| Some((k.clone(), prune(v, canonical.get(k)?))))
                .collect(),
        ),
        (Json::Arr(t), Json::Arr(c)) => Json::Arr(
            t.iter()
                .enumerate()
                .filter_map(|(i, v)| {
                    let twin = match v.get("name") {
                        Some(name) => c.iter().find(|e| e.get("name") == Some(name)),
                        None => c.get(i),
                    };
                    Some(prune(v, twin?))
                })
                .collect(),
        ),
        _ => timed.clone(),
    }
}

#[test]
fn documents_parse_and_canonical_is_timed_minus_ignored_wall_members() {
    let run = run_report();
    let serve_sim = serve_sim_report();
    let trace_profile = trace_profile_json();
    let serve_profile = serve_profile_json();
    let documents = [
        ("run", run.json(), run.canonical_json(), true),
        (
            "serving_sim",
            serve_sim.json(true),
            serve_sim.canonical_json(),
            true,
        ),
        // The profiles are pure simulated clock: one form, no wall members.
        ("train profile", trace_profile.clone(), trace_profile, false),
        ("serve profile", serve_profile.clone(), serve_profile, false),
    ];
    let ignored = default_rules();
    for (what, timed, canonical, has_wall) in documents {
        let timed = parse(&timed).unwrap_or_else(|e| panic!("{what} timed: {e}\n{timed}"));
        let canonical =
            parse(&canonical).unwrap_or_else(|e| panic!("{what} canonical: {e}\n{canonical}"));
        assert_eq!(prune(&timed, &canonical), canonical, "{what}");

        let canonical_paths = flatten(&canonical);
        let timed_only: Vec<String> = flatten(&timed)
            .into_keys()
            .filter(|path| !canonical_paths.contains_key(path))
            .collect();
        assert_eq!(!timed_only.is_empty(), has_wall, "{what}: {timed_only:?}");
        for path in timed_only {
            assert!(
                ignored.iter().any(|rule| glob_match(&rule.pattern, &path)),
                "{what}: timed-only `{path}` has no built-in report_diff ignore rule"
            );
        }
    }
}

#[test]
fn hostile_names_round_trip() {
    let report = serve_sim_report();
    for text in [report.json(true), report.canonical_json()] {
        let doc = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let tenant = &doc.get("tenants").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(tenant.get("name").and_then(Json::as_str), Some(HOSTILE));
    }
}
