//! Observability guarantees, end to end: the event trace a training run
//! records must be internally well-formed, agree bit-exactly with the
//! communication ledger the run reports, and never leave comm in the
//! legacy untagged bucket. The metrics registry must surface the
//! deterministic `sim/` percentiles in the run report.

use dimboost::core::{train_distributed, GbdtConfig, TrainOutput};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::ps::PsConfig;
use dimboost::simnet::trace::{comm_totals, validate_events, EventKind, Trace};
use dimboost::simnet::{analyze_trace, CostModel, Phase};

fn traced_run() -> TrainOutput {
    let ds = generate(&SparseGenConfig::new(1_500, 200, 10, 5));
    let shards = partition_rows(&ds, 3).unwrap();
    let mut config = GbdtConfig {
        num_trees: 3,
        max_depth: 4,
        num_candidates: 10,
        collect_trace: true,
        ..GbdtConfig::default()
    };
    // Cover the wire-compression path too: low precision changes what the
    // ledger records, and the trace must follow it exactly.
    config.opts.low_precision = true;
    let ps = PsConfig {
        num_servers: 2,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    };
    train_distributed(&shards, &config, ps).unwrap()
}

#[test]
fn trainer_never_uses_the_legacy_other_bucket() {
    let out = traced_run();
    // Every recorded event must be phase-attributed: nothing in the report,
    // and no trace event, may land in `Phase::Other`.
    assert!(
        out.report.phase(Phase::Other).is_none(),
        "report carries an Other-phase bucket: {:?}",
        out.report.phase(Phase::Other)
    );
    let trace = out.trace.as_ref().unwrap();
    assert!(
        trace.events.iter().all(|e| e.phase != Phase::Other),
        "trace contains Other-phase events"
    );
}

#[test]
fn trace_is_well_formed_and_sums_to_the_ledger() {
    let out = traced_run();
    let trace = out.trace.as_ref().unwrap();
    trace.validate().expect("trace must validate");
    validate_events(&trace.events).expect("event stream must validate");

    // The comm-bearing events fold back to exactly the per-phase ledger the
    // report carries — same f64 sums, bit for bit, because both sides are
    // fed by the single StatsRecorder funnel.
    let totals = comm_totals(&trace.events);
    assert_eq!(totals.total(), out.report.comm);
    for p in &out.report.phases {
        assert_eq!(
            *totals.phase(p.phase),
            p.comm,
            "phase {} disagrees between trace and report",
            p.phase.name()
        );
    }

    // The run exercises every event kind except the legacy bucket.
    for kind in [
        EventKind::Compute,
        EventKind::Request,
        EventKind::Collective,
    ] {
        assert!(
            trace.events.iter().any(|e| e.kind == kind),
            "no {} events recorded",
            kind.name()
        );
    }
}

#[test]
fn build_histogram_is_one_measured_span_per_layer_and_worker() {
    // BUILD_HISTOGRAM streams each row from the builder through the
    // quantizer to the push, but its report line still means "builder
    // seconds": one compute slice per (layer, worker), every slice of a
    // layer ahead of the layer's first push, each carrying measured time.
    let out = traced_run();
    let build = out.report.phase(Phase::BuildHistogram).unwrap();
    assert!(build.compute_max_secs > 0.0, "{build:?}");
    assert!(build.compute_max_secs < out.report.compute_secs);

    let events = &out.trace.as_ref().unwrap().events;
    let in_build = |e: &&dimboost::simnet::TraceEvent| e.phase == Phase::BuildHistogram;
    // A layer ends with the barrier that charges its pushes.
    let layers = events
        .iter()
        .filter(in_build)
        .filter(|e| e.kind == EventKind::Collective)
        .count();
    let slices: Vec<_> = events
        .iter()
        .filter(in_build)
        .filter(|e| e.kind == EventKind::Compute)
        .collect();
    assert_eq!(slices.len(), layers * 3, "one slice per layer per worker");
    assert!(slices.iter().all(|e| e.wall_secs > 0.0));
    let mut open = 0;
    for e in events.iter().filter(in_build) {
        match e.kind {
            EventKind::Compute => open += 1,
            EventKind::Request => assert_eq!(open, 3, "a push overtook a slice (seq {})", e.seq),
            EventKind::Collective => open = 0,
            _ => {}
        }
    }
}

#[test]
fn trace_profile_explains_a_real_training_run() {
    // The analyzer must hold its structural identities on a genuine
    // multi-round distributed run, not just hand-built fixtures: the
    // critical path tiles the simulated timeline exactly, utilization
    // conserves busy + idle == span per track, and the whole profile
    // survives an events-text round trip byte for byte.
    let out = traced_run();
    let trace = out.trace.as_ref().unwrap();
    let profile = analyze_trace(trace).expect("a valid run must profile cleanly");

    // Bit-exact critical-path identity against the run's own clock.
    let end = trace
        .events
        .iter()
        .map(|e| e.begin.0 + e.sim_dur.0)
        .fold(0.0f64, f64::max);
    assert_eq!(
        profile.critical_path.total_secs.to_bits(),
        end.to_bits(),
        "critical path must equal the final simulated time bit-exactly"
    );
    assert_eq!(profile.sim_end_secs.to_bits(), end.to_bits());

    // Per-(track, phase) attribution tiles the path: exact on event
    // counts, and the float sum re-adds to the total within regrouping
    // tolerance (bucket sums re-associate the same f64 additions).
    let attributed_events: u64 = profile
        .critical_path
        .attribution
        .iter()
        .map(|a| a.events)
        .sum();
    assert_eq!(attributed_events, profile.critical_path.segments);
    let attributed: f64 = profile
        .critical_path
        .attribution
        .iter()
        .map(|a| a.secs)
        .sum();
    assert!(
        (attributed - profile.critical_path.total_secs).abs()
            <= 1e-9 * profile.critical_path.total_secs.max(1.0),
        "attribution sums to {attributed}, path total {}",
        profile.critical_path.total_secs
    );

    // Conservation per track, and one round profile per trained tree
    // (plus the setup round).
    for u in &profile.utilization {
        assert!(
            (u.busy_secs + u.idle_secs - end).abs() <= 1e-9 * end.max(1.0),
            "track {} breaks busy + idle == span",
            u.track
        );
    }
    assert_eq!(profile.rounds.len(), 3 + 1, "3 trees + setup round");

    // The offline path (events text → parse → analyze) reproduces the
    // in-process profile byte for byte — what `dimboost analyze` and the
    // ci.sh gate rely on.
    let reparsed = Trace::parse_events_text(&trace.events_text()).unwrap();
    let offline = analyze_trace(&reparsed).unwrap();
    assert_eq!(offline.canonical_json(), profile.canonical_json());
    assert_eq!(offline.folded_stacks(), profile.folded_stacks());
    assert!(profile.folded_stacks().contains("net;build_histogram;"));
}

#[test]
fn report_carries_deterministic_percentiles() {
    let out = traced_run();
    let names: Vec<&str> = out
        .report
        .percentiles
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for expected in [
        "sim/ps_requests",
        "sim/ps_request_bytes",
        "sim/ps_service_secs",
    ] {
        assert!(names.contains(&expected), "missing metric {expected}");
    }
    // Deterministic metrics survive into the canonical document; wall-clock
    // ones must not (they differ across reruns).
    let canonical = out.report.canonical_json();
    assert!(canonical.contains("\"sim/ps_requests\""));
    assert!(!canonical.contains("\"wall/"));
    // Histogram percentiles are ordered and bounded by the observed range.
    for m in &out.report.percentiles {
        if m.kind == "histogram" && m.count > 0 {
            assert!(
                m.min <= m.p50 && m.p50 <= m.p95 && m.p95 <= m.p99 && m.p99 <= m.max,
                "metric {} has inconsistent percentiles: {m:?}",
                m.name
            );
        }
    }
}
