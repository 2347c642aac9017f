//! Structural validation of exported Chrome-trace-event JSON — the checker
//! behind the `trace_check` binary and the CI smoke step.
//!
//! Accepts both container forms (a bare event array, or an object with a
//! `traceEvents` member) and verifies what Perfetto/`chrome://tracing`
//! assume:
//!
//! * every `B` (begin) has a matching `E` (end) on the same `(pid, tid)`,
//!   properly nested, with nothing left open at the end;
//! * timestamps never go backwards within a `(pid, tid)` lane;
//! * every `B` event is phase-tagged (`args.phase`) and carries the
//!   deterministic sequence number (`args.seq`), strictly increasing in
//!   file order;
//! * `thread_name` metadata names each referenced lane.

use std::collections::{BTreeMap, HashMap};

use crate::json::Json;

/// What a validated trace contained.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Total entries in the event array (metadata included).
    pub entries: usize,
    /// `B`/`E` interval count.
    pub intervals: usize,
    /// `tid → thread name` from metadata, sorted by tid.
    pub tracks: BTreeMap<u64, String>,
}

impl TraceStats {
    /// True when the named track exists (by `thread_name` metadata).
    pub fn has_track(&self, name: &str) -> bool {
        self.tracks.values().any(|n| n == name)
    }
}

fn field_f64(event: &Json, key: &str, what: &str, idx: usize) -> Result<f64, String> {
    event
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("event {idx}: {what} missing numeric {key:?}"))
}

/// Validates a Chrome-trace-event JSON document.
pub fn check_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match &doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("object form lacks a traceEvents array")?,
        _ => return Err("top level must be an array or object".into()),
    };

    let mut stats = TraceStats {
        entries: events.len(),
        ..TraceStats::default()
    };
    // Per-lane open-interval stack and clock.
    let mut open: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut clock: HashMap<(u64, u64), f64> = HashMap::new();
    let mut last_seq: Option<u64> = None;

    for (idx, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing \"ph\""))?;
        match ph {
            "M" => {
                if event.get("name").and_then(Json::as_str) == Some("thread_name") {
                    let tid = field_f64(event, "tid", "metadata", idx)? as u64;
                    let name = event
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event {idx}: thread_name without args.name"))?;
                    stats.tracks.insert(tid, name.to_string());
                }
            }
            "B" | "E" => {
                let pid = field_f64(event, "pid", ph, idx)? as u64;
                let tid = field_f64(event, "tid", ph, idx)? as u64;
                let ts = field_f64(event, "ts", ph, idx)?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("event {idx}: bad timestamp {ts}"));
                }
                let lane = (pid, tid);
                if let Some(&prev) = clock.get(&lane) {
                    if ts < prev {
                        return Err(format!(
                            "event {idx}: timestamp {ts} goes backwards on tid {tid} (was {prev})"
                        ));
                    }
                }
                clock.insert(lane, ts);
                if ph == "B" {
                    let name = event
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event {idx}: B without a name"))?;
                    let args = event
                        .get("args")
                        .ok_or_else(|| format!("event {idx}: B without args"))?;
                    if args.get("phase").and_then(Json::as_str).is_none() {
                        return Err(format!("event {idx}: B {name:?} not phase-tagged"));
                    }
                    let seq = args
                        .get("seq")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("event {idx}: B {name:?} missing args.seq"))?
                        as u64;
                    if let Some(prev) = last_seq {
                        if seq <= prev {
                            return Err(format!(
                                "event {idx}: seq {seq} not strictly increasing (was {prev})"
                            ));
                        }
                    }
                    last_seq = Some(seq);
                    open.entry(lane).or_default().push(name.to_string());
                    stats.intervals += 1;
                } else {
                    let stack = open.entry(lane).or_default();
                    if stack.pop().is_none() {
                        return Err(format!("event {idx}: E without an open B on tid {tid}"));
                    }
                }
            }
            other => return Err(format!("event {idx}: unsupported ph {other:?}")),
        }
    }

    for ((_, tid), stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!("unclosed B {name:?} on tid {tid}"));
        }
    }
    Ok(stats)
}

/// Checks that the trace declares one named track per worker and server
/// plus the shared `net` lane (the export's track layout).
pub fn check_track_layout(
    stats: &TraceStats,
    workers: usize,
    servers: usize,
) -> Result<(), String> {
    if !stats.has_track("net") {
        return Err("missing net track".into());
    }
    for w in 0..workers {
        if !stats.has_track(&format!("worker {w}")) {
            return Err(format!("missing track \"worker {w}\""));
        }
    }
    for s in 0..servers {
        if !stats.has_track(&format!("server {s}")) {
            return Err(format!("missing track \"server {s}\""));
        }
    }
    Ok(())
}

/// Checks the `faults` lane against expectation: a fault-injected run must
/// declare it (the plan's effects are visible on the timeline), a clean run
/// must not (the exporter only declares tracks that carry events).
pub fn check_fault_track(stats: &TraceStats, expect_faults: bool) -> Result<(), String> {
    match (stats.has_track("faults"), expect_faults) {
        (false, true) => Err("missing \"faults\" track (fault plan had no visible effect?)".into()),
        (true, false) => Err("unexpected \"faults\" track in a clean-run trace".into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_simnet::{CostModel, Lane, Phase, SimTime, TraceBus};

    fn sample_trace_json(canonical: bool) -> String {
        let bus = TraceBus::new(2, 2, CostModel::GIGABIT_LAN, true);
        bus.on_compute(0, Phase::CreateSketch, 0.01);
        bus.set_worker(Some(0));
        bus.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            4096,
            2,
            SimTime::ZERO,
        );
        bus.set_worker(Some(1));
        bus.on_request(
            Phase::BuildHistogram,
            "push_histogram",
            4096,
            2,
            SimTime::ZERO,
        );
        bus.set_worker(None);
        bus.on_charge(Phase::BuildHistogram, SimTime(0.25));
        let trace = bus.finish();
        if canonical {
            trace.canonical_chrome_json()
        } else {
            trace.chrome_json()
        }
    }

    #[test]
    fn accepts_real_exports() {
        for canonical in [false, true] {
            let stats = check_chrome_trace(&sample_trace_json(canonical)).unwrap();
            assert!(stats.intervals > 0);
            check_track_layout(&stats, 2, 2).unwrap();
            assert!(check_track_layout(&stats, 3, 2).is_err());
        }
    }

    #[test]
    fn fault_track_expectation() {
        // Clean trace: no faults lane.
        let stats = check_chrome_trace(&sample_trace_json(true)).unwrap();
        check_fault_track(&stats, false).unwrap();
        assert!(check_fault_track(&stats, true).is_err());

        // Faulted trace: the lane appears and is a well-formed track.
        let bus = TraceBus::new(1, 1, CostModel::GIGABIT_LAN, true);
        bus.set_worker(Some(0));
        bus.on_lane(
            Lane::Fault,
            Phase::BuildHistogram,
            "retry_backoff",
            SimTime(0.02),
            0,
            1,
        );
        bus.set_worker(None);
        bus.on_charge(Phase::BuildHistogram, SimTime(0.05));
        let stats = check_chrome_trace(&bus.finish().canonical_chrome_json()).unwrap();
        check_fault_track(&stats, true).unwrap();
        assert!(check_fault_track(&stats, false).is_err());
    }

    #[test]
    fn accepts_object_container() {
        let arr = sample_trace_json(true);
        let wrapped = format!("{{\"traceEvents\":{arr}}}");
        check_chrome_trace(&wrapped).unwrap();
    }

    #[test]
    fn rejects_unbalanced_and_backwards() {
        // E without B.
        let bad = r#"[{"ph":"E","pid":0,"tid":1,"ts":5}]"#;
        assert!(check_chrome_trace(bad)
            .unwrap_err()
            .contains("without an open B"));
        // Unclosed B.
        let bad = r#"[{"ph":"B","name":"x","cat":"c","pid":0,"tid":1,"ts":1,
                       "args":{"phase":"finish","seq":0}}]"#;
        assert!(check_chrome_trace(bad).unwrap_err().contains("unclosed"));
        // Backwards clock on one lane.
        let bad = r#"[
            {"ph":"B","name":"x","cat":"c","pid":0,"tid":1,"ts":5,"args":{"phase":"finish","seq":0}},
            {"ph":"E","pid":0,"tid":1,"ts":4}]"#;
        assert!(check_chrome_trace(bad).unwrap_err().contains("backwards"));
        // Untagged B.
        let bad = r#"[{"ph":"B","name":"x","cat":"c","pid":0,"tid":1,"ts":0,"args":{"seq":0}}]"#;
        assert!(check_chrome_trace(bad)
            .unwrap_err()
            .contains("phase-tagged"));
        // Non-increasing seq.
        let bad = r#"[
            {"ph":"B","name":"x","cat":"c","pid":0,"tid":1,"ts":0,"args":{"phase":"finish","seq":1}},
            {"ph":"E","pid":0,"tid":1,"ts":1},
            {"ph":"B","name":"y","cat":"c","pid":0,"tid":2,"ts":0,"args":{"phase":"finish","seq":1}},
            {"ph":"E","pid":0,"tid":2,"ts":1}]"#;
        assert!(check_chrome_trace(bad)
            .unwrap_err()
            .contains("strictly increasing"));
    }
}
