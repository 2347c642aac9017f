//! The `{"kind":"serving_sim"}` report.
//!
//! Same canonical-vs-timed scheme as the training `RunReport`: every field that is a pure function of
//! `(models, data, arrivals, config)` — counts, simulated-clock latencies,
//! per-tenant score checksums, `sim/serve/*` metric entries — appears in
//! the canonical JSON and must be byte-identical across reruns. Wall-clock
//! measurements live in the timings-only fields `wall_secs` and
//! `wall_served_per_sec` plus `wall/`-prefixed percentile entries, all of
//! which `report_diff`'s built-in rules (`*wall_secs`, `*_per_sec`,
//! `wall/*`) ignore.
//!
//! The per-tenant array is keyed by the `name` field, which `report_diff`
//! uses for array-element identity, so a diff of two serving reports lines
//! tenants up by name rather than by position.

use dimboost_simnet::emit::JsonWriter;
use dimboost_simnet::MetricExport;

/// The per-tenant score checksum: seeded with [`FNV_OFFSET`] and extended
/// one score at a time in completion order, so it pins both the score
/// *bits* and the completion *order*.
pub use dimboost_simnet::emit::{fnv1a64_extend, FNV_OFFSET};

/// Per-tenant slice of the serving report.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name — the array-identity key for `report_diff`.
    pub name: String,
    /// Requests that arrived for this tenant.
    pub arrived: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Model swaps applied.
    pub swaps: u64,
    /// Model epoch at end of simulation (0 if never swapped).
    pub final_epoch: u64,
    /// FNV-1a 64 over served scores in completion order.
    pub score_checksum: u64,
}

/// Aggregated result of one serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSimReport {
    /// Seed the arrival schedule was built from.
    pub seed: u64,
    /// Scheduled arrivals handed to the simulation.
    pub requests_planned: u64,
    /// Arrivals processed before the horizon.
    pub arrived: u64,
    /// Arrivals admitted to a queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests queued or in flight when the simulation stopped
    /// (`arrived == served + shed + in_flight_at_end`).
    pub in_flight_at_end: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Model swaps applied.
    pub swaps: u64,
    /// Served requests whose latency exceeded the SLO.
    pub slo_violations: u64,
    /// Per-tenant queue capacity.
    pub queue_capacity: usize,
    /// Maximum batch size.
    pub max_batch: usize,
    /// The latency SLO.
    pub slo_secs: f64,
    /// Fixed per-batch service cost.
    pub service_fixed_secs: f64,
    /// Per-request service cost.
    pub service_per_row_secs: f64,
    /// Simulated clock at the last processed event.
    pub sim_clock_secs: f64,
    /// Served requests per simulated second (deterministic — this is
    /// simulated time, so it belongs in the canonical report).
    pub throughput_rps: f64,
    /// The server's structural capacity: a full batch's rows over its
    /// service time. Offered load beyond this must queue or shed.
    pub saturation_rps: f64,
    /// Median served latency (simulated seconds).
    pub latency_p50_secs: f64,
    /// 99th-percentile served latency.
    pub latency_p99_secs: f64,
    /// 99.9th-percentile served latency.
    pub latency_p999_secs: f64,
    /// Exact maximum served latency.
    pub latency_max_secs: f64,
    /// Wall-clock seconds the simulation took (timings-only).
    pub wall_secs: f64,
    /// Per-tenant breakdown, in tenant-index order.
    pub tenants: Vec<TenantReport>,
    /// Metric exports (`sim/serve/*` canonical, `wall/` timings-only).
    pub percentiles: Vec<MetricExport>,
}

impl ServeSimReport {
    /// Serializes to JSON. With `timings`, wall-clock content (`wall_secs`,
    /// `wall_served_per_sec`, `wall/` percentile entries) is included;
    /// without, the document is canonical — bit-identical across reruns.
    pub fn json(&self, timings: bool) -> String {
        let mut w = if timings {
            JsonWriter::timed()
        } else {
            JsonWriter::canonical()
        };
        w.str("kind", "serving_sim");
        w.u64("seed", self.seed);
        w.u64("requests_planned", self.requests_planned);
        w.u64("arrived", self.arrived);
        w.u64("admitted", self.admitted);
        w.u64("served", self.served);
        w.u64("shed", self.shed);
        w.u64("in_flight_at_end", self.in_flight_at_end);
        w.u64("batches", self.batches);
        w.u64("swaps", self.swaps);
        w.u64("slo_violations", self.slo_violations);
        w.u64("queue_capacity", self.queue_capacity as u64);
        w.u64("max_batch", self.max_batch as u64);
        w.f64("slo_secs", self.slo_secs);
        w.f64("service_fixed_secs", self.service_fixed_secs);
        w.f64("service_per_row_secs", self.service_per_row_secs);
        w.f64("sim_clock_secs", self.sim_clock_secs);
        w.f64("throughput_rps", self.throughput_rps);
        w.f64("saturation_rps", self.saturation_rps);
        w.f64("latency_p50_secs", self.latency_p50_secs);
        w.f64("latency_p99_secs", self.latency_p99_secs);
        w.f64("latency_p999_secs", self.latency_p999_secs);
        w.f64("latency_max_secs", self.latency_max_secs);
        let wall_rate = if self.wall_secs > 0.0 {
            self.served as f64 / self.wall_secs
        } else {
            0.0
        };
        w.wall_f64("wall_secs", self.wall_secs);
        w.wall_f64("wall_served_per_sec", wall_rate);
        w.array("tenants", &self.tenants, |w, t| {
            w.elem_object(|w| {
                w.str("name", &t.name);
                w.u64("arrived", t.arrived);
                w.u64("served", t.served);
                w.u64("shed", t.shed);
                w.u64("swaps", t.swaps);
                w.u64("final_epoch", t.final_epoch);
                w.u64("score_checksum", t.score_checksum);
            })
        });
        w.array("percentiles", &self.percentiles, |w, m| m.emit(w));
        w.finish()
    }

    /// The canonical (rerun-stable) JSON document.
    pub fn canonical_json(&self) -> String {
        self.json(false)
    }

    /// One-line human-readable summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "serve-sim: {} arrived / {} served / {} shed / {} in flight, {} batches, {} swaps, {:.0} rps (sat {:.0}), p50 {:.4}s p99 {:.4}s p999 {:.4}s max {:.4}s, {} SLO misses",
            self.arrived,
            self.served,
            self.shed,
            self.in_flight_at_end,
            self.batches,
            self.swaps,
            self.throughput_rps,
            self.saturation_rps,
            self.latency_p50_secs,
            self.latency_p99_secs,
            self.latency_p999_secs,
            self.latency_max_secs,
            self.slo_violations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ServeSimReport {
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
                name: "tenant0".into(),
                arrived: 10,
                served: 8,
                shed: 1,
                swaps: 1,
                final_epoch: 1,
                score_checksum: 42,
            }],
            percentiles: Vec::new(),
        }
    }

    #[test]
    fn canonical_json_excludes_wall_fields() {
        let r = sample_report();
        let canonical = r.canonical_json();
        assert!(canonical.starts_with("{\"kind\":\"serving_sim\""));
        assert!(!canonical.contains("wall_secs"));
        assert!(!canonical.contains("wall_served_per_sec"));
        let timed = r.json(true);
        assert!(timed.contains("\"wall_secs\":0.123"));
        assert!(timed.contains("wall_served_per_sec"));
        assert!(timed.contains("\"name\":\"tenant0\""));
        assert!(r.summary().contains("8 served"));
    }

    /// Bytes recorded from the hand-written emitter this module had before
    /// `JsonWriter` (tests/model_pins.rs does not reach this document).
    #[test]
    fn json_bytes_are_pinned() {
        let head = r#"{"kind":"serving_sim","seed":7,"requests_planned":10,"arrived":10,"admitted":9,"served":8,"shed":1,"in_flight_at_end":1,"batches":3,"swaps":1,"slo_violations":2,"queue_capacity":4,"max_batch":8,"slo_secs":0.05,"service_fixed_secs":0.0001,"service_per_row_secs":0.00001,"sim_clock_secs":0.5,"throughput_rps":16,"saturation_rps":44444.444444444445,"latency_p50_secs":0.01,"latency_p99_secs":0.04,"latency_p999_secs":0.045,"latency_max_secs":0.05,"#;
        let wall = r#""wall_secs":0.123,"wall_served_per_sec":65.04065040650407,"#;
        let tail = r#""tenants":[{"name":"tenant0","arrived":10,"served":8,"shed":1,"swaps":1,"final_epoch":1,"score_checksum":42}],"percentiles":[]}"#;
        let r = sample_report();
        assert_eq!(r.json(true), format!("{head}{wall}{tail}"));
        assert_eq!(r.canonical_json(), format!("{head}{tail}"));
    }
}
