//! The `{"kind":"serving_sim"}` report.
//!
//! Same canonical-vs-timed scheme as the training `RunReport` and the
//! serving bench's `ServingReport`: every field that is a pure function of
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

use dimboost_simnet::emit::{fmt_f64, push_field};
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
        let mut out = String::from("{");
        push_field(&mut out, "kind", "\"serving_sim\"", true);
        push_field(&mut out, "seed", &self.seed.to_string(), false);
        push_field(
            &mut out,
            "requests_planned",
            &self.requests_planned.to_string(),
            false,
        );
        push_field(&mut out, "arrived", &self.arrived.to_string(), false);
        push_field(&mut out, "admitted", &self.admitted.to_string(), false);
        push_field(&mut out, "served", &self.served.to_string(), false);
        push_field(&mut out, "shed", &self.shed.to_string(), false);
        push_field(
            &mut out,
            "in_flight_at_end",
            &self.in_flight_at_end.to_string(),
            false,
        );
        push_field(&mut out, "batches", &self.batches.to_string(), false);
        push_field(&mut out, "swaps", &self.swaps.to_string(), false);
        push_field(
            &mut out,
            "slo_violations",
            &self.slo_violations.to_string(),
            false,
        );
        push_field(
            &mut out,
            "queue_capacity",
            &self.queue_capacity.to_string(),
            false,
        );
        push_field(&mut out, "max_batch", &self.max_batch.to_string(), false);
        push_field(&mut out, "slo_secs", &fmt_f64(self.slo_secs), false);
        push_field(
            &mut out,
            "service_fixed_secs",
            &fmt_f64(self.service_fixed_secs),
            false,
        );
        push_field(
            &mut out,
            "service_per_row_secs",
            &fmt_f64(self.service_per_row_secs),
            false,
        );
        push_field(
            &mut out,
            "sim_clock_secs",
            &fmt_f64(self.sim_clock_secs),
            false,
        );
        push_field(
            &mut out,
            "throughput_rps",
            &fmt_f64(self.throughput_rps),
            false,
        );
        push_field(
            &mut out,
            "saturation_rps",
            &fmt_f64(self.saturation_rps),
            false,
        );
        push_field(
            &mut out,
            "latency_p50_secs",
            &fmt_f64(self.latency_p50_secs),
            false,
        );
        push_field(
            &mut out,
            "latency_p99_secs",
            &fmt_f64(self.latency_p99_secs),
            false,
        );
        push_field(
            &mut out,
            "latency_p999_secs",
            &fmt_f64(self.latency_p999_secs),
            false,
        );
        push_field(
            &mut out,
            "latency_max_secs",
            &fmt_f64(self.latency_max_secs),
            false,
        );
        if timings {
            push_field(&mut out, "wall_secs", &fmt_f64(self.wall_secs), false);
            let wall_rate = if self.wall_secs > 0.0 {
                self.served as f64 / self.wall_secs
            } else {
                0.0
            };
            push_field(&mut out, "wall_served_per_sec", &fmt_f64(wall_rate), false);
        }
        out.push_str(",\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_field(&mut out, "name", &format!("\"{}\"", t.name), true);
            push_field(&mut out, "arrived", &t.arrived.to_string(), false);
            push_field(&mut out, "served", &t.served.to_string(), false);
            push_field(&mut out, "shed", &t.shed.to_string(), false);
            push_field(&mut out, "swaps", &t.swaps.to_string(), false);
            push_field(&mut out, "final_epoch", &t.final_epoch.to_string(), false);
            push_field(
                &mut out,
                "score_checksum",
                &t.score_checksum.to_string(),
                false,
            );
            out.push('}');
        }
        out.push_str("],\"percentiles\":[");
        let mut first = true;
        for m in &self.percentiles {
            if !timings && !m.deterministic {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push('{');
            push_field(&mut out, "name", &format!("\"{}\"", m.name), true);
            push_field(&mut out, "kind", &format!("\"{}\"", m.kind), false);
            push_field(&mut out, "count", &m.count.to_string(), false);
            push_field(&mut out, "value", &fmt_f64(m.value), false);
            push_field(&mut out, "min", &fmt_f64(m.min), false);
            push_field(&mut out, "max", &fmt_f64(m.max), false);
            push_field(&mut out, "p50", &fmt_f64(m.p50), false);
            push_field(&mut out, "p95", &fmt_f64(m.p95), false);
            push_field(&mut out, "p99", &fmt_f64(m.p99), false);
            out.push('}');
        }
        out.push_str("]}");
        out
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
}
