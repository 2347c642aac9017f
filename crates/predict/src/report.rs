//! The serving benchmark and its JSON report.
//!
//! [`ServingReport`] follows the training `RunReport`'s canonical-vs-timed
//! scheme: every structural field (row/tree/thread counts, batch layout,
//! the FNV-1a checksum over the emitted score bytes, `sim/serving/*`
//! metrics) is a pure function of `(model, data, config)` and appears in
//! the canonical JSON; wall-clock measurements live in the top-level
//! `compute_secs` field and `wall/serving/*` percentile entries, both of
//! which `report_diff`'s built-in rules ignore. Two bench runs of the same
//! model and data must therefore produce byte-identical canonical reports
//! and a `report_diff` exit status of 0 — ci.sh enforces exactly that.

use std::time::Instant;

use dimboost_data::Dataset;
use dimboost_simnet::emit::{fmt_f64, fnv1a64, push_field};
use dimboost_simnet::{MetricExport, MetricsRegistry};

use crate::compiled::CompiledModel;
use crate::engine::{score_with_metrics, EngineConfig, ScoreKind};

/// Options for [`run_serving_bench`].
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Engine configuration (threads, batch size).
    pub engine: EngineConfig,
    /// How many times to score the full dataset (all repeats timed).
    pub repeats: usize,
    /// Emit raw per-class scores instead of transformed predictions.
    pub raw: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            repeats: 3,
            raw: false,
        }
    }
}

/// Result of one serving benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Rows scored per repeat.
    pub rows: usize,
    /// Dataset feature dimensionality.
    pub features: usize,
    /// Model score columns.
    pub classes: usize,
    /// Trees in the compiled model.
    pub trees: usize,
    /// Total compiled nodes.
    pub nodes: usize,
    /// Worker threads requested.
    pub threads: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// Batches per repeat.
    pub batches: usize,
    /// Number of timed repeats.
    pub repeats: usize,
    /// `"raw"` or `"transformed"` — which scores were emitted.
    pub score_kind: &'static str,
    /// FNV-1a 64 checksum over the emitted scores' little-endian bytes.
    /// Deterministic: pins the exact output bits into the canonical report.
    pub score_checksum: u64,
    /// Total wall seconds across all repeats (ignored by `report_diff`).
    pub compute_secs: f64,
    /// Metric exports from the serving registry (`sim/` canonical,
    /// `wall/` timings-only).
    pub percentiles: Vec<MetricExport>,
}

/// Scores `data` with `model` `opts.repeats` times and reports throughput.
///
/// Returns the scores of the final repeat (all repeats are asserted
/// bit-identical — the engine's striping makes this structural, and the
/// bench doubles as a runtime determinism gate) plus the filled report.
pub fn run_serving_bench(
    model: &CompiledModel,
    data: &Dataset,
    opts: &BenchOptions,
) -> (Vec<f32>, ServingReport) {
    assert!(opts.repeats > 0, "repeats must be positive");
    let kind = if opts.raw {
        ScoreKind::Raw
    } else {
        ScoreKind::Transformed
    };
    let mut registry = MetricsRegistry::new();
    let mut compute_secs = 0.0f64;
    let mut scores: Vec<f32> = Vec::new();
    for rep in 0..opts.repeats {
        let start = Instant::now();
        let out = score_with_metrics(model, data, &opts.engine, kind, &mut registry);
        let secs = start.elapsed().as_secs_f64();
        compute_secs += secs;
        registry.observe("wall/serving/repeat_secs", secs);
        if rep > 0 {
            assert_eq!(
                out, scores,
                "serving repeat {rep} diverged from repeat 0 — engine determinism broken"
            );
        }
        scores = out;
    }
    registry.counter_add("sim/serving/repeats", opts.repeats as u64);
    if compute_secs > 0.0 {
        registry.gauge_set(
            "wall/serving/rows_per_sec",
            (data.num_rows() * opts.repeats) as f64 / compute_secs,
        );
    }
    let report = ServingReport {
        rows: data.num_rows(),
        features: data.num_features(),
        classes: model.num_classes(),
        trees: model.num_trees(),
        nodes: model.num_nodes(),
        threads: opts.engine.threads,
        batch_size: opts.engine.batch_size,
        batches: data.num_rows().div_ceil(opts.engine.batch_size),
        repeats: opts.repeats,
        score_kind: if opts.raw { "raw" } else { "transformed" },
        score_checksum: fnv1a64(&scores),
        compute_secs,
        percentiles: registry.export(),
    };
    (scores, report)
}

impl ServingReport {
    /// Serializes to JSON. With `timings`, wall-clock content
    /// (`compute_secs`, `wall/` percentile entries) is included; without,
    /// the document is canonical — bit-identical across reruns.
    pub fn json(&self, timings: bool) -> String {
        let mut out = String::from("{");
        push_field(&mut out, "kind", "\"serving\"", true);
        push_field(&mut out, "rows", &self.rows.to_string(), false);
        push_field(&mut out, "features", &self.features.to_string(), false);
        push_field(&mut out, "classes", &self.classes.to_string(), false);
        push_field(&mut out, "trees", &self.trees.to_string(), false);
        push_field(&mut out, "nodes", &self.nodes.to_string(), false);
        push_field(&mut out, "threads", &self.threads.to_string(), false);
        push_field(&mut out, "batch_size", &self.batch_size.to_string(), false);
        push_field(&mut out, "batches", &self.batches.to_string(), false);
        push_field(&mut out, "repeats", &self.repeats.to_string(), false);
        push_field(
            &mut out,
            "score_kind",
            &format!("\"{}\"", self.score_kind),
            false,
        );
        push_field(
            &mut out,
            "score_checksum",
            &self.score_checksum.to_string(),
            false,
        );
        if timings {
            push_field(&mut out, "compute_secs", &fmt_f64(self.compute_secs), false);
        }
        out.push_str(",\"percentiles\":[");
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
        let total_rows = (self.rows * self.repeats) as f64;
        let rate = if self.compute_secs > 0.0 {
            total_rows / self.compute_secs
        } else {
            0.0
        };
        format!(
            "serving bench: {} rows × {} repeats, {} trees / {} nodes, {} thread(s), batch {} → {:.0} rows/s ({:.4}s), checksum {:016x}",
            self.rows,
            self.repeats,
            self.trees,
            self.nodes,
            self.threads,
            self.batch_size,
            rate,
            self.compute_secs,
            self.score_checksum,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_core::{train_single_machine, GbdtConfig, LossKind};
    use dimboost_data::synthetic::{generate, SparseGenConfig};

    fn setup() -> (CompiledModel, Dataset) {
        let ds = generate(&SparseGenConfig::new(200, 30, 6, 5));
        let cfg = GbdtConfig {
            num_trees: 3,
            max_depth: 3,
            loss: LossKind::Logistic,
            ..GbdtConfig::default()
        };
        let model = train_single_machine(&ds, &cfg).unwrap();
        (CompiledModel::compile(&model), ds)
    }

    #[test]
    fn canonical_report_is_rerun_stable() {
        let (c, ds) = setup();
        let opts = BenchOptions {
            engine: EngineConfig {
                threads: 4,
                batch_size: 16,
            },
            repeats: 2,
            raw: false,
        };
        let (scores_a, report_a) = run_serving_bench(&c, &ds, &opts);
        let (scores_b, report_b) = run_serving_bench(&c, &ds, &opts);
        assert_eq!(scores_a, scores_b);
        assert_eq!(report_a.canonical_json(), report_b.canonical_json());
        // The timed documents almost surely differ; the canonical ones may
        // not contain any wall field at all.
        assert!(!report_a.canonical_json().contains("wall/"));
        assert!(!report_a.canonical_json().contains("compute_secs"));
        assert!(report_a.json(true).contains("compute_secs"));
        assert!(report_a.json(true).contains("wall/serving/batch_secs"));
    }

    #[test]
    fn report_counts_are_structural() {
        let (c, ds) = setup();
        let opts = BenchOptions {
            engine: EngineConfig {
                threads: 2,
                batch_size: 64,
            },
            repeats: 3,
            raw: true,
        };
        let (scores, report) = run_serving_bench(&c, &ds, &opts);
        assert_eq!(report.rows, 200);
        assert_eq!(report.batches, 4);
        assert_eq!(report.repeats, 3);
        assert_eq!(report.score_kind, "raw");
        assert_eq!(scores.len(), 200);
        assert_eq!(report.score_checksum, fnv1a64(&scores));
        assert!(report.compute_secs >= 0.0);
        assert!(report.summary().contains("200 rows"));
    }

    #[test]
    fn checksum_pins_score_bits() {
        assert_eq!(fnv1a64(&[]), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a64(&[1.0, 2.0]);
        let b = fnv1a64(&[2.0, 1.0]);
        assert_ne!(a, b, "checksum must be order-sensitive");
        // -0.0 and 0.0 compare equal but have different bits; the checksum
        // must see the difference (it hashes bits, not values).
        assert_ne!(fnv1a64(&[0.0]), fnv1a64(&[-0.0]));
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn rejects_zero_repeats() {
        let (c, ds) = setup();
        let opts = BenchOptions {
            repeats: 0,
            ..BenchOptions::default()
        };
        run_serving_bench(&c, &ds, &opts);
    }
}
