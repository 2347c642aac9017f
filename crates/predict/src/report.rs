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
use dimboost_simnet::emit::{fnv1a64, JsonWriter};
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
        let mut w = if timings {
            JsonWriter::timed()
        } else {
            JsonWriter::canonical()
        };
        w.str("kind", "serving");
        w.u64("rows", self.rows as u64);
        w.u64("features", self.features as u64);
        w.u64("classes", self.classes as u64);
        w.u64("trees", self.trees as u64);
        w.u64("nodes", self.nodes as u64);
        w.u64("threads", self.threads as u64);
        w.u64("batch_size", self.batch_size as u64);
        w.u64("batches", self.batches as u64);
        w.u64("repeats", self.repeats as u64);
        w.str("score_kind", self.score_kind);
        w.u64("score_checksum", self.score_checksum);
        w.wall_f64("compute_secs", self.compute_secs);
        w.array("percentiles", &self.percentiles, |w, m| m.emit(w));
        w.finish()
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

    /// Bytes recorded from the hand-written emitter this module had before
    /// `JsonWriter` (tests/model_pins.rs does not reach this document).
    #[test]
    fn json_bytes_are_pinned() {
        let metric = |name: &str, kind, deterministic, count, value: f64| MetricExport {
            name: name.into(),
            kind,
            deterministic,
            count,
            value,
            min: value / 4.0,
            max: value,
            p50: value / 2.0,
            p95: value * 0.75,
            p99: value,
        };
        let report = ServingReport {
            rows: 200,
            features: 30,
            classes: 1,
            trees: 3,
            nodes: 21,
            threads: 4,
            batch_size: 16,
            batches: 13,
            repeats: 2,
            score_kind: "transformed",
            score_checksum: 0xdead_beef_cafe_f00d,
            compute_secs: 0.0625,
            percentiles: vec![
                metric("sim/serving/batch_rows", "histogram", true, 26, 400.0),
                metric("sim/serving/repeats", "counter", true, 1, 2.0),
                metric("wall/serving/repeat_secs", "histogram", false, 2, 0.0625),
            ],
        };
        let head = r#"{"kind":"serving","rows":200,"features":30,"classes":1,"trees":3,"nodes":21,"threads":4,"batch_size":16,"batches":13,"repeats":2,"score_kind":"transformed","score_checksum":16045690984503111693,"#;
        let sim = r#""percentiles":[{"name":"sim/serving/batch_rows","kind":"histogram","count":26,"value":400,"min":100,"max":400,"p50":200,"p95":300,"p99":400},{"name":"sim/serving/repeats","kind":"counter","count":1,"value":2,"min":0.5,"max":2,"p50":1,"p95":1.5,"p99":2}"#;
        let wall = r#",{"name":"wall/serving/repeat_secs","kind":"histogram","count":2,"value":0.0625,"min":0.015625,"max":0.0625,"p50":0.03125,"p95":0.046875,"p99":0.0625}"#;
        assert_eq!(
            report.json(true),
            format!("{head}\"compute_secs\":0.0625,{sim}{wall}]}}")
        );
        assert_eq!(report.canonical_json(), format!("{head}{sim}]}}"));
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
