//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the experiment index).
//!
//! Each binary prints a table with the same rows/series the paper reports.
//! Absolute numbers differ from the paper — computation runs on this
//! machine, communication on the simulated network — but the *shapes*
//! (orderings, speedup factors, crossovers) are the reproduction targets,
//! recorded in EXPERIMENTS.md.
//!
//! Set `DIMBOOST_SCALE=full` for paper-shaped (slow) runs; the default
//! `quick` scale finishes in seconds per experiment.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::time::Instant;

use dimboost_baselines::{train_baseline, train_tencentboost, BaselineKind, BaselineOutput};
use dimboost_core::metrics::classification_error;
use dimboost_core::{train_distributed, GbdtConfig, LossPoint, Optimizations, RunReport, Trace};
use dimboost_data::Dataset;
use dimboost_ps::PsConfig;
use dimboost_simnet::{CostModel, Phase};

pub mod check;
pub mod diff;
pub mod json;

/// Experiment scale, selected by the `DIMBOOST_SCALE` environment variable
/// (`quick` default, `full` for larger paper-shaped runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment sizes for CI and iteration.
    Quick,
    /// Larger runs that stress the same asymptotics.
    Full,
}

impl Scale {
    /// Reads `DIMBOOST_SCALE`. A value that is neither scale ends the
    /// process with status 2: a misspelt `full` must not quietly regenerate
    /// `results/*_full.txt` at quick scale.
    pub fn from_env() -> Self {
        let value = std::env::var_os("DIMBOOST_SCALE");
        Scale::parse(value.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// `quick` or `full` in any letter case; unset means quick.
    fn parse(value: Option<&OsStr>) -> Result<Self, String> {
        let Some(value) = value else {
            return Ok(Scale::Quick);
        };
        match value.to_str().map(str::to_ascii_lowercase).as_deref() {
            Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            _ => Err(format!(
                "DIMBOOST_SCALE={value:?}: expected `quick` or `full` (unset means quick)"
            )),
        }
    }

    /// Picks the quick or full variant of a size.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One system's end-to-end result, printable as a table row.
#[derive(Debug, Clone)]
pub struct SystemResult {
    /// System label (DimBoost, XGBoost, …).
    pub system: String,
    /// Wall-clock computation seconds (max across workers per phase).
    pub compute_secs: f64,
    /// Simulated communication seconds.
    pub comm_secs: f64,
    /// Payload bytes moved.
    pub comm_bytes: u64,
    /// Test error (misclassification), if a test set was supplied.
    pub test_error: Option<f64>,
    /// Per-tree training-loss curve.
    pub curve: Vec<LossPoint>,
    /// Structured per-phase / per-round run report (DimBoost runner only —
    /// the baselines predate phase attribution).
    pub report: Option<RunReport>,
    /// Event-level trace (DimBoost runner only, and only when
    /// `DIMBOOST_TRACE_DIR` requested one).
    pub trace: Option<Trace>,
}

impl SystemResult {
    /// Modelled total time (compute + simulated communication).
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.comm_secs
    }

    /// Bytes the run report books to `phase` (0 without a report).
    /// Phase-attributed bytes isolate where an optimization saves traffic:
    /// two-phase split shrinks FIND_SPLIT's pulls, low precision shrinks
    /// BUILD_HISTOGRAM's pushes.
    pub fn phase_bytes(&self, phase: Phase) -> u64 {
        let report = self.report.as_ref();
        report
            .and_then(|r| r.phase(phase))
            .map_or(0, |p| p.comm.bytes)
    }
}

/// A system of the paper's comparison (§2.3, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The DimBoost trainer under `config.opts`.
    DimBoost,
    /// The parameter server without DimBoost's optimizations.
    TencentBoost,
    /// A collective-based data-parallel baseline.
    Collective(BaselineKind),
}

impl System {
    /// The five systems of Figures 12 and 14, DimBoost first.
    pub const ALL: [System; 5] = [
        System::DimBoost,
        System::TencentBoost,
        System::Collective(BaselineKind::Xgboost),
        System::Collective(BaselineKind::Lightgbm),
        System::Collective(BaselineKind::Mllib),
    ];

    /// Human-readable system name.
    pub fn name(self) -> &'static str {
        match self {
            System::DimBoost => "DimBoost",
            System::TencentBoost => "TencentBoost",
            System::Collective(kind) => kind.name(),
        }
    }
}

/// Trains `system` on `shards` and packages the result. `servers` sizes the
/// parameter server of the two PS systems; the collective baselines have
/// none and ignore it.
pub fn run(
    system: System,
    shards: &[Dataset],
    config: &GbdtConfig,
    servers: usize,
    cost: CostModel,
    test: Option<&Dataset>,
) -> SystemResult {
    let ps = PsConfig {
        num_servers: servers,
        num_partitions: 0,
        cost_model: cost,
    };
    let flat = |out: BaselineOutput| (out.model, out.breakdown, out.loss_curve, None, None);
    let trained = match system {
        System::DimBoost => {
            let mut config = config.clone();
            // Event traces are opt-in per experiment run via the same env-var
            // convention as reports: collecting them costs memory per event.
            config.collect_trace = std::env::var_os("DIMBOOST_TRACE_DIR").is_some();
            train_distributed(shards, &config, ps)
                .map(|o| (o.model, o.breakdown, o.loss_curve, Some(o.report), o.trace))
        }
        System::TencentBoost => train_tencentboost(shards, config, ps).map(flat),
        System::Collective(kind) => train_baseline(kind, shards, config, cost).map(flat),
    };
    let (model, breakdown, curve, report, trace) =
        trained.unwrap_or_else(|e| panic!("{} training failed: {e}", system.name()));
    SystemResult {
        system: system.name().into(),
        compute_secs: breakdown.compute_secs,
        comm_secs: breakdown.comm.sim_time.seconds(),
        comm_bytes: breakdown.comm.bytes,
        test_error: test.map(|t| classification_error(&model.predict_dataset(t), t.labels())),
        curve,
        report,
        trace,
    }
}

/// The four cumulative FIND_SPLIT configurations of Table 3c, in the
/// paper's order: each adds one optimization to the previous.
pub fn table3_steps() -> [(&'static str, Optimizations); 4] {
    let without = |task_scheduler, two_phase_split, low_precision| Optimizations {
        task_scheduler,
        two_phase_split,
        low_precision,
        ..Optimizations::ALL
    };
    [
        (
            "index+sparse+batch (no sched/2phase/lp)",
            without(false, false, false),
        ),
        ("+ task scheduler", without(true, false, false)),
        ("+ two-phase split", without(true, true, false)),
        ("+ low-precision histogram", Optimizations::ALL),
    ]
}

/// Table rows for a run report's per-phase breakdown (pairs with
/// [`PHASE_HEADER`]).
pub fn phase_rows(report: &RunReport) -> Vec<Vec<String>> {
    report
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.name().to_string(),
                fmt_secs(p.compute_max_secs),
                fmt_secs(p.compute_p50_secs),
                fmt_secs(p.compute_p99_secs),
                fmt_secs(p.compute_skew_secs),
                fmt_bytes(p.comm.bytes),
                p.comm.packages.to_string(),
                fmt_secs(p.comm.sim_time.seconds()),
            ]
        })
        .collect()
}

/// Header matching [`phase_rows`].
pub const PHASE_HEADER: [&str; 8] = [
    "phase",
    "compute(max)",
    "p50",
    "p99",
    "skew",
    "bytes",
    "pkgs",
    "comm(sim)",
];

/// When the directory variable `var` is set, writes `contents()` to
/// `<dir>/<file>` and returns the path. Directories are created as needed;
/// failures are reported, not fatal (benches keep printing tables).
fn write_artifact(var: &str, file: &str, contents: impl FnOnce() -> String) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os(var)?);
    let path = dir.join(file);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("{var}: {}: {e}", path.display());
            None
        }
    }
}

impl SystemResult {
    /// Writes whatever the run carries to the directories the environment
    /// asks for, and says where: the report as `<name>.json` under
    /// `DIMBOOST_REPORT_DIR`; the trace as Chrome-trace `<name>.trace.json`
    /// and its canonical twin under `DIMBOOST_TRACE_DIR`.
    pub fn write_artifacts(&self, name: &str) {
        let (report, trace) = (self.report.as_ref(), self.trace.as_ref());
        let (reports, traces) = ("DIMBOOST_REPORT_DIR", "DIMBOOST_TRACE_DIR");
        let file = |suffix: &str| format!("{name}{suffix}");
        let canonical = file(".trace.canonical.json");
        let written = [
            report.and_then(|r| write_artifact(reports, &file(".json"), || r.json())),
            trace.and_then(|t| write_artifact(traces, &file(".trace.json"), || t.chrome_json())),
            trace.and_then(|t| write_artifact(traces, &canonical, || t.canonical_chrome_json())),
        ];
        for path in written.into_iter().flatten() {
            println!("wrote {}", path.display());
        }
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}us", s * 1e6)
    }
}

/// Formats byte counts compactly.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1}{}", UNITS[u])
}

/// Times a closure, returning its output and elapsed wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Row of the standard end-to-end comparison table.
pub fn result_row(r: &SystemResult) -> Vec<String> {
    vec![
        r.system.clone(),
        fmt_secs(r.compute_secs),
        fmt_secs(r.comm_secs),
        fmt_secs(r.total_secs()),
        fmt_bytes(r.comm_bytes),
        r.test_error.map_or("-".into(), |e| format!("{e:.4}")),
        r.curve
            .last()
            .map_or("-".into(), |p| format!("{:.4}", p.train_loss)),
    ]
}

/// Prints the first result's speedup (modelled total time) over each of
/// the others.
pub fn print_speedups(results: &[SystemResult]) {
    let Some((first, rest)) = results.split_first() else {
        return;
    };
    for r in rest {
        let speedup = r.total_secs() / first.total_secs();
        println!("  {} speedup vs {}: {speedup:.1}x", first.system, r.system);
    }
}

/// Header matching [`result_row`].
pub const RESULT_HEADER: [&str; 7] = [
    "system",
    "compute",
    "comm(sim)",
    "total",
    "bytes",
    "test err",
    "train loss",
];

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_data::partition::partition_rows;
    use dimboost_data::synthetic::{generate, SparseGenConfig};

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Full.pick(1, 100), 100);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(120.0), "120s");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(0.0015), "1.50ms");
        assert_eq!(fmt_secs(1e-5), "10.00us");
        assert_eq!(fmt_bytes(512), "512.0B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn scale_parsing() {
        let parse = |v: &str| Scale::parse(Some(OsStr::new(v)));
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        for v in ["quick", "QUICK", "Quick"] {
            assert_eq!(parse(v), Ok(Scale::Quick), "{v}");
        }
        for v in ["full", "FULL", "Full"] {
            assert_eq!(parse(v), Ok(Scale::Full), "{v}");
        }
        for v in ["fulll", "quick ", " full", "", "1"] {
            let err = parse(v).unwrap_err();
            for word in ["DIMBOOST_SCALE", "quick", "full"] {
                assert!(err.contains(word), "{v:?}: {err}");
            }
            assert!(!err.contains('\n'), "one line: {err}");
        }
    }

    #[test]
    fn systems_produce_comparable_results() {
        let ds = generate(&SparseGenConfig::new(600, 1_500, 8, 5));
        let shards = partition_rows(&ds, 4).unwrap();
        let config = GbdtConfig {
            num_trees: 2,
            max_depth: 3,
            num_candidates: 20,
            ..GbdtConfig::default()
        };
        let go = |system| {
            run(
                system,
                &shards,
                &config,
                4,
                CostModel::GIGABIT_LAN,
                Some(&ds),
            )
        };
        let results = System::ALL.map(go);
        for (r, system) in results.iter().zip(System::ALL) {
            assert_eq!(r.system, system.name());
            assert!(r.total_secs() > 0.0, "{}: zero total", r.system);
            assert!(r.test_error.unwrap() < 0.5, "{}: bad error", r.system);
            assert_eq!(r.curve.len(), 2);
        }
        let [dim, _, xgb, ..] = &results;
        // DimBoost's compressed, scatter-style pushes move fewer bytes than
        // the XGBoost-style full-histogram allreduce path.
        assert!(dim.comm_bytes < xgb.comm_bytes);
        // The DimBoost run carries the structured report and it agrees
        // with the flat fields.
        let report = dim.report.as_ref().expect("dimboost report");
        assert_eq!(report.comm.bytes, dim.comm_bytes);
        assert_eq!(report.workers, 4);
        let rows = phase_rows(report);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.len() == PHASE_HEADER.len()));
        assert!(xgb.report.is_none());
    }
}
