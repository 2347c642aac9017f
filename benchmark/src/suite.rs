//! The whole suite from one command: every workload in its own process
//! (so peak RSS, the thread pool and allocator state are per workload),
//! every metric printed by name with its unit, direction and bound, and
//! the A/A comparison that the bounds in `BENCHMARK.json` were set from.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{parse, Json};

/// One metric declaration from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the suite needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metric declarations.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metric declarations.
    pub per_layer: Vec<Declared>,
}

fn declared_list(doc: &Json, key: &str) -> Result<Vec<Declared>, String> {
    let field = |item: &Json, name: &str| -> Result<String, String> {
        item.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks \"{name}\""))
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" array"))?
        .iter()
        .map(|item| {
            Ok(Declared {
                name: field(item, "name")?,
                unit: field(item, "unit")?,
                better: field(item, "better")?,
                bound: item.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Contract {
    /// Reads and parses `BENCHMARK.json` from `root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no \"workloads\" array")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Self {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no \"run_seconds\"")?,
            end_to_end: declared_list(&doc, "end_to_end")?,
            per_layer: declared_list(&doc, "per_layer")?,
        })
    }
}

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Seed passed to every run.
    pub seed: u64,
    /// Measuring window; `None` takes `run_seconds` from the contract
    /// (1 s under `--smoke`).
    pub seconds: Option<f64>,
    /// Tiny shapes.
    pub smoke: bool,
    /// Run the end-to-end suite twice and compare.
    pub aa: bool,
    /// Output directory handed to every run.
    pub out_dir: PathBuf,
}

/// One child run's parsed last line.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// `correct` from the last line.
    pub correct: bool,
    /// `attempted` from the last line.
    pub attempted: f64,
    /// `failed` from the last line.
    pub failed: f64,
    /// `(name, value, unit)` per metric, in emitted order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the one-object last line of a run's standard output.
pub fn parse_last_line(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("run printed nothing")?;
    let doc = parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("last line lacks \"{key}\""))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("last line lacks \"metrics\"")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn run_child(
    args: &SuiteArgs,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child; its stderr (check failures) passes
    // through to ours.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    parse_last_line(&String::from_utf8_lossy(&output.stdout))
}

/// Names emitted but not declared, and declared but not emitted.
pub fn set_difference(emitted: &ChildResult, declared: &[Declared]) -> (Vec<String>, Vec<String>) {
    let extra = emitted
        .metrics
        .iter()
        .filter(|(name, ..)| !declared.iter().any(|d| d.name == *name))
        .map(|(name, ..)| name.clone())
        .collect();
    let missing = declared
        .iter()
        .filter(|d| !emitted.metrics.iter().any(|(name, ..)| *name == d.name))
        .map(|d| d.name.clone())
        .collect();
    (extra, missing)
}

/// True when `result` is correct and emits exactly the declared metrics.
fn sets_ok(result: &ChildResult, declared: &[Declared], what: &str) -> bool {
    let (extra, missing) = set_difference(result, declared);
    let complete = extra.is_empty() && missing.is_empty();
    if !complete {
        println!("  {what}: emitted but undeclared {extra:?}; declared but missing {missing:?}");
    }
    complete && result.correct
}

fn print_table(title: &str, result: &ChildResult, declared: &[Declared]) {
    println!(
        "  {title}: {} — {} attempted, {} failed",
        if result.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        result.attempted,
        result.failed
    );
    println!(
        "    {:<40} {:>18} {:<8} {:<7} bound",
        "metric", "value", "unit", "better"
    );
    for (name, value, unit) in &result.metrics {
        let d = declared.iter().find(|d| d.name == *name);
        println!(
            "    {:<40} {:>18.6} {:<8} {:<7} {}",
            name,
            value,
            unit,
            d.map_or("?", |d| d.better.as_str()),
            d.and_then(|d| d.bound)
                .map_or_else(String::new, |b| format!("{:.0} %", b * 100.0)),
        );
    }
}

/// How much worse `b` is than `a` for a metric whose better direction is
/// `better`, as a share of `a` (negative when `b` is better).
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Runs the suite; returns whether everything was correct, complete and —
/// under `--aa` — within bounds.
pub fn run_suite(args: &SuiteArgs, root: &Path) -> Result<bool, String> {
    let contract = Contract::load(root)?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        contract.run_seconds
    });
    let mut ok = true;
    for workload in &contract.workloads {
        println!("== {workload} (seed {}, {seconds} s per run)", args.seed);
        let first = run_child(args, workload, seconds, false)?;
        ok &= sets_ok(&first, &contract.end_to_end, "end-to-end");
        print_table("end-to-end", &first, &contract.end_to_end);
        if args.aa {
            let second = run_child(args, workload, seconds, false)?;
            ok &= sets_ok(&second, &contract.end_to_end, "end-to-end (second run)");
            println!("  A/A: second run against the first, same build and seed");
            for d in &contract.end_to_end {
                let find = |r: &ChildResult| {
                    r.metrics
                        .iter()
                        .find(|(name, ..)| *name == d.name)
                        .map(|&(_, value, _)| value)
                };
                let (Some(a), Some(b)) = (find(&first), find(&second)) else {
                    continue;
                };
                let bound = d.bound.unwrap_or(0.0);
                let spread = (a - b).abs() / a.abs().min(b.abs());
                let within = worsening(a, b, &d.better).abs() <= bound;
                println!(
                    "    {:<40} {:>18.6} {:>18.6}  spread {:>7.3} %  bound {:>4.0} %  {}",
                    d.name,
                    a,
                    b,
                    spread * 100.0,
                    bound * 100.0,
                    if a == b {
                        "exact"
                    } else if within {
                        "ok"
                    } else {
                        "OUT OF BOUND"
                    }
                );
                if !within {
                    ok = false;
                }
            }
        } else {
            let layers = run_child(args, workload, seconds, true)?;
            ok &= sets_ok(&layers, &contract.per_layer, "per-layer");
            print_table("per-layer", &layers, &contract.per_layer);
        }
    }
    println!(
        "suite {}; details in {}",
        if ok { "passed" } else { "FAILED" },
        args.out_dir.display()
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_round_trip() {
        let out = "noise\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n\n";
        let r = parse_last_line(out).unwrap();
        assert!(r.correct);
        assert_eq!(r.attempted, 3.0);
        assert_eq!(r.metrics, vec![("a_s".to_string(), 1.5, "s".to_string())]);
        assert!(parse_last_line("").is_err());
        assert!(parse_last_line("not json").is_err());
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, "lower") < 0.0);
    }

    #[test]
    fn set_difference_reports_both_sides() {
        let declared = vec![
            Declared {
                name: "a".into(),
                unit: "s".into(),
                better: "lower".into(),
                bound: Some(0.1),
            },
            Declared {
                name: "b".into(),
                unit: "s".into(),
                better: "lower".into(),
                bound: None,
            },
        ];
        let emitted = ChildResult {
            correct: true,
            attempted: 1.0,
            failed: 0.0,
            metrics: vec![("a".into(), 1.0, "s".into()), ("c".into(), 2.0, "s".into())],
        };
        let (extra, missing) = set_difference(&emitted, &declared);
        assert_eq!(extra, vec!["c".to_string()]);
        assert_eq!(missing, vec!["b".to_string()]);
    }
}
