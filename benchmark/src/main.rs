//! Command line of the benchmark. With `--workload` it is the driver's
//! contract: one workload, one mode, and as the last line of standard
//! output one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Without it, it runs the whole suite (see `suite`).

use std::path::PathBuf;
use std::process::ExitCode;

use dimboost_benchmark::json::to_string;
use dimboost_benchmark::run::{run, RunArgs};
use dimboost_benchmark::suite::{run_suite, SuiteArgs};
use dimboost_benchmark::workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--aa] [--out DIR]
  with --workload: run that workload once (--trace 0: end-to-end metrics, --trace 1: per-layer
  metrics) and print one JSON object as the last line
  without: run every workload in its own process and print every metric; --aa runs the
  end-to-end suite twice and fails if any metric moves by more than its bound";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a name")?),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => options.out_dir = PathBuf::from(value("a directory")?),
            "--smoke" => options.smoke = true,
            "--aa" => options.aa = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let outcome = match &options.workload {
        Some(name) => {
            let Some(workload) = Workload::by_name(name) else {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("error: unknown workload {name}; known: {known:?}");
                return ExitCode::from(2);
            };
            let run_args = RunArgs {
                workload: if options.smoke {
                    workload.smoke()
                } else {
                    workload
                },
                seed: options.seed,
                seconds: options
                    .seconds
                    .unwrap_or(if options.smoke { 1.0 } else { 20.0 }),
                trace: options.trace,
                smoke: options.smoke,
                out_dir: options.out_dir,
            };
            run(&run_args).map(|result| {
                for failure in &result.checks.failures {
                    println!("check failed: {failure}");
                }
                println!("{}", to_string(&result.contract_json()));
                true
            })
        }
        None => run_suite(
            &SuiteArgs {
                seed: options.seed,
                seconds: options.seconds,
                smoke: options.smoke,
                aa: options.aa,
                out_dir: options.out_dir,
            },
            std::path::Path::new("."),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
